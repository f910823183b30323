"""Dual bases, denominator laws, canonical basis fingerprints and period scans.

The period machinery compares integral bases across parameters through their
canonical (denominator, HNF matrix) fingerprint: two parameters in the same
residue class modulo the period length must produce identical fingerprints.
Minimality is evidence-based: for each prime divisor p of the period length
the scanner looks for two parameters congruent modulo period/p with
different fingerprints.

A period scan computes every fingerprint, but for each candidate prime p
whose part p^v in the modulus exceeds 1 it saturates from the last p-maximal
order with den > 1 found for the same class of t modulo p^v, instead of from
Z[beta].  That start is re-checked for the new parameter (it contains
Z[beta] and is closed under multiplication; see orders) and the saturation
loop must still find nothing to add, so the fingerprints equal those
computed from scratch; a start that fails a check is dropped and Z[beta]
used instead.  A prime absent from the modulus would share one start across
all classes, which mostly fails the check, so it saturates from Z[beta].
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .family import disc_quadratic
from .linalg import adjugate
from .numberfield import NumberField, ParameterNotCoveredError, field_trace_powers, number_field
from .numutil import factorize, p_adic_valuation
from .orders import GATES, STRATEGIES, _saturate, candidate_primes, join_orders, parameter_gate
from .poly import Poly

# Exponent of 3 in the dual-basis denominator law d = 3^e * n * Q(t), n = 2..12.
DUAL_DENOMINATOR_EXPONENT = {2: 0, 3: 0, 4: 1, 5: 3, 6: 2, 7: 4, 8: 5, 9: 4, 10: 6, 11: 9, 12: 8}

# Improved per-degree period-length bounds (gcd of the dual-denominator and
# universal-denominator routes, raised to the n-th power).
PERIOD_BOUND_TABLE = {
    2: 2**2,
    3: 1,
    4: (3 * 4) ** 4,
    5: (3**3 * 5) ** 5,
    6: (3**2 * 6) ** 6,
    7: (3**4 * 7) ** 7,
    8: (3**5 * 8) ** 8,
    9: (3**4 * 9) ** 9,
    10: (3**6 * 10) ** 10,
    11: (3**9 * 11) ** 11,
    12: (3**8 * 12) ** 12,
}

# Smallest verified period lengths (minimal-period determination is out of
# scope for n = 7, 10, 11).
FINAL_PERIOD_TABLE = {2: 4, 3: 1, 4: 24, 5: 75, 6: 36, 8: 432, 9: 1, 12: 1944}

Fingerprint = tuple[int, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class DualBasis:
    """Trace-dual of the power basis: row i of matrix holds the power-basis
    coordinates of the i-th dual element."""

    field: NumberField
    matrix: tuple[tuple[Fraction, ...], ...]
    denominator: int  # lcm of all entry denominators
    law_ok: bool | None  # denominator law verdict for 2 <= n <= 12, else None


def _trace_matrix(field: NumberField) -> list[list[int]]:
    """T[i][j] = Tr(beta^(i+j)), the trace form on the power basis."""
    n = field.n
    p = field_trace_powers(field, 2 * n - 2)
    return [[p[i + j] for j in range(n)] for i in range(n)]


def dual_basis(field: NumberField) -> DualBasis:
    """Invert the trace matrix T[i][j] = Tr(beta^(i+j)) exactly as adj(T) / det(T),
    with denominator |det| / gcd(det, all adjugate entries).

    The reported law_ok states that the table denominator 3^e * n * Q(t)
    clears every entry (the per-parameter lcm d always divides it; at n = 3
    the division is proper for every integer t because the family-level
    numerators are of Fermat type t^3 - t, divisible by 3 at integers
    without being divisible in Z[t]).
    """
    n = field.n
    det, adj = adjugate(_trace_matrix(field))
    d = abs(det) // gcd(det, *(x for row in adj for x in row))
    law = None
    if 2 <= n <= 12:
        law = (3 ** DUAL_DENOMINATOR_EXPONENT[n] * n * disc_quadratic(n, field.t)) % d == 0
    return DualBasis(field, tuple(tuple(Fraction(a, det) for a in row) for row in adj), d, law)


@lru_cache(maxsize=None)
def _inverse_vandermonde(k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, D) with M / D the inverse of V[i][j] = i^j for 0 <= i, j < k, M
    integral and D > 0 the common denominator.  One entry per interpolation
    length, and the lengths in use are bounded by twice the field degree."""
    det, adj = adjugate([[i**j for j in range(k)] for i in range(k)])
    d = abs(det) // gcd(det, *(x for row in adj for x in row))
    return tuple(tuple(x * d // det for x in row) for row in adj), d


def _interpolate_int(ys: list[int]) -> list[int]:
    """Integer coefficients, lowest degree first, of the polynomial of degree
    below len(ys) taking the value ys[i] at i = 0, 1, ... (coefficients are
    asserted integral)."""
    m, d = _inverse_vandermonde(len(ys))
    out = []
    for row in m:
        q, r = divmod(sum(c * y for c, y in zip(row, ys)), d)
        if r:
            raise AssertionError("non-integral interpolation result")
        out.append(q)
    return out


def symbolic_dual_denominator(n: int) -> tuple[int, int]:
    """Family-level minimal denominator of the dual-basis matrix.

    The entries of the dual matrix are rational functions of the parameter;
    written with integer-polynomial numerators their least common denominator
    has the shape (integer front) * Q(t)^power.  Returns (front, power); the
    table law asserts front = 3^e * n and power = 1.

    The determinant of the integer trace matrix is the polynomial
    discriminant, which number_field certifies against the closed form
    front * Q(t)^(n-1); it must equal the field's discriminant at every
    point, and front is the one common quotient det / Q(t)^(n-1).  The
    adjugate is interpolated at t = 0, ..., 2n-2; its entries have degree at
    most 2n-2, which three extra verification points confirm.  Q is monic,
    so by Gauss's lemma an entry has the content of its quotient by any
    power of Q, and power is n-1-k for the largest k <= n-1 with Q^k
    dividing every nonzero entry.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    deg_bound = 2 * n - 2
    points = []
    fronts = set()
    for t0 in range(deg_bound + 4):
        field = number_field(n, t0)
        det0, adj0 = adjugate(_trace_matrix(field))
        if det0 != field.disc:
            raise AssertionError(f"the trace-matrix determinant is not the discriminant at t={t0}")
        front, rem = divmod(det0, disc_quadratic(n, t0) ** (n - 1))
        if rem:
            raise AssertionError("the parameter quadratic does not divide the determinant n-1 times")
        fronts.add(front)
        points.append([x for row in adj0 for x in row])
    if len(fronts) != 1:
        raise AssertionError("the determinant is not a constant times a power of the parameter quadratic")
    (front,) = fronts
    fit = points[: deg_bound + 1]
    entries = [Poly(_interpolate_int([adj0[k] for adj0 in fit])) for k in range(n * n)]
    for extra in range(deg_bound + 1, deg_bound + 4):
        if [entry(extra) for entry in entries] != points[extra]:
            raise AssertionError("adjugate degree bound violated")
    entries = [entry for entry in entries if not entry.is_zero]
    d_int = 1
    for entry in entries:
        d_int = lcm(d_int, front // gcd(front, *entry.coeffs))
    q_poly = Poly([9, 3, 1]) if n % 3 == 0 else Poly([1, 1, 1])
    k = next((k for k in range(n - 1, 0, -1) if all((entry % q_poly**k).is_zero for entry in entries)), 0)
    return d_int, n - 1 - k


@dataclass(frozen=True)
class TableCheck:
    ok: bool
    entries: tuple
    failures: tuple


def check_dual_denominator_table(n_values, t_samples_per_n: int, gate: str = "strict") -> TableCheck:
    """Verify the denominator-exponent table.

    Two layers: per degree, the family-level symbolic denominator must equal
    3^e * n * Q(t) exactly, except at n = 3 where the trace-matrix
    determinant is Q(t)^2 on the nose and the true front is 1 (the table
    value 3^0 * 3 is an upper multiple; this is also why the smallest period
    there is 1).  Per sampled parameter, the numeric lcm must divide the
    formula value, with equality away from n = 3.  Raises ValueError for
    t_samples_per_n < 1, which would check the symbolic layer only.
    """
    if t_samples_per_n < 1:
        raise ValueError("at least one sampled parameter per degree is required")
    entries = []
    failures = []
    for n in n_values:
        front = 3 ** DUAL_DENOMINATOR_EXPONENT[n] * n
        sym = symbolic_dual_denominator(n)
        sym_expected = (1 if n == 3 else front, 1)
        entries.append((n, "symbolic", sym, sym_expected))
        if sym != sym_expected or front % sym[0] != 0:
            failures.append((n, "symbolic", sym, sym_expected))
        found = 0
        t = 0
        while found < t_samples_per_n:
            t += 1
            ok, _ = parameter_gate(n, t, gate)
            if not ok:
                continue
            found += 1
            db = dual_basis(number_field(n, t))
            formula = front * disc_quadratic(n, t)
            expected = formula // 3 if n == 3 else formula
            entries.append((n, t, db.denominator, expected))
            if db.denominator != expected or formula % db.denominator != 0:
                failures.append((n, t, db.denominator, expected))
    return TableCheck(not failures, tuple(entries), tuple(failures))


def _scan_slice(args) -> tuple[list[tuple[int, Fingerprint]], list[tuple[int, str]]]:
    """(fingerprints, skipped) of the parameters ts, each list in order of t.

    Each t passes the gate right before its field is built, so number_field
    reads the factorization of Q(t) that the gate has just memoized, in a
    pool worker too: Q(t) is factored once per parameter, however long the
    range.  A rejected t goes to skipped with the gate's reason.  Each prime
    p with p^v = p^v_p(modulus) > 1 saturates from the last p-maximal order
    with den > 1 of the same class of t modulo p^v, kept in a cache local to
    this call.  period_scan has already checked the gate and strategy names.
    """
    n, modulus, ts, gate, strategy = args
    prime_parts = {p: p ** p_adic_valuation(modulus, p) for p in candidate_primes(n)}
    starts: dict[tuple[int, int], Fingerprint] = {}
    out = []
    skipped = []
    for t in ts:
        try:
            ok, reason = parameter_gate(n, t, gate)
            if not ok:
                skipped.append((t, reason))
                continue
            field = number_field(n, t)
            orders = []
            for p, part in prime_parts.items():
                key = (p, t % part)
                o = _saturate(field, p, strategy, starts.get(key))
                if part > 1 and o.den > 1:
                    starts[key] = o.fingerprint
                orders.append(o)
            out.append((t, join_orders(field, orders).fingerprint))
        except Exception as exc:
            exc.args = (f"{exc} (n={n}, t={t})",)
            raise
    return out, skipped


@dataclass(frozen=True)
class PeriodReport:
    n: int
    modulus: int
    gate: str
    classes: dict  # residue -> list of (t, fingerprint), ascending t
    skipped: tuple  # (t, reason), ascending t
    inconsistent: tuple  # residues whose fingerprints differ
    scanned_classes: tuple

    @property
    def consistent(self) -> bool:
        return not self.inconsistent


def period_scan(
    n: int,
    modulus: int,
    t_range,
    gate: str = "strict",
    strategy: str = "radical",
    workers: int = 1,
    residues=None,
) -> PeriodReport:
    """Group valid parameters by residue modulo the candidate period and compare
    fingerprints within each class.

    t_range is any nonempty iterable of integers; residues optionally restricts
    the scan to chosen classes (used for reduced sweeps at large moduli).  Each
    slice gates its parameters one at a time, next to their fields (see
    _scan_slice); a rejected parameter is reported in skipped with its
    reason.  With workers > 1 each pool task scans the interleaved slice
    jobs[i::workers] with its own start cache.  The report is deterministic
    and independent of the worker count.  Raises ValueError for n < 2,
    modulus < 1, an empty range, workers < 1, an unknown gate or strategy, or
    residues that leave no parameter of the range, and
    ParameterNotCoveredError when the gate rejects every remaining parameter,
    so a report always compares at least one field.  An error raised for one
    field keeps its type and gains "(n=..., t=...)" in its message.
    """
    ts = sorted(set(t_range))
    if n < 2:
        raise ValueError("degree must be at least 2")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not ts:
        raise ValueError("the parameter range is empty")
    if workers < 1:
        raise ValueError("workers must be positive")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    wanted = None if residues is None else {r % modulus for r in residues}
    jobs = [t for t in ts if wanted is None or t % modulus in wanted]
    if not jobs:
        raise ValueError("no parameter of the range lies in the chosen residue classes")
    slices = [(n, modulus, jobs[i::workers], gate, strategy) for i in range(min(workers, len(jobs)))]
    if len(slices) > 1:
        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            parts = list(pool.map(_scan_slice, slices))
    else:
        parts = [_scan_slice(s) for s in slices]
    results = sorted((item for fps, _ in parts for item in fps), key=lambda item: item[0])
    skipped = sorted((item for _, rejected in parts for item in rejected), key=lambda item: item[0])
    if not results:
        t, reason = skipped[0]
        raise ParameterNotCoveredError(
            f"the gate rejects all {len(skipped)} parameters of the range (first, t={t}: {reason})"
        )
    classes: dict[int, list] = {}
    for t, fp in results:
        classes.setdefault(t % modulus, []).append((t, fp))
    inconsistent = tuple(
        sorted(r for r, members in classes.items() if len({fp for _, fp in members}) > 1)
    )
    return PeriodReport(
        n=n,
        modulus=modulus,
        gate=gate,
        classes=classes,
        skipped=tuple(skipped),
        inconsistent=inconsistent,
        scanned_classes=tuple(sorted(classes)),
    )


def minimality_witness(n: int, n0: int, scan: PeriodReport) -> dict[int, tuple[int, int] | None]:
    """For each prime p dividing the candidate period n0, a pair (t, t') with
    t = t' modulo n0/p whose fingerprints differ; None when the scanned data
    does not refute the smaller modulus (reported as not-refuted, never proof)."""
    if n0 <= 1:
        return {}
    data = [(t, fp) for members in scan.classes.values() for t, fp in members]
    data.sort()
    out: dict[int, tuple[int, int] | None] = {}
    for p in factorize(n0):
        sub = n0 // p
        groups: dict[int, list] = {}
        witness = None
        for t, fp in data:
            bucket = groups.setdefault(t % sub, [])
            for t0, fp0 in bucket:
                if fp0 != fp:
                    witness = (t0, t)
                    break
            if witness:
                break
            bucket.append((t, fp))
        out[p] = witness
    return out
