"""Dual bases, denominator laws, canonical basis fingerprints and period scans.

The table checks and the period bounds read the dual denominator's one
exact family front, dual_denominator_front(n).
The period machinery compares integral bases across parameters through their
canonical (denominator, HNF matrix) fingerprint: two parameters in the same
residue class modulo the period length must produce identical fingerprints.
Minimality is evidence-based: for each prime divisor p of the period length
the scanner looks for two parameters congruent modulo period/p with
different fingerprints.

A period scan certifies each residue class once where it can (see
orders.class_certificate and _scan_slice) and saturates the other
parameters one at a time, each from the last p-maximal order of its class,
re-checked (see orders).  Either way every fingerprint equals the one computed from scratch,
so a wrong modulus still yields per-parameter fingerprints and an
inconsistent report.
"""

import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul
from typing import NamedTuple

from .family import disc_quadratic, discriminant_front
from .linalg import adjugate_column
from .numberfield import NumberField, ParameterNotCoveredError, field_trace_powers, number_field
from .numutil import FactoringError, factorize, p_adic_valuation
from .orders import (
    GATES,
    STRATEGIES,
    Fingerprint,
    Order,
    _saturate,
    candidate_primes,
    class_certificate,
    join_orders,
    parameter_gate,
)
from .poly import Poly

# Exponent of 3 in the dual-basis denominator law d = 3^e * n * Q(t), n = 2..12.
DUAL_DENOMINATOR_EXPONENT = {2: 0, 3: 0, 4: 1, 5: 3, 6: 2, 7: 4, 8: 5, 9: 4, 10: 6, 11: 9, 12: 8}


def dual_denominator_front(n: int) -> int:
    """Exact front of the family-level dual denominator front * Q(t): 3^e * n,
    except 1 at n = 3, where the trace-matrix determinant is Q(t)^2 (so the
    smallest period there is 1)."""
    if n not in DUAL_DENOMINATOR_EXPONENT:
        raise ValueError("the dual-denominator law is tabulated for n = 2..12")
    return 1 if n == 3 else 3 ** DUAL_DENOMINATOR_EXPONENT[n] * n


# Improved period-length bounds front^n: the front divides
# orders.denominator_bound(n), so it is the gcd of the two routes.
PERIOD_BOUND_TABLE = {n: dual_denominator_front(n) ** n for n in DUAL_DENOMINATOR_EXPONENT}

# Smallest verified period lengths (minimal-period determination is out of
# scope for n = 7, 10, 11).
FINAL_PERIOD_TABLE = {2: 4, 3: 1, 4: 24, 5: 75, 6: 36, 8: 432, 9: 1, 12: 1944}


class DualBasis(NamedTuple):
    """Trace-dual of the power basis: row i of matrix holds the power-basis
    coordinates of the i-th dual element."""

    field: NumberField
    matrix: tuple[tuple[Fraction, ...], ...]
    denominator: int  # lcm of all entry denominators
    law_ok: bool | None  # denominator law verdict for 2 <= n <= 12, else None


def _trace_matrix(field: NumberField) -> list[list[int]]:
    """T[i][j] = Tr(beta^(i+j)), the trace form on the power basis."""
    n = field.n
    p = field_trace_powers(field)
    return [[p[i + j] for j in range(n)] for i in range(n)]


def _trace_adjugate(field: NumberField) -> tuple[int, list[list[int]]]:
    """(det, adj) of the trace matrix T, from one solved column.

    By Euler's lemma the trace dual of beta^j is b_j(beta) / f'(beta), where
    f(X) / (X - beta) = sum b_j X^j (Serre, Local Fields, III 6).  So row j
    of adj(T) holds the coordinates of b_j(beta) * r, r = det / f'(beta);
    b_(n-1) = 1 makes r row n-1, solved as column n-1 of the symmetric T, and
    b_(j-1) = beta * b_j + c_j, f = sum c_j X^j, gives the other rows by
    Horner, in integers.
    T times row 0, where the recurrence ends, and times row n-1 must be det
    times a unit vector, or AssertionError; row 0 alone pins r only when
    f(0) != 0, and f(0) = 0 occurs in the family (n = 4, t = 0).
    """
    n = field.n
    c = field.poly.coeffs
    tm = _trace_matrix(field)
    det, r = adjugate_column(tm, n - 1)
    row = r
    adj = [r]
    for cj in reversed(c[1:n]):
        top = row[-1]  # beta * row mod f: shift up, and beta^n = -sum c_i beta^i
        row = [a - top * ci + cj * x for a, ci, x in zip([0, *row[:-1]], c, r)]
        adj.append(row)
    adj.reverse()
    for j in (0, n - 1):
        if [sum(map(mul, tm_row, adj[j])) for tm_row in tm] != [det * (i == j) for i in range(n)]:
            raise AssertionError(f"the trace adjugate fails its row-{j} certificate")
    return det, adj


def dual_basis(field: NumberField) -> DualBasis:
    """Invert the trace matrix T[i][j] = Tr(beta^(i+j)) exactly as adj(T) / det(T)
    (see _trace_adjugate), with denominator |det| / gcd(det, all adjugate entries).

    The reported law_ok states that the table denominator 3^e * n * Q(t)
    clears every entry (the per-parameter lcm d always divides it; at n = 3
    the division is proper for every integer t because the family-level
    numerators are of Fermat type t^3 - t, divisible by 3 at integers
    without being divisible in Z[t]).
    """
    n = field.n
    det, adj = _trace_adjugate(field)
    d = abs(det) // gcd(det, *(x for row in adj for x in row))
    law = None
    if n in DUAL_DENOMINATOR_EXPONENT:
        law = (3 ** DUAL_DENOMINATOR_EXPONENT[n] * n * disc_quadratic(n, field.t)) % d == 0
    return DualBasis(field, tuple(tuple(Fraction(a, det) for a in row) for row in adj), d, law)


@lru_cache(maxsize=None)
def _inverse_vandermonde(k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, D) with M / D the inverse of V[i][j] = i^j for 0 <= i, j < k, M
    integral and D > 0 the least common denominator.  Column i is the
    Lagrange basis polynomial P(t) / (t - i), P = prod_{m<k} (t - m), over
    its value i! * (k-1-i)! * (-1)^(k-1-i) at i.  One entry per
    interpolation length, and the lengths in use are bounded by twice the
    field degree."""
    p = [1]
    for m in range(k):
        p = [a - m * b for a, b in zip([0, *p], [*p, 0])]  # p * (t - m)
    cols = []
    for i in range(k):
        q = [0] * k  # P / (t - i) by synthetic division, highest degree first
        acc = 0
        for j in range(k, 0, -1):
            acc = p[j] + i * acc
            q[j - 1] = acc
        cols.append((q, factorial(i) * factorial(k - 1 - i) * (-1) ** (k - 1 - i)))
    d = lcm(*(abs(w) // gcd(w, *q) for q, w in cols))
    return tuple(tuple(q[j] * d // w for q, w in cols) for j in range(k)), d


def _interpolate_int(ys: list[int]) -> list[int]:
    """Integer coefficients, lowest degree first, of the polynomial of degree
    below len(ys) taking the value ys[i] at i = 0, 1, ... (coefficients are
    asserted integral)."""
    m, d = _inverse_vandermonde(len(ys))
    out = []
    for row in m:
        q, r = divmod(sum(map(mul, row, ys)), d)
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
    discriminant, which must equal the field's discriminant at every point;
    number_field reads that off the closed form front * Q(t)^(n-1), proved
    once per degree, so front is family.discriminant_front(n).  The trace
    matrix is symmetric, so its adjugate (_trace_adjugate) is too, and only
    the entries on and above the diagonal are interpolated, at t = 0, ...,
    2n-2; they have degree at most 2n-2, which three extra verification
    points confirm.  Q is monic, so by Gauss's lemma an entry has the
    content of its quotient by any power of Q, and power is n-1-k for the
    largest k <= n-1 with Q^k dividing every nonzero entry.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    deg_bound = 2 * n - 2
    front = discriminant_front(n)
    points = []
    for t0 in range(deg_bound + 4):
        field = number_field(n, t0)
        det0, adj0 = _trace_adjugate(field)
        if det0 != field.disc:
            raise AssertionError(f"the trace-matrix determinant is not the discriminant at t={t0}")
        points.append([adj0[i][j] for i in range(n) for j in range(i, n)])
    fit = points[: deg_bound + 1]
    entries = [Poly(_interpolate_int([adj0[k] for adj0 in fit])) for k in range(len(points[0]))]
    for extra in range(deg_bound + 1, deg_bound + 4):
        if [entry(extra) for entry in entries] != points[extra]:
            raise AssertionError("adjugate degree bound violated")
    entries = [entry for entry in entries if not entry.is_zero]
    d_int = 1
    for entry in entries:
        d_int = lcm(d_int, front // gcd(front, *entry.coeffs))
    q_poly = disc_quadratic(n, Poly.x())
    q_pow = [Poly.const(1)]
    for _ in range(n - 1):
        q_pow.append(q_pow[-1] * q_poly)
    k = next((k for k in range(n - 1, 0, -1) if all((entry % q_pow[k]).is_zero for entry in entries)), 0)
    return d_int, n - 1 - k


class TableCheck(NamedTuple):
    ok: bool
    entries: tuple
    failures: tuple


def check_dual_denominator_table(n_values, t_samples_per_n: int) -> TableCheck:
    """Verify the denominator-exponent table.

    Per degree, the symbolic denominator must be (front, 1) with front =
    dual_denominator_front(n); per sampled parameter, the numeric lcm must
    be front * Q(t) and pass law_ok.  The samples are the first t = 1, 2,
    ... that the strict gate passes.  Raises ValueError for
    t_samples_per_n < 1, which would check the symbolic layer only.
    """
    if t_samples_per_n < 1:
        raise ValueError("at least one sampled parameter per degree is required")
    entries = []
    failures = []
    for n in n_values:
        front = dual_denominator_front(n)
        sym = symbolic_dual_denominator(n)
        entries.append((n, "symbolic", sym, (front, 1)))
        if sym != (front, 1):
            failures.append((n, "symbolic", sym, (front, 1)))
        found = 0
        t = 0
        while found < t_samples_per_n:
            t += 1
            ok, _ = parameter_gate(n, t)
            if not ok:
                continue
            found += 1
            db = dual_basis(number_field(n, t))
            expected = front * disc_quadratic(n, t)
            entries.append((n, t, db.denominator, expected))
            if db.denominator != expected or not db.law_ok:
                failures.append((n, t, db.denominator, expected))
    return TableCheck(not failures, tuple(entries), tuple(failures))


def _scan_slice(args) -> tuple[list[tuple[int, Fingerprint]], list[tuple[int, str]]]:
    """(fingerprints, skipped) of the parameters ts, each list in order of t.

    Each t passes the gate right before its field is built, so Q(t) is
    factored once per parameter, in a pool worker too; a rejected t goes to
    skipped with the gate's reason.  For each prime p, with p^v the p-part
    of the modulus, a class of t mod p^v with more than n members in ts is
    saturated at its first gate-passing member and, under the radical
    strategy, certified there; its later members take that order.  A
    certificate reads d + 2 <= n + 1 sample tables, fewer as v grows (see
    orders.class_certificate), and certifies the saturated order at t0,
    whose table the stopping round formed (Order.table) and whose basis
    products serve the other samples; the threshold stays at n members
    whatever d is.  Other classes are saturated member by member,
    from the last p-maximal order with den > 1 of the class when p^v > 1
    (see orders._saturate for the starts it tries); that start is kept as a
    fingerprint, since an Order per class would keep its table and basis
    products too.
    Joins are memoized per tuple of p-part fingerprints.  period_scan has
    already checked the gate and strategy names.
    """
    n, modulus, ts, gate, strategy = args
    prime_parts = {p: p ** p_adic_valuation(modulus, p) for p in candidate_primes(n)}
    members = Counter((p, t % part) for t in ts for p, part in prime_parts.items())
    certified: dict[tuple[int, int], Order | None] = {}  # None: not certifiable
    starts: dict[tuple[int, int], Fingerprint] = {}
    joins: dict[tuple[Fingerprint, ...], Fingerprint] = {}
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
                o = certified.get(key)
                if o is None:
                    o = _saturate(field, p, strategy, starts.get(key))
                    if key not in certified and strategy == "radical" and members[key] > n:
                        proved = class_certificate(o, p, part, gate)[0]
                        certified[key] = o if proved else None
                    if part > 1 and o.den > 1:
                        starts[key] = o.fingerprint
                orders.append(o)
            parts = tuple(o.fingerprint for o in orders)
            if parts not in joins:
                joins[parts] = join_orders(field, orders).fingerprint
            out.append((t, joins[parts]))
        except Exception as exc:
            exc.args = (f"{exc} (n={n}, t={t})",)
            raise
    return out, skipped


class PeriodReport(NamedTuple):
    n: int
    modulus: int
    gate: str
    classes: dict  # residue -> list of (t, fingerprint), ascending t
    skipped: tuple  # (t, reason), ascending t
    inconsistent: tuple  # residues whose fingerprints differ

    @property
    def consistent(self) -> bool:
        return not self.inconsistent

    @property
    def scanned_classes(self) -> tuple:
        return tuple(sorted(self.classes))


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
    reason.  The jobs are cut into k = min(workers, len(jobs), CPUs)
    interleaved slices jobs[i::k], each scanned by one pool task with its
    own certificates and start fingerprints, where CPUs counts the CPUs
    this process may run on (os.sched_getaffinity, else os.cpu_count()):
    more slices than CPUs would only thin the classes a slice can certify.
    The report is deterministic and independent of the worker count.
    Raises ValueError for n < 2,
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
    # the CPUs this process may run on, not the host's: under an affinity
    # mask (taskset, a container's cpuset) more slices would share a CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    k = min(workers, len(jobs), cpus)
    slices = [(n, modulus, jobs[i::k], gate, strategy) for i in range(k)]
    if len(slices) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool is used

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
    )


def minimality_witness(n0: int, scan: PeriodReport) -> dict[int, tuple[int, int] | None]:
    """For each prime p dividing the candidate period n0, a pair (t, t') with
    t = t' modulo n0/p whose fingerprints differ; None when the scanned data
    does not refute the smaller modulus (reported as not-refuted, never proof)."""
    if n0 <= 1:
        return {}
    data = [(t, fp) for members in scan.classes.values() for t, fp in members]
    data.sort()
    try:
        primes = factorize(n0)
    except FactoringError as exc:
        raise ParameterNotCoveredError(f"modulus {n0} is not factored: {exc}") from None
    out: dict[int, tuple[int, int] | None] = {}
    for p in primes:
        sub = n0 // p
        # every member of a class mod sub seen before the witness shares the
        # fingerprint of the class's first member, so only that one is kept
        first: dict[int, tuple[int, Fingerprint]] = {}
        witness = None
        for t, fp in data:
            t0, fp0 = first.setdefault(t % sub, (t, fp))
            if fp0 != fp:
                witness = (t0, t)
                break
        out[p] = witness
    return out
