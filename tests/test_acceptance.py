"""Acceptance suite.

Every criterion runs at its stated scale with zero tolerance (all arithmetic
exact) and prints one verdict line; run with `pytest tests/test_acceptance.py -v -s`
to see the lines live.  The heavy sweeps (strategy agreement, period scans)
share session-scoped fixtures so index exclusions and minimality witnesses
reuse the computed orders.
"""

import random
import time
from fractions import Fraction

import pytest

from simplestfields.cyclo import companion_root, moebius_matrix_order, CycloRing, embed_root, sqrt_minus_three
from simplestfields.family import (
    companion_poly,
    disc_quadratic,
    discriminant_formula,
    discriminant_formula_t,
    family_poly_at,
    specialize,
)
from simplestfields.identities import (
    check_companion_shift_identity,
    check_recursions,
    check_transform_identity,
    companion_family_resultant_target,
    companion_quadratic_resultant_target,
    consecutive_family_resultant_target,
)
from simplestfields.numberfield import number_field
from simplestfields.numutil import p_adic_valuation
from simplestfields.orders import denominator_bound, integral_basis, parameter_gate
from simplestfields.periodicity import (
    FINAL_PERIOD_TABLE,
    check_dual_denominator_table,
    dual_basis,
    minimality_witness,
    period_scan,
)
from simplestfields.poly import Poly, discriminant, resultant

from oracles import check_discriminant_stops


def _verdict(num: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_structural_identities():
    t0 = time.monotonic()
    failure = check_recursions(25)
    _verdict(1, "recursions, derivative, reflection to n=25", failure is None, time.monotonic() - t0, 10)


def test_criterion_2_transform_identity():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for n in range(1, 9):
        m_samples = []
        while len(m_samples) < 2 * n + 3:
            f = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            if f not in m_samples:
                m_samples.append(f)
        a_samples = []
        while len(a_samples) < n + 1:
            f = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            if f not in a_samples:
                a_samples.append(f)
        ok = ok and check_transform_identity(n, m_samples, a_samples) is None
        for _ in range(20):
            m = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            ok = ok and check_transform_identity(n, [m], [a]) is None
    _verdict(2, "Moebius transformation identity on grids past the degree bound", ok, time.monotonic() - t0, 30)


def test_criterion_3_discriminant_closed_form():
    t0 = time.monotonic()
    rng = random.Random(3)
    ok = True
    for n in range(2, 11):
        for _ in range(20):
            m = Fraction(rng.randint(-99, 99), rng.randint(1, 12))
            ok = ok and discriminant(family_poly_at(n, m)) == discriminant_formula(n, m)
        for _ in range(20):
            t = rng.randint(-200, 200)
            ok = ok and discriminant(specialize(n, t).poly) == discriminant_formula_t(n, t)
    _verdict(3, "discriminant closed forms, symbolic and specialized", ok, time.monotonic() - t0, 60)


def test_criterion_4_resultant_lemmas():
    t0 = time.monotonic()
    rng = random.Random(4)
    quad = Poly([1, 1, 1])
    ok = True
    for n in range(1, 21):
        ok = ok and resultant(companion_poly(n), quad) == companion_quadratic_resultant_target(n)
    for n in range(1, 9):
        for _ in range(20):
            m = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
            f = family_poly_at(n, m)
            ok = ok and resultant(companion_poly(n), f) == companion_family_resultant_target(n)
            if n >= 2:
                g = family_poly_at(n - 1, m)
                ok = ok and resultant(f, g) == consecutive_family_resultant_target(n, m)
    _verdict(4, "resultant lemmas (quadratic, companion-family, consecutive)", ok, time.monotonic() - t0, 60)


def test_criterion_5_cyclotomic_claims():
    t0 = time.monotonic()
    ring = CycloRing(6)
    omega = embed_root(ring, 3)
    s = sqrt_minus_three(ring)
    ok = all(companion_poly(n)(omega) == -((-s) ** (n - 1)) for n in range(1, 31))
    for n in range(2, 13):
        alpha = companion_root(n)
        ok = ok and companion_poly(n)(alpha) == 0
        ok = ok and moebius_matrix_order(alpha, 2 * n) == n
        ok = ok and check_companion_shift_identity(n, companion_poly(n)) is None
    _verdict(5, "cube-root evaluation, companion root, matrix order, shifted identity", ok, time.monotonic() - t0, 60)


def test_criterion_6_dual_basis_reproduction():
    t0 = time.monotonic()
    ok = True
    for t in (1, 2, 5):
        den = 12 * (t * t + t + 1)
        expected = [
            [8 * t * t + 3 * t + 12, -4 * t * t + 7 * t + 18, -8 * t * t + 10 * t, 2 * t - 3],
            [-4 * t * t + 7 * t + 18, 40 * t * t + 92 * t + 62, 32 * t * t + 46 * t + 5, -8 * t - 11],
            [-8 * t * t + 10 * t, 32 * t * t + 46 * t + 5, 32 * t * t + 8 * t + 1, -8 * t - 1],
            [2 * t - 3, -8 * t - 11, -8 * t - 1, 2],
        ]
        got = dual_basis(number_field(4, t)).matrix
        ok = ok and got == tuple(tuple(Fraction(x, den) for x in row) for row in expected)
    table = check_dual_denominator_table(range(2, 13), 5)
    ok = ok and table.ok
    _verdict(6, "quartic dual-basis display and denominator-exponent table", ok, time.monotonic() - t0, 300)


@pytest.fixture(scope="module")
def strategy_sweep():
    """Criterion 7 sweep: both strategies on every valid |t| <= 30 for n <= 6
    and |t| <= 10 for n = 8; reused by criterion 8."""
    t0 = time.monotonic()
    orders = {}
    agree = True
    for n, t_bound in [(2, 30), (3, 30), (4, 30), (5, 30), (6, 30), (8, 10)]:
        for t in range(-t_bound, t_bound + 1):
            if not parameter_gate(n, t)[0]:
                continue
            field = number_field(n, t)
            enum = integral_basis(field, strategy="enumerate")
            rad = integral_basis(field, strategy="radical")
            agree = agree and enum.fingerprint == rad.fingerprint
            orders[(n, t)] = rad
    return orders, agree, time.monotonic() - t0


def test_criterion_7_strategy_agreement(strategy_sweep):
    orders, agree, elapsed = strategy_sweep
    ok = agree and len(orders) > 200
    _verdict(7, f"enumerate and radical agree on {len(orders)} fields", ok, elapsed, 900)


def test_criterion_8_index_exclusion(strategy_sweep):
    """Witness-prime exclusion and denominator-bound divisibility on every
    sweep field.  With B_n = 3^e_n * n^n the universal-denominator branch
    value and Q = disc_quadratic(n, t), the clauses are:

    - the witness prime does not divide the index;
    - den(maximal order)^2 divides B_n (the exponent form promised by
      `denominator_bound`: den divides C_n);
    - index^2 divides B_n * 3^((n-1) * v_3(Q)).  The discriminant carries
      n-1 copies of Q, so the index can exceed B_n in 3-power by at most
      that content; when 3 does not divide Q this is index^2 | B_n.

    The naive reading "index^2 divides B_n" is false: at n=5, t=-29 the
    index is 3^4 = 81 while B_5 = 3^7 * 5^5 (pinned in
    `test_integrality.test_index_exceeds_naive_branch_bound_counterexample`).
    Fields where the naive reading fails are printed for information only.
    """
    orders, _, _ = strategy_sweep
    t0 = time.monotonic()
    ok = True
    violations = []
    naive_misses = []
    for (n, t), order in orders.items():
        field = order.field
        assert field.witness is not None
        idx = order.index
        den = order.den
        if idx > 1 and p_adic_valuation(idx, field.witness) != 0:
            ok = False
            violations.append((n, t, "witness divides index"))
        bound_exp = (n * n - 7 * n + 12) // 2 if n % 3 == 0 else (n * n - 3 * n + 4) // 2
        branch_bound = 3**bound_exp * n**n
        if branch_bound % (den * den) != 0:
            ok = False
            violations.append((n, t, f"den^2 = {den}^2 does not divide 3^{bound_exp} * {n}^{n}"))
        q3 = (n - 1) * p_adic_valuation(disc_quadratic(n, t), 3)
        if (branch_bound * 3**q3) % (idx * idx) != 0:
            ok = False
            violations.append((n, t, f"index^2 = {idx}^2 does not divide 3^{bound_exp + q3} * {n}^{n}"))
        if branch_bound % (idx * idx) != 0:
            naive_misses.append((n, t, idx))
    if violations:
        print(f"[acceptance] criterion 8 counterexamples (first 5 of {len(violations)}): {violations[:5]}")
    if naive_misses:
        print(f"[acceptance] criterion 8 fields with index^2 not dividing B_n (3 | Q, informational; first 5 of {len(naive_misses)}): {naive_misses[:5]}")
    _verdict(8, "witness-prime exclusion and denominator-bound divisibility", ok, time.monotonic() - t0, 120)


@pytest.fixture(scope="module")
def period_scans():
    scans = {}
    timing = {}
    for n, t_bound in [(2, 300), (3, 300), (4, 300), (5, 300), (6, 300), (9, 100)]:
        t0 = time.monotonic()
        scans[n] = period_scan(n, FINAL_PERIOD_TABLE[n], range(-t_bound, t_bound + 1))
        timing[n] = time.monotonic() - t0
    t0 = time.monotonic()
    scans[8] = period_scan(8, 432, range(-500, 501))
    timing[8] = time.monotonic() - t0
    # n = 12 reduced sweep: ascending residues until 60 classes have >= 3
    # valid parameters within |t| <= 4000
    t0 = time.monotonic()
    chosen = []
    r = 0
    while len(chosen) < 60 and r < 1944:
        cand = [t for t in range(r - 2 * 1944, 4001, 1944) if abs(t) <= 4000]
        if sum(1 for t in cand if parameter_gate(12, t)[0]) >= 3:
            chosen.append(r)
        r += 1
    scans[12] = period_scan(12, 1944, range(-4000, 4001), residues=chosen)
    timing[12] = time.monotonic() - t0
    return scans, timing


def test_criterion_9_final_period_table(period_scans):
    scans, timing = period_scans
    ok = True
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        ok = ok and scans[n].consistent
    # reduced-sweep shape at n = 12: every scanned class carries >= 3 parameters
    ok = ok and len(scans[12].scanned_classes) >= 60
    ok = ok and all(len(m) >= 3 for m in scans[12].classes.values())
    # minimality witnesses for every prime divisor of the period
    for n in (2, 4, 5, 6, 8):
        witnesses = minimality_witness(FINAL_PERIOD_TABLE[n], scans[n])
        ok = ok and all(pair is not None for pair in witnesses.values())
    small = sum(timing[n] for n in (2, 3, 4, 5, 6, 9))
    ok = ok and small < 600 and timing[8] < 1800 and timing[12] < 7200
    total = sum(timing.values())
    _verdict(9, "final period table scans with minimality witnesses", ok, total, 600 + 1800 + 7200)


def test_discriminant_stop_enumerate_degree_10_odd_primes():
    """The part of test_integrality's discriminant-stop sweep left out there
    for time: enumerate at n = 10, p = 3 and 5, every gate-passing |t| <= 40,
    against saturation run to a round that finds nothing.  The stop never
    fires there, so every field still takes its full stopping sweep."""
    t0 = time.monotonic()
    cases = [(number_field(10, t), p) for t in range(-40, 41) if parameter_gate(10, t)[0] for p in (3, 5)]
    stops, rounds, oracle_rounds = check_discriminant_stops(cases, "enumerate")
    assert stops == 0 and rounds == oracle_rounds
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"the degree-10 stop sweep exceeded its 120s budget ({elapsed:.1f}s)"


def test_criterion_10_degenerate_parameters():
    t0 = time.monotonic()
    ok = True
    for t in (-8, -3, 0, 5):
        valid, reason = parameter_gate(6, t)
        ok = ok and not valid and reason.startswith("not squarefree")
    _verdict(10, "sextic exclusion set rejected with squarefree reasons", ok, time.monotonic() - t0, 10)
