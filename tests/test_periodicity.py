from fractions import Fraction
from math import lcm

import pytest

from simplestfields import numberfield, orders, periodicity
from simplestfields.numberfield import ParameterNotCoveredError, field_trace_powers, number_field, field_elt
from simplestfields.numutil import p_adic_valuation
from simplestfields.orders import integral_basis, parameter_gate, period_length_bound
from simplestfields.periodicity import (
    DUAL_DENOMINATOR_EXPONENT,
    FINAL_PERIOD_TABLE,
    PERIOD_BOUND_TABLE,
    _inverse_vandermonde,
    check_dual_denominator_table,
    dual_basis,
    minimality_witness,
    period_scan,
    symbolic_dual_denominator,
)

from oracles import gauss_jordan_inverse, peeled_dual_denominator


def test_trace_powers_surface():
    f = number_field(2, 1)
    assert field_trace_powers(f, 2) == (2, 2, 8)


def test_dual_basis_quadratic_hand_case():
    db = dual_basis(number_field(2, 1))
    assert db.matrix == (
        (Fraction(2, 3), Fraction(-1, 6)),
        (Fraction(-1, 6), Fraction(1, 6)),
    )
    assert db.denominator == 6
    assert db.law_ok is True


def _quartic_dual_rows(t: int):
    den = 12 * (t * t + t + 1)
    rows = [
        (8 * t * t + 3 * t + 12, -4 * t * t + 7 * t + 18, -8 * t * t + 10 * t, 2 * t - 3),
        (-4 * t * t + 7 * t + 18, 40 * t * t + 92 * t + 62, 32 * t * t + 46 * t + 5, -8 * t - 11),
        (-8 * t * t + 10 * t, 32 * t * t + 46 * t + 5, 32 * t * t + 8 * t + 1, -8 * t - 1),
        (2 * t - 3, -8 * t - 11, -8 * t - 1, 2),
    ]
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def test_quartic_dual_basis_closed_form():
    for t in (1, 2, 5, -4, 11):
        db = dual_basis(number_field(4, t))
        assert db.matrix == _quartic_dual_rows(t)
        assert db.denominator == 12 * (t * t + t + 1)


def _fraction_inverse_and_lcm(m):
    inv = gauss_jordan_inverse([[Fraction(x) for x in row] for row in m])
    return inv, lcm(*(x.denominator for row in inv for x in row))


@pytest.mark.parametrize("n", range(2, 13))
def test_dual_basis_matches_fraction_inverse(n):
    """The adjugate route gives the matrix and denominator of a Fraction
    Gauss-Jordan inverse of the trace matrix and the lcm of its entries."""
    ts = [t for t in range(-12, 13) if parameter_gate(n, t)[0]][:3]
    assert ts
    for t in ts:
        field = number_field(n, t)
        p = field_trace_powers(field, 2 * n - 2)
        inv, d = _fraction_inverse_and_lcm([[p[i + j] for j in range(n)] for i in range(n)])
        db = dual_basis(field)
        assert db.matrix == tuple(tuple(row) for row in inv)
        assert db.denominator == d


def test_inverse_vandermonde_matches_fraction_inverse():
    for k in range(1, 27):
        inv, d = _fraction_inverse_and_lcm([[i**j for j in range(k)] for i in range(k)])
        m, dd = _inverse_vandermonde(k)
        assert dd == d > 0
        assert m == tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in inv)


def test_dual_basis_trace_duality():
    # Tr(gamma_i * beta^j) = delta_ij, checked through the trace table
    for n, t in [(3, 2), (5, 1), (6, 4)]:
        f = number_field(n, t)
        db = dual_basis(f)
        p = field_trace_powers(f, 2 * n - 2)
        for i in range(n):
            for j in range(n):
                val = sum(db.matrix[i][k] * p[k + j] for k in range(n))
                assert val == (1 if i == j else 0)


@pytest.mark.parametrize("n", range(2, 14))
def test_symbolic_dual_denominator_matches_peeling_oracle(n):
    """The front read off the discriminant and the power found by trying
    Q^k from k = n-1 down agree with peeling Q off every interpolated entry;
    n = 13 lies outside the table."""
    assert symbolic_dual_denominator(n) == peeled_dual_denominator(n)


def test_dual_denominator_law_table():
    check = check_dual_denominator_table(range(2, 13), 3)
    assert check.ok, check.failures


def test_integer_coordinates_in_dual_basis():
    # every maximal-order basis element has integer dual coordinates
    for n, t in [(2, 3), (4, 7), (6, 1), (9, 1)]:
        f = number_field(n, t)
        o = integral_basis(f)
        p = field_trace_powers(f, 2 * n - 2)
        for row in o.basis:
            for j in range(n):
                tr = sum(Fraction(row[k], o.den) * p[k + j] for k in range(n))
                assert tr.denominator == 1


def test_valid_parameter_examples():
    ok, reason = parameter_gate(6, 5)
    assert not ok and reason.startswith("not squarefree")
    ok, _ = parameter_gate(4, 2)
    assert ok
    ok, reason = parameter_gate(3, 3)
    assert not ok and reason.startswith("not squarefree")
    ok, reason = parameter_gate(3, 3, gate="relaxed")
    assert not ok and "witness" in reason
    with pytest.raises(ValueError):
        parameter_gate(3, 3, gate="loose")


def test_sextic_exclusion_set():
    for t in (-8, -3, 0, 5):
        ok, reason = parameter_gate(6, t)
        assert not ok and reason.startswith("not squarefree")


def test_canonical_basis_fingerprints():
    assert integral_basis(number_field(3, 1)).fingerprint == (1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # same residue class mod 4, same fingerprint
    assert integral_basis(number_field(2, 3)).fingerprint == integral_basis(number_field(2, 7)).fingerprint
    # different classes can differ
    assert integral_basis(number_field(2, 3)).fingerprint != integral_basis(number_field(2, 5)).fingerprint


def test_period_scan_consistency_and_failure():
    rep = period_scan(3, 1, range(-30, 31))
    assert rep.consistent and rep.scanned_classes == (0,)
    rep = period_scan(2, 4, range(-50, 51))
    assert rep.consistent
    assert all(len(m) >= 2 for m in rep.classes.values())
    rep2 = period_scan(2, 2, range(-50, 51))
    assert not rep2.consistent
    assert rep2.inconsistent  # witnesses recorded per class


def test_period_scan_skip_reasons():
    rep = period_scan(6, 36, range(-10, 11))
    skipped_ts = {t for t, _ in rep.skipped}
    assert {-8, -3, 0, 5} <= skipped_ts
    for _, reason in rep.skipped:
        assert reason


def test_period_scan_residue_restriction_and_workers():
    full = period_scan(4, 24, range(-60, 61))
    restricted = period_scan(4, 24, range(-60, 61), residues=[0, 1, 2])
    assert set(restricted.scanned_classes) <= {0, 1, 2}
    for r in restricted.scanned_classes:
        assert restricted.classes[r] == full.classes[r]
    parallel = period_scan(4, 24, range(-60, 61), workers=2)
    assert parallel.classes == full.classes
    assert parallel.skipped == full.skipped


def test_minimality_witness():
    rep = period_scan(2, 4, range(-50, 51))
    w = minimality_witness(2, 4, rep)
    assert set(w) == {2}
    pair = w[2]
    assert pair is not None
    t0, t1 = pair
    assert (t0 - t1) % 2 == 0
    fp = dict()
    for members in rep.classes.values():
        fp.update(dict(members))
    assert fp[t0] != fp[t1]
    assert minimality_witness(3, 1, rep) == {}


def test_bound_chain():
    for n, final in FINAL_PERIOD_TABLE.items():
        improved = PERIOD_BOUND_TABLE[n]
        assert improved % final == 0
        assert period_length_bound(n) % improved == 0
    for n in range(2, 13):
        assert period_length_bound(n) % PERIOD_BOUND_TABLE[n] == 0


def test_dual_denominator_exponent_values():
    assert [DUAL_DENOMINATOR_EXPONENT[n] for n in range(2, 13)] == [0, 0, 1, 3, 2, 4, 5, 4, 6, 9, 8]


def test_period_scan_rejects_bad_modulus():
    with pytest.raises(ValueError):
        period_scan(2, 0, range(-5, 6))


def test_period_scan_rejects_bad_arguments():
    for args, kwargs in [
        ((1, 4, range(-5, 6)), {}),
        ((4, 24, range(5, -6)), {}),
        ((4, 24, []), {}),
        ((4, 24, range(-5, 6)), {"workers": 0}),
        ((4, 24, range(-5, 6)), {"strategy": "guess"}),
        ((4, 24, range(0, 11)), {"residues": []}),
        ((4, 24, range(0, 11)), {"residues": [12, 13]}),
    ]:
        with pytest.raises(ValueError):
            period_scan(*args, **kwargs)
    # every parameter gated out: not covered, with the count and the first reason
    with pytest.raises(ParameterNotCoveredError, match=r"rejects all 1 parameters .*t=-12: not squarefree"):
        period_scan(6, 36, [-12])
    with pytest.raises(ValueError):
        check_dual_denominator_table(range(2, 4), 0)
    with pytest.raises(ValueError):
        check_dual_denominator_table(range(2, 4), -2)


def test_period_scan_factors_each_quadratic_once(monkeypatch):
    """Each parameter is gated next to its field, so Q(t) is factored once per
    parameter even when the scan covers more parameters than the
    factorization memo holds."""
    calls = [0]
    real = numberfield.factorize

    def counted(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(numberfield, "factorize", counted)
    numberfield.quadratic_factorization.cache_clear()
    numberfield.number_field.cache_clear()
    ts = range(-2100, 2101)
    assert len(ts) > numberfield.quadratic_factorization.cache_info().maxsize
    rep = period_scan(2, 4, ts)
    assert rep.skipped and rep.classes
    assert calls[0] == len(ts)


def test_period_scan_names_the_failing_field(monkeypatch):
    real = periodicity.number_field

    def broken(n, t):
        if t == 7:
            raise ArithmeticError("broken field")
        return real(n, t)

    monkeypatch.setattr(periodicity, "number_field", broken)
    with pytest.raises(ArithmeticError, match=r"^broken field \(n=4, t=7\)$"):
        period_scan(4, 24, range(0, 20))


@pytest.mark.parametrize("n, modulus, bound", [(6, 36, 60), (8, 432, 60)])
def test_period_scan_fingerprints_match_scratch(n, modulus, bound):
    """Saturating from the cached orders of each class gives exactly the
    fingerprints computed from Z[beta]."""
    rep = period_scan(n, modulus, range(-bound, bound + 1))
    members = [(t, fp) for ms in rep.classes.values() for t, fp in ms]
    assert len(members) > 60
    for t, fp in members:
        assert fp == integral_basis(number_field(n, t)).fingerprint, t


def test_period_scan_reuses_orders(monkeypatch):
    """The scan runs fewer radical rounds than computing every field from
    Z[beta]: a start that is always rejected would not."""
    rounds = [0]
    real = orders._radical_round

    def counted(*args):
        rounds[0] += 1
        return real(*args)

    monkeypatch.setattr(orders, "_radical_round", counted)
    rep = period_scan(6, 36, range(-60, 61))
    scan_rounds, rounds[0] = rounds[0], 0
    for ms in rep.classes.values():
        for t, _ in ms:
            integral_basis(number_field(6, t))
    assert scan_rounds < rounds[0]


def test_period_scan_reuses_radical_kernels(monkeypatch):
    """Every radical round goes through the memo of _radical_kernel, the scan
    recalls kernels for recurring tables, and its fingerprints equal those
    computed with the memo emptied before each field."""
    rounds = [0]
    real = orders._radical_round

    def counted(*args):
        rounds[0] += 1
        return real(*args)

    monkeypatch.setattr(orders, "_radical_round", counted)
    orders._radical_kernel.cache_clear()
    rep = period_scan(8, 432, range(-60, 61))
    info = orders._radical_kernel.cache_info()
    assert info.hits > 0 and info.misses < rounds[0] == info.hits + info.misses
    for ms in rep.classes.values():
        for t, fp in ms:
            orders._radical_kernel.cache_clear()
            assert fp == integral_basis(number_field(8, t)).fingerprint, t


def test_period_scan_tries_no_start_for_primes_outside_the_modulus(monkeypatch):
    """At modulus 1 every class would share one start per prime, which mostly
    fails the checks, so the scan saturates from Z[beta] without trying it."""
    tried = []
    monkeypatch.setattr(orders, "_start_order", lambda field, start: tried.append(field.t))
    period_scan(6, 1, range(-30, 31))
    assert tried == []
    period_scan(6, 4, range(-30, 31))
    assert tried


def test_order_first_row_is_unit():
    # the first basis row of every order is den * (1, 0, ..., 0)
    for n, t in [(2, 3), (4, 7), (6, 1), (8, 4), (12, 1)]:
        o = integral_basis(number_field(n, t))
        assert o.basis[0] == (o.den,) + (0,) * (n - 1)
        # and every row i has degree exactly i with a positive pivot
        for i, row in enumerate(o.basis):
            assert row[i] > 0
            assert all(row[j] == 0 for j in range(i + 1, n))
