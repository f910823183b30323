from array import array
from fractions import Fraction
from math import lcm

import pytest

from simplestfields import numberfield, orders, periodicity
from simplestfields.family import disc_quadratic, specialize
from simplestfields.numberfield import ParameterNotCoveredError, field_trace_powers, number_field, field_elt
from simplestfields.numutil import p_adic_valuation
from simplestfields.orders import denominator_bound, integral_basis, parameter_gate, period_length_bound
from simplestfields.periodicity import (
    DUAL_DENOMINATOR_EXPONENT,
    FINAL_PERIOD_TABLE,
    PERIOD_BOUND_TABLE,
    _inverse_vandermonde,
    _trace_adjugate,
    _trace_matrix,
    check_dual_denominator_table,
    dual_basis,
    dual_denominator_front,
    minimality_witness,
    period_scan,
    symbolic_dual_denominator,
)

from oracles import (
    adjugate,
    full_degree_class_certificate,
    full_degree_differences,
    gauss_jordan_inverse,
    nested_minimality_witness,
    peeled_dual_denominator,
    single_stage_radical_kernel,
)


def test_trace_powers_surface():
    f = number_field(2, 1)
    assert field_trace_powers(f) == (2, 2, 8)


def test_dual_basis_quadratic_hand_case():
    db = dual_basis(number_field(2, 1))
    assert db.matrix == (
        (Fraction(2, 3), Fraction(-1, 6)),
        (Fraction(-1, 6), Fraction(1, 6)),
    )
    assert db.denominator == 6
    assert db.law_ok is True


def test_law_ok_reads_the_front(monkeypatch):
    """law_ok tests dual_denominator_front(n) * Q(t), which clears the dual
    matrix at every |t| <= 30, gate-rejected t included; at n = 3 that is
    Q(t) itself, not the table's 3 * Q(t)."""
    for n in range(2, 13):
        for t in range(-30, 31):
            assert dual_basis(number_field(n, t)).law_ok is True, (n, t)
    monkeypatch.setattr(periodicity, "dual_denominator_front", lambda n: 1)
    assert dual_basis(number_field(2, 1)).law_ok is False  # denominator 6 does not divide Q(1) = 3


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
    """The Euler route gives the matrix and denominator of a Fraction
    Gauss-Jordan inverse of the trace matrix and the lcm of its entries."""
    ts = [t for t in range(-12, 13) if parameter_gate(n, t)[0]][:3]
    assert ts
    for t in ts:
        field = number_field(n, t)
        p = field_trace_powers(field)
        inv, d = _fraction_inverse_and_lcm([[p[i + j] for j in range(n)] for i in range(n)])
        db = dual_basis(field)
        assert db.matrix == tuple(tuple(row) for row in inv)
        assert db.denominator == d


@pytest.mark.parametrize("n", range(2, 13))
def test_trace_adjugate_matches_full_adjugate(n):
    """One solved column and the Horner recurrence give the full
    Bareiss-Jordan adjugate of the trace matrix at every |t| <= 40, the
    parameters the gate rejects and those with f(0) = 0 included."""
    rejected = 0
    for t in range(-40, 41):
        field = number_field(n, t)
        assert _trace_adjugate(field) == adjugate(_trace_matrix(field))
        rejected += not parameter_gate(n, t)[0]
    assert rejected


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
        p = field_trace_powers(f)
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
        p = field_trace_powers(f)
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


class _RecordingExecutor:
    """A stand-in for ProcessPoolExecutor that starts no process: it records
    each pool's size and the slices mapped, and scans them in this process."""

    pools: list = []

    def __init__(self, max_workers):
        self.pools.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, slices):
        slices = list(slices)
        self.pools[-1]["slices"] = [job[2] for job in slices]
        return [fn(job) for job in slices]


def test_period_scan_pool_is_bounded_by_the_cpus(monkeypatch):
    """workers=1000 over 61 parameters asks for one process per usable CPU,
    not 61 one-parameter slices nor one per host CPU, and the report is the
    serial one; without an affinity mask the CPU count is the bound."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(periodicity.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(periodicity.os, "cpu_count", lambda: 8)  # the host's CPUs, not this process's
    monkeypatch.setattr(_RecordingExecutor, "pools", [])
    serial = period_scan(4, 24, range(-30, 31))
    pooled = period_scan(4, 24, range(-30, 31), workers=1000)
    (pool,) = _RecordingExecutor.pools
    assert pool["max_workers"] == 2
    assert sorted(t for ts in pool["slices"] for t in ts) == list(range(-30, 31))
    assert pooled.classes == serial.classes and pooled.skipped == serial.skipped
    monkeypatch.setattr(periodicity.os, "sched_getaffinity", lambda pid: {3})  # pinned to one CPU: no pool
    assert period_scan(4, 24, range(-30, 31), workers=2).classes == serial.classes
    assert len(_RecordingExecutor.pools) == 1
    monkeypatch.delattr(periodicity.os, "sched_getaffinity")  # no affinity mask: the CPU count decides
    monkeypatch.setattr(periodicity.os, "cpu_count", lambda: None)  # unknown: one slice, no pool
    assert period_scan(4, 24, range(-30, 31), workers=1000).classes == serial.classes
    assert len(_RecordingExecutor.pools) == 1
    monkeypatch.setattr(periodicity.os, "cpu_count", lambda: 2)
    assert period_scan(4, 24, range(-30, 31), workers=1000).classes == serial.classes
    assert [pool["max_workers"] for pool in _RecordingExecutor.pools] == [2, 2]


def test_minimality_witness():
    rep = period_scan(2, 4, range(-50, 51))
    w = minimality_witness(4, rep)
    assert set(w) == {2}
    pair = w[2]
    assert pair is not None
    t0, t1 = pair
    assert (t0 - t1) % 2 == 0
    fp = dict()
    for members in rep.classes.values():
        fp.update(dict(members))
    assert fp[t0] != fp[t1]
    assert minimality_witness(1, rep) == {}


@pytest.mark.parametrize(
    "n, modulus, bound", [(2, 4, 50), (2, 2, 50), (4, 24, 60), (5, 75, 100), (6, 36, 60), (8, 216, 300)]
)
def test_minimality_witness_matches_nested_oracle(n, modulus, bound):
    """Keeping only the first member of each class gives the witnesses of
    comparing with every earlier member, at three candidate periods; the
    scans at (2, 2) and (8, 216) are inconsistent."""
    rep = period_scan(n, modulus, range(-bound, bound + 1))
    assert rep.consistent == (modulus not in (2, 216))
    for n0 in (modulus, 2 * modulus, 3 * modulus):
        assert minimality_witness(n0, rep) == nested_minimality_witness(n0, rep), n0


def test_dual_denominator_front_and_period_bounds():
    """The front is 3^e * n except 1 at n = 3 and divides the universal
    denominator bound (the gcd of the two routes); the period bounds are
    front^n, pinned as first tabulated."""
    assert PERIOD_BOUND_TABLE == {
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
    for n in range(2, 13):
        front = dual_denominator_front(n)
        assert (3 ** DUAL_DENOMINATOR_EXPONENT[n] * n) // front == (3 if n == 3 else 1)
        assert denominator_bound(n) % front == 0, n
    for n in (1, 13):
        with pytest.raises(ValueError):
            dual_denominator_front(n)
    with pytest.raises(ValueError, match="degree must be at least 2"):
        symbolic_dual_denominator(1)


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
    with pytest.raises(ValueError, match="^unknown gate 'lenient'$"):
        period_scan(2, 4, range(5), gate="lenient")
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
    """The scan runs fewer radical rounds than computing every field on its
    own: a transported start that is always rejected would not.  At (6, 36)
    the class certificates alone would do; the n = 12 scan of the classes
    0..11 mod 1944 makes no certificate (every 3-adic class is too small), so
    there the transported starts do it (100 rounds against 188; the polygon
    start, which both sides use, is a proper sub-order at n = 12, p = 3)."""
    rounds = [0]
    real = orders._radical_round

    def counted(*args):
        rounds[0] += 1
        return real(*args)

    certificates = []
    real_certificate = periodicity.class_certificate

    def logged(*args):
        certificates.append(args)
        return real_certificate(*args)

    monkeypatch.setattr(orders, "_radical_round", counted)
    monkeypatch.setattr(periodicity, "class_certificate", logged)
    for n, modulus, t_range, residues in ((6, 36, range(-60, 61), None), (12, 1944, range(-4000, 4001), range(12))):
        rounds[0] = 0
        certificates.clear()
        rep = period_scan(n, modulus, t_range, residues=residues)
        scan_rounds, rounds[0] = rounds[0], 0
        for ms in rep.classes.values():
            for t, _ in ms:
                integral_basis(number_field(n, t))
        assert scan_rounds < rounds[0], n
    assert not certificates


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


def test_scan8_first_members_take_one_round(monkeypatch):
    """On the inputs of the scan8 benchmark, period_scan(8, 432, |t| <= 500),
    the polygon start is already p-maximal wherever a saturation starts
    without a transported start, so every saturation of the scan, 43 in all,
    takes exactly one radical round: the stopping one (219 rounds from
    Z[beta])."""
    rounds, saturations = [0], [0]
    real_round, real_saturate = orders._radical_round, periodicity._saturate

    def counted_round(*args):
        rounds[0] += 1
        return real_round(*args)

    def counted_saturate(*args):
        saturations[0] += 1
        return real_saturate(*args)

    monkeypatch.setattr(orders, "_radical_round", counted_round)
    monkeypatch.setattr(periodicity, "_saturate", counted_saturate)
    period_scan(8, 432, range(-500, 501))
    assert rounds[0] == saturations[0] == 43


def test_scan8_forms_each_table_and_radical_once(monkeypatch):
    """On the scan8 inputs each of the 43 certificates takes its sample s = 0
    from the saturation that found its order (the stopping round's table,
    equal to the table formed afresh at t0), so the scan forms 144 tables,
    not 187, and their basis products from the same order, so it forms
    them 43 times, not 86.  Its 189 misses of the _radical_kernel memo
    compute 67 radicals, one per distinct table mod p."""
    tables = [0]
    real_table = orders._mult_table

    def counted(*args):
        tables[0] += 1
        return real_table(*args)

    products = [0]
    real_products = orders.Order.products.func

    def counted_products(order):
        products[0] += 1
        return real_products(order)

    handed = []
    real_certificate = periodicity.class_certificate

    def logged(*args):
        handed.append(args)
        return real_certificate(*args)

    monkeypatch.setattr(orders, "_mult_table", counted)
    monkeypatch.setattr(orders.Order.products, "func", counted_products)
    monkeypatch.setattr(periodicity, "class_certificate", logged)
    orders._radical_kernel.cache_clear()
    orders._radical.cache_clear()
    period_scan(8, 432, range(-500, 501))
    assert tables[0] == 144
    assert products[0] == 43
    assert orders._radical_kernel.cache_info().misses == 189
    assert orders._radical.cache_info().misses == 67
    assert len(handed) == 43
    for order, p, part, gate in handed:
        t0 = order.field.t
        assert order == orders.p_maximal_order(number_field(8, t0), p), (p, t0)
        afresh = orders.Order(number_field(8, t0), *order.fingerprint)
        assert order.table == real_table(afresh, specialize(8, t0).poly.coeffs), (p, t0)


def _n12_slice_residues():
    """The classes mod 1944 of the n = 12 scan of acceptance criterion 9: the
    first 60 residues with at least 3 gate-passing t in |t| <= 4000."""
    chosen = []
    for r in range(1944):
        if sum(1 for t in range(r - 2 * 1944, 4001, 1944) if abs(t) <= 4000 and parameter_gate(12, t)[0]) >= 3:
            chosen.append(r)
            if len(chosen) == 60:
                return chosen
    raise AssertionError("fewer than 60 classes")


def test_radical_kernel_matches_single_stage_oracle(monkeypatch):
    """The two-stage _radical_kernel, whose radical is memoized on the table
    mod p, returns the kernel of the one-stage oracle on every table key of
    period_scan(8, 432, |t| <= 60) and of the n = 12 criterion-9 slice, at
    p = 2 and 3 with empty and nonempty kernels.  Every radical there is
    nonempty (p ramifies), so the tables of Z[beta] at (n, t, p) = (2, 2, 3)
    and (5, 1, 2), where p does not divide the discriminant, add two empty
    ones."""
    keys = set()
    real = orders._radical_kernel

    def recorded(p, n, key):
        keys.add((p, n, key))
        return real(p, n, key)

    monkeypatch.setattr(orders, "_radical_kernel", recorded)
    period_scan(8, 432, range(-60, 61))
    period_scan(12, 1944, range(-4000, 4001), residues=_n12_slice_residues())
    for n, t, p in ((2, 2, 3), (5, 1, 2)):
        keys.add((p, n, orders._table_key(p, orders.power_order(number_field(n, t)).table)))
    seen = set()
    for p, n, key in keys:
        kernel = real(p, n, key)
        assert kernel == single_stage_radical_kernel(p, n, key), (p, n)
        code = orders._key_code(p)
        radical = orders._radical(p, n, array(code, [x % p for x in array(code, key)]).tobytes())
        seen.add((n, p, bool(radical), bool(kernel)))
    assert {(8, 2, True, False), (8, 3, True, False), (2, 3, False, False), (5, 2, False, False)} <= seen
    assert {(12, p, True, k) for p in (2, 3) for k in (False, True)} <= seen


def test_period_scan_enumerate_matches_radical():
    """The enumerate strategy never certifies; its members saturate one at a
    time, each from the last order of its class, and the report equals the
    radical one."""
    args = (4, 24, range(-40, 41))
    assert period_scan(*args, strategy="enumerate") == period_scan(*args)


def test_period_scan_tries_no_start_for_primes_outside_the_modulus(monkeypatch):
    """At modulus 1 every class would share one start per prime, which mostly
    fails the checks, so the scan passes no start to _saturate.  At modulus 4
    the classes of |t| <= 11 have at most n = 6 members, too few to certify,
    so each member saturates from the start of its class.  A start is a
    (den, basis) fingerprint with den a power of p."""
    starts = []
    real = periodicity._saturate

    def recorded(field, p, strategy, start=None):
        starts.append((p, start))
        return real(field, p, strategy, start)

    monkeypatch.setattr(periodicity, "_saturate", recorded)
    period_scan(6, 1, range(-30, 31))
    assert starts and all(start is None for _, start in starts)
    starts.clear()
    period_scan(6, 4, range(-11, 12))
    assert any(start is not None for _, start in starts)
    for p, start in starts:
        if start is not None:
            den, basis = start
            assert 1 < den == p ** p_adic_valuation(den, p) and len(basis) == 6, (p, start)


def _order(n, t0, fp):
    """The lattice of the fingerprint fp in the field at t0, its table and
    basis products not yet formed."""
    return orders.Order(number_field(n, t0), *fp)


def _class_members(n, p, part, r, count, gate="strict"):
    """The first count gate-passing t = r + part * s, s = 0, 1, ..., within 60 steps."""
    ts = (t for t in range(r, r + 60 * part, part) if parameter_gate(n, t, gate)[0])
    return [t for t, _ in zip(ts, range(count))]


# n = 12, p = 3: the 18 classes r < 27 modulo 243 with 3 not dividing r, one
# in each nonempty class modulo 27 (all 162 nonempty classes take about 17 s).
N12_P3_CLASSES = tuple(r for r in range(27) if r % 3)


@pytest.mark.parametrize(
    "n, p",
    [(n, p) for n in sorted(FINAL_PERIOD_TABLE) for p in orders.candidate_primes(n)],
)
def test_class_certificate_covers_final_period_table(n, p):
    """Every class modulo the p-part of the verified period that holds a
    gate-passing t certifies at its first such t; the certified order is the
    p-maximal order at members past the sampled parameters.  A class with no
    gate-passing t has p^2 | Q(t) at all its members."""
    part = p ** p_adic_valuation(FINAL_PERIOD_TABLE[n], p)
    classes = N12_P3_CLASSES if (n, p) == (12, 3) else range(part)
    populated = 0
    for r in classes:
        members = _class_members(n, p, part, r, 1)
        if not members:
            assert all(disc_quadratic(n, r + part * s) % (p * p) == 0 for s in range(p * p)), r
            continue
        populated += 1
        t0 = members[0]
        fp = orders.p_maximal_order(number_field(n, t0), p).fingerprint
        assert orders.class_certificate(_order(n, t0, fp), p, part) == (True, "ok"), (r, t0)
        far = _class_members(n, p, part, t0 + (n + 1) * part, 1) + _class_members(n, p, part, t0 - 9 * part, 1)
        for t in far if n < 12 else far[:1]:
            assert orders.p_maximal_order(number_field(n, t), p).fingerprint == fp, (r, t)
    assert populated >= len(classes) * 2 // 3


@pytest.mark.parametrize("n, p, part", [(8, 2, 16), (8, 3, 27), (12, 2, 8)])
def test_class_certificate_checks_a_full_period(monkeypatch, n, p, part):
    """The tables mod p^2 a certificate checks, read off its Newton form, are
    those of the parameters t0 + part * s, in order of s, that the gate does
    not reject for p^2 | Q(t); they cover at least s < p^2, and no s below
    twice the bound p^(2 + floor(log_p(n - 1))) brings another table."""
    checked = []
    real = orders._radical_kernel

    def recorded(p_, n_, key):
        checked.append(key)
        return real(p_, n_, key)

    monkeypatch.setattr(orders, "_radical_kernel", recorded)
    period = p * p
    while period * p <= p * p * (n - 1):
        period *= p
    for r in (1, 2, 5):
        t0 = _class_members(n, p, part, r, 1)[0]
        lattice = _order(n, t0, orders.p_maximal_order(number_field(n, t0), p).fingerprint)
        checked.clear()
        assert orders.class_certificate(lattice, p, part) == (True, "ok")
        keys = []
        for s in range(2 * period):
            t = t0 + part * s
            if disc_quadratic(n, t) % (p * p):
                table = orders._mult_table(lattice, specialize(n, t).poly.coeffs)
                keys.append((s, orders._table_key(p, table)))
        in_order = [key for _, key in keys]
        assert checked == in_order[: len(checked)] and set(checked) == set(in_order)
        assert len(checked) >= sum(1 for s, _ in keys if s < p * p)


def test_class_certificate_forms_the_products_once(monkeypatch):
    """The products basis_i * basis_j are free of the parameter: a
    certificate forms the n(n+1)/2 of them once, not once per sample table,
    and reduces them mod each sample's polynomial."""
    products = [0]
    real = orders.zx_mul

    def counted(a, b):
        products[0] += 1
        return real(a, b)

    monkeypatch.setattr(orders, "zx_mul", counted)
    n, p, part = 8, 3, 27
    t0 = _class_members(n, p, part, 1, 1)[0]
    fp = orders.p_maximal_order(number_field(n, t0), p).fingerprint
    products[0] = 0
    assert orders.class_certificate(_order(n, t0, fp), p, part) == (True, "ok")
    assert products[0] == n * (n + 1) // 2


def test_class_certificate_matches_the_full_degree_oracle():
    """The certificate from d + 2 sample tables returns the (ok, reason) of the
    one that interpolates every cell to degree n - 1 from n + 1 tables, for
    n = 2..12, every candidate prime p and every class mod part = p^v,
    v = 0..3, part <= 27.  Each class is tried at its first gate-passing t0
    with its own p-maximal order there and with up to 4 other lattices: the
    distinct orders of the next classes, which mostly fail to certify."""
    checked = failed = 0
    for n in range(2, 13):
        for p in orders.candidate_primes(n):
            for part in (p**v for v in range(4) if p**v <= 27):
                lattices = []
                for r in range(part):
                    members = _class_members(n, p, part, r, 1)
                    if members:
                        lattices.append((members[0], orders.p_maximal_order(number_field(n, members[0]), p).fingerprint))
                for i, (t0, own) in enumerate(lattices):
                    tried = [own]
                    for _, fp in lattices[i + 1 :] + lattices[:i]:
                        if len(tried) < 5 and fp not in tried:
                            tried.append(fp)
                    for fp in tried:
                        got = orders.class_certificate(_order(n, t0, fp), p, part)
                        assert got == full_degree_class_certificate(_order(n, t0, fp), p, part), (n, p, part, t0, fp)
                        checked += 1
                        failed += not got[0]
    assert checked > 1500 and 1000 < failed < checked


def test_certificate_sample_bound_is_attained():
    """At n = 4, p = 2, part = 16, t0 = -320 the 2-maximal order has den = 4,
    so a = 2, v = 4 and d = ceil((2a + 2) / v) - 1 = 1: the exact first
    difference of the table is not 0 mod p^2, so no smaller d would do, and
    the differences past d are."""
    n, p, part, t0 = 4, 2, 16, -320
    fp = orders.p_maximal_order(number_field(n, t0), p).fingerprint
    assert fp[0] == 4
    diffs = full_degree_differences(_order(n, t0, fp), part)
    assert any(x % 4 for x in diffs[1])
    assert not any(x % 4 for d in diffs[2:] for x in d)
    got = orders.class_certificate(_order(n, t0, fp), p, part)
    assert got == full_degree_class_certificate(_order(n, t0, fp), p, part) == (True, "ok")


def test_class_certificate_builds_d_plus_two_tables(monkeypatch):
    """At n = 8, p = 3, part = 27 the 3-maximal order has den = 27 (a = 3,
    v = 3), so d = ceil(8 / 3) - 1 = 2 and a certificate builds d + 2 = 4
    tables, not n + 1 = 9."""
    tables = [0]
    real = orders._mult_table

    def counted(*args):
        tables[0] += 1
        return real(*args)

    monkeypatch.setattr(orders, "_mult_table", counted)
    n, p, part = 8, 3, 27
    for r in (1, 2, 4):
        t0 = _class_members(n, p, part, r, 1)[0]
        fp = orders.p_maximal_order(number_field(n, t0), p).fingerprint
        assert fp[0] == 27
        tables[0] = 0
        assert orders.class_certificate(_order(n, t0, fp), p, part) == (True, "ok")
        assert tables[0] == 4


def test_class_certificate_takes_the_handed_sample(monkeypatch):
    """Handed the saturated order at t0, its table formed, a certificate
    takes that table (Order.table) as the sample s = 0 and forms only the
    other d + 1 = 3 sample tables, from the order's basis products
    (Order.products), with no product formed again."""
    tables = [0]
    real = orders._mult_table

    def counted(*args):
        tables[0] += 1
        return real(*args)

    n, p, part = 8, 3, 27
    t0 = _class_members(n, p, part, 1, 1)[0]
    o = orders.p_maximal_order(number_field(n, t0), p)
    o.table
    monkeypatch.setattr(orders, "_mult_table", counted)
    monkeypatch.setattr(orders, "zx_mul", lambda a, b: pytest.fail("products formed again"))
    assert orders.class_certificate(o, p, part) == (True, "ok")
    assert tables[0] == 3


def test_class_certificate_refusals():
    """A certificate refuses an unknown gate and a den that is not a power
    of p (ValueError), and returns a failing verdict for a lattice that
    misses Z[beta] or is not closed under products at t0 itself, whose
    table is the sample s = 0.  At n = 4, t = 3 the 2-maximal order has
    den 2; the other lattices are those of test_start_order_checks."""
    field = number_field(4, 3)
    o = orders.p_maximal_order(field, 2)
    assert o.den == 2
    with pytest.raises(ValueError, match="^unknown gate 'loose'$"):
        orders.class_certificate(o, 2, 8, "loose")
    with pytest.raises(ValueError, match="^the denominator 2 is not a power of 3$"):
        orders.class_certificate(o, 3, 9)
    diag = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    low = [row[:] for row in diag]
    low[1] = [1, 4, 0, 0]
    missing = orders.Order(field, 2, tuple(map(tuple, low)))
    assert orders.class_certificate(missing, 2, 8) == (False, "the lattice does not contain Z[beta]")
    half_beta = [row[:] for row in diag]
    half_beta[1] = [0, 1, 0, 0]
    open_lattice = orders.Order(field, 2, tuple(map(tuple, half_beta)))
    assert orders.class_certificate(open_lattice, 2, 8) == (False, "the lattice is not closed under products at t=3")
    assert orders.class_certificate(o, 2, 8) == (True, "ok")


def test_class_certificate_period_counts_the_log_term(monkeypatch):
    """At n = 10, p = 2, part 1, t0 = 2 the largest k with D^k != 0 mod p^2
    is K = 3 >= p, so the certificate period is p^(2 + floor(log_p K)) = 8,
    not p^2 = 4: with every kernel empty, exactly 8 tables are looked up."""
    fp = orders.p_maximal_order(number_field(10, 2), 2).fingerprint
    looked_up = []
    monkeypatch.setattr(orders, "_radical_kernel", lambda p, n, key: looked_up.append(key) or ())
    assert orders.class_certificate(_order(10, 2, fp), 2, 1) == (True, "ok")
    assert len(looked_up) == 8


def test_class_certificate_fails_below_the_period(monkeypatch):
    """At n = 8 the 2-part of the period is 16, not 8: modulo 8, classes 0
    and 7 fail to certify and the other six certify.  The scan at modulus 216
    keeps per-t fingerprints for the failing classes and reports the same
    inconsistent classes as saturating every parameter."""
    outcomes = {}
    for r in range(8):
        t0 = _class_members(8, 2, 8, r, 1)[0]
        fp = orders.p_maximal_order(number_field(8, t0), 2).fingerprint
        outcomes[r] = orders.class_certificate(_order(8, t0, fp), 2, 8)[0]
    assert [r for r, ok in outcomes.items() if not ok] == [0, 7]
    calls = []
    real = periodicity.class_certificate

    def logged(*args):
        result = real(*args)
        calls.append(result[0])
        return result

    monkeypatch.setattr(periodicity, "class_certificate", logged)
    certified = period_scan(8, 216, range(-500, 501))
    assert calls.count(False) == 2 and calls.count(True) == 8 - 2 + 27
    monkeypatch.setattr(periodicity, "class_certificate", lambda *args: (False, "saturate every parameter"))
    per_t = period_scan(8, 216, range(-500, 501))
    assert certified.inconsistent and certified == per_t


@pytest.mark.parametrize("n, modulus", [(6, 36), (3, 1)])
def test_period_scan_follows_the_relaxed_gate(n, modulus):
    """The relaxed gate passes t with 9 | Q(t), so a 3-adic certificate may not
    skip them; every fingerprint is the relaxed integral basis and the
    verdict is the one of those fingerprints."""
    rep = period_scan(n, modulus, range(-300, 301), gate="relaxed")
    by_class = {}
    for r, members in rep.classes.items():
        for t, fp in members:
            assert fp == integral_basis(number_field(n, t), gate="relaxed").fingerprint, t
            by_class.setdefault(r, set()).add(fp)
    assert any(disc_quadratic(n, t) % 9 == 0 for ms in rep.classes.values() for t, _ in ms)
    assert rep.consistent == all(len(fps) == 1 for fps in by_class.values())


def test_order_first_row_is_unit():
    # the first basis row of every order is den * (1, 0, ..., 0)
    for n, t in [(2, 3), (4, 7), (6, 1), (8, 4), (12, 1)]:
        o = integral_basis(number_field(n, t))
        assert o.basis[0] == (o.den,) + (0,) * (n - 1)
        # and every row i has degree exactly i with a positive pivot
        for i, row in enumerate(o.basis):
            assert row[i] > 0
            assert all(row[j] == 0 for j in range(i + 1, n))
