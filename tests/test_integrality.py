import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from simplestfields import numberfield, orders, periodicity
from simplestfields._kernels import zx_divexact, zx_mulmod
from simplestfields.family import disc_quadratic, specialize
from simplestfields.numberfield import (
    ParameterNotCoveredError,
    _shifted,
    char_poly,
    field_elt,
    field_trace_powers,
    is_algebraic_integer,
    is_eisenstein,
    number_field,
)
from simplestfields.numutil import factorize, p_adic_valuation
from simplestfields.orders import (
    STRATEGIES,
    Order,
    _dedekind_order,
    _dedekind_test,
    _enumerate_round,
    _fp_radical,
    _integral_start,
    _polygon_start,
    _radical,
    _radical_kernel,
    _radical_round,
    _saturate,
    _start_order,
    _trace_candidates,
    candidate_primes,
    denominator_bound,
    integral_basis,
    join_orders,
    make_order,
    order_discriminant,
    p_maximal_order,
    parameter_gate,
    period_length_bound,
    power_order,
)
from simplestfields.periodicity import FINAL_PERIOD_TABLE, _interpolate_int, period_scan
from simplestfields.poly import Poly

from oracles import (
    brute_force_form_candidates,
    brute_force_fp_radical,
    brute_force_trace_candidates,
    fraction_shifted_min_poly,
    matrix_trace_powers,
    power_basis_radical_round,
    quadratic_maximal_fingerprint,
    resultant_char_poly,
    resultant_field_discriminant,
    trace_filter_enumerate_chain,
    two_factorization_parameter_gate,
)


def test_char_poly_examples():
    f = number_field(2, 1)  # X^2 - 2X - 2
    beta = field_elt(f, [0, 1])
    assert char_poly(beta) == f.poly
    one = field_elt(f, [1, 0])
    assert char_poly(one) == Poly([1, -2, 1])  # (Y - 1)^2
    half_beta = field_elt(f, [0, 1], 2)
    assert char_poly(half_beta) == Poly([Fraction(-1, 2), -1, 1])
    assert not is_algebraic_integer(half_beta)


def test_char_poly_degree_three():
    f = number_field(3, 1)
    e = field_elt(f, [1, 2, 1], 3)
    cp = char_poly(e)
    assert cp.degree == 3 and cp.lc == 1
    # the defining polynomial annihilates beta, so char_poly(beta) = f
    assert char_poly(field_elt(f, [0, 1, 0])) == f.poly


def test_is_algebraic_integer_examples():
    f3 = number_field(2, 3)  # X^2 - 6X - 4, disc 52, field Q(sqrt13)
    assert is_algebraic_integer(field_elt(f3, [0, 1]))
    assert is_algebraic_integer(field_elt(f3, [-2, 1], 2))  # (beta-2)/2 = (1+sqrt13)/2
    assert char_poly(field_elt(f3, [-2, 1], 2)) == Poly([-3, -1, 1])
    assert not is_algebraic_integer(field_elt(f3, [1, 1], 2))  # (1+beta)/2


def test_integral_elements_form_a_ring_on_witnesses():
    f = number_field(2, 3)
    a = field_elt(f, [-2, 1], 2)
    b = field_elt(f, [0, 1])
    # a + b and a * b as raw coordinate arithmetic
    s = field_elt(f, [a.num[0] * b.den + b.num[0] * a.den, a.num[1] * b.den + b.num[1] * a.den], a.den * b.den)
    assert is_algebraic_integer(s)
    # product: (beta-2)/2 * beta = (beta^2 - 2 beta)/2, beta^2 = 6 beta + 4
    prod = field_elt(f, [4, 4], 2)
    assert is_algebraic_integer(prod)


def test_eisenstein_witness_examples():
    assert number_field(4, 2).witness == 7
    assert number_field(6, 5).witness is None  # 49 = 7^2
    assert number_field(3, 0).witness is None  # 9 has no non-3 prime
    assert number_field(3, 1).witness == 13


def test_shifted_poly_is_eisenstein():
    for n, t in [(2, 3), (4, 2), (5, 3), (3, 1), (6, 1), (9, 2), (12, 1)]:
        field = number_field(n, t)
        p = field.witness
        assert p is not None
        shifted = _shifted(n, t, field.poly)
        assert shifted.lc == 1
        assert is_eisenstein(shifted, p)


def test_field_certificate_against_fraction_shift_and_two_factorization_gate():
    """The integer shift, the witness read off one factorization and the
    one-factorization gate agree with the Fraction-shift route and the
    squarefree-then-factorize gate, reasons included."""
    for n in range(2, 13):
        for t in range(-40, 41):
            field = number_field(n, t)
            shifted = fraction_shifted_min_poly(n, t)
            assert _shifted(n, t, field.poly) == shifted, (n, t)
            q = disc_quadratic(n, t)
            want = next((p for p, e in factorize(q).items() if p != 3 and e == 1), None)
            assert field.witness == want, (n, t)
            assert want is None or is_eisenstein(shifted, want)
            for gate in ("strict", "relaxed"):
                assert parameter_gate(n, t, gate) == two_factorization_parameter_gate(n, t, gate), (n, t, gate)


def test_number_field_discriminant_matches_per_field_resultant():
    """The closed-form discriminant a field carries is the resultant
    discriminant of its own polynomial, field by field."""
    for n in range(2, 13):
        for t in range(-40, 41):
            assert number_field(n, t).disc == resultant_field_discriminant(n, t), (n, t)


def test_discriminant_law_is_proved_once_per_degree(monkeypatch):
    """Building fields of one degree takes the 2n - 1 resultants of the proof
    once, whatever the number of fields, and none per field."""
    resultants = []
    real = numberfield.discriminant

    def counted(f):
        resultants.append(f.degree)
        return real(f)

    monkeypatch.setattr(numberfield, "discriminant", counted)
    numberfield._discriminant_law.cache_clear()
    numberfield.number_field.cache_clear()
    for n in (5, 8):
        for t in range(-30, 31):
            number_field(n, t)
    assert resultants == [5] * 9 + [8] * 15


@pytest.mark.parametrize("n", [2, 6, 7])
def test_discriminant_law_rejects_a_closed_form_wrong_at_one_point(monkeypatch, n):
    """A closed form that is off at one of the 2n - 1 proof points fails the
    proof, and then no field of that degree is built."""
    real = numberfield.discriminant_formula_t
    monkeypatch.setattr(numberfield, "discriminant_formula_t", lambda n_, t: real(n_, t) + (t == n))
    numberfield._discriminant_law.cache_clear()
    numberfield.number_field.cache_clear()
    with pytest.raises(AssertionError, match=f"discriminant mismatch at n={n}, t={n}"):
        numberfield._discriminant_law(n)
    with pytest.raises(AssertionError):
        number_field(n, 100)
    monkeypatch.undo()
    numberfield._discriminant_law.cache_clear()
    assert number_field(n, 100).disc == real(n, 100)


def test_trace_powers_against_companion_matrix_oracle():
    for n, t in [(2, 1), (3, 2), (4, 7), (6, 2)]:
        f = number_field(n, t)
        got = list(field_trace_powers(f))
        want = matrix_trace_powers(list(f.poly.coeffs), 2 * n - 2)
        assert got == want


def test_trace_power_examples():
    f = number_field(2, 1)
    p = field_trace_powers(f)
    assert p[0] == 2 and p[1] == 2 and p[2] == 8
    # Tr(beta) = n * m for the family
    for n, t in [(4, 5), (5, -3), (6, 4), (9, 2)]:
        f = number_field(n, t)
        m = Fraction(t, 3) if n % 3 == 0 else Fraction(t)
        assert field_trace_powers(f)[1] == n * m


def test_p_maximal_order_examples():
    f = number_field(3, 1)
    for strategy in ("enumerate", "radical"):
        o = p_maximal_order(f, 3, strategy)
        assert o.fingerprint == power_order(f).fingerprint
    f = number_field(2, 3)
    for strategy in ("enumerate", "radical"):
        o = p_maximal_order(f, 2, strategy)
        assert o.den == 2
        assert o.basis == ((2, 0), (0, 1))
        assert o.index == 2
    f = number_field(2, 1)
    for strategy in ("enumerate", "radical"):
        assert p_maximal_order(f, 2, strategy).index == 1
    with pytest.raises(ValueError):
        p_maximal_order(f, 2, "guess")


def test_integral_basis_small_fields():
    o = integral_basis(number_field(3, 1))
    assert o.den == 1 and o.index == 1
    o = integral_basis(number_field(2, 3))
    assert (o.den, o.basis) == (2, ((2, 0), (0, 1)))
    assert order_discriminant(o) == 13
    o = integral_basis(number_field(4, 7))  # 57 = 3 * 19
    assert denominator_bound(4) % o.den == 0
    # the index may exceed the branch value 3^4 * 4^4 by the 3-content of
    # the (n-1) copies of Q(7) = 57 that the discriminant carries
    assert (3**4 * 4**4 * 3 ** (3 * p_adic_valuation(disc_quadratic(4, 7), 3))) % (o.index * o.index) == 0
    assert p_adic_valuation(o.index, 19) == 0 if o.index > 1 else True


def test_integral_basis_matches_quadratic_oracle():
    for t in range(-40, 41):
        ok, _ = parameter_gate(2, t)
        if not ok:
            continue
        o = integral_basis(number_field(2, t))
        assert o.fingerprint == quadratic_maximal_fingerprint(t), t


def test_integral_basis_gate():
    with pytest.raises(ParameterNotCoveredError, match="not covered"):
        integral_basis(number_field(6, 5))
    with pytest.raises(ParameterNotCoveredError):
        integral_basis(number_field(2, 1))  # quadratic value 3: no witness prime


def test_join_with_at_most_one_larger_part_is_that_part():
    """Over every gate-passing |t| <= 40, n = 2..12, the joins whose parts
    have den > 1 at no more than one prime, which skip the HNF, equal
    make_order of all parts over the lcm of their denominators."""
    skipped = 0
    for n in range(2, 13):
        for t in range(-40, 41):
            if not parameter_gate(n, t)[0]:
                continue
            field = number_field(n, t)
            parts = [p_maximal_order(field, p) for p in candidate_primes(n)]
            den = lcm(*(o.den for o in parts))
            rows = [[den // o.den * x for x in row] for o in parts for row in o.basis]
            assert join_orders(field, parts) == make_order(field, den, rows), (n, t)
            skipped += sum(o.den > 1 for o in parts) <= 1
    assert skipped == 512


def test_order_discriminant_examples():
    f = number_field(2, 1)
    assert order_discriminant(power_order(f)) == 12
    assert power_order(f).index == 1
    f9 = number_field(9, 1)
    o = integral_basis(f9)
    assert order_discriminant(o) * o.index**2 == f9.disc


def test_field_elt_normalization():
    f = number_field(2, 1)
    e = field_elt(f, [2, 4], 6)
    assert e.num == (1, 2) and e.den == 3
    e = field_elt(f, [3, -3], -3)
    assert e.num == (-1, 1) and e.den == 1
    with pytest.raises(ValueError):
        field_elt(f, [1, 0], 0)
    with pytest.raises(ValueError):
        field_elt(f, [1, 0, 0])


def test_candidate_primes():
    assert candidate_primes(2) == (2, 3)
    assert candidate_primes(3) == (3,)
    assert candidate_primes(6) == (2, 3)
    assert candidate_primes(10) == (2, 3, 5)
    assert candidate_primes(12) == (2, 3)


def test_denominator_bound_examples():
    assert denominator_bound(2) == 2
    assert denominator_bound(3) == 3
    assert denominator_bound(4) == 144


def test_period_length_bound_examples():
    assert period_length_bound(2) == 36
    assert period_length_bound(4) == 3**16 * 2**16


def test_outside_primes_never_enlarge():
    """Justification of the candidate prime set: a prime dividing the parameter
    quadratic exactly once (and different from 3 and the primes of n) never
    divides the index, so saturating at it returns the power order."""
    for n, t in [(2, 4), (3, 1), (4, 7), (5, 2), (6, 2), (8, 4)]:
        field = number_field(n, t)
        q = disc_quadratic(n, t)
        from simplestfields.numutil import factorize

        for p, e in factorize(q).items():
            if p in candidate_primes(n):
                continue
            assert e == 1
            strategies = ["radical"]
            if p**n <= 5000:  # keep the projective sweep small
                strategies.append("enumerate")
            for strategy in strategies:
                o = p_maximal_order(field, p, strategy)
                assert o.index == 1, (n, t, p, strategy)


def test_integrality_closed_under_ring_ops():
    """On sampled certified integers: sums and products stay integral."""
    rng = random.Random(77)
    for n, t in [(3, 2), (4, 7), (6, 1)]:
        field = number_field(n, t)
        o = integral_basis(field)
        rows = [list(r) for r in o.basis]
        from simplestfields._kernels import zx_mulmod, zx_divexact

        for _ in range(12):
            a = rows[rng.randrange(n)]
            b = rows[rng.randrange(n)]
            s = field_elt(field, [x + y for x, y in zip(a, b)], o.den)
            assert is_algebraic_integer(s)
            prod_num = zx_divexact(zx_mulmod(a, b, list(field.poly.coeffs)), 1)
            prod = field_elt(field, prod_num, o.den * o.den)
            assert is_algebraic_integer(prod)


def test_denominator_corollary_exponent_form():
    """The true content of the universal-denominator statement: C_n times any
    algebraic integer lies in Z[beta], i.e. the order denominator (the
    exponent of O/Z[beta]) divides C_n."""
    for n, t_bound in [(2, 20), (3, 20), (4, 20), (5, 20), (6, 15), (8, 8)]:
        for t in range(-t_bound, t_bound + 1):
            ok, _ = parameter_gate(n, t)
            if not ok:
                continue
            o = integral_basis(number_field(n, t))
            assert denominator_bound(n) % o.den == 0, (n, t, o.den)


def test_index_exceeds_naive_branch_bound_counterexample():
    """Pinned counterexample: the index itself (unlike the denominator) can
    escape the 3-part of the branch bound when 3 divides the parameter
    quadratic, because the discriminant carries (n-1) copies of its
    3-content.  Certified by both strategies and the multiplication-matrix
    characteristic polynomial route."""
    f = number_field(5, -29)
    assert disc_quadratic(5, -29) == 813  # = 3 * 271, squarefree
    for strategy in ("enumerate", "radical"):
        o = integral_basis(f, strategy=strategy)
        assert o.index == 81 and o.den == 9
        for row in o.basis:
            assert is_algebraic_integer(field_elt(f, list(row), o.den))
    branch_bound = 3 ** ((25 - 15 + 4) // 2) * 5**5
    assert branch_bound % (81 * 81) != 0  # the naive index reading fails
    assert denominator_bound(5) % 9 == 0  # the denominator reading holds


def test_strategy_agreement_sample():
    rng = random.Random(8)
    cases = [(n, rng.randint(-20, 20)) for n in (2, 3, 4, 5, 6) for _ in range(4)]
    checked = 0
    for n, t in cases:
        ok, _ = parameter_gate(n, t)
        if not ok:
            continue
        f = number_field(n, t)
        a = integral_basis(f, strategy="enumerate")
        b = integral_basis(f, strategy="radical")
        assert a.fingerprint == b.fingerprint, (n, t)
        checked += 1
    assert checked >= 10


@given(st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=23, max_size=23))
def test_interpolate_int_roundtrip(coeffs):
    """Every length 1..23 (23 points: the symbolic dual denominator at n=12)."""
    for k in range(1, 24):
        c = coeffs[:k]
        values = [sum(a * x**j for j, a in enumerate(c)) for x in range(k)]
        assert _interpolate_int(values) == c


def test_interpolate_int_rejects_non_integral():
    for k in range(3, 24):
        with pytest.raises(AssertionError, match="non-integral"):
            _interpolate_int([x * (x - 1) // 2 for x in range(k)])


def test_trace_candidates_match_brute_force_filter():
    """The kernel sweep yields the same vectors, in the same order, as the
    trace-form and e_2 filter over all projective vectors; that stream is an
    order-preserving subsequence of the filter on Tr(x * beta^j) alone and
    keeps every integral candidate of it.  Checked at the power order and
    after one enlargement; at n = 5 along the whole enumerate chain of p = 3
    and p = 5, the p-maximal order included."""

    def check(f, order, p):
        traces = field_trace_powers(f)
        candidates = list(_trace_candidates(order, p))
        assert candidates == brute_force_form_candidates(order, p, traces), (f.n, f.t, p)
        old = list(brute_force_trace_candidates(order, p, traces))
        rest = iter(old)
        assert all(w in rest for w in candidates), (f.n, f.t, p)
        integral = [w for w in old if is_algebraic_integer(field_elt(f, w, p * order.den))]
        assert [w for w in candidates if w in integral] == integral, (f.n, f.t, p)
        return candidates, old

    kept = swept = 0
    for n, t in [(6, 1), (6, 4), (8, 4), (8, -8)]:
        f = number_field(n, t)
        for p in (2, 3):
            order = power_order(f)
            for _ in range(2):
                candidates, old = check(f, order, p)
                assert candidates, (n, t, p)
                kept, swept = kept + len(candidates), swept + len(old)
                order = _enumerate_round(order, p)
                assert order is not None, (n, t, p)
    assert kept < swept
    for n, t in [(5, -50), (5, -52)]:
        f = number_field(n, t)
        for p in (3, 5):
            order, enlargements = power_order(f), 0
            while order is not None:
                check(f, order, p)
                order = _enumerate_round(order, p)
                enlargements += order is not None
            assert enlargements >= 1, (n, t, p)


def test_enumerate_chain_matches_the_trace_filter_chain():
    """Each enumerate round takes the first integral candidate, and the
    trace-form filter drops only non-integral ones, so every lattice of the
    chain is the one a chain driven by the filter on Tr(x * beta^j) alone
    builds.  Only the primes with p^n <= 3^9 vectors per oracle round are
    cheap enough, which leaves out (7, 7) and (12, 3); n = 10 and 11 are
    too slow to enumerate.  At (2, -29, 2) an integral candidate has
    (v . g)^2 - v G v^T = 2p^2 mod 4p^2, so a 4p^2 filter would skip it."""
    cases = [(2, -29, 2)]
    for n in list(range(2, 10)) + [12]:
        ts = GATE_PASSING_T[n][: 1 if n == 9 else 2 if n == 12 else 3]
        cases += [(n, t, p) for t in ts for p in candidate_primes(n) if p**n <= 3**9]
    for n, t, p in cases:
        f = number_field(n, t)
        order = power_order(f)
        chain = [order.fingerprint]
        while (order := _enumerate_round(order, p)) is not None:
            chain.append(order.fingerprint)
        assert chain == trace_filter_enumerate_chain(f, p), (n, t, p)


def _lattice(field, den, rows):
    """The lattice with numerators rows over den, as an Order of field."""
    return Order(field, den, tuple(map(tuple, rows)))


def test_start_order_checks():
    """A start lattice is used only when it contains Z[beta] and is closed
    under products; an accepted start comes with its multiplication table,
    the cells T[i][j] with i <= j, row by row.  The table is checked cell by
    cell against full-length products at n = 4, and at n = 12 on a
    3-maximal order with den 3^k, whose rows end in long runs of zeros."""
    f = number_field(4, 3)
    o = p_maximal_order(f, 2)
    assert o.den == 2
    f12 = number_field(12, GATE_PASSING_T[12][0])
    o12 = p_maximal_order(f12, 3)
    assert o12.den > 1 and o12.den == 3 ** p_adic_valuation(o12.den, 3)
    for field, start in ((f, o), (f, power_order(f)), (f12, o12)):
        n = field.n
        poly = list(field.poly.coeffs)
        order = _start_order(Order(field, *start.fingerprint))
        assert "table" in vars(order)  # formed by the check, kept for the first round
        table = order.table
        assert order == start
        den, basis = order.den, order.basis
        assert len(table) == n * n * (n + 1) // 2
        cells = iter(table[k : k + n] for k in range(0, len(table), n))
        for i in range(n):
            for j in range(i, n):
                cell = next(cells)
                product = [sum(c * row[k] for c, row in zip(cell, basis)) for k in range(n)]
                want = zx_divexact(zx_mulmod(basis[i], basis[j], poly), den)
                assert product == want + [0] * (n - len(want)), (n, i, j)
    n = f.n
    diag = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    low = [row[:] for row in diag]
    low[1] = [1, 4, 0, 0]
    assert _start_order(_lattice(f, 2, low)) is None  # misses beta
    half_beta = [row[:] for row in diag]
    half_beta[1] = [0, 1, 0, 0]
    assert _start_order(_lattice(f, 2, half_beta)) is None  # (beta/2)^2 is not in the lattice


def test_integral_start_checks():
    """The enumerate strategy accepts a start when it contains Z[beta] and
    its rows are algebraic integers, closed under products or not, and
    saturates it to the same p-maximal order."""
    f = number_field(4, 3)
    o = p_maximal_order(f, 2)
    for start in (o, power_order(f)):
        assert _integral_start(Order(f, *start.fingerprint)) == start
    diag = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    low = [row[:] for row in diag]
    low[1] = [1, 4, 0, 0]
    assert _integral_start(_lattice(f, 2, low)) is None  # misses beta
    half_beta = [row[:] for row in diag]
    half_beta[1] = [0, 1, 0, 0]
    assert _integral_start(_lattice(f, 2, half_beta)) is None  # beta/2 is not integral
    open_lattice = [row[:] for row in diag]
    open_lattice[2] = [1, 0, 1, 0]  # (1 + beta^2)/2 is integral, its square is not in the lattice
    assert _start_order(_lattice(f, 2, open_lattice)) is None
    assert _integral_start(_lattice(f, 2, open_lattice)) is not None
    assert _saturate(f, 2, "enumerate", _lattice(f, 2, open_lattice).fingerprint) == o


def _radical_chain(field, p):
    """Orders from Z[beta] to the p-maximal order, one radical round apart."""
    chain = [power_order(field)]
    while (nxt := _radical_round(chain[-1], p)) is not None:
        chain.append(nxt)
    return chain


def _walk_against_oracle(field, p, order, cold):
    """Radical rounds from order to the p-maximal order, each checked
    against the power-basis round, with the memos of _radical_kernel and
    _radical emptied before every round when cold; returns the rounds taken."""
    rounds = 0
    while True:
        if cold:
            _radical_kernel.cache_clear()
            _radical.cache_clear()
        nxt = _radical_round(order, p)
        assert nxt == power_basis_radical_round(field, order, p), (field.n, field.t, p, rounds)
        if nxt is None:
            return rounds
        order, rounds = nxt, rounds + 1


def _check_rounds_against_oracle(cold):
    """Every round of the table-based radical chain returns the same Order,
    or None, as the round over the power basis: n = 2..12 and every
    candidate prime, so p = 5, 7 and 11 take the odd-p Frobenius path.  For
    each (n, p), chains from Z[beta] are walked for the gate-passing t
    nearest 0 until three of them took at least two rounds; each of those is
    walked again from an accepted start, the p-maximal order of a nearest
    other t of the same class modulo the p-part of the period."""
    long_chains, accepted_starts = set(), 0
    for n in range(2, 13):
        ts = sorted((t for t in range(-30, 31) if parameter_gate(n, t)[0]), key=abs)
        for p in candidate_primes(n):
            part = p ** p_adic_valuation(FINAL_PERIOD_TABLE.get(n, 1), p)
            long = 0
            for t in ts[:8]:
                field = number_field(n, t)
                start = power_order(field)
                if _walk_against_oracle(field, p, start, cold) < 2:
                    continue
                long_chains.add((n, p))
                other = next(u for k in range(1, 99) for u in (t - k * part, t + k * part) if parameter_gate(n, u)[0])
                accepted = _start_order(Order(field, *p_maximal_order(number_field(n, other), p).fingerprint))
                if accepted is not None:
                    accepted_starts += 1
                    _walk_against_oracle(field, p, accepted, cold)
                long += 1
                if long == 3:
                    break
    assert {(n, 3) for n in range(4, 13)} | {(4, 2), (8, 2), (12, 2)} <= long_chains
    assert accepted_starts >= 20


def test_radical_round_matches_power_basis_oracle():
    _check_rounds_against_oracle(cold=False)


def test_radical_round_matches_power_basis_oracle_with_cold_memo():
    """The same walk with every kernel computed from its table, none recalled."""
    _check_rounds_against_oracle(cold=True)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("p", [2, 3])
def test_p_maximal_order_from_start(n, p):
    """Both strategies give the same p-maximal order with or without a start:
    one from the same residue class (reused), one from another class, and
    the last non-maximal order of the radical chain (saturated further)."""
    part = p ** p_adic_valuation(FINAL_PERIOD_TABLE[n], p)
    ts = [t for t in range(-60, 61) if parameter_gate(n, t)[0]]

    def local(t):
        return p_maximal_order(number_field(n, t), p)

    t0 = next(t for t in ts if local(t).den > 1 and any(u != t and (u - t) % part == 0 for u in ts))
    field = number_field(n, t0)
    same = next(u for u in ts if u != t0 and (u - t0) % part == 0)
    other = next(u for u in ts if (u - t0) % part and local(u).fingerprint != local(t0).fingerprint)
    chain = _radical_chain(field, p)
    assert len(chain) >= 2
    starts = [
        ("same residue", local(same).fingerprint, True),
        ("other residue", local(other).fingerprint, None),
        ("intermediate", chain[-2].fingerprint, True),
    ]
    for strategy in STRATEGIES:
        expected = p_maximal_order(field, p, strategy)
        assert expected == chain[-1]
        for name, start, used in starts:
            if used is not None:
                assert (_start_order(Order(field, *start)) is not None) == used, name
            assert _saturate(field, p, strategy, start) == expected, (name, strategy)


GATE_PASSING_T = {n: [t for t in range(-20, 21) if parameter_gate(n, t)[0]] for n in range(2, 13)}


@pytest.mark.parametrize("n", range(2, 13))
def test_polygon_start_is_an_order(monkeypatch, n):
    """For every candidate prime and sampled t, _start_order accepts the
    polygon start where there is one, and the radical strategy gives the
    same p-maximal order with the polygon start switched off."""
    cases = [(number_field(n, t), p) for t in GATE_PASSING_T[n] for p in candidate_primes(n)]
    for field, p in cases:
        start = _polygon_start(field, p)
        assert start is None or _start_order(start) is not None, (n, field.t, p)
    with_polygon = [p_maximal_order(field, p) for field, p in cases]
    monkeypatch.setattr(orders, "_polygon_start", lambda field, p: None)
    assert [p_maximal_order(field, p) for field, p in cases] == with_polygon


# (n, p) where the polygon start is the p-maximal order at every sampled t,
# with the reference: the enumerate strategy on the first four t where it
# takes well under a second per field, else radical rounds from Z[beta] (the
# polygon start switched off) on every sampled t.
POLYGON_MAXIMAL = [(2, 2), (4, 2), (4, 3), (5, 3), (5, 5), (6, 3), (7, 3), (8, 2), (8, 3)]
POLYGON_MAXIMAL_SLOW_ENUMERATE = [(7, 7), (9, 3), (10, 3), (11, 3), (11, 11)]


@pytest.mark.parametrize(
    "n, p, strategy",
    [(n, p, "enumerate") for n, p in POLYGON_MAXIMAL] + [(n, p, "radical") for n, p in POLYGON_MAXIMAL_SLOW_ENUMERATE],
)
def test_polygon_start_is_the_p_maximal_order(monkeypatch, n, p, strategy):
    monkeypatch.setattr(orders, "_polygon_start", lambda field, p: None)
    ts = GATE_PASSING_T[n][:4] if strategy == "enumerate" else GATE_PASSING_T[n]
    for t in ts:
        field = number_field(n, t)
        expected = p_maximal_order(field, p, strategy)
        assert _polygon_start(field, p) == expected, t


def test_polygon_start_is_absent_without_a_single_double_root():
    """f mod p has no single repeated linear factor at (6, 2), (10, 5) and
    (12, 2), so there is no first-order start there."""
    for n, p in ((6, 2), (10, 5), (12, 2)):
        for t in GATE_PASSING_T[n]:
            assert _polygon_start(number_field(n, t), p) is None, (n, t)


def test_enumerate_never_consults_the_polygon_start(monkeypatch):
    """The enumerate strategy saturates from Z[beta] or a transported start
    only, accepts the start by integrality, and never reads a multiplication
    table, a radical kernel or a class certificate, so it stays independent
    of the polygon theory and of the radical strategy."""

    def refusing(name):
        def refused(*args):
            raise AssertionError(f"the enumerate strategy called {name}")

        return refused

    for name in ("_polygon_start", "_radical_kernel", "_mult_table", "class_certificate"):
        monkeypatch.setattr(orders, name, refusing(name))
    monkeypatch.setattr(periodicity, "class_certificate", refusing("class_certificate"))
    for n, t, p in ((4, 3, 2), (8, 5, 2), (8, 5, 3)):
        p_maximal_order(number_field(n, t), p, "enumerate")
    period_scan(4, 24, range(-40, 41), strategy="enumerate")


def test_fp_radical_matches_trial_division_oracle():
    """Every monic polynomial over F_2 and F_3 up to degree 6 and over F_5 up
    to degree 4, then p-th powers of higher degree, where the derivative
    vanishes and the radical takes a p-th root: (X^2 + X + 1)^2 over F_2 is
    among the first."""
    cases = [
        (list(tail) + [1], p)
        for p, top in ((2, 6), (3, 6), (5, 4))
        for d in range(top + 1)
        for tail in product(range(p), repeat=d)
    ]
    powers = [
        (Poly([1, 1, 0, 1]) ** 4 * Poly([1, 1]) ** 2, 2),
        (Poly([1, 0, 1]) ** 3 * Poly([1, 1]) ** 2, 3),
        (Poly([2, 1, 1]) ** 9, 3),
        (Poly([2, 1]) ** 5, 5),
        (Poly([2, 0, 1]) ** 5 * Poly([1, 1]), 5),
        (Poly([1, 0, 0, 1]) ** 10, 5),
    ]
    cases += [([x % p for x in a.coeffs], p) for a, p in powers]
    for a, p in cases:
        assert _fp_radical(a, p) == brute_force_fp_radical(a, p), (a, p)
    assert _fp_radical([1, 0, 1, 0, 1], 2) == [1, 1, 1]


def test_dedekind_order_is_one_radical_round():
    """Over every gate-passing |t| <= 40, n = 2..12 and candidate prime,
    Dedekind's m is 0 exactly where a radical round on Z[beta] finds nothing,
    which is where the radical p-maximal order has den 1; elsewhere
    Dedekind's order is that round's order, of index p^m."""
    cases = [
        (n, t, p) for n in range(2, 13) for t in range(-40, 41) if parameter_gate(n, t)[0] for p in candidate_primes(n)
    ]
    maximal = 0
    for n, t, p in cases:
        field = number_field(n, t)
        m, u = _dedekind_test(field, p)
        z_beta = power_order(field)
        enlarged = _radical_round(z_beta, p)
        assert (m == 0) == (enlarged is None) == (p_maximal_order(field, p).den == 1), (n, t, p)
        if m:
            o1 = _dedekind_order(field, p, u)
            assert o1 == enlarged and o1.index == p**m, (n, t, p)
        maximal += m == 0
    assert (len(cases), maximal) == (1377, 557)


def test_dedekind_order_rejects_a_corrupted_u(monkeypatch):
    """_dedekind_order tests only U(beta) / p for integrality, once per
    order: U beta^i / p is that element times beta^i.  A U whose constant
    term is off by 1, so that U(beta) / p is not integral, still raises."""
    calls = [0]
    real = orders.is_algebraic_integer

    def counted(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(orders, "is_algebraic_integer", counted)
    for n, t, p in ((6, 1, 2), (10, 3, 2), (12, 1, 2)):
        field = number_field(n, t)
        m, u = _dedekind_test(field, p)
        assert m > 1, (n, t, p)
        calls[0] = 0
        assert _dedekind_order(field, p, u).index == p**m
        assert calls[0] == 1
        with pytest.raises(AssertionError, match="not integral"):
            _dedekind_order(field, p, [u[0] + 1] + u[1:])


def test_enumerate_takes_no_round_where_z_beta_is_p_maximal(monkeypatch):
    """At (n, t, p) = (7, 29, 7), (7, 3, 7), (6, -38, 2) and (11, -40, 11),
    p^2 divides the discriminant but Z[beta] is p-maximal: Dedekind's test
    says so and no enumerate sweep runs (a full sweep of the kernel at
    (7, 29, 7) took over a second).  Where Z[beta] is not p-maximal, rounds
    still run."""
    rounds = [0]
    real = orders._enumerate_round

    def counted(*args):
        rounds[0] += 1
        return real(*args)

    monkeypatch.setattr(orders, "_enumerate_round", counted)
    for n, t, p in ((7, 29, 7), (7, 3, 7), (6, -38, 2), (11, -40, 11)):
        field = number_field(n, t)
        assert p_adic_valuation(field.disc, p) >= 2
        assert p_maximal_order(field, p, "enumerate") == power_order(field)
    assert rounds[0] == 0
    field = number_field(4, 3)
    assert _dedekind_test(field, 2)[0] > 0
    assert p_maximal_order(field, 2, "enumerate") == p_maximal_order(field, 2)
    assert rounds[0] > 0


def test_radical_never_consults_dedekind(monkeypatch):
    """Radical saturation, class certificates and radical period scans never
    read Dedekind's test or order, so in --strategy both the radical
    stopping test checks every verdict the enumerate strategy takes from
    Dedekind."""

    def refusing(name):
        def refused(*args):
            raise AssertionError(f"the radical strategy called {name}")

        return refused

    for name in ("_dedekind_test", "_dedekind_order", "_fp_radical"):
        monkeypatch.setattr(orders, name, refusing(name))
    for n, t in ((6, 1), (7, 29), (8, 5), (12, 1)):
        field = number_field(n, t)
        for p in candidate_primes(n):
            p_maximal_order(field, p, "radical")
        integral_basis(field)
    period_scan(8, 432, range(-60, 61))


def test_integrality_test_takes_n_minus_one_products(monkeypatch):
    """A full integrality test forms w^2, ..., w^n mod f: w itself is
    already reduced."""
    products = [0]
    real = numberfield.zx_mulmod

    def counted(*args):
        products[0] += 1
        return real(*args)

    monkeypatch.setattr(numberfield, "zx_mulmod", counted)
    for n in range(2, 13):
        field = number_field(n, GATE_PASSING_T[n][0])
        products[0] = 0
        assert is_algebraic_integer(field_elt(field, range(1, n + 1)))
        assert products[0] == n - 1, n


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_char_poly_matches_resultant_oracle(data):
    """Power sums and Newton's identities give the resultant's polynomial,
    for random numerators, the zero vector and constants."""
    n = data.draw(st.integers(min_value=2, max_value=12), label="n")
    t = data.draw(st.sampled_from(GATE_PASSING_T[n]), label="t")
    num = data.draw(
        st.one_of(
            st.lists(st.integers(min_value=-99, max_value=99), min_size=n, max_size=n),
            st.just([0] * n),
            st.integers(min_value=-9, max_value=9).map(lambda c: [c] + [0] * (n - 1)),
        ),
        label="num",
    )
    den = data.draw(st.sampled_from([1, 2, 3, 4, 9, 27, 7]), label="den")
    f = number_field(n, t)
    assert char_poly(field_elt(f, num, den)) == Poly(resultant_char_poly(list(f.poly.coeffs), num, den))


def _first_non_integral(field, num, den):
    """Least k whose coefficient of Y^(n-k) in the oracle polynomial is not
    integral, or None for an algebraic integer."""
    coeffs = resultant_char_poly(list(field.poly.coeffs), list(num), den)
    n = field.n
    return next((k for k in range(1, n + 1) if coeffs[n - k].denominator != 1), None)


def test_is_algebraic_integer_matches_resultant_oracle():
    """Explicit elements whose first non-integral coefficient is at k = 1 or
    only at k = n, the zero vector, constants and integral elements, then a
    random sweep."""
    cases = [
        (2, 3, (-2, -2), 3, 1),
        (4, 3, (-2, -2, -2, -2), 3, 1),
        (5, 2, (-1, -2, -2, -2, -2), 2, 1),
        (5, 2, (3, 0, 0, 0, 0), 2, 1),
        (2, 3, (-1, -2), 2, 2),
        (4, 3, (-1, -2, -1, -1), 2, 4),
        (5, 2, (-2, 0, -1, 0, 0), 2, 5),
        (5, 2, (0, 0, 0, 0, 0), 2, None),
        (5, 2, (4, 0, 0, 0, 0), 2, None),
        (2, 3, (-2, 1), 2, None),
    ]
    for n, t, num, den, first in cases:
        f = number_field(n, t)
        assert _first_non_integral(f, num, den) == first, (n, t, num, den)
        assert is_algebraic_integer(field_elt(f, num, den)) == (first is None), (n, t, num, den)
    rng = random.Random(23)
    accepted = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        f = number_field(n, rng.choice(GATE_PASSING_T[n]))
        den = rng.choice([2, 3, 4, 9])
        num = [rng.randint(-3, 3) * rng.choice([1, den]) for _ in range(n)]
        expected = _first_non_integral(f, num, den) is None
        accepted += expected
        assert is_algebraic_integer(field_elt(f, num, den)) == expected, (n, f.t, num, den)
    assert accepted
