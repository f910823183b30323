import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    _enumerate_round,
    _mult_table,
    _radical_kernel,
    _radical_round,
    _saturate,
    _start_order,
    _trace_candidates,
    candidate_primes,
    denominator_bound,
    integral_basis,
    order_discriminant,
    p_maximal_order,
    parameter_gate,
    period_length_bound,
    power_order,
)
from simplestfields.periodicity import FINAL_PERIOD_TABLE, _interpolate_int
from simplestfields.poly import Poly

from oracles import (
    brute_force_trace_candidates,
    fraction_shifted_min_poly,
    matrix_trace_powers,
    power_basis_radical_round,
    quadratic_maximal_fingerprint,
    resultant_char_poly,
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


def test_trace_powers_against_companion_matrix_oracle():
    for n, t in [(2, 1), (3, 2), (4, 7), (6, 2)]:
        f = number_field(n, t)
        got = list(field_trace_powers(f, 2 * n))
        want = matrix_trace_powers(list(f.poly.coeffs), 2 * n)
        assert got == want


def test_trace_power_examples():
    f = number_field(2, 1)
    p = field_trace_powers(f, 2)
    assert p[0] == 2 and p[1] == 2 and p[2] == 8
    # Tr(beta) = n * m for the family
    for n, t in [(4, 5), (5, -3), (6, 4), (9, 2)]:
        f = number_field(n, t)
        m = Fraction(t, 3) if n % 3 == 0 else Fraction(t)
        assert field_trace_powers(f, 1)[1] == n * m


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
    trace filter over all projective vectors, at the power order and after
    one enlargement; at n = 5 along the whole enumerate chain of p = 3 and
    p = 5, the p-maximal order included."""
    for n, t in [(6, 1), (6, 4), (8, 4), (8, -8)]:
        f = number_field(n, t)
        traces = field_trace_powers(f, 2 * n - 2)
        for p in (2, 3):
            order = power_order(f)
            for _ in range(2):
                expected = brute_force_trace_candidates(order, p, traces)
                assert list(_trace_candidates(order, p, traces)) == expected, (n, t, p)
                assert expected
                order = _enumerate_round(f, order, p, traces)
                assert order is not None, (n, t, p)
    for n, t in [(5, -50), (5, -52)]:
        f = number_field(n, t)
        traces = field_trace_powers(f, 2 * n - 2)
        for p in (3, 5):
            order, enlargements = power_order(f), 0
            while order is not None:
                expected = brute_force_trace_candidates(order, p, traces)
                assert list(_trace_candidates(order, p, traces)) == expected, (n, t, p)
                order = _enumerate_round(f, order, p, traces)
                enlargements += order is not None
            assert enlargements >= 1, (n, t, p)


def test_start_order_checks():
    """A start lattice is used only when it contains Z[beta] and is closed
    under products; an accepted start comes with its multiplication table."""
    f = number_field(4, 3)
    n = f.n
    poly = list(f.poly.coeffs)
    o = p_maximal_order(f, 2)
    assert o.den == 2
    for start in (o, power_order(f)):
        order, table = _start_order(f, start.fingerprint)
        assert order == start
        den, basis = order.den, order.basis
        for i in range(n):
            for j in range(n):
                product = [sum(c * row[k] for c, row in zip(table[i][j], basis)) for k in range(n)]
                want = zx_divexact(zx_mulmod(basis[i], basis[j], poly), den)
                assert product == want + [0] * (n - len(want)), (i, j)
    diag = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    low = [row[:] for row in diag]
    low[1] = [1, 4, 0, 0]
    assert _start_order(f, (2, low)) is None  # misses beta
    half_beta = [row[:] for row in diag]
    half_beta[1] = [0, 1, 0, 0]
    assert _start_order(f, (2, half_beta)) is None  # (beta/2)^2 is not in the lattice


def _radical_chain(field, p):
    """Orders from Z[beta] to the p-maximal order, one radical round apart."""
    chain = [power_order(field)]
    while (nxt := _radical_round(field, chain[-1], p, _mult_table(field, chain[-1]))) is not None:
        chain.append(nxt)
    return chain


def _walk_against_oracle(field, p, order, table, cold):
    """Radical rounds from order (with its table) to the p-maximal order,
    each checked against the power-basis round, with the memo of
    _radical_kernel emptied before every round when cold; returns the rounds
    taken."""
    rounds = 0
    while True:
        if cold:
            _radical_kernel.cache_clear()
        nxt = _radical_round(field, order, p, table)
        assert nxt == power_basis_radical_round(field, order, p), (field.n, field.t, p, rounds)
        if nxt is None:
            return rounds
        order, table, rounds = nxt, _mult_table(field, nxt), rounds + 1


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
                if _walk_against_oracle(field, p, start, _mult_table(field, start), cold) < 2:
                    continue
                long_chains.add((n, p))
                other = next(u for k in range(1, 99) for u in (t - k * part, t + k * part) if parameter_gate(n, u)[0])
                accepted = _start_order(field, p_maximal_order(number_field(n, other), p).fingerprint)
                if accepted is not None:
                    accepted_starts += 1
                    _walk_against_oracle(field, p, *accepted, cold)
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
                assert (_start_order(field, start) is not None) == used, name
            assert _saturate(field, p, strategy, start) == expected, (name, strategy)


GATE_PASSING_T = {n: [t for t in range(-20, 21) if parameter_gate(n, t)[0]] for n in range(2, 13)}


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
