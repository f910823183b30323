import random
from fractions import Fraction

import pytest
from math import comb

from simplestfields import family
from simplestfields.family import (
    alternating_binomial_sum,
    companion_poly,
    disc_quadratic,
    discriminant_formula,
    discriminant_formula_t,
    discriminant_front,
    family_poly,
    family_poly_at,
    parameter_scale,
    quadratic_remainder,
    specialize,
)
from simplestfields.identities import (
    check_companion_at_cube_root,
    check_quadratic_remainder_scaling,
    check_recursions,
    check_transform_identity,
)
from simplestfields.numberfield import _shifted
from simplestfields.orders import denominator_bound
from simplestfields.poly import Poly, resultant

from oracles import (
    FAMILY_TABLE,
    companion_coeff,
    family_coeff,
    table_family_poly,
    table_family_poly_at,
    table_specialize,
    two_branch_denominator_bound,
    two_branch_disc_quadratic,
    two_branch_discriminant_formula_t,
    two_branch_shifted,
    two_branch_specialize,
)


def test_coefficient_tables():
    assert family_coeff(1) == Poly([0, -1])  # -m
    assert family_coeff(7) == Poly([0, -1])  # 6-periodic
    assert companion_coeff(4) == 1
    assert companion_coeff(0) == 0
    assert family_coeff(0) == 1 and family_coeff(3) == -1


def test_family_displays():
    assert list(family_poly(3).coeffs) == [Poly([-1]), Poly([-3, -3]), Poly([0, -3]), Poly([1])]
    assert companion_poly(1) == Poly([-1])
    assert companion_poly(2) == Poly([-1, -2])
    assert companion_poly(3) == Poly([0, -3, -3])
    assert family_poly(0) == Poly([Poly([1])])
    assert companion_poly(0) == Poly()


def test_coefficient_closed_form():
    for n in range(26):
        f = family_poly(n)
        r = companion_poly(n)
        for i in range(n + 1):
            assert f[i] == comb(n, i) * family_coeff(n - i)
            assert r[i] == comb(n, i) * companion_coeff(n - i)


def test_specialize_checks_the_pencil_once_per_degree(monkeypatch):
    """specialize forms the integer pencil and checks s | R_n once per degree,
    however many parameters it is called for, and a pencil that fails the
    check still raises."""
    calls = []
    real = family._pencil
    monkeypatch.setattr(family, "_pencil", lambda n: calls.append(n) or real(n))
    family._integer_pencil.cache_clear()
    for n in (6, 8):
        for t in range(-20, 21):
            assert specialize(n, t).poly == table_specialize(n, t), (n, t)
    assert calls == [6, 8]
    monkeypatch.setattr(family, "_pencil", lambda n: [(g, r + 1) for g, r in real(n)])
    family._integer_pencil.cache_clear()
    with pytest.raises(AssertionError, match="3 does not divide the companion polynomial at n=6"):
        specialize(6, 1)
    family._integer_pencil.cache_clear()


def test_pencil_matches_the_symbolic_table():
    """The integer pencil G_n + m * R_n gives the family of the table of
    polynomials in m, symbolic, at rational m and specialized, for n = 0..30."""
    assert [family_coeff(i) for i in range(6)] == list(FAMILY_TABLE)
    for n in range(31):
        assert family_poly(n) == table_family_poly(n), n
        for m in (Fraction(-7, 3), Fraction(0), Fraction(5), Fraction(2, 9)):
            assert family_poly_at(n, m) == table_family_poly_at(n, m), (n, m)
        if n >= 2:
            for t in (-101, -3, -1, 0, 1, 2, 6, 1000):
                assert specialize(n, t).poly == table_specialize(n, t), (n, t)


def test_specialize_examples():
    for t in (-5, 0, 1, 7):
        sp = specialize(3, t)
        assert sp.poly == Poly([-1, -(t + 3), -t, 1])
        assert sp.m_rule == "t/3"
    assert specialize(2, 1).poly == Poly([-2, -2, 1])
    assert specialize(4, 0).poly == Poly([0, -4, -6, 0, 1])
    with pytest.raises(ValueError):
        specialize(1, 1)


def test_specialize_always_integral():
    """Integer specialization equals the family polynomial evaluated at the
    rational parameter m = t, or t/3 when 3 | n."""
    for n in range(2, 13):
        for t in range(-100, 101):
            sp = specialize(n, t)
            assert all(isinstance(c, int) for c in sp.poly.coeffs)
            assert sp.poly == family_poly_at(n, Fraction(t, 3) if n % 3 == 0 else t), (n, t)


def test_disc_quadratic():
    assert disc_quadratic(4, 2) == 7
    assert disc_quadratic(6, 5) == 49
    assert disc_quadratic(3, 0) == 9
    assert disc_quadratic(6, Poly.x()) == Poly([9, 3, 1])
    assert disc_quadratic(4, Poly.x()) == Poly([1, 1, 1])


def test_parameter_rule_matches_two_branch_forms():
    """Everything read off the one scale s of m = t/s equals the form that
    branches on 3 | n itself, for n = 2..40 and |t| <= 60."""
    for n in range(2, 41):
        assert denominator_bound(n) == two_branch_denominator_bound(n), n
        for t in range(-60, 61):
            sp, old = specialize(n, t), two_branch_specialize(n, t)
            assert (sp.poly, sp.m_rule) == (old.poly, old.m_rule), (n, t)
            assert disc_quadratic(n, t) == two_branch_disc_quadratic(n, t), (n, t)
            assert discriminant_formula_t(n, t) == two_branch_discriminant_formula_t(n, t), (n, t)
            assert _shifted(n, t, sp.poly) == two_branch_shifted(n, t, sp.poly), (n, t)


def test_discriminant_front_is_the_closed_form_at_m_equal_t_over_s():
    """disc(f_t) = C * Q(t)^(n-1) with C the closed form at m = t/s over
    Q(t)^(n-1), the same integer at every t."""
    for n in range(2, 13):
        s = parameter_scale(n)
        for t in (-7, 1, 5):
            front = discriminant_formula(n, Fraction(t, s)) / disc_quadratic(n, t) ** (n - 1)
            assert front == discriminant_front(n), (n, t)
    assert [discriminant_front(n) for n in (2, 3, 4, 6)] == [4, 1, 3**3 * 4**4, 6**6]


def test_recursions_and_reflection():
    failure = check_recursions(25)
    assert failure is None, failure


def test_recursion_path_rebuilds_definition_path():
    # build both sequences from the seeds (1, 0) through the recursions and
    # compare against the closed-form binomial construction at every step
    x = Poly([Poly(), Poly.const(1)])
    m = Poly.const(Poly([0, 1]))
    msq = Poly.const(Poly([1, 1, 1]))
    f_cur = Poly([Poly([1])])
    r_cur = Poly()
    for n in range(26):
        assert f_cur == family_poly(n), n
        assert r_cur == Poly([Poly.const(c) for c in companion_poly(n).coeffs]), n
        f_cur, r_cur = (x - m) * f_cur + msq * r_cur, (x + m + 1) * r_cur - f_cur


def test_recursion_base_case():
    # degree-2 member from the recursion seeds by hand
    f1 = family_poly_at(1, Fraction(3))
    r1 = companion_poly(1)
    msq = Fraction(13)  # 9 + 3 + 1
    x = Poly([0, 1])
    f2 = (x - 3) * f1 + msq * r1
    assert f2 == family_poly_at(2, 3)


def test_transform_identity_grid():
    for n in (1, 3, 5):
        m_samples = [Fraction(k, 3) for k in range(-(n + 2), n + 3)]
        a_samples = [Fraction(k, 2) for k in range(1, n + 2)]
        failure = check_transform_identity(n, m_samples, a_samples)
        assert failure is None, failure


def test_transform_identity_n1_hand_case():
    # degree 1: (X + a + 1)(sigma(X) - m) = (a - m)(X - m) - (m^2 + m + 1)
    assert check_transform_identity(1, [Fraction(2)], [Fraction(5)]) is None


def test_alternating_binomial_sum():
    assert alternating_binomial_sum(1, 1, 0, 0) == 1
    assert alternating_binomial_sum(13, 1, 0, 0) == 729
    assert alternating_binomial_sum(0, 7, 3, 2) == 7
    rng = random.Random(2)
    for _ in range(20):
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        n = rng.randint(1, 15)  # the scaling law starts at n = 1
        assert alternating_binomial_sum(n + 12, a, b, c) == 729 * alternating_binomial_sum(n, a, b, c)


def test_alternating_binomial_scaling_fails_at_zero():
    # boundary behavior: the 6-periodic alternating sum does not satisfy the
    # 3^6 law at n = 0 (1 -> 486, not 729); downstream uses all have n >= 1
    assert alternating_binomial_sum(12, 1, 0, 0) == 486
    assert alternating_binomial_sum(0, 1, 0, 0) == 1


def test_companion_at_cube_root():
    assert check_companion_at_cube_root(30) is None


def test_quadratic_remainder():
    assert quadratic_remainder(1) == Poly([-1])
    assert quadratic_remainder(13) == Poly([-729])
    assert quadratic_remainder(2) == Poly([-1, -2])
    assert quadratic_remainder(14) == 729 * Poly([-1, -2])
    assert quadratic_remainder(3) == Poly([3])
    assert all(check_quadratic_remainder_scaling(n) is None for n in range(1, 16))


def test_family_companion_coprime():
    # nonzero constant resultant means no common root over Q(m)
    for n in range(2, 13):
        m = Fraction(3, 7)
        assert resultant(companion_poly(n), family_poly_at(n, m)) != 0
