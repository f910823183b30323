import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from simplestfields.family import companion_poly, family_poly, family_poly_at
from simplestfields.poly import Poly, discriminant, resultant

from oracles import sylvester_resultant


def test_basic_arithmetic():
    x = Poly.x()
    m = Fraction(3)
    p = (x - m) * (x - m)
    assert p == Poly([9, -6, 1])
    assert (x - m) * (x - m) == x * x - 2 * m * x + m * m


def test_divmod_examples():
    quad = Poly([1, 1, 1])
    q, r = divmod(companion_poly(2), quad)
    assert q == Poly() and r == companion_poly(2)
    q, r = divmod(companion_poly(3), quad)
    assert q == Poly([-3]) and r == Poly([3])


def test_divmod_nonmonic_and_errors():
    a = Poly([1, 0, 2])
    b = Poly([1, 2])
    q, r = divmod(a, b)
    assert q * b + r == a and r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly())


def test_eval_examples():
    x = Poly.x()
    m = Fraction(4)
    assert (x - m)(m) == 0
    assert family_poly_at(2, 1)(1) == -3
    # eval of the degree-2 companion at a symbolic-free point
    assert companion_poly(2)(Fraction(1, 2)) == -2


def test_shift_examples():
    assert Poly([0, 0, 1]).shift(1) == Poly([1, 2, 1])
    p = Poly([3, -1, 0, 7])
    assert p.shift(0) == p


@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=0, max_size=7),
    st.integers(min_value=-10, max_value=10),
)
def test_shift_roundtrip(coeffs, c):
    p = Poly(coeffs)
    assert p.shift(c).shift(-c) == p


def _random_poly(rng, max_deg):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])]
    return Poly(coeffs)


def test_resultant_examples():
    assert resultant(Poly([-1, -2]), Poly([1, 1, 1])) == 3
    assert resultant(companion_poly(1), family_poly_at(1, Fraction(2, 3))) == -1
    a = Poly([1, 5, 2])
    assert resultant(a, a) == 0
    with pytest.raises(ValueError):
        resultant(Poly(), Poly([1]))
    # _int_normalized refuses a coefficient that is neither int nor Fraction
    with pytest.raises(TypeError, match="integer or rational coefficients required"):
        resultant(Poly([0.5, 1]), Poly([1, 1]))


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(20240)
    for _ in range(400):
        a = _random_poly(rng, 6)
        b = _random_poly(rng, 6)
        assert resultant(a, b) == sylvester_resultant(list(a.coeffs), list(b.coeffs))


def test_resultant_laws():
    rng = random.Random(555)
    for _ in range(150):
        a = _random_poly(rng, 5)
        b = _random_poly(rng, 5)
        # swap law
        assert resultant(a, b) == (-1) ** (a.degree * b.degree) * resultant(b, a)
        # scaling laws
        lam = rng.choice([-3, -2, 2, 5])
        assert resultant(lam * a, b) == lam ** b.degree * resultant(a, b)
        assert resultant(a, lam * b) == lam ** a.degree * resultant(a, b)
        # multiplicativity against a monic factor
        q = Poly([rng.randint(-4, 4), rng.randint(-4, 4), 1])
        assert resultant(a * q, b) == resultant(a, b) * resultant(q, b)
        # long-division reduction law
        if a.degree >= b.degree:
            r = a % b
            if not r.is_zero:
                assert resultant(a, b) == (-1) ** (a.degree * b.degree) * b.lc ** (
                    a.degree - r.degree
                ) * (-1) ** (r.degree * b.degree) * resultant(r, b)


def test_rational_coefficient_resultant():
    a = Poly([Fraction(1, 2), Fraction(1)])
    b = Poly([Fraction(1, 3), Fraction(0), Fraction(1)])
    # res(A, B) = lc(A)^deg B * B(root of A); root = -1/2
    assert resultant(a, b) == Fraction(1, 3) + Fraction(1, 4)


def test_discriminant_examples():
    m = Fraction(5)
    assert discriminant(family_poly_at(2, m)) == 4 * (m * m + m + 1)
    t = 4
    cubic = Poly([-1, -(t + 3), -t, 1])
    assert discriminant(cubic) == (t * t + 3 * t + 9) ** 2
    assert discriminant(Poly([1, 0, 1])) == -4
    with pytest.raises(ValueError):
        discriminant(Poly([1, 1]))
    with pytest.raises(ValueError):
        discriminant(Poly([1, 1, 2]))


def test_symbolic_family_coefficients():
    # degree-6 family display: coefficients as polynomials in m
    f6 = family_poly(6)
    expected = [
        Poly([1]),
        Poly([6, 6]),
        Poly([0, 15]),
        Poly([-20]),
        Poly([-15, -15]),
        Poly([0, -6]),
        Poly([1]),
    ]
    assert list(f6.coeffs) == expected
