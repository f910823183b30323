"""sympy as an independent oracle for resultants, discriminants and integer
factorization.  sympy is not a declared dependency, so the module skips
without it.  Its integral-basis routine is not used as an oracle: on this
family it returns wrong field discriminants (at n = 6, t = 1 it gives 509,
which does not divide the polynomial discriminant 2^6 * 3^6 * 13^5)."""

import random
from fractions import Fraction

import pytest

from simplestfields.numutil import factorize
from simplestfields.poly import Poly, discriminant, resultant

sympy = pytest.importorskip("sympy")
from sympy.polys.subresultants_qq_zz import sylvester as sylvester_matrix  # noqa: E402

X = sympy.Symbol("x")


def _to_sympy(p: Poly):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X, domain="QQ"
    )


def _from_sympy(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def _random_poly(rng, min_deg, max_deg, monic=False, rational=False):
    def den():
        return rng.randint(1, 4) if rational else 1

    coeffs = [Fraction(rng.randint(-30, 30), den()) for _ in range(rng.randint(min_deg, max_deg))]
    lead = 1 if monic else Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), den())
    return Poly(coeffs + [lead])


def _sympy_resultant(a: Poly, b: Poly) -> Fraction:
    """sympy's resultant, called with the polynomial of higher degree first.

    With deg a < deg b, both odd, sympy 1.14 returns res(b, a) without the
    swap sign (-1)^(deg a * deg b): its answer then disagrees with its own
    Sylvester determinant and with lc(a)^deg(b) * prod b(alpha) over the
    roots alpha of a.  The swap law is applied here instead.
    """
    if a.degree < b.degree:
        return (-1) ** (a.degree * b.degree) * _sympy_resultant(b, a)
    return _from_sympy(sympy.resultant(_to_sympy(a), _to_sympy(b)))


def test_resultant_matches_sympy():
    rng = random.Random(61)
    for trial in range(300):
        rational = trial % 3 == 0
        a = _random_poly(rng, 0, 6, rational=rational)
        b = _random_poly(rng, 0, 6, rational=rational)
        if trial % 5 == 0:  # a common factor of positive degree makes the resultant 0
            g = _random_poly(rng, 1, 3)
            a, b = g * a, g * b
        assert resultant(a, b) == _sympy_resultant(a, b), (a, b)
        if a.degree and b.degree:  # the definition: the Sylvester determinant
            sylvester = sylvester_matrix(_to_sympy(a).as_expr(), _to_sympy(b).as_expr(), X)
            assert resultant(a, b) == _from_sympy(sylvester.det()), (a, b)


def test_discriminant_matches_sympy():
    rng = random.Random(63)
    for _ in range(300):
        f = _random_poly(rng, 2, 8, monic=True)
        assert discriminant(f) == _from_sympy(sympy.discriminant(_to_sympy(f))), f


def test_factorize_matches_sympy_factorint():
    rng = random.Random(64)
    values = [1, -1, 2, -12, 3**20, 2**61 - 1, (2**31 - 1) * (2**61 - 1), 1_000_003**2 * 999_983]
    values += [rng.randint(-(10**6), 10**6) or 1 for _ in range(300)]
    values += [rng.randint(2, 10**15) * rng.choice([1, 1_000_003]) for _ in range(60)]
    for v in values:
        assert factorize(v) == sympy.factorint(abs(v)), v
