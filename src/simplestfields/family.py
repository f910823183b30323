"""Construction of the generalized simplest polynomial family.

The family is linear in its parameter m: F_n = G_n + m * R_n, with G_n and
the companion R_n binomial-weighted sums over two 6-periodic integer tables.
This module builds the family symbolically, at a rational m and at an
integer parameter t (the one parameter rule m = t/s), with its closed-form
discriminants; the identities they satisfy are checked in identities.py.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .poly import Poly

# The family table (1, -m, -m-1, -1, m, m+1) is _BASE_TABLE + m * _COMPANION_TABLE.
_BASE_TABLE = (1, 0, -1, -1, 0, 1)
_COMPANION_TABLE = (0, -1, -1, 0, 1, 1)


def _pencil(n: int) -> list[tuple[int, int]]:
    """The coefficients (g_i, r_i) of X^i in G_n and R_n, for i = 0..n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return [(comb(n, i) * _BASE_TABLE[(n - i) % 6], comb(n, i) * _COMPANION_TABLE[(n - i) % 6]) for i in range(n + 1)]


def family_poly(n: int) -> Poly:
    """Degree-n family polynomial, coefficients = polynomials in the parameter m."""
    return Poly([Poly([g, r]) for g, r in _pencil(n)])


def companion_poly(n: int) -> Poly:
    """Degree-(n-1) companion polynomial with integer coefficients."""
    return Poly([r for _, r in _pencil(n)])


def family_poly_at(n: int, m) -> Poly:
    """Family polynomial with the parameter specialized to a rational number."""
    mval = Fraction(m)
    return Poly([g + r * mval for g, r in _pencil(n)])


def parameter_scale(n: int) -> int:
    """The scale s of the integer parameter: the family member at t is F_n at
    m = t/s, with s = 3 when 3 | n and s = 1 otherwise."""
    return 3 if n % 3 == 0 else 1


def disc_quadratic(n: int, t):
    """The quadratic Q(t) = s^2 * (m^2 + m + 1) at m = t/s carried by the
    discriminant: t^2 + s*t + s^2 (t may be an integer or Poly.x())."""
    s = parameter_scale(n)
    return t * t + s * t + s * s


class SpecializedPoly(NamedTuple):
    """Integer-coefficient member of the family at an integer parameter."""

    n: int
    t: int
    poly: Poly
    m_rule: str  # "t" or "t/3": m = t/s


@lru_cache(maxsize=None)
def _integer_pencil(n: int) -> tuple[tuple[int, int], ...]:
    """The coefficients (g_i, r_i / s) of X^i in G_n and R_n / s, s =
    parameter_scale(n), once s | R_n is checked: formed and checked once per
    degree."""
    s = parameter_scale(n)
    pencil = _pencil(n)
    if any(r % s for _, r in pencil):
        raise AssertionError(f"{s} does not divide the companion polynomial at n={n}")
    return tuple((g, r // s) for g, r in pencil)


def specialize(n: int, t: int) -> SpecializedPoly:
    """Member of the family at integer parameter t, in integers: G_n + t * R_n / s
    at m = t/s (see parameter_scale), from _integer_pencil(n)."""
    if n < 2:
        raise ValueError("degree must be at least 2")
    s = parameter_scale(n)
    return SpecializedPoly(n, t, Poly([g + t * r for g, r in _integer_pencil(n)]), "t" if s == 1 else f"t/{s}")


def discriminant_formula(n: int, m) -> Fraction:
    """Closed form of the family discriminant at a rational parameter."""
    mval = Fraction(m)
    return 3 ** ((n - 1) * (n - 2) // 2) * n**n * (mval * mval + mval + 1) ** (n - 1)


@lru_cache(maxsize=None)
def discriminant_front(n: int) -> int:
    """The integer C with disc(f_t) = C * Q(t)^(n-1): the closed form at m = 0,
    where m^2 + m + 1 = 1, over s^(2n-2), since Q(t) = s^2 * (m^2 + m + 1)."""
    front = discriminant_formula(n, 0) / parameter_scale(n) ** (2 * n - 2)
    if front.denominator != 1:
        raise AssertionError(f"non-integral discriminant front at n={n}")
    return front.numerator


def discriminant_formula_t(n: int, t: int) -> int:
    """Closed form of the specialized discriminant at an integer parameter:
    discriminant_front(n) * Q(t)^(n-1)."""
    return discriminant_front(n) * disc_quadratic(n, t) ** (n - 1)


def alternating_binomial_sum(n: int, a, b, c):
    """Binomial sum against the 6-periodic alternating pattern (a, b, c, -a, -b, -c)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pattern = (a, b, c)
    total = 0
    for i in range(n + 1):
        r = i % 6
        v = pattern[r] if r < 3 else -pattern[r - 3]
        total = total + comb(n, i) * v
    return total


def quadratic_remainder(n: int) -> Poly:
    """Remainder of the companion polynomial modulo X^2 + X + 1."""
    return companion_poly(n) % Poly([1, 1, 1])

