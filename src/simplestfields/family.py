"""Construction and structural checks of the generalized simplest polynomial family.

The family is linear in its parameter m: F_n = G_n + m * R_n, with G_n and
the companion R_n binomial-weighted sums over two 6-periodic integer tables.
The check_* functions verify the recursion, derivative, reflection,
transformation and evaluation identities exactly (no floating point
anywhere).
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


class CheckReport(NamedTuple):
    ok: bool
    checks: int
    first_failure: str | None = None


def check_recursions(n_max: int) -> CheckReport:
    """Verify the two recursions, the derivative rule and the reflection identity
    as exact polynomial identities in both X and m, for every n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    x = Poly([Poly(), Poly.const(1)])  # X over the ring of m-polynomials
    m = Poly.const(Poly([0, 1]))
    msq = Poly.const(Poly([1, 1, 1]))  # m^2 + m + 1
    checks = 0
    f_cur, r_cur = family_poly(0), companion_poly(0)
    for n in range(n_max + 1):
        f_next, r_next = family_poly(n + 1), companion_poly(n + 1)
        r_embedded = Poly([Poly.const(c) for c in r_cur.coeffs])
        r_next_embedded = Poly([Poly.const(c) for c in r_next.coeffs])
        if (x - m) * f_cur + msq * r_embedded != f_next:
            return CheckReport(False, checks, f"family recursion fails at n={n}")
        checks += 1
        if (x + m + 1) * r_embedded - f_cur != r_next_embedded:
            return CheckReport(False, checks, f"companion recursion fails at n={n}")
        checks += 1
        if f_next.deriv() != (n + 1) * f_cur:
            return CheckReport(False, checks, f"derivative rule fails at n={n}")
        checks += 1
        if n >= 1:
            reflected = _substitute_neg(r_cur)
            if (-1) ** (n - 1) * reflected != r_cur:
                return CheckReport(False, checks, f"reflection identity fails at n={n}")
            checks += 1
        f_cur, r_cur = f_next, r_next
    return CheckReport(True, checks)


def _substitute_neg(p: Poly) -> Poly:
    """Compose p with X -> -X - 1."""
    acc = Poly()
    lin = Poly([-1, -1])
    for coeff in reversed(p.coeffs):
        acc = acc * lin + Poly.const(coeff)
    return acc


def check_transform_identity(n: int, m_samples, alpha_samples) -> CheckReport:
    """Exact verification of the Moebius variable-transformation identity.

    Both sides are compared as polynomials in X at every (m, alpha) sample
    pair; with more than n distinct alpha values and more than 2 distinct m
    values the grid equality proves the polynomial identity, since the two
    sides have degree <= n in alpha and <= 2 in m.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    checks = 0
    r = companion_poly(n)
    for m in m_samples:
        mval = Fraction(m)
        f = family_poly_at(n, mval)
        msq = mval * mval + mval + 1
        for a in alpha_samples:
            aval = Fraction(a)
            # lhs expanded through the coefficients f_i of f, no denominators involved:
            # sum_i f_i (alpha X - 1)^i (X + alpha + 1)^(n-i)
            lin1 = Poly([-1, aval])
            lin2 = Poly([aval + 1, 1])
            lhs = Poly()
            for i, c in enumerate(f.coeffs):
                if c:
                    lhs = lhs + c * lin1**i * lin2 ** (n - i)
            rhs = f(aval) * f - msq * r(aval) * r
            if lhs != rhs:
                return CheckReport(False, checks, f"transform identity fails at n={n}, m={mval}, alpha={aval}")
            checks += 1
    return CheckReport(True, checks)


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


def check_companion_at_cube_root(n_max: int) -> CheckReport:
    """Evaluate the companion polynomial at a primitive cube root of unity and
    compare with the closed power formula, for every n <= n_max."""
    from .cyclo import CycloRing, embed_root, sqrt_minus_three  # on first use: CLI start-up needs no cyclo

    ring = CycloRing(6)
    omega = embed_root(ring, 3)
    s = sqrt_minus_three(ring)
    checks = 0
    for n in range(1, n_max + 1):
        value = companion_poly(n)(omega)
        expected = -((-s) ** (n - 1))
        if not (value == expected):
            return CheckReport(False, checks, f"cube-root evaluation fails at n={n}")
        checks += 1
    return CheckReport(True, checks)


def quadratic_remainder(n: int) -> Poly:
    """Remainder of the companion polynomial modulo X^2 + X + 1."""
    return companion_poly(n) % Poly([1, 1, 1])


def check_quadratic_remainder_scaling(n: int) -> bool:
    """Verify remainder(n + 12) = 729 * remainder(n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return quadratic_remainder(n + 12) == 729 * quadratic_remainder(n)
