"""Number fields generated by specialized family polynomials.

A field element is an integer coordinate vector over the power basis
1, beta, ..., beta^(n-1) together with a positive denominator.  The
characteristic polynomial is computed through the resultant kernel at the
integer points 0..n and interpolated through an inverse Vandermonde matrix
kept per length as an integer matrix over one denominator, so the
integrality test is integer arithmetic only.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._kernels import zx_resultant, zx_trim
from .family import SpecializedPoly, disc_quadratic, discriminant_formula_t, parameter_value, specialize
from .linalg import rat_matrix_inverse
from .numutil import factorize
from .poly import Poly, discriminant


class ParameterNotCoveredError(ValueError):
    """Raised when a parameter falls outside the certified hypotheses."""


@dataclass(frozen=True)
class NumberField:
    """Q(beta) for beta a root of the degree-n specialized family polynomial."""

    n: int
    t: int
    poly: Poly  # monic, integer coefficients
    disc: int
    witness: int | None  # Eisenstein witness prime, when one exists

    @property
    def certified_irreducible(self) -> bool:
        return self.witness is not None


@lru_cache(maxsize=4096)
def number_field(n: int, t: int) -> NumberField:
    """Construct the field data; the discriminant is computed by resultant and
    cross-checked against the closed form."""
    sp = specialize(n, t)
    d_res = discriminant(sp.poly)
    d_formula = discriminant_formula_t(n, t)
    if d_res != d_formula:
        raise AssertionError(f"discriminant mismatch at n={n}, t={t}")
    return NumberField(n, t, sp.poly, d_formula, eisenstein_witness(n, t))


@dataclass(frozen=True)
class FieldElt:
    """(num[0] + num[1]*beta + ... + num[n-1]*beta^(n-1)) / den, normalized."""

    field: NumberField
    num: tuple[int, ...]
    den: int

    def __post_init__(self):
        if self.den < 1:
            raise ValueError("denominator must be positive")


def field_elt(field: NumberField, num, den: int = 1) -> FieldElt:
    num = list(num)
    if len(num) > field.n:
        raise ValueError("coordinate vector longer than the field degree")
    num += [0] * (field.n - len(num))
    if den < 0:
        den = -den
        num = [-x for x in num]
    if den == 0:
        raise ValueError("denominator must be nonzero")
    g = gcd(den, *num) if any(num) else den
    return FieldElt(field, tuple(x // g for x in num), den // g)


def char_poly(e: FieldElt) -> Poly:
    """Monic degree-n characteristic polynomial of the element, exact.

    Computed as Res_X(f(X), den*Y - A(X)) / den^n, where A is the numerator
    polynomial; the resultant in Y is recovered by interpolation at integer
    points through the integer subresultant kernel.
    """
    f = list(e.field.poly.coeffs)
    n = e.field.n
    a = zx_trim(list(e.num))
    d = e.den
    if not a:
        return Poly([Fraction(0)] * n + [Fraction(1)])  # the zero element: Y^n
    if len(a) == 1:
        # rational element a0/d: characteristic polynomial (Y - a0/d)^n
        return Poly([Fraction(-a[0], d), Fraction(1)]) ** n
    values = []
    for y in range(n + 1):
        g = list(a)
        g[0] -= d * y
        values.append(zx_resultant(f, [-c for c in g]))
    r_poly = _interpolate_int(values)
    dn = d**n
    return Poly([Fraction(c, dn) for c in r_poly])


@lru_cache(maxsize=None)
def _inverse_vandermonde(k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, D) with M / D the inverse of V[i][j] = i^j for 0 <= i, j < k, M
    integral and D the common denominator.  One entry per interpolation
    length, and the lengths in use are bounded by twice the field degree."""
    inv = rat_matrix_inverse([[Fraction(i**j) for j in range(k)] for i in range(k)])
    d = lcm(*(x.denominator for row in inv for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in inv), d


def _interpolate_int(ys: list[int]) -> list[int]:
    """Integer coefficients, lowest degree first, of the polynomial of degree
    below len(ys) taking the value ys[i] at i = 0, 1, ... (coefficients are
    asserted integral)."""
    m, d = _inverse_vandermonde(len(ys))
    out = []
    for row in m:
        q, r = divmod(sum(c * y for c, y in zip(row, ys)), d)
        if r:
            raise AssertionError("non-integral interpolation result")
        out.append(q)
    return out


def is_algebraic_integer(e: FieldElt) -> bool:
    """True when the characteristic polynomial has integer coefficients."""
    if e.den == 1:
        return True
    return all(Fraction(c).denominator == 1 for c in char_poly(e).coeffs)


@lru_cache(maxsize=512)
def trace_powers(f_coeffs: tuple[int, ...], k_max: int) -> tuple[int, ...]:
    """Traces of beta^k for k = 0..k_max via Newton's identities (f monic, integer)."""
    n = len(f_coeffs) - 1
    c = f_coeffs  # c[i] = coefficient of X^i, c[n] = 1
    p = [0] * (k_max + 1)
    p[0] = n
    for k in range(1, k_max + 1):
        if k <= n:
            s = -k * c[n - k]
            for i in range(1, k):
                s -= c[n - i] * p[k - i]
        else:
            s = 0
            for i in range(1, n + 1):
                s -= c[n - i] * p[k - i]
        p[k] = s
    return tuple(p)


def field_trace_powers(field: NumberField, k_max: int) -> tuple[int, ...]:
    return trace_powers(field.poly.coeffs, k_max)


def eisenstein_witness(n: int, t: int) -> int | None:
    """A prime p != 3 with p-valuation exactly 1 in the parameter quadratic,
    verified to make the shifted minimal polynomial Eisenstein; None when the
    sufficient irreducibility condition fails."""
    if n < 2:
        raise ValueError("degree must be at least 2")
    q = disc_quadratic(n, t)
    witness = None
    for p, e in factorize(q).items():
        if p != 3 and e == 1:
            witness = p
            break
    if witness is None:
        return None
    shifted = shifted_min_poly(n, t)
    if not is_eisenstein(shifted, witness):
        raise AssertionError(f"witness {witness} fails the Eisenstein check at n={n}, t={t}")
    return witness


def shifted_min_poly(n: int, t: int) -> Poly:
    """Minimal polynomial of beta - t, or of 3*beta - t when 3 divides n.

    Both are integer monic polynomials; this is the polynomial whose
    Eisenstein property certifies irreducibility and index coprimality.
    """
    m = parameter_value(n, t)
    sp = specialize(n, t)
    shifted = sp.poly.shift(m)  # minimal polynomial of beta - m, rational coefficients
    if n % 3 != 0:
        out = [int(Fraction(c)) for c in shifted.coeffs]
        return Poly(out)
    # scale: minimal polynomial of 3*(beta - m) = 3*beta - t
    out = []
    for i, c in enumerate(shifted.coeffs):
        v = Fraction(c) * 3 ** (n - i)
        if v.denominator != 1:
            raise AssertionError("scaled shift is not integral")
        out.append(v.numerator)
    return Poly(out)


def is_eisenstein(p: Poly, prime: int) -> bool:
    """Monic, all non-leading coefficients divisible by prime, constant term
    not divisible by prime^2."""
    if p.lc != 1:
        return False
    if any(c % prime for c in p.coeffs[:-1]):
        return False
    return p.coeffs[0] % (prime * prime) != 0
