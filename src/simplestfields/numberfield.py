"""Number fields generated by specialized family polynomials.

A field element is an integer coordinate vector over the power basis
1, beta, ..., beta^(n-1) together with a positive denominator.  The
characteristic polynomial of w/den, w the integer numerator, has the
coefficients (-1)^k e_k / den^k, where e_k comes from the power sums
Tr(w^k) by Newton's identities (Cohen, GTM 138, 4.3); the power sums need
only products mod f and the traces of the powers of beta.  The integrality
test is integer arithmetic only and stops at the first k with den^k not
dividing e_k.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._kernels import zx_mulmod
from .family import disc_quadratic, discriminant_formula_t, specialize
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


@lru_cache(maxsize=4096)
def number_field(n: int, t: int) -> NumberField:
    """Construct the field data, once per parameter.

    The discriminant is computed by resultant and cross-checked against the
    closed form.  The witness is read off the factorization of the parameter
    quadratic and verified: the shifted minimal polynomial must be
    Eisenstein at it.
    """
    f = specialize(n, t).poly
    disc = discriminant_formula_t(n, t)
    if discriminant(f) != disc:
        raise AssertionError(f"discriminant mismatch at n={n}, t={t}")
    witness = witness_prime(quadratic_factorization(n, t))
    if witness is not None and not is_eisenstein(_shifted(n, t, f), witness):
        raise AssertionError(f"witness {witness} fails the Eisenstein check at n={n}, t={t}")
    return NumberField(n, t, f, disc, witness)


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


def _char_coeffs(field: NumberField, w):
    """Yield e_1, ..., e_n, the elementary symmetric functions of the
    conjugates of the integer numerator w, one at a time.

    The power sums s_k = Tr(w^k) come from w^k mod f and the cached traces
    of beta^i; Newton's identities k * e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) s_i
    then give e_k, and every division by k must be exact.
    """
    f = list(field.poly.coeffs)
    traces = field_trace_powers(field, field.n - 1)
    w = list(w)
    e = [1]
    s = []
    power = [1]
    for k in range(1, field.n + 1):
        power = zx_mulmod(power, w, f)
        s.append(sum(c * tr for c, tr in zip(power, traces)))
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * s[i - 1]
            acc += term if i % 2 else -term
        ek, r = divmod(acc, k)
        if r:
            raise AssertionError("non-integral Newton identity step")
        e.append(ek)
        yield ek


def char_poly(e: FieldElt) -> Poly:
    """Monic degree-n characteristic polynomial of the element, exact: the
    coefficient of Y^(n-k) is (-1)^k e_k / den^k."""
    coeffs = [Fraction(1)]
    for k, ek in enumerate(_char_coeffs(e.field, e.num), 1):
        coeffs.append(Fraction(-ek if k % 2 else ek, e.den**k))
    return Poly(coeffs[::-1])


def is_algebraic_integer(e: FieldElt) -> bool:
    """True when the characteristic polynomial has integer coefficients, that
    is den^k divides e_k for every k <= n; stops at the first k that fails."""
    return all(ek % e.den**k == 0 for k, ek in enumerate(_char_coeffs(e.field, e.num), 1))


@lru_cache(maxsize=512)
def field_trace_powers(field: NumberField, k_max: int) -> tuple[int, ...]:
    """Traces of beta^k for k = 0..k_max via Newton's identities."""
    n = field.n
    c = field.poly.coeffs  # c[i] = coefficient of X^i, c[n] = 1
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


@lru_cache(maxsize=4096)
def quadratic_factorization(n: int, t: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of the parameter quadratic Q(t), ascending.
    The parameter gate and number_field both read it, so each Q(t) is
    factored once."""
    return tuple(factorize(disc_quadratic(n, t)).items())


def witness_prime(fac: tuple[tuple[int, int], ...]) -> int | None:
    """The least prime p != 3 of exponent 1 in a factorization, or None."""
    return next((p for p, e in fac if p != 3 and e == 1), None)


def _shifted(n: int, t: int, f: Poly) -> Poly:
    """f(X + t), or 3^n * f(X/3) shifted by t when 3 divides n, in integers."""
    if n % 3 == 0:
        f = Poly([c * 3 ** (n - i) for i, c in enumerate(f.coeffs)])
    return f.shift(t)


def is_eisenstein(p: Poly, prime: int) -> bool:
    """Monic, all non-leading coefficients divisible by prime, constant term
    not divisible by prime^2."""
    if p.lc != 1:
        return False
    if any(c % prime for c in p.coeffs[:-1]):
        return False
    return p.coeffs[0] % (prime * prime) != 0
