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

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from ._kernels import zx_mulmod
from .family import disc_quadratic, discriminant_formula_t, parameter_scale, specialize
from .numutil import FactoringError, factorize
from .poly import Poly, discriminant


class ParameterNotCoveredError(ValueError):
    """Raised when a parameter falls outside the certified hypotheses."""


class NumberField(NamedTuple):
    """Q(beta) for beta a root of the degree-n specialized family polynomial."""

    n: int
    t: int
    poly: Poly  # monic, integer coefficients
    disc: int
    witness: int | None  # Eisenstein witness prime, when one exists


@lru_cache(maxsize=None)
def _discriminant_law(n: int) -> None:
    """Prove disc(f_t) = discriminant_formula_t(n, t) as an identity in Z[t],
    once per degree; raises AssertionError at the first t where they differ.

    f_t is monic and each of its other coefficients has degree <= 1 in t
    (the pencil G_n + t * R_n / s at m = t/s), and the
    discriminant of a degree-n polynomial is homogeneous of degree 2n - 2 in
    its coefficients, so disc(f_t) has degree <= 2n - 2 in t.  So has the
    closed form, a constant times Q(t)^(n-1).  Agreement at the 2n - 1
    points t = 0..2n-2, each a resultant by subresultant PRS, proves the
    identity for every t.
    """
    for t in range(2 * n - 1):
        if discriminant(specialize(n, t).poly) != discriminant_formula_t(n, t):
            raise AssertionError(f"discriminant mismatch at n={n}, t={t}")


@lru_cache(maxsize=4096)
def number_field(n: int, t: int) -> NumberField:
    """Construct the field data, once per parameter.

    The discriminant is read off the closed form, which _discriminant_law
    proves equal to the resultant discriminant of f_t for every t, once per
    degree.  The witness is read off the factorization of the parameter
    quadratic and verified: the shifted minimal polynomial must be
    Eisenstein at it.  Raises ParameterNotCoveredError where that
    factorization runs out of its budget (quadratic_factorization).
    """
    f = specialize(n, t).poly
    _discriminant_law(n)
    disc = discriminant_formula_t(n, t)
    witness = witness_prime(quadratic_factorization(n, t))
    if witness is not None and not is_eisenstein(_shifted(n, t, f), witness):
        raise AssertionError(f"witness {witness} fails the Eisenstein check at n={n}, t={t}")
    return NumberField(n, t, f, disc, witness)


class _FieldEltFields(NamedTuple):
    field: NumberField
    num: tuple[int, ...]
    den: int


class FieldElt(_FieldEltFields):
    """(num[0] + num[1]*beta + ... + num[n-1]*beta^(n-1)) / den, normalized."""

    __slots__ = ()

    def __new__(cls, field: NumberField, num: tuple[int, ...], den: int):
        if den < 1:
            raise ValueError("denominator must be positive")
        return super().__new__(cls, field, num, den)


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

    The power sums s_k = Tr(w^k) come from w^k mod f, n - 1 products in
    all, and the cached traces of beta^i, read from the field's one table
    of beta^0..beta^(2n-2) that trace forms read too; Newton's identities
    k * e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) s_i then give e_k, and every
    division by k must be exact.
    """
    f = list(field.poly.coeffs)
    traces = field_trace_powers(field)
    w = list(w)
    e = [1]
    s = []
    for k in range(1, field.n + 1):
        power = w if k == 1 else zx_mulmod(power, w, f)  # w has length n, so it is reduced
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
def field_trace_powers(field: NumberField) -> tuple[int, ...]:
    """Traces of beta^k for k = 0..2n-2 via Newton's identities."""
    n = field.n
    c = field.poly.coeffs  # c[i] = coefficient of X^i, c[n] = 1
    p = [n] + [0] * (2 * n - 2)
    for k in range(1, 2 * n - 1):
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
    factored once.  Raises ParameterNotCoveredError when Q(t) cannot be
    factored within numutil.RHO_ITERATION_BUDGET: whether it is squarefree
    is then undecided."""
    q = disc_quadratic(n, t)
    try:
        return tuple(factorize(q).items())
    except FactoringError as exc:
        raise ParameterNotCoveredError(f"Q(t) = {q} is not factored: {exc}") from None


def witness_prime(fac: tuple[tuple[int, int], ...]) -> int | None:
    """The least prime p != 3 of exponent 1 in a factorization, or None."""
    return next((p for p, e in fac if p != 3 and e == 1), None)


def _shifted(n: int, t: int, f: Poly) -> Poly:
    """s^n * f(X/s) shifted by t, in integers: the minimal polynomial of
    s * beta - t, where m = t/s (see family.parameter_scale)."""
    s = parameter_scale(n)
    return Poly([c * s ** (n - i) for i, c in enumerate(f.coeffs)]).shift(t)


def is_eisenstein(p: Poly, prime: int) -> bool:
    """Monic, all non-leading coefficients divisible by prime, constant term
    not divisible by prime^2."""
    if p.lc != 1:
        return False
    if any(c % prime for c in p.coeffs[:-1]):
        return False
    return p.coeffs[0] % (prime * prime) != 0
