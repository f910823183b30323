"""Dense univariate polynomials with exact coefficients.

Coefficients are duck-typed: plain ints and Fractions for ordinary work,
Poly-in-the-parameter for the symbolic family construction, or cyclotomic
elements for the root-identity checks.  Index i is the coefficient of X^i;
the zero polynomial has an empty coefficient tuple and degree -1.
"""

from fractions import Fraction
from math import lcm

from ._kernels import zx_resultant


def _is_zero(c) -> bool:
    return c == 0


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        # scalar comparison
        if not self.coeffs:
            return _is_zero(other)
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly.const(other).__neg__())

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not _is_zero(ai):
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return Poly([other * c for c in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        """Quotient and remainder; the divisor needs an invertible leading coefficient."""
        if not isinstance(other, Poly):
            other = Poly.const(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lc = other.lc
        rem = list(self.coeffs)
        db = other.degree
        if len(rem) - 1 < db:
            return Poly(), self
        q = [0] * (len(rem) - db)
        monic = lc == 1
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if _is_zero(c):
                continue
            f = c if monic else _coeff_div(c, lc)
            q[i - db] = f
            rem[i] = 0
            for j in range(db):
                rem[i - db + j] = rem[i - db + j] - f * other.coeffs[j]
        return Poly(q), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __call__(self, x):
        """Horner evaluation in any commutative ring the coefficients embed into."""
        if not self.coeffs:
            return 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def shift(self, c) -> "Poly":
        """Taylor shift: the polynomial X -> self(X + c), exact.

        Repeated synthetic division by X - c on the coefficient list, in
        place: pass i leaves a[i] as the i-th Taylor coefficient at c.
        """
        a = list(self.coeffs)
        n = len(a) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] = a[j] + a[j + 1] * c
        return Poly(a)

    def deriv(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def map(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        return "Poly([" + ", ".join(repr(c) for c in self.coeffs) + "])"


def _coeff_div(x, d):
    """Exact coefficient division used by divmod."""
    if isinstance(x, int) and isinstance(d, int):
        if x % d == 0:
            return x // d
        return Fraction(x, d)
    return x / d


def _int_normalized(p: Poly) -> tuple[list[int], int]:
    """Scale a rational-coefficient polynomial to integer coefficients.

    Returns (coeffs, den) with den > 0 and den * p having the given integer
    coefficient list.
    """
    den = 1
    for c in p.coeffs:
        if isinstance(c, Fraction):
            den = lcm(den, c.denominator)
        elif not isinstance(c, int):
            raise TypeError("integer or rational coefficients required")
    coeffs = [int(c * den) for c in p.coeffs]
    return coeffs, den


def resultant(a: Poly, b: Poly):
    """Resultant of two nonzero polynomials with integer or rational coefficients.

    Convention: res(A, B) = lc(A)^deg(B) * prod over roots alpha of A of B(alpha),
    which satisfies the swap law res(A, B) = (-1)^(deg A deg B) res(B, A).
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of zero polynomial")
    za, da = _int_normalized(a)
    zb, db = _int_normalized(b)
    r = zx_resultant(za, zb)
    if da == 1 and db == 1:
        return r
    # res(A/da, B/db) = res(A, B) / (da^deg B * db^deg A)
    return Fraction(r, da ** b.degree * db ** a.degree)


def discriminant(a: Poly):
    """Discriminant of a monic polynomial of degree >= 2."""
    if a.degree < 2:
        raise ValueError("discriminant requires degree >= 2")
    if a.lc != 1:
        raise ValueError("discriminant implemented for monic polynomials")
    n = a.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(a, a.deriv())
