"""Exact arithmetic in cyclotomic quotient rings Q[y] / Phi_N(y).

This is the home of the sixth and n-th roots of unity, the square root of
minus three, the canonical companion-polynomial root, and the order of the
Moebius transformation at that root, read off the Cayley-Hamilton
recurrence of its 2x2 matrix.  Everything is exact; no floating-point
embedding is ever used.  The orientation convention (which primitive cube
root pairs with which square root of -3) is fixed once here: with
omega = embed_root(ring, 3) the element -(2*omega + 1) plays the role of
I*sqrt(3), and the checks in identities.py verify every power formula
under that pairing.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .poly import Poly


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Poly:
    """The n-th cyclotomic polynomial with integer coefficients."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = Poly([-1] + [0] * (n - 1) + [1])  # y^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = divmod(num, cyclotomic_polynomial(d))
            if not r.is_zero:
                raise AssertionError(f"Phi_{d} does not divide y^{n} - 1")
            num = q
    return num


class CycloRing:
    """Q[y] / Phi_N(y), cached per conductor."""

    _cache: dict[int, "CycloRing"] = {}

    def __new__(cls, n: int):
        ring = cls._cache.get(n)
        if ring is None:
            ring = super().__new__(cls)
            ring.n = n
            ring.modulus = cyclotomic_polynomial(n)
            ring.degree = ring.modulus.degree
            cls._cache[n] = ring
        return ring

    def element(self, coeffs) -> "CycloElt":
        rep = Poly([Fraction(c) for c in coeffs]) % self.modulus
        return CycloElt(self, rep.coeffs)

    def promote(self, x) -> "CycloElt":
        if isinstance(x, CycloElt):
            if x.ring is not self:
                raise ValueError("element of a different cyclotomic ring")
            return x
        return self.element([x])

    @property
    def zero(self) -> "CycloElt":
        return CycloElt(self, ())

    @property
    def one(self) -> "CycloElt":
        return CycloElt(self, (Fraction(1),))

    def __repr__(self) -> str:
        return f"CycloRing({self.n})"


class CycloElt:
    """Element of a CycloRing: reduced representative polynomial in the root y."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycloRing, coeffs):
        self.ring = ring
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _poly(self) -> Poly:
        return Poly(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloElt):
            return self.ring is other.ring and self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash((self.ring.n, self.coeffs))

    def __add__(self, other) -> "CycloElt":
        other = self.ring.promote(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return CycloElt(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "CycloElt":
        return CycloElt(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other) -> "CycloElt":
        return self + (-self.ring.promote(other))

    def __rsub__(self, other) -> "CycloElt":
        return (-self) + other

    def __mul__(self, other) -> "CycloElt":
        if not isinstance(other, CycloElt):
            return CycloElt(self.ring, [c * other for c in self.coeffs])
        if self.ring is not other.ring:
            raise ValueError("element of a different cyclotomic ring")
        prod = self._poly() * other._poly()
        return CycloElt(self.ring, (prod % self.ring.modulus).coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElt":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if self.is_zero:
            raise ZeroDivisionError("inverting zero cyclotomic element")
        r0, r1 = self.ring.modulus, self._poly()
        t0, t1 = Poly(), Poly.const(Fraction(1))
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        # r0 is a nonzero constant gcd since Phi_N is irreducible
        c = r0.coeffs[0]
        inv = t0.map(lambda x: Fraction(x) / c)
        return CycloElt(self.ring, (inv % self.ring.modulus).coeffs)

    def __truediv__(self, other) -> "CycloElt":
        return self * self.ring.promote(other).inverse()

    def __rtruediv__(self, other) -> "CycloElt":
        return self.ring.promote(other) * self.inverse()

    def __pow__(self, k: int) -> "CycloElt":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self) -> str:
        return f"CycloElt({self.ring.n}, {list(self.coeffs)})"


def embed_root(ring: CycloRing, d: int) -> CycloElt:
    """The root of unity zeta_d inside ring (d must divide the conductor).

    Represented as y^(N/d) reduced mod Phi_N; has multiplicative order
    exactly d.
    """
    if ring.n % d != 0:
        raise ValueError(f"{d} does not divide the conductor {ring.n}")
    e = (ring.n // d) % ring.n
    return ring.element([0] * e + [1])


def sqrt_minus_three(ring: CycloRing) -> CycloElt:
    """The fixed representative of a square root of -3 (requires 3 | conductor).

    Defined as -(2*omega + 1) for omega = embed_root(ring, 3); its square
    is -3 because omega^2 + omega + 1 = 0.
    """
    if ring.n % 3 != 0:
        raise ValueError("ring must contain the cube roots of unity")
    omega = embed_root(ring, 3)
    return -(2 * omega + 1)


def companion_ring(n: int) -> CycloRing:
    """The ambient ring used for degree n: conductor lcm(6, n)."""
    return CycloRing(lcm(6, n))


def companion_root(n: int) -> CycloElt:
    """The canonical root alpha = eps6 * (eps6 + epsn) / (1 - epsn) of the companion polynomial.

    Lives in the ring of conductor lcm(6, n); requires n >= 2 so that
    1 - epsn is invertible.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    ring = companion_ring(n)
    eps6 = embed_root(ring, 6)
    epsn = embed_root(ring, n)
    return eps6 * (eps6 + epsn) / (1 - epsn)


def moebius_matrix_order(alpha: CycloElt, max_k: int) -> int | None:
    """Smallest k >= 1 with M^k scalar for the root-permuting Moebius matrix
    M = [[alpha, -1], [1, alpha+1]], or None past max_k.

    By Cayley-Hamilton M^2 = tr * M - det * I, tr = 2*alpha + 1 and det =
    alpha^2 + alpha + 1, so M^k = a_k * M - det * a_(k-1) * I with a_0 = 0,
    a_1 = 1 and a_(k+1) = tr * a_k - det * a_(k-1).  M is never scalar (its
    corner is -1), so M^k is scalar iff a_k = 0.  When det = 0, tr != 0
    (tr^2 - 4 * det = -3) and a_k = tr^(k-1) never vanishes; otherwise
    a_k = a_(k-1) = 0 would run the recurrence back to a_1 = 0, so the
    scalar -det * a_(k-1) is nonzero.
    """
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    tr, det = 2 * alpha + 1, alpha * alpha + alpha + 1
    prev, cur = alpha.ring.zero, alpha.ring.one  # a_0, a_1
    for k in range(1, max_k + 1):
        if cur.is_zero:
            return k
        prev, cur = cur, tr * cur - det * prev
    return None
