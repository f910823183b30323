"""Integer and rational number-theory utilities.

Factorization is sized for desk-scale inputs (parameters |t| up to a few
thousand, so quadratics up to ~10^7): trial division over a cached prime
sieve, with a deterministic Brent-rho fallback for anything larger.  The
sieve for an input n reaches the next power of two above sqrt(n), capped at
TRIAL_DIVISION_BOUND, and each size is sieved once per process: the
quadratics of parameters |t| < 10^4 stay below 10^8 and need primes below
2^14 only, so no caller pays for the primes up to 10^6 unless its input
is that large.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

TRIAL_DIVISION_BOUND = 1_000_000

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)  # one list per size, and factorize asks for at most 20 sizes
def _sieve(limit: int) -> list[int]:
    """The primes up to limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin witness set valid far past 2^64)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (deterministic parameter sweep)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("factorization of zero undefined")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _sieve(min(1 << isqrt(n).bit_length(), TRIAL_DIVISION_BOUND)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _brent_rho(m)
            stack.append(d)
            stack.append(m // d)
    return dict(sorted(out.items()))


def p_adic_valuation(x: int | Fraction, p: int) -> int:
    """Exponent of the prime p in x; negative for rationals with p in the denominator."""
    if p < 2:
        raise ValueError(f"valuation base must be at least 2, not {p}")
    if x == 0:
        raise ValueError("valuation of zero undefined")
    if isinstance(x, Fraction):
        return p_adic_valuation(x.numerator, p) - p_adic_valuation(x.denominator, p)
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def three_free_part(n: int) -> int:
    """n with every factor of 3 removed."""
    if n == 0:
        raise ValueError("3-free part of zero undefined")
    while n % 3 == 0:
        n //= 3
    return n


def largest_square_root_divisor(n: int) -> int:
    """The greatest C with C*C dividing n (n >= 1)."""
    if n < 1:
        raise ValueError("argument must be positive")
    c = 1
    for p, e in factorize(n).items():
        c *= p ** (e // 2)
    return c
