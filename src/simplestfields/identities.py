"""The structural identities of the family and the seeded suite that runs them.

Every check is exact and returns its first failure message, or None when the
identity holds.  Sampled checks (the transformation identity and the
parametric resultant laws) draw reproducible rational samples from a seeded
generator, and the sampling grids exceed the relevant degree bounds so grid
equality proves the underlying polynomial identity.
"""

import random
from fractions import Fraction
from typing import NamedTuple

from .cyclo import CycloRing, companion_ring, companion_root, embed_root, moebius_matrix_order, sqrt_minus_three
from .family import (
    alternating_binomial_sum,
    companion_poly,
    discriminant_formula,
    discriminant_formula_t,
    family_poly,
    family_poly_at,
    quadratic_remainder,
    specialize,
)
from .poly import Poly, discriminant, resultant


class IdentityResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def check_recursions(n_max: int) -> str | None:
    """Verify the two recursions, the derivative rule and the reflection identity
    as exact polynomial identities in both X and m, for every n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    x = Poly([Poly(), Poly.const(1)])  # X over the ring of m-polynomials
    m = Poly.const(Poly([0, 1]))
    msq = Poly.const(Poly([1, 1, 1]))  # m^2 + m + 1
    f_cur, r_cur = family_poly(0), companion_poly(0)
    for n in range(n_max + 1):
        f_next, r_next = family_poly(n + 1), companion_poly(n + 1)
        r_embedded = Poly([Poly.const(c) for c in r_cur.coeffs])
        r_next_embedded = Poly([Poly.const(c) for c in r_next.coeffs])
        if (x - m) * f_cur + msq * r_embedded != f_next:
            return f"family recursion fails at n={n}"
        if (x + m + 1) * r_embedded - f_cur != r_next_embedded:
            return f"companion recursion fails at n={n}"
        if f_next.deriv() != (n + 1) * f_cur:
            return f"derivative rule fails at n={n}"
        if n >= 1 and (-1) ** (n - 1) * _substitute_neg(r_cur) != r_cur:
            return f"reflection identity fails at n={n}"
        f_cur, r_cur = f_next, r_next
    return None


def _substitute_neg(p: Poly) -> Poly:
    """Compose p with X -> -X - 1: p(-X), shifted by 1."""
    return Poly([-c if i % 2 else c for i, c in enumerate(p.coeffs)]).shift(1)


def check_transform_identity(n: int, m_samples, alpha_samples) -> str | None:
    """Exact verification of the Moebius variable-transformation identity.

    Both sides are compared as polynomials in X at every (m, alpha) sample
    pair; with more than n distinct alpha values and more than 2 distinct m
    values the grid equality proves the polynomial identity, since the two
    sides have degree <= n in alpha and <= 2 in m.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
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
                return f"transform identity fails at n={n}, m={mval}, alpha={aval}"
    return None


def check_companion_at_cube_root(n_max: int) -> str | None:
    """Evaluate the companion polynomial at a primitive cube root of unity and
    compare with the closed power formula, for every n <= n_max."""
    ring = CycloRing(6)
    omega = embed_root(ring, 3)
    s = sqrt_minus_three(ring)
    for n in range(1, n_max + 1):
        if companion_poly(n)(omega) != -((-s) ** (n - 1)):
            return f"cube-root evaluation fails at n={n}"
    return None


def check_quadratic_remainder_scaling(n: int) -> str | None:
    """Verify remainder(n + 12) = 729 * remainder(n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if quadratic_remainder(n + 12) != 729 * quadratic_remainder(n):
        return f"quadratic remainder scaling fails at n={n}"
    return None


def shifted_companion_poly(n: int) -> Poly:
    """The expansion sum((X - s)^(n-1-i) * X^i, i=0..n-1) over the conductor-lcm(6,n) ring,
    summed by telescoping: (X^n - (X - s)^n) * s^-1, s = sqrt(-3) a unit."""
    ring = companion_ring(n)
    s = sqrt_minus_three(ring)
    x_n = Poly([ring.zero] * n + [ring.one])
    return (x_n - Poly([-s, ring.one]) ** n) * s.inverse()


def check_companion_shift_identity(n: int, companion: Poly) -> str | None:
    """Verify, coefficient by coefficient, that the shifted-companion expansion
    equals minus the companion polynomial shifted by the sixth root of unity.

    The identity ties the orientation choices together: with the fixed
    s = -(2*omega + 1), the sixth root entering the shift must be the one
    whose negative is omega itself, i.e. eps6 = -omega.
    """
    ring = companion_ring(n)
    eps6 = -embed_root(ring, 3)
    shifted = Poly([ring.promote(c) for c in companion.coeffs]).shift(-eps6)
    if shifted_companion_poly(n).coeffs != (-shifted).coeffs:
        return f"shifted-companion identity fails at n={n}"
    return None


# _sample_fractions draws a/b with |a| <= _SAMPLE_NUM and 1 <= b <= _SAMPLE_DEN
_SAMPLE_NUM, _SAMPLE_DEN = 40, 9


def _sample_pool_size() -> int:
    """How many distinct fractions _sample_fractions can draw."""
    return len({Fraction(a, b) for a in range(-_SAMPLE_NUM, _SAMPLE_NUM + 1) for b in range(1, _SAMPLE_DEN + 1)})


def _sample_fractions(rng: random.Random, count: int) -> list[Fraction]:
    out = []
    seen = set()
    while len(out) < count:
        f = Fraction(rng.randint(-_SAMPLE_NUM, _SAMPLE_NUM), rng.randint(1, _SAMPLE_DEN))
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def companion_quadratic_resultant_target(n: int) -> int:
    """res(companion_n, X^2+X+1) = 3^(n-1)."""
    return 3 ** (n - 1)


def companion_family_resultant_target(n: int) -> int:
    """res(companion_n, family_n) = 3^(n(n-1)/2) * (-1)^(n(n+1)/2), independent of m."""
    return 3 ** (n * (n - 1) // 2) * (-1) ** (n * (n + 1) // 2)


def consecutive_family_resultant_target(n: int, m: Fraction) -> Fraction:
    """res(family_n, family_(n-1)) = (m^2+m+1)^(n-1) * 3^((n-1)(n-2)/2) * (-1)^(n(n-1)/2)."""
    return (m * m + m + 1) ** (n - 1) * 3 ** ((n - 1) * (n - 2) // 2) * (-1) ** (n * (n - 1) // 2)


def _verdict(name: str, failure: str | None) -> IdentityResult:
    """The suite entry of a check that returned failure (None when it passed)."""
    return IdentityResult(name, failure is None, failure or "")


def run_identity_suite(n_max: int, seed: int = 0, trials: int = 20) -> list[IdentityResult]:
    """Run the full structural-identity suite; each entry is an independent
    verdict.  Raises ValueError for n_max < 2, and for trials < 0 or more
    trials than there are distinct sample fractions to draw."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    pool = _sample_pool_size()
    if trials > pool:
        raise ValueError(f"trials must be at most {pool}, the number of distinct sample fractions")
    rng = random.Random(seed)
    results: list[IdentityResult] = []

    results.append(_verdict("recursions+derivative+reflection", check_recursions(n_max)))

    for n in range(1, min(n_max, 8) + 1):
        m_samples = _sample_fractions(rng, 2 * n + 3)
        a_samples = _sample_fractions(rng, n + 1)
        failure = check_transform_identity(n, m_samples, a_samples)
        for m, a in zip(_sample_fractions(rng, trials), _sample_fractions(rng, trials)):
            failure = failure or check_transform_identity(n, [m], [a])
        results.append(_verdict(f"transform-identity n={n}", failure))

    results.append(_verdict("companion-at-cube-root", check_companion_at_cube_root(max(n_max, 30))))

    for n in range(1, min(n_max, 18) + 1):
        results.append(_verdict(f"quadratic-remainder-scaling n={n}", check_quadratic_remainder_scaling(n)))

    for _ in range(3):
        a, b, c = _sample_fractions(rng, 3)
        # the 3^6 scaling law needs n >= 1 (at n = 0 the multisection closed
        # form drops a 0^0 term and the law genuinely fails: 486 != 729)
        ok = all(
            alternating_binomial_sum(n + 12, a, b, c) == 729 * alternating_binomial_sum(n, a, b, c)
            for n in range(1, n_max + 1)
        )
        results.append(IdentityResult("alternating-binomial-scaling", ok, f"a={a} b={b} c={c}"))

    for n in range(2, min(n_max, 12) + 1):
        alpha = companion_root(n)
        root_ok = companion_poly(n)(alpha) == 0
        order = moebius_matrix_order(alpha, 2 * n)
        shift = check_companion_shift_identity(n, companion_poly(n))
        results.append(IdentityResult(f"companion-root n={n}", root_ok))
        results.append(IdentityResult(f"moebius-order n={n}", order == n, f"order={order}"))
        results.append(_verdict(f"shifted-companion n={n}", shift))

    quad = Poly([1, 1, 1])
    for n in range(1, n_max + 1):
        ok = resultant(companion_poly(n), quad) == companion_quadratic_resultant_target(n)
        results.append(IdentityResult(f"companion-quadratic-resultant n={n}", ok))

    for n in range(1, min(n_max, 8) + 1):
        for m in _sample_fractions(rng, 5):
            f = family_poly_at(n, m)
            ok = resultant(companion_poly(n), f) == companion_family_resultant_target(n)
            results.append(IdentityResult(f"companion-family-resultant n={n}", ok, f"m={m}"))
            if n >= 2:
                g = family_poly_at(n - 1, m)
                ok = resultant(f, g) == consecutive_family_resultant_target(n, m)
                results.append(IdentityResult(f"consecutive-family-resultant n={n}", ok, f"m={m}"))

    for n in range(2, min(n_max, 10) + 1):
        for m in _sample_fractions(rng, 5):
            ok = discriminant(family_poly_at(n, m)) == discriminant_formula(n, m)
            results.append(IdentityResult(f"discriminant-closed-form n={n}", ok, f"m={m}"))
        for _ in range(5):
            t = rng.randint(-60, 60)
            ok = discriminant(specialize(n, t).poly) == discriminant_formula_t(n, t)
            results.append(IdentityResult(f"specialized-discriminant n={n}", ok, f"t={t}"))

    return results
