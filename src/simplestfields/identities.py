"""The aggregated identity verification suite.

Every check is exact; sampled checks (the transformation identity and the
parametric resultant laws) draw reproducible rational samples from a seeded
generator, and the sampling grids exceed the relevant degree bounds so grid
equality proves the underlying polynomial identity.
"""

import random
from fractions import Fraction
from typing import NamedTuple

from .cyclo import check_companion_shift_identity, companion_root, moebius_matrix_order
from .family import (
    alternating_binomial_sum,
    check_companion_at_cube_root,
    check_quadratic_remainder_scaling,
    check_recursions,
    check_transform_identity,
    companion_poly,
    discriminant_formula,
    discriminant_formula_t,
    family_poly_at,
    specialize,
)
from .poly import Poly, discriminant, resultant


class IdentityResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _sample_fractions(rng: random.Random, count: int, den_max: int = 9) -> list[Fraction]:
    out = []
    seen = set()
    while len(out) < count:
        f = Fraction(rng.randint(-40, 40), rng.randint(1, den_max))
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


def run_identity_suite(n_max: int, seed: int = 0, trials: int = 20) -> list[IdentityResult]:
    """Run the full structural-identity suite; each entry is an independent
    verdict.  Raises ValueError for n_max < 2 or trials < 0."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    rng = random.Random(seed)
    results: list[IdentityResult] = []

    rec = check_recursions(n_max)
    results.append(IdentityResult("recursions+derivative+reflection", rec.ok, rec.first_failure or f"{rec.checks} checks"))

    for n in range(1, min(n_max, 8) + 1):
        m_samples = _sample_fractions(rng, 2 * n + 3)
        a_samples = _sample_fractions(rng, n + 1)
        grid = check_transform_identity(n, m_samples, a_samples)
        extra_pairs = [(m, a) for m, a in zip(_sample_fractions(rng, trials), _sample_fractions(rng, trials))]
        extras_ok = all(check_transform_identity(n, [m], [a]).ok for m, a in extra_pairs)
        ok = grid.ok and extras_ok
        results.append(IdentityResult(f"transform-identity n={n}", ok, grid.first_failure or ""))

    cube = check_companion_at_cube_root(max(n_max, 30))
    results.append(IdentityResult("companion-at-cube-root", cube.ok, cube.first_failure or ""))

    for n in range(1, min(n_max, 18) + 1):
        ok = check_quadratic_remainder_scaling(n)
        results.append(IdentityResult(f"quadratic-remainder-scaling n={n}", ok))

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
        shift_ok = check_companion_shift_identity(n, companion_poly(n))
        results.append(IdentityResult(f"companion-root n={n}", root_ok))
        results.append(IdentityResult(f"moebius-order n={n}", order == n, f"order={order}"))
        results.append(IdentityResult(f"shifted-companion n={n}", shift_ok))

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
