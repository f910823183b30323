import random
from fractions import Fraction

import pytest

from simplestfields.cyclo import (
    CycloRing,
    companion_ring,
    companion_root,
    cyclotomic_polynomial,
    embed_root,
    moebius_matrix_order,
    sqrt_minus_three,
)
from simplestfields.family import companion_poly
from simplestfields.identities import check_companion_shift_identity
from simplestfields.poly import Poly

from oracles import matrix_power_moebius_order


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == Poly([-1, 1])
    assert cyclotomic_polynomial(6) == Poly([1, -1, 1])
    assert cyclotomic_polynomial(12) == Poly([1, 0, -1, 0, 1])
    # degree = Euler phi
    assert cyclotomic_polynomial(30).degree == 8
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_embed_root_reduction():
    r6 = CycloRing(6)
    assert embed_root(r6, 6) == r6.element([0, 1])
    # y^2 mod y^2 - y + 1 = y - 1
    assert embed_root(r6, 3) == r6.element([-1, 1])
    r12 = CycloRing(12)
    assert embed_root(r12, 4) == r12.element([0, 0, 0, 1])
    with pytest.raises(ValueError):
        embed_root(r6, 4)


def test_embed_root_orders():
    for n_ring, d in [(6, 1), (6, 2), (6, 3), (6, 6), (12, 4), (12, 12), (30, 5), (30, 15)]:
        ring = CycloRing(n_ring)
        root = embed_root(ring, d)
        assert root**d == 1 and all(root**k != 1 for k in range(1, d))


def test_elt_arithmetic():
    r6 = CycloRing(6)
    z = embed_root(r6, 6)
    assert z * z**5 == 1
    omega = embed_root(r6, 3)
    assert omega * omega + omega + 1 == 0
    rn = CycloRing(30)
    en = embed_root(rn, 5)
    x = 1 - en
    assert x.inverse() * x == 1
    with pytest.raises(ZeroDivisionError):
        rn.zero.inverse()


def test_sqrt_minus_three():
    for n_ring in (6, 12, 30, 66):
        s = sqrt_minus_three(CycloRing(n_ring))
        assert s * s == -3
    with pytest.raises(ValueError):
        sqrt_minus_three(CycloRing(4))


def test_companion_at_cube_root_convention():
    r6 = CycloRing(6)
    omega = embed_root(r6, 3)
    s = sqrt_minus_three(r6)
    assert companion_poly(1)(omega) == -((-s) ** 0)
    assert companion_poly(2)(omega) == -(2 * omega + 1)
    assert companion_poly(2)(omega) == -((-s) ** 1)
    # the 3^6-rescaled instance further out
    assert companion_poly(13)(omega) == -((-s) ** 12)


def test_companion_root_values():
    # degree 2: the companion is -2X - 1, so its root is -1/2
    a2 = companion_root(2)
    assert a2 == Fraction(-1, 2)
    for n in range(2, 13):
        assert companion_poly(n)(companion_root(n)) == 0
    with pytest.raises(ValueError):
        companion_root(1)


def test_eigenvalue_quotient_identity():
    for n in range(2, 13):
        ring = companion_ring(n)
        alpha = companion_root(n)
        e6 = embed_root(ring, 6)
        en = embed_root(ring, n)
        assert alpha + e6**5 == en * (alpha + e6)


def test_moebius_matrix_orders():
    for n in range(2, 19):
        assert moebius_matrix_order(companion_root(n), 2 * n) == n
    # alpha = 0 gives the classical degree-3 transformation
    r6 = CycloRing(6)
    assert moebius_matrix_order(r6.zero, 10) == 3
    # too-small bound reports None
    assert moebius_matrix_order(companion_root(7), 3) is None
    with pytest.raises(ValueError):
        moebius_matrix_order(companion_root(3), 0)


def _moebius_alphas():
    """alpha over conductors 6, 12, 30, 42 and 60: 0, 1, -1, -1/2 (trace 0),
    every other root of unity of the ring (omega has det 0) and 3 seeded
    random elements."""
    rng = random.Random(0)
    for conductor in (6, 12, 30, 42, 60):
        ring = CycloRing(conductor)
        yield from (ring.promote(c) for c in (0, 1, -1, Fraction(-1, 2)))
        yield from (embed_root(ring, d) for d in range(3, conductor + 1) if conductor % d == 0)
        for _ in range(3):
            yield ring.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ring.degree)])


def test_moebius_matrix_order_matches_matrix_powers():
    """The Cayley-Hamilton recurrence gives the order the matrix powers give,
    at max_k = 1, 3, 12 and 40 (the powers are formed once, to 40)."""
    for alpha in _moebius_alphas():
        order = matrix_power_moebius_order(alpha, 40)
        for max_k in (1, 3, 12, 40):
            want = order if order is not None and order <= max_k else None
            assert moebius_matrix_order(alpha, max_k) == want, (alpha, max_k)


def test_shift_identity():
    for n in range(2, 13):
        assert check_companion_shift_identity(n, companion_poly(n)) is None
