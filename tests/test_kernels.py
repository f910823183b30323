"""The integer kernels on randomized workloads: exact answers and the
documented errors."""

import random

import pytest

from simplestfields import _kernels


def _rand_poly(rng, lo, hi, bits=30):
    return [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(rng.randint(lo, hi))]


def _rand_lattice(rng, n):
    while True:
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
        h = _kernels.hnf_rows(rows, n)
        if len(h) == n:
            return rows, h


def _combination(coeffs, h):
    n = len(h)
    return [sum(coeffs[i] * h[i][j] for i in range(n)) for j in range(n)]


def test_pure_kernels_selfconsistent():
    rng = random.Random(1)
    for _ in range(200):
        a = _kernels.zx_trim(_rand_poly(rng, 0, 6))
        b = _kernels.zx_trim(_rand_poly(rng, 0, 6))
        ab = _kernels.zx_mul(a, b)
        ba = _kernels.zx_mul(b, a)
        assert ab == ba
        f = _rand_poly(rng, 2, 5) + [1]  # monic
        if a and b:
            assert _kernels.zx_mod(ab, f) == _kernels.zx_mulmod(a, b, f)
    with pytest.raises(ValueError, match="resultant of zero polynomial"):
        _kernels.zx_resultant([0], [1, 1])
    with pytest.raises(ValueError, match="resultant of zero polynomial"):
        _kernels.zx_resultant([1, 1], [])


def test_solve_lower_coords_recovers_coordinates():
    rng = random.Random(4)
    outside = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        _, h = _rand_lattice(rng, n)
        coeffs = [rng.randint(-6, 6) for _ in range(n)]
        w = _combination(coeffs, h)
        assert _kernels.solve_lower_coords(h, w) == coeffs
        # tuple rows, as an order's fingerprint holds them, give the same answer
        assert _kernels.solve_lower_coords(tuple(tuple(r) for r in h), w) == coeffs
        # a vector longer than the lattice lies in it only when zero past it
        assert _kernels.solve_lower_coords(h, w + [0]) == coeffs
        with pytest.raises(ValueError, match="vector not in lattice"):
            _kernels.solve_lower_coords(h, w + [1])
        # e_k is outside the lattice when the pivot in column k exceeds 1
        for k in range(n):
            if h[k][k] > 1:
                w_out = list(w)
                w_out[k] += 1
                with pytest.raises(ValueError):
                    _kernels.solve_lower_coords(h, w_out)
                outside += 1
                break
    assert outside > 50


def test_vec_reduce_mod_rows_keeps_the_class():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 6)
        _, h = _rand_lattice(rng, n)
        w = _combination([rng.randint(-60, 60) for _ in range(n)], h)
        scale = rng.choice([2, 3, 5])
        r = _kernels.vec_reduce_mod_rows(w, h, scale)
        assert r == _kernels.vec_reduce_mod_rows(w, tuple(tuple(row) for row in h), scale)
        # w - r lies in scale * lattice
        q = _kernels.solve_lower_coords(h, [a - b for a, b in zip(w, r)])
        assert all(x % scale == 0 for x in q)
        # and each reduced coordinate lies in [0, scale * pivot)
        assert all(0 <= r[k] < scale * h[k][k] for k in range(n))


def test_zx_divexact_exact_and_errors():
    assert _kernels.zx_divexact([4, -6, 0], 2) == [2, -3, 0]
    assert _kernels.zx_divexact([], 7) == []
    with pytest.raises(ValueError):
        _kernels.zx_divexact([3], 2)
    with pytest.raises(ValueError):
        _kernels.zx_divexact([4, -5], 2)
