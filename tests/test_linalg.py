import itertools
import random
from fractions import Fraction
from itertools import product

import pytest

from simplestfields._kernels import hnf_rows
from simplestfields.linalg import adjugate_column, bareiss_det, left_kernel_mod_p, rat_matrix_inverse
from simplestfields.numberfield import number_field
from simplestfields.orders import make_order

from oracles import adjugate, gauss_jordan_inverse, identity, mat_mul


def test_hnf_examples():
    assert hnf_rows(identity(3), 3) == identity(3)
    assert hnf_rows([[2, 0], [1, 1]], 2) == [[2, 0], [1, 1]]
    assert hnf_rows([[0, 3], [3, 0]], 2) == [[3, 0], [0, 3]]


def test_hnf_rejects_rank_deficient():
    assert len(hnf_rows([[1, 2], [2, 4]], 2)) == 1
    with pytest.raises(ValueError):
        make_order(number_field(2, 1), 1, [[1, 2], [2, 4]])


def _random_unimodular_mix(rng, m):
    w = [row[:] for row in m]
    n = len(w)
    for _ in range(10):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-3, 3)
            w[i] = [a + c * b for a, b in zip(w[i], w[j])]
        if rng.random() < 0.3:
            w[i] = [-a for a in w[i]]
    return w


def test_hnf_idempotent_and_basis_invariant():
    rng = random.Random(99)
    done = 0
    while done < 200:
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if bareiss_det(m) == 0:
            continue
        h = hnf_rows(m, n)
        assert hnf_rows(h, n) == h
        assert hnf_rows(_random_unimodular_mix(rng, m), n) == h
        # canonical shape: lower triangular, positive pivots, reduced below
        for i in range(n):
            assert h[i][i] > 0
            assert all(h[i][j] == 0 for j in range(i + 1, n))
            for k in range(i + 1, n):
                assert 0 <= h[k][i] < h[i][i]
        done += 1


def test_hnf_lattice_redundant_rows():
    rows = [[2, 0], [0, 2], [1, 1], [3, 3]]
    h = hnf_rows(rows, 2)
    assert h == [[2, 0], [1, 1]]


def _leibniz_det(m) -> int:
    """Determinant by expansion over all permutations (small n only)."""
    n = len(m)
    ref = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        ref += sign * prod
    return ref


def test_bareiss_det():
    assert bareiss_det([[2, 0], [0, 3]]) == 6
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == _leibniz_det(m)


def test_adjugate_examples():
    assert adjugate([]) == (1, [])
    assert adjugate([[5]]) == (5, [[1]])
    assert adjugate([[1, 2], [3, 4]]) == (-2, [[4, -2], [-3, 1]])
    # zero leading pivot: one row swap, and det keeps its true sign
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    for bad in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 2, 3]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            adjugate(bad)


def test_adjugate_column_matches_adjugate():
    """(det, column k of adj) for every k, on random matrices of sizes 1..8,
    a quarter with a zero leading pivot that forces a row swap; singular and
    non-square input raise ValueError."""
    assert adjugate_column([[0, 1], [1, 0]], 0) == (-1, [0, -1])
    rng = random.Random(29)
    done = swapped = 0
    while done < 160:
        n = 1 + done % 8
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if done % 4 == 1:
            m[0][0] = 0
        if bareiss_det(m) == 0:
            with pytest.raises(ValueError):
                adjugate_column(m, 0)
            continue
        det, adj = adjugate(m)
        for k in range(n):
            assert adjugate_column(m, k) == (det, [row[k] for row in adj])
        swapped += m[0][0] == 0
        done += 1
    assert swapped >= 40
    for bad in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 2, 3]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            adjugate_column(bad, 0)


def test_adjugate_matches_determinant_oracles():
    """adj @ m == det * I, with det equal to bareiss_det and to the
    permutation expansion; a third of the matrices start with a zero pivot
    so that rows must swap."""
    rng = random.Random(17)
    done = swapped = 0
    while done < 200:
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n > 1 and done % 3 == 0:
            m[0][0] = 0
            swapped += 1
        det = bareiss_det(m)
        if det == 0:
            with pytest.raises(ValueError):
                adjugate(m)
            continue
        d, adj = adjugate(m)
        assert d == det
        if n <= 5:
            assert d == _leibniz_det(m)
        assert mat_mul(adj, m) == [[d if i == j else 0 for j in range(n)] for i in range(n)]
        done += 1
    assert swapped > 50


def test_left_kernel_mod_p():
    m = [[1, 0], [2, 0], [0, 1]]
    for p in (2, 3, 5):
        basis = left_kernel_mod_p(m, p)
        for y in basis:
            prod = [sum(y[i] * m[i][j] for i in range(3)) % p for j in range(2)]
            assert prod == [0, 0]
        assert len(basis) == 1  # rank 2 over F_p for p > 2; over F_2 row 2 = 2*row1 = 0
        if p == 2:
            assert basis == [[0, 1, 0]]


def test_left_kernel_mod_p_is_rref_basis_of_the_kernel():
    """The basis spans exactly the kernel found by brute force and is in
    reduced row echelon form: increasing pivots equal to 1, zero above and
    below each pivot."""
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
        basis = left_kernel_mod_p(m, p)
        kernel = {
            y
            for y in product(range(p), repeat=rows)
            if all(sum(y[i] * m[i][j] for i in range(rows)) % p == 0 for j in range(cols))
        }
        span = {
            tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p for i in range(rows))
            for cs in product(range(p), repeat=len(basis))
        }
        assert span == kernel and len(kernel) == p ** len(basis)
        assert all(0 <= x < p for b in basis for x in b)
        pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
        assert pivots == sorted(set(pivots))
        for k, q in enumerate(pivots):
            assert [b[q] for b in basis] == [1 if i == k else 0 for i in range(len(basis))]


def test_rat_matrix_inverse_examples():
    assert rat_matrix_inverse([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == [
        [1, 0],
        [0, 1],
    ]
    inv = rat_matrix_inverse([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    with pytest.raises(ValueError):
        rat_matrix_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_rat_matrix_inverse_matches_gauss_jordan():
    rng = random.Random(31)
    done = 0
    while done < 120:
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        try:
            inv = rat_matrix_inverse(m)
        except ValueError:
            continue
        assert inv == gauss_jordan_inverse(m)
        prod = mat_mul(m, inv)
        assert prod == [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        done += 1
