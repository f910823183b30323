"""Exact integer and rational matrix utilities.

Matrices are plain lists of row lists.  The Hermite normal form used
throughout (_kernels.hnf_rows) is row-style and lower-triangular: output
row i has its pivot (positive) at column i for full-rank square lattices,
entries below a pivot are reduced into [0, pivot).  With this normalization the first row of an
order lattice is always den * (1, 0, ..., 0), and row i corresponds to a
basis polynomial of degree exactly i.
"""

from fractions import Fraction
from math import lcm


def mat_shape(m) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")
    return rows, cols


def bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free elimination.
    No library caller: kept for perfbench/tracer.py, which wraps it by name."""
    n, cols = mat_shape(m)
    if n != cols:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _row_reduce_mod_p(a: list[list[int]], cols: int, p: int) -> int:
    """Bring the rows of a, in place, to reduced row echelon form mod p over
    their first cols columns (later columns follow the row operations);
    returns the rank found there."""
    rows = len(a)
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def left_kernel_mod_p(m: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {y : y @ m == 0 (mod p)} for prime p in reduced row echelon
    form, vectors with entries in [0, p)."""
    rows, cols = mat_shape(m)
    # augment with the identity to track row operations
    a = [[x % p for x in m[i]] + [1 if j == i else 0 for j in range(rows)] for i in range(rows)]
    r = _row_reduce_mod_p(a, cols, p)
    kernel = [row[cols:] for row in a[r:]]
    _row_reduce_mod_p(kernel, rows, p)
    return kernel


def adjugate_column(m: list[list[int]], k: int) -> tuple[int, list[int]]:
    """(det, column k of adj(m)) of a nonsingular square integer matrix.

    Fraction-free Bareiss elimination of [m | e_k] to upper-triangular
    [U | b] (row swaps allowed), then back substitution for x = det * m^-1 e_k:
    x_i = (det * b_i - sum_{j>i} U_ij x_j) / U_ii, every division checked
    exact.  Raises ValueError on singular or non-square input.
    """
    n, cols = mat_shape(m)
    if n != cols:
        raise ValueError("adjugate of non-square matrix")
    aug = [list(row) + [int(i == k)] for i, row in enumerate(m)]
    sign = prev = 1
    for c in range(n):
        if aug[c][c] == 0:
            i = next((i for i in range(c + 1, n) if aug[i][c]), None)
            if i is None:
                raise ValueError("singular matrix")
            aug[c], aug[i] = aug[i], aug[c]
            sign = -sign
        pivot_row, piv = aug[c], aug[c][c]
        for i in range(c + 1, n):
            f = aug[i][c]
            aug[i] = [0] * (c + 1) + [(x * piv - f * y) // prev for x, y in zip(aug[i][c + 1 :], pivot_row[c + 1 :])]
        prev = piv
    det = sign * prev
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        q, r = divmod(det * row[n] - sum(row[j] * x[j] for j in range(i + 1, n)), row[i])
        if r:
            raise AssertionError("non-exact back substitution")
        x[i] = q
    return det, x


def rat_matrix_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular rational matrix, from the adjugate
    columns of its rows scaled to integers.  Raises ValueError on singular input."""
    scale = [lcm(*(Fraction(x).denominator for x in row)) for row in m]
    scaled = [[int(Fraction(x) * s) for x in row] for row, s in zip(m, scale)]
    cols = [adjugate_column(scaled, k) for k in range(len(scaled))]
    # m = diag(1/scale) @ scaled, so inverse = adj(scaled) @ diag(scale) / det
    return [[Fraction(col[i] * s, det) for (det, col), s in zip(cols, scale)] for i in range(len(scaled))]
