"""Independent oracles used by the test suite.

These deliberately avoid the package's own computation paths: the resultant
oracle is a Sylvester determinant, the squarefree oracle is naive trial
division, traces come from companion-matrix powers, the rational inverse is
plain Gauss-Jordan over Fractions, the integer adjugate is one
Bareiss-Jordan elimination of [m | I] instead of a column at a time, the degree-2 maximal order comes from
the classical quadratic-field classification, the radical round works on
polynomial products over the power basis instead of the order's
multiplication table, the multiplier-ring step on a table key computes its
Frobenius matrix and p-radical from the table mod p^2 in one unmemoized
stage instead of recalling them from a memo on the table mod p, the shifted minimal polynomial is a Taylor shift by
the rational parameter, the parameter gate factorizes once per test,
factorization trial-divides by every prime up to the fixed bound whatever
the input, the family dual denominator peels the parameter quadratic
off a determinant and every adjugate entry, each adjugate a full
Bareiss-Jordan elimination and each entry interpolated over Fractions
from the Lagrange basis, the family polynomial and its companion come
from the table of polynomials in m instead of the integer pencil, the minimality witness compares each parameter with every
earlier member of its class, the class certificate interpolates every table
cell to its full degree n - 1 in the class step from n + 1 sample tables,
the field discriminant is a resultant per field instead of the closed
form proved once per degree, and the parameter quadratic, the
specialization, the specialized discriminant, the integer shift and the
denominator bound each branch on 3 | n themselves instead of reading the
scale s of m = t/s, the radical of a polynomial over F_p is the product
of the monic irreducibles that divide it, found by trial division, the
CLI document text is the json module's json.dumps(indent=2) of a copy of
the payload in JSON types, computed again from the parsed command line, the
Moebius matrix order multiplies out the powers of the 2x2 matrix instead of
reading the Cayley-Hamilton recurrence, the shifted companion sums its n
products of powers instead of telescoping, and p-maximal saturation runs
each round loop to a round that finds nothing instead of stopping where the
discriminant of the lattice shows it p-maximal.
"""

import json
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm

import pytest

from simplestfields import orders as orders_module
from simplestfields._kernels import hnf_rows, solve_lower_coords, vec_reduce_mod_rows, zx_divexact, zx_mulmod
from simplestfields.family import SpecializedPoly, _pencil, disc_quadratic, specialize
from simplestfields.linalg import left_kernel_mod_p, mat_shape
from simplestfields.cli import SCHEMA, _Shared, build_parser
from simplestfields.cyclo import companion_ring, sqrt_minus_three
from simplestfields.numberfield import (
    ParameterNotCoveredError,
    field_elt,
    field_trace_powers,
    is_algebraic_integer,
    number_field,
)
from simplestfields.numutil import (
    TRIAL_DIVISION_BOUND,
    _brent_rho,
    _sieve,
    factorize,
    is_prime,
    largest_square_root_divisor,
    p_adic_valuation,
    three_free_part,
)
from simplestfields.orders import (
    _combine,
    _contains_power_basis,
    _dedekind_order,
    _dedekind_test,
    _enumerate_round,
    _key_code,
    _mult_table,
    _polygon_start,
    _radical_kernel,
    _radical_round,
    _start_order,
    _table_key,
    make_order,
    p_maximal_order,
    power_order,
)
from simplestfields.periodicity import _trace_matrix
from simplestfields.poly import Poly, discriminant


def sylvester_resultant(a: list[int], b: list[int]) -> int:
    """Determinant of the Sylvester matrix (cofactor-free Bareiss elimination
    over Fractions kept exact)."""
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        return 1
    n = da + db
    rows = []
    for i in range(db):
        rows.append([0] * i + list(reversed(a)) + [0] * (db - 1 - i))
    for i in range(da):
        rows.append([0] * i + list(reversed(b)) + [0] * (da - 1 - i))
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c]
                m[r] = [m[r][j] - f * m[c][j] for j in range(n)]
    assert det.denominator == 1
    return det.numerator


def naive_squarefree(n: int) -> bool:
    n = abs(n)
    assert n != 0
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        else:
            d += 1
    return True


def full_sieve_factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division over the whole sieve up to
    TRIAL_DIVISION_BOUND, then the is_prime / Brent-rho tail on what is left."""
    n = abs(n)
    out: dict[int, int] = {}
    for p in _sieve(TRIAL_DIVISION_BOUND):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def companion_matrix(f: list[int]) -> list[list[Fraction]]:
    """Companion matrix of a monic integer polynomial (coefficient list, ascending)."""
    n = len(f) - 1
    assert f[-1] == 1
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = Fraction(1)
    for i in range(n):
        m[i][n - 1] = Fraction(-f[i])
    return m


def matrix_trace_powers(f: list[int], k_max: int) -> list[int]:
    """Tr(beta^k) through companion-matrix powers (independent of Newton's identities)."""
    n = len(f) - 1
    comp = companion_matrix(f)
    acc = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    out = []
    for _ in range(k_max + 1):
        out.append(int(sum(acc[i][i] for i in range(n))))
        acc = [[sum(acc[i][k] * comp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return out


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Plain triple-loop matrix product."""
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def gauss_jordan_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in m[i]] + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [aug[r][j] - f * aug[c][j] for j in range(2 * n)]
    return [row[n:] for row in aug]


def adjugate(m: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det, adj) of a nonsingular square integer matrix: adj @ m == det * I.

    One fraction-free Bareiss-Jordan (Montante) elimination of [m | I]
    (Bareiss, Math. Comp. 22, 1968), every division exact.  It leaves
    s * det * I on the left and s * adj on the right, s the sign of the row
    swaps.  Raises ValueError on singular or non-square input.
    """
    n, cols = mat_shape(m)
    if n != cols:
        raise ValueError("adjugate of non-square matrix")
    aug = [list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(m)]
    sign = prev = 1
    for k in range(n):
        if aug[k][k] == 0:
            i = next((i for i in range(k + 1, n) if aug[i][k]), None)
            if i is None:
                raise ValueError("singular matrix")
            aug[k], aug[i] = aug[i], aug[k]
            sign = -sign
        pivot_row, piv = aug[k], aug[k][k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(x * piv - f * y) // prev for x, y in zip(aug[i], pivot_row)]
        prev = piv
    return sign * prev, [[sign * x for x in row[n:]] for row in aug]




def quadratic_maximal_fingerprint(t: int):
    """Canonical (den, HNF) fingerprint of the maximal order for degree 2.

    The field is Q(sqrt(N)) with N = t^2 + t + 1 (assumed squarefree) and
    beta = t + sqrt(N): for N = 1 mod 4 the maximal order is generated by
    (1 + sqrt(N))/2 = (1 - t + beta)/2, otherwise it is Z[beta].
    """
    n_val = t * t + t + 1
    assert naive_squarefree(n_val)
    if n_val % 4 == 1:
        # lattice over den 2: rows 2*1 and (1 - t, 1)
        rows = [[2, 0], [(1 - t) % 2, 1]]
        # canonical lower-triangular reduced form
        return (2, ((2, 0), (rows[1][0], 1)))
    return (1, ((1, 0), (0, 1)))


def brute_force_trace_candidates(order, p: int, traces):
    """Numerators w = v . basis over every projective v in F_p^n (first nonzero
    coordinate 1, in lexicographic order per leading position) that pass the
    trace filter: Tr(w * beta^j) divisible by p * den for every j; generated
    lazily."""
    n = len(order.basis)
    basis = order.basis
    pd = p * order.den
    for lead in range(n):
        for tail in product(range(p), repeat=n - 1 - lead):
            v = (0,) * lead + (1,) + tail
            w = [sum(v[i] * basis[i][j] for i in range(n)) for j in range(n)]
            if all(sum(w[k] * traces[k + j] for k in range(n)) % pd == 0 for j in range(n)):
                yield w


def resultant_char_poly(f: list[int], num: list[int], den: int) -> list[Fraction]:
    """Coefficients, lowest degree first, of the characteristic polynomial of
    (num[0] + num[1]*beta + ...) / den, beta a root of the monic integer
    polynomial f: Res_X(f(X), den*Y - A(X)) / den^n from Sylvester
    determinants at Y = 0..n and Lagrange interpolation over Fractions."""
    n = len(f) - 1
    ys = list(range(n + 1))
    values = []
    for y in ys:
        b = [-c for c in num]
        b[0] += den * y
        while len(b) > 1 and b[-1] == 0:
            b.pop()
        values.append(Fraction(sylvester_resultant(f, b), den**n))
    coeffs = [Fraction(0)] * (n + 1)
    for i, yi in enumerate(ys):
        lagrange = [Fraction(1)]  # prod over j != i of (Y - y_j), lowest degree first
        scale = 1
        for j, yj in enumerate(ys):
            if j != i:
                lagrange = [Fraction(0)] + lagrange
                for k in range(len(lagrange) - 1):
                    lagrange[k] -= yj * lagrange[k + 1]
                scale *= yi - yj
        for k, c in enumerate(lagrange):
            coeffs[k] += values[i] * c / scale
    return coeffs


def _order_mul(u, v, f, den):
    return zx_divexact(zx_mulmod(u, v, f), den)


def _order_pow(w, e: int, f, den, basis, p: int):
    """w^e as an order element numerator, reduced mod p * lattice after each step."""
    result = None
    base = list(w)
    k = e
    while k:
        if k & 1:
            result = base if result is None else _order_mul(result, base, f, den)
            result = vec_reduce_mod_rows(result, basis, p)
        k >>= 1
        if k:
            base = _order_mul(base, base, f, den)
            base = vec_reduce_mod_rows(base, basis, p)
    return result


def _radical_basis(field, order, p: int):
    """HNF basis of den * rad(p * order) over the power basis, or None when
    the radical is p * order."""
    n = field.n
    f = list(field.poly.coeffs)
    den, basis = order.den, [list(r) for r in order.basis]
    q = p
    while q < n:
        q *= p
    frob = []
    for i in range(n):
        w = _order_pow(basis[i], q, f, den, basis, p)
        coords = solve_lower_coords(basis, w)
        frob.append([c % p for c in coords])
    kernel = left_kernel_mod_p(frob, p)
    if not kernel:
        return None
    rows = [[sum(y[i] * basis[i][j] for i in range(n)) for j in range(n)] for y in kernel]
    rows += [[p * x for x in row] for row in basis]
    return hnf_rows(rows, n)


def single_stage_radical_kernel(p: int, n: int, key: bytes) -> tuple[tuple[int, ...], ...]:
    """orders._radical_kernel in one stage, with no memo: the Frobenius
    matrix, its power's kernel (the p-radical) and the multiplier conditions
    all read from the table mod p^2 that key packs."""
    pp = p * p
    values = array(_key_code(p), key)
    cells = [values[k : k + n] for k in range(0, len(values), n)]
    diag = [i * n - i * (i - 1) // 2 for i in range(n)]  # cells[diag[i] + j - i] is T[i][j], i <= j
    tab = [[cells[diag[min(a, b)] + abs(b - a)] for b in range(n)] for a in range(n)]  # T[a][b] = T[b][a]
    frob = []
    for i in range(n):
        v = [x % p for x in tab[i][i]]
        for _ in range(p - 2):
            v = _combine(v, tab[i], p)  # v * basis_i, since T is symmetric
        frob.append(v)
    power = frob
    q = p
    while q < n:
        power = [_combine(row, frob, p) for row in power]
        q *= p
    rad = left_kernel_mod_p(power, p)
    if not rad:
        return ()
    r = len(rad)
    pivots = [row.index(1) for row in rad]
    free = [l for l in range(n) if l not in pivots]
    conditions = [[] for _ in range(r)]
    flat = [[x for c in row for x in c] for row in tab]  # row a: basis_a * basis_b for every b
    for j in range(r):
        s = _combine(rad[j], flat, pp)
        times = [s[b * n : (b + 1) * n] for b in range(n)]  # rad_j * basis_b
        for k in range(j, r):
            w = _combine(rad[k], times, pp)
            a = [w[c] for c in pivots]
            coords = [x % p for x in a]
            for l in free:
                d, e = divmod((w[l] - sum(x * row[l] for x, row in zip(a, rad))) % pp, p)
                if e:
                    raise AssertionError("product of radical elements is not in the radical")
                coords.append(d)
            conditions[j] += coords
            if k != j:
                conditions[k] += coords
    return tuple(tuple(_combine(c, rad, p)) for c in left_kernel_mod_p(conditions, p))


def power_basis_radical_round(field, order, p: int):
    """One multiplier-ring step from polynomial products mod f: the Frobenius
    q-power of every basis row, the radical in HNF over the power basis, and
    the kernel over all of O/pO of y -> (y * rad_j mod p * radical); None
    when the order is already p-maximal."""
    n = field.n
    f = list(field.poly.coeffs)
    den, basis = order.den, [list(r) for r in order.basis]
    rad = _radical_basis(field, order, p)
    if rad is None:
        return None
    t_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            w = _order_mul(basis[i], rad[j], f, den)
            coords = solve_lower_coords(rad, w)
            row.extend(c % p for c in coords)
        t_rows.append(row)
    kernel = left_kernel_mod_p(t_rows, p)
    if not kernel:
        return None
    rows = [[sum(y[i] * basis[i][j] for i in range(n)) for j in range(n)] for y in kernel]
    rows += [[p * x for x in row] for row in basis]
    enlarged = make_order(field, p * den, rows)
    if enlarged.fingerprint == order.fingerprint:
        return None
    return enlarged


def fraction_shifted_min_poly(n: int, t: int) -> Poly:
    """Minimal polynomial of beta - t, or of 3*beta - t when 3 divides n, by
    the Taylor shift of the family member by the parameter m = t or t/3
    over Fractions, scaled by 3^(n-i) in the second case."""
    m = Fraction(t, 3) if n % 3 == 0 else Fraction(t)
    shifted = specialize(n, t).poly.shift(m)
    scale = 3 if n % 3 == 0 else 1
    out = []
    for i, c in enumerate(shifted.coeffs):
        v = c * scale ** (n - i)
        assert v.denominator == 1
        out.append(v.numerator)
    return Poly(out)


def two_factorization_parameter_gate(n: int, t: int, gate: str = "strict") -> tuple[bool, str]:
    """The parameter gate with a squarefree test on the tested number (the
    quadratic, or its 3-free part under the relaxed gate) and a separate
    factorization of the quadratic for the witness prime."""
    q = disc_quadratic(n, t)
    tested = q if gate == "strict" else three_free_part(q)
    if abs(tested) > 1 and not naive_squarefree(tested):
        p = next(p for p, e in factorize(tested).items() if e > 1)
        return False, f"not squarefree: {p}^2 divides {tested}"
    if not any(p != 3 and e == 1 for p, e in factorize(q).items()):
        return False, f"no Eisenstein witness prime: {q} has no simple prime factor other than 3"
    return True, "ok"


@lru_cache(maxsize=None)
def _lagrange_basis(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficients, lowest degree first, of the Lagrange basis polynomials
    prod_{m != i} (t - m) / (i - m) at the points 0..k-1, over Fractions."""
    out = []
    for i in range(k):
        basis = [Fraction(1)]
        for m in range(k):
            if m != i:
                basis = [(a - m * b) / (i - m) for a, b in zip([0, *basis], [*basis, 0])]
        out.append(tuple(basis))
    return tuple(out)


def lagrange_interpolate(ys: list[int]) -> Poly:
    """The integer polynomial of degree below len(ys) taking the value ys[i]
    at i = 0, 1, ..., summed over Fractions from the Lagrange basis (its
    coefficients are asserted integral)."""
    coeffs = [sum(y * basis[j] for y, basis in zip(ys, _lagrange_basis(len(ys)))) for j in range(len(ys))]
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("non-integral interpolation result")
    return Poly([int(c) for c in coeffs])


def peeled_dual_denominator(n: int) -> tuple[int, int]:
    """symbolic_dual_denominator by interpolating the determinant as well and
    peeling the parameter quadratic off it and off every adjugate entry by
    repeated polynomial division.

    The entries of the dual matrix are rational functions of the parameter;
    written with integer-polynomial numerators their least common denominator
    has the shape (integer front) * Q(t)^power.  Returns (front, power); the
    table law asserts front = 3^e * n and power = 1.  Computed exactly by
    interpolating the signed determinant and the adjugate of the integer
    trace matrix at t = 0, ..., 2n-2; they have degree at most 2n-2, which
    three extra verification points confirm.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    deg_bound = 2 * n - 2
    points = [adjugate(_trace_matrix(number_field(n, t0))) for t0 in range(deg_bound + 4)]
    fit = points[: deg_bound + 1]
    det_poly = lagrange_interpolate([det0 for det0, _ in fit])
    entry_polys = [[lagrange_interpolate([adj0[i][j] for _, adj0 in fit]) for j in range(n)] for i in range(n)]
    for extra in range(deg_bound + 1, deg_bound + 4):
        det0, adj0 = points[extra]
        if det_poly(extra) != det0:
            raise AssertionError("determinant degree bound violated")
        for i in range(n):
            for j in range(n):
                if entry_polys[i][j](extra) != adj0[i][j]:
                    raise AssertionError("adjugate degree bound violated")
    q_poly = Poly([9, 3, 1]) if n % 3 == 0 else Poly([1, 1, 1])
    # det = front * Q^(n-1): peel the quadratic off to expose the integer front
    front_poly = det_poly
    for _ in range(n - 1):
        quo, rem = divmod(front_poly, q_poly)
        if not rem.is_zero:
            raise AssertionError("the parameter quadratic does not divide the determinant n-1 times")
        front_poly = quo
    if front_poly.degree != 0:
        raise AssertionError("the determinant is not a constant times a power of the parameter quadratic")
    front = int(front_poly.lc)
    d_int = 1
    d_qpow = 0
    for i in range(n):
        for j in range(n):
            entry = entry_polys[i][j]
            if entry.is_zero:
                continue
            k = 0
            while k < n - 1:
                quo, rem = divmod(entry, q_poly)
                if not rem.is_zero:
                    break
                entry = quo
                k += 1
            content = 0
            for c in entry.coeffs:
                content = gcd(content, int(c))
            d_int = lcm(d_int, front // gcd(content, front))
            d_qpow = max(d_qpow, n - 1 - k)
    return d_int, d_qpow


# The family coefficient table with entries polynomials in m: 1, -m, -m-1, -1, m, m+1.
FAMILY_TABLE = (Poly([1]), Poly([0, -1]), Poly([-1, -1]), Poly([-1]), Poly([0, 1]), Poly([1, 1]))


def family_coeff(i: int) -> Poly:
    """Entry i of the 6-periodic family coefficient table, a polynomial in m:
    the coefficient of X^(n-i) in the family polynomial over C(n, i)."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return FAMILY_TABLE[i % 6]


def companion_coeff(i: int) -> int:
    """Entry i of the companion coefficient table: the coefficient of m in
    family_coeff(i)."""
    return family_coeff(i)[1]


def table_family_poly(n: int) -> Poly:
    """Degree-n family polynomial as a binomial-weighted sum over the table of
    polynomials in m."""
    return Poly([comb(n, i) * FAMILY_TABLE[(n - i) % 6] for i in range(n + 1)])


def table_family_poly_at(n: int, m) -> Poly:
    """table_family_poly with every coefficient evaluated at the rational m."""
    mval = Fraction(m)
    return Poly([c(mval) for c in table_family_poly(n).coeffs])


def table_specialize(n: int, t: int) -> Poly:
    """Integer member at parameter t: m = t, or t/3 when 3 | n, put into each
    symbolic coefficient c_0 + c_1 * m with its own integrality check."""
    s = 3 if n % 3 == 0 else 1
    coeffs = []
    for c in table_family_poly(n).coeffs:
        q, r = divmod(c[0] * s + c[1] * t, s)
        assert r == 0, (n, t)
        coeffs.append(q)
    return Poly(coeffs)


def nested_minimality_witness(n0: int, scan) -> dict:
    """minimality_witness by comparing each parameter, in ascending order,
    with every earlier member of its class modulo n0/p."""
    if n0 <= 1:
        return {}
    data = sorted((t, fp) for members in scan.classes.values() for t, fp in members)
    out = {}
    for p in factorize(n0):
        sub = n0 // p
        groups: dict[int, list] = {}
        witness = None
        for t, fp in data:
            bucket = groups.setdefault(t % sub, [])
            for t0, fp0 in bucket:
                if fp0 != fp:
                    witness = (t0, t)
                    break
            if witness:
                break
            bucket.append((t, fp))
        out[p] = witness
    return out


def _forward_differences(level: list[list[int]]) -> list[list[int]]:
    """The forward differences D^0, D^1, ... at the first sample of the
    cell vectors level, one per sample."""
    diffs = []
    while level:
        diffs.append(level[0])
        level = [[y - x for x, y in zip(u, w)] for u, w in zip(level, level[1:])]
    return diffs


def full_degree_class_certificate(order, p: int, part: int) -> tuple[bool, str]:
    """orders.class_certificate under the strict gate, from n + 1 sample
    tables: every table cell is a polynomial of degree <= n - 1 in s along
    t = t0 + part * s, t0 = order.field.t, so the tables at s = 0..n give its
    forward differences D^0..D^(n-1) exactly and D^n = 0 checks the degree.
    The tables mod p^2 over one period of s then decide p-maximality."""
    n, t0, den = order.n, order.field.t, order.den
    assert den == p ** p_adic_valuation(den, p)
    if not _contains_power_basis(den, order.basis):
        return False, "the lattice does not contain Z[beta]"
    level = []
    for s in range(n + 1):
        try:
            level.append(_mult_table(order, specialize(n, t0 + part * s).poly.coeffs))
        except ValueError:
            return False, f"the lattice is not closed under products at t={t0 + part * s}"
    diffs = _forward_differences(level)
    assert not any(diffs[n])
    pp = p * p
    diffs = [[x % pp for x in c] for c in diffs[:n]]
    top = max((k for k in range(1, n) if any(diffs[k])), default=1)
    period = pp
    while period * p <= pp * top:
        period *= p
    for s in range(period):
        t = t0 + part * s
        if disc_quadratic(n, t) % pp == 0:
            continue
        cells = [sum(comb(s, k) * c[i] for k, c in enumerate(diffs[: top + 1])) for i in range(len(diffs[0]))]
        if _radical_kernel(p, n, _table_key(p, cells)):
            return False, f"the lattice is not {p}-maximal at t={t}"
    return True, "ok"


def full_degree_differences(order, part: int) -> list[list[int]]:
    """The exact forward differences D^0..D^n at s = 0 of the table of the
    order's lattice along t = t0 + part * s, t0 = order.field.t, from the
    tables at s = 0..n (ValueError when one is not integral)."""
    n, t0 = order.n, order.field.t
    return _forward_differences([_mult_table(order, specialize(n, t0 + part * s).poly.coeffs) for s in range(n + 1)])


def resultant_field_discriminant(n: int, t: int) -> int:
    """The discriminant of the family member at t, by one subresultant-PRS
    resultant for this one field."""
    return discriminant(specialize(n, t).poly)


def two_branch_disc_quadratic(n: int, t: int) -> int:
    """The parameter quadratic: t^2+t+1, or t^2+3t+9 when 3 | n."""
    return t * t + 3 * t + 9 if n % 3 == 0 else t * t + t + 1


def two_branch_specialize(n: int, t: int) -> SpecializedPoly:
    """G_n + t * R_n, or G_n + t * (R_n / 3) when 3 | n (m = t/3)."""
    pencil = _pencil(n)
    if n % 3:
        return SpecializedPoly(n, t, Poly([g + t * r for g, r in pencil]), "t")
    assert not any(r % 3 for _, r in pencil), n
    return SpecializedPoly(n, t, Poly([g + t * (r // 3) for g, r in pencil]), "t/3")


def two_branch_discriminant_formula_t(n: int, t: int) -> int:
    """The specialized discriminant closed form with its own 3-exponent per
    branch; (n-1)(n-6)/2 is negative for n = 3 and cancels into n^n."""
    if n % 3 == 0:
        e = (n - 1) * (n - 6) // 2
        q, r = divmod(3 ** max(e, 0) * n**n * (t * t + 3 * t + 9) ** (n - 1), 3 ** max(-e, 0))
        assert r == 0, (n, t)
        return q
    return 3 ** ((n - 1) * (n - 2) // 2) * n**n * (t * t + t + 1) ** (n - 1)


def two_branch_shifted(n: int, t: int, f: Poly) -> Poly:
    """f(X + t), or 3^n * f(X/3) shifted by t when 3 divides n."""
    if n % 3 == 0:
        f = Poly([c * 3 ** (n - i) for i, c in enumerate(f.coeffs)])
    return f.shift(t)


def two_branch_denominator_bound(n: int) -> int:
    """The greatest C with C^2 dividing 3^e * n^n, e by branch on 3 | n."""
    e = (n * n - 7 * n + 12) // 2 if n % 3 == 0 else (n * n - 3 * n + 4) // 2
    return largest_square_root_divisor(3**e * n**n)


def brute_force_form_candidates(order, p: int, traces) -> list[list[int]]:
    """Numerators w = v . basis over every projective v in F_p^n, in the order
    of brute_force_trace_candidates, for which x = w / (p * den) has
    Tr(x * basis_k / den) integral for every k and e_2(x) =
    (Tr(x)^2 - Tr(x^2)) / 2 integral, each trace summed from the traces of
    beta^i."""
    n = len(order.basis)
    basis = order.basis
    den = order.den
    pd = p * den

    def tr(a, b):  # Tr(a * b) for numerators a, b over the power basis
        return sum(x * y * traces[i + j] for i, x in enumerate(a) for j, y in enumerate(b))

    out = []
    for lead in range(n):
        for tail in product(range(p), repeat=n - 1 - lead):
            v = (0,) * lead + (1,) + tail
            w = [sum(v[i] * basis[i][j] for i in range(n)) for j in range(n)]
            if any(tr(w, b) % (pd * den) for b in basis):
                continue
            if (tr(w, [1]) ** 2 - tr(w, w)) % (2 * pd * pd):
                continue
            out.append(w)
    return out


def trace_filter_enumerate_chain(field, p: int) -> list:
    """The fingerprints of the lattices of enumerate saturation at p, from
    Z[beta], where each round takes the first candidate of
    brute_force_trace_candidates (the filter on Tr(x * beta^j) alone) that
    is an algebraic integer."""
    traces = field_trace_powers(field)
    order = power_order(field)
    chain = [order.fingerprint]
    while True:
        pd = p * order.den
        candidates = brute_force_trace_candidates(order, p, traces)
        w = next((w for w in candidates if is_algebraic_integer(field_elt(field, w, pd))), None)
        if w is None:
            return chain
        order = make_order(field, pd, [w] + [[p * x for x in row] for row in order.basis])
        chain.append(order.fingerprint)


def _fp_divides(a: list[int], b: list[int], p: int) -> bool:
    """Whether the monic a divides b over F_p, by long division."""
    r = [x % p for x in b]
    da = len(a) - 1
    for i in range(len(r) - 1, da - 1, -1):
        c = r[i]
        if c:
            for j in range(da + 1):
                r[i - da + j] = (r[i - da + j] - c * a[j]) % p
    return not any(r)


@lru_cache(maxsize=None)
def fp_irreducibles(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Every monic irreducible of degree d over F_p: the monic polynomials of
    degree d that no monic irreducible of degree 1..d/2 divides."""
    smaller = [phi for k in range(1, d // 2 + 1) for phi in fp_irreducibles(p, k)]
    monic = (list(tail) + [1] for tail in product(range(p), repeat=d))
    return tuple(tuple(a) for a in monic if not any(_fp_divides(list(phi), a, p) for phi in smaller))


def brute_force_fp_radical(a: list[int], p: int) -> list[int]:
    """The product over F_p of the distinct monic irreducibles that divide
    the monic a, each found by trial division of what is left of a by every
    monic irreducible of degree up to its degree, lowest degree first."""
    rest = [x % p for x in a]
    rad = [1]
    d = 1
    while d < len(rest):
        for phi in map(list, fp_irreducibles(p, d)):
            if _fp_divides(phi, rest, p):
                rad = [x % p for x in (Poly(rad) * Poly(phi)).coeffs]
                while _fp_divides(phi, rest, p):
                    rest = [x % p for x in divmod(Poly(rest), Poly(phi))[0].coeffs]
        d += 1
    return rad


def jsonable(x):
    """x in the JSON types: ints (not bools) as decimal strings, a Fraction
    as a decimal string or {"num", "den"}, dict keys as str(key), tuples as
    lists, and a shared node as its value, copied wherever it occurs."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, _Shared):
        return jsonable(x.value)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x)!r}")


def json_document(argv: list[str], timing_ms: float) -> str:
    """The CLI's stdout for argv, without --out, by the json module: the
    command's outcome is computed again, every value goes through jsonable,
    and json.dumps(indent=2) writes the document, with the given timing_ms."""
    args = build_parser().parse_args(argv)
    try:
        status, result = args.func(args)
        fields = {"result": result}
    except ParameterNotCoveredError as exc:
        status, fields = "not-covered", {"error": str(exc)}
    except ValueError as exc:
        status, fields = "usage-error", {"error": str(exc)}
    doc = {
        "schema": SCHEMA,
        "command": jsonable({k: v for k, v in vars(args).items() if k not in ("func", "out")}),
        "status": status,
        **{k: jsonable(v) for k, v in fields.items()},
        "timing_ms": timing_ms,
    }
    return json.dumps(doc, indent=2) + "\n"


def matrix_power_moebius_order(alpha, max_k: int) -> int | None:
    """moebius_matrix_order by the powers of M = [[alpha, -1], [1, alpha+1]]:
    the smallest k <= max_k with M^k a nonzero scalar matrix, else None."""
    one = alpha.ring.one
    m = (alpha, -one, one, alpha + 1)
    a, b, c, d = m
    for k in range(1, max_k + 1):
        if b.is_zero and c.is_zero and a == d and not a.is_zero:
            return k
        a, b, c, d = a * m[0] + b * m[2], a * m[1] + b * m[3], c * m[0] + d * m[2], c * m[1] + d * m[3]
    return None


def summed_shifted_companion_poly(n: int) -> Poly:
    """shifted_companion_poly as the sum of (X - s)^(n-1-i) * X^i over
    i = 0..n-1, each product formed on its own."""
    ring = companion_ring(n)
    s = sqrt_minus_three(ring)
    x = Poly([ring.zero, ring.one])
    x_minus_s = Poly([-s, ring.one])
    total = Poly()
    for i in range(n):
        total = total + x_minus_s ** (n - 1 - i) * x**i
    return total


def stopping_round_saturation(field, p: int, strategy: str):
    """orders.p_maximal_order with no discriminant stop in its round loops:
    Z[beta] where v_p(disc f) < 2 or, under enumerate, where Dedekind's test
    finds it p-maximal; otherwise the same start as _saturate (Dedekind's
    order, or the accepted polygon start, else Z[beta]) and rounds until one
    finds nothing.  Returns (order, rounds), that last round counted."""
    if p_adic_valuation(field.disc, p) < 2:
        return power_order(field), 0
    if strategy == "enumerate":
        m, u = _dedekind_test(field, p)
        if not m:
            return power_order(field), 0
        order, step = _dedekind_order(field, p, u), _enumerate_round
    else:
        polygon = _polygon_start(field, p)
        order = (None if polygon is None else _start_order(polygon)) or power_order(field)
        step = _radical_round
    rounds = 1
    while (enlarged := step(order, p)) is not None:
        order, rounds = enlarged, rounds + 1
    return order, rounds


def check_discriminant_stops(cases, strategy: str) -> tuple[int, int, int]:
    """Check p_maximal_order(field, p, strategy) against
    stopping_round_saturation for every (field, p) in cases, and check that
    the round skipped wherever the discriminant stop ended a round loop (at
    a lattice with den > 1) finds nothing.

    Saturation and the oracle read one memo of rounds, keyed on the field,
    the lattice and p, so the oracle runs only the rounds that saturation
    skipped: the rounds have oracles of their own, and what is compared
    here is where each loop stops.  Returns (stops, rounds, oracle_rounds),
    summed over the cases: the loops the discriminant ended, the rounds
    saturation ran, and the rounds the oracle runs."""
    name = "_enumerate_round" if strategy == "enumerate" else "_radical_round"
    real_round = getattr(orders_module, name)
    real_settles = orders_module._discriminant_settles
    memo = {}
    settled = []
    rounds = [0]

    def memoized(order, p):
        key = (order.field.n, order.field.t, order.fingerprint, p)
        if key not in memo:
            memo[key] = real_round(order, p)
        return memo[key]

    def counted(order, p):
        rounds[0] += 1
        return memoized(order, p)

    def recording(lattice, p):
        out = real_settles(lattice, p)
        if out and lattice.den > 1:
            settled.append(lattice)
        return out

    stops = oracle_rounds = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orders_module, name, counted)
        mp.setattr(orders_module, "_discriminant_settles", recording)
        mp.setitem(globals(), name, memoized)
        for field, p in cases:
            settled.clear()
            order = p_maximal_order(field, p, strategy)
            for lattice in settled:
                assert memoized(lattice, p) is None, ("a skipped round enlarges", field.n, field.t, p, strategy)
            stops += len(settled)
            expected, taken = stopping_round_saturation(field, p, strategy)
            assert order == expected, (field.n, field.t, p, strategy)
            oracle_rounds += taken
    return stops, rounds[0], oracle_rounds
