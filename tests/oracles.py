"""Independent oracles used by the test suite.

These deliberately avoid the package's own computation paths: the resultant
oracle is a Sylvester determinant, the squarefree oracle is naive trial
division, traces come from companion-matrix powers, the rational inverse is
plain Gauss-Jordan over Fractions, the degree-2 maximal order comes from
the classical quadratic-field classification, the radical round works on
polynomial products over the power basis instead of the order's
multiplication table, the shifted minimal polynomial is a Taylor shift by
the rational parameter, the parameter gate factorizes once per test,
factorization trial-divides by every prime up to the fixed bound whatever
the input, and the family dual denominator peels the parameter quadratic
off an interpolated determinant and every adjugate entry.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from simplestfields._kernels import hnf_rows, solve_lower_coords, vec_reduce_mod_rows, zx_divexact, zx_mulmod
from simplestfields.family import disc_quadratic, specialize
from simplestfields.linalg import adjugate, left_kernel_mod_p
from simplestfields.numberfield import number_field
from simplestfields.numutil import (
    TRIAL_DIVISION_BOUND,
    _brent_rho,
    _sieve,
    factorize,
    is_prime,
    three_free_part,
)
from simplestfields.orders import make_order
from simplestfields.periodicity import _interpolate_int, _trace_matrix
from simplestfields.poly import Poly


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


def brute_force_trace_candidates(order, p: int, traces) -> list[list[int]]:
    """Numerators w = v . basis over every projective v in F_p^n (first nonzero
    coordinate 1, in lexicographic order per leading position) that pass the
    trace filter: Tr(w * beta^j) divisible by p * den for every j."""
    n = len(order.basis)
    basis = order.basis
    pd = p * order.den
    out = []
    for lead in range(n):
        for tail in product(range(p), repeat=n - 1 - lead):
            v = (0,) * lead + (1,) + tail
            w = [sum(v[i] * basis[i][j] for i in range(n)) for j in range(n)]
            if all(sum(w[k] * traces[k + j] for k in range(n)) % pd == 0 for j in range(n)):
                out.append(w)
    return out


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
    det_poly = Poly(_interpolate_int([det0 for det0, _ in fit]))
    entry_polys = [[Poly(_interpolate_int([adj0[i][j] for _, adj0 in fit])) for j in range(n)] for i in range(n)]
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
