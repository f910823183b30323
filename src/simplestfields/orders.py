"""Orders, p-maximal saturation and integral bases.

An order is stored as a denominator D and an n x n lower-triangular HNF
matrix H: row i divided by D is the i-th basis element over the power basis
of beta.  Two independent saturation strategies are provided and serve as
each other's oracle:

  * "enumerate": sweep the projective points v over F_p of the kernel mod p
    of the lattice's own trace form G_ik = Tr(e_i * e_k), e_i = basis_i / den
    (the v for which every Tr((v . e) / p * e_k) is integral), skip those
    whose e_2 Newton's step already shows to be non-integral, and test the
    rest for integrality via the characteristic polynomial, enlarging until
    a full sweep finds nothing or the discriminant settles the lattice;
  * "radical": Pohst-Zassenhaus rounds on the order's multiplication table
    T[i][j], the coordinates of basis_i * basis_j over the basis (Cohen,
    GTM 138, Algorithm 6.1.8).  The Frobenius x -> x^p has the matrix M_p
    over F_p (rows basis_i^p mod p, read off T), the p-radical I is the
    kernel of its q-th power (q = p^k >= n), and the multiplier ring of I
    is searched inside I only, from the products of the radical generators
    mod p^2; iterate until stable or settled by the discriminant.  That
    step reads nothing of the order but p, n and the table mod p^2, so it
    is memoized on them (_radical_kernel): the p-maximal orders of a period
    scan recur with the parameter, and so do their tables.  M_p and I read
    only the table mod p, so they have a memo of their own on it
    (_radical), which a _radical_kernel miss asks: tables that differ mod
    p^2 often agree mod p.

The steps on Z[beta] read only f mod p^2, and f_t = G_n + t * R_n / s is
linear in t, so they recur with t mod p^2 and are memoized on those
residues too: Dedekind's test (_dedekind_criterion), the HNF of Dedekind's
order (_dedekind_hnf, on (p, n, U); U(beta) / p is still tested for
integrality in every field), the _radical_kernel key of Z[beta]'s table,
whose cells are beta^(i+j) mod (f, p^2) (_power_table_key), and the order
that a kernel enlarges Z[beta] to (_power_enlarged, on (p, n, kernel)).  So
a round on Z[beta] forms no table, and every radical round still asks
_radical_kernel.

The multiplication table has one layout, owned by this module: _mult_table
returns the flat vector of the cells T[i][j] with i <= j, row by row (T is
symmetric, so they are all of it), and Order.table forms it once per
order.  _table_key packs those cells mod p^2 into the memo key in one call,
array(code, residues).tobytes(), with code (_key_code) the first of B, H,
I, L, Q wide enough for p^2 - 1, one byte for p = 2, 3; _radical_kernel
reads them back with array(code, key) and packs them mod p the same way
for _radical.  Radical rounds, start checks and class certificates all read
tables this way.

class_certificate proves one p-maximal order for a whole residue class of
parameters t = t0 + part * s: along s every cell of the table of a fixed
lattice with den = p^a is a polynomial of degree below n, and mod p^2 of
degree at most d = ceil((2a + 2) / v_p(part)) - 1 when that is smaller, so
d + 2 sample tables and one period of the table mod p^2 decide closure and
p-maximality for every s.  A period scan certifies each large enough class
with it (see periodicity), handing it the order at t0 that saturation
returned: its table is the first sample, and its basis products, formed for
that table, serve the other d + 1.  That table was formed by the round that
found nothing, when one ran on an order other than Z[beta]; by the start
check, when the discriminant settled an accepted start; and otherwise
(Z[beta], or a round's output that the discriminant settled) by the
certificate itself.

The saturation loop (_saturate) may start from an order other than
Z[beta]: the p-maximal order of another parameter, which a period scan
transports along a residue class that it saturates member by member (a
class too small to certify, or one whose certificate fails); under the
radical strategy, Ore's lattice from the first-order Newton polygon of f at
p (_polygon_start; Montes-Nart, J. Algebra 146, 1992), which is already the
p-maximal order when f is p-regular (where it exists, that holds at every
sampled (n, p) but (10, 2) and (12, 3), where it may be a proper
sub-order); under the enumerate strategy, Dedekind's order below.  The
docstring of _saturate states which starts each strategy tries, in which
order.  A polygon start is an Order from make_order, and a transported
start is the fingerprint (den, HNF) of one, which _saturate re-homes in the
field as Order(field, *start); den is a power of p either way.  A period
scan keeps only fingerprints between members, because an Order keeps its
table and basis products.  The radical strategy uses a start only when the
lattice over den contains den * beta^i for every i and is closed under all
n(n+1)/2 products of its basis rows under the defining polynomial: it is
then an order of p-power index over Z[beta], so it lies in the p-maximal
order.  Those products are exactly the multiplication table, so an accepted
start hands its table to the first radical round, which then needs no
polynomial product.  The enumerate strategy asks instead that each basis
row over den be an algebraic integer (_integral_start), which puts the
lattice in the p-maximal order as well; it never forms a multiplication
table.  Either way the round loop runs until the lattice's discriminant
shows it p-maximal (_discriminant_settles: v_p(disc L) < 2, the test that
returns Z[beta] before any start is tried) or a round finds nothing to add
(Cohen, GTM 138, 6.1: an order is p-maximal iff the multiplier ring of its
p-radical is the order itself).  Neither stop reads the start or the
polygon theory, so exactness never rests on them, and the canonical HNF
makes the result independent of the start.

The enumerate strategy first asks Dedekind's criterion (Cohen, GTM 138,
Theorem 6.1.4; _dedekind_test), read off the factors of f mod p.  Where it
finds Z[beta] p-maximal, saturation returns Z[beta] without a sweep.
Otherwise Dedekind's order Z[beta] + (U(beta) / p) Z[beta]
(_dedekind_order) is the multiplier ring of the p-radical of Z[beta], whose
generators over p must be algebraic integers.  The radical strategy reads
neither, and neither do its stops, so in --strategy both they check every
verdict of Dedekind's test.

The candidate prime set for the full integral basis is {3} union the primes
dividing n: under the squarefree gate every other prime divides the
polynomial discriminant at most once and is excluded by its Eisenstein
witness, so it cannot divide the index.
"""

from array import array
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import comb, gcd, lcm
from operator import mul
from typing import NamedTuple

from ._kernels import hnf_rows, solve_lower_coords, zx_mod, zx_mul
from .family import disc_quadratic, discriminant_front, parameter_scale, specialize
from .linalg import left_kernel_mod_p
from .numberfield import (
    NumberField,
    ParameterNotCoveredError,
    field_elt,
    field_trace_powers,
    is_algebraic_integer,
    quadratic_factorization,
    witness_prime,
)
from .numutil import factorize, largest_square_root_divisor, p_adic_valuation, three_free_part
from .poly import Poly

STRATEGIES = ("enumerate", "radical")
GATES = ("strict", "relaxed")

Fingerprint = tuple[int, tuple[tuple[int, ...], ...]]


class _Lattice(NamedTuple):
    field: NumberField
    den: int
    basis: tuple[tuple[int, ...], ...]  # lower-triangular HNF rows


class Order(_Lattice):
    """Lattice of rank n over den containing Z[beta], canonically represented.

    It is a ring (an order) for p-maximal orders, for the outputs of radical
    rounds (multiplier rings) and for joins of those; an intermediate
    lattice of the enumerate strategy need not be closed under products, and
    a start or certificate lattice is checked for Z[beta] and closure first
    (_start_order, _integral_start, class_certificate).
    It compares and hashes as the tuple (field, den, basis), whose fields
    cannot be assigned; having no __slots__, it keeps its cached properties
    in an instance __dict__.
    """

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def det(self) -> int:
        d = 1
        for i in range(self.n):
            d *= self.basis[i][i]
        return d

    @property
    def index(self) -> int:
        """Index of Z[beta] in this order."""
        q, r = divmod(self.den ** self.n, self.det)
        if r:
            raise AssertionError("non-integral order index")
        return q

    @property
    def fingerprint(self) -> Fingerprint:
        return (self.den, self.basis)

    @cached_property
    def products(self) -> list[list[int]]:
        """The products basis_i * basis_j for i <= j, row by row, as
        polynomials not yet reduced mod any f: the part of a table that is
        free of f, formed on first use and kept, so the table and the other
        samples of a class certificate share them.  An HNF row i is 0 past
        column i, so it is multiplied without that tail."""
        rows = [row[: i + 1] for i, row in enumerate(self.basis)]
        return [zx_mul(a, b) for i, a in enumerate(rows) for b in rows[i:]]

    @cached_property
    def table(self) -> list[int]:
        """The multiplication table of the lattice under the field's
        polynomial (_mult_table), formed on first use and kept, so the start
        check, the radical round and the class certificate of one order share
        it.  Raises ValueError when the lattice is not closed under products."""
        return _mult_table(self, self.field.poly.coeffs)


def _canonical(n: int, den: int, rows) -> Fingerprint:
    """The fingerprint (den, HNF) of the lattice that rows over den generate,
    with den as small as the rows allow."""
    basis = hnf_rows([list(r) for r in rows], n)
    if len(basis) != n:
        raise ValueError("generating set does not span a full lattice")
    g = den
    for row in basis:
        for x in row:
            if x:
                g = gcd(g, x)
    basis = [[x // g for x in row] for row in basis]
    den //= g
    if basis[0] != [den] + [0] * (n - 1):
        raise AssertionError("order does not contain 1 with minimal denominator")
    return den, tuple(tuple(r) for r in basis)


def make_order(field: NumberField, den: int, rows) -> Order:
    """Canonicalize a generating set over a common denominator into an Order."""
    return Order(field, *_canonical(field.n, den, rows))


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def power_order(field: NumberField) -> Order:
    """Z[beta] itself."""
    return Order(field, 1, _identity(field.n))


def _mod_square(field: NumberField, p: int) -> tuple[int, ...]:
    """The coefficients of f mod p^2, the key of the memos on Z[beta]."""
    pp = p * p
    return tuple(x % pp for x in field.poly.coeffs)


def order_discriminant(o: Order) -> int:
    """Field-side discriminant of the order: disc(f) / index^2, exact."""
    idx = o.index
    q, r = divmod(o.field.disc, idx * idx)
    if r:
        raise AssertionError("index square does not divide the polynomial discriminant")
    return q


def _discriminant_settles(lattice: Order, p: int) -> bool:
    """Whether the discriminant alone shows the lattice to be the p-maximal
    order: v_p(disc L) < 2, with disc L = disc(f) / index^2.

    The lattice is spanned by algebraic integers and has p-power index over
    Z[beta], so it lies in the p-maximal order O_p; disc L =
    [O_p : L]^2 disc O_p (Cohen, GTM 138, 4.4) then gives v_p(disc L) >=
    2 v_p([O_p : L]), and a value below 2 forces L = O_p.  This holds for
    an enumerate lattice as well, which need not be a ring."""
    return p_adic_valuation(order_discriminant(lattice), p) < 2


def _mult_table(lattice: Order, f) -> list[int]:
    """The multiplication table of the lattice under the monic polynomial
    with coefficients f (lowest degree first): the coordinates of
    basis_i * basis_j over the basis for i <= j, row by row, in one flat
    list.

    The product of two numerators over den is a numerator over den^2, so its
    coordinates solve c . (den * basis) = basis_i * basis_j mod f.  The
    products are the lattice's own (Order.products), formed once, so that
    its tables under many polynomials share them (class_certificate).
    Raises ValueError when a product is not in the lattice over den.
    """
    scaled = [[lattice.den * x for x in row] for row in lattice.basis]
    return [x for product in lattice.products for x in solve_lower_coords(scaled, zx_mod(product, f))]


def _combine(coeffs, vectors, m: int):
    """sum_k coeffs[k] * vectors[k], reduced mod m."""
    out = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * x for a, x in zip(out, v)]
    return [a % m for a in out]


@lru_cache(maxsize=None)
def _key_code(p: int) -> str:
    """The array typecode of a residue in a _radical_kernel key (mod p^2) or a
    _radical key (mod p): the first of B, H, I, L, Q wide enough for p^2 - 1
    (p < 2^32)."""
    width = ((p * p - 1).bit_length() + 7) // 8
    return next(c for c in "BHILQ" if array(c).itemsize >= width)


def _table_key(p: int, cells) -> bytes:
    """The _radical_kernel key of the cells of a multiplication table: each
    reduced mod p^2, packed as an array of typecode _key_code(p)."""
    # A tuple of residues keys as fast, but raised the peak RSS of an n = 12 scan from 24.4 to 28.8 MB.
    pp = p * p
    return array(_key_code(p), [x % pp for x in cells]).tobytes()


def _square_table(values, n: int) -> list[list]:
    """T[a][b] for 0 <= a, b < n, each a run of n residues, from the flat cells
    T[i][j], i <= j, row by row (T is symmetric)."""
    cells = [values[k : k + n] for k in range(0, len(values), n)]
    diag = [i * n - i * (i - 1) // 2 for i in range(n)]  # cells[diag[i] + j - i] is T[i][j], i <= j
    return [[cells[diag[min(a, b)] + abs(b - a)] for b in range(n)] for a in range(n)]


@lru_cache(maxsize=1024)
def _radical(p: int, n: int, key: bytes) -> tuple[tuple[int, ...], ...]:
    """The p-radical I/pO of the order, over F_p in the coordinates of its
    basis, in reduced row echelon form; key packs the table cells mod p as
    _table_key packs them mod p^2.

    x -> x^p is F_p-linear on O/pO; row i of its matrix M is basis_i^p mod p,
    read off the table, and I/pO is the left kernel of M^k (p^k >= n).  Both
    read only the table mod p, on which this is memoized: tables that differ
    mod p^2 often agree mod p.
    """
    tab = _square_table(array(_key_code(p), key), n)
    frob = []
    for i in range(n):
        v = list(tab[i][i])
        for _ in range(p - 2):
            v = _combine(v, tab[i], p)  # v * basis_i, since T is symmetric
        frob.append(v)
    power = frob
    q = p
    while q < n:
        power = [_combine(row, frob, p) for row in power]
        q *= p
    return tuple(map(tuple, left_kernel_mod_p(power, p)))


@lru_cache(maxsize=1024)
def _radical_kernel(p: int, n: int, key: bytes) -> tuple[tuple[int, ...], ...]:
    """The kernel vectors y of one multiplier-ring step, over F_p in the
    coordinates of the order's basis, or () when the order is p-maximal.

    key is _table_key(p, cells) for the cells of the multiplication table T
    of the order, as _mult_table lays them out, and is decoded in that
    layout.  Everything the step decides is a function of (p, n, T mod p^2),
    so a period scan, whose p-maximal orders recur with the parameter,
    decides each recurring table once.  The p-radical I/pO reads only
    T mod p and comes from the second memo, _radical; only the multiplier
    conditions below read T mod p^2.

    The multiplier ring is (1/p) U with U = {y : y I <= p I}.  U lies in I
    (y * p * 1 is in p I), so U/pO is searched inside the radical:
    y = sum c_j rad_j, with conditions y * rad_j' in p I.  The products
    rad_j * rad_j' are formed mod p^2 and read off in the basis
    {rad_j} + {p e_l : l not a pivot} of I, whose coordinates mod p decide
    membership in p I.
    """
    pp = p * p
    code = _key_code(p)
    values = array(code, key)
    rad = _radical(p, n, array(code, [x % p for x in values]).tobytes())
    if not rad:
        return ()
    r = len(rad)
    pivots = [row.index(1) for row in rad]
    free = [l for l in range(n) if l not in pivots]
    conditions = [[] for _ in range(r)]
    flat = [[x for c in row for x in c] for row in _square_table(values, n)]  # row a: basis_a * basis_b for every b
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


@lru_cache(maxsize=1024)
def _power_table_key(p: int, f: tuple[int, ...]) -> bytes:
    """_table_key(p, _mult_table(Z[beta], f)) from f mod p^2 alone: the cell
    T[i][j] of Z[beta] is beta^(i+j) mod f, and beta^(k+1) = beta * beta^k
    mod (f, p^2)."""
    pp = p * p
    n = len(f) - 1
    powers = list(_identity(n))
    for _ in range(n - 1):
        last = powers[-1]
        powers.append(tuple(((last[i - 1] if i else 0) - last[-1] * f[i]) % pp for i in range(n)))
    return _table_key(p, [x for i in range(n) for j in range(i, n) for x in powers[i + j]])


def _enlarged(p: int, den: int, basis, kernel) -> Fingerprint:
    """The order over p * den that the kernel vectors y of a multiplier-ring
    step generate as numerators y . basis, together with p * basis."""
    n = len(basis)
    rows = [[sum(y[i] * basis[i][j] for i in range(n)) for j in range(n)] for y in kernel]
    rows += [[p * x for x in row] for row in basis]
    enlarged = _canonical(n, p * den, rows)
    if enlarged == (den, basis):
        raise AssertionError(f"a nonempty multiplier kernel did not enlarge the order (p={p})")
    return enlarged


@lru_cache(maxsize=1024)
def _power_enlarged(p: int, n: int, kernel: tuple[tuple[int, ...], ...]) -> Fingerprint:
    """_enlarged for Z[beta], which reads nothing of f."""
    return _enlarged(p, 1, _identity(n), kernel)


def _radical_round(order: Order, p: int) -> Order | None:
    """One multiplier-ring step on the multiplication table of the order;
    None when the order is already p-maximal (Cohen, GTM 138, Algorithm 6.1.8).
    The order is p-maximal iff the multiplier kernel is empty (Cohen, 6.1): a
    kernel vector y != 0 mod p puts y / p outside the order, which must grow.

    The step over F_p is _radical_kernel, memoized on T mod p^2: the round
    packs order.table into its key, or for Z[beta] (den 1) reads the key off
    f mod p^2, and lifts the kernel vectors y it returns to the enlarged
    order (_enlarged).
    """
    n = order.n
    if order.den == 1:  # Z[beta], the only lattice over 1 that contains it
        kernel = _radical_kernel(p, n, _power_table_key(p, _mod_square(order.field, p)))
        return Order(order.field, *_power_enlarged(p, n, kernel)) if kernel else None
    kernel = _radical_kernel(p, n, _table_key(p, order.table))
    return Order(order.field, *_enlarged(p, order.den, order.basis, kernel)) if kernel else None


def _projective_vectors(n: int, p: int):
    """All vectors over F_p with first nonzero coordinate equal to 1."""
    for lead in range(n):
        for tail in iter_product(range(p), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail


def _trace_candidates(order: Order, p: int):
    """Numerators w = v . basis, v projective over F_p, for which x = w /
    (p * den) has Tr(x * e_k) and the second elementary symmetric function
    e_2(x) integral, e_k = basis_k / den, in the order of
    _projective_vectors(n, p), generated lazily.  Every integral x passes.

    Each e_k is integral (the lattice is spanned by algebraic integers), so
    S_ij = Tr(basis_i * beta^j) / den, summed from the field's traces of
    beta^0..beta^(2n-2), and the lattice's trace form
    G_ik = Tr(e_i * e_k) = sum_j S_ij * basis_k[j] / den are integers, and
    Tr(x * e_k) = sum_i v_i G_ik / p: the surviving v are the projective
    points of the left kernel of G mod p.  Z[beta] lies in the lattice, so
    that kernel lies in the one of S mod p, the test on Tr(x * beta^j)
    alone.  With the kernel basis K in reduced row echelon form, v = c . K
    has its first nonzero coordinate at the pivot of the first nonzero c_i,
    equal to c_i, and two such v first differ at the pivot where their c
    first differ; so the projective c in _projective_vectors order give
    exactly the projective v, in _projective_vectors(n, p) order.

    Newton's step then reads e_2(x) = ((v . g)^2 - v G v^T) / (2 p^2) with
    g_i = Tr(e_i) = S_i0, so a kernel point passes when (v . g)^2 - v G v^T
    = 0 mod 2p^2.  The verdict is the same for every lift of v in the
    kernel: v + p * u adds p^2 * 2 e_2(u . e) plus 2p((v . g)(u . g) -
    v G u^T), and both v . g and v G are 0 mod p.  So it is decided on the
    lift c . K, in kernel coordinates: (c . Kg)^2 - c (K G K^T) c^T.
    """
    n = order.n
    den, basis = order.den, order.basis
    rows = [row[: i + 1] for i, row in enumerate(basis)]  # an HNF row i is 0 past column i
    traces = field_trace_powers(order.field)
    windows = [traces[j : j + n] for j in range(n)]
    pairing = []  # S
    for row in rows:
        pairing_row = []
        for window in windows:
            q, r = divmod(sum(map(mul, row, window)), den)
            if r:
                raise AssertionError("trace of an order element is not integral")
            pairing_row.append(q)
        pairing.append(pairing_row)
    form = [[0] * n for _ in range(n)]  # G = S . basis^T / den, symmetric
    for i, pairing_row in enumerate(pairing):
        for k in range(i + 1):
            q, r = divmod(sum(map(mul, pairing_row, rows[k])), den)
            if r:
                raise AssertionError("trace form of the lattice is not integral")
            form[i][k] = form[k][i] = q
    kernel = left_kernel_mod_p(form, p)
    mod = 2 * p * p
    g = [row[0] for row in pairing]
    kg = [sum(map(mul, k, g)) for k in kernel]
    k_form = [[sum(map(mul, k, row)) for row in form] for k in kernel]  # K G, G symmetric
    quad = [[(a * b - sum(map(mul, kf, k))) % mod for b, k in zip(kg, kernel)] for a, kf in zip(kg, k_form)]
    for c in _projective_vectors(len(kernel), p):
        if sum(ca * sum(map(mul, row, c)) for ca, row in zip(c, quad) if ca) % mod:
            continue  # e_2 is not integral
        v = [sum(map(mul, c, column)) % p for column in zip(*kernel)]
        yield [sum(map(mul, v, column)) for column in zip(*basis)]


def _enumerate_round(order: Order, p: int) -> Order | None:
    """One sweep over the candidates of _trace_candidates; returns the
    lattice enlarged by the first integral candidate, or None when there is
    none.  The enlarged lattice contains Z[beta] but need not be closed
    under products: only the lattice where saturation stops is known to be
    a ring (the p-maximal order).

    The candidates are the projective points of the kernel of the filter on
    Tr(x * beta^j) alone, in the same order, less some non-integral ones;
    only is_algebraic_integer accepts.  So the sweep finds the same first
    integral candidate as a sweep over that larger kernel, and every round,
    hence the whole chain of lattices, is the same."""
    field, pd = order.field, p * order.den
    for w in _trace_candidates(order, p):
        if is_algebraic_integer(field_elt(field, w, pd)):
            rows = [w] + [[p * x for x in row] for row in order.basis]
            return make_order(field, pd, rows)
    return None


def _contains_power_basis(den: int, basis) -> bool:
    """Whether the lattice with numerators basis over den contains Z[beta],
    that is den * beta^i for every i; no polynomial is involved."""
    try:
        for i in range(len(basis)):
            solve_lower_coords(basis, [0] * i + [den])
    except ValueError:
        return False
    return True


def _polygon_start(field: NumberField, p: int) -> Order | None:
    """Ore's first-order lattice at p for phi = X - a, as a start
    (Montes-Nart, "On a theorem of Ore", J. Algebra 146 (1992)), or None
    unless exactly one a in 0..p-1 has f(a) = f'(a) = 0 mod p.

    With F(Y) = f(Y + a) = sum c_i Y^i and N the lower convex hull of the
    points (i, v_p(c_i)), c_i != 0, the lattice is spanned by the
    q_j(beta - a) / p^floor(N(n - j)), j = 0..n-1, where q_j = sum_(i >= n-j)
    c_i Y^(i-n+j) is the quotient of F by Y^(n-j).  It contains Z[beta] (q_j
    is monic of degree j) and is the p-maximal order when f is p-regular;
    otherwise it may be a proper sub-order.  Whether it is an order at all
    is left to _start_order.
    """
    f = field.poly
    df = f.deriv()
    roots = [a for a in range(p) if f(a) % p == 0 and df(a) % p == 0]
    if len(roots) != 1 or f(roots[0]) == 0:  # f(a) = 0 only for a reducible f
        return None
    (a,) = roots
    c = f.shift(a).coeffs
    n = field.n
    points = [(i, p_adic_valuation(x, p)) for i, x in enumerate(c) if x]
    # floor(N(x)): the hull at x is the least chord value over points i <= x <= k
    ks = [
        min(u if i == k else (u * (k - x) + w * (x - i)) // (k - i) for i, u in points for k, w in points if i <= x <= k)
        for x in range(n, 0, -1)
    ]
    top = max(ks)
    rows = []
    for j in range(n):
        q = Poly(c[n - j :]).shift(-a).coeffs
        rows.append([p ** (top - ks[j]) * x for x in q] + [0] * (n - 1 - j))
    return make_order(field, p**top, rows)


def _fp_trim(a, p: int) -> list[int]:
    """The integer polynomial a reduced mod p, without trailing zeros."""
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _fp_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p; b must be nonzero mod p."""
    r, b = _fp_trim(a, p), _fp_trim(b, p)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
    return _fp_trim(q, p), _fp_trim(r[:db], p)


def _fp_gcd(a, b, p: int) -> list[int]:
    """The monic gcd over F_p of a and b, not both 0 mod p."""
    a, b = _fp_trim(a, p), _fp_trim(b, p)
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _fp_radical(a, p: int) -> list[int]:
    """The product of the distinct monic irreducible factors of a monic a
    over F_p.  With c = gcd(a, a'), a / c is the product of the factors whose
    exponent p does not divide, and every factor is in a / c or in c, so the
    radical is lcm(a / c, radical of c).  Where a' = 0, a = b(X^p) = b(X)^p
    (x^p = x on F_p), and a has the radical of b."""
    if len(a) < 2:
        return [1]
    da = _fp_trim([i * x for i, x in enumerate(a)][1:], p)
    if not da:
        return _fp_radical(a[::p], p)
    c = _fp_gcd(a, da, p)
    w = _fp_divmod(a, c, p)[0]
    r = _fp_radical(c, p)
    return _fp_divmod(zx_mul(w, r), _fp_gcd(w, r, p), p)[0]


def _dedekind_test(field: NumberField, p: int) -> tuple[int, list[int]]:
    """(m, U) of Dedekind's criterion at p (Cohen, GTM 138, Theorem 6.1.4).

    With g the radical of f mod p, h = (f mod p) / g (both lifted to Z with
    digits in 0..p-1) and F = (f - g h) / p, let Z = gcd(F, g, h) over F_p and
    m = deg Z.  Z[beta] is p-maximal iff m = 0.  Otherwise U = (f mod p) / Z,
    lifted, gives the multiplier ring of the p-radical of Z[beta]:
    Z[beta] + (U(beta) / p) Z[beta], of index p^m (_dedekind_order).
    """
    m, u = _dedekind_criterion(p, _mod_square(field, p))
    return m, list(u)


@lru_cache(maxsize=1024)
def _dedekind_criterion(p: int, f: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """_dedekind_test from f mod p^2, all that F mod p reads."""
    fbar = _fp_trim(f, p)
    g = _fp_radical(fbar, p)
    h = _fp_divmod(fbar, g, p)[0]
    big_f = [(x - y) // p for x, y in zip(f, zx_mul(g, h))]  # f = g h mod p, both monic of degree n
    z = _fp_gcd(_fp_gcd(big_f, g, p), h, p)
    return len(z) - 1, tuple(_fp_divmod(fbar, z, p)[0])


def _dedekind_order(field: NumberField, p: int, u: list[int]) -> Order:
    """Z[beta] + (U(beta) / p) Z[beta] for (m, U) = _dedekind_test(field, p)
    with m = n - deg U > 0: spanned over p by U beta^i, i < m (degree
    n - m + i < n, so no reduction), and p beta^i.  U(beta) / p must be an
    algebraic integer; then so is each U beta^i / p, so it alone is tested,
    on every call.  The HNF reads only (p, n, U) and is memoized on them."""
    n = field.n
    if not is_algebraic_integer(field_elt(field, u + [0] * (n - len(u)), p)):
        raise AssertionError(f"Dedekind's order at p={p} is not integral")
    return Order(field, *_dedekind_hnf(p, n, tuple(u)))


@lru_cache(maxsize=1024)
def _dedekind_hnf(p: int, n: int, u: tuple[int, ...]) -> Fingerprint:
    """The fingerprint of _dedekind_order, which reads nothing of f but U."""
    m = n + 1 - len(u)
    rows = [[0] * i + list(u) + [0] * (m - 1 - i) for i in range(m)]
    rows += [[p if j == i else 0 for j in range(n)] for i in range(n)]
    return _canonical(n, p, rows)


def _start_order(order: Order) -> Order | None:
    """The start order, its table formed, or None unless its lattice
    contains Z[beta] and is closed under multiplication."""
    if not _contains_power_basis(order.den, order.basis):
        return None
    try:
        order.table  # formed here, and read again by the first round
    except ValueError:  # a product is outside the lattice over den
        return None
    return order


def _integral_start(order: Order) -> Order | None:
    """The start order, or None unless its lattice contains Z[beta] and each
    row over den is an algebraic integer.  Then the whole lattice is
    integral, and with den a power of p it lies in the p-maximal order,
    which is all an enumerate sweep needs of its lattice; no multiplication
    table is formed."""
    if not _contains_power_basis(order.den, order.basis):
        return None
    if not all(is_algebraic_integer(field_elt(order.field, row, order.den)) for row in order.basis):
        return None
    return order


def class_certificate(order: Order, p: int, part: int, gate: str = "strict") -> tuple[bool, str]:
    """Prove that order, the p-maximal order of its field at t0 = order.field.t,
    is the p-maximal order at every t = t0 + part * s (s in Z) that the gate
    passes.  Returns (ok, reason).

    f_t = g + t * h is monic with integer coefficients.  For the fixed
    lattice L, a product basis_i * basis_j is free of t, and its remainder
    P(t) mod f_t lies in Z[t]^n with degree <= n - 1 in t (reducing X^(n+j)
    raises the t-degree by at most j + 1).  The table cell solves
    c . (den * HNF) = P(t); those rows span den^2 L, which contains
    den^2 Z^n = p^(2a) Z^n (L contains Z[beta], den = p^a), so c = P(t) M
    with M in p^(-2a) Z^(n x n), free of t.  The Taylor coefficients P_m of P
    at t0 are integral, so with v = v_p(part) the term of s^m in
    T(s) = sum_m part^m s^m P_m M lies in p^(mv - 2a) Z^n, and every term
    with mv >= 2a + 2 vanishes mod p^2.  Hence T(s) = g(s) mod p^2 at every
    integer s, where g is the sum of the terms m <= d, d = min(n - 1,
    ceil((2a + 2) / v) - 1) (d = n - 1 when v = 0), a polynomial of degree
    <= d that is integral exactly where T(s) is.  Write D^k for the k-th
    forward difference of T at 0; it agrees with that of g mod p^2.
      * Order: _mult_table raises unless the tables at s = 0..d are
        integral; then g has integral differences, so g(s) and T(s) are
        integral and L is closed under products for every s.  D^(d+1) = 0
        mod p^2 at s = d + 1 confirms the bound (exactly 0 when d = n - 1,
        the degree of T itself).  L contains Z[beta] (free of t) with p-power
        index.
      * p-maximal: the stopping test reads only T mod p^2 (_radical_kernel
        is empty iff the order is p-maximal; Cohen, GTM 138, 6.1), and
        T(s) = sum_(k <= d) C(s, k) D^k mod p^2.  Since v_p C(p^e, j) =
        e - v_p(j) >= 2 for 1 <= j <= k when e = 2 + floor(log_p k),
        Vandermonde's identity makes C(s, k) mod p^2 periodic with period
        p^e, so T(s) mod p^2 has period P = p^(2 + floor(log_p K)), K <= d
        the largest k with D^k != 0 mod p^2 (K = 1 if none).  One period of
        s is checked, skipping only the s where the gate in force rejects
        p^2 | Q(t) (_counts_square: strict every such s, relaxed only for
        p != 3).  Q(t) mod p^2 has period p^2, which divides P, so every
        gate-passing t of the class lands on a checked s.
    A p-maximal order of p-power index over Z[beta] is the p-maximal order,
    the one saturation finds.  The sample s = 0 is order.table: a period
    scan hands the order over with it formed by the round that found
    nothing, or by the start check where the discriminant settled an
    accepted start, and where neither ran (the discriminant settled Z[beta]
    or a round's output, or the round ran on Z[beta]) it is formed here.
    The other d + 1 come from specialize (no field is built or cached),
    share the order's basis products (Order.products), and are not kept.
    Raises ValueError for an unknown gate, part = 0 or a den that is not a
    power of p.
    """
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    n, t0, den = order.n, order.field.t, order.den
    a = p_adic_valuation(den, p)
    if den != p**a:
        raise ValueError(f"the denominator {den} is not a power of {p}")
    if not _contains_power_basis(den, order.basis):
        return False, "the lattice does not contain Z[beta]"
    v = p_adic_valuation(part, p)
    d = n - 1 if v == 0 else min(n - 1, -(-(2 * a + 2) // v) - 1)
    level = []
    for s in range(d + 2):
        try:
            level.append(_mult_table(order, specialize(n, t0 + part * s).poly.coeffs) if s else order.table)
        except ValueError:
            return False, f"the lattice is not closed under products at t={t0 + part * s}"
    diffs = []  # D^0, ..., D^(d+1) as table cells
    while level:
        diffs.append(level[0])
        level = [[y - x for x, y in zip(u, w)] for u, w in zip(level, level[1:])]
    pp = p * p
    exact = d == n - 1  # then d is the degree bound of T itself
    if any(x if exact else x % pp for x in diffs[d + 1]):
        raise AssertionError(f"the table is not of degree {d} in the parameter" + ("" if exact else f" mod {pp}"))
    diffs = [[x % pp for x in c] for c in diffs]  # D^(d+1) = 0 mod p^2 stays, for top = 1 when d = 0
    top = max((k for k in range(1, d + 1) if any(diffs[k])), default=1)
    period = pp
    while period * p <= pp * top:
        period *= p
    for s in range(period):
        t = t0 + part * s
        if _counts_square(p, gate) and disc_quadratic(n, t) % pp == 0:
            continue
        cells = diffs[0]
        for k in range(1, top + 1):
            c = comb(s, k) % pp
            if c:
                cells = [x + c * y for x, y in zip(cells, diffs[k])]
        if _radical_kernel(p, n, _table_key(p, cells)):
            return False, f"the lattice is not {p}-maximal at t={t}"
    return True, "ok"


def _saturate(field: NumberField, p: int, strategy: str, start=None) -> Order:
    """p_maximal_order for a strategy already known to be valid.

    start is None or the fingerprint of a p-maximal order of the same degree
    (so canonical, with den a power of p), checked as Order(field, *start).
    This is the one statement of the order in which each strategy tries its
    starts; saturation runs from the first one accepted:
      * radical: start, then _polygon_start(field, p), whichever _start_order
        accepts first, else Z[beta]; the table formed by the check serves
        the first radical round, or a class certificate when the
        discriminant settles the start;
      * enumerate: Z[beta], returned with no round, when Dedekind's test
        finds it p-maximal; else start, if _integral_start accepts it; else
        Dedekind's order.  No multiplication table is read.
    An accepted start need not be p-maximal: the rounds saturate it further.
    The steps on Z[beta] are memoized on f mod p^2 (module docstring).

    Before each round, the loop of either strategy asks _discriminant_settles,
    which reads only disc(f) and the HNF diagonal: where v_p of the
    lattice's discriminant is below 2, the lattice is the p-maximal order
    and no round runs, at Z[beta] before any start is tried too.  Otherwise
    rounds run until one finds nothing.  An enumerate round that finds
    nothing sweeps every projective point of the trace-form kernel mod p, so
    the strategy is out of reach (and with it --strategy both) where that
    kernel is large and the discriminant does not settle the lattice: at
    (n, t, p) = (11, 1, 11) Dedekind's order is already 11-maximal, but the
    sweep faces a 9-dimensional kernel, about 2.4e8 points.
    """
    z_beta = power_order(field)
    if _discriminant_settles(z_beta, p):
        return z_beta
    if strategy == "enumerate":
        m, u = _dedekind_test(field, p)
        if not m:
            return z_beta
        order = (None if start is None else _integral_start(Order(field, *start))) or _dedekind_order(field, p, u)
        while not _discriminant_settles(order, p) and (enlarged := _enumerate_round(order, p)) is not None:
            order = enlarged
        return order
    order = None if start is None else _start_order(Order(field, *start))
    if order is None:
        polygon = _polygon_start(field, p)
        order = None if polygon is None else _start_order(polygon)
    if order is None:
        order = z_beta
    while not _discriminant_settles(order, p) and (enlarged := _radical_round(order, p)) is not None:
        order = enlarged
    return order


def p_maximal_order(field: NumberField, p: int, strategy: str = "radical") -> Order:
    """The smallest p-maximal order containing Z[beta]."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _saturate(field, p, strategy)


def candidate_primes(n: int) -> tuple[int, ...]:
    """{3} union the primes dividing n, ascending: the only primes that can
    divide the index under the squarefree gate."""
    return tuple(sorted({3} | set(factorize(n))))


def _counts_square(p: int, gate: str) -> bool:
    """Whether the gate rejects a Q(t) that p^2 divides: the strict gate for
    every prime p, the relaxed gate for every p but 3."""
    return gate == "strict" or p != 3


def gate_empties_class(n: int, r: int, part: int) -> bool:
    """Whether the strict gate rejects every t = r mod part: some prime p
    dividing part has p^2 | Q(r + part * s) for s = 0, ..., p^2 - 1.  Q(t)
    mod p^2 has period p^2 in t, so those s stand for every s; and when no
    such p exists, the Chinese remainder theorem gives a t of the class with
    p^2 not dividing Q(t) for every p dividing part at once.  Raises
    ValueError for part = 0."""
    return any(
        all(disc_quadratic(n, r + part * s) % (p * p) == 0 for s in range(p * p)) for p in factorize(part)
    )


def parameter_gate(n: int, t: int, gate: str = "strict") -> tuple[bool, str]:
    """Check the squarefree hypothesis on the parameter quadratic (on its
    3-free part under the relaxed gate) plus the existence of an Eisenstein
    witness prime, both from the memoized factorization of Q(t) that
    number_field reads again.  Returns (ok, reason); a Q(t) that cannot be
    factored within its budget fails, with the reason of
    quadratic_factorization."""
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    q = disc_quadratic(n, t)
    try:
        fac = quadratic_factorization(n, t)
    except ParameterNotCoveredError as exc:
        return False, str(exc)
    square = next((p for p, e in fac if e > 1 and _counts_square(p, gate)), None)
    if square is not None:
        tested = q if gate == "strict" else three_free_part(q)
        return False, f"not squarefree: {square}^2 divides {tested}"
    if witness_prime(fac) is None:
        return False, f"no Eisenstein witness prime: {q} has no simple prime factor other than 3"
    return True, "ok"


def join_orders(field: NumberField, orders) -> Order:
    """The order generated by the p-maximal orders of the candidate primes:
    all bases over the lcm of their denominators, canonicalized.  Every part
    contains Z[beta] and a part with den 1 is Z[beta], so with at most one
    part of den > 1 the join is that part, or Z[beta], with no HNF."""
    larger = [o for o in orders if o.den > 1]
    if len(larger) <= 1:
        return Order(field, larger[0].den, larger[0].basis) if larger else power_order(field)
    den = 1
    for o in orders:
        den = lcm(den, o.den)
    rows = []
    for o in orders:
        s = den // o.den
        rows += [[s * x for x in row] for row in o.basis]
    return make_order(field, den, rows)


def integral_basis(field: NumberField, strategy: str = "radical", gate: str = "strict") -> Order:
    """Maximal order of the field, certified under the stated hypotheses.

    Raises ParameterNotCoveredError when parameter_gate rejects the
    parameter: it is then outside the certified domain, whatever its actual
    irreducibility.
    """
    ok, reason = parameter_gate(field.n, field.t, gate)
    if not ok:
        raise ParameterNotCoveredError(f"parameter not covered by paper hypotheses: {reason}")
    return join_orders(field, [p_maximal_order(field, p, strategy) for p in candidate_primes(field.n)])


def denominator_bound(n: int) -> int:
    """Universal denominator bound: the greatest C with C^2 dividing the
    branch value B_n = 3 * s^2 * discriminant_front(n), s = parameter_scale(n).

    3 * s^2 is the largest power of 3 that divides any Q(t): 3 divides
    u^2 + u + 1 at most once, which is Q(u) at s = 1, and at s = 3 Q(t) is
    prime to 3 unless t = 3u, where it is 9 * (u^2 + u + 1).  So B_n is the
    front of disc(f_t) = discriminant_front(n) * Q(t)^(n-1) times one copy
    of the largest 3-part of Q.  C bounds the denominator of every algebraic
    integer over the power basis (the exponent of O/Z[beta]); the index
    itself can exceed it in 3-power when 3 divides the parameter quadratic,
    since the discriminant carries n-1 copies of that quadratic.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    return largest_square_root_divisor(3 * parameter_scale(n) ** 2 * discriminant_front(n))


def period_length_bound(n: int) -> int:
    """Greatest n0 whose square divides (3^(n^2/2) * n^n)^n, read through
    fourth-power divisibility so all exponents stay integral."""
    if n < 2:
        raise ValueError("degree must be at least 2")
    out = 1
    for p in candidate_primes(n):
        # fourth-power content of (3^(n^2) * n^(2n))^n = 3^(n^3) * n^(2n^2)
        v4 = 2 * n * n * p_adic_valuation(n, p)
        if p == 3:
            v4 += n * n * n
        out *= p ** (v4 // 4)
    return out
