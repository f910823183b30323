"""Orders, p-maximal saturation and integral bases.

An order is stored as a denominator D and an n x n lower-triangular HNF
matrix H: row i divided by D is the i-th basis element over the power basis
of beta.  Two independent saturation strategies are provided and serve as
each other's oracle:

  * "enumerate": sweep the projective points v over F_p of the kernel of
    the trace form mod p (the v for which every Tr((v . basis) * beta^j / p)
    is integral) and test (v . basis)/p for integrality via the
    characteristic polynomial, enlarging until a full sweep finds nothing;
  * "radical": Pohst-Zassenhaus rounds on the order's multiplication table
    T[i][j], the coordinates of basis_i * basis_j over the basis (Cohen,
    GTM 138, Algorithm 6.1.8).  The Frobenius x -> x^p has the matrix M_p
    over F_p (rows basis_i^p mod p, read off T), the p-radical I is the
    kernel of its q-th power (q = p^k >= n), and the multiplier ring of I
    is searched inside I only, from the products of the radical generators
    mod p^2; iterate until stable.  That step reads nothing of the order but
    p, n and the table mod p^2, so it is memoized on them (_radical_kernel):
    the p-maximal orders of a period scan recur with the parameter, and so
    do their tables.

The saturation loop (_saturate) may start from the p-maximal order of
another parameter instead of Z[beta]; a period scan passes the one it found
last in the same residue class.  Such a start is a make_order fingerprint
(den, HNF) with den a power of p.  It is used only when the lattice over
den contains den * beta^i for every i and is closed under all n(n+1)/2
products of its basis rows under the new defining polynomial: it is then an
order of p-power index over Z[beta], so it lies in the p-maximal order.
Those products are exactly the multiplication table, so an accepted start
hands its table to the first radical round, which then needs no polynomial
product.  Otherwise saturation starts from Z[beta].  Either way the
unchanged round loop runs until a round finds nothing to add, so every
p-maximal order passes the same stopping test (Cohen, GTM 138, 6.1: an
order is p-maximal iff the multiplier ring of its p-radical is the order
itself), and the canonical HNF makes the result independent of the start.

The candidate prime set for the full integral basis is {3} union the primes
dividing n: under the squarefree gate every other prime divides the
polynomial discriminant at most once and is excluded by its Eisenstein
witness, so it cannot divide the index.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product, repeat
from math import gcd, lcm

from ._kernels import hnf_rows, solve_lower_coords, zx_mulmod
from .family import disc_quadratic
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

STRATEGIES = ("enumerate", "radical")
GATES = ("strict", "relaxed")


@dataclass(frozen=True)
class Order:
    """Lattice of rank n over den containing Z[beta], canonically represented.

    It is a ring (an order) for p-maximal orders, for the outputs of radical
    rounds (multiplier rings) and for joins of those; an intermediate
    lattice of the enumerate strategy need not be closed under products.
    """

    field: NumberField
    den: int
    basis: tuple[tuple[int, ...], ...]  # lower-triangular HNF rows

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
    def fingerprint(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return (self.den, self.basis)


def make_order(field: NumberField, den: int, rows) -> Order:
    """Canonicalize a generating set over a common denominator into an Order."""
    n = field.n
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
    return Order(field, den, tuple(tuple(r) for r in basis))


def power_order(field: NumberField) -> Order:
    """Z[beta] itself."""
    n = field.n
    return Order(field, 1, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def order_discriminant(o: Order) -> int:
    """Field-side discriminant of the order: disc(f) / index^2, exact."""
    idx = o.index
    q, r = divmod(o.field.disc, idx * idx)
    if r:
        raise AssertionError("index square does not divide the polynomial discriminant")
    return q


def _mult_table(field: NumberField, order: Order):
    """T[i][j]: the coordinates of basis_i * basis_j over the order's basis.

    The product of two numerators over den is a numerator over den^2, so its
    coordinates solve c . (den * basis) = basis_i * basis_j mod f.  Raises
    ValueError when a product is not in the lattice over den.
    """
    n = field.n
    f = list(field.poly.coeffs)
    basis = order.basis
    scaled = [[order.den * x for x in row] for row in basis]
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = table[j][i] = solve_lower_coords(scaled, zx_mulmod(basis[i], basis[j], f))
    return table


def _combine(coeffs, vectors, m: int):
    """sum_k coeffs[k] * vectors[k], reduced mod m."""
    out = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * x for a, x in zip(out, v)]
    return [a % m for a in out]


def _residue_width(m: int) -> int:
    """Bytes per residue mod m in a _radical_kernel key."""
    return ((m - 1).bit_length() + 7) // 8


@lru_cache(maxsize=1024)
def _radical_kernel(p: int, n: int, key: bytes) -> tuple[tuple[int, ...], ...]:
    """The kernel vectors y of one multiplier-ring step, over F_p in the
    coordinates of the order's basis, or () when the order is p-maximal.

    key is the upper triangle (i <= j, row by row) of the multiplication
    table T mod p^2, each coordinate little-endian in as many bytes as p^2 - 1
    needs (see _radical_round).  Everything the step decides is a function of
    (p, n, T mod p^2), so a period scan, whose p-maximal orders recur with
    the parameter, decides each recurring table once.

    x -> x^p is F_p-linear on O/pO; row i of its matrix M is basis_i^p mod p,
    read off the table, and the radical I/pO is the left kernel of M^k
    (p^k >= n) in reduced row echelon form.  The multiplier ring is (1/p) U
    with U = {y : y I <= p I}.  U lies in I (y * p * 1 is in p I), so U/pO is
    searched inside the radical: y = sum c_j rad_j, with conditions
    y * rad_j' in p I.  The products rad_j * rad_j' are formed mod p^2 and
    read off in the basis {rad_j} + {p e_l : l not a pivot} of I, whose
    coordinates mod p decide membership in p I.
    """
    pp = p * p
    width = _residue_width(pp)
    values = [int.from_bytes(key[k : k + width], "little") for k in range(0, len(key), width)]
    cells = (values[k : k + n] for k in range(0, len(values), n))
    tab = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tab[i][j] = tab[j][i] = next(cells)
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


def _radical_round(field: NumberField, order: Order, p: int, table) -> Order | None:
    """One multiplier-ring step on the multiplication table of the order;
    None when the order is already p-maximal (Cohen, GTM 138, Algorithm 6.1.8).
    The order is p-maximal iff the multiplier kernel is empty (Cohen, 6.1): a
    kernel vector y != 0 mod p puts y / p outside the order, which must grow.

    The step over F_p is _radical_kernel, memoized on T mod p^2: the round
    packs the table into its key and lifts the kernel vectors y it returns
    to the numerators y . basis, which with p * basis generate the enlarged
    order over p * den.
    """
    n = field.n
    pp = p * p
    width = _residue_width(pp)
    residues = [x % pp for i in range(n) for j in range(i, n) for x in table[i][j]]
    key = b"".join(map(int.to_bytes, residues, repeat(width), repeat("little")))
    kernel = _radical_kernel(p, n, key)
    if not kernel:
        return None
    basis = order.basis
    rows = [[sum(y[i] * basis[i][j] for i in range(n)) for j in range(n)] for y in kernel]
    rows += [[p * x for x in row] for row in basis]
    enlarged = make_order(field, p * order.den, rows)
    if enlarged.fingerprint == order.fingerprint:
        raise AssertionError(f"a nonempty multiplier kernel did not enlarge the order (p={p})")
    return enlarged


def _projective_vectors(n: int, p: int):
    """All vectors over F_p with first nonzero coordinate equal to 1."""
    for lead in range(n):
        for tail in iter_product(range(p), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail


def _trace_candidates(order: Order, p: int, traces):
    """Numerators w = v . basis, v projective over F_p, for which
    Tr(w * beta^j) / (p * den) is integral for every j, in the order of
    _projective_vectors(n, p), generated lazily.

    Each basis row over den is an order element, so S_ij = Tr(basis_i * beta^j)
    is divisible by den, and the test reads sum_i v_i * S_ij / den = 0 mod p:
    the surviving v are the projective points of a left kernel mod p.  With
    the kernel basis K in reduced row echelon form, v = c . K has its first
    nonzero coordinate at the pivot of the first nonzero c_i, equal to c_i,
    and two such v first differ at the pivot where their c first differ;
    so the projective c in _projective_vectors order give exactly the
    projective v, in _projective_vectors(n, p) order.
    """
    n = order.n
    den, basis = order.den, order.basis
    form = []
    for row in basis:
        form_row = []
        for j in range(n):
            q, r = divmod(sum(row[k] * traces[k + j] for k in range(n)), den)
            if r:
                raise AssertionError("trace of an order element is not integral")
            form_row.append(q % p)
        form.append(form_row)
    kernel = left_kernel_mod_p(form, p)
    for c in _projective_vectors(len(kernel), p):
        v = [sum(ca * ka[i] for ca, ka in zip(c, kernel)) % p for i in range(n)]
        yield [sum(v[i] * basis[i][j] for i in range(n)) for j in range(n)]


def _enumerate_round(field: NumberField, order: Order, p: int, traces) -> Order | None:
    """One sweep over the projective points of the trace-form kernel mod p;
    returns the lattice enlarged by the first integral candidate, or None
    when there is none.  The enlarged lattice contains Z[beta] but need not
    be closed under products: only the lattice where a sweep finds nothing
    is known to be a ring (the p-maximal order)."""
    pd = p * order.den
    for w in _trace_candidates(order, p, traces):
        if is_algebraic_integer(field_elt(field, w, pd)):
            rows = [w] + [[p * x for x in row] for row in order.basis]
            return make_order(field, pd, rows)
    return None


def _start_order(field: NumberField, start) -> tuple[Order, list] | None:
    """(order, multiplication table) for the fingerprint start = (den, HNF
    rows), or None unless the lattice over den contains Z[beta] and is closed
    under multiplication."""
    den, basis = start
    order = Order(field, den, tuple(tuple(r) for r in basis))
    try:
        for i in range(field.n):
            solve_lower_coords(basis, [0] * i + [den])
        return order, _mult_table(field, order)
    except ValueError:  # den * beta^i or a product is outside the lattice over den
        return None


def _saturate(field: NumberField, p: int, strategy: str, start=None) -> Order:
    """p_maximal_order for a strategy already known to be valid.

    start is None or the fingerprint of a p-maximal order of the same degree
    (so canonical, with den a power of p); it is saturated from instead of
    Z[beta] when _start_order accepts it, and its table serves the first
    radical round.
    """
    if p_adic_valuation(field.disc, p) < 2:
        return power_order(field)  # index^2 divides the discriminant, so p cannot divide it
    accepted = None if start is None else _start_order(field, start)
    order, table = accepted or (power_order(field), None)
    traces = field_trace_powers(field, 2 * field.n - 2) if strategy == "enumerate" else None
    while True:
        if strategy == "radical":
            nxt = _radical_round(field, order, p, table or _mult_table(field, order))
        else:
            nxt = _enumerate_round(field, order, p, traces)
        if nxt is None:
            return order
        order, table = nxt, None


def p_maximal_order(field: NumberField, p: int, strategy: str = "radical") -> Order:
    """The smallest p-maximal order containing Z[beta]."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _saturate(field, p, strategy)


def candidate_primes(n: int) -> tuple[int, ...]:
    """{3} union the primes dividing n, ascending: the only primes that can
    divide the index under the squarefree gate."""
    return tuple(sorted({3} | set(factorize(n))))


def parameter_gate(n: int, t: int, gate: str = "strict") -> tuple[bool, str]:
    """Check the squarefree hypothesis on the parameter quadratic (on its
    3-free part under the relaxed gate) plus the existence of an Eisenstein
    witness prime, both from the memoized factorization of Q(t) that
    number_field reads again.  Returns (ok, reason)."""
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    q = disc_quadratic(n, t)
    fac = quadratic_factorization(n, t)
    square = next((p for p, e in fac if e > 1 and (gate == "strict" or p != 3)), None)
    if square is not None:
        tested = q if gate == "strict" else three_free_part(q)
        return False, f"not squarefree: {square}^2 divides {tested}"
    if witness_prime(fac) is None:
        return False, f"no Eisenstein witness prime: {q} has no simple prime factor other than 3"
    return True, "ok"


def join_orders(field: NumberField, orders) -> Order:
    """The order generated by the p-maximal orders of the candidate primes:
    all bases over the lcm of their denominators, canonicalized."""
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
    branch value 3^e * n^n.

    C bounds the denominator of every algebraic integer over the power basis
    (the exponent of O/Z[beta]); the index itself can exceed it in 3-power
    when 3 divides the parameter quadratic, since the discriminant carries
    n-1 copies of that quadratic.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    if n % 3 == 0:
        e = (n * n - 7 * n + 12) // 2
    else:
        e = (n * n - 3 * n + 4) // 2
    return largest_square_root_divisor(3**e * n**n)


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
