"""The hot integer kernels: dense polynomial and lattice arithmetic over Z.

Polynomials are dense coefficient lists of Python ints, index i =
coefficient of X^i, no trailing zeros unless stated otherwise.  Matrices are
sequences of rows.  A row argument (``rows`` of ``vec_reduce_mod_rows``,
``solve_lower_coords`` and ``hnf_rows``) may be a tuple or a list: the
kernels only index it and never write to it, so an order's fingerprint rows
(tuples, as ``orders._start_order`` passes them) serve directly.
"""


def zx_trim(a):
    """Drop trailing zero coefficients (in place semantics avoided: returns a list)."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def zx_mul(a, b):
    """Product of two dense integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def zx_mod(a, f):
    """Remainder of a modulo the monic integer polynomial f (len f >= 1)."""
    n = len(f) - 1
    r = list(a)
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            base = i - n
            for j in range(n):
                r[base + j] -= c * f[j]
    del r[n:]
    return zx_trim(r)


def zx_mulmod(a, b, f):
    """a*b reduced modulo the monic integer polynomial f."""
    return zx_mod(zx_mul(a, b), f)


def zx_divexact(v, d):
    """Divide every entry of v by d; every division must be exact."""
    out = []
    for x in v:
        q, r = divmod(x, d)
        if r:
            raise ValueError("non-exact division in zx_divexact")
        out.append(q)
    return out


def vec_reduce_mod_rows(w, rows, scale):
    """Reduce vector w modulo the lattice spanned by scale*rows.

    rows must be a lower-triangular basis with positive diagonal (row i has
    pivot at column i).  Size-control only: the class of w modulo the
    lattice is preserved.
    """
    n = len(rows)
    w = list(w) + [0] * (n - len(w))
    for k in range(n - 1, -1, -1):
        m = scale * rows[k][k]
        q = w[k] // m
        if q:
            row = rows[k]
            for j in range(k + 1):
                w[j] -= q * scale * row[j]
    return w


def solve_lower_coords(rows, w):
    """Solve c . rows = w exactly over the integers.

    rows is a lower-triangular lattice basis with positive diagonal.
    Raises ValueError when w is not in the lattice.
    """
    n = len(rows)
    w = list(w) + [0] * (n - len(w))
    c = [0] * n
    for k in range(n - 1, -1, -1):
        q, r = divmod(w[k], rows[k][k])
        if r:
            raise ValueError("vector not in lattice")
        c[k] = q
        if q:
            row = rows[k]
            for j in range(k + 1):
                w[j] -= q * row[j]
    for x in w:
        if x:
            raise ValueError("vector not in lattice")
    return c


def hnf_rows(rows, ncols):
    """Row-style Hermite normal form of the lattice spanned by rows.

    Convention: lower-triangular echelon.  Output rows are ordered by
    ascending pivot column, pivots are positive, and every entry below a
    pivot (same column, later row) lies in [0, pivot).  Zero rows are
    dropped, so the output has rank(rows) rows.
    """
    work = [list(r) for r in rows if any(r)]
    pivots = []  # (col, row) pairs, col descending
    for col in range(ncols - 1, -1, -1):
        # gather rows whose highest nonzero column is col
        active = []
        rest = []
        for r in work:
            deg = ncols - 1
            while deg >= 0 and r[deg] == 0:
                deg -= 1
            if deg == col:
                active.append(r)
            else:
                rest.append(r)
        if not active:
            work = rest
            continue
        piv = active[0]
        for r in active[1:]:
            # extended gcd combination on the pivot column
            while r[col]:
                q = piv[col] // r[col]
                if q:
                    for j in range(col + 1):
                        piv[j] -= q * r[j]
                piv, r = r, piv
            rest.append(r)
        if piv[col] < 0:
            for j in range(col + 1):
                piv[j] = -piv[j]
        pivots.append((col, piv))
        work = rest
    pivots.reverse()  # ascending pivot column
    out = [r for _, r in pivots]
    # reduce entries below each pivot into [0, pivot); descending pivot order
    # so a reduction never disturbs an already-reduced later column
    for i in range(len(pivots) - 1, -1, -1):
        ci, rowi = pivots[i]
        p = rowi[ci]
        for k in range(i + 1, len(pivots)):
            rowk = pivots[k][1]
            q = rowk[ci] // p
            if q:
                for j in range(ci + 1):
                    rowk[j] -= q * rowi[j]
    return out


def _prem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a modulo b, fraction-free."""
    da = len(a) - 1
    db = len(b) - 1
    lb = b[db]
    r = list(a)
    for k in range(da - db, -1, -1):
        top = r[db + k]
        for i in range(len(r)):
            r[i] *= lb
        if top:
            for j in range(db + 1):
                r[j + k] -= top * b[j]
        del r[db + k]
    return zx_trim(r)


def zx_resultant(a, b):
    """Resultant of two nonzero integer polynomials via the subresultant PRS.

    Convention: res(A, B) = lc(A)^deg(B) * prod B(alpha) over the roots of A,
    so res(A, B) = (-1)^(deg A * deg B) res(B, A) and res(const c, B) = c^deg(B).
    """
    a = zx_trim(a)
    b = zx_trim(b)
    if not a or not b:
        raise ValueError("resultant of zero polynomial")
    da = len(a) - 1
    db = len(b) - 1
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if (da & 1) and (db & 1):
            sign = -1
    if db == 0:
        return sign * b[0] ** da
    g = 1
    h = 1
    while True:
        delta = da - db
        if (da & 1) and (db & 1):
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0  # common factor of positive degree
        a, b = b, r
        da = len(a) - 1
        denom = g * h**delta
        b = [c // denom for c in b]
        db = len(b) - 1
        g = a[da]
        if delta:
            h = g**delta // h ** (delta - 1)
        if db == 0:
            break
    # final constant subresultant: b0^deg(a) / h^(deg(a)-1), exact
    res = b[0] ** da // h ** (da - 1) if da > 1 else b[0] ** da
    return sign * res
