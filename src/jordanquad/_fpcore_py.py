"""The mod-p kernels, in pure Python.

All three functions operate on plain ints modulo an odd prime p < 2^31:
the exhaustive isotropic-vector search, and the full projective sweeps of
the source quadric and of the base locus, the hot loops of the
verification suites.

Every kernel checks the modulus before building anything: p must be an odd
prime below 2^31, and any other p raises the same ValueError.  The counters
below rely on p being prime (a nonzero residue is a unit), and so do the
square roots: a quadric sweep through at least (p - 1)/2 fibres reads the
last coordinate's roots from a table of the (p - 1)/2 nonzero squares,
which those fibres pay for, while isotropic_vector, which stops at the
first zero, and a shorter sweep take one square root mod p per fibre and
store nothing of size p.  At p near 2^31 that answers in milliseconds,
where a walk over every point can take a minute.  No walk stores range(p)
either: the odometers are nested generators.

Projective points are enumerated in canonical form, first nonzero
coordinate equal to 1, via an odometer on the trailing coordinates; the
canonical index of a point is its position in that order, and a sweep's
`limit` keeps the points with index below it.

A sweep takes (p, b, gamma, limit) and derives the rest: n = len(b), the
composition-algebra dimension m from len(gamma) = m^2, and the norm form
N(e_0) = gamma[0], N(e_t) = -gamma[t*m+t] (t >= 1).  Products are table
driven: e_i e_j = gamma[i*m+j] e_{i XOR j}, conjugation negates
coordinates 1..m-1.  Every b_i must be a unit mod p.

The sweeps skip the points that cannot pass the first test, so far fewer
points are visited than the space holds, while the counters (including
`scanned`, the number of points below the limit) are those of a test of
every point in canonical order; the tests compare them with per-point
evaluators.  Both sweeps run on one walk, _block_walk, of the canonical
points of P(C^{n-1}) as blocks c_0..c_{n-2} of m coordinates: the lead
block (the first nonzero one) from _points, each later block from
_tuples.  The walk fixes the blocks one level at a time and passes down
what the fixed blocks give the sweep, so an outer block is paid for once
for all the points below it; each sweep loops over the last block itself.

- Quadric points are walked fibre by fibre: the points sharing their
  first N-1 coordinates (the prefix) differ only in the last one, and the
  value of the form on the prefix picks the last coordinate's roots.
  The prefixes are the points of the walk, every block a candidate.
- A base-locus point has c_i conj(c_i) = 0 for every block, so only null
  blocks are candidates, and a level whose block fails a pair check
  skips every point below it.

The quadric sweep makes each check at the outermost level where
everything it reads is fixed.  On a fibre the blocks c_0..c_{n-2} are
fixed and the last block is x e_0, x a root.  The matrix entries
c_i conj(c_j) b_j with i, j < n-1 (the corner) depend on the prefix
alone.  The table product is bilinear, so column n-1 is
x c_i conj(e_0) b_n, row n-1 is x e_0 conj(c_j) b_j and the last diagonal
entry is x^2 gamma_00 b_n e_0, for any table.  Every b_i and every x != 0
is a unit because p is prime, so a check of x v = 0, or of x v = x w, is a
check of v = 0, or of v = w, and the b_i factor out of the same way: each
check splits into a part on the prefix's products and a test of x = 0 and
of the trace, made per point.  The prefix's part is an AND over its
blocks and its pairs of blocks.  The level that fixes block j reads that
block's facts from a cache and checks each pair (c_i, c_j), i < j, by
linear maps of c_j built at the level that fixed c_i.  The innermost
step moves only the last prefix block: it adds that block's norm to the
quadric value and looks up the roots, and only a fibre with roots pays
for that block's checks.  The base-locus sweep checks its pairs the same
way, one product c_i conj(c_j) per pair, and sums the corner of x(c)^2
level by level.
"""

import functools
import itertools
import operator

from .scalars import is_prime


def _check_modulus(p):
    """ValueError unless p is an odd prime below 2^31."""
    if not (2 < p < 1 << 31 and is_prime(p)):
        raise ValueError("p must be an odd prime below 2^31")


def isotropic_vector(p, coeffs):
    """First canonical projective vector v with sum coeffs[i] v_i^2 = 0
    (mod p), in (leading position, odometer) order; None if the form is
    anisotropic.  Each fibre's root comes from a square root mod p, so the
    search builds no table of size p.

    The leading positions are tried in turn.  A zero coefficient there makes
    e_L the answer.  Otherwise a later coordinate whose coefficient is zero
    does not change the form, so the first zero with that lead, if there is
    one, has it 0, and the walk runs on the form without those coordinates.
    What it walks has only unit coefficients: with two or more coordinates
    after the lead it has a zero there (a nondegenerate binary form
    represents every nonzero residue), found within a few fibres, and
    with fewer it is one fibre or none.  No lead costs a walk of length p."""
    _check_modulus(p)
    w = [c % p for c in coeffs]
    for lead, wl in enumerate(w):
        v = [0] * len(w)
        v[lead] = 1
        if not wl:
            return v
        live = [i for i in range(lead + 1, len(w)) if w[i]]
        for prefix, xs in _fibres(p, [wl] + [w[i] for i in live]):
            for i, x in zip(live, [*prefix[1:], xs[0]]):
                v[i] = x
            return v
    return None


def _sqrt_mod(a, p):
    """The least x with x^2 = a (mod p) for an odd prime p, or None when a
    is not a square: Euler's criterion, then Tonelli-Shanks."""
    a %= p
    if not a:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while not q % 2:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    # invariant x^2 = a t; t has order a power of 2, below 2^s, and each
    # round makes it smaller
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return min(x, p - x)


def _root_by_sqrt(p, wl):
    """The lookup v -> roots of wl x^2 = -v (x and p - x, or [0], or None
    when there is none) by one square root per fibre: for isotropic_vector
    and short quadric sweeps, which visit few fibres."""
    c = -pow(wl, -1, p)

    def roots(v):
        x = _sqrt_mod(c * v, p)
        if x is None:
            return None
        return [x, p - x] if x else [0]

    return roots


def _root_table(p, wl):
    """The lookup of _root_by_sqrt from a table of the (p - 1)/2 nonzero
    squares: for sweeps that visit at least that many fibres, which pay
    for it.  p prime gives distinct squares to x = 1 .. (p - 1)/2."""
    roots = {-wl * x * x % p: [x, p - x] for x in range(1, (p + 1) // 2)}
    roots[0] = [0]
    return roots.get


def _tuples(p, k, head=()):
    """Yield head + t for every t in F_p^k, in lexicographic order.  The
    walk is lazy in p: itertools.product would first store range(p) as a
    tuple of p ints."""
    pts = [head]
    for _ in range(k):
        pts = (h + (x,) for h in pts for x in range(p))
    return pts


def _points(p, N):
    """Yield canonical projective representatives of P^{N-1}(F_p)."""
    for lead in range(N):
        yield from _tuples(p, N - lead - 1, (0,) * lead + (1,))


def _fibres(p, w):
    """Yield, in canonical order, (prefix, xs) for every fibre holding zeros
    of sum w[i] v_i^2 (mod p), for a unit w[N-1]: the zeros are
    prefix + (x,) for x in xs, increasing.

    A fibre is the set of points sharing their first N-1 coordinates, the
    prefix canonical; the last coordinate's solutions are the roots of
    w[N-1] x^2 = -v, v the prefix's value, found by one square root per
    fibre.  The point e_N is not a zero, since w[N-1] is a unit."""
    lookup = _root_by_sqrt(p, w[-1] % p)
    for prefix in _points(p, len(w) - 1):
        xs = lookup(sum(wi * x * x for wi, x in zip(w, prefix)) % p)
        if xs:
            yield prefix, xs


def _conj_product(p, m, gamma):
    """The product x conj(y) of two m-coordinate blocks, as a function
    returning the list of residues.  It runs over the nonzero terms
    (s, t, s XOR t, +-gamma[s*m+t]) of the table, the sign from the
    conjugation of y, grouped by s so that a zero x_s skips its terms."""
    rows = [(s, [(t, s ^ t, -g if t else g) for t in range(m)
                 if (g := gamma[s * m + t] % p)]) for s in range(m)]

    def mul(x, y):
        out = [0] * m
        for s, row in rows:
            xs = x[s]
            if xs:
                for t, k, g in row:
                    out[k] += xs * y[t] * g
        return [v % p for v in out]

    return mul


def _conj(p, v):
    """The conjugate of a block: coordinates 1.. negated mod p."""
    return [v[0] % p, *(-x % p for x in v[1:])]


def _rows(cols):
    """The nonzero rows of the linear map whose column t is cols[t]."""
    return [r for r in zip(*cols) if any(r)]


def _in_kernel(rows, y, p):
    """Whether every row of a linear map mod p vanishes on the vector y."""
    for row in rows:
        if sum(map(operator.mul, row, y)) % p:
            return False
    return True


def _block_walk(p, m, nn, limit, candidates, fix, state):
    """Walk the canonical points of P(F_p^{m nn}) of index below `limit`,
    as nn blocks of m coordinates, fixing every block but the last: yield
    (f0, values, state) for each choice of blocks 0..nn-2 that is kept,
    values the last block's candidates, the point whose last block has
    index k having canonical index f0 + k.

    The first nonzero block, the lead, runs through _points(p, m), and
    each later block through _tuples(p, m).  The blocks before the lead
    are zero and left out, so fixing a zero block must leave a sweep's
    state as it was.  candidates(lead) gives a level's (k, value)
    pairs in increasing k, k the index of a block in that order and value
    the block or what the sweep keeps of it; a sweep may leave blocks out.
    Fixing block j calls fix(state, j, value), which returns the state
    passed down, or None to skip every point below.  A level stops at its
    first block past the limit, so the walk is as lazy in p as its
    candidates."""
    last = nn - 1

    def walk(j, values, f0, state):
        if j == last:
            yield f0, values, state
            return
        stride = p ** (m * (last - j))      # points per value of block j
        for k, cj in values:
            f = f0 + k * stride
            if f >= limit:
                return
            s = fix(state, j, cj)
            if s is not None:
                yield from walk(j + 1, candidates(False), f, s)

    f0 = 0                      # canonical index of the lead block's first point
    for i0 in range(nn):
        if f0 >= limit:
            return
        yield from walk(i0, candidates(True), f0, state)
        f0 += (p ** m - 1) // (p - 1) * p ** (m * (last - i0))


def _sweep_shape(p, b, gamma):
    """(n, m) of a sweep's inputs; ValueError unless p is an odd prime
    below 2^31, len(gamma) = m^2 with m in {1, 2, 4, 8} and every b_i is
    nonzero mod p."""
    _check_modulus(p)
    m = {1: 1, 4: 2, 16: 4, 64: 8}.get(len(gamma))
    if m is None:
        raise ValueError("len(gamma) must be 1, 4, 16 or 64")
    if any(x % p == 0 for x in b):
        raise ValueError("every b_i must be nonzero mod p")
    return len(b), m


def quadric_sweep(p, b, gamma, limit=-1):
    """Walk the canonical points of P(C^{n-1} x k) over F_p, restrict to
    the trace quadric, and verify the rank-one map pointwise.

    Returns (scanned, on_quadric, base_points, zslice_points,
    roundtrip_checked, roundtrip_fail, sym_fail, trace_fail, diag_fail).
    A nonnegative limit keeps the points of canonical index below it; only
    the points on the quadric are visited, one fibre at a time.

    The fibres' prefixes c_0..c_{n-2} are the points of _block_walk, every
    block a candidate.  The level that fixes block j adds its quadric and
    trace terms, ANDs its cached facts and checks the pairs (c_i, c_j),
    i < j, for the symmetry and for both products zero, and passes the
    sums and ANDs down.  The last prefix block adds its quadric term and
    looks up the roots; only a fibre with roots reads that block's facts
    and checks its pairs.  The checks that read x (the trace, the symmetry
    of row and column n-1, the base point and the round trip) are made
    per point.
    """
    n, m = _sweep_shape(p, b, gamma)
    N = m * (n - 1) + 1
    space = (p ** N - 1) // (p - 1)
    scanned = space if limit < 0 else min(limit, space)
    on_quadric = base_points = zslice_points = 0
    roundtrip_checked = roundtrip_fail = 0
    sym_fail = trace_fail = diag_fail = 0
    mul = _conj_product(p, m, gamma)
    basis = [tuple(int(s == t) for s in range(m)) for t in range(m)]
    e0 = basis[0]
    pf = [gamma[0]] + [-gamma[t * m + t] for t in range(1, m)]
    # the last block is x e_0 and its diagonal entry x^2 g e_0, which for a
    # unit x is the round trip's b_n x (x e_0) exactly when gamma_00 = 1
    g = gamma[0] * b[n - 1] % p
    # fibres holding a point below the limit; the table of squares costs
    # (p - 1)/2 entries, and a sweep through fewer fibres than that takes a
    # square root per fibre instead
    nfib = -(-scanned // p)
    roots = _root_table if nfib >= (p - 1) // 2 else _root_by_sqrt
    lookup = roots(p, b[n - 1] % p)

    # the last prefix block runs through all p^m values in order, so a
    # cache smaller than that evicts each entry before its next use; at
    # about 250 bytes an entry the cap holds it near 16 MiB
    @functools.lru_cache(maxsize=min(p ** m, 1 << 16))
    def block(ci):
        """What block c_i alone gives the checks: its norm N(c_i), whether
        c_i conj(c_i) is not scalar, its scalar part, whether it is 0,
        whether C_i = conj(R_i) and whether C_i = c_i, where
        C_i = c_i conj(e_0) and R_i = e_0 conj(c_i)."""
        d = mul(ci, ci)
        col, row = mul(ci, e0), mul(e0, ci)
        return (sum(map(operator.mul, pf, map(operator.mul, ci, ci))),
                any(d[1:]), d[0], not any(d), col == _conj(p, row), col == list(ci))

    # mat[i][j] = c_i conj(c_j) b_j has column n-1 x C_i b_n and row n-1
    # x R_j b_j; the b_j are units, so the products without them decide
    # every check but the trace.  What the fixed blocks give: the quadric
    # value s, the trace tr, the nonscalar diagonal entries, zero (every
    # c_i conj(c_j) = 0), sym (sigma_b symmetry on the corner), sym_x (on
    # row and column n-1), good (column n-1 is b_n x c) and the rows that
    # check a later block y against them.  The rows are those of two
    # linear maps of y, whose column t is their value at e_t since the
    # table product is bilinear: y -> c_i conj(y) - conj(y conj(c_i)) for
    # the symmetry, and y -> (c_i conj(y), y conj(c_i)) for both products 0.
    def fix(state, j, cj):
        s, tr, nonscalar, zero, sym, sym_x, good, sym_rows, zero_rows = state
        nrm, ns, d0, null, sx, col = block(cj)
        us = [mul(cj, et) for et in basis]
        vs = [mul(et, cj) for et in basis]
        sym_cols = [[(u[0] - v[0]) % p, *((x + y) % p for x, y in zip(u[1:], v[1:]))]
                    for u, v in zip(us, vs)]
        return (s + b[j] * nrm, tr + b[j] * d0, nonscalar + ns,
                zero and null and _in_kernel(zero_rows, cj, p),
                sym and _in_kernel(sym_rows, cj, p), sym_x and sx, good and col,
                sym_rows + _rows(sym_cols), zero_rows + _rows(us) + _rows(vs))

    bl = b[n - 2]               # the last prefix block's b
    w = [bl * x for x in pf]
    walk = _block_walk(p, m, n - 1, nfib,
                       lambda lead: enumerate(_points(p, m) if lead else _tuples(p, m)),
                       fix, (0, 0, 0, True, True, True, gamma[0] % p == 1, [], []))
    for f0, values, (s, tr, nonscalar, zero, sym, sym_x, good, sym_rows, zero_rows) in walk:
        # the last block's quadric term is summed here, and its cached facts
        # are read only on a fibre with roots
        for k, cj in itertools.islice(values, nfib - f0):
            xs = lookup((s + sum(map(operator.mul, w, map(operator.mul, cj, cj)))) % p)
            if not xs:
                continue
            f = f0 + k
            if (f + 1) * p > scanned:
                xs = [x for x in xs if f * p + x < scanned]
                if not xs:
                    continue
            _, ns, d0, null, sx, col = block(cj)
            z = zero and null and _in_kernel(zero_rows, cj, p)
            sy = sym and _in_kernel(sym_rows, cj, p)
            sx = sym_x and sx
            ok = good and col
            t = tr + bl * d0
            on_quadric += len(xs)
            # diagonal entries scalar; trace equals the quadric value (0 here)
            diag_fail += len(xs) * (nonscalar + ns)
            for x in xs:
                if (t + g * x * x) % p:
                    trace_fail += 1
                # sigma_b symmetry: b_i mat[i][j] = b_j conj(mat[j][i]), that
                # is c_i conj(c_j) = conj(c_j conj(c_i)); on the corner
                # (i, j < n-1) for all x, on row and column n-1 for a unit x
                if not (sy and (sx or not x)):
                    sym_fail += 1
                # a zero matrix is a base point, with nothing more to test:
                # the b_j are units, so every c_i conj(c_j) = 0, and on the
                # quadric the first n-1 diagonal entries sum to -b_n x^2, so
                # x = 0; the corner is zero exactly then
                if z:
                    base_points += 1
                # column n of the matrix, c_i conj(x) b_n, is the inverse
                # map's slice; x = 0 makes it vanish: the inverse base locus
                elif not x:
                    zslice_points += 1
                else:
                    # column n equals b_n x c, block by block
                    roundtrip_checked += 1
                    roundtrip_fail += not ok
    return (scanned, on_quadric, base_points, zslice_points,
            roundtrip_checked, roundtrip_fail, sym_fail, trace_fail,
            diag_fail)


def z1_sweep(p, b, gamma, limit=-1):
    """Walk P(C^{n-1}) over F_p and compare two membership predicates for
    the source base locus: all products c_i conj(c_j) = 0, and the square
    of the half-space element x(c) vanishing.  Returns (scanned, z1_points,
    equiv_fail).  A nonnegative limit keeps the points of canonical index
    below it.

    Off-locus points fail the first predicate; there x(c)^2 != 0 too (its
    entries include the b_j c_i conj(c_j), and the b_j are units), so the
    predicates agree with nothing left to verify.  The points are those of
    _block_walk whose every block c_i is null, c_i conj(c_i) = 0: the
    candidates are the null blocks among the first `scanned` of each
    order, as a block's index never exceeds that of a point holding it.
    c_j conj(c_i) is the conjugate of c_i conj(c_j), so the pairs i < j
    decide the rest: the level that fixes c_j checks c_i conj(c_j) = 0 for
    each fixed c_i, by the rows of y -> c_i conj(y) built where c_i was
    fixed, and skips every point below at the first that fails.  The
    remaining entry of x(c)^2 is the corner, b_n^{-1} times
    sum_k b_k conj(c_k) c_k, summed level by level; it must vanish on the
    locus.
    """
    n, m = _sweep_shape(p, b, gamma)
    nn = n - 1
    space = (p ** (m * nn) - 1) // (p - 1)
    scanned = space if limit < 0 else min(limit, space)
    z1_points = equiv_fail = 0
    mul = _conj_product(p, m, gamma)
    basis = [tuple(int(s == t) for s in range(m)) for t in range(m)]

    def null(blocks):
        """(k, (c, conj(c) c, rows of y -> c conj(y))) for each null block
        c of index k < scanned in `blocks`."""
        out = []
        for k, c in zip(range(scanned), blocks):
            if not any(mul(c, c)):
                cc = _conj(p, c)
                out.append((k, (c, mul(cc, cc), _rows([mul(c, et) for et in basis]))))
        return out

    leads, rest = null(_points(p, m)), null(_tuples(p, m))

    def fix(state, j, blk):
        corner, rows = state
        c, term, c_rows = blk
        if not _in_kernel(rows, c, p):
            return None
        return [u + b[j] * v for u, v in zip(corner, term)], rows + c_rows

    walk = _block_walk(p, m, nn, scanned, lambda lead: leads if lead else rest,
                       fix, ([0] * m, []))
    for f0, values, (corner, rows) in walk:
        for k, (c, term, _) in values:
            if f0 + k >= scanned:
                break
            if _in_kernel(rows, c, p):
                z1_points += 1
                equiv_fail += any((u + b[nn - 1] * v) % p for u, v in zip(corner, term))
    return scanned, z1_points, equiv_fail
