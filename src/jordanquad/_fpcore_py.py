"""The mod-p kernels, in pure Python, and the composition-algebra product
on plain integers.

The three kernels operate on plain ints modulo an odd prime p < 2^31:
the exhaustive isotropic-vector search, and the full projective sweeps of
the source quadric and of the base locus, the hot loops of the
verification suites.

The product (_mul_acc, _product, _conj) is the package's only one:
cayley_dickson, jordan, birational and the sweeps use it.  This module
imports only scalars, since quadform, which cayley_dickson imports,
imports it.

Every kernel checks the modulus before building anything: p must be an odd
prime below 2^31, and any other p raises the same ValueError.  The counters
below rely on p being prime (a nonzero residue is a unit), and so do the
square roots.  The last coordinate's roots on a fibre (of the quadric, or
of the norm for the base locus's null blocks) come from one lookup,
_roots, which takes one square root mod p for each fibre value on its
first request, by scalars.is_residue and Tonelli-Shanks on
scalars.least_nonresidue, searched once per prime, and keeps it:
isotropic_vector, which stops at the first zero, stores nothing of size
p, and a sweep stores at most p answers.  At p near 2^31 that answers in
milliseconds, where a walk over every point can take a minute.  No walk
stores range(p) either: _tuples draws lazily, and a level of the block
walk holds no more states than the choices of blocks it replaces.  The
quadric sweep's count of the later last prefix blocks by norm holds one
entry per residue, so it is bounded by p.

Projective points are enumerated in canonical form, first nonzero
coordinate equal to 1, via an odometer on the trailing coordinates.

A sweep takes (p, b, gamma) and derives the rest: n = len(b), the
composition-algebra dimension m = len(gamma), gamma being m rows of m
entries, and the norm form N(e_0) = gamma[0][0], N(e_t) = -gamma[t][t]
(t >= 1).  Products are table driven: e_i e_j = gamma[i][j] e_{i XOR j},
conjugation negates coordinates 1..m-1.  Every b_i must be a unit mod p.

Each sweep reads the m^2 products E[s][t] = e_s conj(e_t) off the table
once, +-gamma_st e_{s XOR t} with the minus sign for t >= 1, and splits
at its top on whether they are those of a composition table
(_composition_table), as every Cayley-Dickson table's are.  Any other
table, which no caller builds, is walked point by point (_quadric_points,
_z1_points), each check made on the point's matrix c_i conj(c_j) b_j.

On a composition table c conj(c) is the scalar N(c), the norm, and a
point's matrix is sigma_b-symmetric, with trace the quadric's value and
column n-1 b_n x c, so only the base-locus checks are left.  The
structured walk skips the points that cannot pass the first test, while
the counters (including `scanned`, the number of points of the space)
are those of a test of every point.  Both sweeps run on one walk,
_block_walk, of the canonical points of P(C^{n-1}) as blocks
c_0..c_{n-2} of m coordinates: the lead block (the first nonzero one)
from _points, each later block from _tuples.  The walk fixes the blocks
one level at a time and passes down what the fixed blocks give the
sweep, its state, reduced mod p; the choices of blocks that leave one
state merge, so a level costs its distinct states times its blocks, and
each sweep runs the last block once per distinct state and multiplies
its counters.  Where a state's last blocks are the null vectors of a
kernel, _null_count reads their number off the rank and discriminant of
the norm on the kernel.

- Quadric points are walked fibre by fibre: the points sharing their
  first N-1 coordinates (the prefix) differ only in the last one, and the
  value of the form on the prefix picks the last coordinate's roots.
- A base-locus point has N(c_i) = 0 for every block, so only null blocks
  are candidates, found once per sweep from the norm's fibres, and a
  level whose block fails a pair check skips every point below it.
"""

import collections
import functools
import itertools
import math
import operator

from .scalars import is_prime, is_residue, least_nonresidue

# at most this many blocks' norms are held in a sweep's block cache
_BLOCK_CAP = 1 << 16


def projective_size(p, N):
    """(p^N - 1)/(p - 1), the number of points of P^{N-1}(F_p)."""
    return (p ** N - 1) // (p - 1)


def _null_count(p, pf, rows):
    """The number of y in F_p^m, m = len(pf), with rows y = 0 and
    sum_t pf[t] y_t^2 = 0, y = 0 among them, for rows in reduced echelon
    form.  On the w vectors of _kernel_basis the form's Gram matrix
    diagonalizes to k units of product d, and a form of rank k on F_p^w
    has p^(w-k) Z_k zeros: Z_0 = 1, Z_k = p^(k-1) for odd k and
    p^(k-1) + chi((-1)^(k/2) d) (p-1) p^(k/2-1) for even k (Lidl and
    Niederreiter, Finite Fields, Thms 6.26-6.27)."""
    basis = _kernel_basis(len(pf), rows)
    diag = _diagonalize_gram(p, [[sum(map(operator.mul, pf, map(operator.mul, u, v))) % p
                                  for v in basis] for u in basis])
    w, k = len(basis), len(diag)
    if not k:
        return p ** w
    if k % 2:
        return p ** (w - 1)
    chi = 1 if is_residue(math.prod(diag, start=(-1) ** (k // 2)) % p, p) else -1
    return p ** (w - 1) + chi * (p - 1) * p ** (w - k // 2 - 1)


def _diagonalize_gram(p, gram):
    """The nonzero diagonal coefficients, as residues, of a symmetric matrix
    of residues mod an odd prime p, as many as its rank, by the standard
    pivot/clear algorithm."""
    m = [row[:] for row in gram]
    k = len(m)
    diag = []
    rows = list(range(k))
    while rows:
        # a nonzero diagonal pivot, made from m[i][j] != 0 by adding row and
        # column j to row and column i when the diagonal is zero (2 is a unit)
        piv = next((i for i in rows if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in rows for j in rows if i != j and m[i][j]), None)
            if pair is None:
                break  # remaining block is zero; form was degenerate there
            piv, j = pair
            for t in rows:
                m[piv][t] = (m[piv][t] + m[j][t]) % p
            for t in rows:
                m[t][piv] = (m[t][piv] + m[t][j]) % p
        d = m[piv][piv]
        diag.append(d)
        rows.remove(piv)
        d_inv = pow(d, -1, p)
        for i in rows:
            if m[i][piv]:
                lam = m[i][piv] * d_inv % p
                for t in range(k):
                    m[i][t] = (m[i][t] - lam * m[piv][t]) % p
                for t in range(k):
                    m[t][i] = (m[t][i] - lam * m[t][piv]) % p
    return diag


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
    is not a square: is_residue, then Tonelli-Shanks on least_nonresidue."""
    a %= p
    if not a:
        return 0
    if not is_residue(a, p):
        return None
    q, s = p - 1, 0
    while not q % 2:
        q, s = q // 2, s + 1
    z = least_nonresidue(p)
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


def _roots(p, wl):
    """The lookup v -> roots of wl x^2 = -v (mod p), v reduced and wl a
    unit: (x, p - x) with x < p - x, (0,) at v = 0, None when there is
    none.  Each value takes one square root mod p, on its first request,
    and keeps the answer, so the lookup holds at most p entries and never
    more than the values asked for."""
    c = -pow(wl, -1, p)

    @functools.cache
    def roots(v):
        x = _sqrt_mod(c * v, p)
        if x is None:
            return None
        return (x, p - x) if x else (0,)

    return roots


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
    w[N-1] x^2 = -v, v the prefix's value, from _roots.  The point e_N is
    not a zero, since w[N-1] is a unit."""
    lookup = _roots(p, w[-1] % p)
    for prefix in _points(p, len(w) - 1):
        xs = lookup(sum(wi * x * x for wi, x in zip(w, prefix)) % p)
        if xs:
            yield prefix, xs


def _mul_acc(gamma, x, y, out):
    """out[i ^ j] += x_i y_j gamma[i][j] over the nonzero plain values of
    x and y; nothing is reduced."""
    for i, xi in enumerate(x):
        if xi:
            row = gamma[i]
            for j, yj in enumerate(y):
                if yj:
                    out[i ^ j] += xi * yj * row[j]


def _product(gamma, x, y):
    """The plain values of x y over the table's denominator, unreduced."""
    out = [0] * len(x)
    _mul_acc(gamma, x, y, out)
    return out


def _conj(u):
    return [u[0]] + [-a for a in u[1:]]


def _basis_products(p, gamma):
    """E[s][t] = e_s conj(e_t), +-gamma[s][t] at s XOR t (minus for
    t >= 1), read off the table.  The product is bilinear, so
    c conj(y) = sum_{s,t} c_s y_t E[s][t]."""
    m = len(gamma)
    E = [[[0] * m for _ in range(m)] for _ in range(m)]
    for s, t in itertools.product(range(m), repeat=2):
        g = gamma[s][t]
        E[s][t][s ^ t] = (-g if t else g) % p
    return E


def _composition_table(p, E):
    """Whether the products E[s][t] = e_s conj(e_t) are those of a
    composition table: e_s conj(e_t) = conj(e_t conj(e_s)) for all s, t,
    and e_s conj(e_0) = e_s.  By bilinearity the first makes
    c conj(y) = conj(y conj(c)) for all c and y, so c conj(c) is the scalar
    N(c); the second makes c conj(e_0) = c and gamma_00 = 1."""
    m = len(E)
    return all(E[s][0][s] == 1 and all(E[s][t] == [v % p for v in _conj(E[t][s])]
                                       for t in range(m)) for s in range(m))


def _linear_rows(p, images):
    """c -> the tuple of nonzero rows of sum_s c_s M_s mod p, images[s] the
    columns of the linear map M_s: for maps linear in a block c, each M_s
    its value at c = e_s.  The entries are read once."""
    width = len(images[0])
    entries = list(zip(*(itertools.chain.from_iterable(zip(*cols)) for cols in images)))

    def rows(c):
        flat = [sum(map(operator.mul, c, e)) % p for e in entries]
        return tuple(r for r in zip(*[iter(flat)] * width) if any(r))

    return rows


def _in_kernel(rows, y, p):
    """Whether every row of a linear map mod p vanishes on the vector y."""
    for row in rows:
        if sum(map(operator.mul, row, y)) % p:
            return False
    return True


def _echelon(p, rows):
    """The reduced row echelon form mod p of the span of `rows`, as a
    tuple of tuples in increasing pivot order, each pivot 1."""
    out = {}                    # pivot column -> row
    for r in rows:
        for j, e in out.items():
            if r[j]:
                r = [(x - r[j] * y) % p for x, y in zip(r, e)]
        j = next((j for j, x in enumerate(r) if x % p), None)
        if j is not None:
            inv = pow(r[j], -1, p)
            r = [x * inv % p for x in r]
            out = {i: [(x - e[j] * y) % p for x, y in zip(e, r)] if e[j] else e
                   for i, e in out.items()}
            out[j] = r
    return tuple(tuple(out[j]) for j in sorted(out))


def _kernel_basis(m, rows):
    """A basis of the kernel in F_p^m of rows in reduced echelon form: for
    each free coordinate the vector that is 1 there, 0 at the other free
    ones and minus the rows' entries at their pivots."""
    pivots = {row.index(1): row for row in rows}
    return [tuple(-pivots[i][j] if i in pivots else int(i == j) for i in range(m))
            for j in range(m) if j not in pivots]


def _block_walk(p, m, nn, candidates, fix, state):
    """Walk the canonical points of P(F_p^{m nn}) as nn blocks of m
    coordinates, fixing every block but the last one level at a time:
    return {(lead, state): mult}, the states left by the choices of blocks
    0..nn-2, mult choices each, lead whether the last block is the first
    nonzero one.

    The first nonzero block, the lead, runs through _points(p, m), and
    each later block through _tuples(p, m).  The blocks before the lead
    are zero and left out, so fixing a zero block must leave a sweep's
    state as it was.  candidates(lead) gives a level's blocks, or what the
    sweep keeps of them, in that order; a sweep may leave blocks out.
    Fixing block j calls fix(state, j, value), which returns the state
    passed down, hashable, or None to skip every point below.  The choices
    that leave one state merge, as nothing below a state reads anything
    else."""
    level = collections.Counter()
    for j in range(nn - 1):
        level[True, state] += 1
        below = collections.Counter()
        for (lead, s0), mult in level.items():
            for cj in candidates(lead):
                if (s := fix(s0, j, cj)) is not None:
                    below[False, s] += mult
        level = below
    level[True, state] += 1
    return level


def _sweep_shape(p, b, gamma):
    """(n, m) of a sweep's inputs; ValueError unless p is an odd prime
    below 2^31, gamma is m rows of m entries with m in {1, 2, 4, 8} and
    every b_i is nonzero mod p."""
    _check_modulus(p)
    m = len(gamma)
    if m not in (1, 2, 4, 8) or any(not isinstance(row, (list, tuple)) or len(row) != m
                                    for row in gamma):
        raise ValueError("gamma must be m rows of m entries, m in {1, 2, 4, 8}")
    if any(x % p == 0 for x in b):
        raise ValueError("every b_i must be nonzero mod p")
    return len(b), m


def _norm_form(gamma):
    """The norm form's coefficients N(e_t), read from the table's diagonal:
    the e_0 coordinate of c conj(c) is sum_t N(e_t) c_t^2, for any table."""
    return [gamma[0][0]] + [-gamma[t][t] for t in range(1, len(gamma))]


def quadric_sweep(p, b, gamma):
    """Walk the canonical points of P(C^{n-1} x k) over F_p, restrict to
    the trace quadric, and verify the rank-one map pointwise.

    Returns (scanned, on_quadric, base_points, zslice_points,
    roundtrip_checked, roundtrip_fail, sym_fail, trace_fail, diag_fail).
    A table that is not a composition table is walked point by point, by
    _quadric_points.  On a composition table the four `*_fail` checks
    hold at every point, and only the points on the quadric are counted,
    one fibre at a time.

    The fibres' prefixes c_0..c_{n-2} are the points of _block_walk.  The
    level that fixes block j adds its quadric term b_j N(c_j) mod p and,
    while the fixed blocks' products c_i conj(c_k) are all zero, the rows
    of y -> c_j conj(y) in reduced echelon form: a later null block keeps
    the products zero when the rows vanish on it, as y conj(c_j) is the
    conjugate of c_j conj(y).  The last prefix block's candidates are
    counted by norm, and each distinct state looks up the roots once per
    norm.  While the fixed blocks' products are zero the prefix's value is
    0, so a block of norm 0 has the one root x = 0, and the null vectors
    of the rows' kernel (_null_count; every null block when there are no
    rows) are the base points.  Of the other points, those with x = 0 are
    on the inverse map's base locus (zslice_points), the rest round trips.
    """
    n, m = _sweep_shape(p, b, gamma)
    E = _basis_products(p, gamma)
    if not _composition_table(p, E):
        return _quadric_points(p, b, gamma)
    pf = _norm_form(gamma)
    left = _linear_rows(p, E)           # c -> the rows of y -> c conj(y)
    lookup = _roots(p, b[n - 1] % p)
    bl = b[n - 2]                       # the last prefix block's b

    # the fixed levels and the lead's count read every block's norm; a
    # cache smaller than p^m evicts each entry before its next use
    @functools.lru_cache(maxsize=min(p ** m, _BLOCK_CAP))
    def norm(c):
        return sum(map(operator.mul, pf, map(operator.mul, c, c))) % p

    def fix(state, j, cj):
        s, zero, rows = state
        zero = zero and not norm(cj) and _in_kernel(rows, cj, p)
        return (s + b[j] * norm(cj)) % p, zero, _echelon(p, rows + left(cj)) if zero else ()

    def candidates(lead):
        return _points(p, m) if lead else _tuples(p, m)

    @functools.cache
    def norms(lead):
        """{N(c): count} over the last prefix block's candidates: the
        lead's one by one, a later block's one coordinate at a time."""
        if lead:
            return collections.Counter(map(norm, _points(p, m)))
        counts = {0: 1}
        for a in pf:
            added = collections.Counter()
            for x in range(p):
                for v, cnt in counts.items():
                    added[(v + a * x * x) % p] += cnt
            counts = added
        return counts

    on_quadric = base_points = zslice_points = roundtrip_checked = 0
    for (lead, (s, zero, rows)), mult in _block_walk(p, m, n - 1, candidates, fix,
                                                     (0, True, ())).items():
        for v, cnt in norms(lead).items():
            xs = lookup((s + bl * v) % p)
            if not xs:
                continue
            cnt *= mult
            on_quadric += cnt * len(xs)
            if zero and not v:
                nulls = mult * _null_count(p, pf, rows) if rows else cnt
                base_points += nulls
                cnt -= nulls
            nz = len(xs) if xs[0] else 0        # the roots x != 0
            zslice_points += cnt * (len(xs) - nz)
            roundtrip_checked += cnt * nz
    return (projective_size(p, m * (n - 1) + 1), on_quadric, base_points, zslice_points,
            roundtrip_checked, 0, 0, 0, 0)


def _quadric_points(p, b, gamma):
    """quadric_sweep's counters for any table, point by point: each check
    is made on the matrix mat[i][j] = c_i conj(c_j) b_j of each point on
    the quadric, the last block being x e_0."""
    n, m = len(b), len(gamma)
    w = [bi * a for bi in b[:-1] for a in _norm_form(gamma)] + [b[-1]]
    counts = [0] * 9
    for pt in _points(p, len(w)):
        counts[0] += 1
        if sum(map(operator.mul, w, map(operator.mul, pt, pt))) % p:
            continue
        x = pt[-1]
        blocks = [pt[i:i + m] for i in range(0, len(w) - 1, m)] + [(x,) + (0,) * (m - 1)]
        mat = [[[v * bj % p for v in _product(gamma, ci, _conj(cj))]
                for cj, bj in zip(blocks, b)] for ci in blocks]
        counts[1] += 1
        if not any(map(any, itertools.chain.from_iterable(mat))):
            counts[2] += 1
        elif not x:
            counts[3] += 1
        else:
            counts[4] += 1
            counts[5] += any(col[n - 1] != [b[-1] * x * v % p for v in c]
                             for col, c in zip(mat, blocks))
        counts[6] += any([b[i] * v % p for v in mat[i][j]] !=
                         [b[j] * v % p for v in _conj(mat[j][i])]
                         for i in range(n) for j in range(i + 1, n))
        counts[7] += sum(mat[i][i][0] for i in range(n)) % p != 0
        counts[8] += sum(any(mat[i][i][1:]) for i in range(n))
    return tuple(counts)


def z1_sweep(p, b, gamma):
    """Walk P(C^{n-1}) over F_p and compare two membership predicates for
    the source base locus: all products c_i conj(c_j) = 0, and the square
    of the half-space element x(c) vanishing.  Returns (scanned, z1_points,
    equiv_fail).  A table that is not a composition table is walked point
    by point, by _z1_points.

    Off-locus points fail the first predicate; there x(c)^2 != 0 too (its
    entries include the b_j c_i conj(c_j), and the b_j are units), so the
    predicates agree with nothing left to verify.  On a composition table
    c_j conj(c_i) is the conjugate of c_i conj(c_j), so the blocks' norms
    and the pairs i < j decide the locus.  Its points are those of
    _block_walk whose every block is null: the candidates are the null
    blocks of each order, read from the norm's fibres.  The level that
    fixes c_j checks c_i conj(c_j) = 0 for each fixed c_i, by the rows of
    y -> c_i conj(y) built where c_i was fixed and kept in reduced echelon
    form, and skips every point below at the first that fails.  The
    remaining entry of x(c)^2 is the corner, b_n^{-1} times
    sum_k b_k conj(c_k) c_k, summed level by level mod p; it must vanish
    on the locus.  A state is the corner and the rows, and each distinct
    one is walked once, its counters times its number of prefixes.  The
    last block's points are the null vectors of the rows' kernel, or, for
    a state without rows, such as the lead's, the null blocks; conj(c) c
    = N(c) is 0 on them, so a state adds their number (_null_count) to
    z1_points, and to equiv_fail when its corner is not 0.
    """
    n, m = _sweep_shape(p, b, gamma)
    E = _basis_products(p, gamma)
    if not _composition_table(p, E):
        return _z1_points(p, b, gamma)
    z1_points = equiv_fail = 0
    left = _linear_rows(p, E)           # c -> the rows of y -> c conj(y)
    pf = _norm_form(gamma)
    wl = pf[-1] % p
    if wl:
        roots = _roots(p, wl)
    else:
        # N(e_{m-1}) = 0: every x is a root on a prefix of value 0
        def roots(v):
            return None if v else range(p)

    @functools.cache
    def null(lead):
        """The null blocks in the lead order or the later one.  The prefixes
        of m - 1 coordinates run in that order, _points or _tuples, each
        giving the blocks prefix + (x,) for the roots x of the norm on it.
        The lead order ends with e_{m-1}, null when N(e_{m-1}) = 0."""
        out = [(*pre, x) for pre in (_points(p, m - 1) if lead else _tuples(p, m - 1))
               for x in roots(sum(map(operator.mul, pf, map(operator.mul, pre, pre))) % p) or ()]
        if lead and not wl:
            out.append((0,) * (m - 1) + (1,))
        return out

    # only the fixed blocks read their term conj(c) c; at most _BLOCK_CAP
    # of them are held
    @functools.lru_cache(maxsize=min(p ** m, _BLOCK_CAP))
    def term(c):
        return [v % p for v in _product(gamma, _conj(c), c)]

    def fix(state, j, c):
        corner, rows = state
        if not _in_kernel(rows, c, p):
            return None
        return (tuple((u + b[j] * v) % p for u, v in zip(corner, term(c))),
                _echelon(p, rows + left(c)))

    for (lead, (corner, rows)), mult in _block_walk(p, m, n - 1, null, fix,
                                                    ((0,) * m, ())).items():
        cnt = mult * (_null_count(p, pf, rows) if rows else len(null(lead)))
        z1_points += cnt
        equiv_fail += cnt * any(corner)
    return projective_size(p, m * (n - 1)), z1_points, equiv_fail


def _z1_points(p, b, gamma):
    """z1_sweep's counters for any table, point by point: a point is on
    the locus when c_i conj(c_j) = 0 for all i <= j, and fails there when
    its corner sum_k b_k conj(c_k) c_k is not 0."""
    n, m = len(b), len(gamma)
    z1_points = equiv_fail = 0
    for pt in _points(p, m * (n - 1)):
        blocks = [pt[i:i + m] for i in range(0, len(pt), m)]
        if any(v % p for i, ci in enumerate(blocks) for cj in blocks[i:]
               for v in _product(gamma, ci, _conj(cj))):
            continue
        z1_points += 1
        corner = [0] * m
        for bk, ck in zip(b, blocks):
            _mul_acc(gamma, [bk * v for v in _conj(ck)], ck, corner)
        equiv_fail += any(v % p for v in corner)
    return projective_size(p, m * (n - 1)), z1_points, equiv_fail
