"""Pure-Python mod-p kernels; the compiled module _fpcore mirrors these.

All three functions operate on plain ints modulo a small odd prime and are
the hot loops of the verification sweeps: exhaustive isotropic-vector
search and full projective sweeps of the source quadric and of the base
locus.  Semantics of every counter must stay identical between this module
and the compiled twin in _fpcore.c; tests compare the two directly.

Projective points are enumerated in canonical form, first nonzero
coordinate equal to 1, via an odometer on the trailing coordinates; the
canonical index of a point is its position in that order, and a sweep's
`limit` keeps the points with index below it.

A sweep takes (p, b, gamma, limit) and derives the rest: n = len(b), the
composition-algebra dimension m from len(gamma) = m^2, and the norm form
N(e_0) = gamma[0], N(e_t) = -gamma[t*m+t] (t >= 1).  Products are table
driven: e_i e_j = gamma[i*m+j] e_{i XOR j}, conjugation negates
coordinates 1..m-1.  Every b_i must be a unit mod p.

The compiled twin tests every point of the space.  This module instead
skips points that cannot pass the first test, in the same canonical order,
so the counters (including `scanned`, the number of points below the
limit) are identical while far fewer points are visited:

- quadric points are walked fibre by fibre: the points sharing their first
  N-1 coordinates differ only in the last one, and the value of the form
  on that prefix picks the last coordinate's roots from a table;
- a base-locus point has c_i conj(c_i) = 0 for every block, so only tuples
  of such null blocks are walked.
"""

import itertools


def isotropic_vector(p, coeffs):
    """First canonical projective vector v with sum coeffs[i] v_i^2 = 0
    (mod p), in (leading position, odometer) order; None if the form is
    anisotropic."""
    for v in _zeros(p, coeffs):
        return list(v)
    return None


def _points(p, N):
    """Yield canonical projective representatives of P^{N-1}(F_p)."""
    for lead in range(N):
        for tail in itertools.product(range(p), repeat=N - lead - 1):
            yield (0,) * lead + (1,) + tail


def _cd_mul(p, m, gamma, x, xoff, y, yoff, conj_y, out):
    """out = (x block) * (conj? y block), coordinates mod p."""
    for k in range(m):
        out[k] = 0
    for s in range(m):
        xs = x[xoff + s]
        if not xs:
            continue
        for t in range(m):
            yt = y[yoff + t]
            if not yt:
                continue
            if conj_y and t:
                yt = p - yt
            k = s ^ t
            out[k] = (out[k] + xs * yt * gamma[s * m + t]) % p


def _zeros(p, w, limit=-1):
    """Yield, in canonical order, the canonical projective points v with
    sum w[i] v_i^2 = 0 (mod p) among the first `limit` points (all when
    limit < 0).

    The walk is fibred over the first N-1 coordinates: the p points of a
    fibre occupy consecutive indices, and the last coordinate's solutions
    are read from a table of roots of w[N-1] x^2 = -v, in increasing
    order.  The final point e_N is its own fibre.  The yielded list is
    reused; copy it to keep it."""
    N = len(w)
    if not N:
        return
    if limit < 0:
        limit = (p ** N - 1) // (p - 1)
    wl = w[N - 1] % p
    roots = [[] for _ in range(p)]
    for x in range(p):
        roots[-wl * x * x % p].append(x)
    head = w[:N - 1]
    v = [0] * N
    start = 0                   # canonical index of the fibre's x = 0 point
    for prefix in _points(p, N - 1):
        if start >= limit:
            return
        s = 0
        for wi, x in zip(head, prefix):
            if x:
                s += wi * x * x
        xs = roots[s % p]
        if xs:
            v[:N - 1] = prefix
            for x in xs:
                if start + x >= limit:
                    break
                v[N - 1] = x
                yield v
        start += p
    if start < limit and not wl:
        v[:N - 1] = [0] * (N - 1)
        v[N - 1] = 1
        yield v


def _null_block_points(p, m, nn, gamma, limit):
    """Yield, in canonical order, the canonical points of P(C^nn) among the
    first `limit` whose every block c_i has c_i conj(c_i) = 0.

    The points whose first nonzero block is block i0 hold consecutive
    indices; within them the order is by that block's own canonical index
    k, then lexicographic on the later blocks.  Each block value tabulated
    is below `limit` (a later block's lex value never exceeds the point's
    index, nor does k), so a small limit builds small tables.  The
    yielded list is reused; copy it to keep it."""
    N = m * nn
    tmp = [0] * m

    def null(blk):
        _cd_mul(p, m, gamma, blk, 0, blk, 0, True, tmp)
        return not any(tmp)

    leads = [(k, list(blk)) for k, blk in zip(range(limit), _points(p, m))
             if null(blk)]
    rest = [(val, list(blk)) for val, blk in
            zip(range(limit), itertools.product(range(p), repeat=m))
            if null(blk)]
    c = [0] * N
    for i0 in range(nn):
        first = (p ** N - p ** (N - i0 * m)) // (p - 1)
        later = nn - 1 - i0
        step = p ** (m * later)
        weights = [p ** (m * (later - 1 - j)) for j in range(later)]
        for k, lead in leads:
            start = first + k * step
            if start >= limit:
                break
            c[:i0 * m] = [0] * (i0 * m)
            c[i0 * m:(i0 + 1) * m] = lead
            for combo in itertools.product(rest, repeat=later):
                idx = start
                for (val, blk), wt in zip(combo, weights):
                    idx += val * wt
                if idx >= limit:
                    break
                for j, (val, blk) in enumerate(combo):
                    off = (i0 + 1 + j) * m
                    c[off:off + m] = blk
                yield c


def _sweep_shape(p, b, gamma):
    """(n, m) of a sweep's inputs; ValueError unless len(gamma) = m^2 with
    m in {1, 2, 4, 8} and every b_i is nonzero mod p."""
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
    the points on the quadric are visited.
    """
    n, m = _sweep_shape(p, b, gamma)
    N = m * (n - 1) + 1
    space = (p ** N - 1) // (p - 1)
    scanned = space if limit < 0 else min(limit, space)
    on_quadric = base_points = zslice_points = 0
    roundtrip_checked = roundtrip_fail = 0
    sym_fail = trace_fail = diag_fail = 0
    cc = [0] * (n * m)          # all n blocks, scalar block embedded
    mat = [0] * (n * n * m)
    tmp = [0] * m
    pf = [gamma[0]] + [-gamma[t * m + t] for t in range(1, m)]
    w = [b[i] * pf[t] for i in range(n - 1) for t in range(m)] + [b[n - 1]]
    for c in _zeros(p, w, scanned):
        on_quadric += 1
        cc[:N] = c
        # mat[i][j] = c_i * conj(c_j) * b[j]
        for i in range(n):
            for j in range(n):
                _cd_mul(p, m, gamma, cc, i * m, cc, j * m, True, tmp)
                base_off = (i * n + j) * m
                for k in range(m):
                    mat[base_off + k] = (tmp[k] * b[j]) % p
        # diagonal entries scalar; trace equals the quadric value (0 here)
        tr = 0
        for i in range(n):
            off = (i * n + i) * m
            tr += mat[off]
            for k in range(1, m):
                if mat[off + k]:
                    diag_fail += 1
                    break
        if tr % p:
            trace_fail += 1
        # sigma_b symmetry: b[i] mat[i][j] = b[j] conj(mat[j][i]), where conj
        # negates coordinates 1..m-1
        ok = True
        for i in range(n):
            bi = b[i]
            for j in range(i + 1, n):
                bj = b[j]
                oij = (i * n + j) * m
                oji = (j * n + i) * m
                if (bi * mat[oij] - bj * mat[oji]) % p:
                    ok = False
                    break
                for k in range(1, m):
                    if (bi * mat[oij + k] + bj * mat[oji + k]) % p:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            sym_fail += 1
        # a zero matrix is a base point, with nothing more to test: the b_j
        # are units, so every c_i conj(c_j) = 0, and on the quadric the
        # first n-1 diagonal entries sum to -b_n c_N^2, so c_N = 0
        if not any(mat[k] for k in range(n * n * m)):
            base_points += 1
            continue
        # column n of the matrix, c_i conj(c_N) b_n, is the inverse map's
        # slice; c_N = 0 makes it vanish: the inverse base locus
        if c[N - 1] == 0:
            zslice_points += 1
            continue
        roundtrip_checked += 1
        lam = (b[n - 1] * c[N - 1]) % p
        good = True
        for i in range(n):
            off = (i * n + (n - 1)) * m
            for k in range(m):
                if mat[off + k] != (lam * cc[i * m + k]) % p:
                    good = False
                    break
            if not good:
                break
        if not good:
            roundtrip_fail += 1
    return (scanned, on_quadric, base_points, zslice_points,
            roundtrip_checked, roundtrip_fail, sym_fail, trace_fail,
            diag_fail)


def z1_sweep(p, b, gamma, limit=-1):
    """Walk P(C^{n-1}) over F_p and compare two membership predicates for
    the source base locus: all products c_i conj(c_j) = 0, and the square
    of the half-space element x(c) vanishing.  Returns (scanned, z1_points,
    equiv_fail).  A nonnegative limit keeps the points of canonical index
    below it."""
    n, m = _sweep_shape(p, b, gamma)
    N = m * (n - 1)
    nn = n - 1
    space = (p ** N - 1) // (p - 1)
    scanned = space if limit < 0 else min(limit, space)
    z1_points = equiv_fail = 0
    tmp = [0] * m
    tmp2 = [0] * m
    # Off-locus points fail the first predicate; there x(c)^2 != 0 too (its
    # entries include the b_j c_i conj(c_j), and the b_j are units), so the
    # predicates agree with nothing left to verify.  A point with a block
    # of nonzero norm c_i conj(c_i) is such a point and is not visited.
    for c in _null_block_points(p, m, nn, gamma, scanned):
        # all products c_i conj(c_j) = 0?  The walk has made the diagonal
        # ones 0, and c_j conj(c_i) is the conjugate of c_i conj(c_j), so
        # the pairs i < j decide it
        s1 = True
        for i in range(nn):
            for j in range(i + 1, nn):
                _cd_mul(p, m, gamma, c, i * m, c, j * m, True, tmp)
                if any(tmp):
                    s1 = False
                    break
            if not s1:
                break
        if not s1:
            continue
        z1_points += 1
        # the only remaining entry of x(c)^2 is the corner, b_n^{-1} times
        # sum_k b_k conj(c_k) c_k; it must vanish on the locus
        corner = [0] * m
        for k in range(nn):
            for t in range(m):
                v = c[k * m + t]
                tmp2[t] = (p - v) % p if t else v
            _cd_mul(p, m, gamma, tmp2, 0, c, k * m, False, tmp)
            for t in range(m):
                corner[t] = (corner[t] + b[k] * tmp[t]) % p
        if any(corner):
            equiv_fail += 1
    return scanned, z1_points, equiv_fail
