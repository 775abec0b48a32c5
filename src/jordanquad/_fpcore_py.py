"""The mod-p kernels, in pure Python, and the composition-algebra product
on plain integers.

The three kernels operate on plain ints modulo an odd prime p < 2^31:
the exhaustive isotropic-vector search, and the full projective sweeps of
the source quadric and of the base locus, the hot loops of the
verification suites.

The product (_mul_acc, _product, _conj) is the package's only one:
cayley_dickson, jordan, birational and the base-locus sweep use it.  This
module imports only scalars, since quadform, which cayley_dickson
imports, imports it.

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
quadric sweep's other table, of the later last prefix blocks' quadric
terms, holds counts alone, one entry per term at most, so it is bounded
by p.

Projective points are enumerated in canonical form, first nonzero
coordinate equal to 1, via an odometer on the trailing coordinates.

A sweep takes (p, b, gamma) and derives the rest: n = len(b), the
composition-algebra dimension m = len(gamma), gamma being m rows of m
entries, and the norm form N(e_0) = gamma[0][0], N(e_t) = -gamma[t][t]
(t >= 1).  Products are table driven: e_i e_j = gamma[i][j] e_{i XOR j},
conjugation negates coordinates 1..m-1.  Every b_i must be a unit mod p.

The sweeps skip the points that cannot pass the first test, so far fewer
points are visited than the space holds, while the counters (including
`scanned`, the number of points of the space) are those of a test of
every point; the tests compare them with per-point evaluators.  Both
sweeps run on one walk, _block_walk, of the canonical points of
P(C^{n-1}) as blocks c_0..c_{n-2} of m coordinates: the lead block (the
first nonzero one) from _points, each later block from _tuples.  The walk
fixes the blocks one level at a time and passes down what the fixed
blocks give the sweep, its state, reduced mod p; the choices of blocks
that leave one state merge, so a level costs its distinct states times
its blocks, and each sweep runs the last block once per distinct state
and multiplies its counters.  Where a state's last blocks are the null
vectors of a kernel, a true table (c conj(c) = N(c) for every c) has
them counted, not listed: _null_count reads their number off the rank
and discriminant of the norm on the kernel.

- Quadric points are walked fibre by fibre: the points sharing their
  first N-1 coordinates (the prefix) differ only in the last one, and the
  value of the form on the prefix picks the last coordinate's roots.
  The prefixes are the points of the walk, every block a candidate.
- A base-locus point has c_i conj(c_i) = 0 for every block, so only null
  blocks are candidates, and a level whose block fails a pair check
  skips every point below it.  The null blocks are found once per sweep
  from the norm's fibres: the norm is the e_0 coordinate of
  c_i conj(c_i), so the blocks of norm 0 are a prefix of m - 1
  coordinates and a root of the last one, and only they are tested for
  the rest of c_i conj(c_i) being 0.

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
blocks and its pairs of blocks.

Each sweep reads the m^2 products E[s][t] = e_s conj(e_t) off the table
once, +-gamma_st e_{s XOR t} with the minus sign for t >= 1, and reads
from them every fact a block gives its checks, for any table.  The e_0
coordinate of c conj(c) is N(c), so the trace on a fibre is
(gamma_00 - 1) b_n x^2; the rest of c conj(c) is a quadratic form in c;
the checks of column n-1 are linear in c, and a pair check (c_i, c_j),
i < j, is linear in c_j by rows built at the level that fixed c_i.  For
a true table all of these but the rows of the product checks are empty.
The quadric sweep forms no product; the base-locus sweep forms
conj(c) c by _product, for the blocks of the locus' points alone.  Each
sweep's docstring tells how it runs the last block.
"""

import collections
import functools
import itertools
import math
import operator

from .scalars import is_prime, is_residue, least_nonresidue

# at most this many blocks' facts are held in a sweep's block cache
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


def _nonscalar(p, E):
    """c -> whether c conj(c) has a nonzero coordinate off e_0.  Its
    coordinate k != 0 is the form sum (E[s][t] + E[t][s])_k c_s c_t over
    s < t with s XOR t = k, read from E once; for a true table every form
    is zero, as c conj(c) = N(c), and the answer is None."""
    forms = {}
    for s, t in itertools.combinations(range(len(E)), 2):
        if g := (E[s][t][s ^ t] + E[t][s][s ^ t]) % p:
            forms.setdefault(s ^ t, []).append((s, t, g))
    forms = list(forms.values())
    if not forms:
        return None

    def ns(c):
        return any(sum(g * c[s] * c[t] for s, t, g in form) % p for form in forms)

    return ns


def _rows(cols):
    """The nonzero rows of the linear map whose column t is cols[t]."""
    return [r for r in zip(*cols) if any(r)]


def _linear_rows(p, images):
    """c -> the tuple of nonzero rows of sum_s c_s M_s mod p, images[s] the
    columns of the linear map M_s: for maps linear in a block c, each M_s
    its value at c = e_s.  The entries are read once; when every M_s is
    zero no block pays for anything."""
    width = len(images[0])
    entries = list(zip(*(itertools.chain.from_iterable(zip(*cols)) for cols in images)))
    if not any(map(any, entries)):
        return lambda c: ()

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


def _kernel(p, m, rows):
    """Every y in F_p^m with rows y = 0, for rows in reduced echelon form:
    the combinations of _kernel_basis(m, rows)."""
    basis = _kernel_basis(m, rows)
    cols = [[v[i] for v in basis] for i in range(m)]
    for a in itertools.product(range(p), repeat=len(basis)):
        yield tuple(sum(map(operator.mul, a, col)) % p for col in cols)


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
    Only the points on the quadric are visited, one fibre at a time.

    The fibres' prefixes c_0..c_{n-2} are the points of _block_walk, every
    block a candidate.  The level that fixes block j adds its quadric term
    mod p, ANDs its facts and checks the pairs (c_i, c_j), i < j, for the
    symmetry and for both products zero, and passes the state down: the
    sum, the ANDs and the rows of the pair checks, as tuples.  The
    candidates of a later last prefix block are grouped by their quadric
    term once per sweep into the counts of each class's facts, for a true
    table from the norm's values alone, and each distinct state looks up
    the roots once per class and adds the class's counters, times its
    number of prefixes; while every product of the fixed blocks is zero,
    the base points among the class of norm 0 are the null vectors of the
    zero rows' kernel, counted by _null_count on a true table.  The one state whose last prefix block is the lead
    and a state that keeps its fixed blocks' symmetry rows are counted
    block by block.  The checks that read x (the trace, the symmetry of
    row and column n-1, the base point and the round trip) are counted per
    root.
    """
    n, m = _sweep_shape(p, b, gamma)
    N = m * (n - 1) + 1
    on_quadric = base_points = zslice_points = 0
    roundtrip_checked = roundtrip_fail = 0
    sym_fail = trace_fail = diag_fail = 0
    E = _basis_products(p, gamma)
    ns = _nonscalar(p, E)
    pf = _norm_form(gamma)
    # the e_0 coordinate of c_i conj(c_i) is N(c_i), so the corner's trace
    # is the prefix's quadric value and the whole trace on a fibre is
    # (gamma_00 - 1) b_n x^2: it fails at each root x != 0 when gamma_00 != 1
    bad_trace = gamma[0][0] % p != 1
    lookup = _roots(p, b[n - 1] % p)
    # C(c) = c conj(e_0) and R(c) = e_0 conj(c) are linear in c: the rows
    # of c -> C(c) - conj(R(c)) and of c -> C(c) - c, empty for a true table
    sx_rows = _rows([[(x - y) % p for x, y in zip(E[t][0], _conj(E[0][t]))]
                     for t in range(m)])
    col_rows = _rows([[(x - (k == t)) % p for k, x in enumerate(E[t][0])]
                      for t in range(m)])
    # the rows that check a later block y against a fixed block c, linear in
    # c: y -> c conj(y) - conj(y conj(c)) for the symmetry, empty for a true
    # table, and y -> (c conj(y), y conj(c)) for both products 0
    sym_map = _linear_rows(p, [[[(x - y) % p for x, y in zip(E[s][t], _conj(E[t][s]))]
                                for t in range(m)] for s in range(m)])
    zero_map = _linear_rows(p, [[E[s][t] + E[t][s] for t in range(m)] for s in range(m)])
    # a true table: every c conj(c) is scalar, and C(c) = conj(R(c)) = c
    true_table = ns is None and not (sx_rows or col_rows)

    # the fixed levels and the tables read every block's facts, and a level
    # counted block by block reads them again for its blocks with roots; a
    # cache smaller than p^m evicts each entry before its next use, and at
    # about 370 bytes an entry with its key (m = 8) the cap holds it near
    # 23 MiB
    @functools.lru_cache(maxsize=min(p ** m, _BLOCK_CAP))
    def block(c):
        """What block c alone gives the checks: its norm N(c), whether
        c conj(c) is not scalar, whether C = conj(R) and whether C = c."""
        return (sum(map(operator.mul, pf, map(operator.mul, c, c))), bool(ns and ns(c)),
                _in_kernel(sx_rows, c, p), _in_kernel(col_rows, c, p))

    def is_null(c):
        """Whether c conj(c) = 0: its norm and its coordinates off e_0."""
        nrm, ns_c, _, _ = block(c)
        return not (nrm % p or ns_c)

    # mat[i][j] = c_i conj(c_j) b_j has column n-1 x C_i b_n and row n-1
    # x R_j b_j; the b_j are units, so the products without them decide
    # every check but the trace.  What the fixed blocks give: the quadric
    # value s mod p, the number of nonscalar diagonal entries, zero (every
    # c_i conj(c_j) = 0), sym (sigma_b symmetry on the corner), sym_x (on
    # row and column n-1), good (column n-1 is b_n x c) and the rows that
    # check a later block against them, kept only while the check they
    # serve holds, the zero rows in reduced echelon form
    def fix(state, j, cj):
        s, nonscalar, zero, sym, sym_x, good, sym_rows, zero_rows = state
        nrm, ns_j, sx, col = block(cj)
        zero = zero and is_null(cj) and _in_kernel(zero_rows, cj, p)
        sym = sym and _in_kernel(sym_rows, cj, p)
        return ((s + b[j] * nrm) % p, nonscalar + ns_j, zero, sym, sym_x and sx, good and col,
                sym_rows + sym_map(cj) if sym else (),
                _echelon(p, zero_rows + zero_map(cj)) if zero else ())

    bl = b[n - 2]               # the last prefix block's b
    w = [bl * x for x in pf]

    def candidates(lead):
        return _points(p, m) if lead else _tuples(p, m)

    # the term depends on the block alone, so the later level merges its
    # blocks by term once per sweep, with each class's counts: its blocks,
    # and how many of them have c conj(c) not scalar, fail C = conj(R) and
    # fail C = c.  At most p classes, whatever p^m is
    @functools.cache
    def table():
        if true_table:
            # every block's facts are (N(c), False, True, True): count the
            # blocks per norm, adding the coordinates' terms one at a time
            norms = {0: 1}
            for a in pf:
                added = collections.Counter()
                for x in range(p):
                    for v, cnt in norms.items():
                        added[(v + a * x * x) % p] += cnt
                norms = added
            return [(bl * v % p, [cnt, 0, 0, 0]) for v, cnt in norms.items()]
        by_term = {}
        for c in _tuples(p, m):
            nrm, ns_c, sx, col = block(c)
            counts = by_term.setdefault(bl * nrm % p, [0, 0, 0, 0])
            counts[0] += 1
            counts[1] += ns_c
            counts[2] += not sx
            counts[3] += not col
        return list(by_term.items())

    def classes(s, zero, sym, sym_x, good, zero_rows):
        """The parts of a later state that keeps no symmetry rows: its
        fixed blocks treat every block of a class alike but for its facts.
        Their zero rows hold only on null blocks, all in the class v = 0 (a
        zero state has s = 0, and xs = (0,)): with no rows on every null
        block of it, else on the null vectors of the rows' kernel, counted
        on a true table and listed on any other."""
        for v, (cnt, nns, nsx, ncol) in table():
            xs = lookup((s + v) % p)
            if not xs:
                continue
            nulls = 0
            if zero and not v:
                nulls = (_null_count(p, pf, zero_rows) if true_table else
                         sum(map(is_null, _kernel(p, m, zero_rows))) if zero_rows else cnt - nns)
            yield xs, cnt - nulls, nns, nsx if sym_x else cnt, ncol if good else cnt, False, sym
            if nulls:
                yield xs, nulls, 0, 0, 0, True, sym

    def apart(lead, s, zero, sym, sym_x, good, sym_rows, zero_rows):
        """Each candidate of the last prefix block with roots as a part of
        one; its facts are read once its roots are known."""
        for c in candidates(lead):
            xs = lookup((s + sum(map(operator.mul, w, map(operator.mul, c, c)))) % p)
            if not xs:
                continue
            _, ns_c, sx, col = block(c)
            yield (xs, 1, ns_c, not (sym_x and sx), not (good and col),
                   zero and is_null(c) and _in_kernel(zero_rows, c, p),
                   sym and _in_kernel(sym_rows, c, p))

    walk = _block_walk(p, m, n - 1, candidates, fix,
                       (0, 0, True, True, True, not bad_trace, (), ()))
    for (lead, state), mult in walk.items():
        s, nonscalar, zero, sym, sym_x, good, sym_rows, zero_rows = state
        # a lead level is the last prefix level of one state alone, and the
        # fixed blocks' symmetry rows tell blocks apart
        if not (lead or sym_rows):
            parts = classes(s, zero, sym, sym_x, good, zero_rows)
        else:
            parts = apart(lead, s, zero, sym, sym_x, good, sym_rows, zero_rows)
        for xs, cnt, nns, nsx, ncol, z, sy in parts:
            # cnt blocks, of which nns have a nonscalar diagonal entry,
            # nsx fail the symmetry of row and column n-1 and ncol fail
            # column n-1 = b_n x c, once for each of the mult choices of
            # the fixed blocks; each has every root in xs, nz of them units
            cnt, nns, nsx, ncol = cnt * mult, nns * mult, nsx * mult, ncol * mult
            nz = len(xs) if xs[0] else 0
            on_quadric += cnt * len(xs)
            diag_fail += len(xs) * (cnt * nonscalar + nns)
            trace_fail += bad_trace * cnt * nz
            # sigma_b symmetry: b_i mat[i][j] = b_j conj(mat[j][i]), that
            # is c_i conj(c_j) = conj(c_j conj(c_i)); on the corner
            # (i, j < n-1) for all x, on row and column n-1 for a unit x
            sym_fail += nz * nsx if sy else cnt * len(xs)
            # a zero matrix is a base point, with nothing more to test:
            # the b_j are units, so every c_i conj(c_j) = 0, and on the
            # quadric the first n-1 diagonal entries sum to -b_n x^2, so
            # x = 0; the corner is zero exactly then
            if z:
                base_points += cnt * len(xs)
            else:
                # column n of the matrix, c_i conj(x) b_n, is the inverse
                # map's slice; x = 0 makes it vanish: the inverse base
                # locus.  Otherwise column n equals b_n x c, block by block
                zslice_points += cnt * (len(xs) - nz)
                roundtrip_checked += cnt * nz
                roundtrip_fail += nz * ncol
    return (projective_size(p, N), on_quadric, base_points, zslice_points,
            roundtrip_checked, roundtrip_fail, sym_fail, trace_fail,
            diag_fail)


def z1_sweep(p, b, gamma):
    """Walk P(C^{n-1}) over F_p and compare two membership predicates for
    the source base locus: all products c_i conj(c_j) = 0, and the square
    of the half-space element x(c) vanishing.  Returns (scanned, z1_points,
    equiv_fail).

    Off-locus points fail the first predicate; there x(c)^2 != 0 too (its
    entries include the b_j c_i conj(c_j), and the b_j are units), so the
    predicates agree with nothing left to verify.  The points are those of
    _block_walk whose every block c_i is null, c_i conj(c_i) = 0: the
    candidates are the null blocks of each order, read from the norm's
    fibres.  c_j conj(c_i) is the conjugate of c_i conj(c_j), so the pairs
    i < j decide the rest: the level that fixes c_j checks
    c_i conj(c_j) = 0 for each fixed c_i, by the rows of y -> c_i conj(y)
    built where c_i was fixed and kept in reduced echelon form, and skips
    every point below at the first that fails.  The
    remaining entry of x(c)^2 is the corner, b_n^{-1} times
    sum_k b_k conj(c_k) c_k, summed level by level mod p; it must vanish
    on the locus.  A state is the corner and the rows, and each distinct
    one is walked once, its counters times its number of prefixes.  The
    last block's points are the null vectors of the rows' kernel, or, for
    a state without rows, such as the lead's, the null blocks.  On a true
    table conj(c) c = N(c) is 0 on them, so a state adds their number
    (_null_count) to z1_points, and to equiv_fail when its corner is not
    0; on any other table the kernel is listed and each point tested.
    """
    n, m = _sweep_shape(p, b, gamma)
    nn = n - 1
    z1_points = equiv_fail = 0
    E = _basis_products(p, gamma)
    ns = _nonscalar(p, E)
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
        giving the blocks prefix + (x,) for the roots x of the norm on it;
        only these pay for the test of c conj(c) being scalar.  The lead
        order ends with e_{m-1}, null when N(e_{m-1}) = 0 (its square is
        on e_0)."""
        out = []
        for pre in _points(p, m - 1) if lead else _tuples(p, m - 1):
            for x in roots(sum(map(operator.mul, pf, map(operator.mul, pre, pre))) % p) or ():
                c = (*pre, x)
                if not (ns and ns(c)):
                    out.append(c)
        if lead and not wl:
            out.append((0,) * (m - 1) + (1,))
        return out

    # only the fixed blocks and the last blocks of the locus' points read
    # their term conj(c) c; at most _BLOCK_CAP of them are held
    @functools.lru_cache(maxsize=min(p ** m, _BLOCK_CAP))
    def term(c):
        return [v % p for v in _product(gamma, _conj(c), c)]

    def fix(state, j, c):
        corner, rows = state
        if not _in_kernel(rows, c, p):
            return None
        return (tuple((u + b[j] * v) % p for u, v in zip(corner, term(c))),
                _echelon(p, rows + left(c)))

    walk = _block_walk(p, m, nn, null, fix, ((0,) * m, ()))
    for (lead, (corner, rows)), mult in walk.items():
        if ns is None:
            # the coordinates of conj(c) c off e_0 are those of c conj(c) up
            # to sign, so on a true table a null last block adds 0 to the corner
            cnt = mult * (_null_count(p, pf, rows) if rows else len(null(lead)))
            z1_points += cnt
            equiv_fail += cnt * any(corner)
            continue
        if rows:
            blocks = (c for c in _kernel(p, m, rows)
                      if not (sum(map(operator.mul, pf, map(operator.mul, c, c))) % p
                              or ns and ns(c)))
        else:
            blocks = null(lead)
        for c in blocks:
            z1_points += mult
            equiv_fail += mult * any((u + b[nn - 1] * v) % p for u, v in zip(corner, term(c)))
    return projective_size(p, m * nn), z1_points, equiv_fail
