"""Reduced Jordan algebras Sym(M_n(C), sigma_b) of sigma_b-symmetric matrices.

Here C is a composition algebra, Gamma = diag(b_1, ..., b_n) with all b_i
nonzero, and sigma_b(x) = Gamma^{-1} conj(x)^t Gamma.  The product is
x o y = (xy + yx)/2.  For dim C = 8 the matrix algebra is Jordan only in
size n = 3, so that restriction is enforced at construction.

The k-dimension of the symmetric space is 2^{r-1} n(n-1) + n: n scalar
diagonal slots plus a full copy of C per strict-upper-triangle slot (the
lower triangle is determined by symmetry).

Element arithmetic (jordan_mul, scale, sums and the symmetry test,
_symmetric_values, which the sampled checks also run on the values of
images) works on the entries' plain values, as cayley_dickson does: a
matrix is unwrapped to integers over one common denominator, 1/2 and the
ratios b_i / b_j are kept as (num, den) pairs, and an entry of x o y
accumulates its products as integers by _fpcore_py's _mul_acc.  The
Jordan product, _jordan_values, takes and returns such matrices of values
(reduced mod p on F_p); jordan_mul unwraps, calls it and wraps each
coordinate once.  birational's x(c)^2 = 0 test reads its generator of
entries, _jordan_upper, up to the first nonzero one.

The rank-one test, _rank_one_values, reads the entries' values, not
products.  At n = 3 it and the cubic adjoint x^# share _sharp_values, the
six independent entries of x^#.  At n >= 4 C is associative (octonions
need n = 3), and x is rank one exactly when the 2^r n x 2^r n matrix
Lambda(x) of x acting on C^n by left multiplication has rank at most 2^r
over F: a rank-one x_ij = c_i conj(c_j) b_j gives Lambda(x_ij) =
Lambda(c_i) Lambda(conj(c_j) b_j), so Lambda(x) factors through 2^r
columns.  For split C, J is Sym_n(F), M_n(F) or Alt_2n(F) and this is the matrix rank
test, whose loci are the quadric, the point-hyperplane incidence variety
and the isotropic Grassmannian IG(2, 2n) (Landsberg-Manivel, "The
projective geometry of Freudenthal's magic square", J. Algebra 239, 2001).
_rank_at_most answers it by one fraction-free elimination on the values.
u_operator and trace_form are written with the wrapped operations and
state the criterion U_x J = F x literally (McCrimmon); the tests check
both tests, and the converse of the rank bound, against them.
"""

import math
from fractions import Fraction

from ._fpcore_py import _mul_acc, _product
from .cayley_dickson import CDAlgebra, CDElem
from .errors import AlgebraMismatchError


def _jordan_upper(alg, x, y):
    """(i, j, acc) in row order for each entry i <= j of xy + yx (of xx, each
    product once, when y is x) that has a product, on value matrices as in
    _jordan_values: acc is the unreduced sum over the table's denominator,
    formed when it is read.  A symmetric matrix has a symmetric zero
    pattern, so the nonzero y_kj are the nonzero y_jk of row j."""
    n, m, gamma = alg.n, alg.cd.dim, alg.cd._gamma_v
    xs = [{k for k, e in enumerate(row) if any(e)} for row in x]
    ys = xs if y is x else [{k for k, e in enumerate(row) if any(e)} for row in y]
    for i in range(n):
        for j in range(i, n):
            ks, ls = xs[i] & ys[j], () if y is x else ys[i] & xs[j]
            if ks or ls:
                acc = [0] * m
                for k in ks:
                    _mul_acc(gamma, x[i][k], y[k][j], acc)
                for k in ls:
                    _mul_acc(gamma, y[i][k], x[k][j], acc)
                yield i, j, acc


def _jordan_values(alg, x, dx, y, dy):
    """x o y = (xy + yx)/2 on plain values: x and y are n x n matrices of
    coordinate lists of sigma_b-symmetric elements of alg over the
    denominators dx and dy, and so is the result, reduced (mod p on F_p),
    with its denominator; y is x gives x o x = xx, not halved.  As
    sigma_b(xy) = sigma_b(y) sigma_b(x) = yx (conjugation reverses products,
    octonions included), only the entries i <= j are multiplied out, by
    _jordan_upper, and (x o y)_ji = (b_i / b_j) conj((x o y)_ij) is brought
    over the common denominator by the lcm of the ratios' denominators.
    Zero entries share one list, which callers must not change."""
    n, ratio, reduce = alg.n, alg._ratio_v, alg.field.reduce
    hn, hd = (1, 1) if y is x else alg._half_v
    lcm = math.lcm(*[ratio[i][j][1] for i in range(n) for j in range(i + 1, n)])
    upper = hn * lcm
    zero = [0] * alg.cd.dim
    rows = [[zero] * n for _ in range(n)]
    for i, j, acc in _jordan_upper(alg, x, y):
        rows[i][j] = reduce([upper * a for a in acc])
        if i < j:
            rn, rd = ratio[i][j]
            f = hn * rn * (lcm // rd)
            rows[j][i] = reduce([f * acc[0]] + [-f * a for a in acc[1:]])
    return rows, dx * dy * alg.cd._gamma_den * hd * lcm


def _symmetric_values(alg, x):
    """sigma_b(x) = x for x the n x n matrix of reduced coordinate lists of
    an element of alg over any common denominator, i.e.
    x_ij = (b_j / b_i) conj(x_ji) for all i, j: a scalar diagonal, and the
    pairs i < j (the pair (j, i) states the same equation times
    b_i / b_j).  The entries share one denominator, so the equations are
    tested on numerators."""
    reduce, ratio = alg.field.reduce, alg._ratio_v
    for i in range(alg.n):
        if any(x[i][i][1:]):
            return False
        for j in range(i + 1, alg.n):
            (rn, rd), u, v = ratio[j][i], x[i][j], x[j][i]
            if any(reduce([u[0] * rd - rn * v[0]]
                          + [a * rd + rn * c for a, c in zip(u[1:], v[1:])])):
                return False
    return True


def _rank_at_most(alg, x, bound):
    """rank_F Lambda(x) <= bound, for x the n x n matrix of coordinate
    lists of an element of alg over any common denominator (scaling does
    not change the rank), C associative.

    Lambda(x) has the left-regular matrix of x_ij as its (i, j) block:
    e_s e_t = gamma(s, t) e_{s XOR t} puts (x_ij)_s gamma(s, t) at row
    i m + (s XOR t), column j m + t, with the table's numerators.  The
    elimination is fraction-free and the same on both fields: each row with
    a nonzero entry in the pivot's column is cross-multiplied with the
    pivot, reduced (mod p on F_p) and divided by the gcd of its entries (a
    unit mod p, since the residues of a nonzero row lie below p).  Zero rows
    drop out, and the first pivot past the bound answers.
    """
    n, m, gamma, reduce = alg.n, alg.cd.dim, alg.cd._gamma_v, alg.field.reduce
    rows = []
    for xi in x:
        block = [[0] * (n * m) for _ in range(m)]
        for j, e in enumerate(xi):
            for s, a in enumerate(e):
                if a:
                    g = gamma[s]
                    for t in range(m):
                        block[s ^ t][j * m + t] = a * g[t]
        rows += [row for row in map(reduce, block) if any(row)]
    rank = 0
    while rows:
        if rank == bound:
            return False
        pivot = rows.pop()
        c = next(k for k, a in enumerate(pivot) if a)
        lead, kept = pivot[c], []
        for row in rows:
            a = row[c]
            if a:
                row = reduce([lead * u - a * v for u, v in zip(row, pivot)])
                g = math.gcd(*row)
                if not g:
                    continue
                if g > 1:
                    row = [u // g for u in row]
            kept.append(row)
        rows = kept
        rank += 1
    return True


def _sharp_values(alg, x, den):
    """The six independent entries of the cubic adjoint x^# (n = 3) as
    plain values, for x the 3 x 3 matrix of coordinate lists of an element
    of alg over den: the diagonal scalars
    (x^#)_kk = x_ii x_jj - x_ij x_ji, the upper entries
    (x^#)_ij = x_ik x_kj - x_kk x_ij as coordinate lists keyed by (i, j),
    for {i, j, k} = {0, 1, 2} and i < j, and their denominator.

    These are the entries of x^2 - T(x) x + ((T(x)^2 - T(x^2))/2) 1
    worked out on a symmetric 3 x 3 matrix.  x_ij x_ji is a scalar, so
    only its e_0 coordinate is kept; the scalar terms are brought over
    the table's denominator to stand with the products."""
    gamma, g = alg.cd._gamma_v, alg.cd._gamma_den
    diag, upper = [0] * 3, {}
    for i, j, k in ((1, 2, 0), (0, 2, 1), (0, 1, 2)):
        diag[k] = x[i][i][0] * x[j][j][0] * g - _product(gamma, x[i][j], x[j][i])[0]
        s = x[k][k][0] * g
        upper[i, j] = [a - s * c for a, c in zip(_product(gamma, x[i][k], x[k][j]), x[i][j])]
    return diag, upper, den * den * g


def _rank_one_values(alg, x):
    """is_rank_one on the values x of a nonzero element over any common
    denominator: x^# = 0 at n = 3, rank_F Lambda(x) <= 2^r at n >= 4."""
    if alg.n == 3:
        diag, upper, _ = _sharp_values(alg, x, 1)
        return not any(alg.field.reduce(diag + [a for u in upper.values() for a in u]))
    return _rank_at_most(alg, x, alg.cd.dim)


class JordanAlgebra:
    """Parameters (C, n, b) of Sym(M_n(C), sigma_b), with cached bases."""

    def __init__(self, cd, b):
        if not isinstance(cd, CDAlgebra):
            raise TypeError("cd must be a CDAlgebra")
        b = tuple(cd.field.element(x) for x in b)
        if len(b) < 3:
            raise ValueError("need n >= 3")
        if any(not x for x in b):
            raise ValueError("b must have nonzero entries")
        if cd.r == 3 and len(b) != 3:
            raise ValueError("octonion coordinates require n = 3")
        self.cd = cd
        self.field = cd.field
        self.b = b
        self.n = len(b)
        self.half = self.field.element(Fraction(1, 2))
        # b_i / b_j, and the plain values (num, den) of 1/2 and of those
        # ratios for the flat products
        self._ratio = [[bi / bj for bj in b] for bi in b]
        value = self.field.value
        self._half_v = value(self.half)
        self._ratio_v = [[value(r) for r in row] for row in self._ratio]
        # b as integers over one denominator, for half_space_element and
        # the maps of birational; the trace quadric, which
        # birational.q_form builds on first use
        self._b_v = self.field.unwrap(b)
        self._q_form = None
        self._basis = None
        self._swapped = None
        # immutable, so hashed once: every point hash reaches it
        self._hash = hash((cd, b))

    @property
    def dim(self):
        n, r = self.n, self.cd.r
        return (1 << r) * n * (n - 1) // 2 + n

    def swap_last_two(self):
        """The algebra with b_{n-1} and b_n exchanged (same C), built on
        first use and kept."""
        if self._swapped is None:
            b = self.b[:-2] + (self.b[-1], self.b[-2])
            self._swapped = JordanAlgebra(self.cd, b)
        return self._swapped

    # -- element constructors -------------------------------------------------

    def element(self, entries, validate=True):
        """Wrap an n x n matrix of CDElems (or coordinate lists)."""
        n = self.n
        if not (isinstance(entries, (list, tuple)) and len(entries) == n
                and all(isinstance(row, (list, tuple)) and len(row) == n
                        for row in entries)):
            raise ValueError(f"matrix must be {n} x {n}")
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                e = entries[i][j]
                if not isinstance(e, CDElem):
                    e = self.cd.element(e)
                elif e.algebra is not self.cd and e.algebra != self.cd:
                    raise AlgebraMismatchError("entry from a different composition algebra")
                row.append(e)
            rows.append(tuple(row))
        x = JordanElem(self, tuple(rows))
        if validate and not x.is_symmetric():
            raise ValueError("matrix is not sigma_b-symmetric")
        return x

    def from_parts(self, diag, upper):
        """Element from its independent entries: n diagonal scalars and a
        map (i, j) -> CDElem for i < j; the lower triangle is filled in by
        x_ji = (b_i / b_j) conj(x_ij)."""
        n = self.n
        diag = [self.field.element(d) for d in diag]
        if len(diag) != n:
            raise ValueError(f"need {n} diagonal scalars")
        zero = self.cd.zero()
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = self.cd.from_scalar(diag[i])
        for (i, j), e in upper.items():
            if not 0 <= i < j < n:
                raise ValueError(f"({i}, {j}) is not a strict upper index")
            if not isinstance(e, CDElem):
                e = self.cd.element(e)
            rows[i][j] = e
            rows[j][i] = e.conj() * self._ratio[i][j]
        return self.element(rows, validate=False)

    def zero(self):
        return self.from_parts([0] * self.n, {})

    def identity(self):
        return self.from_parts([1] * self.n, {})

    def basis_idempotent(self, i):
        """E_ii, a primitive diagonal idempotent."""
        return self.from_parts([1 if t == i else 0 for t in range(self.n)], {})

    def basis(self):
        """A fixed k-basis: the E_ii, then for each i < j every CD basis
        element placed in slot (i, j).  Length 2^{r-1} n(n-1) + n."""
        if self._basis is None:
            out = [self.basis_idempotent(i) for i in range(self.n)]
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    for t in range(self.cd.dim):
                        out.append(self.from_parts([0] * self.n,
                                                   {(i, j): self.cd.basis(t)}))
            self._basis = tuple(out)
        return self._basis

    def half_space_element(self, cvec):
        """The element of J_{1/2}(E_ii), i = n-1, whose column i is the given
        vector of C-coordinates (listed over the rows j < i, in order).  Row
        i, x_ij = (b_j / b_i) conj(c_j), comes from _half_space_values on one
        unwrap of the vector, each coordinate wrapped once."""
        i, cd = self.n - 1, self.cd
        cvec = [c if isinstance(c, CDElem) else cd.element(c) for c in cvec]
        if len(cvec) != i:
            raise ValueError(f"need {i} coordinates")
        if any(c.algebra is not cd and c.algebra != cd for c in cvec):
            raise AlgebraMismatchError("entry from a different composition algebra")
        m, wrap = cd.dim, self.field.wrap
        u, den = self.field.unwrap([x for c in cvec for x in c.coords])
        x, den = self._half_space_values([u[k:k + m] for k in range(0, len(u), m)], den)
        zero = cd.zero()
        rows = [[zero] * self.n for _ in range(self.n)]
        for j, c in enumerate(cvec):
            rows[j][i] = c
            rows[i][j] = CDElem(cd, wrap(x[i][j], den))
        return JordanElem(self, tuple(tuple(row) for row in rows))

    def _half_space_values(self, c, den):
        """The plain values of the half-space element whose column n-1 is
        c, n-1 coordinate lists over den: column n-1 is b_{n-1} c_j and row
        n-1 is b_j conj(c_j), over den b_{n-1}, with zero entries sharing
        one list."""
        n, i = self.n, self.n - 1
        bv, _ = self._b_v
        zero = [0] * self.cd.dim
        rows = [[zero] * n for _ in range(n)]
        for j, cj in enumerate(c):
            rows[j][i] = [bv[i] * a for a in cj]
            rows[i][j] = [bv[j] * cj[0], *(-bv[j] * a for a in cj[1:])]
        return rows, den * bv[i]

    def __eq__(self, other):
        return (isinstance(other, JordanAlgebra) and other.cd == self.cd
                and other.b == self.b)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Jordan(n={self.n}, r={self.cd.r}, b={list(self.b)})"


class JordanElem:
    """A sigma_b-symmetric n x n matrix over the composition algebra.

    Every instance is sigma_b-symmetric: JordanAlgebra builds only
    symmetric matrices (element() checks, the other constructors fill the
    lower triangle), and the arithmetic below preserves symmetry.
    jordan_mul relies on it to compute only the upper triangle.
    """

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra, entries):
        self.algebra = algebra
        self.entries = entries

    def _check(self, other):
        if not isinstance(other, JordanElem) or (
                other.algebra is not self.algebra and other.algebra != self.algebra):
            raise AlgebraMismatchError("elements of different Jordan algebras")

    def _values(self):
        """Plain values of every entry over one common denominator: a list
        of rows of coordinate tuples, and that denominator."""
        alg = self.algebra
        n = alg.n
        flat, den = alg.field.unwrap(self.flatten())
        entries = list(zip(*[iter(flat)] * alg.cd.dim))
        return [entries[i:i + n] for i in range(0, n * n, n)], den

    def _from_values(self, rows, den):
        """The element of this algebra whose entries have the given plain
        values over den, each coordinate of a nonzero entry wrapped once
        and the zero entries sharing one zero."""
        cd = self.algebra.cd
        wrap, zero = cd.field.wrap, cd.zero()
        return JordanElem(self.algebra, tuple(tuple(CDElem(cd, wrap(v, den)) if any(v) else zero
                                                    for v in row) for row in rows))

    def is_symmetric(self):
        """sigma_b(x) = x, by _symmetric_values on the entries' values."""
        return _symmetric_values(self.algebra, self._values()[0])

    def jordan_mul(self, other):
        """x o y = (xy + yx)/2; commutative, symmetry-preserving.  The
        entries are unwrapped once, multiplied by _jordan_values and wrapped
        once; x o x (other is self) takes each product once."""
        self._check(other)
        x, dx = self._values()
        y, dy = (x, dx) if other is self else other._values()
        return self._from_values(*_jordan_values(self.algebra, x, dx, y, dy))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign * other over the common denominator."""
        self._check(other)
        (x, dx), (y, dy) = self._values(), other._values()
        sdx = sign * dx
        return self._from_values([[[a * dy + b * sdx for a, b in zip(u, v)]
                                   for u, v in zip(r1, r2)] for r1, r2 in zip(x, y)],
                                 dx * dy)

    def __neg__(self):
        return JordanElem(self.algebra,
                          tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, s):
        sn, sd = self.algebra.field.value(s)
        x, dx = self._values()
        return self._from_values([[[sn * a for a in v] for v in row] for row in x],
                                 sd * dx)

    def __rmul__(self, s):
        return self.scale(s)

    def trace(self):
        """Sum of the (scalar) diagonal entries, as a field scalar."""
        total = self.algebra.field.zero()
        for i in range(self.algebra.n):
            total = total + self.entries[i][i].scalar_part()
        return total

    def trace_form(self, other):
        """tau(x, y) = trace(x o y), a symmetric bilinear form."""
        return self.jordan_mul(other).trace()

    def square(self):
        return self.jordan_mul(self)

    def u_operator(self, y):
        """U_x y = 2 x o (x o y) - (x o x) o y."""
        self._check(y)
        a = self.jordan_mul(self.jordan_mul(y)).scale(2)
        return a - self.square().jordan_mul(y)

    def is_rank_one(self):
        """x lies on the rank-one locus: U_x J is the line through x
        (McCrimmon), which u_operator and trace_form state literally and the
        tests check against.

        At n = 3 this is x^# = 0 on x != 0: in a cubic algebra
        U_x y = T(x, y) x - x^# * y, * the cross product of the adjoint, and
        x^# * 1 = T(x^#) 1 - x^# vanishes only at x^# = 0 outside
        characteristic 2.  The six entries of _sharp_values are tested.

        At n >= 4 C is associative (r <= 2) and the test is
        rank_F Lambda(x) <= 2^r, by _rank_at_most: Lambda(x) is the
        2^r n x 2^r n matrix of x acting on C^n by left multiplication.  A
        rank-one x has entries x_ij = c_i conj(c_j) b_j, and since left
        multiplication is multiplicative on an associative C, Lambda(x) is
        the product of the column of the Lambda(c_i) and the row of the
        Lambda(conj(c_j) b_j), which factors through 2^r columns.  For split
        C, J is Sym_n(F), M_n(F) or Alt_2n(F) and the bound is the matrix
        rank test there (Landsberg-Manivel, "The projective geometry of
        Freudenthal's magic square", J. Algebra 239, 2001); that the bound
        implies rank one is what the tests check against the U-operator.
        """
        if self.is_zero():
            raise ValueError("rank of the zero element is undefined")
        return _rank_one_values(self.algebra, self._values()[0])

    def adjoint_sharp(self):
        """Cubic adjoint x^# = x^2 - T(x) x + ((T(x)^2 - T(x^2))/2) 1 (n = 3),
        the entries of _sharp_values wrapped once; x^# is sigma_b-symmetric,
        and from_parts fills its lower triangle.  The rank-one locus is
        exactly x^# = 0."""
        alg = self.algebra
        if alg.n != 3:
            raise ValueError("the cubic adjoint needs n = 3")
        wrap = alg.field.wrap
        diag, upper, den = _sharp_values(alg, *self._values())
        return alg.from_parts(wrap(diag, den),
                              {ij: CDElem(alg.cd, wrap(u, den)) for ij, u in upper.items()})

    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    def flatten(self):
        """All CD coordinates in row-major entry order (for scaling and
        canonical forms)."""
        return [c for row in self.entries for e in row for c in e.coords]

    def __eq__(self, other):
        if not isinstance(other, JordanElem):
            return NotImplemented
        return self.algebra == other.algebra and self.entries == other.entries

    def __hash__(self):
        return hash((self.algebra, self.entries))

    def __repr__(self):
        return "[" + "; ".join(", ".join(repr(e) for e in row)
                               for row in self.entries) + "]"
