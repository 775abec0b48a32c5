"""The degree-2 rank-one map from P(C^{n-1} x k) into PJ, and its geometry.

For a Jordan algebra Sym(M_n(C), sigma_b), a point [c_1, ..., c_{n-1}, c_n]
(c_i in C, c_n a scalar) maps to the rank-one symmetric matrix with entries
x_ij = c_i conj(c_j) b_j.  This right-weighted convention is the one that
is literally sigma_b-symmetric.  The inverse takes column n, which equals
(b_n c_n) * c wherever c_n != 0, so the map is birational onto its image.

Base loci: the source locus Z1 is cut out by c_n = 0 together with all
products c_i conj(c_j) = 0, equivalently by x(c)^2 = 0 for the half-space
element x(c) whose column n is c; the target locus Z2 consists of the
matrices whose row n (hence column n) vanishes.

Projective points carry a canonical scaling (first nonzero field
coordinate normalized to 1) so equality, hashing and deduplication are
plain tuple comparisons.

The maps run on plain values, as cayley_dickson and jordan do.  A point's
coordinates are unwrapped once, to integers over one denominator
(residues over 1 on F_p), and b once per algebra.  The products
c_i conj(c_j) are accumulated as integers with the structure-constant
table, and only the upper triangle of the image is multiplied out: its
lower triangle is c_j conj(c_i) b_i = conj(c_i conj(c_j)) b_i.  Zero tests
run on the reduced values.  A canonical point is its values divided by
the first nonzero one: the common denominator cancels, and each output
coordinate is wrapped once.
"""

from .cayley_dickson import CDElem, _mul_acc
from .errors import AlgebraMismatchError, BasePointError
from .jordan import JordanAlgebra, JordanElem, _jordan_values
from .quadform import QuadForm, evaluate, perp, tensor


def _lead_scaled(field, vals):
    """The scalars v / lead for v in vals, each wrapped once, where lead is
    the first value nonzero in the field; the values' common denominator
    cancels.  None when every value is zero."""
    vals = field.reduce(vals)
    lead = next((v for v in vals if v), None)
    return None if lead is None else field.wrap(vals, lead)


class ProjPointC:
    """A point of P(C^{n-1} x k): n-1 composition-algebra coordinates and
    one field scalar, up to a common field scalar."""

    __slots__ = ("algebra", "cparts", "last")

    def __init__(self, algebra, cparts, last):
        if not isinstance(algebra, JordanAlgebra):
            raise TypeError("algebra must be a JordanAlgebra")
        cd, field = algebra.cd, algebra.field
        cparts = [c if isinstance(c, CDElem) else cd.element(c) for c in cparts]
        if any(c.algebra is not cd and c.algebra != cd for c in cparts):
            raise AlgebraMismatchError("coordinate from the wrong composition algebra")
        if len(cparts) != algebra.n - 1:
            raise ValueError(f"need {algebra.n - 1} C-coordinates")
        flat = [x for c in cparts for x in c.coords] + [field.element(last)]
        if not self._canonicalize(algebra, field.unwrap(flat)[0]):
            raise ValueError("the zero vector is not a projective point")

    @classmethod
    def _from_values(cls, algebra, vals):
        """The point whose block-major coordinates (those of c_1, ...,
        c_{n-1}, then the scalar) have the plain values vals over any
        common denominator, unchecked; None for the zero vector."""
        point = cls.__new__(cls)
        return point if point._canonicalize(algebra, vals) else None

    def _canonicalize(self, algebra, vals):
        """Set the point to vals over their lead; False, setting nothing,
        when every value is zero."""
        canon = _lead_scaled(algebra.field, vals)
        if canon is None:
            return False
        cd, m = algebra.cd, algebra.cd.dim
        self.algebra = algebra
        self.cparts = tuple(CDElem(cd, canon[k:k + m]) for k in range(0, len(canon) - 1, m))
        self.last = canon[-1]
        return True

    def flatten(self):
        """Coordinates ordered to match q_form: CD-slot major, then the
        scalar (entry s*(n-1)+i multiplies phi_s b_{i+1})."""
        m = self.algebra.cd.dim
        out = []
        for s in range(m):
            for c in self.cparts:
                out.append(c.coords[s])
        out.append(self.last)
        return out

    def __eq__(self, other):
        if not isinstance(other, ProjPointC):
            return NotImplemented
        return (self.algebra == other.algebra and self.cparts == other.cparts
                and self.last == other.last)

    def __hash__(self):
        return hash((self.algebra, self.cparts, self.last))

    def __repr__(self):
        return "[" + ", ".join(repr(c) for c in self.cparts) + f"; {self.last}]"


class ProjPointJ:
    """A nonzero Jordan element up to field scaling."""

    __slots__ = ("elem",)

    def __init__(self, elem):
        if not isinstance(elem, JordanElem):
            raise TypeError("expected a JordanElem")
        alg = elem.algebra
        if not self._canonicalize(alg, alg.field.unwrap(elem.flatten())[0]):
            raise ValueError("the zero element is not a projective point")

    @classmethod
    def _from_values(cls, algebra, vals):
        """The point whose entries' coordinates, row-major, have the plain
        values vals over any common denominator, unchecked; None for the
        zero matrix."""
        point = cls.__new__(cls)
        return point if point._canonicalize(algebra, vals) else None

    def _canonicalize(self, algebra, vals):
        """Set the element to vals over their lead; False, setting
        nothing, when every value is zero."""
        canon = _lead_scaled(algebra.field, vals)
        if canon is None:
            return False
        cd, m, n = algebra.cd, algebra.cd.dim, algebra.n
        entries = [CDElem(cd, canon[k:k + m]) for k in range(0, len(canon), m)]
        self.elem = JordanElem(algebra, tuple(tuple(entries[k:k + n])
                                              for k in range(0, n * n, n)))
        return True

    @property
    def algebra(self):
        return self.elem.algebra

    def __eq__(self, other):
        if not isinstance(other, ProjPointJ):
            return NotImplemented
        return self.elem == other.elem

    def __hash__(self):
        return hash(self.elem)

    def __repr__(self):
        return f"P{self.elem!r}"


def projective_eq(u, v):
    """u = lambda v for a nonzero field scalar lambda?  Both point types
    canonicalize on construction, so this is comparison plus an ambient
    check."""
    if type(u) is not type(v):
        raise AlgebraMismatchError("points of different ambient spaces")
    if u.algebra != v.algebra:
        raise AlgebraMismatchError("points of different ambient spaces")
    return u == v


def q_form(algebra):
    """The trace quadric: phi tensor <b_1, ..., b_{n-1}> perp <b_n>, built
    on first use and kept on the algebra."""
    if algebra._q_form is None:
        field = algebra.field
        bprime = QuadForm(field, algebra.b[:-1])
        algebra._q_form = perp(tensor(algebra.cd.norm_form, bprime),
                               QuadForm(field, (algebra.b[-1],)))
    return algebra._q_form


def on_quadric(point):
    return evaluate(q_form(point.algebra), point.flatten()) == point.algebra.field.zero()


def _values(point):
    """The plain values of the n composition-algebra coordinates c_1, ...,
    c_{n-1}, c_n = last e_0, as coordinate lists from one unwrap, and
    their common denominator."""
    m = point.algebra.cd.dim
    flat, den = point.algebra.field.unwrap(
        [x for c in point.cparts for x in c.coords] + [point.last])
    coords = [flat[k:k + m] for k in range(0, len(flat) - 1, m)]
    coords.append([flat[-1]] + [0] * (m - 1))
    return coords, den


def _conj(u):
    return [u[0]] + [-a for a in u[1:]]


def _product(gamma, x, y):
    """The plain values of x y over the table's denominator."""
    out = [0] * len(x)
    _mul_acc(gamma, x, y, out)
    return out


def _veronese_values(point):
    """The entries c_i conj(c_j) b_j of the image matrix as plain values:
    n rows of coordinate lists, and their common denominator.  The upper
    triangle is multiplied out, the lower one is conj(c_i conj(c_j)) b_i."""
    alg = point.algebra
    gamma, n = alg.cd._gamma_v, alg.n
    c, den = _values(point)
    bv, bden = alg._b_v
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            u = _product(gamma, c[i], _conj(c[j]))
            rows[i][j] = [bv[j] * a for a in u]
            if i < j:
                rows[j][i] = [bv[i] * a for a in _conj(u)]
    return rows, den * den * alg.cd._gamma_den * bden


def veronese_matrix(point):
    """The full n x n matrix [c_i conj(c_j) b_j] (no base-point check):
    the values of _veronese_values, each coordinate wrapped once."""
    cd = point.algebra.cd
    rows, den = _veronese_values(point)
    wrap = cd.field.wrap
    return [[CDElem(cd, wrap(v, den)) for v in row] for row in rows]


def veronese(point):
    """The rank-one image of a source point; BasePointError on Z1-like
    total vanishing (all matrix entries zero)."""
    rows, _ = _veronese_values(point)
    pj = ProjPointJ._from_values(point.algebra, [a for row in rows for v in row for a in v])
    if pj is None:
        raise BasePointError("point lies in the base locus of the map")
    return pj


def veronese_inverse(pj):
    """Column n of the matrix, read as a point of P(C^{n-1} x k);
    BasePointError when that slice vanishes (membership in Z2)."""
    elem = pj.elem
    alg = elem.algebra
    n = alg.n
    col = elem.column(n - 1)
    if all(not e for e in col):
        raise BasePointError("column n vanishes: point lies in the inverse base locus")
    if not col[n - 1].is_scalar():
        raise ValueError("corner entry is not scalar; element is not sigma_b-symmetric")
    flat = [x for e in col[:-1] for x in e.coords] + [col[n - 1].scalar_part()]
    return ProjPointC._from_values(alg, alg.field.unwrap(flat)[0])


def half_space_square_zero(point):
    """x(c)^2 = 0 for the half-space element with column n = c (the
    independent matrix-equation form of Z1 membership): x(c) is built on
    the point's plain values and squared by the Jordan product on values,
    whose reduced result is tested for zero."""
    alg = point.algebra
    c, den = _values(point)
    x, dx = alg._half_space_values(c[:-1], den)
    square, _ = _jordan_values(alg, x, dx, x, dx)
    return not any(a for row in square for v in row for a in v)


def in_z1(point):
    """Source base-locus membership: c_n = 0 and c_i conj(c_j) = 0 for all
    i, j < n.  Equivalent to x(c)^2 = 0 and to veronese raising
    BasePointError; the equivalence is exercised by the verification
    sweeps."""
    if point.last:
        return False
    alg = point.algebra
    gamma, reduce = alg.cd._gamma_v, alg.field.reduce
    c, _ = _values(point)
    for ci in c[:-1]:
        for cj in c[:-1]:
            if any(reduce(_product(gamma, ci, _conj(cj)))):
                return False
    return True


def in_z2(pj):
    """Target base-locus membership: row n of the matrix vanishes.  Meant
    for traceless rank-one elements; the predicate itself is linear."""
    elem = pj.elem
    n = elem.algebra.n
    return all(not e for e in elem.row(n - 1))


def transposition_map(point):
    """The composite of the map for u = E_nn with the inverse of the map
    for u' = E_{n-1,n-1}: take column n-1 of the image matrix, then swap
    the last two coordinate slots.  Lands in the space for the form with
    b_{n-1} and b_n exchanged; agrees projectively with the star formula
    x * y = x conj(y) of transposition_star.  Only that column is
    computed: c_i conj(c_{n-1}) b_{n-1} for i = 1, ..., n."""
    alg = point.algebra
    n, gamma = alg.n, alg.cd._gamma_v
    c, _ = _values(point)
    w = [alg._b_v[0][n - 2] * a for a in _conj(c[n - 2])]
    col = [_product(gamma, ci, w) for ci in c]
    if any(alg.field.reduce(col[n - 2][1:])):
        raise ValueError("slot n-1 entry is not scalar")
    out = ProjPointC._from_values(
        alg.swap_last_two(),
        [a for ci in col[:n - 2] + [col[n - 1]] for a in ci] + [col[n - 2][0]])
    if out is None:
        raise BasePointError("column n-1 vanishes: transposition undefined here")
    return out


def transposition_star(point):
    """Independent formula for the transposition: with x * y := x conj(y),
    send [c_1, ..., c_n] to
    [c_1 * c_{n-1}, ..., c_{n-2} * c_{n-1}, c_n * c_{n-1}, N(c_{n-1})]."""
    alg = point.algebra
    n, gamma = alg.n, alg.cd._gamma_v
    if not point.cparts[n - 2]:
        raise BasePointError("coordinate n-1 vanishes: star formula undefined here")
    c, _ = _values(point)
    wbar = _conj(c[n - 2])
    vals = [a for ci in c[:n - 2] + [c[n - 1]] for a in _product(gamma, ci, wbar)]
    vals.append(_product(gamma, c[n - 2], wbar)[0])
    out = ProjPointC._from_values(alg.swap_last_two(), vals)
    if out is None:
        raise BasePointError("star formula output vanishes identically here")
    return out
