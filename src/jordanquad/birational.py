"""The degree-2 rank-one map from P(C^{n-1} x k) into PJ, and its geometry.

For a Jordan algebra Sym(M_n(C), sigma_b), a point [c_1, ..., c_{n-1}, c_n]
(c_i in C, c_n a scalar) maps to the rank-one symmetric matrix with entries
x_ij = c_i conj(c_j) b_j.  This right-weighted convention is the one that
is literally sigma_b-symmetric.  The inverse takes column n, which equals
(b_n c_n) * c wherever c_n != 0, so the map is birational onto its image.

Base loci: the source locus Z1 is cut out by c_n = 0 together with all
products c_i conj(c_j) = 0, that is by the vanishing of every entry of the
image, which in_z1 reads from the map's own entries; equivalently by
x(c)^2 = 0 for the half-space element x(c) whose column n is c (read up
to the first nonzero entry of its upper triangle), the independent test.
The target locus Z2 consists of the matrices whose row n (hence column n)
vanishes.

Projective points are stored as their canonical plain values (the
field's `projective`): over F_p the residues times the inverse of the
lead, so the lead is 1; over Q the primitive integer vector with a
positive lead.  Equality, hashing and deduplication compare that tuple,
and the scalar objects of a point (its CDElems, or the JordanElem of an
image) are views over the lead, built on first read.

The maps run on plain values, as cayley_dickson and jordan do.  A point's
values are read as they are stored, over their lead, and b is unwrapped
once per algebra.  The products c_i conj(c_j) are accumulated as integers
with the structure-constant table by _fpcore_py's _product and _conj, the
product on plain integers that the mod-p kernels use too.  They are
formed in one place, _veronese_upper, for the pairs i <= j of nonzero
coordinates: the image's lower triangle is
c_j conj(c_i) b_i = conj(c_i conj(c_j)) b_i, and Z1 membership is its
zero test.  The inverse and the transposition read one column of the
image, so only transposition_star, the paper's formula, forms products of
its own, and comparing the two checks the map.  Zero tests run on the
reduced values, and each output point is canonicalized once from its
integers, whatever their common denominator.
"""

from ._fpcore_py import _conj, _product
from .cayley_dickson import CDElem
from .errors import AlgebraMismatchError, BasePointError
from .jordan import JordanAlgebra, JordanElem, _jordan_upper
from .quadform import QuadForm, perp, tensor


class _ProjPoint:
    """A nonzero vector up to a field scalar, stored as its canonical
    values `vals` (field.projective); == and hash compare them.  The
    subclasses build their scalar objects from the values on first read
    and keep them in _view."""

    __slots__ = ("algebra", "vals", "_view")

    @classmethod
    def _from_values(cls, algebra, vals):
        """The point whose coordinates, in the subclass's order, have the
        plain values vals over any common denominator, unchecked; None for
        the zero vector."""
        point = cls.__new__(cls)
        return point if point._canonicalize(algebra, vals) else None

    def _canonicalize(self, algebra, vals):
        """Set the point to the canonical values of vals; False, setting
        nothing, when every value is zero."""
        canon = algebra.field.projective(vals)
        if canon is None:
            return False
        self.algebra, self.vals, self._view = algebra, canon, None
        return True

    def _wrapped(self):
        """The canonical values as field scalars, over the lead."""
        vals = self.vals
        return self.algebra.field.wrap(vals, next(filter(None, vals)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.algebra, other.algebra
        return (a is b or a == b) and self.vals == other.vals

    def __hash__(self):
        return hash((self.algebra, self.vals))


class ProjPointC(_ProjPoint):
    """A point of P(C^{n-1} x k): n-1 composition-algebra coordinates and
    one field scalar, up to a common field scalar.  vals holds the
    canonical values of the block-major coordinates (those of c_1, ...,
    c_{n-1}, then the scalar); cparts and last are their views."""

    __slots__ = ()

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

    def _split(self):
        """(cparts, last): the values over their lead as n-1 CDElems and
        one scalar, built on first read."""
        if self._view is None:
            cd = self.algebra.cd
            m, canon = cd.dim, self._wrapped()
            self._view = (tuple(CDElem(cd, canon[k:k + m])
                                for k in range(0, len(canon) - 1, m)), canon[-1])
        return self._view

    @property
    def cparts(self):
        return self._split()[0]

    @property
    def last(self):
        return self._split()[1]

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

    def __repr__(self):
        return "[" + ", ".join(repr(c) for c in self.cparts) + f"; {self.last}]"


class ProjPointJ(_ProjPoint):
    """A nonzero Jordan element up to field scaling.  vals holds the
    canonical values of its entries' coordinates, row-major; elem is their
    view."""

    __slots__ = ()

    def __init__(self, elem):
        if not isinstance(elem, JordanElem):
            raise TypeError("expected a JordanElem")
        alg = elem.algebra
        if not self._canonicalize(alg, alg.field.unwrap(elem.flatten())[0]):
            raise ValueError("the zero element is not a projective point")

    @property
    def elem(self):
        """The values over their lead as a JordanElem, built on first
        read."""
        if self._view is None:
            alg = self.algebra
            cd, m, n = alg.cd, alg.cd.dim, alg.n
            canon = self._wrapped()
            entries = [CDElem(cd, canon[k:k + m]) for k in range(0, len(canon), m)]
            self._view = JordanElem(alg, tuple(tuple(entries[k:k + n])
                                               for k in range(0, n * n, n)))
        return self._view

    def _rows(self):
        """The entries' canonical values as n rows of coordinate tuples,
        over the lead."""
        n, m, vals = self.algebra.n, self.algebra.cd.dim, self.vals
        return [[vals[k:k + m] for k in range(i * n * m, (i + 1) * n * m, m)]
                for i in range(n)]

    def __repr__(self):
        return f"P{self.elem!r}"


def projective_eq(u, v):
    """u = lambda v for a nonzero field scalar lambda?  Both point types
    canonicalize on construction, so this is comparison plus an ambient
    check."""
    if type(u) is not type(v):
        raise AlgebraMismatchError("points of different ambient spaces")
    if u.algebra is not v.algebra and u.algebra != v.algebra:
        raise AlgebraMismatchError("points of different ambient spaces")
    return u.vals == v.vals


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
    """q(point) = 0 for the trace quadric, summed on the point's values
    read in flatten's slot-major order, the order of the form's
    coefficients."""
    alg = point.algebra
    m, vals = alg.cd.dim, point.vals
    d, _ = alg.field.unwrap(q_form(alg).coeffs)
    flat = [a for s in range(m) for a in vals[s:-1:m]] + [vals[-1]]
    return not alg.field.reduce([sum(c * a * a for c, a in zip(d, flat))])[0]


def _values(point):
    """The plain values of the n composition-algebra coordinates c_1, ...,
    c_{n-1}, c_n = last e_0: the point's values as coordinate sequences,
    and their lead as the common denominator."""
    m, vals = point.algebra.cd.dim, point.vals
    coords = [vals[k:k + m] for k in range(0, len(vals) - 1, m)]
    coords.append([vals[-1]] + [0] * (m - 1))
    return coords, next(filter(None, vals))


def _veronese_upper(alg, c):
    """(i, j, c_i conj(c_j)) in row order for each i <= j whose coordinates
    are both nonzero, on the plain values c of _values: the unreduced
    product over the table's denominator, formed when it is read.  The
    image's entry x_ij is that product times b_j; every other entry is 0."""
    gamma = alg.cd._gamma_v
    nonzero = [i for i, ci in enumerate(c) if any(ci)]
    for k, i in enumerate(nonzero):
        for j in nonzero[k:]:
            yield i, j, _product(gamma, c[i], _conj(c[j]))


def _veronese_values(point):
    """The entries c_i conj(c_j) b_j of the image matrix as plain values:
    n rows of coordinate lists, and their common denominator.  The upper
    triangle comes from _veronese_upper, the lower one is
    conj(c_i conj(c_j)) b_i.  Zero entries share one list, which callers
    must not change."""
    alg = point.algebra
    n = alg.n
    c, den = _values(point)
    bv, bden = alg._b_v
    zero = [0] * alg.cd.dim
    rows = [[zero] * n for _ in range(n)]
    for i, j, u in _veronese_upper(alg, c):
        rows[i][j] = [bv[j] * a for a in u]
        if i < j:
            rows[j][i] = [bv[i] * a for a in _conj(u)]
    return rows, den * den * alg.cd._gamma_den * bden


def veronese(point):
    """The rank-one image of a source point; BasePointError on Z1-like
    total vanishing (all matrix entries zero), exactly where in_z1 holds."""
    rows, _ = _veronese_values(point)
    pj = ProjPointJ._from_values(point.algebra, [a for row in rows for v in row for a in v])
    if pj is None:
        raise BasePointError("point lies in the base locus of the map")
    return pj


def _column_point(pj, j, algebra):
    """Column j of the image pj, read from its values, as a point of
    P(C^{n-1} x k) for algebra: the entries of the other rows in order,
    then the diagonal entry as the scalar slot; None when the column
    vanishes.  ValueError when the diagonal entry is not scalar."""
    col = [row[j] for row in pj._rows()]
    if any(col[j][1:]):
        raise ValueError("diagonal entry is not scalar; element is not sigma_b-symmetric")
    return ProjPointC._from_values(
        algebra, [a for i, e in enumerate(col) if i != j for a in e] + [col[j][0]])


def veronese_inverse(pj):
    """Column n of the matrix, read from the image's values as a point of
    P(C^{n-1} x k); BasePointError when that slice vanishes (membership in
    Z2)."""
    out = _column_point(pj, pj.algebra.n - 1, pj.algebra)
    if out is None:
        raise BasePointError("column n vanishes: point lies in the inverse base locus")
    return out


def half_space_square_zero(point):
    """x(c)^2 = 0 for the half-space element with column n = c (the
    independent matrix-equation form of Z1 membership) on the point's
    values: the entries i <= j of the square come from _jordan_upper in row
    order, and the first with a nonzero reduced sum answers.  They decide,
    as each lower entry is (b_i / b_j) conj(upper entry) times a unit: the
    ratios' denominators are 1 over F_p and nonzero over Q."""
    alg = point.algebra
    c, den = _values(point)
    x, _ = alg._half_space_values(c[:-1], den)
    return not any(any(alg.field.reduce(acc)) for *_, acc in _jordan_upper(alg, x, x))


def in_z1(point):
    """Source base-locus membership: every entry of the image vanishes, that
    is c_n = 0 and c_i conj(c_j) = 0 for all i, j < n, so veronese raises
    BasePointError exactly here.  The products come from _veronese_upper
    in row order, and the first with a nonzero reduced value answers;
    c_j conj(c_i) = conj(c_i conj(c_j)) vanishes with it.  The equivalence
    with x(c)^2 = 0 is exercised by the verification sweeps."""
    alg = point.algebra
    reduce = alg.field.reduce
    return not any(any(reduce(u)) for *_, u in _veronese_upper(alg, _values(point)[0]))


def in_z2(pj):
    """Target base-locus membership: row n of the matrix vanishes, read
    from the image's values.  Meant for traceless rank-one elements; the
    predicate itself is linear."""
    return not any(map(any, pj._rows()[-1]))


def transposition_map(point):
    """The composite of the map for u = E_nn with the inverse of the map
    for u' = E_{n-1,n-1}: column n-1 of the image, c_i conj(c_{n-1}) b_{n-1}
    for i = 1, ..., n, with the last two coordinate slots swapped.  Lands
    in the space for the form with b_{n-1} and b_n exchanged."""
    alg = point.algebra
    out = _column_point(veronese(point), alg.n - 2, alg.swap_last_two())
    if out is None:
        raise BasePointError("column n-1 vanishes: transposition undefined here")
    return out


def transposition_star(point):
    """The star formula for the transposition: with x * y := x conj(y),
    send [c_1, ..., c_n] to
    [c_1 * c_{n-1}, ..., c_{n-2} * c_{n-1}, c_n * c_{n-1}, N(c_{n-1})].
    It forms its products itself, so it checks transposition_map, which
    reads them from the image."""
    alg = point.algebra
    n, gamma = alg.n, alg.cd._gamma_v
    c, _ = _values(point)
    if not any(c[n - 2]):
        raise BasePointError("coordinate n-1 vanishes: star formula undefined here")
    wbar = _conj(c[n - 2])
    vals = [a for ci in c[:n - 2] + [c[n - 1]] for a in _product(gamma, ci, wbar)]
    vals.append(_product(gamma, c[n - 2], wbar)[0])
    out = ProjPointC._from_values(alg.swap_last_two(), vals)
    if out is None:
        raise BasePointError("star formula output vanishes identically here")
    return out
