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
"""

from .cayley_dickson import CDElem
from .errors import AlgebraMismatchError, BasePointError
from .jordan import JordanAlgebra, JordanElem
from .quadform import QuadForm, evaluate, perp, tensor


class ProjPointC:
    """A point of P(C^{n-1} x k): n-1 composition-algebra coordinates and
    one field scalar, up to a common field scalar."""

    __slots__ = ("algebra", "cparts", "last")

    def __init__(self, algebra, cparts, last):
        if not isinstance(algebra, JordanAlgebra):
            raise TypeError("algebra must be a JordanAlgebra")
        cd, field = algebra.cd, algebra.field
        cparts = [c if isinstance(c, CDElem) else cd.element(c) for c in cparts]
        if any(c.algebra != cd for c in cparts):
            raise AlgebraMismatchError("coordinate from the wrong composition algebra")
        if len(cparts) != algebra.n - 1:
            raise ValueError(f"need {algebra.n - 1} C-coordinates")
        last = field.element(last)
        flat = [x for c in cparts for x in c.coords] + [last]
        lead = next((x for x in flat if x), None)
        if lead is None:
            raise ValueError("the zero vector is not a projective point")
        inv = field.one() / lead
        self.algebra = algebra
        self.cparts = tuple(inv * c for c in cparts)
        self.last = inv * last

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

    def blocks(self):
        return list(self.cparts) + [self.last]

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
        flat = elem.flatten()
        lead = next((x for x in flat if x), None)
        if lead is None:
            raise ValueError("the zero element is not a projective point")
        self.elem = elem.scale(elem.algebra.field.one() / lead)

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
    """The trace quadric: phi tensor <b_1, ..., b_{n-1}> perp <b_n>."""
    field = algebra.field
    bprime = QuadForm(field, algebra.b[:-1])
    return perp(tensor(algebra.cd.norm_form, bprime), QuadForm(field, (algebra.b[-1],)))


def on_quadric(point):
    return evaluate(q_form(point.algebra), point.flatten()) == point.algebra.field.zero()


def _coords(point):
    """The n composition-algebra coordinates c_1, ..., c_{n-1}, c_n."""
    return list(point.cparts) + [point.algebra.cd.from_scalar(point.last)]


def veronese_matrix(point):
    """The full n x n matrix [c_i conj(c_j) b_j] (no base-point check);
    b_j is folded into conj(c_j) once per column."""
    coords = _coords(point)
    cols = [c.conj() * bj for c, bj in zip(coords, point.algebra.b)]
    return [[ci * w for w in cols] for ci in coords]


def veronese(point):
    """The rank-one image of a source point; BasePointError on Z1-like
    total vanishing (all matrix entries zero)."""
    alg = point.algebra
    rows = veronese_matrix(point)
    if all(not e for row in rows for e in row):
        raise BasePointError("point lies in the base locus of the map")
    return ProjPointJ(alg.element(rows))


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
    return ProjPointC(alg, col[:-1], col[n - 1].scalar_part())


def half_space_square_zero(point):
    """x(c)^2 = 0 for the half-space element with column n = c (the
    independent matrix-equation form of Z1 membership)."""
    alg = point.algebra
    x = alg.half_space_element(point.cparts)
    return x.square().is_zero()


def in_z1(point):
    """Source base-locus membership: c_n = 0 and c_i conj(c_j) = 0 for all
    i, j < n.  Equivalent to x(c)^2 = 0 and to veronese raising
    BasePointError; the equivalence is exercised by the verification
    sweeps."""
    if point.last:
        return False
    for ci in point.cparts:
        for cj in point.cparts:
            if ci * cj.conj():
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
    n = alg.n
    coords = _coords(point)
    w = coords[n - 2].conj() * alg.b[n - 2]
    col = [c * w for c in coords]
    if all(not e for e in col):
        raise BasePointError("column n-1 vanishes: transposition undefined here")
    if not col[n - 2].is_scalar():
        raise ValueError("slot n-1 entry is not scalar")
    swapped = alg.swap_last_two()
    cparts = col[:n - 2] + [col[n - 1]]
    return ProjPointC(swapped, cparts, col[n - 2].scalar_part())


def transposition_star(point):
    """Independent formula for the transposition: with x * y := x conj(y),
    send [c_1, ..., c_n] to
    [c_1 * c_{n-1}, ..., c_{n-2} * c_{n-1}, c_n * c_{n-1}, N(c_{n-1})]."""
    alg = point.algebra
    n = alg.n
    w = point.cparts[n - 2]
    if not w:
        raise BasePointError("coordinate n-1 vanishes: star formula undefined here")
    wbar = w.conj()
    cparts = [point.cparts[i] * wbar for i in range(n - 2)]
    cparts.append(point.last * wbar)
    nw = w.norm()
    if not nw and all(not c for c in cparts):
        raise BasePointError("star formula output vanishes identically here")
    return ProjPointC(alg.swap_last_two(), cparts, nw)
