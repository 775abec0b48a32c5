"""Composition algebras of dimension 2^r (r <= 3) by Cayley-Dickson doubling.

An algebra is determined by a base field and doubling parameters
a_1, ..., a_r; its norm form is the Pfister form <<a_1, ..., a_r>> on the
doubling basis e_0, ..., e_{2^r - 1}, slot by slot.  Doubling multiplies
pairs by (a, b)(c, d) = (ac + lam * conj(d) b, da + b conj(c)) with
lam = a_level, which makes e_level^2 = a_level.

Basis products are monomial, e_i e_j = gamma(i, j) e_{i XOR j}, so each
algebra carries a structure-constant table computed once and shared.  The
table has a closed form (Springer-Veldkamp, Octonions, Jordan Algebras and
Exceptional Groups, 1.5): write i = i' + eps h and j = j' + delta h with h
the top bit of level k.  Then gamma_k(i, j) is gamma_{k-1}(i', j') for
(eps, delta) = (0, 0), gamma_{k-1}(j', i') for (0, 1), s gamma_{k-1}(i', j')
for (1, 0) and s a_k gamma_{k-1}(j', i') for (1, 1), where s = -1 if
j' != 0 and 1 otherwise.  So gamma(i, j) = +-(a product of distinct a_k),
and the table is built level by level with no product of elements.
Split algebras (isotropic norm) are fully supported; zero divisors are
expected over F_p for r >= 2.

Element arithmetic runs on plain values, not on scalar objects: each
operand is unwrapped to integers over one denominator (residues over 1 on
F_p, numerators over the lcm of the denominators on Q), the table is kept
as integers over one denominator too, and the integer result is wrapped
back over the product of the denominators, so each output coordinate is
reduced once (mod p, or by one gcd).  A product accumulates
x_i y_j gamma(i, j) over the nonzero coordinates only, by _fpcore_py's
_product, which the mod-p kernels, jordan and birational share.  The
recursive doubling product _mul_rec is the test oracle for the table and
for the flat product; the algebra itself never calls it.
"""

from ._fpcore_py import _product
from .errors import AlgebraMismatchError
from .quadform import pfister


def _conj_rec(x):
    return (x[0],) + tuple(-c for c in x[1:])


def _mul_rec(x, y, params, field):
    if not params:
        return (x[0] * y[0],)
    half = len(x) // 2
    lam = params[-1]
    sub = params[:-1]
    a, b = x[:half], x[half:]
    c, d = y[:half], y[half:]
    ac = _mul_rec(a, c, sub, field)
    db = _mul_rec(_conj_rec(d), b, sub, field)
    da = _mul_rec(d, a, sub, field)
    bc = _mul_rec(b, _conj_rec(c), sub, field)
    return (tuple(p + lam * q for p, q in zip(ac, db))
            + tuple(p + q for p, q in zip(da, bc)))


class CDAlgebra:
    """A 2^r-dimensional composition algebra over an exact field."""

    def __init__(self, field, params):
        params = tuple(field.element(a) for a in params)
        if len(params) > 3:
            raise ValueError("composition algebras exist only for r <= 3")
        if any(not a for a in params):
            raise ValueError("doubling parameters must be nonzero")
        self.field = field
        self.params = params
        self.r = len(params)
        self.dim = 1 << self.r
        self.norm_form = pfister(field, params)
        self._gamma = self._build_table()
        # plain values of the table and of the norm form for the flat
        # arithmetic, each as integers over one denominator
        m = self.dim
        flat, self._gamma_den = field.unwrap([g for row in self._gamma for g in row])
        self._gamma_v = [flat[i * m:(i + 1) * m] for i in range(m)]
        self._norm_v, self._norm_den = field.unwrap(self.norm_form.coeffs)
        # immutable, so hashed once: a point's hash reaches every block's
        self._hash = hash((field, params))

    def _build_table(self):
        """gamma[i][j] with e_i e_j = gamma[i][j] e_{i^j}, by the closed
        form of the module docstring: row i' of each level's table is row i'
        of the previous one, gamma(i', .), followed by its column i',
        gamma(., i'); row i' + h is the same two with the signs s and the
        factor a_k."""
        gamma = [[self.field.one()]]
        for a in self.params:
            top, bottom = [], []
            for row, col in zip(gamma, zip(*gamma)):
                top.append([*row, *col])
                bottom.append([row[0], *(-g for g in row[1:]),
                               a * col[0], *(-a * g for g in col[1:])])
            gamma = top + bottom
        return gamma

    # -- element constructors -------------------------------------------------

    def element(self, coords):
        coords = tuple(self.field.element(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return CDElem(self, coords)

    def zero(self):
        return self.element([0] * self.dim)

    def one(self):
        return self.element([1] + [0] * (self.dim - 1))

    def basis(self, i):
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range")
        return self.element([1 if t == i else 0 for t in range(self.dim)])

    def from_scalar(self, s):
        return self.element([s] + [0] * (self.dim - 1))

    def table_json(self):
        """Basis multiplication table, JSON-friendly."""
        return [[{"index": i ^ j, "coef": str(self._gamma[i][j])}
                 for j in range(self.dim)] for i in range(self.dim)]

    def __eq__(self, other):
        return (isinstance(other, CDAlgebra) and other.field == self.field
                and other.params == self.params)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CD({self.field}, r={self.r}, a={list(self.params)})"


class CDElem:
    """An element of a CDAlgebra; immutable coordinates in the doubling basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    def _check(self, other):
        if not isinstance(other, CDElem):
            raise TypeError(f"cannot combine CDElem with {type(other).__name__}")
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatchError("elements of different composition algebras")

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign * other over the common denominator."""
        self._check(other)
        f = self.algebra.field
        (u, du), (v, dv) = f.unwrap(self.coords), f.unwrap(other.coords)
        sdu = sign * du
        return CDElem(self.algebra, f.wrap([a * dv + b * sdu for a, b in zip(u, v)],
                                           du * dv))

    def __neg__(self):
        f = self.algebra.field
        u, du = f.unwrap(self.coords)
        return CDElem(self.algebra, f.wrap([-a for a in u], du))

    def __mul__(self, other):
        if not isinstance(other, CDElem):
            return self._scaled(other)
        self._check(other)
        alg = self.algebra
        f = alg.field
        (u, du), (v, dv) = f.unwrap(self.coords), f.unwrap(other.coords)
        return CDElem(alg, f.wrap(_product(alg._gamma_v, u, v), du * dv * alg._gamma_den))

    def _scaled(self, s):
        """Scalar action."""
        f = self.algebra.field
        (sn, sd), (u, du) = f.value(s), f.unwrap(self.coords)
        return CDElem(self.algebra, f.wrap([sn * a for a in u], sd * du))

    __rmul__ = _scaled

    def conj(self):
        f = self.algebra.field
        u, du = f.unwrap(self.coords)
        return CDElem(self.algebra, f.wrap([u[0]] + [-a for a in u[1:]], du))

    def norm(self):
        """N(x), the Pfister norm form evaluated on the coordinates; equals
        the e_0 part of x * conj(x)."""
        alg = self.algebra
        f = alg.field
        u, du = f.unwrap(self.coords)
        total = 0
        for d, c in zip(alg._norm_v, u):
            if c:
                total += d * c * c
        return f.wrap([total], alg._norm_den * du * du)[0]

    def trace(self):
        """t(x) with x + conj(x) = t(x) e_0."""
        return self.coords[0] + self.coords[0]

    def scalar_part(self):
        return self.coords[0]

    def __eq__(self, other):
        if not isinstance(other, CDElem):
            return NotImplemented
        a, b = self.algebra, other.algebra
        return (a is b or a == b) and self.coords == other.coords

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coords):
            if c:
                parts.append(str(c) if i == 0 else f"{c}*e{i}")
        return " + ".join(parts) if parts else "0"
