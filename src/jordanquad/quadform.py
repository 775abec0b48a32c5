"""Diagonal quadratic forms with exact local-global invariants.

Supports Pfister forms, tensor/orthogonal-sum constructions, Hilbert
symbols over Q, Hasse invariants, isotropy decisions (Hasse-Minkowski over
Q, the dim/disc classification over F_p) and Witt indices.  Over Q the Witt
index is computed purely at the level of invariants by stripping hyperbolic
planes; an exhaustive vector-search decomposition is provided as an
independent oracle over F_p.
"""

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import _fpcore_py
from ._fpcore_py import _diagonalize_gram
from .errors import FieldMismatchError
from .scalars import FpElem, PrimeField, Rationals, factor, is_residue

INF = "inf"  # the real place, used as a key in Hasse maps


@dataclass(frozen=True)
class QuadForm:
    """A non-degenerate diagonal form <d_1,...,d_m>; all d_i nonzero."""

    field: object
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.field.element(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("empty diagonal")
        if any(not c for c in coeffs):
            raise ValueError("degenerate form: zero diagonal coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self):
        return len(self.coeffs)

    def __repr__(self):
        return "<" + ",".join(str(c) for c in self.coeffs) + ">"


def pfister(field, params):
    """The Pfister form <<a_1,...,a_r>> = <1,-a_1> x ... x <1,-a_r>.

    Built by doubling (each new slot appended after the old ones), so the
    diagonal matches the Cayley-Dickson basis e_0,...,e_{2^r-1} slot by
    slot: the coefficient at index i is prod of (-a_j) over the set bits
    of i.
    """
    params = [field.element(a) for a in params]
    if any(not a for a in params):
        raise ValueError("Pfister parameters must be nonzero")
    coeffs = [field.one()]
    for a in params:
        coeffs = coeffs + [-a * c for c in coeffs]
    return QuadForm(field, tuple(coeffs))


def tensor(f, g):
    """Tensor product: all pairwise products, row-major with f outside."""
    if f.field != g.field:
        raise FieldMismatchError("tensor over different fields")
    return QuadForm(f.field, tuple(a * b for a in f.coeffs for b in g.coeffs))


def perp(f, g):
    """Orthogonal sum: concatenation of diagonals."""
    if f.field != g.field:
        raise FieldMismatchError("perp over different fields")
    return QuadForm(f.field, f.coeffs + g.coeffs)


def evaluate(f, v):
    """q(v) = sum d_i v_i^2, summed as integers over one denominator from
    one unwrap of the coefficients and of the coordinates (each coerced
    into the field once), and wrapped once."""
    if len(v) != f.dim:
        raise ValueError(f"vector length {len(v)} != dim {f.dim}")
    field = f.field
    (d, dd), (x, dx) = field.unwrap(f.coeffs), field.unwrap([field.element(a) for a in v])
    return field.wrap([sum(c * a * a for c, a in zip(d, x))], dd * dx * dx)[0]


def bilinear(f, u, v):
    """B(u, v) = sum d_i u_i v_i, so that q(u+v) = q(u) + q(v) + 2B(u,v);
    summed on plain values as in evaluate."""
    if len(u) != f.dim or len(v) != f.dim:
        raise ValueError("vector length mismatch")
    field = f.field
    (d, dd), (x, dx), (y, dy) = (field.unwrap(f.coeffs),
                                 field.unwrap([field.element(a) for a in u]),
                                 field.unwrap([field.element(a) for a in v]))
    return field.wrap([sum(c * a * b for c, a, b in zip(d, x, y))], dd * dx * dy)[0]


# ---------------------------------------------------------------------------
# Hilbert symbols over Q


def _valuation(a, p):
    """v_p of a nonzero int a, and its unit part a / p^v, an int."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def hilbert_symbol(a, b, place):
    """The Hilbert symbol (a, b) at a place of Q: an odd prime, 2, or "inf".

    The place must be prime.  That is not tested here, where the cost of
    a primality test on every call would show; callers pass primes, and
    the CLI rejects a --place that is not one.

    The symbol depends only on the square classes of a and b, so a
    rational n/d is replaced by the integer n*d = (n/d) d^2.  Then, with
    a = p^alpha u and b = p^beta v (Serre, A Course in Arithmetic, III.1):
    at odd p the valuation-and-Legendre formula, at 2 the epsilon/omega
    formula on u and v mod 8, and the sign test at the real place.
    """
    Q = Rationals()
    a, b = Q.element(a), Q.element(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol: zero input")
    if place == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"bad place {place!r}")
    alpha, u = _valuation(a.numerator * a.denominator, p)
    beta, v = _valuation(b.numerator * b.denominator, p)
    if p == 2:
        u, v = u % 8, v % 8
        e = ((u - 1) // 2 * ((v - 1) // 2) + alpha * ((v * v - 1) // 8)
             + beta * ((u * u - 1) // 8))
        return -1 if e % 2 else 1
    sign = -1 if alpha * beta % 2 and p % 4 == 3 else 1
    if beta % 2 and not is_residue(u, p):
        sign = -sign
    if alpha % 2 and not is_residue(v, p):
        sign = -sign
    return sign


def _prime_exponents(f):
    """prime -> exponent summed over the numerators and denominators of
    the coefficients of a form over Q."""
    exponents = Counter()
    for c in f.coeffs:
        exponents.update(factor(abs(c.numerator)))
        exponents.update(factor(c.denominator))
    return exponents


def _places(exponents):
    return [INF, 2] + sorted(p for p in exponents if p != 2)


def relevant_places(f):
    """["inf", 2] plus the odd primes dividing some coefficient's
    numerator or denominator.  Hilbert symbols are +1 everywhere else."""
    return _places(_prime_exponents(f))


# ---------------------------------------------------------------------------
# Invariants


@dataclass
class FormInvariants:
    dim: int
    disc: object            # canonical square-class representative
    signature: tuple = None  # (positives, negatives); Q only
    hasse: dict = None       # place -> +-1; Q only

    def as_dict(self):
        d = {"dim": self.dim, "disc": str(self.disc)}
        if self.signature is not None:
            d["signature"] = list(self.signature)
        if self.hasse is not None:
            d["hasse"] = {str(k): v for k, v in self.hasse.items()}
        return d


def invariants(f):
    """dim, discriminant mod squares, and over Q signature plus the Hasse
    symbols prod_{i<j} (d_i, d_j)_v at the relevant places.

    The Hilbert symbol is multiplicative in each argument, so
    prod_{i<j} (d_i, d_j)_v = prod_{j>=2} (d_1 ... d_{j-1}, d_j)_v: each
    place takes one symbol per coefficient, on the running prefix product,
    rather than one per pair."""
    field = f.field
    if isinstance(field, PrimeField):
        prod = math.prod(f.coeffs, start=field.one())
        return FormInvariants(dim=f.dim, disc=field.square_class(prod))
    # the product's square class, from the coefficients' factorizations:
    # its sign times the primes of odd total exponent
    exponents = _prime_exponents(f)
    neg = sum(1 for c in f.coeffs if c < 0)
    disc = Fraction((-1) ** neg * math.prod(p for p, e in exponents.items() if e % 2))
    pairs = list(zip(itertools.accumulate(f.coeffs[:-1], operator.mul), f.coeffs[1:]))
    hasse = {v: math.prod(hilbert_symbol(a, d, v) for a, d in pairs)
             for v in _places(exponents)}
    return FormInvariants(dim=f.dim, disc=disc, signature=(f.dim - neg, neg), hasse=hasse)


# ---------------------------------------------------------------------------
# Isotropy and Witt index


def _square_in_Qv(a, place):
    """Is the nonzero rational a a square in the completion at place?"""
    if place == INF:
        return a > 0
    v, u = _valuation(a.numerator * a.denominator, place)
    if v % 2:
        return False
    return u % 8 == 1 if place == 2 else is_residue(u, place)


def _locally_isotropic(dim, disc, hasse_v, place, signature=None):
    """Isotropy of a form of dim 3 or 4 over the completion at place, from
    invariants: dim 3: (-1,-disc) = hasse; dim 4: disc != 1 or
    hasse = (-1,-1).  _InvState.isotropic settles the other dims itself.
    """
    if place == INF:
        pos, neg = signature
        return pos > 0 and neg > 0
    if dim == 3:
        return hilbert_symbol(-1, -disc, place) == hasse_v
    if not _square_in_Qv(disc, place):
        return True
    return hasse_v == hilbert_symbol(-1, -1, place)


class _InvState:
    """Mutable (dim, disc, signature, hasse) tuple for Witt iteration; disc
    stays a signed square-free integer, so it compares with == and negates."""

    def __init__(self, inv):
        self.dim = inv.dim
        self.disc = inv.disc
        self.pos, self.neg = inv.signature
        self.hasse = dict(inv.hasse)

    def isotropic(self):
        if self.dim < 2:
            return False
        if self.dim == 2:
            return self.disc == -1
        if self.dim >= 5:
            return self.pos > 0 and self.neg > 0
        for place in self.hasse:
            sig = (self.pos, self.neg) if place == INF else None
            if not _locally_isotropic(self.dim, self.disc, self.hasse[place],
                                      place, signature=sig):
                return False
        return True

    def strip_hyperbolic(self):
        self.dim -= 2
        self.pos -= 1
        self.neg -= 1
        self.disc = -self.disc
        if self.dim >= 1:
            for place in self.hasse:
                self.hasse[place] *= hilbert_symbol(-1, self.disc, place)


def is_isotropic(f):
    """Does f represent zero nontrivially?

    F_p: iff the Witt index is positive (dim >= 3 always, dim 2 iff
    disc = -1 mod squares, dim 1 never).
    Q: dim >= 5 iff indefinite; dim <= 4 by Hasse-Minkowski over the
    relevant places.
    """
    if isinstance(f.field, PrimeField):
        return witt_index(f) > 0
    return _InvState(invariants(f)).isotropic()


def witt_index(f):
    """Number of hyperbolic plane summands in the Witt decomposition.

    F_p: (dim-1)/2 for odd dim; for even dim, dim/2 when the residue
    (-1)^{dim/2} d_1 ... d_dim is a square (one is_residue), else dim/2 - 1.
    Q: iterate at the invariant level, stripping one hyperbolic plane
    while the current invariants stay isotropic.
    """
    field = f.field
    if isinstance(field, PrimeField):
        d, p = f.dim, field.p
        if d % 2:
            return (d - 1) // 2
        residue = math.prod([c.v for c in f.coeffs], start=(-1) ** (d // 2)) % p
        return d // 2 if is_residue(residue, p) else d // 2 - 1
    state = _InvState(invariants(f))
    idx = 0
    while state.dim >= 2 and state.isotropic():
        state.strip_hyperbolic()
        idx += 1
    return idx


# ---------------------------------------------------------------------------
# Exhaustive searches (oracles)


def isotropic_vector_search(f, bound=3):
    """A nonzero v with q(v) = 0, or None.

    F_p: exhaustive over canonical projective representatives (first
    nonzero coordinate 1), so None proves anisotropy.  Q: the first vector
    of the integer box [-bound, bound]^dim, in lexicographic order, with
    q(v) = 0, and its sign turned so that its first nonzero coordinate is
    positive; None only means no vector in the box.  The last coordinate
    is solved for, not walked: with the coefficients cleared of
    denominators, each prefix (x_1, ..., x_{dim-1}) in turn gives
    a_dim x_dim^2 = -(a_1 x_1^2 + ... ), whose least root -s (s = isqrt,
    s <= bound) is the walk's first hit on that prefix.
    """
    field = f.field
    if isinstance(field, PrimeField):
        v = _fpcore_py.isotropic_vector(field.p, [c.v for c in f.coeffs])
        if v is None:
            return None
        return tuple(FpElem(field.p, x) for x in v)
    den = math.lcm(*(c.denominator for c in f.coeffs))
    *head, last = [c.numerator * (den // c.denominator) for c in f.coeffs]
    for prefix in itertools.product(range(-bound, bound + 1), repeat=f.dim - 1):
        sq, rem = divmod(-sum(a * x * x for a, x in zip(head, prefix)), last)
        if rem or sq < 0:
            continue
        s = math.isqrt(sq)
        if s * s != sq or s > bound or not (s or any(prefix)):
            continue
        v = prefix + (-s,)
        sign = 1 if next(x for x in v if x) > 0 else -1
        return tuple(Fraction(sign * x) for x in v)
    return None


def witt_index_by_search(f):
    """Witt index over F_p computed with no classification input:
    repeatedly find an isotropic vector v by exhaustion, split off the
    hyperbolic plane through it, and recurse on v^perp / v, which is
    isometric to the plane's orthogonal complement (Lam, Introduction to
    Quadratic Forms over Fields, I.3).

    For <d_1, ..., d_k> and L, M the first two indices with v_i != 0, the
    vectors w_i = e_i - (d_i v_i / d_L v_L) e_L, i not in {L, M}, lie in
    v^perp and have zero M-coordinate, so they span a complement of v
    there.  Their Gram matrix d_i [i = j] + c d_i v_i d_j v_j, with
    c = 1 / (d_L v_L^2), is re-diagonalized for the next round by
    _fpcore_py._diagonalize_gram, which the sweeps' null count shares.

    Vectors, Gram matrices and coefficients are residues in [0, p) held as
    plain ints; each isotropic vector comes from isotropic_vector_search."""
    field = f.field
    if not isinstance(field, PrimeField):
        raise ValueError("search-based Witt decomposition is F_p only")
    p = field.p
    coeffs = [c.v for c in f.coeffs]
    index = 0
    while len(coeffs) >= 2:
        v = isotropic_vector_search(QuadForm(field, tuple(coeffs)))
        if v is None:
            break
        # q(v) = 0 with all d_i nonzero: v has at least two nonzero entries
        dv = [d * x.v % p for d, x in zip(coeffs, v)]
        L, M = [i for i, x in enumerate(dv) if x][:2]
        c = pow(dv[L] * v[L].v, -1, p)
        rest = [i for i in range(len(coeffs)) if i not in (L, M)]
        coeffs = _diagonalize_gram(p, [[(coeffs[i] * (i == j) + c * dv[i] * dv[j]) % p
                                        for j in rest] for i in rest])
        index += 1
    return index


def fp_projective_zero_count(f):
    """Number of projective zeros of a non-degenerate form over F_p.

    Odd dim N: (p^{N-1} - 1)/(p - 1), independent of the coefficients.
    Even dim N: add p^{N/2-1} when the form is hyperbolic (Witt index
    N/2, i.e. disc = (-1)^{N/2} mod squares), subtract it otherwise.
    """
    field = f.field
    if not isinstance(field, PrimeField):
        raise ValueError("point counting is F_p only")
    p, N = field.p, f.dim
    base = _fpcore_py.projective_size(p, N - 1)
    if N % 2:
        return base
    eta = 1 if witt_index(f) == N // 2 else -1
    return base + eta * p ** (N // 2 - 1)
