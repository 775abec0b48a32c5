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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import _fpcore_py
from .errors import FieldMismatchError
from .scalars import FpElem, PrimeField, Rationals, factor

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
    """q(v) = sum d_i v_i^2."""
    if len(v) != f.dim:
        raise ValueError(f"vector length {len(v)} != dim {f.dim}")
    total = f.field.zero()
    for d, x in zip(f.coeffs, v):
        x = f.field.element(x)
        total = total + d * x * x
    return total


def bilinear(f, u, v):
    """B(u, v) = sum d_i u_i v_i, so that q(u+v) = q(u) + q(v) + 2B(u,v)."""
    if len(u) != f.dim or len(v) != f.dim:
        raise ValueError("vector length mismatch")
    total = f.field.zero()
    for d, x, y in zip(f.coeffs, u, v):
        total = total + d * f.field.element(x) * f.field.element(y)
    return total


# ---------------------------------------------------------------------------
# Hilbert symbols over Q


def _valuation(a, p):
    """v_p of a nonzero rational, and the unit part a / p^v."""
    num, den = a.numerator, a.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _legendre_unit(u, p):
    """Legendre symbol of a rational unit at an odd prime p."""
    r = (u.numerator * pow(u.denominator, p - 2, p)) % p
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def _unit_mod8(u):
    return (u.numerator * pow(u.denominator, -1, 8)) % 8


def hilbert_symbol(a, b, place):
    """The Hilbert symbol (a, b) at a place of Q: an odd prime, 2, or "inf".

    The place must be prime.  That is not tested here, where the cost of
    a primality test on every call would show; callers pass primes, and
    the CLI rejects a --place that is not one.

    Computed by the valuation-and-Legendre formula at odd p, the mod-8
    epsilon/omega formula at 2, and the sign test at the real place.
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
    alpha, u = _valuation(a, p)
    beta, v = _valuation(b, p)
    if p == 2:
        eps_u = (_unit_mod8(u) - 1) // 2 % 2
        eps_v = (_unit_mod8(v) - 1) // 2 % 2
        om_u = (_unit_mod8(u) ** 2 - 1) // 8 % 2
        om_v = (_unit_mod8(v) ** 2 - 1) // 8 % 2
        e = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if e % 2 else 1
    sign = 1
    if (alpha * beta) % 2 and p % 4 == 3:
        sign = -sign
    if beta % 2 and _legendre_unit(u, p) == -1:
        sign = -sign
    if alpha % 2 and _legendre_unit(v, p) == -1:
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
    symbols prod_{i<j} (d_i, d_j)_v at the relevant places."""
    field = f.field
    if isinstance(field, PrimeField):
        prod = math.prod(f.coeffs, start=field.one())
        return FormInvariants(dim=f.dim, disc=field.square_class(prod))
    # the product's square class, from the coefficients' factorizations:
    # its sign times the primes of odd total exponent
    exponents = _prime_exponents(f)
    neg = sum(1 for c in f.coeffs if c < 0)
    disc = Fraction((-1) ** neg * math.prod(p for p, e in exponents.items() if e % 2))
    hasse = {}
    for v in _places(exponents):
        s = 1
        for i, j in itertools.combinations(range(f.dim), 2):
            s *= hilbert_symbol(f.coeffs[i], f.coeffs[j], v)
        hasse[v] = s
    return FormInvariants(dim=f.dim, disc=disc, signature=(f.dim - neg, neg), hasse=hasse)


# ---------------------------------------------------------------------------
# Isotropy and Witt index


def _square_in_Qv(a, place):
    """Is the nonzero rational a a square in the completion at place?"""
    if place == INF:
        return a > 0
    v, u = _valuation(a, place)
    if v % 2:
        return False
    if place == 2:
        return _unit_mod8(u) == 1
    return _legendre_unit(u, place) == 1


def _locally_isotropic(dim, disc, hasse_v, place, signature=None):
    """Isotropy of a form over the completion at place, from invariants.

    dim 2: disc = -1; dim 3: (-1,-disc) = hasse; dim 4: disc != 1 or
    hasse = (-1,-1); dim >= 5: automatic at finite places.
    """
    if place == INF:
        pos, neg = signature
        if dim == 1:
            return False
        return pos > 0 and neg > 0
    if dim == 1:
        return False
    if dim == 2:
        return _square_in_Qv(-disc, place)
    if dim == 3:
        return hilbert_symbol(Fraction(-1), -disc, place) == hasse_v
    if dim == 4:
        if not _square_in_Qv(disc, place):
            return True
        return hasse_v == hilbert_symbol(Fraction(-1), Fraction(-1), place)
    return True


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
                self.hasse[place] *= hilbert_symbol(Fraction(-1), self.disc, place)


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

    F_p: (dim-1)/2 for odd dim; for even dim, dim/2 when
    disc = (-1)^{dim/2} mod squares, else dim/2 - 1.
    Q: iterate at the invariant level, stripping one hyperbolic plane
    while the current invariants stay isotropic.
    """
    field = f.field
    if isinstance(field, PrimeField):
        d = f.dim
        if d % 2:
            return (d - 1) // 2
        disc = invariants(f).disc
        target = field.element((-1) ** (d // 2))
        return d // 2 if field.same_square_class(disc, target) else d // 2 - 1
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


def _diagonalize_gram(field, gram):
    """Diagonal coefficients of a symmetric matrix over a field of odd
    characteristic, by the standard pivot/clear algorithm."""
    m = [row[:] for row in gram]
    k = len(m)
    diag = []
    rows = list(range(k))
    while rows:
        # find a nonzero diagonal pivot, creating one if necessary
        piv = None
        for i in rows:
            if m[i][i]:
                piv = i
                break
        if piv is None:
            found = False
            for i in rows:
                for j in rows:
                    if i != j and m[i][j]:
                        for t in rows:
                            m[i][t] = m[i][t] + m[j][t]
                        for t in rows:
                            m[t][i] = m[t][i] + m[t][j]
                        piv = i
                        found = True
                        break
                if found:
                    break
            if piv is None:
                break  # remaining block is zero; form was degenerate there
        d = m[piv][piv]
        diag.append(d)
        rows.remove(piv)
        for i in rows:
            if m[i][piv]:
                lam = m[i][piv] / d
                for t in range(k):
                    m[i][t] = m[i][t] - lam * m[piv][t]
                for t in range(k):
                    m[t][i] = m[t][i] - lam * m[t][piv]
    return diag


def witt_index_by_search(f):
    """Witt index over F_p computed with no classification input:
    repeatedly find an isotropic vector by exhaustion, split off the
    hyperbolic plane it spans with a polar-form partner, and recurse on a
    re-diagonalized orthogonal complement."""
    field = f.field
    if not isinstance(field, PrimeField):
        raise ValueError("search-based Witt decomposition is F_p only")
    coeffs = list(f.coeffs)
    index = 0
    while len(coeffs) >= 2:
        g = QuadForm(field, tuple(coeffs))
        v = isotropic_vector_search(g)
        if v is None:
            break
        # partner u with B(v, u) != 0 exists by non-degeneracy
        k = len(coeffs)
        partner = None
        for i in range(k):
            u = [field.zero()] * k
            u[i] = field.one()
            if bilinear(g, v, u):
                partner = u
                break
        basis = [list(v), partner]
        # complete to a basis, project away the plane via the polar form
        for i in range(k):
            e = [field.zero()] * k
            e[i] = field.one()
            cand = basis + [e]
            if _rank(field, cand) == len(cand):
                basis.append(e)
        plane = basis[:2]
        comp = []
        gram_vu = bilinear(g, plane[0], plane[1])
        for w in basis[2:]:
            # subtract the plane components: w' = w - a*v - b*u with
            # B(w', v) = B(w', u) = 0
            bv = bilinear(g, w, plane[0])
            bu = bilinear(g, w, plane[1])
            quu = evaluate(g, plane[1])
            # solve for w' orthogonal to the (regular) plane
            b_coef = bv / gram_vu
            a_coef = (bu - b_coef * quu) / gram_vu
            wp = [w[t] - a_coef * plane[0][t] - b_coef * plane[1][t] for t in range(k)]
            comp.append(wp)
        gram = [[bilinear(g, x, y) for y in comp] for x in comp]
        coeffs = _diagonalize_gram(field, gram)
        index += 1
    return index


def _rank(field, vectors):
    m = [list(v) for v in vectors]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for i in range(row, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(len(m)):
            if i != row and m[i][col]:
                lam = m[i][col] / m[row][col]
                m[i] = [a - lam * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
    return rank


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
    base = (p ** (N - 1) - 1) // (p - 1)
    if N % 2:
        return base
    eta = 1 if witt_index(f) == N // 2 else -1
    return base + eta * p ** (N // 2 - 1)
