"""Formal motive expressions and their Tate profiles.

A motive here is a purely formal multiset of labeled summands with Tate
twists; no correspondences or Chow groups are modeled.  What can be
computed exactly at this level is the geometric-point shadow: the multiset
of twist degrees over a splitting field (equivalently a Poincare
polynomial with nonnegative coefficients).  Summand kinds:

* ``F(r, n)``: the higher-form summand with split profile
  {2^r i, 2^r (n-1) - 2^r i - 1 : 0 <= i < floor(n/2)}; F(r, 1) = 0.
* ``R(r)``: the Rost summand, profile {0, 2^{r-1} - 1} (so {0, 0} at r=1).
* ``SplitQuadric(D)``: a split D-dimensional quadric, profile {0..D} with
  the middle degree doubled when D is even.
* ``Tate``: a single class {0}.

The decomposition formulas below cover multiples of Pfister forms, their
codimension-(2^r - 1) neighbours, the base locus Z1 of the rank-one map,
and the rank-one varieties X(J); verify_blowup checks the blow-up identity
relating them and poincare_xj_recursive rearranges it into a recursion.
"""

from collections import Counter
from dataclasses import dataclass

from .errors import NegativeCoefficientError


class TateProfile:
    """A multiset of nonnegative twist degrees: ints, not bools or floats."""

    __slots__ = ("counts",)

    def __init__(self, data=None):
        counts = Counter(data)
        if counts and ({*map(type, counts), *map(type, counts.values())} != {int}
                       or min(counts) < 0 or min(counts.values()) < 0):
            raise ValueError("profiles have nonnegative integer degrees and counts")
        self.counts = +counts if 0 in counts.values() else counts

    def shift(self, i):
        return TateProfile({d + i: c for d, c in self.counts.items()})

    def shifted_sum(self, shifts):
        """sum_{i in shifts} t^i P: the same profile as adding up
        self.shift(i), built in one Counter.  Empty when shifts is empty."""
        out = Counter()
        for i in shifts:
            for d, c in self.counts.items():
                out[d + i] += c
        return TateProfile(out)

    def __add__(self, other):
        return TateProfile(self.counts + other.counts)

    def subtract(self, other):
        """Strict multiset difference; going negative is an inconsistency."""
        out = Counter(self.counts)
        for d, c in other.counts.items():
            out[d] -= c
            if out[d] < 0:
                raise NegativeCoefficientError(f"degree {d} count went negative")
        return TateProfile(out)

    def total(self):
        return sum(self.counts.values())

    def max_degree(self):
        return max(self.counts) if self.counts else -1

    def coefficients(self):
        """Counts by degree 0..max, as a list (a Poincare polynomial)."""
        top = self.max_degree()
        return [self.counts.get(d, 0) for d in range(top + 1)]

    def as_multiset(self):
        return sorted(d for d, c in self.counts.items() for _ in range(c))

    def eval_at(self, q):
        """Point count over F_q of a split cellular variety with this
        profile: sum of q^d over the multiset."""
        return sum(c * q ** d for d, c in self.counts.items())

    def is_palindromic(self):
        coeffs = self.coefficients()
        return coeffs == coeffs[::-1]

    def __eq__(self, other):
        if not isinstance(other, TateProfile):
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self):
        return hash(tuple(sorted(self.counts.items())))

    def __repr__(self):
        return f"TateProfile({self.as_multiset()})"


@dataclass(frozen=True)
class Summand:
    """One labeled summand with a Tate twist."""

    kind: str          # "F", "R", "SplitQuadric", "Tate"
    r: int = None
    n: int = None
    dim: int = None    # SplitQuadric only
    twist: int = 0

    def __post_init__(self):
        if self.twist < 0:
            raise ValueError("twists are nonnegative here")
        if self.kind == "F":
            if self.r is None or self.n is None or self.r < 1 or self.n < 1:
                raise ValueError("F needs r >= 1, n >= 1")
        elif self.kind == "R":
            if self.r is None or self.r < 1:
                raise ValueError("R needs r >= 1")
        elif self.kind == "SplitQuadric":
            if self.dim is None or self.dim < 0:
                raise ValueError("SplitQuadric needs dim >= 0")
        elif self.kind != "Tate":
            raise ValueError(f"unknown summand kind {self.kind!r}")

    def _base_degrees(self):
        """The untwisted profile, as a list of degrees."""
        if self.kind == "F":
            out = []  # stays empty for n = 1: F(r, 1) is the zero motive
            for i in range(self.n // 2):
                out.append((1 << self.r) * i)
                out.append((1 << self.r) * (self.n - 1) - (1 << self.r) * i - 1)
            return out
        if self.kind == "R":
            return [0, (1 << (self.r - 1)) - 1]
        if self.kind == "SplitQuadric":
            out = list(range(self.dim + 1))
            if self.dim % 2 == 0:
                out.append(self.dim // 2)
            return out
        return [0]

    def profile(self):
        return TateProfile([d + self.twist for d in self._base_degrees()])

    def twisted(self, i):
        return Summand(self.kind, self.r, self.n, self.dim, self.twist + i)

    def label(self):
        suffix = f"{{{self.twist}}}" if self.twist else ""
        if self.kind == "F":
            return f"F^{self.r}_{self.n}{suffix}"
        if self.kind == "R":
            return f"R^{self.r}{suffix}"
        if self.kind == "SplitQuadric":
            return f"Q{self.dim}{suffix}"
        return f"Z{{{self.twist}}}"

    def as_dict(self):
        d = {"kind": self.kind, "twist": self.twist}
        if self.r is not None:
            d["r"] = self.r
        if self.n is not None:
            d["n"] = self.n
        if self.dim is not None:
            d["dim"] = self.dim
        return d


def F(r, n, twist=0):
    return Summand("F", r=r, n=n, twist=twist)


def R(r, twist=0):
    return Summand("R", r=r, twist=twist)


def split_quadric(dim, twist=0):
    return Summand("SplitQuadric", dim=dim, twist=twist)


class MotiveExpr:
    """A formal multiset of summands; declaration order is kept only for
    diagram layout, equality is order-free."""

    __slots__ = ("summands",)

    def __init__(self, summands=()):
        self.summands = tuple(summands)

    def profile(self):
        """Every summand's degrees, shifted by its twist, in one profile."""
        return TateProfile([d + s.twist for s in self.summands for d in s._base_degrees()])

    def _key(self):
        return sorted((s.kind, s.r or 0, s.n or 0, s.dim if s.dim is not None else -1,
                       s.twist) for s in self.summands)

    def __eq__(self, other):
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(tuple(self._key()))

    def __add__(self, other):
        return MotiveExpr(self.summands + other.summands)

    def __len__(self):
        return len(self.summands)

    def as_dict(self):
        return {"summands": [s.as_dict() for s in self.summands],
                "profile": self.profile().coefficients()}

    def __repr__(self):
        return " + ".join(s.label() for s in self.summands) or "0"


# The largest n accepted by the checks of a configuration (r, n): check_rn,
# `rootsys.check_orbit_dims`, config files and the command line.  Their
# cost grows as a power of n: on a shared 2-core x86-64 VM `orbits dims
# --r 2` took 0.26 s at n = 30, 2.9 s at n = 60 and 18 s at n = 100, and
# `verify blowup --n-range 3..30` 0.4 s; `rank --config` on a rank-one
# element with r = 1 over Q took 0.09-0.15 s at n = 30, its rank-one test
# 3 ms.  At 30 every such command answers within seconds.
MAX_N = 30


def check_r(r):
    """ValueError unless r is an integer (a bool or a float is not) in
    0..3, the r of a composition algebra."""
    if type(r) is not int or r not in (0, 1, 2, 3):
        raise ValueError(f"r: must be an integer 0..3, got {r!r}")


def check_rn(r, n):
    """ValueError unless (r, n) is a configuration the package handles:
    check_r's r, an integer n with 3 <= n <= MAX_N, and n = 3 when r = 3.
    Each message starts with the key at fault, so a config file and the
    command line say the same."""
    check_r(r)
    if type(n) is not int or not 3 <= n <= MAX_N:
        raise ValueError(f"n: must be an integer with 3 <= n <= MAX_N = {MAX_N}, got {n!r}")
    if r == 3 and n != 3:
        raise ValueError("n: must be 3 when r = 3")


def pfister_quadric_expr(r):
    """The split decomposition of the Pfister quadric itself:
    R(r){0} + ... + R(r){2^{r-1} - 1}."""
    if r < 1:
        raise ValueError("need r >= 1")
    return MotiveExpr([R(r, i) for i in range(1 << (r - 1))])


def decompose_pfister_multiple(r, n):
    """M(phi tensor b) = sum_{i=0}^{2^r - 1} F(r, n){i}, plus the Pfister
    quadric block twisted by 2^{r-1}(n-1) when n is odd."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    terms = [F(r, n, i) for i in range(1 << r)]
    if n % 2 == 1:
        shift = (1 << (r - 1)) * (n - 1)
        terms += [s.twisted(shift) for s in pfister_quadric_expr(r).summands]
    return MotiveExpr(terms)


def decompose_neighbour_quadric(r, n):
    """M(q) for q = phi tensor <b_1..b_{n-1}> perp <b_n>:
    F(r, n) + sum_{i=1}^{2^r - 1} F(r, n-1){i}, plus, for n even,
    sum_{j=1}^{2^{r-1} - 1} R(r){2^{r-1}(n-1) - j}.  The n = 2 middle block
    is empty automatically since F(r, 1) = 0."""
    if r < 1 or n < 2:
        raise ValueError("need r >= 1 and n >= 2")
    terms = [F(r, n)]
    terms += [F(r, n - 1, i) for i in range(1, 1 << r)]
    if n % 2 == 0:
        base = (1 << (r - 1)) * (n - 1)
        terms += [R(r, base - j) for j in range(1, 1 << (r - 1))]
    return MotiveExpr(terms)


def decompose_z1(r, n):
    """The base locus: empty for r = 0; twisted Rost summands otherwise.
    For r = 1 the top twist is n - 2, matching the geometric model, two
    disjoint copies of P^{n-2}; the competing upper bound n - 1 overshoots
    the class count (see verify_krashen)."""
    check_rn(r, n)
    if r == 0:
        return MotiveExpr()
    if r == 1:
        top = n - 2
    elif r == 2:
        top = 2 * n - 3
    else:
        top = 7
    return MotiveExpr([R(r, i) for i in range(top + 1)])


def decompose_xj(r, n):
    """The rank-one variety X(J): a quadric for r = 0, else one higher-form
    summand F(r, n) plus a block of twisted Rost summands."""
    check_rn(r, n)
    if r == 0:
        return MotiveExpr([split_quadric(n - 2)])
    terms = [F(r, n)]
    if r == 1:
        for j in range((n - 3) // 2 + 1):
            for i in range(1, 2 * (n // 2) + 1):
                terms.append(R(1, i + 2 * j))
    elif r == 2:
        for j in range((n - 2) // 2 + 1):
            for i in range(1, 4 * ((n - 1) // 2) + 2):
                terms.append(R(2, i + 4 * j))
    else:
        terms += [R(3, i) for i in range(1, 12)]
    return MotiveExpr(terms)


def codim_z1(r, n):
    """Codimension of Z1 inside the source quadric:
    (2^r (n-1) - 1) - dim Z1 = 2^{r-1} n - 2^r + 1 for r >= 1."""
    if r < 1:
        raise ValueError("Z1 is empty for r = 0")
    return (1 << (r - 1)) * n - (1 << r) + 1


def _xj_profile(r, k):
    """Profile of X(J_k) for r >= 1 and k >= 2; X(J_2) is the quadric
    phi tensor <b_1> perp <b_2>, the split (2^r - 1)-dimensional quadric."""
    if k >= 3:
        return decompose_xj(r, k).profile()
    return decompose_neighbour_quadric(r, 2).profile()


def _blowup_lhs(r, n):
    """P(Q) + sum_{i=1}^{c1 - 1} t^i P(Z1) for r >= 1, c1 the codimension
    of Z1: the left side of the blow-up identity."""
    return (decompose_neighbour_quadric(r, n).profile()
            + decompose_z1(r, n).profile().shifted_sum(range(1, codim_z1(r, n))))


@dataclass
class BlowupReport:
    r: int
    n: int
    lhs: TateProfile
    rhs: TateProfile
    equal: bool


def verify_blowup(r, n):
    """Blow-up identity at the profile level:

    P(Q) + sum_{i=1}^{c1 - 1} t^i P(Z1)
      = P(X(J_n)) + sum_{i=1}^{2^r - 1} t^i P(X(J_{n-1}))

    with c1 the codimension of Z1.  For r = 0 both corrections vanish and
    the identity degenerates to P(Q) = P(X(J)).
    """
    check_rn(r, n)
    if r == 0:
        qprof = split_quadric(n - 2).profile()
        rhs = decompose_xj(0, n).profile()
        return BlowupReport(r, n, qprof, rhs, qprof == rhs)
    lhs = _blowup_lhs(r, n)
    rhs = decompose_xj(r, n).profile() + _xj_profile(r, n - 1).shifted_sum(range(1, 1 << r))
    return BlowupReport(r, n, lhs, rhs, lhs == rhs)


def poincare_xj_recursive(r, n):
    """P(X(J_n)) computed by the blow-up recursion

    P(X(J_n)) = P(Q) + sum_{i=1}^{c1-1} t^i P(Z1)
                     - sum_{i=1}^{2^r - 1} t^i P(X(J_{n-1})),

    base case X(J_2) the split (2^r - 1)-dimensional quadric.  Strict
    subtraction: a negative coefficient raises."""
    check_rn(r, n)
    if r == 0:
        return split_quadric(n - 2).profile()

    def rec(k):
        if k == 2:
            return _xj_profile(r, 2)
        # every subtracted count is >= 0, so one subtraction of the sum goes
        # negative exactly when the chain of single shifts would
        return _blowup_lhs(r, k).subtract(rec(k - 1).shifted_sum(range(1, 1 << r)))

    return rec(n)


@dataclass
class KrashenReport:
    n: int
    lhs_literal: TateProfile
    rhs: TateProfile
    literal_equal: bool
    lhs_variant: TateProfile
    variant_equal: bool


def verify_krashen(n):
    """The r = 1 motivic equivalence

    M(phi tensor b) + sum_{i=1}^{n-2} M(Z1){i} = M(X(J)) + M(X(J)){1},

    compared at the profile level in two readings of M(Z1): the literal one
    (our base-locus decomposition, twists 0..n-2) and the variant with
    twists 0..n-1, which is the one that balances.  Both outcomes are
    reported; neither is asserted here."""
    if n < 3:
        raise ValueError("need n >= 3")
    lhs_base = decompose_pfister_multiple(1, n).profile()
    z1_literal = decompose_z1(1, n).profile()
    z1_variant = MotiveExpr([R(1, i) for i in range(n)]).profile()
    lhs_lit = lhs_base + z1_literal.shifted_sum(range(1, n - 1))
    lhs_var = lhs_base + z1_variant.shifted_sum(range(1, n - 1))
    xj = decompose_xj(1, n).profile()
    rhs = xj + xj.shift(1)
    return KrashenReport(n, lhs_lit, rhs, lhs_lit == rhs, lhs_var, lhs_var == rhs)
