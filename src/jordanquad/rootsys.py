"""Root systems of types A, B, C, D, F4 in standard coordinates.

Positive roots are enumerated explicitly (A: e_i - e_j; B: e_i, e_i +- e_j;
C: 2e_i, e_i +- e_j; D: e_i +- e_j; F4: the standard 48-vector model) with
Bourbaki simple-root numbering.  Coordinates are ints, with Fraction only
for F4's half-integer roots.

Every count reads one table per root system, built by adding simple roots
upward from the simple roots: each positive root's support (the simple
roots with nonzero coefficient) and height (the sum of its coefficients).
dim G/P_theta is the number of roots whose support meets theta.  Weyl
orders come from Macdonald's product formula (The Poincare series of a
Coxeter group, Math. Ann. 1972) at q = 1: |W_S| is the product of
(ht a + 1) / ht a over the positive roots a with support in S, so |W| takes
every root and chi(G/P_theta) = |W| / |W_{Delta - theta}| takes the roots
whose support meets theta.  No family has a closed form here.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .motives import check_rn


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "B", "C", "D", "F4"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "F4" and self.rank != 4:
            raise ValueError("F4 has rank 4")
        if self.family == "D" and self.rank < 2:
            raise ValueError("type D needs rank >= 2")
        if self.family in ("A", "B", "C") and self.rank < 1:
            raise ValueError("rank must be positive")

    def __repr__(self):
        return self.family if self.family == "F4" else f"{self.family}{self.rank}"


def _unit(dim, i, sign=1):
    v = [0] * dim
    v[i] = sign
    return v


def positive_roots(rs):
    fam, m = rs.family, rs.rank
    roots = []
    if fam == "A":
        dim = m + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                v = _unit(dim, i)
                v[j] = -1
                roots.append(tuple(v))
        return roots
    if fam in ("B", "C", "D"):
        for i in range(m):
            for j in range(i + 1, m):
                v = _unit(m, i)
                v[j] = 1
                roots.append(tuple(v))
                v = _unit(m, i)
                v[j] = -1
                roots.append(tuple(v))
        if fam == "B":
            roots += [tuple(_unit(m, i)) for i in range(m)]
        elif fam == "C":
            roots += [tuple(_unit(m, i, 2)) for i in range(m)]
        return roots
    # F4: e_i; e_i +- e_j (i < j); (e_1 +- e_2 +- e_3 +- e_4)/2
    roots = [tuple(_unit(4, i)) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                v = _unit(4, i)
                v[j] = s
                roots.append(tuple(v))
    half = Fraction(1, 2)
    for s2 in (1, -1):
        for s3 in (1, -1):
            for s4 in (1, -1):
                roots.append((half, s2 * half, s3 * half, s4 * half))
    return roots


def simple_roots(rs):
    """Bourbaki numbering."""
    fam, m = rs.family, rs.rank
    if fam == "A":
        dim = m + 1
        out = []
        for i in range(m):
            v = _unit(dim, i)
            v[i + 1] = -1
            out.append(tuple(v))
        return out
    if fam in ("B", "C", "D"):
        out = []
        for i in range(m - 1):
            v = _unit(m, i)
            v[i + 1] = -1
            out.append(tuple(v))
        if fam == "B":
            out.append(tuple(_unit(m, m - 1)))
        elif fam == "C":
            out.append(tuple(_unit(m, m - 1, 2)))
        else:
            v = _unit(m, m - 2)
            v[m - 1] = 1
            out.append(tuple(v))
        return out
    half = Fraction(1, 2)
    return [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1),
            (half, -half, -half, -half)]


def _expansions(rs):
    """One (support, height) pair per positive root.  The support is a
    bitmask with bit i set when simple root i (1-based) has a nonzero
    coefficient; the height is the sum of the coefficients.

    Every positive root that is not simple is a positive root plus a
    simple root (Humphreys, Introduction to Lie Algebras, 10.2), so adding
    simple roots round by round from the simple roots reaches them all.
    Coefficients are nonnegative, so beta + alpha_i has support
    support(beta) | {i}, and its height is one more: a root reached in
    round k has height k + 1."""
    simples = simple_roots(rs)
    positive = set(positive_roots(rs))
    table = {alpha: (1 << i, 1) for i, alpha in enumerate(simples, 1)}
    # each simple root as its nonzero coordinates (two for A-D)
    steps = [(i, [(k, c) for k, c in enumerate(alpha) if c])
             for i, alpha in enumerate(simples, 1)]
    layer = list(table)
    height = 1
    while layer:
        height += 1
        found = []
        for beta in layer:
            for i, coords in steps:
                g = list(beta)
                for k, c in coords:
                    g[k] += c
                # tuple() of a list, not of a generator: CPython grows a
                # generator's tuple by resizing, so discarded sums fill the
                # tuple free list (2000 kept alive on A17)
                gamma = tuple(g)
                if gamma in positive and gamma not in table:
                    table[gamma] = (table[beta][0] | 1 << i, height)
                    found.append(gamma)
        layer = found
    if table.keys() != positive:
        raise AssertionError(f"{rs}: the simple roots do not generate the positive roots")
    return tuple(table.values())


# the table of each root system, built once per process; it keeps no
# roots, only their supports and heights
_root_table = functools.cache(_expansions)


def _check_theta(rs, theta):
    """theta as a bitmask of its 1-based nodes."""
    mask = 0
    for i in theta:
        if not isinstance(i, int) or not 1 <= i <= rs.rank:
            raise ValueError(f"node {i!r} is not in 1..{rs.rank}")
        mask |= 1 << i
    return mask


def dim_g_mod_p(rs, theta):
    """dim G/P_theta = number of positive roots whose support meets theta.
    theta = all nodes is the Borel case (all positive roots); theta empty
    gives 0."""
    theta = _check_theta(rs, theta)
    return sum(1 for support, _ in _root_table(rs) if support & theta)


def _height_ratio(heights):
    """prod (h + 1) // prod h.  Exact for the heights of the roots with
    support in S, where it is |W_S|, and for those of the roots whose
    support meets theta, where it is |W| / |W_{Delta - theta}|."""
    heights = list(heights)
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def weyl_order(rs, theta=None):
    """|W| for theta None; otherwise |W_{Delta - theta}|, the Weyl order
    of the Levi: Macdonald's product over the roots whose support misses
    theta (1 when theta is every node)."""
    theta = 0 if theta is None else _check_theta(rs, theta)
    return _height_ratio(h for support, h in _root_table(rs) if not support & theta)


def euler_characteristic(rs, theta):
    """chi(G/P_theta) = |W| / |W_{Delta - theta}| (the Tate-class count of
    the split form): Macdonald's product over the roots whose support
    meets theta."""
    theta = _check_theta(rs, theta)
    return _height_ratio(h for support, h in _root_table(rs) if support & theta)


# ---------------------------------------------------------------------------
# The homogeneous spaces attached to the rank-one varieties


def xj_space(r, n):
    """(root system, theta) with X(J) = G/P_theta:
    r=0: a quadric for SO(n); r=1: flags of a line and a hyperplane for
    type A; r=2: the second symplectic Grassmannian; r=3: F4 node 4."""
    if r == 0:
        if n % 2 == 1:
            return RootSystem("B", (n - 1) // 2), {1}
        if n == 4:
            return RootSystem("D", 2), {1, 2}
        return RootSystem("D", n // 2), {1}
    if r == 1:
        return RootSystem("A", n - 1), {1, n - 1}
    if r == 2:
        return RootSystem("C", n), {2}
    if r == 3 and n == 3:
        return RootSystem("F4", 4), {4}
    raise ValueError(f"no homogeneous model for r={r}, n={n}")


def xj_euler_characteristic(r, n):
    rs, theta = xj_space(r, n)
    return euler_characteristic(rs, theta)


def z1_model_dim(r, n):
    """Dimension of the closed orbit underlying the base locus, from its
    homogeneous model: r=1: P^{n-2} (each of two components); r=2:
    P^1 x P^{2n-3}; r=3: the 10-dimensional spinor variety (B4, node 4)."""
    if r == 1:
        return dim_g_mod_p(RootSystem("A", n - 2), {1})
    if r == 2:
        return (dim_g_mod_p(RootSystem("A", 1), {1})
                + dim_g_mod_p(RootSystem("A", 2 * n - 3), {1}))
    if r == 3:
        return dim_g_mod_p(RootSystem("B", 4), {4})
    raise ValueError("the base locus is empty for r = 0")


@dataclass
class LineItem:
    item: str
    lhs: int
    rhs: int

    @property
    def ok(self):
        return self.lhs == self.rhs

    def as_dict(self):
        return {"item": self.item, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}


def check_orbit_dims(r, n):
    """Line-item dimension checks for a configuration (r, n):

    * dim G/P_theta for the X(J) table equals 2^r (n-1) - 1;
    * the base-locus orbit dimension matches (n-2, 2n-2, 10 for r=1,2,3);
    * the parabolic-dimension arithmetic used in the orbit proofs
      (stabilizer dimension = dim G - orbit dimension, with the stated
      closed forms).
    """
    check_rn(r, n)
    items = []
    rs, theta = xj_space(r, n)
    items.append(LineItem(f"dim X(J) = 2^{r}(n-1)-1 via {rs}/P{sorted(theta)}",
                          dim_g_mod_p(rs, theta), (1 << r) * (n - 1) - 1))
    if r == 1:
        items.append(LineItem("dim Z1 component = n-2",
                              z1_model_dim(1, n), n - 2))
        items.append(LineItem("stabilizer dim n^2-2n+2 = dim PGL(n) - (2n-3)",
                              n * n - 2 * n + 2, (n * n - 1) - (2 * n - 3)))
    if r == 2:
        items.append(LineItem("dim Z1 = 2n-2 via P^1 x P^(2n-3)",
                              z1_model_dim(2, n), 2 * n - 2))
        items.append(LineItem("stabilizer dim 2n^2-3n+5 = dim sp(2n) - (4n-5)",
                              2 * n * n - 3 * n + 5, n * (2 * n + 1) - (4 * n - 5)))
        items.append(LineItem(
            "Z1 stabilizer dim 2n^2-5n+6 = dim(sp(2n-2) x sl2) - (2n-2)",
            2 * n * n - 5 * n + 6, (n - 1) * (2 * n - 1) + 3 - (2 * n - 2)))
    if r == 3:
        items.append(LineItem("dim Z1 = 10, the spinor variety B4/P4",
                              z1_model_dim(3, n), 10))
    if r == 0 and n % 2 == 0:
        m = n // 2
        items.append(LineItem("stabilizer dim 2m^2-3m+2 = dim so(2m) - (n-2)",
                              2 * m * m - 3 * m + 2, m * (2 * m - 1) - (n - 2)))
    return items
