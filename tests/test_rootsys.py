import itertools
import math
from fractions import Fraction

import pytest

from jordanquad import rootsys
from jordanquad.motives import decompose_xj, decompose_z1
from jordanquad.rootsys import (LineItem, RootSystem, check_orbit_dims,
                                dim_g_mod_p, euler_characteristic,
                                positive_roots,
                                simple_roots, weyl_order, xj_euler_characteristic,
                                xj_space, z1_model_dim)


def brute_force_weyl_order(rs, simples=None):
    """Oracle: order of the group generated by the reflections in simples
    (default: all simple roots), acting as permutations on the full
    (positive and negative) root set."""
    roots = positive_roots(rs)
    all_roots = [r for r in roots] + [tuple(-x for x in r) for r in roots]
    index = {r: i for i, r in enumerate(all_roots)}

    def reflect(alpha, v):
        num = 2 * sum(a * b for a, b in zip(alpha, v))
        den = sum(a * a for a in alpha)
        c = Fraction(num, den)
        return tuple(x - c * a for x, a in zip(v, alpha))

    gens = []
    for alpha in simple_roots(rs) if simples is None else simples:
        perm = tuple(index[reflect(alpha, v)] for v in all_roots)
        gens.append(perm)
    seen = {tuple(range(len(all_roots)))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                comp = tuple(g[i] for i in h)
                if comp not in seen:
                    seen.add(comp)
                    nxt.append(comp)
        frontier = nxt
    return len(seen)


def test_positive_root_counts_table():
    for m in range(1, 9):
        assert len(positive_roots(RootSystem("A", m))) == m * (m + 1) // 2
        assert len(positive_roots(RootSystem("B", m))) == m * m
        assert len(positive_roots(RootSystem("C", m))) == m * m
        if m >= 2:
            assert len(positive_roots(RootSystem("D", m))) == m * (m - 1)
    assert len(positive_roots(RootSystem("F4", 4))) == 24


def test_simple_roots_are_roots():
    for rs in [RootSystem("A", 4), RootSystem("B", 3), RootSystem("C", 3),
               RootSystem("D", 4), RootSystem("F4", 4)]:
        pos = set(positive_roots(rs))
        for alpha in simple_roots(rs):
            assert alpha in pos
        assert len(simple_roots(rs)) == rs.rank


def test_weyl_orders_closed_form_vs_brute_force():
    cases = [RootSystem("A", 3), RootSystem("B", 3), RootSystem("C", 3),
             RootSystem("D", 4), RootSystem("D", 2), RootSystem("F4", 4)]
    for rs in cases:
        assert weyl_order(rs) == brute_force_weyl_order(rs)
    assert weyl_order(RootSystem("F4", 4)) == 1152
    assert weyl_order(RootSystem("C", 3)) == 48


def test_borel_and_trivial_parabolic():
    for rs in [RootSystem("A", 4), RootSystem("B", 3), RootSystem("C", 4),
               RootSystem("D", 4), RootSystem("F4", 4)]:
        full = set(range(1, rs.rank + 1))
        assert dim_g_mod_p(rs, full) == len(positive_roots(rs))
        assert dim_g_mod_p(rs, set()) == 0


def test_dimension_examples():
    assert dim_g_mod_p(RootSystem("F4", 4), {4}) == 15
    assert dim_g_mod_p(RootSystem("C", 3), {2}) == 7
    assert dim_g_mod_p(RootSystem("B", 4), {4}) == 10
    assert dim_g_mod_p(RootSystem("D", 2), {1, 2}) == 2
    assert dim_g_mod_p(RootSystem("A", 2), {1, 2}) == 3  # full flags of A2


def single_node_oracle(family, m, k):
    """Closed forms (dim, chi) of G/P_k for one node k, None where no
    closed form is listed; chi = |W|/|W_Levi|."""
    if family == "A":
        return k * (m + 1 - k), math.comb(m + 1, k)
    if family in ("B", "C"):
        return {1: (2 * m - 1, 2 * m), m: (m * (m + 1) // 2, 1 << m)}.get(k)
    if family == "D":
        return {1: (2 * m - 2, 2 * m), m: (m * (m - 1) // 2, 1 << (m - 1))}.get(k)
    return {1: (15, 24), 2: (20, 96), 3: (20, 96), 4: (15, 24)}[k]


def test_single_node_parabolics_closed_forms():
    cases = [RootSystem("F4", 4)]
    for m in range(1, 9):
        cases += [RootSystem("A", m), RootSystem("B", m), RootSystem("C", m)]
        if m >= 4:
            cases.append(RootSystem("D", m))
    checked = 0
    for rs in cases:
        for k in range(1, rs.rank + 1):
            want = single_node_oracle(rs.family, rs.rank, k)
            if want is not None:
                assert (dim_g_mod_p(rs, {k}), euler_characteristic(rs, {k})) == want, (rs, k)
                checked += 1
    assert checked == 80


def test_expansions_reject_simple_roots_that_miss_roots(monkeypatch):
    # e1 - e3 in place of alpha_2 = e2 - e3: e2 - e3 and e2 - e4 are never reached
    monkeypatch.setattr(rootsys, "simple_roots",
                        lambda rs: [(1, -1, 0, 0), (1, 0, -1, 0), (0, 0, 1, -1)])
    with pytest.raises(AssertionError, match="A3"):
        rootsys._expansions(RootSystem("A", 3))


def test_invalid_node():
    with pytest.raises(ValueError):
        dim_g_mod_p(RootSystem("A", 3), {0})
    with pytest.raises(ValueError):
        dim_g_mod_p(RootSystem("A", 3), {4})


def test_levi_orders():
    # C3 minus node 2: components {1} (A1) and {3} (C1), order 2*2
    assert weyl_order(RootSystem("C", 3), {2}) == 4
    assert euler_characteristic(RootSystem("C", 3), {2}) == 12
    # F4 minus node 4: B3 component
    assert weyl_order(RootSystem("F4", 4), {4}) == 48
    assert euler_characteristic(RootSystem("F4", 4), {4}) == 24
    # A_{n-1} minus {1, n-1}
    assert weyl_order(RootSystem("A", 4), {1, 4}) == 6
    assert euler_characteristic(RootSystem("A", 4), {1, 4}) == 20
    assert weyl_order(RootSystem("B", 4), {1}) == weyl_order(RootSystem("B", 3))


@pytest.mark.parametrize("rs", [RootSystem("A", 4), RootSystem("B", 3), RootSystem("C", 3),
                                RootSystem("D", 4), RootSystem("F4", 4)], ids=repr)
def test_every_levi_order_vs_brute_force(rs):
    """Every theta, against the group generated by the reflections in
    Delta minus theta."""
    simples = simple_roots(rs)
    order = brute_force_weyl_order(rs)
    nodes = range(1, rs.rank + 1)
    for k in range(rs.rank + 1):
        for theta in map(set, itertools.combinations(nodes, k)):
            levi = brute_force_weyl_order(
                rs, [alpha for i, alpha in enumerate(simples, 1) if i not in theta])
            assert weyl_order(rs, theta) == levi, (rs, theta)
            assert euler_characteristic(rs, theta) == order // levi, (rs, theta)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def macdonald_q_product(rs, theta):
    """Prod [ht a + 1]_q / [ht a]_q over the positive roots whose support
    meets theta, by exact long division: the Poincare polynomial of
    G/P_theta (Macdonald)."""
    mask = sum(1 << i for i in theta)
    num = den = [1]
    for support, height in rootsys._expansions(rs):
        if support & mask:
            num = poly_mul(num, [1] * (height + 1))
            den = poly_mul(den, [1] * height)
    quot = [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quot))):
        quot[k] = num[k + len(den) - 1]   # den is monic
        for j, d in enumerate(den):
            num[k + j] -= quot[k] * d
    assert not any(num), (rs, theta)
    return quot


def test_root_heights_give_the_motive_profiles():
    """Macdonald's product from the heights equals the Tate profile of X(J)
    and of the base locus's homogeneous models."""
    cases = [(r, n) for r in (0, 1, 2) for n in range(3, 11)] + [(3, 3)]
    for r, n in cases:
        rs, theta = xj_space(r, n)
        assert (macdonald_q_product(rs, theta)
                == decompose_xj(r, n).profile().coefficients()), (r, n)

    def z1_model(r, n):
        if r == 1:
            return [2 * c for c in macdonald_q_product(RootSystem("A", n - 2), {1})]
        if r == 2:
            return poly_mul(macdonald_q_product(RootSystem("A", 1), {1}),
                            macdonald_q_product(RootSystem("A", 2 * n - 3), {1}))
        return macdonald_q_product(RootSystem("B", 4), {4})

    cases = [(r, n) for r in (1, 2) for n in range(3, 11)] + [(3, 3)]
    for r, n in cases:
        assert z1_model(r, n) == decompose_z1(r, n).profile().coefficients(), (r, n)


def test_check_orbit_dims_builds_each_root_table_once(monkeypatch):
    calls = []
    real = rootsys.positive_roots

    def counting(rs):
        calls.append(rs)
        return real(rs)

    monkeypatch.setattr(rootsys, "positive_roots", counting)
    rootsys._root_table.cache_clear()
    first = [i.as_dict() for i in check_orbit_dims(2, 10)]
    built = len(calls)
    assert built > 0
    assert [i.as_dict() for i in check_orbit_dims(2, 10)] == first
    assert len(calls) == built, calls[built:]


def test_xj_spaces():
    assert xj_space(0, 7) == (RootSystem("B", 3), {1})
    assert xj_space(0, 4) == (RootSystem("D", 2), {1, 2})
    assert xj_space(0, 8) == (RootSystem("D", 4), {1})
    assert xj_space(1, 5) == (RootSystem("A", 4), {1, 4})
    assert xj_space(2, 4) == (RootSystem("C", 4), {2})
    assert xj_space(3, 3) == (RootSystem("F4", 4), {4})
    with pytest.raises(ValueError):
        xj_space(3, 4)


def test_xj_dimension_table():
    for r in (0, 1, 2):
        for n in range(3, 21):
            rs, theta = xj_space(r, n)
            assert dim_g_mod_p(rs, theta) == (1 << r) * (n - 1) - 1, (r, n)
    rs, theta = xj_space(3, 3)
    assert dim_g_mod_p(rs, theta) == 15


def test_euler_examples():
    assert xj_euler_characteristic(1, 3) == 6
    assert xj_euler_characteristic(2, 3) == 12
    assert xj_euler_characteristic(2, 4) == 24
    assert xj_euler_characteristic(2, 5) == 40
    assert xj_euler_characteristic(3, 3) == 24
    # r = 0: a split quadric of dimension n-2 has n or n-... 2*floor(n/2) classes
    for n in range(3, 11):
        chi = xj_euler_characteristic(0, n)
        D = n - 2
        assert chi == D + 2 if D % 2 == 0 else chi == D + 1


def test_z1_model_dims():
    assert z1_model_dim(1, 5) == 3
    assert z1_model_dim(2, 3) == 4
    assert z1_model_dim(2, 5) == 8
    assert z1_model_dim(3, 3) == 10
    with pytest.raises(ValueError):
        z1_model_dim(0, 4)


def test_check_orbit_dims_all_pass():
    for r in (0, 1, 2):
        for n in range(3, 21):
            items = check_orbit_dims(r, n)
            assert items and all(i.ok for i in items), (r, n)
    items33 = check_orbit_dims(3, 3)
    assert all(i.ok for i in items33)
    assert any("spinor" in i.item for i in items33)
    with pytest.raises(ValueError):
        check_orbit_dims(3, 5)


def test_parabolic_arithmetic_items():
    # r=0 even: stabilizer 2m^2-3m+2 inside so(2m)
    items = check_orbit_dims(0, 8)
    stab = [i for i in items if "2m^2-3m+2" in i.item]
    assert len(stab) == 1 and stab[0].ok
    # r=2: both stabilizer identities present
    items = check_orbit_dims(2, 6)
    assert sum("stabilizer" in i.item for i in items) == 2


def test_line_item_dict():
    item = LineItem("x", 3, 3)
    assert item.ok and item.as_dict()["ok"]
