import hashlib
import itertools
import random

import pytest

from jordanquad import cli, motives, rootsys, sweeps
from jordanquad.errors import NegativeCoefficientError
from jordanquad.motives import (F, MotiveExpr, R, Summand, TateProfile,
                                codim_z1, decompose_neighbour_quadric,
                                decompose_pfister_multiple, decompose_xj,
                                decompose_z1, pfister_quadric_expr,
                                poincare_xj_recursive, split_quadric,
                                verify_blowup, verify_krashen)


def split_quadric_profile(D):
    """Independent oracle: Tate multiset of a split D-dimensional quadric."""
    out = list(range(D + 1))
    if D % 2 == 0:
        out.append(D // 2)
    return TateProfile(out)


# -- profiles ---------------------------------------------------------------

def test_profile_examples():
    assert F(2, 4).profile().as_multiset() == [0, 4, 7, 11]
    assert R(2, 5).profile().as_multiset() == [5, 6]
    assert F(1, 1).profile().total() == 0
    assert R(1).profile().as_multiset() == [0, 0]
    assert split_quadric(2).profile().as_multiset() == [0, 1, 1, 2]
    assert Summand("Tate", twist=3).profile().as_multiset() == [3]


def test_count_law():
    for r in (1, 2, 3):
        for n in range(1, 9):
            assert F(r, n).profile().total() == 2 * (n // 2)


def test_profile_operations():
    p = TateProfile([0, 1, 1])
    assert (p + p.shift(2)).as_multiset() == [0, 1, 1, 2, 3, 3]
    assert p.shift(1).eval_at(3) == 3 + 9 + 9
    with pytest.raises(NegativeCoefficientError):
        TateProfile([0]).subtract(TateProfile([1]))
    assert TateProfile([0, 1, 1, 2]).is_palindromic()
    assert not TateProfile([0, 1, 1]).is_palindromic()


@pytest.mark.parametrize("data", [[0.5, 1.9], [1.0], [True], {1: 0.5}, {1.0: 1},
                                  {1: True}, {1: 0.0}, [-1], {2: -1}])
def test_profile_refuses_degrees_and_counts_that_are_not_int(data):
    with pytest.raises(ValueError, match="nonnegative integer"):
        TateProfile(data)


def test_profile_drops_zero_counts():
    p = TateProfile({1: 0, 2: 2})
    assert p == TateProfile([2, 2]) and hash(p) == hash(TateProfile([2, 2]))
    assert repr(p) == "TateProfile([2, 2])" and repr(TateProfile({1: 0})) == "TateProfile([])"


def test_invalid_summands():
    with pytest.raises(ValueError):
        F(0, 3)
    with pytest.raises(ValueError):
        R(0)
    with pytest.raises(ValueError):
        Summand("X")
    with pytest.raises(ValueError):
        F(1, 3, twist=-1)


# -- decompositions ---------------------------------------------------------

def test_pfister_multiple_examples():
    e = decompose_pfister_multiple(1, 2)
    assert e == MotiveExpr([F(1, 2, 0), F(1, 2, 1)])
    e23 = decompose_pfister_multiple(2, 3)
    assert e23 == MotiveExpr([F(2, 3, i) for i in range(4)] + [R(2, 4), R(2, 5)])
    for r in (1, 2, 3):
        for n in range(1, 8):
            prof = decompose_pfister_multiple(r, n).profile()
            assert prof.total() == (1 << r) * n
            assert prof == split_quadric_profile((1 << r) * n - 2)


def test_neighbour_quadric_examples():
    e = decompose_neighbour_quadric(2, 4)
    assert e == MotiveExpr([F(2, 4)] + [F(2, 3, i) for i in (1, 2, 3)] + [R(2, 5)])
    assert len(e) == 5
    e22 = decompose_neighbour_quadric(2, 2)
    assert e22 == MotiveExpr([F(2, 2)] + [F(2, 1, i) for i in (1, 2, 3)] + [R(2, 1)])
    assert e22.profile().as_multiset() == [0, 1, 2, 3]
    for r in (1, 2, 3):
        for n in range(2, 8):
            if r == 3 and n > 3:
                prof = decompose_neighbour_quadric(r, n).profile()
            else:
                prof = decompose_neighbour_quadric(r, n).profile()
            assert prof == split_quadric_profile((1 << r) * (n - 1) - 1)


def test_z1_examples():
    assert decompose_z1(0, 5) == MotiveExpr()
    z23 = decompose_z1(2, 3)
    assert z23 == MotiveExpr([R(2, i) for i in range(4)])
    # oracle: the Poincare multiset of P^1 x P^3
    p1 = TateProfile([0, 1])
    p3 = TateProfile([0, 1, 2, 3])
    product = TateProfile([a + b for a in p1.as_multiset() for b in p3.as_multiset()])
    assert z23.profile() == product
    z33 = decompose_z1(3, 3).profile()
    assert z33.total() == 16 and z33.max_degree() == 10
    z13 = decompose_z1(1, 3)
    assert z13 == MotiveExpr([R(1, 0), R(1, 1)])
    assert z13.profile().as_multiset() == [0, 0, 1, 1]  # two disjoint P^1
    with pytest.raises(ValueError):
        decompose_z1(3, 4)


def test_xj_examples():
    assert decompose_xj(2, 3) == MotiveExpr([F(2, 3)] + [R(2, i) for i in range(1, 6)])
    assert decompose_xj(2, 3).profile().coefficients() == [1, 1, 2, 2, 2, 2, 1, 1]
    assert decompose_xj(1, 3) == MotiveExpr([F(1, 3), R(1, 1), R(1, 2)])
    assert decompose_xj(1, 3).profile().coefficients() == [1, 2, 2, 1]
    xj33 = decompose_xj(3, 3)
    assert len(xj33) == 12
    prof = xj33.profile()
    assert prof.total() == 24
    assert prof.coefficients() == [1, 1, 1, 1] + [2] * 8 + [1, 1, 1, 1]
    assert decompose_xj(0, 5) == MotiveExpr([split_quadric(3)])
    with pytest.raises(ValueError):
        decompose_xj(4, 3)
    with pytest.raises(ValueError):
        decompose_xj(2, 2)


def test_xj_closed_forms_match_the_motive():
    """sweeps.xj_expected_count, the classical closed forms of #X(J)(F_p),
    against the profile of decompose_xj at p in the split cases r = 1, 2."""
    for r, n, p in itertools.product((1, 2), range(3, 11), (3, 5, 7, 11, 13)):
        got = sweeps.xj_expected_count(sweeps.fp_algebra(p, r, n))
        assert got == decompose_xj(r, n).profile().eval_at(p), (r, n, p)


def test_xj_closed_forms_non_split_and_octonions():
    """The Hermitian count p^3 + 1 at r = 1, n = 3 with a non-square
    parameter; no classical closed form at r = 3."""
    assert [sweeps.xj_expected_count(sweeps.fp_algebra(p, 1, 3, split=False))
            for p in (3, 5, 7)] == [28, 126, 344]
    with pytest.raises(ValueError, match="r = 3"):
        sweeps.xj_expected_count(sweeps.fp_algebra(3, 3, 3))


def test_pfister_quadric_block():
    assert pfister_quadric_expr(2) == MotiveExpr([R(2, 0), R(2, 1)])
    assert pfister_quadric_expr(2).profile() == split_quadric_profile(2)
    assert pfister_quadric_expr(3).profile() == split_quadric_profile(6)


# -- the blow-up identity ---------------------------------------------------

def test_codim_z1():
    assert codim_z1(1, 3) == 2   # 3-dim quadric, curve locus
    assert codim_z1(2, 3) == 3
    assert codim_z1(3, 3) == 5
    # matches dim Q - dim Z1 with the model dimensions
    for r, n in [(1, 3), (1, 6), (2, 3), (2, 5), (3, 3)]:
        dim_q = (1 << r) * (n - 1) - 1
        dim_z1 = {1: n - 2, 2: 2 * n - 2, 3: 10}[r]
        assert codim_z1(r, n) == dim_q - dim_z1


def test_blowup_identity_range():
    for r in (0, 1, 2):
        for n in range(3, 11):
            rep = verify_blowup(r, n)
            assert rep.equal, (r, n)
    assert verify_blowup(3, 3).equal


def test_blowup_profile_2_3():
    rep = verify_blowup(2, 3)
    assert rep.lhs.coefficients() == [1, 2, 4, 5, 5, 4, 2, 1]
    assert rep.lhs.total() == 24
    assert rep.rhs == rep.lhs


def test_blowup_dimension_variant_unbalanced():
    """Summing P(Z1)'s shifts to d1 = 2^{r-1} n - 2 (a dimension, not a
    codimension, of the base locus at n = 3) in place of c1 does not
    balance."""
    for r, n in [(1, 3), (2, 3), (2, 4), (3, 3)]:
        d1 = (1 << (r - 1)) * n - 2
        alt = (decompose_neighbour_quadric(r, n).profile()
               + decompose_z1(r, n).profile().shifted_sum(range(1, d1)))
        assert alt != verify_blowup(r, n).rhs


def test_blowup_degenerate_r0():
    rep = verify_blowup(0, 6)
    assert rep.equal
    assert rep.lhs == split_quadric_profile(4)


def test_recursion_matches_closed_form():
    for r in (0, 1, 2):
        for n in range(3, 11):
            assert poincare_xj_recursive(r, n) == decompose_xj(r, n).profile()
    assert poincare_xj_recursive(3, 3) == decompose_xj(3, 3).profile()
    assert poincare_xj_recursive(2, 3).coefficients() == [1, 1, 2, 2, 2, 2, 1, 1]
    assert poincare_xj_recursive(1, 3).coefficients() == [1, 2, 2, 1]
    p33 = poincare_xj_recursive(3, 3)
    assert p33.total() == 24 and p33.is_palindromic() and p33.max_degree() == 15


def test_palindromic_sweep():
    for r in (0, 1, 2):
        for n in range(3, 11):
            prof = decompose_xj(r, n).profile()
            assert prof.is_palindromic()
            assert prof.max_degree() == (1 << r) * (n - 1) - 1


def test_euler_characteristics_vs_weyl():
    expected = {(1, 3): 6, (2, 3): 12, (2, 4): 24, (2, 5): 40, (3, 3): 24}
    for (r, n), chi in expected.items():
        assert decompose_xj(r, n).profile().total() == chi
        assert rootsys.xj_euler_characteristic(r, n) == chi
    for r in (0, 1, 2):
        for n in range(3, 11):
            assert (decompose_xj(r, n).profile().total()
                    == rootsys.xj_euler_characteristic(r, n))


def test_krashen_reports():
    k3 = verify_krashen(3)
    assert not k3.literal_equal
    assert (k3.lhs_literal.total(), k3.rhs.total()) == (10, 12)
    assert k3.variant_equal
    for n in range(3, 9):
        k = verify_krashen(n)
        assert not k.literal_equal
        assert k.variant_equal
        assert k.rhs.total() == 2 * n * (n - 1)


def test_expr_multiset_semantics():
    a = MotiveExpr([R(2, 1), F(2, 3)])
    b = MotiveExpr([F(2, 3), R(2, 1)])
    assert a == b
    assert MotiveExpr([R(2, 1), R(2, 1)]) != MotiveExpr([R(2, 1)])


def test_as_dict_schema():
    d = decompose_neighbour_quadric(2, 4).as_dict()
    assert d["summands"][0] == {"kind": "F", "r": 2, "n": 4, "twist": 0}
    assert d["summands"][-1] == {"kind": "R", "r": 2, "twist": 5}
    assert d["profile"] == [1] * 12


def test_shifted_sum_matches_chained_shifts():
    rng = random.Random("shifted-sum")
    for _ in range(40):
        p = TateProfile([rng.randint(0, 12) for _ in range(rng.randint(0, 10))])
        lo = rng.randint(0, 5)
        shifts = range(lo, lo + rng.randint(0, 8))
        chained = TateProfile()
        for i in shifts:
            chained = chained + p.shift(i)
        assert p.shifted_sum(shifts) == chained
    assert TateProfile([0, 1, 1]).shifted_sum(range(1, 1)) == TateProfile()
    assert TateProfile().shifted_sum(range(1, 4)) == TateProfile()
    assert TateProfile([0, 2]).shifted_sum([1, 3]).as_multiset() == [1, 3, 3, 5]


def test_recursion_raises_when_a_subtraction_goes_negative(monkeypatch):
    """With Z1 taken as empty, the recursion subtracts more than it holds
    for r >= 2, and the strict subtraction refuses; for r = 1 every count
    stays nonnegative."""
    monkeypatch.setattr(motives, "decompose_z1", lambda r, n: MotiveExpr())
    for n in range(3, 9):
        poincare_xj_recursive(1, n)
    for r, n in ((2, 3), (2, 6), (3, 3)):
        with pytest.raises(NegativeCoefficientError):
            poincare_xj_recursive(r, n)


# sha256 of `jordanquad verify blowup|krashen --n-range 3..30`, recorded
# when every profile sum still added one shifted profile at a time
VERIFY_DIGESTS = {
    "blowup": "2539434f8557a4c7e4e73fedbf094a4fab261097f0bc50cb06df9e907ea9f210",
    "krashen": "01221762b022d872cae729920c660ce5616de3ea9a07ed3070a43c4b856977b3",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_profile_suites_are_unchanged(capsys, suite):
    assert cli.run(["verify", suite, "--n-range", "3..30"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[suite]
