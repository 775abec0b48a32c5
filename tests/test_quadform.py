import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import random_scalar

from jordanquad import quadform
from jordanquad.quadform import (QuadForm, bilinear, evaluate,
                                 fp_projective_zero_count, hilbert_symbol,
                                 invariants, is_isotropic,
                                 isotropic_vector_search, perp, pfister,
                                 relevant_places, tensor, witt_index,
                                 witt_index_by_search)
from jordanquad.errors import FieldMismatchError
from jordanquad.scalars import PrimeField, Rationals

Q = Rationals()
F7 = PrimeField(7)


# -- construction -----------------------------------------------------------

def test_pfister_examples():
    assert pfister(Q, [Fraction(5)]).coeffs == (Fraction(1), Fraction(-5))
    assert pfister(Q, [-1, -1]).coeffs == (1, 1, 1, 1)
    assert pfister(Q, []).coeffs == (Fraction(1),)
    with pytest.raises(ValueError):
        pfister(Q, [0])


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        QuadForm(Q, (1, 0, 2))
    with pytest.raises(ValueError):
        QuadForm(Q, ())


def test_tensor_perp_evaluate():
    f = QuadForm(Q, (1, -5))
    g = QuadForm(Q, (3,))
    assert tensor(f, g).coeffs == (3, -15)
    assert perp(QuadForm(Q, (1, 2)), QuadForm(Q, (3,))).coeffs == (1, 2, 3)
    assert evaluate(QuadForm(Q, (1, 2, -3)), (1, 1, 1)) == 0
    with pytest.raises(FieldMismatchError):
        tensor(f, QuadForm(F7, (1,)))
    with pytest.raises(ValueError):
        evaluate(f, (1, 2, 3))


@pytest.mark.parametrize("field", [Q, PrimeField(3), F7, PrimeField(2**61 - 1)], ids=str)
def test_evaluate_and_bilinear_match_scalar_sums(field):
    """q(v) and B(u, v), summed on plain values, equal the sums of field
    scalars, with the field's scalar type, on vectors of scalars, ints and
    strings; a length mismatch raises ValueError."""
    rng = random.Random(f"evaluate:{field}")
    for dim in (1, 3, 6):
        f = QuadForm(field, [random_scalar(field, rng, zero_frac=0) for _ in range(dim)])
        u, v = ([random_scalar(field, rng) for _ in range(dim)] for _ in range(2))
        want_q = sum((d * x * x for d, x in zip(f.coeffs, v)), field.zero())
        want_b = sum((d * x * y for d, x, y in zip(f.coeffs, u, v)), field.zero())
        for got, want in ((evaluate(f, v), want_q), (bilinear(f, u, v), want_b),
                          (evaluate(f, [str(x) for x in v]), want_q),
                          (bilinear(f, [x.v if field.kind == "Fp" else x for x in u],
                                    [str(y) for y in v]), want_b)):
            assert got == want and type(got) is type(field.zero())
        with pytest.raises(ValueError):
            evaluate(f, v + [0])
        with pytest.raises(ValueError):
            bilinear(f, u, v[1:])


# -- Hilbert symbols --------------------------------------------------------

def test_hilbert_at_infinity():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, 2, "inf") == 1


def test_hilbert_minus_one_minus_one_at_two():
    # oracle: x^2 + y^2 + z^2 = 0 mod 8 has no primitive solution
    sols = [(x, y, z) for x in range(8) for y in range(8) for z in range(8)
            if (x * x + y * y + z * z) % 8 == 0 and (x % 2, y % 2, z % 2) != (0, 0, 0)]
    assert sols == []
    assert hilbert_symbol(-1, -1, 2) == -1


def test_hilbert_2_7_at_7():
    assert pow(3, 2, 7) == 2  # 2 is a square mod 7
    assert hilbert_symbol(2, 7, 7) == 1


def test_hilbert_bilinearity_spot():
    # (a, b c)_v = (a, b)_v (a, c)_v on a fixed grid of places and values
    vals = [Fraction(x) for x in (-10, -5, -2, -1, 1, 2, 3, 5, 6)]
    for place in ("inf", 2, 3, 5):
        for a, b, c in itertools.product(vals[:5], vals, vals[-4:]):
            assert (hilbert_symbol(a, b * c, place)
                    == hilbert_symbol(a, b, place) * hilbert_symbol(a, c, place))


@given(a=st.integers(-60, 60).filter(bool).map(Fraction),
       b=st.integers(-60, 60).filter(bool).map(Fraction))
def test_hilbert_reciprocity(a, b):
    f = QuadForm(Q, (a, b))
    prod = 1
    for place in relevant_places(f):
        prod *= hilbert_symbol(a, b, place)
    assert prod == 1


def test_hilbert_zero_input():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 2)


SYMBOL_PLACES = ("inf", 2, 3, 5, 7, 11, 13)


def seeded_rationals(seed, count):
    """Nonzero rationals whose reduced denominators are multiples of 2, 4,
    3, 9 and 5 in turn: each numerator, of either sign, is prime to its
    base."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        base = (2, 4, 3, 9, 5)[i % 5]
        num = rng.choice([x for x in range(-399, 400) if math.gcd(x, base) == 1])
        out.append(Fraction(num, base * rng.randint(1, 30)))
        assert out[-1].denominator % base == 0
    return out


def test_hilbert_square_class_invariance_on_rationals():
    """(a, b)_v = (a s^2, b t^2)_v: the symbol reads only square classes,
    also through denominators."""
    a_s = seeded_rationals("hilbert-a", 60)
    b_s = seeded_rationals("hilbert-b", 60)
    squares = seeded_rationals("hilbert-squares", 60)
    for a, b, s, t in zip(a_s, b_s, squares, reversed(squares)):
        for place in SYMBOL_PLACES:
            assert (hilbert_symbol(a, b, place)
                    == hilbert_symbol(a * s * s, b * t * t, place)), (a, b, s, t, place)


def test_hilbert_reciprocity_on_rationals():
    """The product over relevant_places is 1, and the symbol is 1 at a
    place outside them."""
    a_s = seeded_rationals("reciprocity-a", 80)
    b_s = seeded_rationals("reciprocity-b", 80)
    for a, b in zip(a_s, b_s):
        places = relevant_places(QuadForm(Q, (a, b)))
        assert math.prod(hilbert_symbol(a, b, v) for v in places) == 1, (a, b)
        outside = next(q for q in (7, 11, 13, 17, 19, 23, 29, 31) if q not in places)
        assert hilbert_symbol(a, b, outside) == 1, (a, b, outside)


# (a, b, the symbols at SYMBOL_PLACES in order), recorded when each
# valuation still built a Fraction unit
RECORDED_SYMBOLS = [
    ("1/2", "-3/8", "+--++++"),
    ("1/2", "-7/12", "+--++++"),
    ("1/2", "3/25", "+--++++"),
    ("1/2", "-6/35", "++--+++"),
    ("1/2", "11/98", "+-+++-+"),
    ("-3/8", "5/6", "+--++++"),
    ("-3/8", "-7/12", "--+++++"),
    ("-3/8", "-6/35", "--+++++"),
    ("5/6", "-2/9", "+-+-+++"),
    ("5/6", "-6/35", "+-+-+++"),
    ("5/6", "11/98", "+++-+-+"),
    ("5/6", "13/20", "++--+++"),
    ("5/6", "-4/45", "+++++++"),
    ("-7/12", "-2/9", "-+++-++"),
    ("-7/12", "-6/35", "-+-++++"),
    ("-7/12", "11/98", "+++++++"),
    ("-7/12", "-4/45", "--+++++"),
    ("-2/9", "10/27", "+-+-+++"),
    ("-2/9", "3/25", "+++++++"),
    ("-2/9", "-6/35", "--+--++"),
    ("3/25", "13/20", "++--+++"),
    ("11/98", "-1/50", "+++++++"),
    ("11/98", "-4/45", "+++-+-+"),
    ("-1/50", "-4/45", "-++-+++"),
]


def test_hilbert_symbols_on_rationals_match_recorded_answers():
    for a, b, signs in RECORDED_SYMBOLS:
        got = "".join("+" if hilbert_symbol(a, b, v) == 1 else "-" for v in SYMBOL_PLACES)
        assert got == signs, (a, b)


# -- invariants -------------------------------------------------------------

def test_invariants_hyperbolic_plane():
    inv = invariants(QuadForm(Q, (1, -1)))
    assert inv.dim == 2 and inv.disc == -1 and inv.signature == (1, 1)
    assert all(v == 1 for v in inv.hasse.values())


def test_invariants_definite():
    inv = invariants(QuadForm(Q, (1, 1, 1, 1)))
    assert inv.disc == 1 and inv.signature == (4, 0)


def test_invariants_fp():
    inv = invariants(QuadForm(F7, (2, 3)))
    assert inv.dim == 2
    assert F7.square_class(inv.disc) == F7.square_class(6)
    assert not F7.is_square(6)
    assert inv.signature is None and inv.hasse is None


BIG_PRIME = 100000000003  # the least prime above 10^11


def hasse_forms():
    """Seeded Q forms: three of each dim 1..16 with negative, fractional and
    repeated coefficients, the first of each three carrying BIG_PRIME, then
    Pfister multiples tensor(pfister(Q, params), b) with r = 2, 3 and
    dim b = 1, 2, 3."""
    rng = random.Random("hasse-oracle")
    forms = []
    for dim in range(1, 17):
        for k in range(3):
            coeffs = []
            for _ in range(dim):
                if coeffs and rng.random() < 0.25:
                    coeffs.append(rng.choice(coeffs))
                else:
                    coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 60),
                                           rng.choice((1, 1, 2, 3, 4, 9, 10, 12))))
            if k == 0:
                coeffs[rng.randrange(dim)] *= BIG_PRIME
            forms.append(QuadForm(Q, tuple(coeffs)))
    for r in (2, 3):
        for m in (1, 2, 3):
            params = [rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(r)]
            b = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 5))
                 for _ in range(m)]
            forms.append(tensor(pfister(Q, params), QuadForm(Q, tuple(b))))
    return forms


def test_hasse_matches_pairwise_product():
    """invariants(f).hasse, taken from each coefficient's valuation and
    unit, against the definition prod_{i<j} (d_i, d_j)_v as a product of
    hilbert_symbol over the pairs, place by place."""
    for f in hasse_forms():
        oracle = {}
        for v in relevant_places(f):
            s = 1
            for a, b in itertools.combinations(f.coeffs, 2):
                s *= hilbert_symbol(a, b, v)
            oracle[v] = s
        hasse = invariants(f).hasse
        assert list(hasse) == list(oracle) and hasse == oracle, f


# witt_index of the last 20 hasse_forms (dims 12-16 and the six Pfister
# multiples), recorded when the Hasse invariants still took one symbol
# per pair of coefficients
RECORDED_WITT_INDICES = [5, 4, 5, 5, 5, 5, 5, 3, 5, 5, 4, 3, 5, 7, 2, 4, 6, 4, 8, 0]


def test_witt_index_matches_recorded_answers():
    assert [witt_index(f) for f in hasse_forms()[-20:]] == RECORDED_WITT_INDICES


def test_hasse_invariants_take_no_hilbert_symbol(monkeypatch):
    """invariants reads each coefficient's local data and takes no Hilbert
    symbol (the pairwise product took dim (dim - 1) / 2 = 276 per place
    here); witt_index strips its forced planes in one step, so it takes at
    most four symbols per place, not one per plane."""
    calls = []
    real = quadform.hilbert_symbol

    def counting(a, b, place):
        calls.append(place)
        return real(a, b, place)

    f = tensor(pfister(Q, [-1, 3, -5]), QuadForm(Q, (1, -2, Fraction(7, 3))))
    assert f.dim == 24
    g = QuadForm(Q, tuple(c for a in range(1, 12) for c in (a, -a)) + (3, 5))
    monkeypatch.setattr(quadform, "hilbert_symbol", counting)
    invariants(f)
    assert calls == []
    assert witt_index(g) == 11
    assert 0 < len(calls) <= 4 * len(relevant_places(g))


def _local_oracle_forms():
    """About 300 seeded Q forms, each with every coefficient's net prime
    exponents: dims 1..16 and Pfister multiples of dim 24; numerators and
    denominators carry powers of 2 and of odd primes whose units are 1, 3,
    5 and 7 mod 8; both signs, and pairs (a, -a)."""
    rng = random.Random("hasse-local-data")
    primes = (2, 3, 5, 7, 11, 13, 17, 23, 10007)

    def coefficient():
        num = den = 1
        for q in rng.sample(primes, rng.randint(0, 3)):
            if rng.random() < 0.5:
                num *= q ** rng.randint(1, 3)
            else:
                den *= q ** rng.randint(1, 3)
        return Fraction(rng.choice((-1, 1)) * num, den)

    forms = []
    for dim in range(1, 17):
        for _ in range(16):
            coeffs = []
            while len(coeffs) < dim:
                c = coefficient()
                coeffs += [c, -c] if rng.random() < 0.2 and len(coeffs) < dim - 1 else [c]
            rng.shuffle(coeffs)
            forms.append(QuadForm(Q, tuple(coeffs)))
    for _ in range(24):
        params = [coefficient() for _ in range(3)]
        b = QuadForm(Q, tuple(coefficient() for _ in range(3)))
        forms.append(tensor(pfister(Q, params), b))
    return forms


def _net_exponents(c):
    out = {}
    for q in (2, 3, 5, 7, 11, 13, 17, 23, 10007):
        n, d, e = c.numerator, c.denominator, 0
        while n % q == 0:
            n, e = n // q, e + 1
        while d % q == 0:
            d, e = d // q, e - 1
        if e:
            out[q] = e
    return out


def _square_at(a, v):
    """Is the rational a a square in Q_v?  Test-local, from n d."""
    if v == "inf":
        return a > 0
    m, e = a.numerator * a.denominator, 0
    while m % v == 0:
        m, e = m // v, e + 1
    return e % 2 == 0 and (m % 8 == 1 if v == 2 else pow(m, (v - 1) // 2, v) == 1)


def _witt_one_plane_at_a_time(dim, disc, pos, neg, hasse):
    """Witt index from invariants, one hyperbolic plane per step: dim >= 5
    is isotropic iff indefinite, dim 3 iff (-1, -disc)_v = s_v at every v,
    dim 4 iff at every v disc is not a square or s_v = (-1, -1)_v, dim 2
    iff disc = -1; stripping H gives disc -> -disc, s_v -> s_v (-1, disc)_v."""
    index = 0
    while dim >= 2:
        if dim >= 5:
            iso = pos > 0 and neg > 0
        elif dim == 2:
            iso = disc == -1
        elif dim == 3:
            iso = all((pos and neg) if v == "inf" else hilbert_symbol(-1, -disc, v) == s
                      for v, s in hasse.items())
        else:
            iso = all((pos and neg) if v == "inf"
                      else not _square_at(disc, v) or s == hilbert_symbol(-1, -1, v)
                      for v, s in hasse.items())
        if not iso:
            break
        dim, pos, neg, disc, index = dim - 2, pos - 1, neg - 1, -disc, index + 1
        hasse = {v: s * hilbert_symbol(-1, disc, v) for v, s in hasse.items()}
    return index


def test_invariants_and_witt_index_match_local_oracles():
    """invariants (disc, signature, every Hasse symbol and the key order
    inf, 2, odd primes) against the pairwise hilbert_symbol product and
    the known factorizations, and witt_index against stripping one plane
    at a time from those oracle invariants."""
    forms = _local_oracle_forms()
    units = set()
    for f in forms:
        exps = [_net_exponents(c) for c in f.coeffs]
        for c, e in zip(f.coeffs, exps):
            units.add(c.numerator * c.denominator // 2 ** abs(e.get(2, 0)) % 8)
        total = Counter()
        for e in exps:
            total.update({q: x % 2 for q, x in e.items()})
        places = ["inf", 2] + sorted(q for q in total if q != 2)
        neg = sum(1 for c in f.coeffs if c < 0)
        disc = (-1) ** neg * math.prod(q for q, x in total.items() if x % 2)
        hasse = {v: math.prod(hilbert_symbol(a, b, v)
                              for a, b in itertools.combinations(f.coeffs, 2))
                 for v in places}
        inv = invariants(f)
        assert (inv.dim, inv.disc, inv.signature) == (f.dim, disc, (f.dim - neg, neg)), f
        assert list(inv.hasse.items()) == list(hasse.items()), f
        assert witt_index(f) == _witt_one_plane_at_a_time(
            f.dim, Fraction(disc), f.dim - neg, neg, hasse), f
    assert units == {1, 3, 5, 7}
    assert {f.dim for f in forms} == set(range(1, 17)) | {24}
    assert any(-c in f.coeffs for f in forms for c in f.coeffs)


# -- isotropy ---------------------------------------------------------------

def test_isotropy_examples():
    assert not is_isotropic(QuadForm(Q, (1, 1)))
    assert is_isotropic(QuadForm(Q, (1, 1, 1, 1, -7)))
    assert is_isotropic(QuadForm(PrimeField(5), (1, 1)))  # 1 + 2^2 = 5
    assert not is_isotropic(QuadForm(F7, (1, 1)))
    assert is_isotropic(QuadForm(F7, (1, 1, 1)))


def test_isotropy_dim4_subtle():
    # <1,1,1,1> has trivial odd-place data but is 2-adically anisotropic
    assert not is_isotropic(QuadForm(Q, (1, 1, 1, 1)))
    # 7 = 7 mod 8 is not a sum of three squares: 2-adic obstruction again
    assert not is_isotropic(QuadForm(Q, (1, 1, 1, -7)))
    assert isotropic_vector_search(QuadForm(Q, (1, 1, 1, -7)), bound=6) is None
    # while 3 = 1 + 1 + 1 is
    assert is_isotropic(QuadForm(Q, (1, 1, 1, -3)))
    assert isotropic_vector_search(QuadForm(Q, (1, 1, 1, -3)), bound=1) == (1, 1, 1, 1)


def test_witt_examples():
    assert witt_index(QuadForm(Q, (1, -1))) == 1
    assert witt_index(QuadForm(F7, (1, 1, 1, 1))) == 2
    phi = pfister(Q, [-1, -1])
    b = QuadForm(Q, (1, 1, -7))
    big = tensor(phi, b)
    assert big.dim == 12
    assert witt_index(big) == 4
    # independent corroboration: an isotropic vector exists in a small box
    assert isotropic_vector_search(big, bound=2) is not None


def test_witt_anisotropic():
    assert witt_index(QuadForm(Q, (1, 1, 1, 1))) == 0
    assert witt_index(QuadForm(Q, (1, 2, 3))) == 0


def test_isotropic_vector_search_examples():
    v = isotropic_vector_search(QuadForm(Q, (1, 2, -3)), bound=1)
    assert v == (1, 1, 1)
    assert isotropic_vector_search(QuadForm(F7, (1, 1))) is None
    assert isotropic_vector_search(QuadForm(Q, (1, -1)), bound=1) == (1, 1)


def box_walk_isotropic(f, bound):
    """The first nonzero v of [-bound, bound]^dim in lexicographic order
    with q(v) = 0, signed so that its first nonzero coordinate is positive:
    the whole-box walk, on the coefficients times their common denominator
    (which has the same zeros)."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    a = [c.numerator * (den // c.denominator) for c in f.coeffs]
    for v in itertools.product(range(-bound, bound + 1), repeat=f.dim):
        if any(v) and sum(c * x * x for c, x in zip(a, v)) == 0:
            sign = 1 if next(x for x in v if x) > 0 else -1
            return tuple(Fraction(sign * x) for x in v)
    return None


def test_isotropic_vector_search_q_matches_box_walk():
    rng = random.Random(10)

    def nonzero(hi=9):
        return rng.choice((-1, 1)) * rng.randint(1, hi)

    found = missed = 0
    for dim in range(1, 6):
        for bound in range(7):
            forms = [[nonzero() for _ in range(dim)],
                     [Fraction(nonzero(), rng.randint(1, 6)) for _ in range(dim)],
                     [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(dim)]]
            if dim > 1 and bound:
                # a_dim chosen so that a vector of the box is isotropic
                v = [rng.randint(-bound, bound) for _ in range(dim - 1)] + [nonzero(bound)]
                head = [Fraction(nonzero(), rng.randint(1, 6)) for _ in range(dim - 1)]
                last = -sum(a * x * x for a, x in zip(head, v)) / v[-1] ** 2
                if last:
                    forms.append(head + [last])
            for coeffs in forms:
                f = QuadForm(Q, tuple(coeffs))
                got = isotropic_vector_search(f, bound=bound)
                assert got == box_walk_isotropic(f, bound), (coeffs, bound)
                if got is None:
                    missed += 1
                else:
                    assert evaluate(f, got) == 0 and all(type(x) is Fraction for x in got)
                    found += 1
    assert found >= 40 and missed >= 40


def test_search_result_evaluates_to_zero():
    f = QuadForm(PrimeField(11), (1, 3, 5))
    v = isotropic_vector_search(f)
    assert v is not None and evaluate(f, v) == 0


# -- properties -------------------------------------------------------------

@given(coeffs=st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_witt_bound_q(coeffs):
    f = QuadForm(Q, tuple(Fraction(c) for c in coeffs))
    iw = witt_index(f)
    assert 0 <= iw <= f.dim // 2
    # stripping all hyperbolic planes must leave an anisotropic residue:
    # if iw < dim/2 the form is not totally split
    if f.dim >= 2 and iw == 0:
        assert not is_isotropic(f)


@given(coeffs=st.lists(st.integers(1, 6), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_witt_matches_search_fp(coeffs):
    f = QuadForm(F7, tuple(coeffs))
    assert witt_index(f) == witt_index_by_search(f)


def test_witt_search_on_residues_matches_classification():
    """witt_index_by_search against the dim/disc classification on 432
    seeded forms, coefficients given as ints of either sign, many >= p."""
    rng = random.Random("witt-search")
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        fld = PrimeField(p)
        for dim in range(1, 10):
            for _ in range(6):
                coeffs = []
                while len(coeffs) < dim:
                    c = rng.randint(-3 * p, 3 * p)
                    if c % p:
                        coeffs.append(c)
                f = QuadForm(fld, tuple(coeffs))
                assert witt_index_by_search(f) == witt_index(f), (p, coeffs)


def test_residue_rank_and_diagonalization_by_brute_force():
    """The search's residue helper: a diagonalized Gram matrix keeps its
    dimension and, up to squares, its determinant (the two invariants that
    classify forms over F_p).  The determinant is the Leibniz sum over
    permutations."""
    rng = random.Random("residue-helpers")
    for p in (3, 5, 7, 11, 13):
        for _ in range(60):
            k = rng.randint(1, 5)
            m = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    m[i][j] = m[j][i] = rng.randrange(p)
            det = 0
            for perm in itertools.permutations(range(k)):
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                det += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(k))
            if det % p == 0:
                continue
            diag = quadform._diagonalize_gram(p, m)
            assert len(diag) == k and all(0 < d < p for d in diag), (p, m, diag)
            assert PrimeField(p).is_square(math.prod(diag) * det), (p, m, diag)


def test_witt_search_is_fp_only():
    with pytest.raises(ValueError):
        witt_index_by_search(QuadForm(Q, (1, -1)))


def test_pfister_dichotomy():
    # isotropic Pfister forms are hyperbolic: index 0 or 2^{r-1}
    cases_q = [[-1], [-1, -1], [2], [2, 3], [-1, -1, -1], [2, -3, 5]]
    for params in cases_q:
        f = pfister(Q, params)
        assert witt_index(f) in (0, f.dim // 2)
    for p in (3, 5, 7, 11):
        fld = PrimeField(p)
        for params in ([[1], [2], [1, 1], [1, 2], [2, 2], [1, 1, 1]]):
            f = pfister(fld, params)
            assert witt_index(f) in (0, f.dim // 2)


def test_pfister_multiple_witt_divisibility():
    bs = [(1, 1), (1, -1), (1, 3), (-1, -2), (1, 1, 1), (1, 1, -7),
          (2, -3, 5), (1, 1, 1, 1), (1, 2, -3, -6), (1, 1, 1, 1, -7)]
    for r in (2, 3):
        phi = pfister(Q, [-1] * r)
        assert witt_index(phi) == 0
        for coeffs in bs:
            iw = witt_index(tensor(phi, QuadForm(Q, coeffs)))
            assert iw % (1 << r) == 0


def test_witt_step_implications():
    """The two subform implications behind the neighbour decomposition, at
    the Witt-index level, on the fixed suite."""
    for r, params in ((2, [-1, -1]), (3, [-1, -1, -1])):
        phi = pfister(Q, params)
        for coeffs in [(1, 1), (1, -1), (1, 1, -7), (2, -3, 5), (1, 1, 1, 1)]:
            n = len(coeffs)
            b = QuadForm(Q, coeffs)
            bprime = QuadForm(Q, coeffs[:-1]) if n >= 2 else None
            q = perp(tensor(phi, bprime), QuadForm(Q, (coeffs[-1],)))
            full = tensor(phi, b)
            iw_full, iw_q = witt_index(full), witt_index(q)
            iw_sub = witt_index(tensor(phi, bprime))
            for d in range(n // 2):
                t = (1 << r) * d
                # step 1: i_W(phi x b) > 2^r d  <=>  i_W(q) > 2^r d
                assert (iw_full > t) == (iw_q > t)
                # step 2 chain: down to the subform and back
                if iw_sub > t:
                    assert iw_q > (1 << r) * (d + 1) - 1
                for i in range(1, 1 << r):
                    if iw_q > t + i:
                        assert iw_sub > t


def test_consistency_isotropy_vs_search_fp():
    for p in (3, 5, 7):
        fld = PrimeField(p)
        u = fld.least_nonresidue()
        for dim in range(1, 5):
            for k in range(dim + 1):
                f = QuadForm(fld, tuple([1] * (dim - k) + [u] * k))
                assert is_isotropic(f) == (isotropic_vector_search(f) is not None)


def test_fp_projective_zero_count_vs_exhaustion():
    for p in (3, 5):
        fld = PrimeField(p)
        for coeffs in [(1,), (1, 1), (1, -1), (1, 2), (1, 1, 1), (1, 1, -1),
                       (1, 2, 2, 1), (1, 1, 1, 1)]:
            try:
                f = QuadForm(fld, coeffs)
            except ValueError:
                continue
            count = 0
            for v in itertools.product(range(p), repeat=len(coeffs)):
                if any(v):
                    lead = next(x for x in v if x)
                    if lead == 1 and evaluate(f, v) == 0:
                        count += 1
            # canonical representatives counted once each
            assert fp_projective_zero_count(f) == count


def test_witt_fp_even_dim_classification():
    # disc-sensitive middle case: <1,1> vs <1,-1> over F_7
    assert witt_index(QuadForm(F7, (1, -1))) == 1
    assert witt_index(QuadForm(F7, (1, 1))) == 0
    assert witt_index(QuadForm(F7, (1, 1, 1, 1, 1))) == 2
    assert witt_index(QuadForm(F7, (1, 1, 1))) == 1


def test_bilinear_polarization():
    f = QuadForm(Q, (1, 2, -3))
    u = (1, 2, 0)
    v = (0, 1, 1)
    uv = tuple(a + b for a, b in zip(u, v))
    assert evaluate(f, uv) == evaluate(f, u) + evaluate(f, v) + 2 * bilinear(f, u, v)


@given(st.lists(st.fractions(min_value=-10 ** 4, max_value=10 ** 4,
                             max_denominator=60).filter(bool),
                min_size=1, max_size=5))
@example([Fraction(q, 60) for q in (599999, 599993, 599983, 599959, 599941)])
def test_invariants_disc_is_square_class_of_product(coeffs):
    """The discriminant read off the coefficients' factorizations equals
    the square class of their product.  That class is built from the
    coefficients' own square classes s_i, which are square-free: with
    g = gcd(s, s_i), the class of s s_i is (s / g)(s_i / g), sign included.
    So the product is never factored whole; five primes near 6 * 10^5
    would leave a cofactor that factor() refuses."""
    f = QuadForm(Q, tuple(coeffs))
    inv = invariants(f)
    s = 1
    for c in coeffs:
        si = int(Q.square_class(c))
        g = math.gcd(s, si)
        s = (s // g) * (si // g)
    assert inv.disc == s
    assert list(inv.hasse) == relevant_places(f)


@given(st.lists(st.integers(-40, 40).filter(bool), min_size=1, max_size=6))
def test_isotropic_iff_positive_witt_index_q(coeffs):
    f = QuadForm(Q, tuple(coeffs))
    assert is_isotropic(f) == (witt_index(f) > 0)


@given(p=st.sampled_from([3, 5, 7, 11]), data=st.data())
def test_isotropic_iff_positive_witt_index_fp(p, data):
    coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=6))
    f = QuadForm(PrimeField(p), tuple(coeffs))
    assert is_isotropic(f) == (witt_index(f) > 0)
