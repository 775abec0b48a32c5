import random
from fractions import Fraction

import pytest
from conftest import assert_canonical, large_scalar, random_scalar

from jordanquad import _fpcore_py, jordan, sweeps
from jordanquad.birational import veronese
from jordanquad.cayley_dickson import CDAlgebra, _mul_rec
from jordanquad.errors import AlgebraMismatchError, BasePointError
from jordanquad.jordan import JordanAlgebra, JordanElem, _rank_at_most
from jordanquad.quadform import QuadForm, fp_projective_zero_count
from jordanquad.scalars import PrimeField, Rationals

Q = Rationals()


def make_alg(r=2, n=3, b=(1, 1, -3), field=Q, params=None):
    if params is None:
        params = [-1] * r
    return JordanAlgebra(CDAlgebra(field, params), b)


def random_element(alg, rng, lo=-3, hi=3):
    diag = [rng.randint(lo, hi) for _ in range(alg.n)]
    upper = {}
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            upper[(i, j)] = alg.cd.element([rng.randint(lo, hi)
                                            for _ in range(alg.cd.dim)])
    return alg.from_parts(diag, upper)


def test_construction_constraints():
    with pytest.raises(ValueError):
        JordanAlgebra(CDAlgebra(Q, [-1, -1, -1]), (1, 1, 1, 1))  # r=3 needs n=3
    with pytest.raises(ValueError):
        make_alg(b=(1, 0, 1))
    with pytest.raises(ValueError):
        JordanAlgebra(CDAlgebra(Q, []), (1, 1))  # n >= 3


def test_swap_last_two_is_built_once():
    alg = make_alg(r=1, n=4, b=(1, 2, 3, 5))
    swapped = alg.swap_last_two()
    assert swapped is alg.swap_last_two()
    assert swapped == JordanAlgebra(alg.cd, (1, 2, 5, 3))


def test_equal_algebras_built_apart_hash_equal():
    """Each algebra hashes once, when it is built; algebras built apart
    from equal parameters are equal and hash alike, over Q and F_p."""
    for field, params, b in ((Q, [Fraction(-1, 3), 2], (1, Fraction(2, 5), -3)),
                             (PrimeField(13), [5], (1, 2, 12, 7))):
        cd1, cd2 = CDAlgebra(field, params), CDAlgebra(field, list(params))
        assert cd1 is not cd2 and cd1 == cd2 and hash(cd1) == hash(cd2)
        a1, a2 = JordanAlgebra(cd1, b), JordanAlgebra(cd2, list(b))
        assert a1 == a2 and hash(a1) == hash(a2)
        assert len({a1, a2, JordanAlgebra(cd1, b[::-1])}) == 2
        # the values of the parameter-tuple hashes, so no set of algebras
        # changes its order
        assert hash(a1) == hash((cd1, a1.b)) and hash(cd1) == hash((field, cd1.params))


def test_dimension_formula_by_basis():
    for r, n in [(0, 3), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 3)]:
        alg = make_alg(r=r, n=n, b=tuple(range(1, n + 1)))
        # 2^{r-1} n (n-1) + n, which at r = 0 reads n(n-1)/2 + n
        assert alg.dim == (1 << r) * n * (n - 1) // 2 + n
        basis = alg.basis()
        assert len(basis) == alg.dim
        # basis elements are symmetric and k-linearly independent by slots
        assert all(x.is_symmetric() for x in basis)


def test_idempotent_products():
    alg = make_alg()
    E11, E22 = alg.basis_idempotent(0), alg.basis_idempotent(1)
    assert E11.jordan_mul(E11) == E11
    assert E11.jordan_mul(E22).is_zero()
    x = random_element(alg, random.Random(5))
    assert alg.identity().jordan_mul(x) == x


def test_commutativity_and_symmetry_closure():
    alg = make_alg(r=2, n=4, b=(1, 2, 3, -1))
    rng = random.Random(7)
    for _ in range(10):
        x, y = random_element(alg, rng), random_element(alg, rng)
        xy = x.jordan_mul(y)
        assert xy == y.jordan_mul(x)
        assert xy.is_symmetric()


def test_jordan_identity():
    # x^2 o (x o y) = x o (x^2 o y), including the octonion case
    for r, n in [(0, 3), (1, 3), (2, 3), (2, 4), (3, 3)]:
        alg = make_alg(r=r, n=n, b=tuple([1] * (n - 1) + [-3]))
        rng = random.Random(100 + r + n)
        for _ in range(6 if r < 3 else 4):
            x, y = random_element(alg, rng, -2, 2), random_element(alg, rng, -2, 2)
            x2 = x.square()
            assert x2.jordan_mul(x.jordan_mul(y)) == x.jordan_mul(x2.jordan_mul(y))


def test_u_operator_examples():
    alg = make_alg()
    E11, E22 = alg.basis_idempotent(0), alg.basis_idempotent(1)
    I = alg.identity()
    assert E11.u_operator(I) == E11
    x = random_element(alg, random.Random(9))
    assert I.u_operator(x) == x
    assert E11.u_operator(E22).is_zero()


def test_trace_examples():
    alg = make_alg()
    I = alg.identity()
    E11, E22 = alg.basis_idempotent(0), alg.basis_idempotent(1)
    assert I.trace() == 3
    assert (E11 - E22).trace() == 0
    assert E11.trace_form(E11) == 1


def test_trace_form_associative():
    alg = make_alg(r=1, n=4, b=(1, 2, -1, 3))
    rng = random.Random(13)
    for _ in range(8):
        x, y, z = (random_element(alg, rng) for _ in range(3))
        assert x.jordan_mul(y).trace_form(z) == x.trace_form(y.jordan_mul(z))


def test_rank_one_examples():
    alg = make_alg()
    E11, E22 = alg.basis_idempotent(0), alg.basis_idempotent(1)
    assert E11.is_rank_one()
    assert not (E11 + E22).is_rank_one()
    with pytest.raises(ValueError):
        alg.zero().is_rank_one()


def test_adjoint_examples():
    alg = make_alg()
    E11, E22, E33 = (alg.basis_idempotent(i) for i in range(3))
    I = alg.identity()
    assert E11.adjoint_sharp().is_zero()
    assert I.adjoint_sharp() == I
    assert (E11 + E22).adjoint_sharp() == E33
    alg4 = make_alg(r=1, n=4, b=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        alg4.identity().adjoint_sharp()


def test_rank_one_iff_sharp_zero():
    """On a mixed bag of elements of a cubic algebra the rank-one test, the
    cubic adjoint and the U-operator oracle agree."""
    for field, params, b in [(Q, [-1, -1], (1, 1, -3)),
                             (PrimeField(7), [1, 1], (1, 2, 6)),
                             (Q, [-1, -1, -1], (1, 2, -3))]:
        alg = JordanAlgebra(CDAlgebra(field, [field.element(a) for a in params]),
                            [field.element(x) for x in b])
        rng = random.Random(17)
        checked = 0
        for _ in range(12):
            x = random_element(alg, rng, -2, 2)
            if x.is_zero():
                continue
            assert x.is_rank_one() == x.adjoint_sharp().is_zero() == literal_rank_one(x)
            checked += 1
        # idempotents are rank one; their sharp vanishes
        for i in range(3):
            e = alg.basis_idempotent(i)
            assert e.is_rank_one() and e.adjoint_sharp().is_zero() and literal_rank_one(e)
        assert checked >= 8


def _unit_half_space_elements(alg):
    """half_space_element of each unit C-vector: e_t in slot j, 0 elsewhere."""
    cd, i = alg.cd, alg.n - 1
    return [alg.half_space_element([cd.basis(t) if k == j else cd.zero() for k in range(i)])
            for j in range(i) for t in range(cd.dim)]


def test_peirce_half_basis():
    alg0 = make_alg(r=0, n=3, b=(1, 1, 1))
    assert len(_unit_half_space_elements(alg0)) == 2
    alg2 = make_alg(r=2, n=3)
    basis = _unit_half_space_elements(alg2)
    assert len(basis) == 8
    u = alg2.basis_idempotent(2)
    half = Fraction(1, 2)
    for x in basis:
        assert x.jordan_mul(u) == x.scale(half)


def test_half_space_element_column():
    alg = make_alg(r=1, n=4, b=(1, 2, 3, -1))
    cd = alg.cd
    cvec = [cd.element([1, 2]), cd.element([0, 1]), cd.element([3, 0])]
    x = alg.half_space_element(cvec)
    col = [row[3] for row in x.entries]
    assert list(col[:3]) == cvec
    assert x.jordan_mul(alg.basis_idempotent(3)) == x.scale(Fraction(1, 2))


def test_spec_mismatch():
    a1, a2 = make_alg(), make_alg(b=(1, 1, 1))
    with pytest.raises(AlgebraMismatchError):
        a1.identity().jordan_mul(a2.identity())


def test_nonsymmetric_rejected():
    alg = make_alg(r=1, n=3, b=(1, 1, 1))
    cd = alg.cd
    rows = [[cd.one(), cd.basis(1), cd.zero()],
            [cd.basis(1), cd.one(), cd.zero()],
            [cd.zero(), cd.zero(), cd.one()]]
    # e1 in slot (0,1) forces -e1 in slot (1,0) when b = (1,1,1)
    with pytest.raises(ValueError):
        alg.element(rows)


def test_element_shape_rejected():
    alg = make_alg(r=1, n=3, b=(1, 1, 1))
    z = [0, 0]
    for bad in ([[z, z, z], [z, z, z]],                        # too few rows
                [[z, z, z]] * 4,                                # too many rows
                [[z, z, z], [z, z], [z, z, z]],                 # ragged row
                [[z, z, z], [z, z, z], 5],                      # row not a list
                5, "abc", None):
        with pytest.raises(ValueError, match="3 x 3"):
            alg.element(bad)


# (r, n) shapes for the fast-path equivalence tests: octonions only at n = 3
SHAPES = [(0, 3), (1, 3), (2, 3), (3, 3), (0, 4), (1, 4), (2, 4)]
FIELDS = [Q, PrimeField(7)]


def shape_alg(field, r, n):
    return make_alg(r=r, n=n, b=(1, 2, -3, 5)[:n], field=field, params=(-1, 2, 3)[:r])


def reference_jordan_mul(x, y):
    """Coordinates of (xy + yx)/2 over the full n x n matrices, every entry
    product taken with the recursive doubling product."""
    alg = x.algebra
    cd, field, n = alg.cd, alg.field, alg.n

    def entry(u, v, i, j):
        total = [field.zero()] * cd.dim
        for k in range(n):
            prod = _mul_rec(u[i][k].coords, v[k][j].coords, cd.params, field)
            total = [a + b for a, b in zip(total, prod)]
        return total

    return [[tuple(alg.half * (a + b) for a, b in zip(entry(x.entries, y.entries, i, j),
                                                      entry(y.entries, x.entries, i, j)))
             for j in range(n)] for i in range(n)]


def coords(x):
    return [[e.coords for e in row] for row in x.entries]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("r,n", SHAPES)
def test_jordan_mul_matches_reference(field, r, n):
    alg = shape_alg(field, r, n)
    rng = random.Random(31 * r + n)
    basis = alg.basis()
    dense = [random_element(alg, rng) for _ in range(3)]
    # random elements with some off-diagonal slots zeroed exercise the
    # zero-skipping on patterns other than the basis
    sparse = [alg.from_parts([rng.randint(-3, 3) for _ in range(n)],
                             {(i, j): alg.cd.element([rng.randint(-3, 3)
                                                      for _ in range(alg.cd.dim)])
                              for i in range(n) for j in range(i + 1, n)
                              if rng.random() < 0.4})
              for _ in range(3)]
    pairs = [(x, y) for x in dense + sparse for y in dense + sparse]
    pairs += [(dense[t % 3], y) for t, y in enumerate(basis)]
    pairs += [(y, basis[(t * 7 + 3) % len(basis)]) for t, y in enumerate(basis)]
    for x, y in pairs:
        assert coords(x.jordan_mul(y)) == reference_jordan_mul(x, y)


def literal_rank_one(x):
    return all(x.u_operator(y) == x.scale(x.trace_form(y))
               for y in x.algebra.basis())


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_is_rank_one_matches_literal_check(field, r):
    alg = shape_alg(field, r, 3)
    count = 3 if r < 3 else 2
    images = []
    for pt in sweeps.sample_quadric_points(alg, count, seed=5 + r):
        try:
            images.append(veronese(pt).elem)
        except BasePointError:
            continue
    assert len(images) >= 2
    E11, E22 = alg.basis_idempotent(0), alg.basis_idempotent(1)
    for x in images:
        assert x.is_rank_one() and literal_rank_one(x)
    for x in [images[0] + images[1], E11 + E22]:
        assert not x.is_rank_one() and not literal_rank_one(x)


# n >= 4 against the U-operator oracle: per field its doubling parameters
# and b, fractional over Q and units mod 3 and mod 7 over F_p (<b_1, b_2,
# b_3> is isotropic over Q, at (2, 3, 5), so the sampler finds points)
RANK_FIELDS = [
    (Q, (Fraction(-1, 2), Fraction(3, 5)),
     (Fraction(1, 4), Fraction(2, 9), Fraction(-3, 25), Fraction(5, 7), Fraction(-1, 2))),
    (PrimeField(3), (-1, 2), (1, 2, 1, 2, 1)),
    (PrimeField(7), (-1, 2), (1, 2, -3, 5, 4)),
]


@pytest.mark.parametrize("field,params,b", RANK_FIELDS, ids=["Q", "F3", "F7"])
@pytest.mark.parametrize("r,n", [(0, 4), (1, 4), (2, 4), (1, 5)])
def test_is_rank_one_matches_literal_check_at_n4(field, params, b, r, n):
    """Veronese images, each with one basis element added, the sums of two
    images and E_11 + E_22: the values loop agrees with the U-operator and
    trace-form oracle."""
    alg = JordanAlgebra(CDAlgebra(field, params[:r]), b[:n])
    rng = random.Random(f"rank:{field}:{r}:{n}")
    images = []
    for pt in sweeps.sample_quadric_points(alg, 3, seed=rng.randrange(1000)):
        try:
            images.append(veronese(pt).elem)
        except BasePointError:
            continue
    assert len(images) >= 2
    basis = alg.basis()
    for x in images:
        assert x.is_rank_one() and literal_rank_one(x)
        y = x + basis[rng.randrange(len(basis))]
        if not y.is_zero():
            assert y.is_rank_one() == literal_rank_one(y), y
    sums = [x + y for k, x in enumerate(images) for y in images[k + 1:]]
    for x in sums + [alg.basis_idempotent(0) + alg.basis_idempotent(1)]:
        assert not x.is_rank_one() and not literal_rank_one(x), x


def test_principal_blocks_do_not_decide_rank_one():
    """At (3, 2, 4) with b = (1, 2, 1, 2), split quaternions: x_03 = (1, 0, 2, 0)
    and x_12 = (0, 0, 1, 1) are isotropic on disjoint index pairs, so every
    principal 3 x 3 block has zero cubic adjoint, yet x is not rank one."""
    alg = JordanAlgebra(CDAlgebra(PrimeField(3), [1, 1]), (1, 2, 1, 2))
    x = alg.from_parts([0] * 4, {(0, 3): [1, 0, 2, 0], (1, 2): [0, 0, 1, 1]})
    for block in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        sub = JordanAlgebra(alg.cd, [alg.b[i] for i in block])
        entries = [[x.entries[i][j] for j in block] for i in block]
        assert sub.element(entries).adjoint_sharp().is_zero()
    assert not x.is_rank_one() and not literal_rank_one(x)


def test_rank_one_calls_no_jordan_product_at_n3(monkeypatch):
    """At n = 3 the rank-one test and the adjoint work on entries alone."""
    alg = shape_alg(PrimeField(7), 3, 3)
    xs = [alg.basis_idempotent(0), alg.identity(), random_element(alg, random.Random(4))]

    def refuse(*args):
        raise AssertionError("Jordan product at n = 3")

    monkeypatch.setattr(JordanElem, "jordan_mul", refuse)
    monkeypatch.setattr(JordanElem, "u_operator", refuse)
    assert [x.is_rank_one() for x in xs] == [True, False, False]
    assert [x.adjoint_sharp().is_zero() for x in xs] == [True, False, False]


def test_rank_one_builds_no_scalar_at_n4(monkeypatch):
    """At n >= 4 the rank-one test is one elimination on plain values: with
    the fields' wrap, the basis and the Jordan product on values refusing,
    it still answers on (7, 2, 4) and on the fractional (Q, 1, 4)."""
    cases = []
    for field, params, b, r in [(PrimeField(7), (-1, 2), (1, 2, -3, 5), 2),
                                (*RANK_FIELDS[0], 1)]:
        alg = JordanAlgebra(CDAlgebra(field, params[:r]), b[:4])
        images = []
        for pt in sweeps.sample_quadric_points(alg, 4, seed=8):
            try:
                images.append(veronese(pt).elem)
            except BasePointError:
                continue
        assert len(images) >= 3
        cases.append(images[:3] + [images[0] + images[1],
                                   alg.basis_idempotent(0) + alg.basis_idempotent(1)])

    def refuse(*args):
        raise AssertionError("scalar, basis or Jordan product in the rank-one test")

    monkeypatch.setattr(PrimeField, "wrap", refuse)
    monkeypatch.setattr(Rationals, "wrap", refuse)
    monkeypatch.setattr(JordanAlgebra, "basis", refuse)
    monkeypatch.setattr(jordan, "_jordan_values", refuse)
    monkeypatch.setattr(jordan, "_jordan_upper", refuse)
    for xs in cases:
        assert [x.is_rank_one() for x in xs] == [True, True, True, False, False]


def p3_points(alg):
    """Every point of P(J) over F_3, one canonical representative each."""
    m = alg.cd.dim
    for v in _fpcore_py._points(3, alg.dim):
        yield alg.from_parts(v[:3], {(0, 1): v[3:3 + m], (0, 2): v[3 + m:3 + 2 * m],
                                     (1, 2): v[3 + 2 * m:]})


@pytest.mark.parametrize("params,b,points,rank_one,zero_diagonal", [
    ([], (1, 1, 1), 364, 3 ** 2 + 3 + 1, 0),             # P^2 by the Veronese
    ([1], (1, 2, 1), 9841, (3 ** 2 + 3 + 1) ** 2, 18),    # split: P^2 x P^2
    ([2], (1, 1, 2), 9841, 3 ** 4 + 3 ** 2 + 1, 0),       # C = F_9: P^2(F_9)
])
def test_rank_one_on_every_point_at_p3(params, b, points, rank_one, zero_diagonal):
    """The entry test against the U-operator oracle and the rank bound of
    Lambda(x) on all of P(J), with the rank-one counts of the closed forms
    and the traceless ones, #X(J), of sweeps.xj_expected_count; the split
    algebra has rank-one points whose diagonal is zero."""
    alg = JordanAlgebra(CDAlgebra(PrimeField(3), params), b)
    seen = found = no_diagonal = traceless = 0
    for x in p3_points(alg):
        got = x.is_rank_one()
        assert got == literal_rank_one(x) == _rank_at_most(alg, x._values()[0], alg.cd.dim), x
        seen += 1
        found += got
        no_diagonal += got and not any(x.entries[i][i] for i in range(3))
        traceless += got and not x.trace()
    assert (seen, found, no_diagonal) == (points, rank_one, zero_diagonal)
    assert traceless == sweeps.xj_expected_count(alg) == {13: 4, 169: 52, 91: 28}[rank_one]


def test_traceless_rank_one_points_at_n4_count_the_quadric():
    """(3, 0, 4), b = (1, 2, 1, 2): the traceless rank-one points of P(J)
    are the images x_ij = c_i c_j b_j of the zeros of <b> in P^3, so
    is_rank_one, run on every point of the traceless hyperplane (x_33 is
    minus the other three diagonal entries), counts the quadric, which is
    also sweeps.xj_expected_count's r = 0 closed form."""
    b = (1, 2, 1, 2)
    alg = JordanAlgebra(CDAlgebra(PrimeField(3), []), b)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    count = 0
    for v in _fpcore_py._points(3, alg.dim - 1):
        x = alg.from_parts([*v[:3], -sum(v[:3])], {ij: [a] for ij, a in zip(pairs, v[3:])})
        count += x.is_rank_one()
    assert count == fp_projective_zero_count(QuadForm(alg.field, b)) == 16
    assert count == sweeps.xj_expected_count(alg)


def test_rank_one_octonions_at_p7():
    """(7, 3, 3): Veronese images are rank one, and each image with one
    coordinate moved is not, by the entry test and by the oracle alike."""
    alg = shape_alg(PrimeField(7), 3, 3)
    rng = random.Random(733)
    images = []
    for pt in sweeps.sample_quadric_points(alg, 12, seed=73):
        try:
            images.append(veronese(pt).elem)
        except BasePointError:
            continue
    assert len(images) >= 8
    moved = 0
    for x in images:
        assert x.is_rank_one() and literal_rank_one(x)
        diag = [x.entries[i][i].coords[0] for i in range(3)]
        upper = {(i, j): list(x.entries[i][j].coords) for i in range(3) for j in range(i + 1, 3)}
        slot = rng.randrange(3 + 3 * alg.cd.dim)
        if slot < 3:
            diag[slot] += 1
        else:
            (i, j), t = [(0, 1), (0, 2), (1, 2)][(slot - 3) // alg.cd.dim], (slot - 3) % alg.cd.dim
            upper[i, j][t] += 1
        y = alg.from_parts(diag, upper)
        assert y.is_rank_one() == literal_rank_one(y) == y.adjoint_sharp().is_zero()
        moved += not y.is_rank_one()
    assert moved == len(images)


ORACLE_SHAPES = [(0, 3), (1, 3), (2, 3), (3, 3), (1, 4)]


def oracle_elements(field, r, n, count):
    """count seeded elements of a seeded Sym(M_n(C), sigma_b) over field,
    with zero diagonal slots and zero or partly zero off-diagonal entries."""
    rng = random.Random(f"{field}:{r}:{n}")
    cd = CDAlgebra(field, [random_scalar(field, rng, zero_frac=0) for _ in range(r)])
    alg = JordanAlgebra(cd, [random_scalar(field, rng, zero_frac=0) for _ in range(n)])

    def element():
        upper = {(i, j): cd.element([random_scalar(field, rng) for _ in range(cd.dim)])
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7}
        return alg.from_parts([random_scalar(field, rng) for _ in range(n)], upper)

    return [element() for _ in range(count)]


@pytest.mark.parametrize("r,n", ORACLE_SHAPES)
def test_jordan_mul_matches_doubling_oracle(oracle_field, r, n):
    elems = oracle_elements(oracle_field, r, n, 6)
    for x, y in zip(elems[::2], elems[1::2]):
        for u, v in ((x, y), (x, x)):
            got = u.jordan_mul(v)
            assert coords(got) == reference_jordan_mul(u, v)
            assert got.is_symmetric()


@pytest.mark.parametrize("r,n", ORACLE_SHAPES)
def test_square_matches_product_with_a_copy(oracle_field, r, n):
    # x o x takes each product once; a distinct but equal right factor goes
    # through the general two-sided, halved sum
    for x in oracle_elements(oracle_field, r, n, 4):
        assert x.square() == x.jordan_mul(JordanElem(x.algebra, x.entries))


@pytest.mark.parametrize("r,n", ORACLE_SHAPES)
def test_integer_path_with_large_denominators(integer_path_field, r, n):
    """jordan_mul (x o y and x o x), scale, sums and the symmetry test on
    entries, b and doubling parameters over large coprime denominators:
    equal to their oracles, canonical, and equal in == and hash to the
    element built from the expected scalars."""
    field = integer_path_field
    rng = random.Random(f"large:{field}:{r}:{n}")
    cd = CDAlgebra(field, [large_scalar(field, rng, zero_frac=0) for _ in range(r)])
    alg = JordanAlgebra(cd, [large_scalar(field, rng, zero_frac=0) for _ in range(n)])

    def element():
        upper = {(i, j): cd.element([large_scalar(field, rng) for _ in range(cd.dim)])
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7}
        return alg.from_parts([large_scalar(field, rng) for _ in range(n)], upper)

    def check(got, want):
        assert coords(got) == want
        for row in got.entries:
            for e in row:
                assert_canonical(e.coords, field)
        same = alg.element([[list(c) for c in row] for row in want])
        assert got == same and hash(got) == hash(same)

    elems = [element() for _ in range(4)]
    for x, y in zip(elems, elems[1:]):
        s = large_scalar(field, rng)
        for u, v in ((x, y), (x, x)):
            check(u.jordan_mul(v), reference_jordan_mul(u, v))
        check(x.scale(s), [[tuple(s * c for c in e.coords) for e in row]
                           for row in x.entries])
        check(x + y, [[tuple(a + b for a, b in zip(e.coords, f.coords))
                       for e, f in zip(r1, r2)] for r1, r2 in zip(x.entries, y.entries)])
        check(x - y, [[tuple(a - b for a, b in zip(e.coords, f.coords))
                       for e, f in zip(r1, r2)] for r1, r2 in zip(x.entries, y.entries)])
    # sigma_b-symmetry is x_ij = (b_j / b_i) conj(x_ji), slot by slot
    x = elems[0]
    t = field.element(Fraction(1, 999983))
    for i, j, slot in ((0, 1, 0), (n - 1, 0, cd.dim - 1), (1, 1, cd.dim - 1)):
        if (i, j) == (1, 1) and cd.dim == 1:
            continue
        rows = [list(row) for row in x.entries]
        rows[i][j] = rows[i][j] + cd.basis(slot) * t
        assert not alg.element(rows, validate=False).is_symmetric()
    assert all(e.is_symmetric() for e in elems)
