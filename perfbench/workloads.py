"""Seeded workloads of the jordanquad benchmark.

A workload turns a seed into plain data (primes, integer coefficients,
sample seeds) with the standard library only.  `build` then turns that
data into package objects and a list of `Op`s.  `Op.run` is the timed call
into the package's public functions; `Op.check` compares its result with
exact oracles, outside the timed region, and returns the problems found
(an empty list means the result is verified).

The mix of shapes in each workload is fixed; the seed picks coefficients,
sample points and order.  That keeps the work per pass nearly the same
from seed to seed, so a change in the figures is a change in the program.
"""

import random
from dataclasses import dataclass, field


@dataclass
class Op:
    """One timed call and the oracle that verifies it.

    `oracle` returns the expected counters; it may call the package, so it
    runs lazily on the first check and is cached, outside any timing.
    `points` is what the op contributes to points_per_s.
    """

    kind: str
    run: object
    verify: object
    oracle: object
    points: int
    expect: dict = field(default=None)

    def check(self, result):
        if self.expect is None:
            self.expect = self.oracle()
        try:
            return self.verify(result, self.expect)
        except Exception as exc:  # a malformed result is a failed op
            return [f"check raised {exc!r}"]


# ---------------------------------------------------------------------------
# Plain-data helpers (no package imports)


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24 (first 13 prime bases)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


def _is_square_mod(a, p):
    return pow(a % p, (p - 1) // 2, p) == 1


def _fp_witt_index(p, coeffs):
    """Witt index of a diagonal form over F_p from its dimension d and
    discriminant: (d-1)/2 for odd d; for even d, d/2 exactly when
    (-1)^(d/2) times the discriminant is a square, else d/2 - 1."""
    d = len(coeffs)
    if d % 2:
        return (d - 1) // 2
    disc = (-1) ** (d // 2)
    for c in coeffs:
        disc *= c
    return d // 2 if _is_square_mod(disc, p) else d // 2 - 1


def _projective_size(p, N):
    return (p ** N - 1) // (p - 1)


def _expect_equal(report_counts, expect, keys=None):
    problems = []
    for key in keys if keys is not None else expect:
        if report_counts.get(key) != expect[key]:
            problems.append(f"{key}: got {report_counts.get(key)}, expected {expect[key]}")
    return problems


# ---------------------------------------------------------------------------
# fp-sampled and q-sampled: the object layers (CDElem, JordanElem, birational)

FP_SAMPLED_SHAPES = [(p, r, n) for p in (7, 11, 13) for r in (1, 2, 3)
                     for n in (3, 4) if r < 3 or n == 3]
Q_SAMPLED_SHAPES = [(r, n) for r in (0, 1, 2, 3) for n in (3, 4) if r < 3 or n == 3]
# Over Q one rank-one check on (2, 4) or (3, 3) costs about a second and
# swings with the sizes of the sampled fractions; these shapes keep the
# U-operator at about a quarter of the pass without dominating it.
Q_RANK_SHAPES = ((0, 3), (0, 4), (1, 3), (1, 4), (2, 3))
SAMPLED_POINTS = 3        # points per quadric op
Z1_DRAWS = 6              # random source points per base-locus op


def gen_fp_sampled(seed, tiny=False):
    """Per shape: 4 quadric ops, the first with a rank-one check on its
    first point, and 3 base-locus ops, each on its own seeded algebra."""
    rng = random.Random(f"fp-sampled:{seed}")
    shapes = FP_SAMPLED_SHAPES[:2] if tiny else FP_SAMPLED_SHAPES
    specs = []
    for p, r, n in shapes:
        for kind, copies in (("quadric", 1 if tiny else 4), ("z1", 1 if tiny else 3)):
            for i in range(copies):
                specs.append({"kind": kind, "p": p, "r": r, "n": n,
                              "params": [rng.randrange(1, p) for _ in range(r)],
                              "b": [rng.randrange(1, p) for _ in range(n)],
                              "seed": rng.randrange(2 ** 31),
                              "rank_checks": 1 if i == 0 else 0})
    rng.shuffle(specs)
    return specs


def _q_b(rng, n):
    """Small nonzero integers b_1..b_n with the isotropic vector
    (1, e_2, ..., e_{n-1}, 1), e_i in {0, 1}: the sampler's box search
    then finds a base point after a bounded number of candidates."""
    while True:
        b = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(n - 1)]
        e = [1] + [rng.randrange(2) for _ in range(n - 2)]
        last = -sum(bi * ei for bi, ei in zip(b, e))
        if last:
            return b + [last]


def gen_q_sampled(seed, tiny=False):
    """Per shape: 15 quadric ops with transposition checks on every point;
    the first op of each shape in Q_RANK_SHAPES also runs one rank-one
    check."""
    rng = random.Random(f"q-sampled:{seed}")
    shapes = Q_SAMPLED_SHAPES[:2] if tiny else Q_SAMPLED_SHAPES
    specs = []
    for r, n in shapes:
        for i in range(2 if tiny else 15):
            specs.append({"kind": "quadric", "p": 0, "r": r, "n": n,
                          "params": [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)],
                          "b": _q_b(rng, n), "seed": rng.randrange(2 ** 31),
                          "rank_checks": 1 if i == 0 and (r, n) in Q_RANK_SHAPES else 0})
    rng.shuffle(specs)
    return specs


def _sampled_quadric_oracle(sweeps, in_z1, alg, spec):
    """Category of every sampled point, from the same public sampler: base
    points (in Z1), round trips (c_n != 0) and Z2 images (c_n = 0); the
    rank-one subsample is the non-base points among the first rank_checks."""
    pts = sweeps.sample_quadric_points(alg, SAMPLED_POINTS, spec["seed"])
    base = [in_z1(pt) for pt in pts]
    return {"scanned": SAMPLED_POINTS,
            "base_points": sum(base),
            "roundtrip": sum(1 for pt, z in zip(pts, base) if not z and pt.last),
            "z2_images": sum(1 for pt, z in zip(pts, base) if not z and not pt.last),
            "rank_one": sum(1 for z in base[:spec["rank_checks"]] if not z)}


def _verify_quadric_sampled(rep, expect):
    problems = list(rep.failures[:3])
    if rep.mode != "sampled":
        problems.append(f"mode {rep.mode}")
    if rep.scanned != expect["scanned"]:
        problems.append(f"scanned {rep.scanned}, requested {expect['scanned']}")
    c = rep.counts
    if c["roundtrip"] + c["z2_images"] + c["base_points"] != expect["scanned"]:
        problems.append("point accounting: roundtrip + z2_images + base_points != count")
    problems += _expect_equal(c, expect, ("base_points", "roundtrip", "z2_images", "rank_one"))
    if c["double_transpositions"] > c["transpositions"]:
        problems.append("more double transpositions than transpositions")
    return problems


def _z1_oracle(spec):
    """Cases sampled_z1_checks will test: seeded draws that are not all
    zero, plus two constructed members when the norm form is isotropic
    (over F_p: always for r >= 2, and for r = 1 iff the parameter a of
    <<a>> = <1, -a> is a square)."""
    rng = random.Random(spec["seed"])
    p, r, n = spec["p"], spec["r"], spec["n"]
    cases = 0
    for _ in range(Z1_DRAWS):
        coords = [rng.randrange(p) for _ in range((1 << r) * (n - 1))]
        cases += any(coords)
    isotropic = r >= 2 or (r == 1 and _is_square_mod(spec["params"][0], p))
    total = cases + (2 if isotropic else 0)
    return {"scanned": total, "checked": total}


def _verify_z1_sampled(rep, expect):
    problems = list(rep.failures[:3])
    if rep.scanned != expect["scanned"]:
        problems.append(f"scanned {rep.scanned}, expected {expect['scanned']}")
    problems += _expect_equal(rep.counts, expect, ("checked",))
    return problems


def build_sampled(specs):
    """Algebras (with basis caches where rank-one checks run) and ops."""
    from jordanquad import sweeps
    from jordanquad.birational import in_z1
    from jordanquad.cayley_dickson import CDAlgebra
    from jordanquad.jordan import JordanAlgebra
    from jordanquad.scalars import PrimeField, Rationals

    ops = []
    for spec in specs:
        fld = PrimeField(spec["p"]) if spec["p"] else Rationals()
        alg = JordanAlgebra(CDAlgebra(fld, spec["params"]), spec["b"])
        if spec["kind"] == "quadric":
            if spec["rank_checks"]:
                alg.basis()
            ops.append(Op(
                "quadric",
                lambda alg=alg, s=spec: sweeps.sampled_quadric_checks(
                    alg, count=SAMPLED_POINTS, seed=s["seed"],
                    rank_checks=s["rank_checks"]),
                _verify_quadric_sampled,
                lambda alg=alg, s=spec: _sampled_quadric_oracle(sweeps, in_z1, alg, s),
                SAMPLED_POINTS))
        else:
            expect = _z1_oracle(spec)
            ops.append(Op(
                "z1",
                lambda alg=alg, s=spec: sweeps.sampled_z1_checks(
                    alg, count=Z1_DRAWS, seed=s["seed"]),
                _verify_z1_sampled, lambda e=expect: e, expect["scanned"]))
    return ops


# ---------------------------------------------------------------------------
# fp-exhaustive: the mod-p sweep kernels

# (kind, p, r, n, split, copies); projective spaces of 2e4 - 2e5 points.
# Seven cheap sweeps, six middling ones and ten dear ones: the median and
# the 90th-percentile op fall inside groups of like cost, not on an edge.
EXHAUSTIVE_SHAPES = [
    ("z1", 31, 1, 3, True, 2), ("z1", 31, 1, 3, False, 1), ("z1", 37, 1, 3, False, 2),
    ("quadric", 13, 1, 3, True, 1), ("quadric", 13, 1, 3, False, 1),
    ("z1", 41, 1, 3, True, 2), ("quadric", 13, 0, 5, True, 4),
    ("quadric", 17, 1, 3, True, 1), ("quadric", 17, 1, 3, False, 1),
    ("quadric", 19, 1, 3, True, 1), ("quadric", 19, 1, 3, False, 1),
    ("quadric", 17, 0, 5, True, 1), ("z1", 53, 1, 3, False, 1),
    ("z1", 11, 1, 4, False, 2), ("z1", 5, 2, 3, True, 1), ("z1", 5, 1, 5, True, 1),
]
TINY_EXHAUSTIVE_SHAPES = [("quadric", 7, 1, 3, False, 1), ("z1", 7, 1, 4, True, 1)]


def gen_fp_exhaustive(seed, tiny=False):
    """Seeded doubling parameters (a square for split r = 1, a non-square
    for non-split) and seeded nonzero b on a fixed multiset of shapes."""
    rng = random.Random(f"fp-exhaustive:{seed}")
    specs = []
    for kind, p, r, n, split, copies in TINY_EXHAUSTIVE_SHAPES if tiny else EXHAUSTIVE_SHAPES:
        squares = sorted({x * x % p for x in range(1, p)})
        nonsquares = [x for x in range(1, p) if x not in squares]
        for _ in range(copies):
            params = [rng.randrange(1, p) for _ in range(r)]
            if r == 1:
                params[0] = rng.choice(squares if split else nonsquares)
            specs.append({"kind": kind, "p": p, "r": r, "n": n, "split": split,
                          "params": params,
                          "b": [rng.randrange(1, p) for _ in range(n)]})
    rng.shuffle(specs)
    return specs


def _exhaustive_expect(spec):
    """Counters the benchmark derives itself: the size of the projective
    space, the quadric's point count when its dimension N is odd
    ((p^{N-1} - 1)/(p - 1) whatever the coefficients), and an empty base
    locus when the norm form is anisotropic."""
    p, r, n = spec["p"], spec["r"], spec["n"]
    m = 1 << r
    if spec["kind"] == "quadric":
        N = m * (n - 1) + 1
        expect = {"scanned": _projective_size(p, N)}
        if N % 2:
            expect["on_quadric"] = _projective_size(p, N - 1)
        if not spec["split"]:
            expect["base_points"] = 0
    else:
        expect = {"scanned": _projective_size(p, m * (n - 1))}
        if not spec["split"]:
            expect["z1_points"] = 0
    return expect


def _verify_exhaustive(rep, expect):
    problems = list(rep.failures[:3])
    if rep.mode != "exhaustive":
        problems.append(f"mode {rep.mode}, expected exhaustive")
    if rep.space != expect["scanned"]:
        problems.append(f"space {rep.space}, expected {expect['scanned']}")
    want = ("scanned", "on_quadric", "base_points", "zslice_points",
            "roundtrip_checked") if rep.kind == "quadric" else ("scanned", "z1_points")
    if sorted(rep.expected) != sorted(want):
        problems.append(f"oracle counters {sorted(rep.expected)}, expected {sorted(want)}")
    problems += _expect_equal(rep.counts, rep.expected)
    problems += _expect_equal(rep.counts, expect)
    return problems


def build_exhaustive(specs):
    from jordanquad import sweeps
    from jordanquad.cayley_dickson import CDAlgebra
    from jordanquad.jordan import JordanAlgebra
    from jordanquad.scalars import PrimeField

    ops = []
    for spec in specs:
        fld = PrimeField(spec["p"])
        alg = JordanAlgebra(CDAlgebra(fld, spec["params"]), spec["b"])
        sweep = (sweeps.exhaustive_quadric_sweep if spec["kind"] == "quadric"
                 else sweeps.exhaustive_z1_sweep)
        expect = _exhaustive_expect(spec)
        ops.append(Op(spec["kind"], lambda alg=alg, f=sweep: f(alg),
                      _verify_exhaustive, lambda e=expect: e, expect["scanned"]))
    return ops


# ---------------------------------------------------------------------------
# invariants: quadform, motives, rootsys

STANDARD_RN = [(r, n) for r in (0, 1, 2) for n in range(3, 11)] + [(3, 3)]


def gen_invariants(seed, tiny=False):
    """Q Witt indices with known answers, Pfister-multiple divisibility,
    F_p classification against search, and the motive/root-system checks
    for every standard (r, n)."""
    rng = random.Random(f"invariants:{seed}")
    specs = []
    # Each hyperbolic plane costs one more trial division of the
    # discriminant; the 18 forms with k = 3 make the slowest tenth of the
    # ops one cluster, so op_p90_ms falls inside it rather than on an edge.
    witt_q_planes = [0, 1, 3] if tiny else [0] * 6 + [1] * 8 + [3] * 18
    for k in witt_q_planes:
        # k hyperbolic planes <a, -a> plus a definite part s1, s2, P of one
        # sign: the Witt index is exactly k.  P is a prime near 1e11, so the
        # square class of the discriminant, +-s1 s2 P, is near 1e12.
        sign = rng.choice((1, -1))
        s1, s2 = rng.sample((2, 3, 5, 7), 2)
        big = _next_prime(rng.randrange(10 ** 11, 10 ** 11 + 10 ** 9))
        coeffs = [sign * s1, sign * s2, sign * big]
        for _ in range(k):
            a = rng.randint(1, 30)
            coeffs += [a, -a]
        rng.shuffle(coeffs)
        specs.append({"kind": "witt-q", "coeffs": coeffs, "expect": k})
    for i in range(2 if tiny else 16):
        # <<-1,...,-1>> is round and represents every positive rational, so
        # phi (x) b splits as copies of +-phi: index 2^r min(#pos, #neg)
        r = 2 + i % 2
        b = [rng.choice((1, -1)) * _next_prime(rng.randrange(500, 1000)) * rng.randint(1, 3)
             for _ in range(2 + (i // 2) % 2)]
        pos = sum(1 for c in b if c > 0)
        specs.append({"kind": "witt-pfister", "r": r, "b": b,
                      "expect": (1 << r) * min(pos, len(b) - pos)})
    for i in range(2 if tiny else 25):
        p = (3, 5, 7, 11, 13)[i % 5]
        coeffs = [rng.randrange(1, p) for _ in range(2 + i % 8)]
        specs.append({"kind": "witt-fp", "p": p, "coeffs": coeffs,
                      "expect": _fp_witt_index(p, coeffs)})
    for r, n in STANDARD_RN[:2] if tiny else STANDARD_RN:
        specs.append({"kind": "motives", "r": r, "n": n})
        specs.append({"kind": "rootsys", "r": r, "n": n})
    rng.shuffle(specs)
    return specs


def _verify_value(got, expect):
    return [] if got == expect["value"] else [f"got {got!r}, expected {expect['value']!r}"]


def _verify_pfister(got, expect, r):
    problems = _verify_value(got, expect)
    if got % (1 << r):
        problems.append(f"Witt index {got} not divisible by 2^{r}")
    return problems


def _verify_fp_witt(got, expect):
    classified, searched = got
    problems = [] if classified == searched else [
        f"witt_index {classified} != witt_index_by_search {searched}"]
    return problems + _verify_value(searched, expect)


def _motives_op(motives, r, n):
    blowup = motives.verify_blowup(r, n)
    closed = motives.decompose_xj(r, n).profile()
    return blowup.equal, closed, motives.poincare_xj_recursive(r, n)


def _verify_motives(got, expect):
    equal, closed, recursive = got
    problems = [] if equal else ["blow-up identity does not balance"]
    if recursive != closed:
        problems.append("recursive profile != closed form")
    if not closed.is_palindromic():
        problems.append("X(J) profile not palindromic")
    if closed.total() != expect["euler"]:
        problems.append(f"profile total {closed.total()} != Weyl ratio {expect['euler']}")
    return problems


def _verify_rootsys(got, expect):
    items, euler = got
    problems = [f"{it.item}: {it.lhs} != {it.rhs}" for it in items if not it.ok]
    if not items:
        problems.append("no orbit line items")
    if euler != expect["total"]:
        problems.append(f"Weyl ratio {euler} != profile total {expect['total']}")
    return problems


def build_invariants(specs):
    from fractions import Fraction

    from jordanquad import motives, rootsys
    from jordanquad.quadform import (QuadForm, pfister, tensor, witt_index,
                                     witt_index_by_search)
    from jordanquad.scalars import PrimeField, Rationals

    Q = Rationals()
    ops = []
    for spec in specs:
        kind = spec["kind"]
        if kind == "witt-q":
            f = QuadForm(Q, tuple(Fraction(c) for c in spec["coeffs"]))
            ops.append(Op(kind, lambda f=f: witt_index(f), _verify_value,
                          lambda v=spec["expect"]: {"value": v}, 1))
        elif kind == "witt-pfister":
            r = spec["r"]
            f = tensor(pfister(Q, [-1] * r), QuadForm(Q, tuple(Fraction(c) for c in spec["b"])))
            ops.append(Op(kind, lambda f=f: witt_index(f),
                          lambda got, e, r=r: _verify_pfister(got, e, r),
                          lambda v=spec["expect"]: {"value": v}, 1))
        elif kind == "witt-fp":
            # starts from the prime, as `jordanquad witt --field Fp` does, so
            # PrimeField's primality test is on the timed path
            def fp_witt(p=spec["p"], coeffs=tuple(spec["coeffs"])):
                f = QuadForm(PrimeField(p), coeffs)
                return witt_index(f), witt_index_by_search(f)
            ops.append(Op(kind, fp_witt, _verify_fp_witt,
                          lambda v=spec["expect"]: {"value": v}, 1))
        elif kind == "motives":
            r, n = spec["r"], spec["n"]
            ops.append(Op(kind, lambda r=r, n=n: _motives_op(motives, r, n), _verify_motives,
                          lambda r=r, n=n: {"euler": rootsys.xj_euler_characteristic(r, n)}, 1))
        else:
            r, n = spec["r"], spec["n"]
            ops.append(Op(kind,
                          lambda r=r, n=n: (rootsys.check_orbit_dims(r, n),
                                            rootsys.xj_euler_characteristic(r, n)),
                          _verify_rootsys,
                          lambda r=r, n=n: {"total": motives.decompose_xj(r, n).profile().total()},
                          1))
    return ops


WORKLOADS = {
    "fp-sampled": (gen_fp_sampled, build_sampled),
    "q-sampled": (gen_q_sampled, build_sampled),
    "fp-exhaustive": (gen_fp_exhaustive, build_exhaustive),
    "invariants": (gen_invariants, build_invariants),
}
