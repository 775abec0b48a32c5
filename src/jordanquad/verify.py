"""Batch verification suites with uniform pass/fail reports.

Each suite returns a VerificationReport whose cases carry enough payload
(lhs/rhs, counters) to see what was actually compared.  The CLI `verify`
subcommand drives these and exits 0 only if every case passes.
"""

import inspect
from dataclasses import dataclass, field as _field
from fractions import Fraction

from . import motives, rootsys, sweeps
from .cayley_dickson import CDAlgebra
from .jordan import JordanAlgebra
from .quadform import (QuadForm, pfister, tensor, witt_index,
                       witt_index_by_search)
from .scalars import PrimeField, Rationals


@dataclass
class CaseResult:
    case_id: str
    ok: bool
    detail: dict = _field(default_factory=dict)

    def as_dict(self):
        return {"case": self.case_id, "ok": self.ok, "detail": self.detail}


@dataclass
class VerificationReport:
    suite: str
    cases: list = _field(default_factory=list)

    @property
    def ok(self):
        """Every case passed, and there is one: no case checks nothing."""
        return bool(self.cases) and all(c.ok for c in self.cases)

    def add(self, case_id, ok, **detail):
        self.cases.append(CaseResult(case_id, bool(ok), detail))

    def as_dict(self):
        return {"suite": self.suite, "ok": self.ok,
                "cases": [c.as_dict() for c in sorted(self.cases, key=lambda c: c.case_id)]}


STANDARD_RS = (0, 1, 2)


def standard_configs(n_range=range(3, 11)):
    """(r, n) for r in STANDARD_RS and n in n_range, then the octonion (3, 3)
    when 3 is in n_range."""
    configs = [(r, n) for r in STANDARD_RS for n in n_range]
    if 3 in n_range:
        configs.append((3, 3))
    return configs


def blowup_suite(n_range=range(3, 11)):
    """The blow-up identity, one case per standard configuration."""
    rep = VerificationReport("blowup")
    for r, n in standard_configs(n_range):
        b = motives.verify_blowup(r, n)
        rep.add(f"blowup r={r} n={n}", b.equal,
                lhs=b.lhs.coefficients(), rhs=b.rhs.coefficients())
    return rep


def profiles_suite(n_range=range(3, 11)):
    """Recursion agreement and palindromicity of the X(J) profiles."""
    rep = VerificationReport("profiles")
    for r, n in standard_configs(n_range):
        prof = motives.decompose_xj(r, n).profile()
        rec = motives.poincare_xj_recursive(r, n)
        rep.add(f"recursion r={r} n={n}", prof == rec,
                closed=prof.coefficients(), recursive=rec.coefficients())
        rep.add(f"palindrome r={r} n={n}", prof.is_palindromic(),
                profile=prof.coefficients())
    return rep


def krashen_suite(n_range=range(3, 9)):
    """Literal reading must report its imbalance; balanced variant must
    hold; the right-hand side totals 2 n (n-1)."""
    rep = VerificationReport("krashen")
    for n in n_range:
        k = motives.verify_krashen(n)
        rep.add(f"krashen literal-imbalance n={n}", not k.literal_equal,
                lhs_total=k.lhs_literal.total(), rhs_total=k.rhs.total())
        rep.add(f"krashen variant-balances n={n}", k.variant_equal)
        rep.add(f"krashen rhs-total n={n}", k.rhs.total() == 2 * n * (n - 1),
                rhs_total=k.rhs.total())
    return rep


def euler_suite(n_range=range(3, 11)):
    """X(J) profile totals equal the Weyl-order ratios of the matching
    homogeneous spaces."""
    rep = VerificationReport("euler")
    for r, n in standard_configs(n_range):
        total = motives.decompose_xj(r, n).profile().total()
        chi = rootsys.xj_euler_characteristic(r, n)
        rep.add(f"euler r={r} n={n}", total == chi, profile_total=total, weyl_ratio=chi)
    return rep


def orbits_suite(n_range=range(3, 11)):
    rep = VerificationReport("orbits")
    for r, n in standard_configs(n_range):
        for item in rootsys.check_orbit_dims(r, n):
            rep.add(f"orbit r={r} n={n}: {item.item}", item.ok,
                    lhs=item.lhs, rhs=item.rhs)
    return rep


WITT_B_SUITE = [
    (1, 1), (1, -1), (1, 3), (-1, -2), (2, -5),
    (1, 1, 1), (1, 1, -7), (2, -3, 5),
    (1, 1, 1, 1), (1, 2, -3, -6), (1, 1, 1, -7),
    (1, 1, 1, 1, -7), (2, 3, 5, -30, 1),
]


def witt_divisibility_suite():
    """For anisotropic phi = <<-1,-1>> and <<-1,-1,-1>>, the Witt index of
    phi tensor b is divisible by 2^r."""
    rep = VerificationReport("witt-divisibility")
    Q = Rationals()
    for r in (2, 3):
        phi = pfister(Q, [-1] * r)
        for coeffs in WITT_B_SUITE:
            b = QuadForm(Q, tuple(Fraction(c) for c in coeffs))
            iw = witt_index(tensor(phi, b))
            rep.add(f"divisibility r={r} b={list(coeffs)}", iw % (1 << r) == 0,
                    witt_index=iw, modulus=1 << r)
    return rep


WITT_FP_PRIMES = (3, 5, 7, 11, 13)
WITT_FP_MAX_DIM = 9


def witt_fp_oracle_suite():
    """Classification-formula Witt indices agree with the exhaustive
    vector-search decomposition for every square-class representative form
    of each dimension."""
    rep = VerificationReport("witt-fp-oracle")
    for p in WITT_FP_PRIMES:
        fld = PrimeField(p)
        u = fld.least_nonresidue()
        for dim in range(1, WITT_FP_MAX_DIM + 1):
            for k in range(dim + 1):
                coeffs = tuple([1] * (dim - k) + [u] * k)
                f = QuadForm(fld, coeffs)
                fast = witt_index(f)
                slow = witt_index_by_search(f)
                rep.add(f"witt p={p} dim={dim} nonres={k}", fast == slow,
                        classified=fast, searched=slow)
    return rep


BIRATIONAL_PRIMES = (7, 11)
BIRATIONAL_NS = (3, 4)


def birational_suite(budget=sweeps.DEFAULT_BUDGET, samples=sweeps.DEFAULT_SAMPLES,
                     seed=sweeps.DEFAULT_SEED):
    """Round-trip/identity sweeps over F_p (exhaustive within budget,
    sampled beyond)."""
    rep = VerificationReport("birational")
    for p in BIRATIONAL_PRIMES:
        for r in STANDARD_RS:
            for n in BIRATIONAL_NS:
                sw = sweeps.roundtrip_suite_case(p, r, n, budget=budget,
                                                 samples=samples, seed=seed)
                rep.add(f"roundtrip p={p} r={r} n={n} [{sw.mode}]", sw.ok,
                        counts=sw.counts, expected=sw.expected,
                        failures=sw.failures)
    return rep


def z1_locus_suite(budget=sweeps.DEFAULT_BUDGET, samples=sweeps.DEFAULT_SAMPLES,
                   seed=sweeps.DEFAULT_SEED):
    """Base-locus predicate equivalences: exhaustive on small spaces,
    sampled + constructed members elsewhere, anisotropic emptiness over
    F_p (exhaustive) and over Q (box search)."""
    rep = VerificationReport("z1-locus")
    cases = [(7, 1, 3, True), (11, 1, 3, True), (7, 1, 3, False),
             (5, 1, 4, True), (3, 2, 3, True), (3, 2, 4, True),
             (7, 2, 3, True), (3, 3, 3, True)]
    for p, r, n, split in cases:
        sw = sweeps.z1_suite_case(p, r, n, budget=budget, samples=samples,
                                  seed=seed, split=split)
        label = "split" if split else "nonsplit"
        rep.add(f"z1 p={p} r={r} n={n} {label} [{sw.mode}]", sw.ok,
                counts=sw.counts, expected=sw.expected, failures=sw.failures)
    # anisotropic norms over Q: bounded box exhaustion finds nothing
    Q = Rationals()
    for r, bound in ((1, 2), (2, 1), (3, 1)):
        alg = JordanAlgebra(CDAlgebra(Q, [-1] * r), sweeps.standard_b(Q, 3))
        found = sweeps.z1_rational_box_search(alg, bound=bound)
        rep.add(f"z1 empty over Q r={r} bound={bound}", found == 0, found=found)
    return rep


SUITES = {
    "blowup": blowup_suite,
    "profiles": profiles_suite,
    "krashen": krashen_suite,
    "euler": euler_suite,
    "orbits": orbits_suite,
    "witt": lambda: _merge(witt_divisibility_suite(), witt_fp_oracle_suite()),
    "birational": birational_suite,
    "z1": z1_locus_suite,
}


def _merge(*reports):
    out = VerificationReport("+".join(r.suite for r in reports))
    for r in reports:
        out.cases.extend(r.cases)
    return out


# suite -> the keyword arguments it accepts
SUITE_KWARGS = {name: tuple(inspect.signature(fn).parameters)
                for name, fn in SUITES.items()}


def run_suite(name, **kwargs):
    """Run one suite, or every suite for "all".  Before any suite runs, it
    checks, in this order and each with a ValueError in the command line's
    words: samples in 1..sweeps.MAX_SAMPLES ("--samples must be at least
    1"), budget in 0..sweeps.MAX_BUDGET, every n of n_range by
    motives.check_rn(0, n); then that a named suite takes each keyword
    (see SUITE_KWARGS), and "all" that some suite does ("verify witt takes
    no --budget").  Under "all" each suite receives the kwargs it takes."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    for key, low, high in (("samples", 1, sweeps.MAX_SAMPLES), ("budget", 0, sweeps.MAX_BUDGET)):
        value = kwargs.get(key, low)
        if value < low:
            raise ValueError(f"--{key} must be at least {low}")
        if value > high:
            raise ValueError(f"--{key} must be at most {high}")
    for n in kwargs.get("n_range", ()):
        motives.check_rn(0, n)
    names = list(SUITES) if name == "all" else [name]
    takes = set().union(*(SUITE_KWARGS[k] for k in names))
    for k in kwargs:
        if k not in takes:
            raise ValueError(f"verify {name} takes no --{k.replace('_', '-')}")
    return _merge(*(SUITES[k](**{a: v for a, v in kwargs.items() if a in SUITE_KWARGS[k]})
                    for k in names))
