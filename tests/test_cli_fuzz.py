"""Fuzz the CLI: argv drawn from the documented subcommands, with hostile
values mixed into every option.  Each input must get an answer or a
one-line refusal: exit 0, 1 or 2 and never a traceback."""

import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jordanquad import cli
from jordanquad.scalars import MR_BOUND

HOSTILE = ["", " ", "0", "-1", "-7", "1e3", "1e10000000", "0.5", "1/0", "nan", "inf", "-inf",
           "2.5",
           "9" * 40, "-" + "9" * 40, "0x10", "3..", "..", "5..3", "{", "[1,",
           "null", "[]", "{}", '{"c": []}', '"x"', "true", "\x00", "é",
           "[" * 100000 + "]" * 100000]


def values(*good):
    """One of the good values, or a hostile one."""
    return st.one_of(st.sampled_from(good), st.sampled_from(HOSTILE))


def options(required=None, **optional):
    """Every required option and a subset of the optional ones, each with
    its drawn value, as argv tokens."""
    required = required or {}

    def tokens(names):
        return st.tuples(*(opts[k].map(lambda v, k=k: [k, v]) for k in names)).map(
            lambda pairs: [tok for pair in pairs for tok in pair])

    opts = {**required, **optional}
    subsets = (st.lists(st.sampled_from(sorted(optional)), unique=True) if optional
               else st.just([]))
    return subsets.flatmap(lambda names: tokens([*required, *names]))


# primes the modulus check accepts, where a cost linear in p would show
LARGE_PRIMES = ("1000003", "2147483647")


def field_options(*primes):
    """No field, --field alone, or --field Fp with --p: --p is drawn only
    together with Fp, since it is refused over Q and would stop the example
    before the Q path."""
    return st.one_of(st.just([]), values("Q", "Fp").map(lambda f: ["--field", f]),
                     values(*primes).map(lambda p: ["--field", "Fp", "--p", p]))


R = values("0", "1", "2", "3")
N = values("3", "4", "5", "30", "31")
TARGET = {"--target": values("quadric", "xj", "z1", "pfister-multiple")}
POINT = values('{"c": [[1, 0], [0, 1]], "last": 0}', '{"c": [[1, 1], [1, 1]], "last": "1/2"}',
               '{"c": [[0, 0], [0, 0]], "last": 1}', '{"c": [1, 2], "last": 3}',
               '{"c": [[1.5, 0], [0, 1]], "last": 0}')
MATRIX = values("[[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]",
                '{"matrix": [[[1, 0], [1, 0], [0, 0]], [[1, 0], [1, 0], [0, 0]], '
                '[[0, 0], [0, 0], [0, 0]]]}', "[[1, 0, 0], [0, 0, 0], [0, 0, 0]]",
                '{"matrix": [[1]]}')

# verify takes only options that keep it quick: an n-range for the motive
# suites, a small budget and few samples for the sweep suites
VERIFY = st.one_of(
    st.tuples(st.sampled_from(["blowup", "profiles", "krashen", "euler", "orbits"]),
              options({"--n-range": values("3", "3..4", "4..5", "30..31")},
                      **{"--r": values("0", "1", "2")})),
    st.tuples(st.sampled_from(["birational", "z1"]),
              options({"--budget": values("0", "50", "2000"), "--samples": values("1", "2")},
                      **{"--seed": values("0", "5")})),
).map(lambda t: ["verify", t[0], *t[1]])


def argv_strategy(config):
    cfg = values(config, "missing.toml")
    return st.one_of(
        options({"--r": R, "--n": N}, **TARGET, **{"--out": values("json", "ascii", "svg")}).map(
            lambda a: ["decompose", *a]),
        options({"--r": R, "--n": N}, **TARGET).map(lambda a: ["profile", *a]),
        options({"--r": R, "--n": N}, **TARGET, **{"--format": values("ascii", "svg")}).map(
            lambda a: ["diagram", *a]),
        VERIFY,
        st.tuples(options({"--form": values("1,1,1", "1,-1", "-1,-1,-1,-1,-7", "3,0,5",
                                            "0,1,1", "1,0")}),
                  field_options("3", "7", "9", "2147483659", *LARGE_PRIMES)).map(
            lambda t: ["witt", *t[0], *t[1]]),
        options({"--a": values("-1", "2", "3/4"), "--b": values("-1", "5", "-10"),
                 "--place": values("inf", "2", "3", "5", "9")}).map(lambda a: ["hilbert", *a]),
        st.tuples(values("map", "inverse", "transpose"),
                  options({"--config": cfg, "--point": POINT})).map(
            lambda t: ["veronese", t[0], *t[1]]),
        options({"--config": cfg, "--elem": MATRIX}).map(lambda a: ["rank", *a]),
        options({"--r": values("0", "2", "3"), "--n": values("3", "5", "31")}).map(
            lambda a: ["orbits", "dims", *a]),
        st.tuples(options(**{"--r": values("0", "1", "3"),
                             "--a": values("-1", "-1,-1", "1,2,3,4", "0,1,1", "1,0")}),
                  field_options("5", "15", *LARGE_PRIMES)).map(
            lambda t: ["algebra", "table", *t[0], *t[1]]),
    )


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "alg.cfg"
    path.write_text('field = "Q"\nr = 1\na = [-1]\nn = 3\nb = [1, 1, -1]\n', encoding="utf-8")
    return str(path)


def test_cli_fuzz(config, capsys):
    @given(argv=argv_strategy(config))
    @example(argv=["witt", "--form", "1,1,1", "--field", "Fp", "--p", "2147483647"])
    @example(argv=["witt", "--form", "0,1,1", "--field", "Fp", "--p", "1000003"])
    @example(argv=["algebra", "table", "--a", "-1,-1", "--field", "Fp", "--p", "2147483647"])
    @example(argv=["algebra", "table", "--a", "1,0", "--field", "Fp", "--p", "1000003"])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(argv):
        t0 = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, (argv, err)
        if code == 2:
            assert err.count("\n") <= 1 or err.startswith("usage:"), (argv, err)
        assert elapsed < 1.0, (argv, elapsed)

    check()


# The keys of a config file, each with its good value and hostile ones: a
# field that is not one or Q with p, p = 9, past MR_BOUND or missing, a
# bool or float r, a float n, a b_i divisible by p, a "#" inside a string,
# and an unknown key.  None leaves the key out.
CONFIG_VALUES = {
    "field": ("Fp", ["Q", "R"]),
    "p": (7, [None, 9, MR_BOUND + 6]),
    "r": (1, [True, 1.0]),
    "a": ([-1], [["-1#"]]),
    "n": (3, [3.0]),
    "b": ([1, 1, -1], [[7, 1, 1], ["1/2", "# 2", 3]]),
    "zz": (None, [1]),
}
GOOD_CONFIG = {key: good for key, (good, _) in CONFIG_VALUES.items()}
CONFIG_COMMANDS = [
    ["rank", "--elem", "[[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], "
     "[[0, 0], [0, 0], [0, 0]]]"],
    ["veronese", "map", "--point", '{"c": [[1, 0], [0, 1]], "last": 0}'],
]


def config_text(values):
    return "".join(f"{key} = {json.dumps(v)}\n" for key, v in values.items() if v is not None)


def test_cli_fuzz_hostile_config_files(tmp_path_factory, capsys):
    """rank and veronese map on config files with good and hostile values:
    the good file answers with exit 0, each hostile value alone is refused
    with exit 2 and one line, and any drawn mix gives one or the other."""
    path = tmp_path_factory.mktemp("fuzz") / "hostile.cfg"

    def check(values, command):
        path.write_text(config_text(values), encoding="utf-8")
        code = cli.run([*command[:-2], "--config", str(path), *command[-2:]])
        out, err = capsys.readouterr()
        assert code == 0 or (code == 2 and not out and err.startswith("error: ")
                             and err.count("\n") == 1), (values, command, code, err)
        return code

    for command in CONFIG_COMMANDS:
        assert check(GOOD_CONFIG, command) == 0, command
        for key, (_, hostile) in CONFIG_VALUES.items():
            for value in hostile:
                assert check({**GOOD_CONFIG, key: value}, command) == 2, (key, value)

    @given(values=st.fixed_dictionaries({key: st.one_of(st.just(good), st.sampled_from(hostile))
                                         for key, (good, hostile) in CONFIG_VALUES.items()}),
           command=st.sampled_from(CONFIG_COMMANDS))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def fuzz(values, command):
        check(values, command)

    fuzz()


def test_decimal_and_exponent_scalars_exit_2_at_once(tmp_path, capsys):
    """A scalar is an integer or a fraction: a decimal, or an exponent that
    Fraction would take seconds to expand, is refused in an option and in
    a config file, with one line and within a second."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text('field = "Q"\nr = 0\na = []\nn = 3\nb = ["1e10000000", 2, -3]\n',
                   encoding="utf-8")
    for argv in (["witt", "--field", "Q", "--form", "0.1,1"],
                 ["hilbert", "--a", "1e10000000", "--b", "3", "--place", "5"],
                 ["rank", "--config", str(cfg), "--elem", "[]"]):
        t0 = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 2 and not out and err.count("\n") == 1, (argv, err)
        assert elapsed < 1.0, (argv, elapsed)
