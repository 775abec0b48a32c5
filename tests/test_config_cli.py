import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jordanquad import cli
from jordanquad.config import (ParseError, ValidationError, config_from_dict,
                               load_config, parse_config_text)


def write_config(tmp_path, text):
    path = tmp_path / "alg.toml"
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD = 'field = "Q"\nr = 2\na = [-1, -1]\nn = 3\nb = [1, 2, -3]\n'


def test_load_valid_config(tmp_path):
    alg = load_config(write_config(tmp_path, GOOD))
    assert alg.field.kind == "Q" and alg.cd.r == 2 and alg.n == 3


def test_config_defaults():
    alg = config_from_dict({"n": 3, "b": [1, 1, 1]})
    assert alg.field.kind == "Q" and alg.cd.r == 0 and alg.n == 3


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_config_text("just some words\n")
    with pytest.raises(ParseError):
        parse_config_text("a = [1, 2\n")


def test_config_hash_starts_a_comment_only_after_a_value():
    """Each line was cut at its first #, inside a JSON string too, so
    a = ["-1#"] was refused as a bad JSON value rather than a bad scalar."""
    text = 'r = 1  # note\n  # a = 1\n#\nn = 3 #no blank\nb = ["1", "1", "# 1"]\n'
    assert parse_config_text(text) == {"r": 1, "n": 3, "b": ["1", "1", "# 1"]}
    with pytest.raises(ValidationError,
                       match="^a: '-1#' is not an integer or a fraction like 1/2$"):
        config_from_dict(parse_config_text('r = 1\na = ["-1#"]\nn = 3\nb = [1, 1, -1]\n'))
    with pytest.raises(ParseError, match="^line 2: bad value for 'r': Extra data: "
                                         "line 1 column 3 \\(char 2\\)$"):
        parse_config_text("n = 3\nr = 1 2 # two values\n")


def test_validation_errors_name_keys():
    with pytest.raises(ValidationError, match="n"):
        config_from_dict({"r": 3, "a": [-1, -1, -1], "n": 4, "b": [1, 1, 1, 1]})
    with pytest.raises(ValidationError, match="p"):
        config_from_dict({"field": "Fp", "n": 3, "b": [1, 1, 1]})
    with pytest.raises(ValidationError, match="a"):
        config_from_dict({"r": 2, "a": [-1], "n": 3, "b": [1, 1, 1]})
    with pytest.raises(ValidationError, match="b"):
        config_from_dict({"r": 0, "a": [], "n": 3, "b": [1, 1]})
    with pytest.raises(ValidationError, match="unknown"):
        config_from_dict({"n": 3, "b": [1, 1, 1], "zz": 1})
    with pytest.raises(ValidationError, match="b"):
        config_from_dict({"n": 3, "b": [1, 0, 1]})


@pytest.mark.parametrize("text, key", [
    ('r = 0\nn = 3\nb = 5\n', "b"),
    ('r = 1\na = -1\nn = 3\nb = [1, 1, -1]\n', "a"),
    ('r = true\na = [-1]\nn = 3\nb = [1, 1, -1]\n', "r"),
], ids=["b-scalar", "a-scalar", "r-true"])
def test_config_scalar_for_a_list_or_bool_for_r_exits_2(capsys, tmp_path, text, key):
    """A JSON scalar where a list is due, or true for r, is one line and
    exit 2 from every command that reads a config."""
    with pytest.raises(ValidationError, match=f"^{key}:"):
        config_from_dict(parse_config_text(text))
    cfg = write_config(tmp_path, text)
    for argv in (["rank", "--config", cfg, "--elem", "[]"],
                 ["veronese", "map", "--config", cfg, "--point", '{"c": []}']):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith(f"error: {key}:") and err.count("\n") == 1, err


def test_fp_config(tmp_path):
    path = write_config(tmp_path, 'field = "Fp"\np = 7\nr = 1\na = [3]\nn = 3\nb = [1, 1, 6]\n')
    alg = load_config(path)
    assert alg.field.p == 7 and alg.cd.r == 1 and alg.n == 3


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_witt(capsys):
    code, out, _ = run_cli(capsys, "witt", "--field", "Q", "--form", "1,1,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4 and data["witt_index"] == 0
    assert data["signature"] == [4, 0]
    code, out, _ = run_cli(capsys, "witt", "--field", "Fp", "--p", "7",
                           "--form", "1,1,1,1")
    assert json.loads(out)["witt_index"] == 2


def test_cli_witt_large_prime(capsys):
    code, out, _ = run_cli(capsys, "witt", "--field", "Fp", "--p", str(2 ** 61 - 1),
                           "--form", "1,1")
    assert code == 0
    assert json.loads(out)["witt_index"] == 0   # -1 is not a square: p = 3 mod 4


def test_cli_witt_prime_beyond_primality_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "witt", "--field", "Fp",
                             "--p", "3317044064679887385961987", "--form", "1,1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "too large" in err


def test_cli_witt_q_coefficient_beyond_factor_limit_exits_2():
    """A 31-digit prime coefficient used to send factoring by trial division
    on for good; in a subprocess, so a hang fails by timing out."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "jordanquad.cli", "witt", "--field", "Q",
         "--form", "1,1000000000000000000000000000057"],
        capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: factor: 1000000000000000000000000000057 ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("witt", "--form", "1,2,3", "--p", "5"),
    ("witt", "--field", "Q", "--form", "1,2,3", "--p", "5"),
    ("algebra", "table", "--a", "-1", "--p", "5"),
])
def test_cli_p_without_field_fp_exits_2(capsys, argv):
    """--p over Q used to be ignored, with exit 0."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: p: only allowed") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("witt", "--form", "1,,2"), "error: --form: empty entry"),
    (("algebra", "table", "--r", "2", "--a", "1,,2"), "error: --a: empty entry"),
    (("witt", "--form", ","), "error: empty diagonal"),
])
def test_cli_empty_list_entry_exits_2(capsys, argv, message):
    """An empty entry in a comma-separated list was dropped, so these
    answered for <1, 2> and <<1, 2>> with exit 0; a list of nothing but
    commas is still the empty diagonal, and an empty --a still means r = 0."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "algebra", "table", "--a", "")
    assert code == 0 and json.loads(out)["r"] == 0


@pytest.mark.parametrize("argv, config", [
    (("witt", "--form", "1/0,1"), None),
    (("hilbert", "--a", "1/0", "--b", "1", "--place", "2"), None),
    (("witt", "--field", "Fp", "--p", "7", "--form", "1/0,1"), None),
    (("rank", "--elem", "[]"), 'r = 1\na = ["1/0"]\nn = 3\nb = [1, 1, -1]\n'),
], ids=["witt", "hilbert", "witt-fp", "config"])
def test_zero_denominator_exits_2_and_names_the_value(capsys, tmp_path, argv, config):
    """A zero denominator used to exit 2 with "Fraction(1, 0)", which does
    not say what is wrong; over F_p too, through the one string grammar."""
    if config:
        argv += ("--config", write_config(tmp_path, config))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith("'1/0' has a zero denominator\n") and err.count("\n") == 1, err


def test_cli_hilbert(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--a", "-1", "--b", "-1", "--place", "2")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run_cli(capsys, "hilbert", "--a", "2", "--b", "7", "--place", "7")
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "hilbert", "--a", "-1", "--b", "-1", "--place", "inf")
    assert out.strip() == "-1"


@pytest.mark.parametrize("place", ["9", "4", "1", "3317044064679887385961981"])
def test_cli_hilbert_non_prime_place_exits_2(capsys, place):
    """(3, 3) at the place 9 used to print 1, though 9 is no place of Q."""
    code, out, err = run_cli(capsys, "hilbert", "--a", "3", "--b", "3", "--place", place)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--place {place} is not a prime" in err or "too large" in err


def test_cli_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "4",
                           "--target", "quadric")
    assert code == 0
    data = json.loads(out)
    assert len(data["summands"]) == 5
    assert data["profile"] == [1] * 12


def test_cli_decompose_ascii(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "4",
                           "--target", "quadric", "--out", "ascii")
    assert code == 0
    assert out.count("o") == 12
    assert "R^2{5}" in out


def test_cli_decompose_svg_to_file(capsys, tmp_path):
    dest = tmp_path / "d.svg"
    code, out, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "4",
                           "--target", "quadric", "--out", "svg",
                           "--output", str(dest))
    assert code == 0
    assert dest.read_text().startswith("<svg")


def test_cli_decompose_json_to_file(capsys, tmp_path):
    """--output used to be read for ascii and svg only: the JSON went to
    stdout and no file was written."""
    dest = tmp_path / "d.json"
    code, out, _ = run_cli(capsys, "decompose", "--r", "1", "--n", "3",
                           "--output", str(dest))
    assert code == 0 and out == ""
    _, want, _ = run_cli(capsys, "decompose", "--r", "1", "--n", "3")
    assert dest.read_text(encoding="utf-8") == want and json.loads(want)["summands"]


def test_cli_profile(capsys):
    code, out, _ = run_cli(capsys, "profile", "--r", "2", "--n", "3", "--target", "xj")
    data = json.loads(out)
    assert data["profile"] == [1, 1, 2, 2, 2, 2, 1, 1]
    assert data["palindromic"] is True


def test_cli_invalid_r(capsys):
    code, _, err = run_cli(capsys, "decompose", "--r", "5", "--n", "3",
                           "--target", "xj")
    assert code == 2
    assert "r" in err


@pytest.mark.parametrize("argv", [
    ["profile", "--r", "4", "--n", "3"],
    ["decompose", "--r", "4", "--n", "3", "--target", "pfister-multiple"],
    ["diagram", "--r", "9" * 40, "--n", "4"],
    ["decompose", "--r", "3", "--n", "4", "--target", "quadric"],
    ["profile", "--r", "1", "--n", "2"],
])
def test_cli_decompose_targets_check_the_configuration(capsys, argv):
    """Every target takes r in 0..3, n >= 3 and n = 3 when r = 3, as the
    README says; the quadric and Pfister targets took any r, and a
    40-digit r raised OverflowError."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_deeply_nested_json_exits_2(capsys, tmp_path):
    """JSON nested past the parser's recursion limit raised RecursionError
    out of cli.run."""
    deep = "[" * 100000 + "]" * 100000
    cfg = write_config(tmp_path, 'field = "Q"\nr = 1\na = [-1]\nn = 3\nb = [1, 1, -1]\n')
    deep_cfg = tmp_path / "deep.toml"
    deep_cfg.write_text(f"n = 3\nb = {deep}\n", encoding="utf-8")
    for argv, msg in ((["rank", "--config", cfg, "--elem", deep], "nested too deeply"),
                      (["veronese", "map", "--config", cfg, "--point", deep], "nested too deeply"),
                      (["rank", "--config", str(deep_cfg), "--elem", "[]"], "line 2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1 and msg in err


def test_cli_orbits(capsys):
    code, out, _ = run_cli(capsys, "orbits", "dims", "--r", "2", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and len(data["items"]) >= 3


def test_cli_algebra_table(capsys):
    code, out, _ = run_cli(capsys, "algebra", "table", "--r", "2", "--a", "-1,-1")
    data = json.loads(out)
    assert data["dim"] == 4
    assert data["table"][1][2] == {"index": 3, "coef": "1"}
    assert data["norm_form"] == ["1", "1", "1", "1"]


@pytest.mark.parametrize("argv, golden", [
    (("--field", "Q", "--a", "1/2,-3,5"), "algebra_table_q.json"),
    (("--field", "Fp", "--p", "7", "--a", "3,5,6"), "algebra_table_f7.json"),
])
def test_cli_algebra_table_golden(capsys, argv, golden):
    """The whole r = 3 table, fractional and negative coefficients over Q
    and residues over F_7, byte for byte."""
    code, out, _ = run_cli(capsys, "algebra", "table", *argv)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")


def test_cli_veronese_map(capsys, tmp_path):
    cfg = write_config(tmp_path, GOOD)
    point = json.dumps({"c": [[1, 0, 0, 0], [0, 1, 0, 0]], "last": 1})
    code, out, _ = run_cli(capsys, "veronese", "map", "--config", cfg,
                           "--point", point)
    assert code == 0
    data = json.loads(out)
    assert data["defined"] and data["on_quadric"] and not data["in_z1"]
    # round trip through the CLI inverse
    code, out2, _ = run_cli(capsys, "veronese", "inverse", "--config", cfg,
                            "--point", json.dumps(data["image"]))
    back = json.loads(out2)
    assert back["defined"]
    assert back["point"]["c"] == [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    assert back["point"]["last"] == "1"


def test_cli_veronese_transpose(capsys, tmp_path):
    cfg = write_config(tmp_path, 'field = "Q"\nr = 0\na = []\nn = 3\nb = [1, 2, -3]\n')
    point = json.dumps({"c": [[1], [1]], "last": 1})
    code, out, _ = run_cli(capsys, "veronese", "transpose", "--config", cfg,
                           "--point", point)
    data = json.loads(out)
    assert data["defined"] and data["swapped_b"] == ["1", "-3", "2"]
    assert data["on_quadric_image"]


def test_cli_rank(capsys, tmp_path):
    cfg = write_config(tmp_path, GOOD)
    e11 = [[[1, 0, 0, 0], [0] * 4, [0] * 4],
           [[0] * 4, [0] * 4, [0] * 4],
           [[0] * 4, [0] * 4, [0] * 4]]
    code, out, _ = run_cli(capsys, "rank", "--config", cfg, "--elem",
                           json.dumps({"matrix": e11}))
    data = json.loads(out)
    assert data["rank_one"] is True and data["sharp_zero"] is True


def test_cli_rank_builds_the_config_algebra_once(capsys, monkeypatch, tmp_path):
    """load_config returns the algebra it built to check the file; rank
    used to build it a second time."""
    from jordanquad.jordan import JordanAlgebra

    built = []
    init = JordanAlgebra.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(JordanAlgebra, "__init__", counting_init)
    code, out, _ = run_cli(capsys, "rank", "--config", write_config(tmp_path, GOOD), "--elem",
                           json.dumps({"matrix": [[[1, 0, 0, 0], [0] * 4, [0] * 4],
                                                  [[0] * 4] * 3, [[0] * 4] * 3]}))
    assert code == 0 and json.loads(out)["rank_one"] is True
    assert len(built) == 1


def test_cli_rank_zero_diagonal(capsys, tmp_path):
    """A rank-one point of the split (3, 1, 3) algebra whose diagonal is
    zero, and the same point with x_22 = 1, which is not rank one."""
    cfg = write_config(tmp_path, 'field = "Fp"\np = 3\nr = 1\na = [1]\nn = 3\n'
                                 'b = [1, 2, 1]\n')
    x = [[[0, 0], [1, 1], [0, 0]],
         [[2, 1], [0, 0], [0, 0]],
         [[0, 0], [0, 0], [0, 0]]]
    for diag, want in ((0, True), (1, False)):
        x[2][2] = [diag, 0]
        code, out, _ = run_cli(capsys, "rank", "--config", cfg, "--elem",
                               json.dumps({"matrix": x}))
        assert code == 0
        assert json.loads(out) == {"rank_one": want, "sharp_zero": want}


def test_cli_verify_krashen(capsys):
    code, out, _ = run_cli(capsys, "verify", "krashen", "--n-range", "3..4")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and len(data["cases"]) == 6


def test_cli_verify_blowup_filtered(capsys):
    code, out, _ = run_cli(capsys, "verify", "blowup", "--r", "2",
                           "--n-range", "3..5")
    assert code == 0
    data = json.loads(out)
    assert data["ok"]
    assert all("r=2" in c["case"] for c in data["cases"])


@pytest.mark.parametrize("r", ["7", "-1", "4"])
def test_cli_verify_r_out_of_range(capsys, r):
    code, out, err = run_cli(capsys, "verify", "blowup", "--r", r)
    assert code == 2 and not out
    assert "argument --r: invalid choice" in err


@pytest.mark.parametrize("suite, r", [("krashen", "1"), ("witt", "0")])
def test_cli_verify_r_matching_no_case(capsys, suite, r):
    code, out, err = run_cli(capsys, "verify", suite, "--r", r)
    assert code == 2 and not out
    assert err == f"error: no {suite} case has r={r}\n"


@pytest.mark.parametrize("suite", ["witt", "birational", "z1"])
def test_cli_verify_n_range_rejected_where_unused(capsys, monkeypatch, suite):
    from jordanquad import verify as vmod

    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    code, out, err = run_cli(capsys, "verify", suite, "--n-range", "3..3")
    assert code == 2 and not out and not calls
    assert err == f"error: verify {suite} takes no --n-range\n"


def test_cli_verify_octonion_case_only_when_3_in_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "blowup", "--n-range", "4..4")
    assert code == 0
    cases = [c["case"] for c in json.loads(out)["cases"]]
    assert cases == [f"blowup r={r} n=4" for r in (0, 1, 2)]


@pytest.mark.parametrize("argv", [
    ["orbits", "dims", "--r", "2", "--n", "31"],
    ["decompose", "--r", "2", "--n", "31"],
    ["decompose", "--r", "1", "--n", "31", "--target", "pfister-multiple"],
    ["profile", "--r", "2", "--n", "31", "--target", "xj"],
    ["diagram", "--r", "1", "--n", "31", "--target", "z1"],
    ["verify", "euler", "--n-range", "3..31"],
    ["verify", "krashen", "--n-range", "31"],
])
def test_cli_n_above_max_n_exits_2(capsys, argv):
    """n runs up to motives.MAX_N = 30; one more is refused on one line."""
    from jordanquad import motives, rootsys
    assert motives.MAX_N == 30
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "30" in err
    with pytest.raises(ValueError, match="MAX_N"):
        rootsys.check_orbit_dims(2, 31)
    with pytest.raises(ValueError, match="MAX_N"):
        motives.decompose_xj(1, 31)


def test_config_n_above_max_n_exits_2(capsys, tmp_path):
    """A configuration file obeys the same bound on n as the command line:
    n = 30 is accepted, and rank on n = 31 stops at the config, on one
    line, before it reads the element."""
    from jordanquad import motives

    n = motives.MAX_N
    assert config_from_dict({"n": n, "b": [1] * n}).n == n
    cfg = write_config(tmp_path, f'field = "Q"\nr = 1\na = [-1]\nn = {n + 1}\n'
                                 f'b = {[1] * (n + 1)}\n')
    code, out, err = run_cli(capsys, "rank", "--config", cfg, "--elem", "[[[1, 0]]]")
    assert code == 2 and not out
    assert err.startswith("error: n: ") and err.count("\n") == 1 and str(n) in err


def test_cli_rank_at_max_n(capsys, tmp_path):
    """rank at n = MAX_N, r = 1 over Q: the image of c_i = (1, i mod 3),
    c_n = 1 with b all 1 is rank one, and the same matrix plus E_11 is
    not."""
    from jordanquad import motives
    from jordanquad.birational import ProjPointC, veronese

    n = motives.MAX_N
    cfg = write_config(tmp_path, f'field = "Q"\nr = 1\na = [-1]\nn = {n}\nb = {[1] * n}\n')
    alg = load_config(cfg)
    assert alg.field.kind == "Q" and alg.cd.r == 1 and alg.n == n
    x = veronese(ProjPointC(alg, [[1, i % 3] for i in range(1, n)], 1)).elem
    matrix = [[[str(c) for c in e.coords] for e in row] for row in x.entries]
    for want in (True, False):
        code, out, _ = run_cli(capsys, "rank", "--config", cfg, "--elem",
                               json.dumps({"matrix": matrix}))
        assert code == 0
        assert json.loads(out) == {"rank_one": want, "sharp_zero": None}
        matrix[0][0][0] = str(Fraction(matrix[0][0][0]) + 1)


@pytest.mark.parametrize("suite", ["krashen", "blowup"])
def test_cli_verify_empty_n_range_exits_2(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--n-range", "5..3")
    assert code == 2 and not out
    assert err == "error: --n-range 5..3 is empty\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", "blowup", "--n-range", "3..x"), "--n-range 3..x: expected N or LO..HI"),
    (("verify", "blowup", "--n-range", "3...5"), "--n-range 3...5: expected N or LO..HI"),
    (("verify", "krashen", "--n-range", "3.."), "--n-range 3..: expected N or LO..HI"),
    (("hilbert", "--a", "1", "--b", "1", "--place", "2.5"),
     "--place 2.5: expected a prime or inf"),
], ids=["n-range-letter", "n-range-three-dots", "n-range-open", "place-fraction"])
def test_cli_bad_integer_option_names_the_option(capsys, argv, message):
    """A value that is not an integer gets one line naming the option and
    the form it takes, not int()'s text."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("suite, argv, option", [
    ("witt", ["--budget", "5", "--seed", "9"], "--budget"),
    ("blowup", ["--samples", "3"], "--samples"),
    ("krashen", ["--seed", "9"], "--seed"),
])
def test_cli_verify_sweep_option_rejected_where_unused(capsys, monkeypatch, suite,
                                                       argv, option):
    from jordanquad import verify as vmod

    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    code, out, err = run_cli(capsys, "verify", suite, *argv)
    assert code == 2 and not out and not calls
    assert err == f"error: verify {suite} takes no {option}\n"


def test_run_suite_refuses_an_option_the_suite_does_not_take(monkeypatch):
    """run_suite owns the rule: witt with a budget used to run all of its
    cases and ignore the budget."""
    from jordanquad import verify as vmod

    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    with pytest.raises(ValueError, match="^verify witt takes no --budget$"):
        vmod.run_suite("witt", budget=5)
    with pytest.raises(ValueError, match="^verify all takes no --limit$"):
        vmod.run_suite("all", limit=5)
    assert not calls


@pytest.mark.parametrize("kwargs, message", [
    ({"samples": 0}, "--samples must be at least 1"),
    ({"samples": 10 ** 4 + 1}, "--samples must be at most 10000"),
    ({"budget": -1}, "--budget must be at least 0"),
    ({"budget": 10 ** 8 + 1}, "--budget must be at most 100000000"),
    ({"n_range": range(3, 32)}, "n: must be an integer with 3 <= n <= MAX_N = 30, got 31"),
], ids=["samples-0", "samples-above-max", "budget-below-0", "budget-above-max", "n-31"])
@pytest.mark.parametrize("suite", ["birational", "all"])
def test_run_suite_checks_its_values_before_any_suite_runs(monkeypatch, kwargs, message, suite):
    """run_suite owns the ranges of samples and budget and the n-range: a
    library call with samples=0 used to return ok with no point checked,
    and an n past MAX_N ran the suites.  The value checks come before the
    suite-option check, so birational with an n-range gets the n's text."""
    from jordanquad import sweeps
    from jordanquad import verify as vmod

    assert (sweeps.MAX_SAMPLES, sweeps.MAX_BUDGET) == (10 ** 4, 10 ** 8)
    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    with pytest.raises(ValueError) as info:
        vmod.run_suite(suite, **kwargs)
    assert str(info.value) == message and not calls


def test_report_without_cases_is_not_ok():
    """all() of no cases is true, so an empty n-range read as verified."""
    from jordanquad import verify as vmod

    assert vmod.VerificationReport("x").ok is False
    report = vmod.run_suite("blowup", n_range=range(5, 4))
    assert not report.cases and report.ok is False


@pytest.mark.parametrize("suite, argv", [
    ("birational", ["--samples", "0"]),
    ("z1", ["--budget", "1", "--samples", "0"]),
    ("all", ["--samples", "-3"]),
])
def test_cli_verify_samples_below_1_exits_2(capsys, monkeypatch, suite, argv):
    """No samples means no point checked, which must not read as verified."""
    from jordanquad import verify as vmod

    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    code, out, err = run_cli(capsys, "verify", suite, *argv)
    assert code == 2 and not out and not calls
    assert err == "error: --samples must be at least 1\n"


@pytest.mark.parametrize("suite, argv", [
    ("birational", ["--budget", "-1"]),
    ("z1", ["--budget", "-5", "--samples", "3"]),
    ("all", ["--budget", "-1"]),
])
def test_cli_verify_budget_below_0_exits_2(capsys, monkeypatch, suite, argv):
    """A negative budget used to run as 'never exhaustive' without a word."""
    from jordanquad import verify as vmod

    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    code, out, err = run_cli(capsys, "verify", suite, *argv)
    assert code == 2 and not out and not calls
    assert err == "error: --budget must be at least 0\n"


def test_cli_verify_budget_beyond_ceiling_exits_2():
    """A budget of 10^20 asked for sweeps of about 10^12 points and ran
    with no bound; in a subprocess, so a hang fails by timing out."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "jordanquad.cli", "verify", "birational",
         "--budget", "100000000000000000000"],
        capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: --budget must be at most 100000000\n"


@pytest.mark.parametrize("suite", ["birational", "z1", "all"])
def test_cli_verify_budget_ceiling(capsys, monkeypatch, suite):
    from jordanquad import sweeps
    from jordanquad import verify as vmod

    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    code, out, err = run_cli(capsys, "verify", suite, "--budget", str(sweeps.MAX_BUDGET + 1))
    assert code == 2 and not out and not calls
    assert err == f"error: --budget must be at most {sweeps.MAX_BUDGET}\n"
    code, _, _ = run_cli(capsys, "verify", suite, "--budget", str(sweeps.MAX_BUDGET))
    assert code == 0 and calls["z1" if suite == "all" else suite]["budget"] == sweeps.MAX_BUDGET


@pytest.mark.parametrize("suite", ["birational", "z1", "all"])
def test_cli_verify_samples_ceiling(capsys, monkeypatch, suite):
    """A case with no more quadric points than --samples sweeps them all,
    so 10^40 samples ran sweeps far past MAX_BUDGET with no bound."""
    from jordanquad import sweeps
    from jordanquad import verify as vmod

    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    for samples in (sweeps.MAX_SAMPLES + 1, 10 ** 40):
        code, out, err = run_cli(capsys, "verify", suite, "--samples", str(samples))
        assert code == 2 and not out and not calls
        assert err == f"error: --samples must be at most {sweeps.MAX_SAMPLES}\n"
    code, _, _ = run_cli(capsys, "verify", suite, "--samples", str(sweeps.MAX_SAMPLES))
    assert code == 0 and calls["z1" if suite == "all" else suite]["samples"] == sweeps.MAX_SAMPLES


def test_cli_verify_budget_0_is_valid(capsys, monkeypatch):
    from jordanquad import verify as vmod

    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    code, _, _ = run_cli(capsys, "verify", "z1", "--budget", "0")
    assert code == 0 and calls["z1"]["budget"] == 0


def test_cli_verify_all_forwards_one_option(capsys, monkeypatch):
    from jordanquad import sweeps
    from jordanquad import verify as vmod

    real = dict(vmod.SUITES)
    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))
    code, _, _ = run_cli(capsys, "verify", "all", "--budget", "5")
    assert code == 0
    ran = {name: _effective(real[name], kw) for name, kw in calls.items()}
    sweep = {"budget": 5, "samples": sweeps.DEFAULT_SAMPLES, "seed": sweeps.DEFAULT_SEED}
    assert ran["birational"] == ran["z1"] == sweep
    assert ran["witt"] == {}
    assert ran["blowup"] == {"n_range": range(3, 11)}


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    from jordanquad import verify as vmod

    def fake_suite():
        rep = vmod.VerificationReport("blowup")
        rep.add("synthetic", False)
        return rep

    monkeypatch.setitem(vmod.SUITES, "blowup", fake_suite)
    code, out, _ = run_cli(capsys, "verify", "blowup")
    assert code == 1


def _with_filename(exc, filename):
    exc.filename = filename
    return exc


@pytest.mark.parametrize("exc, message", [
    (OSError(), "OSError"),
    (TimeoutError(), "TimeoutError"),
    (_with_filename(OSError(), "form.toml"), "OSError: form.toml"),
    (OSError(2, "No such file or directory", "form.toml"),
     "[Errno 2] No such file or directory: 'form.toml'"),
])
def test_cli_error_without_text_names_its_class(capsys, monkeypatch, exc, message):
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_witt", raising)
    code, out, err = run_cli(capsys, "witt", "--field", "Q", "--form", "1,1")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_cli_output_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "4",
                         "--target", "quadric", "--out", "svg")
    _, out2, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "4",
                         "--target", "quadric", "--out", "svg")
    assert out1 == out2
    _, v1, _ = run_cli(capsys, "verify", "krashen", "--n-range", "3..3")
    _, v2, _ = run_cli(capsys, "verify", "krashen", "--n-range", "3..3")
    assert v1 == v2


def test_cli_bad_json_point(capsys, tmp_path):
    cfg = write_config(tmp_path, GOOD)
    code, _, err = run_cli(capsys, "veronese", "map", "--config", cfg,
                           "--point", "{nope}")
    assert code == 2 and err


@pytest.mark.parametrize("action", ["map", "transpose"])
@pytest.mark.parametrize("point", ["[1]", '{"c": 5}'])
def test_cli_point_shape_rejected(capsys, tmp_path, action, point):
    cfg = write_config(tmp_path, GOOD)
    code, out, err = run_cli(capsys, "veronese", action, "--config", cfg,
                             "--point", point)
    assert code == 2 and not out
    assert err == 'error: point must be an object with a list "c"\n'


def test_cli_base_point_reported(capsys, tmp_path):
    cfg = write_config(tmp_path,
                       'field = "Fp"\np = 7\nr = 2\na = [1, 1]\nn = 3\nb = [1, 1, 2]\n')
    point = json.dumps({"c": [[1, 1, 0, 0], [1, 1, 0, 0]], "last": 0})
    code, out, _ = run_cli(capsys, "veronese", "map", "--config", cfg,
                           "--point", point)
    data = json.loads(out)
    assert code == 0 and data["defined"] is False and data["in_z1"] is True


def test_float_scalars_rejected(capsys, tmp_path):
    with pytest.raises(ValidationError, match="float"):
        config_from_dict({"n": 3, "b": [0.1, 2, -3]})
    cfg = write_config(tmp_path, GOOD.replace("b = [1, 2, -3]", "b = [0.1, 2, -3]"))
    code, out, err = run_cli(capsys, "rank", "--config", cfg, "--elem", "[]")
    assert code == 2 and not out and "float" in err


def test_config_refuses_what_the_algebra_refuses():
    """A config is checked by building its algebra: b_1 = 7 is zero in F_7
    and 9 is no prime, though the config checks of old let both pass."""
    with pytest.raises(ValidationError, match="^b:"):
        config_from_dict({"field": "Fp", "p": 7, "n": 3, "b": [7, 1, 1]})
    with pytest.raises(ValidationError, match="^p:"):
        config_from_dict({"field": "Fp", "p": 9, "n": 3, "b": [1, 1, 1]})


@pytest.mark.parametrize("key, raw, argv", [
    ("r", {"r": 5, "a": [1] * 5, "n": 3, "b": [1] * 3}, ["decompose", "--r", "5", "--n", "3"]),
    ("n", {"n": 31, "b": [1] * 31}, ["decompose", "--r", "0", "--n", "31"]),
    ("n", {"r": 3, "a": [-1] * 3, "n": 4, "b": [1] * 4}, ["decompose", "--r", "3", "--n", "4"]),
    ("field", {"field": "X", "n": 3, "b": [1] * 3}, ["witt", "--field", "X", "--form", "1"]),
    ("p", {"field": "Fp", "n": 3, "b": [1] * 3}, ["witt", "--field", "Fp", "--form", "1"]),
    ("p", {"field": "Q", "p": 5, "n": 3, "b": [1] * 3},
     ["witt", "--field", "Q", "--p", "5", "--form", "1"]),
    ("p", {"field": "Fp", "p": 9, "n": 3, "b": [1] * 3},
     ["witt", "--field", "Fp", "--p", "9", "--form", "1"]),
    ("a", {"r": 2, "a": ["-1"], "n": 3, "b": [1, 1, 1]},
     ["algebra", "table", "--r", "2", "--a", "-1"]),
    ("r", {"r": -1, "n": 3, "b": [1] * 3}, ["algebra", "table", "--r", "-1"]),
    ("r", {"r": 4, "n": 3, "b": [1] * 3}, ["algebra", "table", "--r", "4"]),
], ids=["r-5", "n-31", "r-3-n-4", "field-X", "Fp-without-p", "Q-with-p", "p-9", "a-length",
        "table-r--1", "table-r-4"])
def test_config_and_command_line_print_one_text_per_rule(capsys, key, raw, argv):
    """Each rule has one owner, so a config file and the command line say
    the same for the same value, led by its key.  `algebra table --r` meets
    the r rule before the length of --a."""
    with pytest.raises(ValidationError, match=f"^{key}:") as info:
        config_from_dict(raw)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: {info.value}\n"


def _effective(fn, kwargs):
    """The arguments fn(**kwargs) runs with, its defaults filled in."""
    bound = inspect.signature(fn).bind(**kwargs)
    bound.apply_defaults()
    return bound.arguments


def _recording_suites(vmod, calls):
    def stub(name):
        def suite(**kwargs):
            calls[name] = kwargs
            rep = vmod.VerificationReport(name)
            rep.add(f"{name} stub", True)
            return rep
        return suite
    return {name: stub(name) for name in vmod.SUITES}


def test_cli_verify_all_forwards_options(capsys, monkeypatch):
    from jordanquad import verify as vmod

    real = dict(vmod.SUITES)
    calls = {}
    monkeypatch.setattr(vmod, "SUITES", _recording_suites(vmod, calls))

    def ran():
        return {name: _effective(real[name], kw) for name, kw in calls.items()}

    # by default each suite runs with its own defaults, so the output
    # matches calling every suite with no arguments
    code, _, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert ran() == {name: _effective(fn, {}) for name, fn in real.items()}

    calls.clear()
    code, out, _ = run_cli(capsys, "verify", "all", "--budget", "5", "--samples", "7",
                           "--seed", "3", "--n-range", "3..4")
    assert code == 0
    sweep = {"budget": 5, "samples": 7, "seed": 3}
    assert ran() == {"blowup": {"n_range": range(3, 5)}, "profiles": {"n_range": range(3, 5)},
                     "krashen": {"n_range": range(3, 5)}, "euler": {"n_range": range(3, 5)},
                     "orbits": {"n_range": range(3, 5)}, "witt": {},
                     "birational": sweep, "z1": sweep}
    assert json.loads(out)["suite"] == "+".join(real)


def test_cli_verify_birational_small_budget(capsys):
    """A conic over F_7 has 8 points: asking for 10 samples sweeps it."""
    code, out, err = run_cli(capsys, "verify", "birational", "--budget", "5",
                             "--samples", "10")
    assert code == 0, err
    cases = [c["case"] for c in json.loads(out)["cases"]]
    assert "roundtrip p=7 r=0 n=3 [exhaustive]" in cases


def test_cli_verify_sampling_stall_exits_2(capsys):
    # 63 of the 64 points of a quadric surface over F_7: only 49 lie off
    # the tangent plane at the sampling base point, so sampling stalls
    code, out, err = run_cli(capsys, "verify", "birational", "--budget", "5",
                             "--samples", "63")
    assert code == 2 and not out
    assert err.startswith("error: sampling stalled") and err.count("\n") == 1


R1 = 'field = "Q"\nr = 1\na = [-1]\nn = 3\nb = [1, 1, 1]\n'
Z2 = [0, 0]


@pytest.mark.parametrize("matrix", [
    [[[1, 0], Z2], [Z2, Z2]],                          # 2 x 2
    [[[1, 0], Z2, Z2]] * 4,                            # too many rows
    [[[1, 0], Z2, Z2], [Z2, Z2], [Z2, Z2, Z2]],        # ragged row
    [[[1, 0], Z2, Z2], [Z2, Z2, Z2], 7],               # row not a list
    5,
    "abc",
])
@pytest.mark.parametrize("command", [("rank", "--elem"),
                                     ("veronese", "inverse", "--point")])
def test_cli_elem_shape_rejected(capsys, tmp_path, command, matrix):
    cfg = write_config(tmp_path, R1)
    code, out, err = run_cli(capsys, *command[:-1], "--config", cfg, command[-1],
                             json.dumps({"matrix": matrix}))
    assert code == 2 and not out
    assert err == "error: matrix must be 3 x 3\n"


def test_cli_elem_without_matrix_key_rejected(capsys, tmp_path):
    """An object without "matrix" is a matrix of the wrong shape, not a
    missing key."""
    cfg = write_config(tmp_path, R1)
    code, out, err = run_cli(capsys, "rank", "--config", cfg, "--elem", '{"nomatrix": 1}')
    assert code == 2 and not out
    assert err == "error: matrix must be 3 x 3\n"


def test_cli_json_float_and_bool_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, GOOD)
    e11 = [[[1, 0, 0, 0], [0] * 4, [0] * 4], [[0] * 4] * 3, [[0] * 4] * 3]
    bad = [("veronese", "map", "--point",
            {"c": [[1, 0, 0, 0], [0, 1, 0, 0]], "last": 0.5}, "float"),
           ("veronese", "map", "--point",
            {"c": [[1, 0, 0, 0], [0, 1.5, 0, 0]], "last": 1}, "float"),
           ("veronese", "map", "--point",
            {"c": [[1, 0, 0, 0], [0, 1, 0, 0]], "last": True}, "bool"),
           ("rank", "--elem",
            {"matrix": [[[1.0, 0, 0, 0]] + e11[0][1:]] + e11[1:]}, "float")]
    for *args, flag, data, kind in bad:
        code, out, err = run_cli(capsys, *args, "--config", cfg, flag,
                                 json.dumps(data))
        assert code == 2 and not out
        assert f"({kind} is not a scalar)" in err and err.count("\n") == 1
    # ints and rational strings still parse
    code, out, _ = run_cli(capsys, "veronese", "map", "--config", cfg, "--point",
                           json.dumps({"c": [[1, 0, 0, 0], ["1/2", 1, 0, 0]],
                                       "last": "3/4"}))
    assert code == 0 and json.loads(out)["defined"]
