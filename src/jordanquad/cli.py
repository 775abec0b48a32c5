"""Command-line front end.

Subcommands: decompose, profile, diagram, verify, witt, hilbert, veronese,
rank, orbits, algebra.  Output is deterministic JSON (sorted keys) unless
an ascii/svg rendering is requested.  Exit codes: 0 success/verified,
1 verification failure, 2 invalid input.
"""

import argparse
import json
import re
import sys

from . import diagram, motives, rootsys, verify
from .birational import (ProjPointC, ProjPointJ, in_z1, in_z2, on_quadric,
                         transposition_map, veronese, veronese_inverse)
from .config import composition_algebra, load_config
from .errors import BasePointError, SamplingError
from .quadform import QuadForm, hilbert_symbol, invariants, witt_index
from .scalars import Rationals, field_from_spec, is_prime

TARGETS = {
    "quadric": motives.decompose_neighbour_quadric,
    "xj": motives.decompose_xj,
    "z1": motives.decompose_z1,
    "pfister-multiple": motives.decompose_pfister_multiple,
}


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(obj):
    sys.stdout.write(_json_text(obj))


def _scalar(tok):
    if isinstance(tok, (bool, float)):
        raise ValueError(f"bad scalar {tok!r} ({type(tok).__name__} is not a scalar)")
    return Rationals().element(str(tok))


def _scalar_list(text, option):
    """The entries of a comma-separated option value, as strings for the
    field to parse.  A value of commas and blanks alone is the empty list;
    an empty entry among others is an error, not a scalar left out."""
    entries = [t.strip() for t in str(text).split(",")]
    if not any(entries):
        return []
    if not all(entries):
        raise ValueError(f"{option}: empty entry in {text!r}")
    return entries


def _field_from_args(args):
    return field_from_spec(args.field, getattr(args, "p", None))


def _cd_coords(cd, data):
    """A composition-algebra element from a JSON list (or bare scalar when
    dim C = 1)."""
    if not isinstance(data, list):
        data = [data]
    return cd.element([_scalar(x) for x in data])


def _json(text):
    """json.loads, refusing a value nested too deeply for the parser as bad
    input rather than letting its RecursionError escape."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _point_from_json(alg, data):
    if not (isinstance(data, dict) and isinstance(data.get("c"), list)):
        raise ValueError('point must be an object with a list "c"')
    cparts = [_cd_coords(alg.cd, blk) for blk in data["c"]]
    return ProjPointC(alg, cparts, _scalar(data.get("last", 0)))


def _point_to_json(pt):
    return {"c": [[str(x) for x in c.coords] for c in pt.cparts],
            "last": str(pt.last)}


def _elem_from_json(alg, data):
    rows = data.get("matrix") if isinstance(data, dict) else data
    if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
        rows = [[_cd_coords(alg.cd, e) for e in row] for row in rows]
    return alg.element(rows)


def _elem_to_json(elem):
    return {"matrix": [[[str(x) for x in e.coords] for e in row]
                       for row in elem.entries]}


def _decomposition(args):
    motives.check_rn(args.r, args.n)
    target = TARGETS[args.target]
    return target(args.r, args.n)


def cmd_decompose(args):
    expr = _decomposition(args)
    if args.out == "json":
        text = _json_text(expr.as_dict())
    else:
        text = diagram.render_diagram(expr, args.out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_profile(args):
    prof = _decomposition(args).profile()
    _emit({"profile": prof.coefficients(), "total": prof.total(),
           "multiset": prof.as_multiset(), "palindromic": prof.is_palindromic()})
    return 0


def cmd_diagram(args):
    args.out = args.format
    return cmd_decompose(args)


def cmd_witt(args):
    fld = _field_from_args(args)
    f = QuadForm(fld, tuple(_scalar_list(args.form, "--form")))
    inv = invariants(f)
    out = inv.as_dict()
    out["witt_index"] = witt_index(f)
    _emit(out)
    return 0


def cmd_hilbert(args):
    try:
        place = args.place if args.place == "inf" else int(args.place)
    except ValueError:
        raise ValueError(f"--place {args.place}: expected a prime or inf") from None
    if place != "inf" and not is_prime(place):
        raise ValueError(f"--place {place} is not a prime")
    print(hilbert_symbol(_scalar(args.a), _scalar(args.b), place))
    return 0


def cmd_verify(args):
    given = {k: getattr(args, k) for k in ("n_range", "budget", "samples", "seed")
             if getattr(args, k) is not None}
    if "n_range" in given:
        given["n_range"] = _parse_range(given["n_range"])
    report = verify.run_suite(args.suite, **given)
    data = report.as_dict()
    if args.r is not None:
        wanted = f"r={args.r} "
        data["cases"] = [c for c in data["cases"] if wanted in c["case"] + " "]
        if not data["cases"]:
            raise ValueError(f"no {args.suite} case has r={args.r}")
        data["ok"] = all(c["ok"] for c in data["cases"])
    _emit(data)
    return 0 if data["ok"] else 1


def _parse_range(spec):
    lo, dots, hi = spec.partition("..")
    try:
        r = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"--n-range {spec}: expected N or LO..HI") from None
    if not r:
        raise ValueError(f"--n-range {spec} is empty")
    return r


def cmd_veronese(args):
    alg = load_config(args.config)
    data = _json(args.point)
    if args.action == "map":
        pt = _point_from_json(alg, data)
        out = {"on_quadric": on_quadric(pt), "in_z1": in_z1(pt)}
        try:
            img = veronese(pt)
            out["defined"] = True
            out["image"] = _elem_to_json(img.elem)
            out["in_z2"] = in_z2(img)
        except BasePointError:
            out["defined"] = False
        _emit(out)
        return 0
    if args.action == "inverse":
        pj = ProjPointJ(_elem_from_json(alg, data))
        out = {"in_z2": in_z2(pj)}
        try:
            pt = veronese_inverse(pj)
            out["defined"] = True
            out["point"] = _point_to_json(pt)
            out["on_quadric"] = on_quadric(pt)
            out["in_z1"] = in_z1(pt)
        except BasePointError:
            out["defined"] = False
        _emit(out)
        return 0
    pt = _point_from_json(alg, data)
    out = {"on_quadric": on_quadric(pt)}
    try:
        img = transposition_map(pt)
        out["defined"] = True
        out["point"] = _point_to_json(img)
        out["swapped_b"] = [str(x) for x in img.algebra.b]
        out["on_quadric_image"] = on_quadric(img)
    except BasePointError:
        out["defined"] = False
    _emit(out)
    return 0


def cmd_rank(args):
    alg = load_config(args.config)
    elem = _elem_from_json(alg, _json(args.elem))
    out = {"rank_one": elem.is_rank_one()}
    if alg.n == 3:
        out["sharp_zero"] = elem.adjoint_sharp().is_zero()
    else:
        out["sharp_zero"] = None
    _emit(out)
    return 0


def cmd_orbits(args):
    items = rootsys.check_orbit_dims(args.r, args.n)
    _emit({"r": args.r, "n": args.n, "ok": all(i.ok for i in items),
           "items": [i.as_dict() for i in items]})
    return 0 if all(i.ok for i in items) else 1


def cmd_algebra(args):
    fld = _field_from_args(args)
    params = _scalar_list(args.a, "--a")
    cd = composition_algebra(fld, len(params) if args.r is None else args.r, params)
    _emit({"r": cd.r, "dim": cd.dim, "params": [str(x) for x in cd.params],
           "norm_form": [str(c) for c in cd.norm_form.coeffs],
           "table": cd.table_json()})
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="jordanquad",
                                description="Exact verification toolkit for "
                                "rank-one geometry of reduced Jordan algebras "
                                "and motive profile identities.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_rn(sp):
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--target", choices=sorted(TARGETS), default="quadric")

    sp = sub.add_parser("decompose", help="motive decomposition of a target")
    add_rn(sp)
    sp.add_argument("--out", choices=("json", "ascii", "svg"), default="json")
    sp.add_argument("--output", help="write the output to this path")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("profile", help="Tate profile of a decomposition")
    add_rn(sp)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("diagram", help="render a decomposition diagram")
    add_rn(sp)
    sp.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_diagram)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    sp.add_argument("--r", type=int, choices=range(4))
    sp.add_argument("--n-range", dest="n_range")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("witt", help="invariants and Witt index of a diagonal form")
    sp.add_argument("--field", default="Q", metavar="{Q,Fp}")
    sp.add_argument("--p", type=int)
    sp.add_argument("--form", required=True, help="comma-separated diagonal")
    sp.set_defaults(func=cmd_witt)

    sp = sub.add_parser("hilbert", help="Hilbert symbol over Q")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--place", required=True, help="an odd prime, 2, or inf")
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("veronese", help="evaluate the rank-one map")
    sp.add_argument("action", choices=("map", "inverse", "transpose"))
    sp.add_argument("--config", required=True)
    sp.add_argument("--point", required=True, help="JSON point/matrix data")
    sp.set_defaults(func=cmd_veronese)

    sp = sub.add_parser("rank", help="rank-one test for a Jordan element")
    sp.add_argument("--config", required=True)
    sp.add_argument("--elem", required=True, help="JSON matrix")
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("orbits", help="dimension line items")
    sp.add_argument("action", choices=("dims",))
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("algebra", help="composition-algebra tables")
    sp.add_argument("action", choices=("table",))
    sp.add_argument("--r", type=int)
    sp.add_argument("--a", default="")
    sp.add_argument("--field", default="Q", metavar="{Q,Fp}")
    sp.add_argument("--p", type=int)
    sp.set_defaults(func=cmd_algebra)

    return p


_DASH_VALUE_FLAGS = ("--a", "--b", "--form")


def _preprocess_argv(argv):
    """Fold `--a -1,-1` style values (leading dash) into `--a=-1,-1` so
    argparse does not mistake them for options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if re.fullmatch(r"-[0-9][0-9,/\-\s]*", nxt):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def run(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_preprocess_argv(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, KeyError, OSError, SamplingError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


def _message(exc):
    """The text of exc, or for one raised without text (an OSError() or a
    TimeoutError(), perhaps given a file name) its class and file."""
    if isinstance(exc, OSError) and exc.strerror is None and exc.filename is not None:
        return f"{type(exc).__name__}: {exc.filename}"
    return str(exc) or type(exc).__name__


def entry():
    sys.exit(run())


if __name__ == "__main__":
    sys.exit(run())
