"""Algebra configuration files.

Simple key-value text (one `key = value` per line, values as JSON
literals; # starts a comment at the start of a line or after a value).
Keys, with their DEFAULTS: field ("Q" or "Fp"), p (odd prime, Fp only),
r (0..3), a (list of r nonzero scalars), n (3..motives.MAX_N), b (list of
n nonzero scalars).  Scalars may be integers or strings like "1/2", not
floats.

`load_config` and `config_from_dict` return the JordanAlgebra of the
config, built once, which checks it.  The config checks only its keys and
that b is a list of n entries.  Every other rule has one owner:
`motives.check_rn` for r and n, `scalars.field_from_spec` for field and
p, `composition_algebra` for a (a list of r entries that the CDAlgebra
constructor takes, after `motives.check_r`'s rule on r) and the
JordanAlgebra constructor for the entries of b.  A refusal is a
ValidationError with the owner's text, led by its key ("a:" and "b:" for
the constructors').  `algebra table` calls `composition_algebra` too, so
the command line prints the same text.
"""

import json

from .cayley_dickson import CDAlgebra
from .jordan import JordanAlgebra
from .motives import check_r, check_rn
from .scalars import field_from_spec

DEFAULTS = {"field": "Q", "p": None, "r": 0, "a": None, "n": 3, "b": None}


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def composition_algebra(field, r, a):
    """The CDAlgebra over field with doubling parameters a, which must be a
    list of r entries for an r that motives.check_r takes, or
    ValidationError led by "r:" or "a:"."""
    try:
        check_r(r)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if not isinstance(a, list) or len(a) != r:
        raise ValidationError(f"a: expected a list of {r} entries, got {a!r}")
    try:
        return CDAlgebra(field, a)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"a: {exc}") from exc


def parse_config_text(text):
    """{key: value} of config text.  A # starts a comment only at the start
    of a line or after a value, so a # inside a JSON string is part of it;
    anything else after a value is a ParseError."""
    raw = {}
    decoder = json.JSONDecoder()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            data, end = decoder.raw_decode(value)
            rest = value[end:].lstrip()
            if rest and not rest.startswith("#"):
                raise json.JSONDecodeError("Extra data", value, len(value) - len(rest))
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nested too deeply for the parser
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        raw[key] = data
    return raw


def config_from_dict(raw):
    """The JordanAlgebra of parsed config data, or ValidationError."""
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}")
    cfg = {**DEFAULTS, **raw}
    try:
        fld = field_from_spec(cfg["field"], cfg["p"])
        check_rn(cfg["r"], cfg["n"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    cd = composition_algebra(fld, cfg["r"], [] if cfg["a"] is None else cfg["a"])
    b = cfg["b"]
    if not isinstance(b, list) or len(b) != cfg["n"]:
        raise ValidationError(f"b: expected a list of {cfg['n']} entries, got {b!r}")
    try:
        return JordanAlgebra(cd, b)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"b: {exc}") from exc


def load_config(path):
    """The JordanAlgebra of the config file at path (see config_from_dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(parse_config_text(fh.read()))
