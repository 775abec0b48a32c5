"""Algebra configuration files.

Simple key-value text (one `key = value` per line, values as JSON
literals, # comments).  Keys: field ("Q" or "Fp"), p (odd prime, Fp only),
r (0..3), a (list of r nonzero scalars), n (3..motives.MAX_N), b (list of
n nonzero scalars).  Scalars may be integers or strings like "1/2"; floats
are rejected.

A config checks only its own shape: no unknown key, and a and b lists of
r and n entries.  Every other rule has one owner, which config_from_dict
reaches by building the algebra once: `motives.check_rn` for r and n,
`scalars.field_from_spec` for field and p, and the CDAlgebra and
JordanAlgebra constructors for the entries of a and b (scalars of the
field, and nonzero).  A refusal becomes a ValidationError with the
owner's text, which starts with its key; a constructor's is put under
"a:" or "b:".  The command line reaches the same owners, so it prints
the same text for the same value.
"""

import json
from dataclasses import dataclass, fields

from .cayley_dickson import CDAlgebra
from .jordan import JordanAlgebra
from .motives import check_rn
from .scalars import field_from_spec


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    pass


@dataclass
class AlgebraConfig:
    field: str = "Q"
    p: int = None
    r: int = 0
    a: list = None
    n: int = 3
    b: list = None

    def algebra(self):
        """The Jordan algebra of this configuration, or ValidationError."""
        try:
            fld = field_from_spec(self.field, self.p)
            check_rn(self.r, self.n)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        a = self.a if self.a is not None else []
        for key, vals, size in (("a", a, self.r), ("b", self.b, self.n)):
            if not isinstance(vals, list) or len(vals) != size:
                raise ValidationError(f"{key}: expected a list of {size} entries, got {vals!r}")
        try:
            cd = CDAlgebra(fld, a)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"a: {exc}") from exc
        try:
            return JordanAlgebra(cd, self.b)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"b: {exc}") from exc


def parse_config_text(text):
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            raw[key] = json.loads(value.strip())
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nested too deeply for the parser
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return raw


def config_from_dict(raw):
    """The AlgebraConfig of parsed config data, checked by building its
    algebra."""
    unknown = set(raw) - {f.name for f in fields(AlgebraConfig)}
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}")
    cfg = AlgebraConfig(**raw)
    cfg.algebra()
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(parse_config_text(fh.read()))
