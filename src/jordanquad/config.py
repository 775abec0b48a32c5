"""Algebra configuration files.

Simple key-value text (one `key = value` per line, values as JSON
literals, # comments).  Keys: field ("Q" or "Fp"), p (odd prime, Fp only),
r (0..3), a (list of r nonzero scalars), n (3..motives.MAX_N), b (list of
n nonzero scalars).  Scalars may be integers or strings like "1/2"; floats
are rejected.
"""

import json
from dataclasses import dataclass

from .cayley_dickson import CDAlgebra
from .jordan import JordanAlgebra
from .motives import MAX_N
from .scalars import Rationals, field_from_spec


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

    def validated(self):
        if self.field not in ("Q", "Fp"):
            raise ValidationError(f"field: expected 'Q' or 'Fp', got {self.field!r}")
        if self.field == "Fp" and self.p is None:
            raise ValidationError("p: required when field = \"Fp\"")
        if self.field == "Q" and self.p is not None:
            raise ValidationError("p: only allowed when field = \"Fp\"")
        if isinstance(self.r, bool) or not isinstance(self.r, int) or not 0 <= self.r <= 3:
            raise ValidationError(f"r: must be 0..3, got {self.r!r}")
        a = self.a if self.a is not None else []
        if not isinstance(a, list):
            raise ValidationError(f"a: expected a list of {self.r} entries, got {a!r}")
        if len(a) != self.r:
            raise ValidationError(f"a: expected {self.r} entries, got {len(a)}")
        if not isinstance(self.n, int) or not 3 <= self.n <= MAX_N:
            raise ValidationError(f"n: must be an integer with 3 <= n <= MAX_N = {MAX_N}, "
                                  f"got {self.n!r}")
        if self.r == 3 and self.n != 3:
            raise ValidationError("n: must be 3 when r=3")
        b = self.b
        if not isinstance(b, list) or len(b) != self.n:
            raise ValidationError(f"b: expected a list of {self.n} entries")
        for key, vals in (("a", a), ("b", b)):
            for x in vals:
                try:
                    zero = Rationals().element(x) == 0
                except (TypeError, ValueError, ZeroDivisionError) as exc:
                    raise ValidationError(f"{key}: bad scalar {x!r} ({exc})") from exc
                if zero:
                    raise ValidationError(f"{key}: entries must be nonzero")
        return self

    def algebra(self):
        self.validated()
        fld = field_from_spec(self.field, self.p)
        try:
            cd = CDAlgebra(fld, [fld.element(x) for x in (self.a or [])])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"a: {exc}") from exc
        try:
            return JordanAlgebra(cd, [fld.element(x) for x in self.b])
        except (ValueError, ZeroDivisionError) as exc:
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
    known = {"field", "p", "r", "a", "n", "b"}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}")
    cfg = AlgebraConfig(field=raw.get("field", "Q"), p=raw.get("p"),
                        r=raw.get("r", 0), a=raw.get("a"),
                        n=raw.get("n", 3), b=raw.get("b"))
    return cfg.validated()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(parse_config_text(fh.read()))
