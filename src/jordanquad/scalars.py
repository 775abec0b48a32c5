"""Exact scalar arithmetic over Q and over odd prime fields F_p.

Scalars over Q are plain ``fractions.Fraction`` values (always canonically
reduced).  Scalars over F_p are ``FpElem`` wrappers around a residue in
[0, p); the wrapper exists so that generic code can use ordinary arithmetic
operators over either field.  Characteristic 2 is rejected: everything
downstream divides by 2.

Both field classes also convert between scalars and plain values, for
arithmetic that runs below the wrappers (the products of cayley_dickson and
jordan).  Plain values are integers over a denominator, so both fields run
the same integer arithmetic: ``unwrap`` gives a sequence of scalars as
``(ints, den)``, the residues over 1 on F_p, the numerators brought over
the lcm of the denominators on Q; ``value`` gives one scalar, after
coercing it into the field, as a ``(num, den)`` pair; ``reduce`` brings
integers to canonical form (mod p over F_p; unchanged over Q) for zero
tests; and ``wrap(ints, den)`` builds each scalar once, ``FpElem(p, v)``
or ``Fraction(v, den)``.  A rational result thus pays one gcd per output
coordinate instead of one per product and sum.  ``projective(ints)`` gives
the canonical integers of the projective point of a vector, the same for
every nonzero multiple of it.

Square classes get canonical representatives: over F_p either 1 or a fixed
least non-residue, over Q a square-free integer with sign.  Discriminants
and Hilbert-symbol bookkeeping rely on these canonical forms.  Every
residue decision mod an odd prime in the package is ``is_residue`` (Euler's
criterion); every non-residue is ``least_nonresidue``, searched once per p.

The square classes over Q, and the places of the Hasse invariants in
quadform, come from ``factor``: trial division by the primes below 2^10,
then Pollard-Brent rho, with every prime proved by the deterministic
Miller-Rabin ``is_prime``.  Both refuse what they cannot prove: an integer
at or above ``MR_BOUND`` for ``is_prime``, one whose part free of the small
primes is that large for ``factor``.
"""

import functools
import itertools
import math
import re
from fractions import Fraction

from .errors import FieldMismatchError


# Miller-Rabin with the first k of these 13 bases decides primality for
# every n below the k-th bound, the least strong pseudoprime to those k
# bases (Jaeschke 1993; Sorenson and Webster 2015), and all 13 below MR_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_PROVEN = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
              3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
              3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
              3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461, MR_BOUND)


def is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n >= MR_BOUND, where
    these bases no longer prove primality.  The bases are the primes up to
    41, so below 43^2 a number none of them divides is prime; above, only
    the bases its bound in _MR_PROVEN needs are run (5 near 10^11)."""
    if n >= MR_BOUND:
        raise ValueError(f"is_prime: {n} is too large to decide "
                         f"(the limit is {MR_BOUND})")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, bound in zip(_MR_BASES, _MR_PROVEN):
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True


def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n, q)))
    return tuple(itertools.compress(range(n), sieve))


# Trial division covers the primes below this bound; a cofactor with no
# such prime below its square is 1 or a prime.
_SMALL_BOUND = 1 << 10
_SMALL_PRIMES = _primes_below(_SMALL_BOUND)


def factor(n):
    """Prime factorization of a positive integer, as {prime: exponent} in
    increasing prime order.

    Trial division by the primes below 2^10, then Brent's variant of
    Pollard's rho (Brent 1980) on what is left, each part proved prime by
    ``is_prime``.  The increments c = 1, 2, ... are fixed, so the result
    and its cost are deterministic.  A cofactor at or above ``MR_BOUND``,
    where ``is_prime`` proves nothing, raises ValueError.  The worst case
    below the limit is a semiprime just under ``MR_BOUND`` with both primes
    near its square root: 40 of them took 0.2-3.2 s each, median 0.9 s, on
    a shared 2-core x86-64 VM.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"factor: expected a positive integer, got {n!r}")
    out = {}
    m = n
    for q in _SMALL_PRIMES:
        if q * q > m:
            break
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
    if m >= MR_BOUND:
        raise ValueError(f"factor: {n} is too large to factor (its cofactor "
                         f"{m} is not below the limit {MR_BOUND})")
    # every part below is free of the small primes, so one below the
    # bound squared is prime
    parts = [m] if m > 1 else []
    large = []
    while parts:
        m = parts.pop()
        if m < _SMALL_BOUND ** 2 or is_prime(m):
            large.append(m)
        else:
            d = _rho_divisor(m)
            parts += (d, m // d)
    for q in sorted(large):
        out[q] = out.get(q, 0) + 1
    return out


def _rho_divisor(n):
    """A proper divisor of the composite n: Brent's cycle search on
    x -> x^2 + c mod n, taking one gcd per batch of 128 steps and
    backtracking one step at a time when a batch overshoots to n itself."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def is_residue(a, p):
    """Whether the unit a is a square mod the odd prime p: Euler's
    criterion a^((p-1)/2) = 1."""
    return pow(a, (p - 1) // 2, p) == 1


@functools.cache
def least_nonresidue(p):
    """The least non-residue mod the odd prime p, searched once per prime."""
    return next(u for u in range(2, p) if not is_residue(u, p))


class FpElem:
    """A residue modulo an odd prime, with field arithmetic."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        """Residue of a compatible operand; FieldMismatchError across
        fields, None for foreign types (so reflected dunders get a turn)."""
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise FieldMismatchError(f"F_{self.p} vs F_{other.p}")
            return other.v
        if isinstance(other, int) and not isinstance(other, bool):
            return other % self.p
        if isinstance(other, Fraction):
            raise FieldMismatchError(f"cannot mix F_{self.p} with a rational")
        return None

    def __add__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return FpElem(self.p, self.v + w)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return FpElem(self.p, self.v - w)

    def __rsub__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return FpElem(self.p, w - self.v)

    def __mul__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return FpElem(self.p, self.v * w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if w == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElem(self.p, self.v * pow(w, -1, self.p))

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElem(self.p, w * pow(self.v, -1, self.p))

    def __neg__(self):
        return FpElem(self.p, -self.v)

    def __pow__(self, k):
        if k < 0:
            return FpElem(self.p, 1) / self ** (-k)
        return FpElem(self.p, pow(self.v, k, self.p))

    def __eq__(self, other):
        """Equal to a same-field FpElem or to the int residue in [0, p)."""
        if isinstance(other, FpElem):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


_ZERO = Fraction(0)
# the strings Rationals.element accepts: a sign, digits, maybe /digits
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(?:/([0-9]+))?\s*")


class Rationals:
    """The rational field; scalars are Fractions."""

    kind = "Q"
    characteristic = 0

    def element(self, x):
        """Coerce ints, strings like '3/4', and Fractions to a Fraction.
        Any other type is rejected (TypeError), floats too: they are rarely
        the rational that was meant.  So are decimal and exponent strings
        ('0.1', or '1e10000000', which Fraction takes seconds to expand):
        ValueError.  A zero denominator ('1/0') is a ZeroDivisionError that
        names the string."""
        if type(x) is Fraction:
            return x
        if isinstance(x, FpElem):
            raise FieldMismatchError("got an F_p residue where a rational was expected")
        if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
            raise TypeError(f"{type(x).__name__} is not a scalar")
        if isinstance(x, str):
            match = _RATIONAL.fullmatch(x)
            if not match:
                raise ValueError(f"{x!r} is not an integer or a fraction like 1/2")
            if match[1] and not match[1].strip("0"):
                raise ZeroDivisionError(f"{x!r} has a zero denominator")
        return Fraction(x)

    def zero(self):
        return Fraction(0)

    def value(self, x):
        """Plain value of a scalar: (numerator, denominator) in lowest terms."""
        return self.element(x).as_integer_ratio()

    def unwrap(self, xs):
        """Plain values of a sequence of Fractions: the numerators brought
        over the lcm of the denominators, and that lcm."""
        pairs = [x.as_integer_ratio() for x in xs]
        den = math.lcm(*[d for _, d in pairs])
        return [v * (den // d) for v, d in pairs], den

    def reduce(self, vs):
        """Integers are exact: the values themselves."""
        return vs

    def wrap(self, vs, den):
        """A tuple of the Fractions v / den, each reduced once; every zero
        is the one shared Fraction(0)."""
        return tuple([Fraction(v, den) if v else _ZERO for v in vs])

    def projective(self, vs):
        """The canonical values of the projective point of the integers vs:
        the primitive vector, vs over their gcd, with its first nonzero
        entry positive, as a tuple; None when every value is zero."""
        g = math.gcd(*vs)
        if not g:
            return None
        if next(filter(None, vs)) < 0:
            g = -g
        return tuple([v // g for v in vs])

    def one(self):
        return Fraction(1)

    def is_square(self, a):
        """a = s^2 for rational s?  Tests numerator and denominator for
        integer squares; raises on zero input (0 has no square class)."""
        a = self.element(a)
        if a == 0:
            raise ValueError("is_square: zero input")
        if a < 0:
            return False
        return (math.isqrt(a.numerator) ** 2 == a.numerator
                and math.isqrt(a.denominator) ** 2 == a.denominator)

    def square_class(self, a):
        """Canonical representative of a modulo squares: a signed
        square-free integer, as a Fraction."""
        a = self.element(a)
        if a == 0:
            raise ValueError("square_class: zero input")
        # numerator and denominator are coprime: each prime is in one part
        sf = math.prod(q for part in (abs(a.numerator), a.denominator)
                       for q, e in factor(part).items() if e % 2)
        return Fraction(sf if a > 0 else -sf)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p for an odd prime p; scalars are FpElem residues."""

    kind = "Fp"

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"{p!r} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p
        self.characteristic = p

    def element(self, x):
        if isinstance(x, FpElem):
            if x.p != self.p:
                raise FieldMismatchError(f"F_{x.p} element in F_{self.p}")
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, int):
            return FpElem(self.p, x)
        if isinstance(x, str):
            x = Rationals().element(x)      # the one grammar of scalar strings
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return FpElem(self.p, x.numerator) / x.denominator
        raise TypeError(f"cannot coerce {type(x).__name__} into F_{self.p}")

    def zero(self):
        return FpElem(self.p, 0)

    def value(self, x):
        """Plain value of a scalar: (its residue in [0, p), 1)."""
        return self.element(x).v, 1

    def unwrap(self, xs):
        """Plain values of a sequence of FpElems of this field: their
        residues, over the denominator 1."""
        return [x.v for x in xs], 1

    def reduce(self, vs):
        """Ints reduced into [0, p)."""
        p = self.p
        return [v % p for v in vs]

    def wrap(self, vs, den):
        """FpElems of the ints v / den, each reduced mod p once."""
        p = self.p
        if den != 1:
            inv = pow(den, -1, p)
            vs = [v * inv for v in vs]
        return tuple([FpElem(p, v) for v in vs])

    def projective(self, vs):
        """The canonical values of the projective point of the integers vs:
        the residues times the inverse of the first nonzero one, so that
        one is 1, as a tuple; None when every value is zero mod p."""
        p = self.p
        vs = [v % p for v in vs]
        lead = next(filter(None, vs), 0)
        if not lead:
            return None
        if lead != 1:
            inv = pow(lead, -1, p)
            vs = [v * inv % p for v in vs]
        return tuple(vs)

    def one(self):
        return FpElem(self.p, 1)

    def is_square(self, a):
        """Euler's criterion, by is_residue."""
        a = self.element(a)
        if a.v == 0:
            raise ValueError("is_square: zero input")
        return is_residue(a.v, self.p)

    def least_nonresidue(self):
        return least_nonresidue(self.p)

    def square_class(self, a):
        a = self.element(a)
        if a.v == 0:
            raise ValueError("square_class: zero input")
        return self.one() if self.is_square(a) else FpElem(self.p, self.least_nonresidue())

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


def field_from_spec(kind, p=None):
    """Build a field from config data: kind 'Q' (no p) or 'Fp' (p an odd
    prime below MR_BOUND).  Each refusal, PrimeField's included, starts
    with the key at fault, "field:" or "p:"."""
    if kind == "Q":
        if p is not None:
            raise ValueError('p: only allowed when field = "Fp"')
        return Rationals()
    if kind != "Fp":
        raise ValueError(f"field: expected 'Q' or 'Fp', got {kind!r}")
    if p is None:
        raise ValueError('p: required when field = "Fp"')
    try:
        return PrimeField(p)
    except ValueError as exc:
        raise ValueError(f"p: {exc}") from exc
