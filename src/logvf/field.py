"""Exact scalars over the rationals and over prime finite fields.

Every scalar is a raw value: over Q a ``fractions.Fraction``, stored as a
plain ``int`` when it is integral (the basis construction over Q keeps every
coefficient integral, so its chains run entirely in native ints); over F_p an
``int`` reduced into ``[0, p)``.  All arithmetic is on these raw values.
:meth:`Field.coerce` is the one validator of scalars from outside; a linear
form's normalized coefficients are plain ints of the same kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_rational = Fraction  # the rational type, named for tools that report it

# The first 13 primes decide Miller-Rabin primality exactly for every n below
# _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# Largest decimal exponent accepted in a string such as "1e3".  Fraction builds
# 10**exp itself, out of reach of Python's 4300-digit limit on integer strings,
# so "1e10000000" would take seconds; this bound matches that limit.
_EXPONENT_LIMIT = 4300


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(
            f"characteristic {n} is too large: primality is decided only below {_MR_LIMIT}"
        )
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _shrink(v):
    """Collapse an integral rational to a plain int; leave others alone."""
    return int(v) if v.denominator == 1 else v


def _parse_rational(s: str):
    """Parse a numeric string such as ``"2/3"``, ``"-5"``, ``"0.25"`` or ``"1e3"``."""
    _, e, exp = s.lower().partition("e")
    if e:
        try:
            too_big = abs(int(exp)) > _EXPONENT_LIMIT
        except ValueError:  # malformed or over-long: Fraction rejects it below
            too_big = False
        if too_big:
            raise ValueError(f"exponent in {s!r} is beyond +-{_EXPONENT_LIMIT}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {s!r} as a rational number") from exc


@dataclass(frozen=True)
class Field:
    """The rationals (characteristic 0) or a prime field F_p (characteristic p)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")

    def __str__(self):
        return f"F_{self.characteristic}" if self.characteristic else "Q"

    def coerce(self, x):
        """Convert ``x`` to a raw backend scalar.

        Accepts ints, Fractions and numeric strings such as ``"2/3"`` or
        ``"-5"``.  Floats are rejected to keep every computation exact.
        """
        if isinstance(x, bool):
            x = int(x)
        elif isinstance(x, float):
            raise ValueError("floats are not exact; pass an int, Fraction or string")
        if isinstance(x, str):
            x = _parse_rational(x)
        p = self.characteristic
        if isinstance(x, int):
            return x % p if p else x
        try:
            num, den = x.numerator, x.denominator
        except AttributeError:
            raise ValueError(f"cannot interpret {x!r} as a field element") from None
        if not p:
            return _shrink(Fraction(num, den))
        den %= p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes modulo {p}")
        return num * pow(den, -1, p) % p

    def div_raw(self, a, b):
        """``a / b`` for raw residues of F_p; ``logvf`` does not call it, the ``perfbench/`` benchmark wraps it."""
        if not b:
            raise ZeroDivisionError("division by zero field element")
        p = self.characteristic
        return a * pow(b, -1, p) % p


RATIONALS = Field(0)
