"""Exact scalar arithmetic over the rationals and over prime finite fields.

Rational values are ``fractions.Fraction``; a rational that happens to be an
integer is stored as a plain ``int``.  The basis construction over Q keeps
every coefficient integral, so its chains run entirely in native ints.
Prime-field residues are plain ``int`` values reduced into ``[0, p)``.

The "raw" values described above are what the polynomial layer stores
internally; :class:`FieldElement` is the public scalar wrapper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

_rational = Fraction  # the rational type, named for tools that report it

# The first 13 primes decide Miller-Rabin primality exactly for every n below
# _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class FieldKind(enum.Enum):
    RATIONALS = "rationals"
    PRIME = "prime"


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


@dataclass(frozen=True)
class Field:
    """The rationals (characteristic 0) or a prime field F_p (characteristic p)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")

    @property
    def kind(self) -> FieldKind:
        return FieldKind.PRIME if self.characteristic else FieldKind.RATIONALS

    def __str__(self):
        return f"F_{self.characteristic}" if self.characteristic else "Q"

    # ------------------------------------------------------------------
    # element construction
    # ------------------------------------------------------------------

    def element(self, x) -> "FieldElement":
        """Build a field element from an int, Fraction, string or FieldElement."""
        return FieldElement(self, x)

    def from_integer(self, n: int) -> "FieldElement":
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"expected an integer, got {type(n).__name__}")
        return FieldElement(self, n)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement._wrap(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement._wrap(self, 1)

    # ------------------------------------------------------------------
    # raw-value kernels (internal to the package)
    # ------------------------------------------------------------------

    def coerce(self, x):
        """Convert ``x`` to a raw backend scalar.

        Accepts ints, Fractions, numeric strings such as
        ``"2/3"`` or ``"-5"``, and FieldElements of this same field.  Floats
        are rejected to keep every computation exact.
        """
        if isinstance(x, FieldElement):
            if x.field != self:
                raise ValueError("operand belongs to a different field")
            return x.value
        if isinstance(x, bool):
            x = int(x)
        elif isinstance(x, float):
            raise ValueError("floats are not exact; pass an int, Fraction or string")
        if isinstance(x, str):
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"cannot parse {x!r} as a rational number") from exc
        p = self.characteristic
        if p:
            if isinstance(x, int):
                return x % p
            try:
                num, den = x.numerator, x.denominator
            except AttributeError:
                raise ValueError(f"cannot interpret {x!r} as a field element") from None
            den %= p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes modulo {p}")
            return num * pow(den, -1, p) % p
        if isinstance(x, int):
            return x
        try:
            num, den = x.numerator, x.denominator
        except AttributeError:
            raise ValueError(f"cannot interpret {x!r} as a field element") from None
        return _shrink(Fraction(num, den))

    def div_raw(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero field element")
        p = self.characteristic
        if p:
            return a * pow(b, -1, p) % p
        return _shrink(Fraction(a) / b)


RATIONALS = Field(0)


class FieldElement:
    """An immutable exact scalar drawn from a specific :class:`Field`."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = field.coerce(value)

    @classmethod
    def _wrap(cls, field: Field, raw) -> "FieldElement":
        """Wrap an already-coerced raw value without re-checking it."""
        el = object.__new__(cls)
        el.field = field
        el.value = raw
        return el

    # ------------------------------------------------------------------

    def _other_raw(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("operands belong to different fields")
            return other.value
        return self.field.coerce(other)

    def _new(self, raw) -> "FieldElement":
        p = self.field.characteristic
        return FieldElement._wrap(self.field, raw % p if p else raw)

    def __add__(self, other):
        return self._new(self.value + self._other_raw(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._new(self.value - self._other_raw(other))

    def __rsub__(self, other):
        return self._new(self._other_raw(other) - self.value)

    def __mul__(self, other):
        return self._new(self.value * self._other_raw(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement._wrap(self.field, self.field.div_raw(self.value, self._other_raw(other)))

    def __rtruediv__(self, other):
        return FieldElement._wrap(self.field, self.field.div_raw(self._other_raw(other), self.value))

    def __neg__(self):
        return self._new(-self.value)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** -n
        return self._new(pow(self.value, n, self.field.characteristic or None))

    def inverse(self) -> "FieldElement":
        return FieldElement._wrap(self.field, self.field.div_raw(1, self.value))

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, float):
            return NotImplemented
        try:
            return self.value == self.field.coerce(other)
        except (ValueError, ZeroDivisionError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FieldElement({self.value}, {self.field})"
