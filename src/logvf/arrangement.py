"""Normalized linear forms and weighted central line arrangements in the plane.

A hyperplane through the origin of K^2 is the kernel of a linear form
``a*x + b*y``; the form is stored in a normal form, so equal kernels compare
equal.  Over Q that is the primitive integer pair with positive leading
coefficient, over F_p the pair with leading coefficient one.  A
multiarrangement assigns a positive integer multiplicity to each of finitely
many distinct hyperplanes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .field import Field


class LinearForm:
    """A nonzero linear form ``ax*x + ay*y`` in normal form.

    Over Q the pair is scaled to coprime integers with ``ax > 0``, or to
    ``(0, 1)`` when ``ax == 0``; over F_p it is scaled so that ``ax == 1``,
    or to ``(0, 1)``; either way ``ax`` and ``ay`` are plain ints.  Two forms
    with the same kernel are therefore identical objects in the ``==`` sense.  Forms order and print by their slope
    ``ay/ax``: y first, then ``x + c*y`` by increasing c.
    """

    __slots__ = ("field", "ax", "ay")

    def __init__(self, field: Field, ax, ay):
        a = field.coerce(ax)
        b = field.coerce(ay)
        if not a and not b:
            raise ValueError("the zero form does not define a hyperplane")
        if field.characteristic:
            a, b = (1, field.div_raw(b, a)) if a else (0, 1)
        else:
            den = lcm(a.denominator, b.denominator)
            a = a.numerator * (den // a.denominator)
            b = b.numerator * (den // b.denominator)
            g = gcd(a, b)
            if a < 0 or (not a and b < 0):
                g = -g
            a, b = a // g, b // g
        self.field = field
        self.ax = a
        self.ay = b

    def point_raw(self):
        """A raw point (ay, -ax) spanning the kernel of the form."""
        p = self.field.characteristic
        return (self.ay, -self.ax % p if p else -self.ax)

    def sort_key(self):
        """Key for the canonical ordering of forms (y sorts before x + c*y)."""
        a, b = self.ax, self.ay
        return (a, b) if a <= 1 else (1, Fraction(b, a))

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (
            self.field == other.field
            and self.ax == other.ax
            and self.ay == other.ay
        )

    def __hash__(self):
        return hash((self.field, self.ax, self.ay))

    def __str__(self):
        a, b = self.ax, self.ay
        if not a:
            return "y"
        if a != 1:
            b = Fraction(b, a)
        if not b:
            return "x"
        if b == 1:
            return "x + y"
        if b == -1:
            return "x - y"
        if b < 0:
            return f"x - {-b}*y"
        return f"x + {b}*y"

    def __repr__(self):
        return f"LinearForm({self} over {self.field})"


class Multiarrangement:
    """Distinct hyperplanes through the origin with positive multiplicities.

    Built from a mapping of LinearForms to positive ints (None: no hyperplanes).
    Immutable by convention; the update methods return new instances.  All
    iteration is in the canonical sorted order of the normalized forms, so a
    given arrangement always presents its hyperplanes the same way.
    """

    __slots__ = ("field", "_mult", "_forms")

    def __init__(self, field: Field, multiplicities=None):
        multiplicities = {} if multiplicities is None else multiplicities
        if not hasattr(multiplicities, "items"):
            raise ValueError(f"multiplicities must be a mapping, got {type(multiplicities).__name__}")
        for form, m in multiplicities.items():
            if not isinstance(form, LinearForm):
                raise ValueError(f"expected a LinearForm, got {type(form).__name__}")
            if form.field != field:
                raise ValueError("form belongs to a different field")
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise ValueError(f"multiplicity of {form} must be a positive integer, got {m!r}")
        self.field = field
        self._mult = dict(multiplicities.items())
        self._forms = tuple(sorted(self._mult, key=LinearForm.sort_key))

    def forms(self) -> tuple[LinearForm, ...]:
        """The hyperplanes in canonical order."""
        return self._forms

    def items(self) -> tuple[tuple[LinearForm, int], ...]:
        return tuple((f, self._mult[f]) for f in self._forms)

    def multiplicity(self, form: LinearForm) -> int:
        """Multiplicity of the given hyperplane, 0 if it is not present."""
        return self._mult.get(form, 0)

    @property
    def total(self) -> int:
        """The sum of all multiplicities, written |mu|."""
        return sum(self._mult.values())

    def incremented(self, form: LinearForm) -> "Multiarrangement":
        """A copy with the multiplicity of ``form`` raised by one."""
        if form.field != self.field:
            raise ValueError("form belongs to a different field")
        new = dict(self._mult)
        new[form] = new.get(form, 0) + 1
        return Multiarrangement(self.field, new)

    def __eq__(self, other):
        if not isinstance(other, Multiarrangement):
            return NotImplemented
        return self.field == other.field and self._mult == other._mult

    def __hash__(self):
        return hash((self.field, self.items()))

    def __len__(self):
        return len(self._mult)

    def __contains__(self, form):
        return form in self._mult

    def __iter__(self):
        return iter(self._forms)

    def __str__(self):
        if not self._mult:
            return "{}"
        inner = ", ".join(f"{f}: {self._mult[f]}" for f in self._forms)
        return "{" + inner + "}"

    def __repr__(self):
        return f"Multiarrangement({self} over {self.field})"


HYPERPLANE_LIMIT = 2**20


def all_hyperplanes(field: Field) -> list[LinearForm]:
    """Every hyperplane of F_p^2 in canonical order: y, then x + c*y for c in F_p.

    A form takes ~96 bytes with its list slot (104 at peak; tracemalloc,
    CPython 3.11), so p + 1 above ``HYPERPLANE_LIMIT`` (2^20 forms, ~110 MB)
    raises ValueError before any form is built.
    """
    p = field.characteristic
    if not p:
        raise ValueError("the rationals have infinitely many hyperplanes")
    if p + 1 > HYPERPLANE_LIMIT:
        raise ValueError(f"F_{p} has p + 1 = {p + 1} hyperplanes, more than the {HYPERPLANE_LIMIT} listed at most")
    return [LinearForm(field, 0, 1)] + [LinearForm(field, 1, c) for c in range(p)]
