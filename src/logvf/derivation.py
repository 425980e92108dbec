"""Homogeneous polynomial derivations ``f*dx + g*dy`` of K[x, y].

A derivation is determined by its two coefficient polynomials, which must be
homogeneous of the same degree (the zero polynomial adapts its degree tag to
its partner).  Membership in the module D(A, mu) of a weighted arrangement
means that for every hyperplane the form's mu-th power divides the value the
derivation takes on that form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arrangement import LinearForm, Multiarrangement
from .field import Field, _shrink
from .poly import HomogPoly, _collapse, taylor_window


def _line(form: LinearForm):
    """The raw ``(ax, ay, p)`` of a form: how the kernels and the chain take a hyperplane.

    Over F_p, ay is the residue in (-p/2, p/2]: x - y multiplies by -1, not p - 1.
    """
    a, b, p = form.ax, form.ay, form.field.characteristic
    return a, b - p if 2 * b > p > 0 else b, p


def apply(f, g, a, b, p):
    """The coefficient tuple of ``theta(alpha) = a*f + b*g`` for alpha = a*x + b*y."""
    if p:
        return tuple([(a * s + b * t) % p for s, t in zip(f, g)])
    return _collapse(tuple([a * s + b * t for s, t in zip(f, g)]))


def signed_content(f, g):
    """The gcd of the integer coefficients, signed as g's highest nonzero x-coefficient (f's if g is 0)."""
    k = math.gcd(*f, *g)
    return -k if (next(filter(None, reversed(g)), 0) or next(filter(None, reversed(f)))) < 0 else k


def _cleared(f, g):
    """Rational coefficient tuples times the lcm of their denominators: ``(f', g', lcm)``, ints as they are."""
    den = math.lcm(*(c.denominator for c in f + g))
    if den > 1:
        f, g = (tuple([c.numerator * (den // c.denominator) for c in cs]) for cs in (f, g))
    return f, g, den


def primitive(f, g):
    """Integer coefficient tuples divided by their :func:`signed_content` k: ``(f', g', k)``.

    The sign makes the trailing nonzero coefficient (the highest power of x
    in g, falling back to f) positive, and ``f == k * f'``.
    """
    k = signed_content(f, g)
    if k == 1:
        return f, g, 1
    return tuple([c // k for c in f]), tuple([c // k for c in g]), k


def determinant_coefficient(f1, g1, f2, g2, k, p):
    """The x^k coefficient of the determinant ``f1*g2 - f2*g1``, an O(deg) sum (reduced mod p)."""
    span = range(max(0, k - len(f2) + 1), min(k, len(f1) - 1) + 1)
    c = sum(f1[i] * g2[k - i] - g1[i] * f2[k - i] for i in span)
    return c % p if p else c


class Derivation:
    """A nonzero homogeneous derivation with coefficient polynomials ``f`` and ``g``.

    ``f`` multiplies d/dx and ``g`` multiplies d/dy.
    """

    __slots__ = ("f", "g")

    def __init__(self, f: HomogPoly, g: HomogPoly):
        if f.field != g.field:
            raise ValueError("coefficient polynomials live over different fields")
        fz, gz = f.is_zero(), g.is_zero()
        if fz and gz:
            raise ValueError("the zero derivation is not allowed")
        if fz:
            f = HomogPoly.zero(f.field, g.degree)
        elif gz:
            g = HomogPoly.zero(g.field, f.degree)
        elif f.degree != g.degree:
            raise ValueError(f"coefficient degrees differ: {f.degree} vs {g.degree}")
        self.f = f
        self.g = g

    @property
    def field(self) -> Field:
        return self.f.field

    @property
    def degree(self) -> int:
        return self.f.degree

    @classmethod
    def partial_x(cls, field: Field) -> "Derivation":
        return cls(HomogPoly.constant(field, 1), HomogPoly.zero(field, 0))

    @classmethod
    def partial_y(cls, field: Field) -> "Derivation":
        return cls(HomogPoly.zero(field, 0), HomogPoly.constant(field, 1))

    @classmethod
    def euler(cls, field: Field) -> "Derivation":
        """The Euler derivation x*dx + y*dy."""
        return cls(HomogPoly.monomial(field, 1, 1), HomogPoly.monomial(field, 1, 0))

    # ------------------------------------------------------------------

    def apply(self, form: LinearForm) -> HomogPoly:
        """The polynomial ``theta(alpha) = ax*f + ay*g`` for a linear form alpha."""
        if form.field != self.field:
            raise ValueError("form belongs to a different field")
        h = apply(self.f.coeffs, self.g.coeffs, form.ax, form.ay, self.field.characteristic)
        return HomogPoly._raw(self.field, h)

    def is_member(self, arrangement: Multiarrangement) -> bool:
        """Whether this derivation lies in D(A, mu) for the given arrangement.

        alpha^m divides h = theta(alpha) when its first m = mu(alpha) Taylor
        coefficients at alpha vanish.  :func:`poly.taylor_window` caps m: it
        computes at most T_0 .. T_D of h, of degree D, and pads lazily with
        zeros past them, so a mu past D + 1 costs nothing more.  Over Q the
        denominators are cleared first: a nonzero scalar keeps membership.
        """
        if arrangement.field != self.field:
            raise ValueError("arrangement lives over a different field")
        f, g, p = self.f.coeffs, self.g.coeffs, self.field.characteristic
        if not p:
            f, g, _ = _cleared(f, g)
        for form, mult in arrangement.items():
            a, b, _ = _line(form)
            h = apply(f, g, a, b, p)
            if any(h) and any(taylor_window(h, a, b, p, mult)):
                return False
        return True

    def times_linear(self, form: LinearForm) -> "Derivation":
        return Derivation(self.f.times_linear(form), self.g.times_linear(form))

    def plus_scaled(self, q: HomogPoly, other: "Derivation") -> "Derivation":
        """The derivation ``self + q * other``; degrees must line up exactly.

        Mixed fields or a zero result raise ValueError in the operations below.
        """
        if self.degree != q.degree + other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {q.degree} + {other.degree}")
        return Derivation(self.f + q * other.f, self.g + q * other.g)

    def primitive(self):
        """Rescale over Q to coprime integers, signed as :func:`primitive` does.

        Returns ``(reduced, factor)`` with ``reduced == factor * self`` and a
        raw rational factor; over a finite field, ``(self, 1)``.
        """
        if self.field.characteristic:
            return self, 1
        f, g, den = _cleared(self.f.coeffs, self.g.coeffs)  # Fractions: clear denominators first
        f, g, k = primitive(f, g)
        if den == 1 and k == 1:
            return self, 1
        reduced = (HomogPoly._raw(self.field, cs) for cs in (f, g))
        return Derivation(*reduced), _shrink(Fraction(den, k))

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.f == other.f and self.g == other.g

    def __hash__(self):
        return hash((self.f, self.g))

    def __str__(self):
        return f"({self.f}) dx + ({self.g}) dy"

    def __repr__(self):
        return f"Derivation({self})"

    def to_text(self) -> str:
        """Compact exact text form ``f;g`` using the polynomial text format."""
        return f"{self.f.to_text()};{self.g.to_text()}"

    @classmethod
    def from_text(cls, field: Field, text: str) -> "Derivation":
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError("derivation text must be 'f;g'")
        return cls(
            HomogPoly.from_text(field, parts[0]), HomogPoly.from_text(field, parts[1])
        )


def saito_determinant(theta1: Derivation, theta2: Derivation) -> HomogPoly:
    """The determinant ``f1*g2 - f2*g1`` at degree D1 + D2, also when zero: O(D1*D2) work."""
    if theta1.field != theta2.field:
        raise ValueError("derivations live over different fields")
    p, degree = theta1.field.characteristic, theta1.degree + theta2.degree
    members = theta1.f.coeffs, theta1.g.coeffs, theta2.f.coeffs, theta2.g.coeffs
    det = tuple([determinant_coefficient(*members, k, p) for k in range(degree + 1)])
    return HomogPoly._raw(theta1.field, det if p else _collapse(det))
