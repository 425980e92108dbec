"""Dense homogeneous bivariate polynomials with exact coefficient arithmetic.

Coefficients are stored densely as raw field scalars indexed by the exponent
of x: entry ``j`` holds the coefficient of ``x^j * y^(degree - j)``.  The zero
polynomial is representable at every degree (all entries zero); it keeps its
degree tag for bookkeeping but compares equal to zero of any degree.

Division by powers of a linear form is synthetic division against the
normalized form.  Over F_p that form has leading coefficient one, so no scalar
is divided at all; over Q it is a primitive integer pair, and by Gauss's lemma
an integer polynomial it divides has an integer quotient, found by exact
integer division by the leading coefficient.

Each kernel is one function on a coefficient tuple ``cs``, a form a*x + b*y
and the characteristic ``p`` (0 for Q); the determinant's is
``derivation.determinant_coefficient``.  :func:`_packed_product` is the one
Kronecker product, over Q and F_p, and :func:`_pack` the one packer, also of
the packed residue vectors of the chain and the oracle over F_p.
:func:`taylor_vanishes` is F_p-only (degree below p); :func:`taylor_window`
serves every field.  ``HomogPoly.__add__``, ``__mul__``, ``scale``,
``times_linear``, ``_div_linear`` and ``eval_raw`` have no caller here but
``Derivation.apply``, ``plus_scaled`` and ``times_linear``, which have none;
all nine stay only because the ``perfbench/`` benchmark wraps them by name.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import accumulate, islice, repeat

from .arrangement import LinearForm
from .field import Field, _shrink


class InexactDivisionError(ArithmeticError):
    """Division by a power of a linear form left a nonzero remainder."""


def _collapse(coeffs):
    """Integral Fractions as plain ints; a tuple without Fractions as is."""
    return tuple(map(_shrink, coeffs)) if Fraction in map(type, coeffs) else coeffs


def times_linear(cs, a, b, p):
    """Multiply by the form: the x^k coefficient is b*c_k + a*c_(k-1)."""
    if not a:  # y: x^j y^(d-j) becomes x^j y^(d+1-j)
        return cs + (0,)
    if not b:  # x: x^j y^(d-j) becomes x^(j+1) y^(d-j)
        return (0,) + cs
    pairs = zip(cs + (0,), (0,) + cs)
    if p:
        return tuple([(b * s + a * t) % p for s, t in pairs])
    return tuple([b * s + a * t for s, t in pairs])


def times_linear_power(cs, a, b, p, k):
    """Multiply by the form's ``k``-th power, as ``k`` calls of :func:`times_linear` would (ints over Q).

    x and y only shift the coefficients.  For any other form the power's
    coefficients C(k, j) a^j b^(k-j), reduced mod p over F_p, are one factor
    of :func:`_packed_product` (Kronecker substitution).
    """
    if not a or not k:  # y, or the 0th power
        return cs + (0,) * k
    if not b:  # x
        return (0,) * k + cs
    row, c, bp = [0] * (k + 1), a**k, 1
    for j in range(k, -1, -1):  # c = C(k, j) * a^j, bp = b^(k-j)
        row[j] = c * bp % p if p else c * bp
        c, bp = c * j // ((k + 1 - j) * a), bp * b % p if p else bp * b
    return tuple(_packed_product(cs, row, p, 0, len(cs) + k))


def taylor_vanishes(cs, b, p, m, fact, inv):
    """Whether ``(x + b*y)^m`` divides the polynomial over F_p, for degree D < p and m <= D + 1.

    T_0 ... T_(m-1) must vanish, T_j the u^j coefficient of h = sum c_i x^i y^(D-i)
    in u = x + b*y.  j!*T_j = sum_k c_(j+k)*(j+k)! * (-b)^k/k! is slot D - j of the
    product of (c_i*i!) reversed and ((-b)^k/k!).  ``fact``/``inv`` hold i!, 1/i!.
    """
    d = len(cs) - 1
    rev = [c * f % p for c, f in zip(reversed(cs), reversed(fact[: d + 1]))]
    powers = accumulate(repeat(-b % p, d), lambda s, v: s * v % p, initial=1)
    g = [t * i % p for t, i in zip(powers, inv)]
    return not any(_packed_product(rev, g, p, d + 1 - m, d + 1))


def taylor_window(cs, a, b, p, n):
    """Yield the first n Taylor coefficients of h = sum c_j x^j y^(D-j) at the form, zeros past T_D.

    T_i is h's alpha^i beta^(D-i) coefficient: h's top ones reversed for (y, x), its bottom ones for
    (x, y).  In (a*x + b*y, y), a*b != 0, the i-th of n rounds of suffix sums (synthetic division by
    z - 1) of e_j = c_j*(-b)^j*a^(D-j) totals a^D*(-b)^i*T_i: no factorials, so any p and D.  A monic
    form yields T_i; a non-monic one (over Q) the totals, scaled alike in two windows.
    """
    k = min(n, len(cs))
    if not a or not b:
        yield from islice(reversed(cs) if not a else cs, k)
    elif k == 1 and a == 1:  # T_0 alone: one synthetic division's remainder, no power tables
        yield div_linear(cs, a, b, p)[1]
    elif k:
        mul, d = (lambda s, t: s * t % p) if p else int.__mul__, len(cs) - 1
        powers = reversed(list(accumulate(repeat(-b, d), mul, initial=1)))  # (-b)^(D-i), then a^i
        e = [c * s * t for c, s, t in zip(reversed(cs), powers, accumulate(repeat(a, d), mul, initial=1))]
        r, s = pow(-b, -1, p) if p else -b if a == 1 else 1, 1  # T_i is total_i / (-b)^i for a monic form
        for _ in range(k):
            e = list(accumulate(e))
            if p and e[-1] >> 64 > p:  # the largest suffix sum of residues: reduce only now and then
                e = [v % p for v in e]
            t = e.pop()
            yield t * s % p if p else t // s
            s = s * r % p if p else s * r
    yield from repeat(0, n - k)


def _pack(cs, w, p):
    """Nonnegative ints below 2^(8w) as one int, entry i in bytes i*w .. i*w + w - 1 (little-endian).

    Residues (0 < p <= 2^64) in slots of at least 8 bytes are written as
    64-bit struct words and pad bytes, anything else by ``int.to_bytes``.
    """
    if 0 < p <= 1 << 64 and w >= 8:
        return int.from_bytes(struct.pack("<" + f"Q{w - 8}x" * len(cs), *cs), "little")
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")


def _packed_product(u, v, p, lo, hi):
    """Slots lo..hi-1 of u*v, reduced mod p for residues over F_p, from one product of packed ints.

    A slot sums at most n = min(len(u), len(v)) products, below p^2 over F_p,
    or of size below max|u|*max|v| over Q: w bytes hold it.  Over Q every slot
    is biased by half its range, so signed slots pack and unpack without borrows.
    """
    m, n = len(u) + len(v) - 1, min(len(u), len(v))
    if p:
        w = (2 * (p - 1).bit_length() + n.bit_length() + 7) // 8
        buf = (_pack(u, w, p) * _pack(v, w, p) >> 8 * w * lo).to_bytes((m - lo) * w, "little")
        return [int.from_bytes(buf[i : i + w], "little") % p for i in range(0, (hi - lo) * w, w)]
    w = (max(map(abs, u)).bit_length() + max(map(abs, v)).bit_length() + n.bit_length() + 8) // 8
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * m, "little")  # half in every slot
    u, v = (_pack([c + half for c in cs], w, p) - (bias >> 8 * w * (m - len(cs))) for cs in (u, v))
    buf = (u * v + bias >> 8 * w * lo).to_bytes((m - lo) * w, "little")
    return [int.from_bytes(buf[i : i + w], "little") - half for i in range(0, (hi - lo) * w, w)]


def residue_width(p):
    """Bytes per slot of a packed residue vector over F_p, in the layout of :func:`_pack`.

    A slot may hold any value below 2^e, e = 2*bits(p) + 32: a residue plus
    fewer than 2^32 products of two residues (the chain and the oracle add
    no more per slot than the vector has slots).  Times the multiplier of
    :func:`barrett`, at most 2^(e + 1), such a value stays in its slot.
    """
    return (4 * p.bit_length() + 72) // 8


def pack_residues(cs, p):
    """Residues mod p as one packed vector: :func:`_pack` at :func:`residue_width`."""
    return _pack(cs, residue_width(p), p)


def unpack_residues(v, n, p):
    """The n slots of a reduced packed vector as a tuple: the inverse of :func:`pack_residues`."""
    w = residue_width(p)
    buf = v.to_bytes(n * w, "little")
    if p > 1 << 64:
        return tuple([int.from_bytes(buf[i : i + w], "little") for i in range(0, n * w, w)])
    return struct.unpack("<" + f"Q{w - 8}x" * n, buf)


def barrett(p, n):
    """``(k, m, mask)``: what :func:`reduce_packed` needs for vectors of up to n slots over F_p.

    m = ceil(2^k / p) with k = e + bits(p) makes floor(c*m / 2^k) exactly
    floor(c/p) for every c below 2^e, as c*(m*p - 2^k) / (p*2^k) < 2^-bits(p)
    < 1/p; mask keeps the low 8*w - k bits of each slot, where that quotient lands.
    """
    w, k = residue_width(p), 3 * p.bit_length() + 32
    return k, -(-(1 << k) // p), int.from_bytes(((1 << (8 * w - k)) - 1).to_bytes(w, "little") * n, "little")


def reduce_packed(v, p, kit):
    """Every slot of a packed vector (each below 2^e) reduced mod p at once, ``kit`` from :func:`barrett`."""
    k, m, mask = kit
    return v - ((v * m >> k) & mask) * p


def eval_raw(cs, x, y, p):
    """The value at the raw point (x, y), by Horner's rule in x."""
    r, yp = cs[-1], 1
    for c in reversed(cs[:-1]):
        yp = yp * y % p if p else yp * y
        r = (r * x + c * yp) % p if p else r * x + c * yp
    return r


def div_linear(cs, a, b, p):
    """One synthetic division by the form: ``(quotient, remainder scalar)``.

    The remainder of degree d is r*y^d (r*x^d for the form y); a constant
    has the zero constant as quotient.
    """
    d = len(cs) - 1
    if not d:
        return (0,), cs[0]
    if not a:  # y: x^j y^(d-j) = y * (x^j y^(d-1-j)) for j < d
        return cs[:d], cs[d]
    if not b:  # x: x^j y^(d-j) = x * (x^(j-1) y^(d-j)) for j > 0
        return cs[1:], cs[0]
    # peel (a*x + b*y) off from the top; a == 1 over F_p
    q = [0] * d
    t = cs[d]
    if p:
        for j in range(d - 1, -1, -1):
            q[j] = t
            t = (cs[j] - b * t) % p
    elif a == 1:
        for j in range(d - 1, -1, -1):
            q[j] = t
            t = cs[j] - b * t
    else:
        # exact integer division when the form divides an integer
        # polynomial (Gauss's lemma); anything else falls back to Fractions
        for j in range(d - 1, -1, -1):
            t = q[j] = t // a if not t % a else Fraction(t, a)
            t = cs[j] - b * t
    return tuple(q), t


def div_linear_power(cs, a, b, p, power):
    """Divide exactly by the form's ``power``-th power, or raise InexactDivisionError."""
    for _ in range(power):
        cs, r = div_linear(cs, a, b, p)
        if r:
            raise InexactDivisionError(f"({a}*x + {b}*y)^{power} leaves a remainder")
    return cs


class HomogPoly:
    """A homogeneous polynomial in x and y over a fixed field."""

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: Field, coefficients):
        coeffs = tuple(field.coerce(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        self.field = field
        self.degree = len(coeffs) - 1
        self.coeffs = coeffs

    @classmethod
    def _raw(cls, field: Field, coeffs: tuple) -> "HomogPoly":
        """Assemble from already-coerced raw coefficients (internal fast path)."""
        p = object.__new__(cls)
        p.field = field
        p.degree = len(coeffs) - 1
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls, field: Field, degree: int = 0) -> "HomogPoly":
        return cls._raw(field, (0,) * (degree + 1))

    @classmethod
    def constant(cls, field: Field, c) -> "HomogPoly":
        return cls(field, [c])

    @classmethod
    def monomial(cls, field: Field, degree: int, x_power: int, coefficient=1) -> "HomogPoly":
        """The monomial ``coefficient * x^x_power * y^(degree - x_power)``."""
        if not 0 <= x_power <= degree:
            raise ValueError(f"x power {x_power} outside 0..{degree}")
        coeffs = [0] * (degree + 1)
        coeffs[x_power] = field.coerce(coefficient)
        return cls._raw(field, tuple(coeffs))

    # ------------------------------------------------------------------
    # predicates and equality
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.field != other.field:
            return False
        if self.is_zero():
            return other.is_zero()
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_zero():
            return hash((self.field, "zero"))
        return hash((self.field, self.degree, self.coeffs))

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _check_field(self, other):
        if self.field != other.field:
            raise ValueError("operands belong to different fields")

    def __add__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        self._check_field(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.degree != other.degree:
            raise ValueError(f"cannot add degrees {self.degree} and {other.degree}")
        p = self.field.characteristic
        if p:
            coeffs = tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        else:
            coeffs = _collapse(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return HomogPoly._raw(self.field, coeffs)

    def __mul__(self, other):
        if isinstance(other, HomogPoly):
            self._check_field(other)
            a, b = self.coeffs, other.coeffs
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
            p = self.field.characteristic
            out = tuple(c % p for c in out) if p else _collapse(tuple(out))
            return HomogPoly._raw(self.field, out)
        return NotImplemented  # scalars go through scale()

    def scale(self, c) -> "HomogPoly":
        """Multiply every coefficient by the scalar ``c``."""
        raw = self.field.coerce(c)
        if raw == 1:
            return self
        p = self.field.characteristic
        if p:
            coeffs = tuple(a * raw % p for a in self.coeffs)
        else:
            coeffs = _collapse(tuple(a * raw for a in self.coeffs))
        return HomogPoly._raw(self.field, coeffs)

    def times_linear(self, form: LinearForm) -> "HomogPoly":
        """Multiply by a linear form (see :func:`times_linear`)."""
        if form.field != self.field:
            raise ValueError("form belongs to a different field")
        out = times_linear(self.coeffs, form.ax, form.ay, self.field.characteristic)
        return HomogPoly._raw(self.field, out)

    # ------------------------------------------------------------------
    # evaluation and division by linear forms
    # ------------------------------------------------------------------

    def eval_raw(self, a, b):
        """Evaluate at the raw point (a, b); returns a raw scalar."""
        return eval_raw(self.coeffs, a, b, self.field.characteristic)

    def _div_linear(self, form: LinearForm):
        """One synthetic division step: returns (quotient, raw remainder scalar)."""
        q, r = div_linear(self.coeffs, form.ax, form.ay, self.field.characteristic)
        return HomogPoly._raw(self.field, q), r

    # ------------------------------------------------------------------
    # rendering and round-trip text form
    # ------------------------------------------------------------------

    @staticmethod
    def _monomial_str(j: int, k: int) -> str:
        parts = []
        if j == 1:
            parts.append("x")
        elif j > 1:
            parts.append(f"x^{j}")
        if k == 1:
            parts.append("y")
        elif k > 1:
            parts.append(f"y^{k}")
        return "*".join(parts)

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if not c:
                continue
            negative = c < 0
            mag = -c if negative else c
            mono = self._monomial_str(j, self.degree - j)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            terms.append(("- " if negative else "+ ") + body)
        first = terms[0]
        out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        for t in terms[1:]:
            out += " " + t
        return out

    def __repr__(self):
        return f"HomogPoly({self} over {self.field})"

    def to_text(self) -> str:
        """Compact exact text form ``degree:c0,c1,...,cd`` (cj multiplies x^j y^(d-j))."""
        return f"{self.degree}:" + ",".join(str(c) for c in self.coeffs)

    @classmethod
    def from_text(cls, field: Field, text: str) -> "HomogPoly":
        """Parse the :meth:`to_text` format."""
        head, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"missing ':' in polynomial text {text!r}")
        try:
            degree = int(head)
        except ValueError:
            raise ValueError(f"bad degree {head!r} in polynomial text") from None
        parts = tail.split(",")
        if len(parts) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, got {len(parts)}")
        return cls(field, [s.strip() for s in parts])
