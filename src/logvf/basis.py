"""Construction and verification of homogeneous bases for D(A, mu).

In two variables D(A, mu) is always free of rank 2, so a basis is a pair of
derivations.  ``update_basis`` turns a basis for one arrangement into a basis
for the arrangement with a single multiplicity raised by one; ``build_basis``
iterates that step from the empty arrangement, whose basis is (d/dx, d/dy).
Correctness of a claimed pair is decided by Saito's criterion.
"""

from __future__ import annotations

import enum
from math import gcd

from .arrangement import LinearForm, Multiarrangement
from .derivation import Derivation, _line, apply, determinant_coefficient, primitive
from .poly import HomogPoly, InexactDivisionError, div_linear, div_linear_power, eval_raw, pack_residues, reduce_packed
from .poly import residue_width, taylor_window, times_linear, times_linear_power, unpack_residues


class Branch(enum.Enum):
    """Which case an update step lands in (see :func:`update_basis`)."""

    G_VANISHING = "g-vanishing"
    F_VANISHING = "f-vanishing"
    GENERIC = "generic"


class BasisPair:
    """An ordered pair of derivations, higher degree first (ties keep input order)."""

    __slots__ = ("theta1", "theta2")

    def __init__(self, theta1: Derivation, theta2: Derivation):
        if theta1.field != theta2.field:
            raise ValueError("derivations live over different fields")
        if theta1.degree < theta2.degree:
            theta1, theta2 = theta2, theta1
        self.theta1 = theta1
        self.theta2 = theta2

    @property
    def field(self):
        return self.theta1.field

    def degrees(self) -> tuple[int, int]:
        """The pair of coefficient degrees, largest first."""
        return (self.theta1.degree, self.theta2.degree)

    def independent(self) -> bool:
        """Whether the determinant is nonzero, without forming it.

        Its coefficients are read one at a time, lowest power of x first, up
        to the first nonzero one: O(D1*D2) work for a zero determinant, and
        for a basis, which has c * prod(alpha^m) as determinant, the scan
        stops at x^k with k the multiplicity of x.
        """
        theta1, theta2, p = self.theta1, self.theta2, self.field.characteristic
        members = theta1.f.coeffs, theta1.g.coeffs, theta2.f.coeffs, theta2.g.coeffs
        return any(determinant_coefficient(*members, k, p) for k in range(sum(self.degrees()) + 1))

    def __iter__(self):
        return iter((self.theta1, self.theta2))

    def __eq__(self, other):
        if not isinstance(other, BasisPair):
            return NotImplemented
        return self.theta1 == other.theta1 and self.theta2 == other.theta2

    def __hash__(self):
        return hash((self.theta1, self.theta2))

    def __str__(self):
        return f"[{self.theta1}, {self.theta2}]"

    def __repr__(self):
        return f"BasisPair({self})"


def verify_basis(pair: BasisPair, arrangement: Multiarrangement) -> bool:
    """Saito's criterion: degree sum |mu|, membership, and independence.

    Two members whose degrees add up to |mu| form a basis when their
    determinant f1*g2 - f2*g1 is nonzero.  Every alpha^m divides it and its
    degree is |mu|, the sum of the m, so it is c * prod(alpha^m) for a
    scalar c.  With k the multiplicity of x (0 when x is absent), that
    product's x^k coefficient is the product of ay^m over the other forms,
    and ay != 0 for every form but x.  So c != 0 exactly when the
    determinant's x^k coefficient, an O(deg) sum, is nonzero.
    """
    if pair.field != arrangement.field:
        raise ValueError("pair and arrangement live over different fields")
    if sum(pair.degrees()) != arrangement.total:
        return False
    theta1, theta2 = pair
    if not (theta1.is_member(arrangement) and theta2.is_member(arrangement)):
        return False
    k = next((m for form, m in arrangement.items() if not form.ay), 0)
    members = theta1.f.coeffs, theta1.g.coeffs, theta2.f.coeffs, theta2.g.coeffs
    return bool(determinant_coefficient(*members, k, pair.field.characteristic))


def _pair(field, theta1, theta2) -> BasisPair:
    """The BasisPair of two chain members, each an ``(f, g)`` pair of coefficient tuples.

    Every basis handed out is built here, and over Q each member is signed by
    :func:`derivation.primitive`: the one place a sign is fixed.
    """
    if not field.characteristic:
        theta1, theta2 = (primitive(*theta)[:2] for theta in (theta1, theta2))
    polys = [HomogPoly._raw(field, cs) for cs in (*theta1, *theta2)]
    return BasisPair(Derivation(*polys[:2]), Derivation(*polys[2:]))


def _windowed(line, top):
    """Whether a ramp to degree ``top`` carries windows (:func:`_into_frame`): over F_p, top < p (p = 0 over Q)."""
    return top < line[2]


def _partner(a, b):
    """The partner beta = c*x + d*y of a primitive form a*x + b*y: ``(c, d)`` with a*d - b*c = 1.

    y for x + b*y (x is x + 0*y) and -x for y; for a > 1 (only over Q), d = a^-1 mod |b| and c = (a*d - 1)/b.
    """
    if a < 2:
        return (0, 1) if a else (-1, 0)
    d = pow(a, -1, abs(b))
    return (a * d - 1) // b, d


def _into_frame(theta, line, window):
    """An ``(f, g)`` member as the ramp of a form alpha carries it: ``(theta(alpha), div, degree, theta(beta))``.

    beta is alpha's :func:`_partner`.  Over F_p theta(beta) is packed into one int
    (:func:`poly.residue_width`), and with ``window`` so is theta(alpha), as its Taylor window T_0 .. T_D
    at alpha (:func:`poly.taylor_window` in (alpha, beta), below p its product route).  ``div`` is None:
    the quotient's :func:`_divide` is made by the first step that needs it.
    """
    f, g = theta
    a, b, p = line
    u, v = apply(f, g, a, b, p), apply(f, g, *_partner(a, b), p)
    if window:
        u = pack_residues(list(taylor_window(u, a, b, p, len(u))), p)
    return u, None, len(f) - 1, pack_residues(v, p) if p else v


def _out_of_frame(member, line, k):
    """The ``(f, g)`` of a member ``(theta(alpha)/alpha^k, div, degree, theta(beta))`` in the frame of ``line``.

    theta(alpha) is the tuple quotient times alpha^k, or the window with its k zero slots T_0 .. T_(k-1)
    put back and the Taylor shift at (a, -b) (a reversal for y) undoing the one into the frame.  The
    frame's inverse gives f = d*theta(alpha) - b*theta(beta) and g = a*theta(beta) - c*theta(alpha).
    No sign is fixed: :func:`_pair` signs the bases handed out.
    """
    u, _, degree, v = member
    a, b, p = line
    c, d = _partner(a, b)
    if type(v) is int:  # theta(beta), packed over F_p
        v = unpack_residues(v, degree + 1, p)
    if type(u) is int:  # theta(alpha)
        h = tuple(taylor_window(unpack_residues(u << 8 * residue_width(p) * k, degree + 1, p), a, -b, p, degree + 1))
    else:
        h = times_linear_power(u, a, b, p, degree + 1 - len(u))
    return apply(h, v, d, -b, p), apply(h, v, -c, a, p)


def _primitive(member):
    """A member over Q divided by the gcd of its quotient and image.

    The frame is unimodular and the form primitive, so by Gauss's lemma
    that gcd is the content of (f, g).  The sign is fixed by :func:`_pair`.
    """
    u, _, degree, v = member
    k = gcd(*u, *v)
    if k == 1:
        return member
    return tuple([c // k for c in u]), None, degree, tuple([c // k for c in v])


def _divide(u, line):
    """A quotient's division by the form: ``(quotient, value)``, the value at the kernel point (-ay, ax).

    A window (:func:`_into_frame`) holds T_k, T_(k+1), ...: slot 0 is the value, the rest the quotient's
    window.  A monic form (every form over F_p; y and x + c*y over Q) divides once: h = form*Q + r*y^deg is r
    at (-c, 1), and h = y*Q + r*x^deg is r at (1, 0), the point taken for y.  A non-monic form over Q,
    by which dividing can leave Z, divides only where its value is 0; elsewhere the quotient is None.
    """
    a, b, p = line
    if type(u) is int:
        w = 8 * residue_width(p)
        return u >> w, u & ((1 << w) - 1)
    if a < 2:
        return div_linear(u, a, b, p)
    value = eval_raw(u, -b, a, p)
    return None if value else div_linear_power(u, a, b, p, 1), value


def _step(theta1, theta2, line):
    """One multiplicity-raising update; the engine behind the public operations.

    ``line`` is :func:`_line` of a form alpha of multiplicity k, and each
    member is a tuple ``(theta(alpha)/alpha^k, div, degree, theta(beta))``
    in the frame of :func:`_into_frame`, with ``div`` None or the quotient's
    :func:`_divide`.
    (theta1, theta2) must be a basis of D(A, mu), in either order: the member
    of larger degree is taken as theta1.  The returned ``(theta1', theta2',
    branch)`` is a basis at k + 1 in the same frame, and the member whose
    quotient is unchanged keeps its division.
    Over Q both members must be primitive integer derivations, like every
    member returned: by Gauss's lemma their products with the primitive form
    stay primitive, so only the generic combination is reduced and every
    value stays an integer.  No sign is fixed here: a step on +-theta1 or
    +-theta2 gives +-theta1', and :func:`_pair` signs the basis handed out.
    The generic step is the window ramp's (:func:`_window_ramp`):
    theta1' = s*theta1 + t*beta^d*theta2 (beta x for y, else y), which
    clears the obstruction at alpha's kernel point.  A monic form's quotient
    is then built from the two carried divisions, or from the two windows,
    whose slot 0 it checks and drops; over F_p s = 1 and theta1's packed
    image gains t times theta2's.  Every division is remainder-checked: a
    violated precondition raises InexactDivisionError, not a wrong answer.
    """
    if theta1[2] < theta2[2]:
        theta1, theta2 = theta2, theta1
    ax, ay, p = line
    (u1, div1, d1, v1), (u2, div2, d2, v2) = theta1, theta2
    d = d1 - d2
    qg, g_val = div2 = div2 or _divide(u2, line)
    if not g_val:
        # form^(mult+1) already divides theta2(form): multiply theta1 instead
        return (u1, div1, d1 + 1, _times_form(v1, line)), (qg, None, d2, v2), Branch.G_VANISHING
    theta2 = (u2, div2, d2 + 1, _times_form(v2, line))
    qf, f_val = div1 or _divide(u1, line)
    if not f_val:
        # form^(mult+1) already divides theta1(form): multiply theta2 instead
        return (qf, None, d1, v1), theta2, Branch.F_VANISHING

    # generic case: s*f_val + t*beta^d*g_val = 0 at the kernel point, where beta (x for y, else y) is 1 for a
    # monic form and ax at (-ay, ax)
    if p:
        s, t = 1, -f_val * pow(g_val, -1, p) % p
    else:
        if ax > 1:
            g_val *= ax**d
        k = gcd(f_val, g_val)
        s, t = g_val // k, -f_val // k
    if ax > 1:
        u1 = div_linear_power(_combine(u1, u2, s, t, ax, p), ax, ay, p, 1)
    elif type(u1) is int:  # windows: beta^d only pads top slots, and slot 0 of u1 + t*u2 must be 0
        low = (1 << 8 * residue_width(p)) - 1
        if ((u1 & low) + t * (u2 & low)) % p:
            raise InexactDivisionError("the generic combination leaves a remainder at the kernel point")
        u1 = reduce_packed(qf + t * qg, p)
    else:  # s*u1 + t*beta^d*u2 = form*(s*Qf + t*beta^d*Qg): the remainders' terms cancel at beta^deg(u1)
        u1 = _combine(qf, qg, s, t, ax, p)
    if p:  # beta^d shifts the packed image of theta2 up by d slots for y, and by none for y^d
        v = v2 << 8 * residue_width(p) * d if not ax else v2
        return (u1, None, d1, reduce_packed(v1 + v * t, p)), theta2, Branch.GENERIC
    return _primitive((u1, None, d1, _combine(v1, v2, s, t, ax, p))), theta2, Branch.GENERIC


def _times_form(v, line):
    """A member's image times the form: a tuple over Q; over F_p the packed image times y, x or x + b*y."""
    a, b, p = line
    if not p:
        return times_linear(v, a, b, p)
    w = 8 * residue_width(p)
    return v if not a else v << w if not b else reduce_packed(v * (b % p) + (v << w), p)


def _combine(v, w, s, t, ax, p):
    """``s*v + t*beta^d*w`` on coefficient tuples, d = len(v) - len(w) (reduced mod p over F_p).

    beta^d is y^d, which appends d zeros to w, or x^d for the form y (``ax`` = 0), which prepends them.
    """
    pad = (0,) * (len(v) - len(w))
    pairs = zip(v, w + pad if ax else pad + w)
    if p:
        return tuple([(s * a + t * b) % p for a, b in pairs])
    return tuple([s * a + t * b for a, b in pairs])


def update_basis(pair: BasisPair, form: LinearForm, mult: int) -> BasisPair:
    """Update a basis when the multiplicity of ``ker(form)`` rises by one.

    ``pair`` must be a basis of D(A, mu) for an arrangement in which the
    hyperplane of ``form`` currently has multiplicity ``mult`` (0 if absent);
    the result is a basis after raising that multiplicity to mult + 1.  The
    precondition is trusted, not re-verified, but a violation that breaks an
    exact division raises InexactDivisionError.  Over Q both members are
    first reduced to primitive integer form.
    """
    if form.field != pair.field:
        raise ValueError("form and pair live over different fields")
    if mult < 0:
        raise ValueError("multiplicity must be nonnegative")
    line = _line(form)
    thetas = [(theta.f.coeffs, theta.g.coeffs) for theta in (theta.primitive()[0] for theta in pair)]
    window = _windowed(line, max(len(f) for f, _ in thetas))
    members = []
    for theta in thetas:
        u, *rest = _into_frame(theta, line, window)
        for _ in range(mult):
            u, value = _divide(u, line)
            if value:
                raise InexactDivisionError(f"({form})^{mult} does not divide theta({form})")
        members.append((u, *rest))
    theta1, theta2, _ = _step(*members, line)
    return _pair(pair.field, *(_out_of_frame(theta, line, mult + 1) for theta in (theta1, theta2)))


def _ramp(theta1, theta2, line, upto):
    """Raise the multiplicity of a hyperplane from 0 to ``upto``, one step at a time.

    (theta1, theta2) must be ``(f, g)`` members of a basis of an arrangement
    without it.  Yields ``(theta1', theta2', branch)``, the k-th pair a basis
    at multiplicity k in the frame of :func:`_into_frame`, whose ``(f, g)``
    :func:`_out_of_frame` rebuilds; each member carries its division on, and
    its window when the ramp ends below degree p (:func:`_windowed`).
    """
    window = _windowed(line, max(len(theta1[0]), len(theta2[0])) - 1 + upto)
    theta1, theta2 = _into_frame(theta1, line, window), _into_frame(theta2, line, window)
    for _ in range(upto):
        theta1, theta2, branch = _step(theta1, theta2, line)
        yield theta1, theta2, branch


def _window_ramp(theta1, theta2, d1, d2, p, k=0):
    """A ramp on Taylor windows (:func:`poly.taylor_window`): ``(d1, d2, theta1, theta2)`` after each of n steps.

    A member of degree d is k carried entries, Taylor coefficients at alpha' in a frame (alpha', beta')
    with beta = alpha' + beta', then theta(alpha)'s first n.  It branches as :func:`_step` does, and its
    generic step is :func:`_step`'s, theta1' = s*theta1 + t*beta^d*theta2 with (s, t) = (t2, -t1), the
    T_0s: its window at alpha is t2*w1 - t1*w2, whose T_0 is dropped.  O(n + k), no polynomial.
    """
    for _ in range(len(theta1) - k):
        if d1 < d2:
            d1, d2, theta1, theta2 = d2, d1, theta2, theta1
        t1, t2 = theta1[k], theta2[k]
        if not t2:
            d1, theta2 = d1 + 1, theta2[:k] + theta2[k + 1 :]
        else:
            v = theta2
            for _ in range(d1 - d2 if k and t1 else 0):  # times beta = alpha' + beta': T_i + T_(i-1)
                v = [s + t for s, t in zip(v[:k], [0, *v])] + v[k:]
            if p:
                theta1 = [(t2 * s - t1 * t) % p for s, t in zip(theta1, v)]
            else:
                theta1 = [t2 * s - t1 * t for s, t in zip(theta1, v)]
                if (c := gcd(*theta1)) > 1:  # divided by its content over Q
                    theta1 = [s // c for s in theta1]
            del theta1[k]
            d2 += 1
        yield d1, d2, theta1, theta2


def _ramp_degrees(theta1, theta2, line, upto):
    """The degree pairs :func:`_ramp` yields: the kernel's windows of theta_i(form), then :func:`_window_ramp`."""
    a, b, p = line
    windows = (list(taylor_window(apply(*theta, a, b, p), a, b, p, upto)) for theta in (theta1, theta2))
    return ((d1, d2) for d1, d2, _, _ in _window_ramp(*windows, len(theta1[0]) - 1, len(theta2[0]) - 1, p))


def _run_chain(items, observer=None):
    """Fold :func:`_step` from (d/dx, d/dy) through ``(form, mult)`` items: the two ``(f, g)`` members.

    Each hyperplane, in the order given, is ramped from multiplicity 0 to
    its target, and the members' f and g are rebuilt once at its end.
    ``observer(form, mult, branch, degrees_before, degrees_after)`` is
    invoked after every step when supplied.
    """
    theta1, theta2 = ((1,), (0,)), ((0,), (1,))
    for form, upto in items:
        line = _line(form)
        before = (len(theta1[0]) - 1, len(theta2[0]) - 1)
        for mult, (new1, new2, branch) in enumerate(_ramp(theta1, theta2, line, upto)):
            if observer is not None:
                after = (new1[2], new2[2])
                observer(form, mult, branch, before, after)
                before = after
        theta1, theta2 = (_out_of_frame(theta, line, upto) for theta in (new1, new2))
    return theta1, theta2


def build_basis(arrangement: Multiarrangement) -> BasisPair:
    """A homogeneous basis of D(A, mu), built one multiplicity at a time."""
    return _pair(arrangement.field, *_run_chain(arrangement.items()))


def exponents(arrangement: Multiarrangement) -> tuple[int, int]:
    """The exponents of the arrangement: basis degrees, largest first.

    Any homogeneous basis has them as degrees, so the last hyperplane ramps
    on Taylor windows of the chain's members and divides no polynomial
    (:func:`_ramp_degrees`).
    """
    items = arrangement.items()
    theta1, theta2 = _run_chain(items[:-1])
    degrees = (len(theta1[0]) - 1, len(theta2[0]) - 1)
    if items:
        *_, degrees = _ramp_degrees(theta1, theta2, _line(items[-1][0]), items[-1][1])
    return tuple(sorted(degrees, reverse=True))
