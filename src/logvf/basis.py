"""Construction and verification of homogeneous bases for D(A, mu).

In two variables D(A, mu) is always free of rank 2, so a basis is a pair of
derivations.  ``update_basis`` turns a basis for one arrangement into a basis
for the arrangement with a single multiplicity raised by one; ``build_basis``
iterates that step from the empty arrangement, whose basis is (d/dx, d/dy).
Correctness of a claimed pair is decided by Saito's criterion.
"""

from __future__ import annotations

import enum
from itertools import accumulate, chain, islice, repeat
from math import gcd

from .arrangement import LinearForm, Multiarrangement
from .derivation import Derivation, _line, apply, determinant_coefficient, saito_determinant
from .poly import HomogPoly, InexactDivisionError, barrett, div_linear, div_linear_power, eval_raw, pack_residues
from .poly import reduce_packed, residue_width, taylor_window, times_linear, times_linear_power, unpack_residues


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

    def determinant(self) -> HomogPoly:
        return saito_determinant(self.theta1, self.theta2)

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
    """The BasisPair of two chain members, each an ``(f, g)`` pair of coefficient tuples."""
    polys = [HomogPoly._raw(field, cs) for cs in (*theta1, *theta2)]
    return BasisPair(Derivation(*polys[:2]), Derivation(*polys[2:]))


def _partner(a, b):
    """``(c, e)`` with a*e - b*c = 1, for a form a*x + b*y with a >= 1 and gcd(a, b) = 1 ((0, 1) when a = 1)."""
    c = -pow(b, -1, a)
    return c, (1 + b * c) // a


def _into_frame(theta, line):
    """An ``(f, g)`` member as the ramp of a form alpha carries it: ``(theta(alpha), degree, theta(beta))``.

    beta is y for x + c*y (c = 0 for x), x for y, and :func:`_partner` for a non-monic
    form, so det(alpha, beta) = +-1.  A non-monic form carries g too, whose
    top coefficient signs the member: a*theta(beta) - c*theta(alpha) would
    need theta(alpha) in full, as their tops cancel when y is in A.  Over
    F_p theta(beta) is packed into one int (:func:`poly.residue_width`).
    """
    f, g = theta
    a, b, p = line
    u, v = (g, f) if not a else (apply(f, g, a, b, p), g)
    if a > 1:  # non-monic, so over Q
        return u, len(f) - 1, apply(f, g, *_partner(a, b), p), g
    return u, len(f) - 1, pack_residues(v, p) if p else v


def _out_of_frame(member, line):
    """The ``(f, g)`` of a member ``(theta(alpha)/alpha^k, degree, theta(beta), ...)`` in the frame of ``line``."""
    u, degree, v = member[:3]
    a, b, p = line
    if p:
        v = unpack_residues(v, degree + 1, p)
    h = times_linear_power(u, a, b, p, degree + 1 - len(u))  # theta(alpha)
    if not a:
        return v, h
    e, pairs = _partner(a, b)[1], zip(h, v)  # f = e*theta(alpha) - b*theta(beta), e = 1 for a monic form
    f = [(e * s - b * t) % p for s, t in pairs] if p else [e * s - b * t for s, t in pairs]
    return tuple(f), member[3] if a > 1 else v


def _primitive(member, line):
    """A member over Q divided by the signed content of its ``(f, g)``, signed as ``derivation.primitive``.

    The frame is unimodular and the form primitive, so by Gauss's lemma the
    content of (f, g) is gcd(u, v).  The sign is that of g's highest nonzero
    x-coefficient, else f's.  g is v for x + c*y, u*y^k for y and carried
    for a non-monic form.  Where g is zero, f is u*alpha^k (over a for a
    non-monic form), whose top coefficient has the sign of u's.
    """
    u, degree, v, *rest = member
    a = line[0]
    g, f = (v, u) if a == 1 else (u, v) if not a else (rest[0], u)
    k = gcd(*u, *v)
    if (next(filter(None, reversed(g)), 0) or next(filter(None, reversed(f)))) < 0:
        k = -k
    if k == 1:
        return member
    u, v, *rest = (tuple([c // k for c in cs]) for cs in (u, v, *rest))
    return u, degree, v, *rest


def _step(theta1, theta2, line, div1, div2, kit):
    """One multiplicity-raising update; the engine behind the public operations.

    ``line`` is :func:`_line` of a form alpha of multiplicity k, and each
    member is a tuple ``(theta(alpha)/alpha^k, degree, theta(beta), ...)``
    in the frame of :func:`_into_frame`; all but the quotient and the
    degree are linear images of (f, g).  (theta1, theta2) must be a basis
    of D(A, mu); the returned ``(theta1', theta2', branch, div1', div2')``
    is a basis at k + 1 in the same frame.  A ``div`` is None or the
    division of that member's quotient by alpha that :func:`_advance`
    already made; a step hands on the one of the quotient it leaves
    unchanged.  Over Q both members must be primitive integer derivations,
    like every member returned: by Gauss's lemma their products with the
    primitive form stay primitive, with the same sign, so only the generic
    combination is reduced and every value stays an integer.  Over F_p the
    image is packed, ``kit`` is :func:`poly.barrett`'s for at least degree
    + 2 slots (None over Q), and the generic g1 + q*g2 is one product by q
    packed.  Every division is remainder-checked: a violated precondition
    raises InexactDivisionError rather than giving a wrong answer.
    """
    if theta1[1] < theta2[1]:
        theta1, theta2, div1, div2 = theta2, theta1, div2, div1
    a, b, p = line
    d = theta1[1] - theta2[1]
    branch, u1, u2, num, den, div = _advance(theta1[0], theta2[0], line, d, div1, div2)
    if branch is Branch.G_VANISHING:
        theta1 = (u1, theta1[1] + 1, *_times_form(theta1[2:], line, kit))
        return theta1, (u2, *theta2[1:]), branch, div, None
    images = theta2[2:]
    theta2 = (u2, theta2[1] + 1, *_times_form(images, line, kit))
    if branch is Branch.F_VANISHING:
        return (u1, *theta1[1:]), theta2, branch, None, div
    if p:  # primitive() is the identity over F_p; q as in _plus_q_times, with den = 1
        q = pack_residues((num,) + (1,) * d if a else (0,) * d + (num,), p)
        return (u1, theta1[1], reduce_packed(theta1[2] + images[0] * q, p, kit)), theta2, branch, None, div
    theta1 = (u1, theta1[1], *[_plus_q_times(s, t, num, den, a, p) for s, t in zip(theta1[2:], images)])
    return _primitive(theta1, line), theta2, branch, None, div


def _times_form(images, line, kit):
    """A member's images times the form: tuples over Q; over F_p the packed image times y, x or x + b*y."""
    a, b, p = line
    if not p:
        return [times_linear(t, a, b, p) for t in images]
    v, w = images[0], 8 * residue_width(p)
    return [v if not a else v << w if not b else reduce_packed(v * (b % p) + (v << w), p, kit)]


def _advance(f_quot, g_quot, line, d, f_div, g_div):
    """:func:`_step` on the quotients alone: ``(branch, f', g', num, den, div)``.

    The quotients belong to a pair whose degrees differ by ``d`` >= 0,
    larger first, and ``f_div``/``g_div`` are None or their divisions by the
    form: ``(quotient, remainder)``, or ``(None, value)`` for a non-monic
    form.  A generic f' is (den*f + q*g) / form, not yet reduced; num and
    den, which fix q, are None in the other branches.  ``div`` is the
    division of the quotient left unchanged: f's (``f_div``) on a
    g-vanishing step, g's otherwise.

    A monic form (every form over F_p; y and x + c*y over Q) divides each
    quotient once and branches on the remainder r: h = form*Q + r*y^deg is
    (-1)^deg * r at the kernel point (h = y*Q + r*x^deg is r for y).  A
    generic step reuses both divisions, since den*f + q*g equals
    form*(den*Qf + q*Qg) + y^deg(g) * (den*rf*y^d + rg*q): it adds the
    bracket's exact quotient by the form to the first d coefficients.  A
    non-monic form over Q evaluates first: dividing by it can leave Z.
    """
    ax, ay, p = line
    px, py = ay, -ax % p if p else -ax
    monic = ax < 2
    qg, g_val = g_div or (div_linear(g_quot, ax, ay, p) if monic else (None, eval_raw(g_quot, px, py, p)))

    if not g_val:
        # form^(mult+1) already divides theta2(form): multiply theta1 instead
        g_quot = qg if monic else div_linear_power(g_quot, ax, ay, p, 1)
        return Branch.G_VANISHING, f_quot, g_quot, None, None, f_div

    qf, f_val = f_div or (div_linear(f_quot, ax, ay, p) if monic else (None, eval_raw(f_quot, px, py, p)))

    if not f_val:
        # form^(mult+1) already divides theta1(form): multiply theta2 instead
        f_quot = qf if monic else div_linear_power(f_quot, ax, ay, p, 1)
        return Branch.F_VANISHING, f_quot, g_quot, None, None, (qg, g_val)

    # generic case: clear the obstruction with den*theta1 + q*theta2, for the
    # q of _plus_q_times, and num/den making (den*f + q*g)(point) = 0
    rf, rg = f_val, g_val
    if monic and py and d % 2:
        f_val = -f_val  # the values are (-1)^deg times these; only the ratio counts
    if py:  # tail = px^d + px^(d-1)*py + ... + px*py^(d-1): a geometric series, or d*px^d when px = py (x - y)
        xd, yd, gap = pow(px, d, p or None), pow(py, d, p or None), (px - py) % p if p else px - py
        tail = (px * (xd - yd) * pow(gap, -1, p) if p else px * (xd - yd) // gap) if gap else d * xd
        num, den = -f_val - tail * g_val, g_val * yd
    else:
        # form is y, kernel point (1, 0)
        num, den = -f_val, g_val
    if p:
        num, den = num * pow(den, -1, p) % p, 1
    else:
        c = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den = num // c, den // c
    if not monic:
        f_quot = div_linear_power(_plus_q_times(f_quot, g_quot, num, den, ax, p), ax, ay, p, 1)
        return Branch.GENERIC, f_quot, g_quot, num, den, (qg, g_val)

    # synthetic division of the bracket from x^d (each coefficient above y^d
    # is den*rg) gives den*t_j on x^j y^(d-1-j), t_(d-1) = rg and t_(j-1) =
    # rg - ay*t_j, and leaves den*(rf - ay*t_0) + num*rg, which must vanish
    t = 0
    if py and d:
        cs = list(qf)
        for j in range(d - 1, -1, -1):
            t = (rg - ay * t) % p if p else rg - ay * t
            cs[j] += t
        qf = tuple(cs)
    r = den * (rf - ay * t) + num * rg
    if r % p if p else r:
        raise InexactDivisionError(f"({ax}*x + {ay}*y) does not divide the generic combination")
    f_quot = _plus_q_times(qf, qg, num, den, ax, p)
    return Branch.GENERIC, f_quot, g_quot, num, den, (qg, g_val)


def _plus_q_times(B, h, num, den, ax, p):
    """``den*B + q*h`` on coefficient tuples, for the q of :func:`_advance`'s generic branch.

    q has degree d = deg B - deg h and is ``num*x^d`` when ``ax`` is 0 (the
    form is y), else ``num*y^d + den*(x^d + ... + x*y^(d-1))``.  Over F_p,
    den must be 1.  q is never built: the x^k coefficient of den*B + q*h is
    den*(B_k + W_k) + num*h_k with the window sum W_k = h_(k-d) + ... +
    h_(k-1) (den*B_k + num*h_(k-d) for num*x^d), read off prefix sums in
    O(deg) where a dense product costs O(deg*d).
    """
    d = len(B) - len(h)
    if not ax:
        # q*h is num*h moved up by d powers of x
        pairs = zip(B, chain(repeat(0, d), h))
        if p:
            return tuple([(b + num * c) % p for b, c in pairs])
        return tuple([den * b + num * c for b, c in pairs])
    if d > 1:
        # W_k = s[min(k, n)] - s[max(k - d, 0)] over the prefix sums s of h
        s = list(accumulate(h, initial=0))
        n = len(h)
        hi = chain(s, repeat(s[n], d - 1))
        lo = chain(repeat(0, d), islice(s, n))
        quads = zip(B, hi, lo, chain(h, repeat(0, d)))
        if p:
            return tuple([(b + u - v + num * c) % p for b, u, v, c in quads])
        return tuple([den * (b + u - v) + num * c for b, u, v, c in quads])
    # W_k is h_(k-1) when d is 1 and empty when d is 0: no prefix sums
    triples = zip(B, chain((0,), h) if d else repeat(0), chain(h, repeat(0, d)))
    if p:
        return tuple([(b + w + num * c) % p for b, w, c in triples])
    return tuple([den * (b + w) + num * c for b, w, c in triples])


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
    a, b, p = line = _line(form)
    members = []
    for theta in (theta.primitive()[0] for theta in pair):
        u, *rest = _into_frame((theta.f.coeffs, theta.g.coeffs), line)
        members.append((div_linear_power(u, a, b, p, mult), *rest))
    theta1, theta2, _, _, _ = _step(*members, line, None, None, barrett(p, pair.theta1.degree + 2) if p else None)
    return _pair(pair.field, *(_out_of_frame(theta, line) for theta in (theta1, theta2)))


def _ramp(theta1, theta2, line, upto):
    """Raise the multiplicity of a hyperplane from 0 to ``upto``, one step at a time.

    (theta1, theta2) must be ``(f, g)`` members of a basis of an arrangement
    without it.  Yields ``(theta1', theta2', branch)``, the k-th pair a basis
    at multiplicity k in the frame of :func:`_into_frame`, whose ``(f, g)``
    :func:`_out_of_frame` rebuilds; each step hands on its division.  Over
    F_p the Barrett constants are built once, for the ramp's longest vector.
    """
    p = line[2]
    kit = barrett(p, max(len(theta1[0]), len(theta2[0])) + upto) if p else None
    theta1, theta2 = _into_frame(theta1, line), _into_frame(theta2, line)
    div1 = div2 = None
    for _ in range(upto):
        theta1, theta2, branch, div1, div2 = _step(theta1, theta2, line, div1, div2, kit)
        yield theta1, theta2, branch


def _window_ramp(theta1, theta2, d1, d2, p, k=0):
    """A ramp on Taylor windows (:func:`poly.taylor_window`): ``(d1, d2, theta1, theta2)`` after each of n steps.

    A member of degree d is k carried entries, Taylor coefficients at alpha' in a frame (alpha', beta')
    with beta = alpha' + beta', then theta(alpha)'s first n.  Degrees are invariants of D(A, mu), so any
    q clearing the obstruction will do: branching as :func:`_advance` does, the generic step takes
    theta1' = t2*theta1 - t1*beta^d*theta2 (t_i the T_0s), whose window at alpha is t2*w1 - t1*w2, and
    drops its T_0: O(n + k), no polynomial.
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
                after = (new1[1], new2[1])
                observer(form, mult, branch, before, after)
                before = after
        theta1, theta2 = (_out_of_frame(theta, line) for theta in (new1, new2))
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
