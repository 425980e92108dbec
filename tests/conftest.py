"""Shared randomized-arrangement generators for the test suite.

Everything is driven by explicitly seeded ``random.Random`` instances so that
every test run sees the same inputs.
"""

import random
from math import gcd

from logvf import (
    Field,
    LinearForm,
    Multiarrangement,
    RATIONALS,
    all_hyperplanes,
    build_basis,
)
from logvf.basis import Branch, _line
from logvf.derivation import apply, primitive
from logvf.poly import div_linear_power, eval_raw, times_linear

FIELDS = [RATIONALS, Field(2), Field(3), Field(5), Field(7)]
PRIME_FIELDS = FIELDS[1:]


def rational_form_pool(limit=3):
    """Distinct normalized forms over Q with coefficients in [-limit, limit]."""
    seen = set()
    pool = []
    for a in range(-limit, limit + 1):
        for b in range(-limit, limit + 1):
            if a == 0 and b == 0:
                continue
            form = LinearForm(RATIONALS, a, b)
            key = form.sort_key()
            if key not in seen:
                seen.add(key)
                pool.append(form)
    pool.sort(key=LinearForm.sort_key)
    return pool


_Q_POOL = rational_form_pool()


def form_pool(field):
    return all_hyperplanes(field) if field.characteristic else _Q_POOL


def random_arrangement(rng, field=None, max_forms=5, max_total=12, min_forms=0):
    """A random arrangement with at most max_forms hyperplanes and |mu| <= max_total."""
    if field is None:
        field = rng.choice(FIELDS)
    pool = form_pool(field)
    count = rng.randint(min_forms, min(max_forms, len(pool)))
    forms = rng.sample(pool, count)
    mult = {f: 1 for f in forms}
    extra = rng.randint(0, max_total - count) if count else 0
    for _ in range(extra):
        mult[rng.choice(forms)] += 1
    return Multiarrangement(field, mult)


def random_dominant_arrangement(rng, field=None, max_others=4, max_other_total=8):
    """An arrangement with one hyperplane carrying at least half the total weight.

    Returns (arrangement, dominant_form); sometimes the dominant weight equals
    exactly half the total, exercising the boundary of the closed form.
    """
    if field is None:
        field = rng.choice(FIELDS)
    pool = form_pool(field)
    dominant = rng.choice(pool)
    others = [f for f in pool if f != dominant]
    count = rng.randint(0, min(max_others, len(others)))
    mult = {f: 1 for f in rng.sample(others, count)}
    extra = rng.randint(0, max_other_total - count) if count else 0
    for _ in range(extra):
        mult[rng.choice(list(mult))] += 1
    rest = sum(mult.values())
    mult[dominant] = max(1, rest + rng.randint(0, 3))
    return Multiarrangement(field, mult), dominant


def sample_arrangements(seed, count, **kwargs):
    """The deterministic batch shared by the acceptance criteria."""
    rng = random.Random(seed)
    return [random_arrangement(rng, **kwargs) for _ in range(count)]


def random_difference_one_arrangement(rng):
    """A rational arrangement whose exponents differ by exactly one.

    Sampling is by rejection; arrangements whose smaller basis member is a
    polynomial multiple of the Euler derivation admit no generic form, so the
    caller may still need to skip those.
    """
    while True:
        arr = random_arrangement(rng, field=RATIONALS, min_forms=1)
        d1, d2 = build_basis(arr).degrees()
        if d1 - d2 == 1:
            return arr


def dense_product(a, b, p):
    """The product of two coefficient tuples by a plain double loop (reduced mod p when p > 0).

    A reference that shares no code with the library: it neither calls
    ``HomogPoly.__mul__`` nor collapses integral Fractions to ints.
    """
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(c % p for c in out) if p else tuple(out)


def dense_determinant(theta1, theta2):
    """The coefficient tuple of f1*g2 - f2*g1, from two :func:`dense_product` calls."""
    p = theta1.field.characteristic
    plus = dense_product(theta1.f.coeffs, theta2.g.coeffs, p)
    minus = dense_product(theta2.f.coeffs, theta1.g.coeffs, p)
    return tuple((s - t) % p if p else s - t for s, t in zip(plus, minus))


# ----------------------------------------------------------------------
# the reference chain: the update step as it ran on (f, g) members, with the
# quotients theta_i(alpha)/alpha^m carried beside them and every tuple
# rewritten at every step.  The library's chain carries each member in the
# frame of the line being ramped instead; its bases, branches and degrees
# must equal these.
# ----------------------------------------------------------------------


def beta_power(line, d):
    """The coefficient tuple of beta^d, with beta = x for the form y and y for any other form."""
    return (1,) + (0,) * d if line[0] else (0,) * d + (1,)


def plus_beta_power(v, w, s, t, line):
    """``s*v + t*beta^d*w`` for coefficient tuples, d = deg v - deg w, through :func:`dense_product`."""
    p = line[2]
    product = dense_product(beta_power(line, len(v) - len(w)), w, p)
    return tuple((s * a + t * b) % p if p else s * a + t * b for a, b in zip(v, product))


def reference_step(theta1, theta2, line, f_quot, g_quot):
    """One multiplicity-raising update on ``(f, g)`` members: the reference for ``basis._step``.

    Members are ``(f, g)`` pairs of coefficient tuples of equal length and
    ``line`` is :func:`_line` of the form.  (theta1, theta2) must be a basis
    of D(A, mu) where the form has multiplicity mult, and ``f_quot``/``g_quot``
    must equal theta_i(form) / form^mult.  The returned ``(theta1', theta2',
    branch, f', g')`` holds a basis for mult + 1 and its quotients by
    form^(mult+1), so a ramp never recomputes them.  Over Q both members must
    be primitive integer derivations, like every member returned: by Gauss's
    lemma their products with the primitive form stay primitive, with the
    same sign, so only the generic combination is reduced and every value
    stays an integer.  Every division is remainder-checked: a violated
    precondition raises InexactDivisionError rather than giving a wrong answer.
    """
    if len(theta1[0]) < len(theta2[0]):
        theta1, theta2 = theta2, theta1
        f_quot, g_quot = g_quot, f_quot
    (f1, g1), (f2, g2) = theta1, theta2
    a, b, p = line
    branch, f_quot, g_quot, s, t = reference_advance(f_quot, g_quot, line, len(f1) - len(f2))
    if branch is Branch.G_VANISHING:
        return (times_linear(f1, a, b, p), times_linear(g1, a, b, p)), theta2, branch, f_quot, g_quot
    theta2 = (times_linear(f2, a, b, p), times_linear(g2, a, b, p))
    if branch is Branch.F_VANISHING:
        return theta1, theta2, branch, f_quot, g_quot
    f1, g1 = plus_beta_power(f1, f2, s, t, line), plus_beta_power(g1, g2, s, t, line)
    if not p:  # primitive() is the identity over F_p
        f1, g1, k = primitive(f1, g1)
        if k != 1:
            # primitive() divided theta1' by an integer content; f' follows exactly
            f_quot = tuple([c // k for c in f_quot])
    return (f1, g1), theta2, branch, f_quot, g_quot


def reference_advance(f_quot, g_quot, line, d):
    """:func:`reference_step` on the quotients alone: ``(branch, f', g', s, t)``.

    The quotients belong to a pair whose degrees differ by ``d`` >= 0,
    larger first.  Both are evaluated at the kernel point P = (-ay, ax) and
    divided by the form only where their value is 0.  A generic step takes
    theta1' = s*theta1 + t*beta^d*theta2 with s*f(P) + t*beta(P)^d*g(P) = 0:
    s = 1 over F_p, (s, t) coprime over Q.  Its f' is that combination of
    the quotients divided by the form, not yet reduced; s and t are None in
    the other branches.
    """
    ax, ay, p = line
    px, py = -ay % p if p else -ay, ax
    g_val = eval_raw(g_quot, px, py, p)
    if not g_val:
        # form^(mult+1) already divides theta2(form): multiply theta1 instead
        return Branch.G_VANISHING, f_quot, div_linear_power(g_quot, ax, ay, p, 1), None, None
    f_val = eval_raw(f_quot, px, py, p)
    if not f_val:
        # form^(mult+1) already divides theta1(form): multiply theta2 instead
        return Branch.F_VANISHING, div_linear_power(f_quot, ax, ay, p, 1), g_quot, None, None
    g_val *= pow(py if ax else px, d, p or None)  # beta(P)^d
    if p:
        s, t = 1, -f_val * pow(g_val, -1, p) % p
    else:
        k = gcd(f_val, g_val)
        s, t = g_val // k, -f_val // k
    f_quot = div_linear_power(plus_beta_power(f_quot, g_quot, s, t, line), ax, ay, p, 1)
    return Branch.GENERIC, f_quot, g_quot, s, t


def reference_ramp(theta1, theta2, line, upto):
    """Raise the multiplicity of a hyperplane from 0 to ``upto``, one step at a time.

    (theta1, theta2) must be a basis of an arrangement without it.  Yields
    ``(theta1', theta2', branch)``, the k-th pair a basis at multiplicity k,
    carrying the quotients of :func:`reference_step` from one step to the next.
    """
    f_quot, g_quot = (apply(*theta, *line) for theta in (theta1, theta2))
    for _ in range(upto):
        theta1, theta2, branch, f_quot, g_quot = reference_step(theta1, theta2, line, f_quot, g_quot)
        yield theta1, theta2, branch


def reference_chain(items, observer=None):
    """Fold :func:`reference_step` from (d/dx, d/dy) through ``(form, mult)`` items: the two members.

    Each hyperplane, in the order given, is ramped from multiplicity 0 to
    its target.  ``observer(form, mult, branch, degrees_before,
    degrees_after)`` is invoked after every step when supplied.
    """
    theta1, theta2 = ((1,), (0,)), ((0,), (1,))
    for form, upto in items:
        ramp = reference_ramp(theta1, theta2, _line(form), upto)
        for mult, (new1, new2, branch) in enumerate(ramp):
            if observer is not None:
                before = (len(theta1[0]) - 1, len(theta2[0]) - 1)
                observer(form, mult, branch, before, (len(new1[0]) - 1, len(new2[0]) - 1))
            theta1, theta2 = new1, new2
    return theta1, theta2


def reference_basis(arrangement):
    """The ``(f, g)`` members :func:`reference_chain` builds for an arrangement."""
    return reference_chain(arrangement.items())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance one-liners past pytest's output capture."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
