"""Shared randomized-arrangement generators for the test suite.

Everything is driven by explicitly seeded ``random.Random`` instances so that
every test run sees the same inputs.
"""

import random

from logvf import (
    Field,
    LinearForm,
    Multiarrangement,
    RATIONALS,
    all_hyperplanes,
    build_basis,
)

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
