"""Property tests of the coefficient-tuple kernels the basis chain runs on.

Each kernel is checked against an independent route: the dense product
``HomogPoly.__mul__``, the scale-and-add of ``HomogPoly``, exact Fraction
arithmetic, the Derivation method that wraps it, or, for the product by a
power of a form, that many products by the form, or for the Taylor test of
divisibility and the Taylor windows, that many divisions by the form, or for packed residue
vectors, ``% p`` on each slot.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logvf import Derivation, Field, HomogPoly, InexactDivisionError, LinearForm, RATIONALS
from logvf.derivation import apply, primitive
from logvf.poly import _packed_product, div_linear, div_linear_power, eval_raw, pack_residues, reduce_packed
from logvf.poly import residue_width, taylor_window, times_linear, times_linear_power, unpack_residues

from conftest import dense_product

FIELDS = [RATIONALS, Field(7), Field(101), Field(2**31 - 1)]

ints = st.integers(-10**6, 10**6)
coeff_lists = st.lists(ints, min_size=1, max_size=25)
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def raw_form(field, ax, ay):
    """The normal form of ax*x + ay*y (x when both are zero) as ``(a, b, p)``."""
    form = LinearForm(field, ax, ay) if ax or ay else LinearForm(field, 1, 0)
    return form.ax, form.ay, field.characteristic


def reduce(cs, p):
    return tuple(c % p for c in cs) if p else tuple(cs)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FIELDS), coeffs=coeff_lists, ax=st.integers(-6, 6), ay=st.integers(-6, 6))
def test_dividing_a_product_by_the_form_gives_the_polynomial_back(field, coeffs, ax, ay):
    # over Q the form is a primitive integer pair, non-monic when ax > 1
    a, b, p = raw_form(field, ax, ay)
    cs = reduce(coeffs, p)
    product = times_linear(cs, a, b, p)
    assert product == (HomogPoly(field, cs) * HomogPoly(field, [b, a])).coeffs
    q, r = div_linear(product, a, b, p)
    assert r == 0 and q == cs
    # Gauss's lemma: an integer quotient by a primitive form stays integral
    assert all(type(c) is int for c in q)


@settings(max_examples=100, deadline=None)
@given(coeffs=coeff_lists, ax=st.integers(2, 6), ay=st.integers(-6, 6), power=st.integers(0, 4))
def test_non_monic_powers_divide_exactly_and_one_more_is_refused(coeffs, ax, ay, power):
    a, b, p = raw_form(RATIONALS, ax, ay)
    cs = tuple(coeffs)
    h = cs
    for _ in range(power):
        h = times_linear(h, a, b, p)
    assert div_linear_power(h, a, b, p, power) == cs
    if eval_raw(cs, b, -a, p):  # the form does not divide cs itself
        with pytest.raises(InexactDivisionError):
            div_linear_power(h, a, b, p, power + 1)


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(st.one_of(ints, fractions), min_size=2, max_size=15), ax=st.integers(2, 6), ay=st.integers(-6, 6))
def test_fraction_fallback_of_the_division_is_exact(coeffs, ax, ay):
    # a remainder the integers cannot absorb moves the quotient into Q;
    # h = form*q + r*y^deg holds exactly either way
    a, b, p = raw_form(RATIONALS, ax, ay)
    h = HomogPoly(RATIONALS, coeffs)
    q, r = div_linear(h.coeffs, a, b, p)
    rest = HomogPoly.monomial(RATIONALS, h.degree, 0, r)
    assert HomogPoly(RATIONALS, times_linear(q, a, b, p)) + rest == h
    if r:
        assert not eval_raw(times_linear(q, a, b, p), b, -a, p)
        assert eval_raw(h.coeffs, b, -a, p)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(FIELDS), coeffs=coeff_lists, x=st.integers(-9, 9), y=st.integers(-9, 9))
def test_evaluation_matches_the_monomial_sum(field, coeffs, x, y):
    p = field.characteristic
    cs = reduce(coeffs, p)
    d = len(cs) - 1
    value = sum(c * Fraction(x) ** j * Fraction(y) ** (d - j) for j, c in enumerate(cs))
    assert eval_raw(cs, x % p if p else x, y % p if p else y, p) == (value % p if p else value)


@settings(max_examples=100, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    pair=st.integers(0, 12).flatmap(lambda d: st.tuples(*[st.lists(ints, min_size=d + 1, max_size=d + 1)] * 2)),
    ax=st.integers(-6, 6),
    ay=st.integers(-6, 6),
)
def test_tuple_apply_equals_scale_and_add_and_the_method(field, pair, ax, ay):
    a, b, p = raw_form(field, ax, ay)
    f, g = (HomogPoly(field, cs) for cs in pair)
    h = apply(f.coeffs, g.coeffs, a, b, p)
    assert h == (f.scale(a) + g.scale(b)).coeffs
    if f.is_zero() and g.is_zero():
        return
    form = LinearForm(field, a, b)
    assert h == Derivation(f, g).apply(form).coeffs


@settings(max_examples=100, deadline=None)
@given(
    pair=st.integers(0, 12).flatmap(lambda d: st.tuples(*[st.lists(ints, min_size=d + 1, max_size=d + 1)] * 2)),
    scale=st.integers(-40, 40).filter(bool),
)
def test_tuple_primitive_equals_the_method(pair, scale):
    f, g = (tuple(scale * c for c in cs) for cs in pair)
    if not any(f + g):
        return
    rf, rg, k = primitive(f, g)
    # an independent check: coprime, trailing coefficient positive, f = k*f'
    assert math.gcd(*rf, *rg) == 1
    assert next(c for c in reversed(rf + rg) if c) > 0
    assert tuple(k * c for c in rf) == f and tuple(k * c for c in rg) == g
    reduced, factor = Derivation(HomogPoly(RATIONALS, f), HomogPoly(RATIONALS, g)).primitive()
    assert (reduced.f.coeffs, reduced.g.coeffs) == (rf, rg)
    assert factor == Fraction(1, k)


@given(pair=st.tuples(*[st.lists(fractions, min_size=3, max_size=3)] * 2))
def test_method_primitive_clears_denominators_before_the_kernel(pair):
    theta_f, theta_g = (HomogPoly(RATIONALS, cs) for cs in pair)
    if theta_f.is_zero() and theta_g.is_zero():
        return
    reduced, factor = Derivation(theta_f, theta_g).primitive()
    assert all(type(c) is int for c in reduced.f.coeffs + reduced.g.coeffs)
    assert reduced == Derivation(theta_f.scale(factor), theta_g.scale(factor))


# ----------------------------------------------------------------------
# the product by a power of the form, against k calls of times_linear
# ----------------------------------------------------------------------

# forms in normal form over Q with a in {0, 1, 2, 3} and b in [-3, 3]
Q_FORMS = [(0, 1)] + [(a, b) for a in (1, 2, 3) for b in range(-3, 4) if math.gcd(a, b) == 1]
# 2^64 - 59, the largest prime below 2^64, packs 64-bit struct words into 17-byte slots;
# 2^64 + 13 packs through int.to_bytes
POWER_PRIMES = [2, 3, 7, 101, 2**31 - 1, 2**64 - 59, 2**64 + 13]
POWERS = [0, 1, 2, 3, 4, 150]


def power_by_steps(cs, a, b, p, k):
    for _ in range(k):
        cs = times_linear(cs, a, b, p)
    return cs


signed_big = st.integers(0, 300).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))


@settings(max_examples=150, deadline=None)
@given(
    cs=st.one_of(
        st.lists(signed_big, min_size=1, max_size=20),
        st.integers(1, 20).map(lambda n: [0] * n),  # all-zero tuples
        signed_big.map(lambda c: [c]),  # single coefficients
    ),
    form=st.sampled_from(Q_FORMS),
    k=st.sampled_from(POWERS),
)
def test_power_product_matches_repeated_products_over_q(cs, form, k):
    a, b = form
    cs = tuple(cs)
    assert times_linear_power(cs, a, b, 0, k) == power_by_steps(cs, a, b, 0, k)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(POWER_PRIMES),
    data=st.data(),
    k=st.sampled_from(POWERS),
)
def test_power_product_matches_repeated_products_over_fp(p, data, k):
    b = data.draw(st.integers(0, p - 1))
    a, b = data.draw(st.sampled_from([(0, 1), (1, b)]))
    cs = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=20)))
    out = times_linear_power(cs, a, b, p, k)
    assert out == power_by_steps(cs, a, b, p, k)
    assert all(type(c) is int and 0 <= c < p for c in out)


def test_power_product_on_seeded_tuples():
    rng = random.Random(29)
    cases = 0
    for _ in range(400):
        p = rng.choice([0, 0] + POWER_PRIMES)
        k = rng.choice(POWERS + [rng.randint(3, 40)])
        n = rng.randint(1, 30)
        if p:
            a, b = rng.choice([(0, 1), (1, 0), (1, rng.randrange(p))])
            cs = tuple(rng.randrange(p) for _ in range(n))
        else:
            a, b = rng.choice(Q_FORMS)
            bits = rng.choice([0, 1, 30, 64, 300])
            cs = tuple(rng.randint(-(2**bits), 2**bits) for _ in range(n))
        assert times_linear_power(cs, a, b, p, k) == power_by_steps(cs, a, b, p, k), (a, b, p, k)
        cases += 1
    assert cases == 400


@pytest.mark.parametrize("form", [(1, -1), (2, -3), (3, -1), (1, 3)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 150])
def test_power_product_at_the_slot_bound(form, k):
    # coefficients of largest size and alternating signs against a form with
    # b < 0 line up every product's sign: the result reaches max|c| * (|a| + |b|)^k
    # when the tuple is longer than k; eight consecutive sizes meet every byte alignment
    a, b = form
    for bits in (1, 64, 300, *range(56, 64)):
        top = 2**bits - 1
        cs = tuple(top if i % 2 else -top for i in range(25))
        out = times_linear_power(cs, a, b, 0, k)
        assert out == power_by_steps(cs, a, b, 0, k), bits
        if b < 0 and k < 25:
            assert max(map(abs, out)) == top * (a - b) ** k
    for p in POWER_PRIMES:
        full = (p - 1,) * 25
        assert times_linear_power(full, 1, p - 1, p, k) == power_by_steps(full, 1, p - 1, p, k)


@pytest.mark.parametrize("lengths", [(1, 1), (1, 30), (2, 9), (9, 9), (25, 7), (40, 40)])
def test_packed_product_over_q_at_the_slot_bound(lengths):
    # two signed factors, not a power row: with alternating signs every product in
    # a slot has the slot's sign, so the slots reach n * max|u| * max|v| in size,
    # n = min(len(u), len(v)), with both signs; eight consecutive sizes meet every
    # byte alignment, and windows with lo > 0 read slots above negative ones
    nu, nv = lengths
    for bits_u in (1, 8, 64, 300, *range(56, 64)):
        for bits_v in (1, 31, 64):
            top_u, top_v = 2**bits_u - 1, 2**bits_v - 1
            u = [top_u if i % 2 else -top_u for i in range(nu)]
            v = [-top_v if j % 2 else top_v for j in range(nv)]
            expected = dense_product(u, v, 0)
            m = len(expected)
            assert max(map(abs, expected)) == min(nu, nv) * top_u * top_v
            for lo, hi in {(0, m), (1, m), (m // 2, m), (m - 1, m), (m // 3, (2 * m) // 3 + 1)}:
                if lo < hi:
                    assert _packed_product(u, v, 0, lo, hi) == list(expected[lo:hi]), (bits_u, bits_v, lo, hi)


def test_packed_product_over_q_on_seeded_factors():
    rng = random.Random(37)
    for _ in range(300):
        bits_u, bits_v = rng.sample([0, 1, 7, 63, 64, 200], 2)
        u = [rng.randint(-(2**bits_u), 2**bits_u) for _ in range(rng.randint(1, 30))]
        v = [rng.randint(-(2**bits_v), 2**bits_v) for _ in range(rng.randint(1, 30))]
        expected = dense_product(u, v, 0)
        lo = rng.randrange(len(expected))
        hi = rng.randint(lo + 1, len(expected))
        assert _packed_product(u, v, 0, lo, hi) == list(expected[lo:hi])


# ----------------------------------------------------------------------
# Taylor windows at a form, against repeated division
# ----------------------------------------------------------------------


def division_remainders(h, a, b, p, n):
    """The remainders of n repeated divisions by the form: the Taylor coefficients in (a*x + b*y, y), or (y, x)."""
    out = []
    for _ in range(n):
        h, r = div_linear(h, a, b, p)
        out.append(r)
    return out


@pytest.mark.parametrize("p", [7, 13, 101, 10007, 2**31 - 1])
def test_taylor_test_matches_repeated_division(p):
    # h = (x + b*y)^k * q, perturbed in one coefficient half the time; every
    # m around k and D, and b as the residue in [0, p) and as b - p.  Below
    # degree p the window is one packed product, from degree p on suffix sums:
    # at p = 7 and 13 every h has degree p - 1 or p, either side of that bound
    rng = random.Random(p)
    divisible = cases = 0
    for _ in range(120):
        k, n = rng.randint(0, 30), rng.randint(1, 30)
        if p < 100:
            k = rng.randint(0, p - 1)
            n = rng.choice((p, p + 1)) - k
        b = rng.randrange(1, p)
        h = times_linear_power(tuple(rng.randrange(p) for _ in range(n)), 1, b, p, k)
        if rng.random() < 0.5:
            i = rng.randrange(len(h))
            h = h[:i] + ((h[i] + rng.randrange(1, p)) % p,) + h[i + 1 :]
        d = len(h) - 1
        for m in {0, max(k - 1, 0), k, k + 1, d, d + 1}:
            expected = division_remainders(h, 1, b, p, m)
            for residue in (b, b - p):
                assert list(taylor_window(h, 1, residue, p, m)) == expected, (b, k, m, d)
                cases += 1
            divisible += not any(expected)
    assert divisible > 100 and cases - 2 * divisible > 100  # both answers are exercised


WINDOW_FIELDS = [0, 2, 7, 13, 2**31 - 1, 2**64 + 13]


@pytest.mark.parametrize("p", WINDOW_FIELDS)
def test_taylor_window_matches_repeated_division(p):
    # h = form^k * q, zero a tenth of the time; n past D + 1, and over F_2, F_7
    # and F_13 degrees past p; over F_p b both as the residue and as b - p.  Kills a
    # degree-dependent sign, no zero padding, monic totals left undivided by (-b)^i
    # over Q and F_p entries left unreduced
    rng = random.Random(p + 1)
    forms = Q_FORMS + [(1, 0)] if not p else [(0, 1), (1, 0)] + [(1, rng.randrange(1, p)) for _ in range(6)]
    for _ in range(150):
        a, b = rng.choice(forms)
        d = rng.randint(0, 45)
        q = [rng.randint(-99, 99) % p if p else rng.randint(-99, 99) for _ in range(d + 1)]
        k = rng.randint(0, d)
        h = times_linear_power(tuple(q[: d + 1 - k]), a, b, p, k) if rng.random() < 0.9 else (0,) * (d + 1)
        n = rng.randint(0, d + 4)
        expected = division_remainders(h, a, b, p, n)
        if a > 1:  # non-monic: the totals a^D * (-b)^i * T_i
            expected = [a**d * (-b) ** i * t for i, t in enumerate(expected)]
        for residue in {b, b - p} if p and a * b else {b}:
            assert list(taylor_window(h, a, residue, p, n)) == expected, (a, b, p, d, n)
    assert list(taylor_window((0, 0, 3), 1, -1, 0, 5)) == [3, 6, 3, 0, 0]  # 3x^2 = 3((x - y) + y)^2


@pytest.mark.parametrize("p", [7, 101, 2**31 - 1])
def test_kernels_take_the_balanced_residue(p):
    # the chain passes x + b*y over F_p as b - p when 2b > p: same reduced outputs
    rng = random.Random(p + 1)
    for _ in range(50):
        b = rng.randrange(p // 2 + 1, p)
        cs = tuple(rng.randrange(p) for _ in range(rng.randint(1, 20)))
        k = rng.choice([1, 3, 4, 9])
        assert times_linear(cs, 1, b - p, p) == times_linear(cs, 1, b, p)
        assert times_linear_power(cs, 1, b - p, p, k) == times_linear_power(cs, 1, b, p, k)
        assert div_linear(cs, 1, b - p, p) == div_linear(cs, 1, b, p)
        assert apply(cs, cs[::-1], 1, b - p, p) == apply(cs, cs[::-1], 1, b, p)


# ----------------------------------------------------------------------
# packed residue vectors over F_p, against % p on each slot
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1, 2**61 - 1, 2**64 + 13])
def test_packed_reduction_at_the_bounds_of_a_slot(p):
    # a slot may hold any value below 2^e, e = 2*bits(p) + 32: 0, p - 1, p,
    # 2^e - 1 and the largest value below 2^e that is -1 mod p (where a short
    # quotient estimate shows first) in every arrangement of three neighbouring
    # slots, then seeded vectors
    w, top = residue_width(p), (1 << (2 * p.bit_length() + 32)) - 1
    bounds = (0, p - 1, p, top, top - (top + 1) % p)
    rng = random.Random(p)
    vectors = [list(v) for v in itertools.product(bounds, repeat=3)]
    for _ in range(40):
        vectors.append([rng.choice((*bounds, rng.randrange(top))) for _ in range(rng.randint(1, 60))])
    for values in vectors:
        packed = int.from_bytes(b"".join(v.to_bytes(w, "little") for v in values), "little")
        reduced = reduce_packed(packed, p)
        expected = tuple(v % p for v in values)
        assert unpack_residues(reduced, len(values), p) == expected, values
        assert pack_residues(expected, p) == reduced, values


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1, 2**64 - 59, 2**64 + 13])
def test_packed_reduction_derives_its_constants_for_every_slot_count(p):
    # reduce_packed picks its constants by the vector's bit length rounded up
    # to a power of two; slot counts 1 to 70 cross 2, 4, ..., 64, and the top
    # slot, just below 2^e, is the one that a mask rounded down would leave unreduced
    w, top = residue_width(p), (1 << (2 * p.bit_length() + 32)) - 1
    high = top - (top + 1) % p  # the largest value below 2^e that is -1 mod p
    rng = random.Random(p)
    for n in range(1, 71):
        values = [rng.choice((top, high, rng.randrange(top))) for _ in range(n - 1)] + [high]
        packed = int.from_bytes(b"".join(v.to_bytes(w, "little") for v in values), "little")
        assert unpack_residues(reduce_packed(packed, p), n, p) == tuple(v % p for v in values), (p, n)
