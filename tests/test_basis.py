"""The update step, the full chain construction, and Saito verification."""

import math
import random
from itertools import chain
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logvf import (
    BasisPair,
    Branch,
    Derivation,
    Field,
    HomogPoly,
    InexactDivisionError,
    LinearForm,
    Multiarrangement,
    RATIONALS,
    build_basis,
    exponents,
    saito_determinant,
    update_basis,
    verify_basis,
)
from logvf import basis
from logvf.basis import _into_frame, _line, _out_of_frame, _plus_q_times, _ramp, _ramp_degrees, _step, _window_ramp
from logvf.derivation import apply, primitive
from logvf.poly import barrett, div_linear, div_linear_power, eval_raw, taylor_window

from conftest import dense_determinant, dense_product, sample_arrangements


def x_dx(field=RATIONALS):
    return Derivation(HomogPoly.monomial(field, 1, 1), HomogPoly.zero(field, 1))


def y_dy(field=RATIONALS):
    return Derivation(HomogPoly.zero(field, 1), HomogPoly.monomial(field, 1, 0))


def member(theta):
    """A derivation as the chain carries it: its pair of coefficient tuples."""
    return theta.f.coeffs, theta.g.coeffs


def step(theta1, theta2, form, mult):
    """:func:`_step` on ``(f, g)`` members, taken into the form's frame at multiplicity mult and back.

    Returns ``(theta1', theta2', branch, div1, div2)`` with ``(f, g)`` members.
    """
    a, b, p = line = _line(form)
    members = []
    for theta in (theta1, theta2):
        u, *images = _into_frame(theta, line)
        members.append((div_linear_power(u, a, b, p, mult), *images))
    kit = barrett(p, max(len(theta1[0]), len(theta2[0])) + 1) if p else None
    new1, new2, branch, div1, div2 = _step(*members, line, None, None, kit)
    return _out_of_frame(new1, line), _out_of_frame(new2, line), branch, div1, div2


DX, DY = ((1,), (0,)), ((0,), (1,))
X = LinearForm(RATIONALS, 1, 0)
Y = LinearForm(RATIONALS, 0, 1)
XY = LinearForm(RATIONALS, 1, 1)


def test_pair_orders_by_degree():
    pair = BasisPair(Derivation.partial_y(RATIONALS), x_dx())
    assert pair.degrees() == (1, 0)
    assert pair.theta1 == x_dx()
    # ties keep the input order
    tied = BasisPair(Derivation.partial_x(RATIONALS), Derivation.partial_y(RATIONALS))
    assert tied.theta1 == Derivation.partial_x(RATIONALS)


def test_verify_basis_examples():
    dx, dy = Derivation.partial_x(RATIONALS), Derivation.partial_y(RATIONALS)
    assert verify_basis(BasisPair(dx, dy), Multiarrangement(RATIONALS))
    arr_x1 = Multiarrangement(RATIONALS, {X: 1})
    assert verify_basis(BasisPair(x_dx(), dy), arr_x1)
    assert not verify_basis(BasisPair(x_dx(), dy), Multiarrangement(RATIONALS, {X: 2}))
    # dependent pair fails no matter the degrees
    assert not verify_basis(BasisPair(x_dx(), x_dx()), Multiarrangement(RATIONALS, {X: 2}))
    # non-member fails even with the right degrees
    assert not verify_basis(BasisPair(x_dx(), dy), Multiarrangement(RATIONALS, {Y: 1}))


def test_update_first_steps():
    dx, dy = Derivation.partial_x(RATIONALS), Derivation.partial_y(RATIONALS)
    pair = update_basis(BasisPair(dx, dy), X, 0)
    assert pair.theta1 == x_dx() and pair.theta2 == dy
    pair = update_basis(pair, Y, 0)
    assert pair.theta1 == x_dx() and pair.theta2 == y_dy()


def test_update_branches_reported():
    _, _, branch, _, _ = step(DX, DY, X, 0)
    assert branch is Branch.G_VANISHING  # theta2(x) = 0
    t1, t2, branch, _, _ = step(member(x_dx()), DY, Y, 0)
    assert branch is Branch.F_VANISHING  # theta1(y) = 0, theta2(y) = 1
    assert (t1, t2) == (member(x_dx()), member(y_dy()))


def test_update_generic_branch_constant_q():
    # equal degrees force d = 0, so the generic q is a constant
    pair = BasisPair(Derivation.partial_x(RATIONALS), Derivation.partial_y(RATIONALS))
    out = update_basis(pair, XY, 0)
    assert verify_basis(out, Multiarrangement(RATIONALS, {XY: 1}))
    assert out.degrees() == (1, 0)
    # the multiplied member (x+y) dy sorts first; the other is dx - dy up to
    # the sign convention of primitive reduction
    assert out.theta1 == Derivation(
        HomogPoly.zero(RATIONALS, 0), HomogPoly.constant(RATIONALS, 1)
    ).times_linear(XY)
    one = HomogPoly.constant(RATIONALS, 1)
    minus_one = HomogPoly.constant(RATIONALS, -1)
    assert out.theta2 in (Derivation(one, minus_one), Derivation(minus_one, one))


def test_update_generic_branch_alpha_x_zero():
    # basis of {x+y: 2} is ((x+y)^2 dy, dx - dy); adding y hits the
    # alpha_x = 0 generic path: q = -(f(1,0)/g(1,0)) * x^d
    arr = Multiarrangement(RATIONALS, {XY: 2})
    pair = build_basis(arr)
    assert pair.degrees() == (2, 0)
    out = update_basis(pair, Y, 0)
    bigger = arr.incremented(Y)
    assert verify_basis(out, bigger)
    assert out.degrees() == (2, 1)
    # theta'2 = y * theta2 exactly (second output is multiplied by the form)
    assert out.theta2 == pair.theta2.times_linear(Y)


def test_update_degree_sum_always_grows_by_one():
    rng = random.Random(7)
    for arr in sample_arrangements(99, 40):
        pair = build_basis(arr)
        pool = (
            [LinearForm(arr.field, 1, rng.randint(-3, 3)), LinearForm(arr.field, 0, 1)]
            if not arr.field.characteristic
            else [LinearForm(arr.field, 1, 0), LinearForm(arr.field, 0, 1)]
        )
        form = rng.choice(pool)
        out = update_basis(pair, form, arr.multiplicity(form))
        assert sum(out.degrees()) == sum(pair.degrees()) + 1
        assert verify_basis(out, arr.incremented(form))


def test_update_inexact_division_signals_bad_precondition():
    # claim multiplicity 1 for a hyperplane the pair knows nothing about
    pair = build_basis(Multiarrangement(RATIONALS, {X: 1, Y: 1}))
    with pytest.raises(InexactDivisionError):
        update_basis(pair, XY, 1)


def test_build_empty():
    pair = build_basis(Multiarrangement(RATIONALS))
    assert pair.theta1 == Derivation.partial_x(RATIONALS)
    assert pair.theta2 == Derivation.partial_y(RATIONALS)
    assert exponents(Multiarrangement(RATIONALS)) == (0, 0)


def test_build_single_hyperplane_powers():
    for m in [1, 2, 5]:
        arr = Multiarrangement(RATIONALS, {X: m})
        pair = build_basis(arr)
        assert pair.degrees() == (m, 0)
        assert pair.theta1 == Derivation(
            HomogPoly.monomial(RATIONALS, m, m), HomogPoly.zero(RATIONALS, m)
        )
    assert exponents(Multiarrangement(RATIONALS, {X: 3})) == (3, 0)


def test_build_three_lines_contains_euler():
    arr = Multiarrangement(RATIONALS, {X: 1, Y: 1, XY: 1})
    pair = build_basis(arr)
    assert pair.degrees() == (2, 1)
    assert pair.theta2 == Derivation.euler(RATIONALS)
    assert verify_basis(pair, arr)


def test_build_equals_repeated_updates():
    # the chained construction with cached quotients must agree, derivation by
    # derivation, with naive single steps from scratch
    for arr in sample_arrangements(2024, 60):
        pair = BasisPair(
            Derivation.partial_x(arr.field), Derivation.partial_y(arr.field)
        )
        for form in arr.forms():
            for m in range(arr.multiplicity(form)):
                pair = update_basis(pair, form, m)
        chained = build_basis(arr)
        assert (chained.theta1, chained.theta2) == (pair.theta1, pair.theta2)


def test_build_output_is_verified_and_primitive():
    for arr in sample_arrangements(5, 40):
        pair = build_basis(arr)
        assert verify_basis(pair, arr)
        assert sum(pair.degrees()) == arr.total
        if not arr.field.characteristic:
            for theta in pair:
                values = [c for c in theta.f.coeffs + theta.g.coeffs if c]
                assert all(isinstance(v, int) or v.denominator == 1 for v in values)


def test_step_quotients_stay_integral_over_q():
    # ramp integer lines, non-monic ones included, through _step with the
    # frame members and the carried divisions threaded along, as the chain does
    forms = [LinearForm(RATIONALS, a, b) for a, b in [(0, 1), (3, -2), (1, 1), (2, 1)]]
    theta1, theta2 = DX, DY
    branches = set()
    for form in forms:
        line = _line(form)
        member1, member2 = (_into_frame(theta, line) for theta in (theta1, theta2))
        div1 = div2 = None
        for _ in range(5):
            member1, member2, branch, div1, div2 = _step(member1, member2, line, div1, div2, None)
            branches.add(branch)
            for member in (member1, member2):
                # (quotient, degree, images...): the degree is the one entry that is not a tuple
                assert type(member[1]) is int
                assert all(type(c) is int for cs in (member[0], *member[2:]) for c in cs)
            theta1, theta2 = (_out_of_frame(member, line) for member in (member1, member2))
            for f, g in (theta1, theta2):
                assert all(type(c) is int for c in f + g)
    assert branches == set(Branch)


def test_saito_determinant_is_defining_product():
    arr = Multiarrangement(RATIONALS, {X: 2, Y: 1, XY: 1})
    quotient = build_basis(arr).determinant().coeffs
    for form, mult in arr.items():
        quotient = div_linear_power(quotient, form.ax, form.ay, 0, mult)
    assert len(quotient) == 1 and quotient[0]


def test_field_mismatch_rejected():
    pair = build_basis(Multiarrangement(RATIONALS, {X: 1}))
    with pytest.raises(ValueError):
        update_basis(pair, LinearForm(Field(2), 1, 0), 0)
    with pytest.raises(ValueError):
        verify_basis(pair, Multiarrangement(Field(2)))


def test_prime_field_chain():
    F3 = Field(3)
    forms = [LinearForm(F3, 1, 0), LinearForm(F3, 0, 1), LinearForm(F3, 1, 1), LinearForm(F3, 1, 2)]
    arr = Multiarrangement(F3, {f: 2 for f in forms})
    pair = build_basis(arr)
    assert verify_basis(pair, arr)
    assert sum(pair.degrees()) == 8


FIELDS_FOR_KERNEL = [RATIONALS, Field(7), Field(2**31 - 1)]


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(FIELDS_FOR_KERNEL),
    d=st.integers(0, 12),
    small=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
    big_seed=st.lists(st.integers(-50, 50), min_size=21, max_size=21),
    num=st.integers(-10**6, 10**6),
    den=st.integers(1, 10**6),
    ax=st.sampled_from([0, 1, 3]),  # 0: the form is y
)
def test_window_sum_combination_matches_dense_product(field, d, small, big_seed, num, den, ax):
    # den*big + q*small with q built densely and multiplied by a plain double loop
    p = field.characteristic
    if p:
        num, den = num % p, 1
    small = HomogPoly(field, small).coeffs
    big = HomogPoly(field, big_seed[: len(small) + d]).coeffs
    q_coeffs = (num,) + (den,) * d if ax else (0,) * d + (num,)
    product = dense_product(q_coeffs, small, p)
    reference = tuple((den * s + t) % p if p else den * s + t for s, t in zip(big, product))
    out = _plus_q_times(big, small, num, den, ax, p)
    assert len(out) == len(big)
    assert out == reference


def _generic_reference(theta1, theta2, form, mult):
    """den*theta1 + q*theta2 of a generic step on ``(f, g)`` members, num/den solved for from point values."""
    a, b, p = form.ax, form.ay, form.field.characteristic
    px, py = form.point_raw()
    f_val, g_val = (
        eval_raw(div_linear_power(apply(f, g, a, b, p), a, b, p, mult), px, py, p) for f, g in (theta1, theta2)
    )
    d = len(theta1[0]) - len(theta2[0])
    # (den*f + q*g)(point) = 0 with q(point) = num*py^d + den*tail, or num*px^d
    tail = sum(px**j * py ** (d - j) for j in range(1, d + 1)) if py else 0
    top, bottom = -(f_val + tail * g_val), g_val * (py**d if py else px**d)
    if p:
        num, den = top * pow(bottom, -1, p) % p, 1
    else:
        ratio = Fraction(top, bottom)
        num, den = ratio.numerator, ratio.denominator
    q_coeffs = (num,) + (den,) * d if py else (0,) * d + (num,)
    f, g = (
        tuple((den * s + t) % p if p else den * s + t for s, t in zip(c1, dense_product(q_coeffs, c2, p)))
        for c1, c2 in zip(theta1, theta2)
    )
    return (f, g) if p else primitive(f, g)[:2]


def test_generic_step_equals_dense_combination():
    cases = [
        (RATIONALS, [(0, 1, 4), (3, -2, 3), (1, 1, 5), (2, 1, 4), (1, -3, 3)]),
        (Field(7), [(0, 1, 5), (1, 0, 2), (1, 3, 4), (1, 5, 3), (1, 6, 2)]),
        (Field(2**31 - 1), [(0, 1, 6), (1, 0, 3), (1, 1, 4), (1, 2**31 - 2, 3)]),
    ]
    generic = 0
    for field, lines in cases:
        theta1, theta2 = DX, DY
        for ax, ay, mult in lines:
            form = LinearForm(field, ax, ay)
            for m in range(mult):
                if len(theta1[0]) < len(theta2[0]):
                    theta1, theta2 = theta2, theta1
                new1, new2, branch, _, _ = step(theta1, theta2, form, m)
                if branch is Branch.GENERIC:
                    generic += 1
                    assert new1 == _generic_reference(theta1, theta2, form, m)
                theta1, theta2 = new1, new2
    assert generic >= 20


# ----------------------------------------------------------------------
# the degrees-only ramp
# ----------------------------------------------------------------------

RAMP_FIELDS = [RATIONALS, Field(7), Field(101), Field(2**31 - 1)]
NON_MONIC = [LinearForm(RATIONALS, 2, 1), LinearForm(RATIONALS, 3, -2)]


def small_forms(field, limit=3):
    """The distinct hyperplanes ax + by with |a|, |b| <= limit, canonical order."""
    forms = {
        LinearForm(field, a, b)
        for a in range(-limit, limit + 1)
        for b in range(-limit, limit + 1)
        if field.coerce(a) or field.coerce(b)
    }
    return sorted(forms, key=LinearForm.sort_key)


def ramp_cases(seed, count, fields=RAMP_FIELDS, max_lines=4):
    """Seeded ``(arrangement, form, upto)``: a start and a hyperplane it lacks.

    Arrangements over Q always hold the non-monic lines 2x + y and 3x - 2y.
    """
    rng = random.Random(seed)
    for i in range(count):
        field = fields[i % len(fields)]
        pool = small_forms(field)
        forms = rng.sample(pool, rng.randint(0, min(max_lines, len(pool) - 1)))
        if field == RATIONALS:
            forms = list(dict.fromkeys(forms + NON_MONIC))
        arrangement = Multiarrangement(field, {f: rng.randint(1, 7) for f in forms})
        form = rng.choice([f for f in pool if f not in arrangement])
        yield arrangement, form, rng.randint(1, 40)


def test_degree_ramp_matches_full_ramp():
    # F_2 and F_13 as well: degrees at and past p, where the Taylor windows still hold.
    # Kills a kernel without zero padding past T_D and a tail without d*px^d on x - y
    cases = chain(ramp_cases(seed=5, count=32), ramp_cases(seed=6, count=16, fields=[Field(2), Field(13)]))
    for arrangement, form, upto in cases:
        theta1, theta2 = map(member, build_basis(arrangement))
        full = [(t1[1], t2[1]) for t1, t2, _ in _ramp(theta1, theta2, _line(form), upto)]
        assert list(_ramp_degrees(theta1, theta2, _line(form), upto)) == full, (arrangement, form)


def test_degree_ramp_windows_stay_as_small_as_the_full_ramps():
    """Over Q the window ramp divides each generic combination by its content.

    Without that division the windows grow by a factor t2 at every generic
    step; with it their entries stay within a few bits of the windows of
    the full ramp's members at the same step.  Kills a ramp without the
    division, which the degree tests in this file still pass.
    """
    for arrangement, form, _ in ramp_cases(seed=3, count=8, fields=[RATIONALS]):
        a, b, p = line = _line(form)
        theta1, theta2 = map(member, build_basis(arrangement))
        windows = [list(taylor_window(apply(*theta, a, b, p), a, b, p, 40)) for theta in (theta1, theta2)]
        ramp = _window_ramp(*windows, len(theta1[0]) - 1, len(theta2[0]) - 1, p)
        for step, ((_, _, w1, w2), (t1, t2, _)) in enumerate(zip(ramp, _ramp(theta1, theta2, line, 40)), start=1):
            full = [taylor_window(t[0], a, b, p, 40 - step) for t in (t1, t2)]
            assert bits(w1 + w2) <= bits([*full[0], *full[1]]) + 8, (arrangement, form, step)


def bits(window):
    return max((abs(c).bit_length() for c in window), default=0)


def test_exponents_equal_basis_degrees():
    rng = random.Random(11)
    cases = [Multiarrangement(field) for field in RAMP_FIELDS]
    cases += [Multiarrangement(f.field, {f: rng.randint(1, 9)}) for f in small_forms(Field(7))[:3]]
    cases += [Multiarrangement(RATIONALS, {f: rng.randint(1, 9)}) for f in NON_MONIC]
    for arrangement, form, upto in ramp_cases(seed=7, count=40):
        cases.append(Multiarrangement(arrangement.field, {**dict(arrangement.items()), form: upto}))
    for arrangement in cases:
        assert exponents(arrangement) == build_basis(arrangement).degrees(), arrangement


# ----------------------------------------------------------------------
# one division per quotient per step
# ----------------------------------------------------------------------


def _advance_by_evaluation(f_quot, g_quot, line, d):
    """The step on quotients as it was before it branched on remainders.

    Evaluate at the kernel point, divide on a vanishing branch, and divide
    the whole generic combination again: the reference for basis._advance.
    """
    ax, ay, p = line
    px, py = ay, -ax % p if p else -ax
    g_val = eval_raw(g_quot, px, py, p)
    if not g_val:
        return Branch.G_VANISHING, f_quot, div_linear_power(g_quot, ax, ay, p, 1), None, None
    f_val = eval_raw(f_quot, px, py, p)
    if not f_val:
        return Branch.F_VANISHING, div_linear_power(f_quot, ax, ay, p, 1), g_quot, None, None
    if py:
        tail, power = 0, 1
        for _ in range(d):
            power = power * px % p if p else power * px
            tail = (tail * py + power) % p if p else tail * py + power
        num, den = -f_val - tail * g_val, g_val * pow(py, d, p or None)
    else:
        num, den = -f_val, g_val
    if p:
        num, den = num * pow(den, -1, p) % p, 1
    else:
        c = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        num, den = num // c, den // c
    f_quot = div_linear_power(_plus_q_times(f_quot, g_quot, num, den, ax, p), ax, ay, p, 1)
    return Branch.GENERIC, f_quot, g_quot, num, den


def _division(quot, line):
    """A quotient's division by the form as ``_advance`` makes it: ``(quotient, remainder)``, or ``(None, value)``."""
    ax, ay, p = line
    if ax < 2:
        return div_linear(quot, ax, ay, p)
    return None, eval_raw(quot, ay, -ax, p)


def advance_inputs(monkeypatch, field, seed, count):
    """Every ``_advance`` argument tuple of seeded chains over ``field``.

    One line of each arrangement has multiplicity 13 to 16, so the degree
    gap d runs through 0..12; over Q the non-monic 2x + y and 3x - 2y are
    always present.
    """
    seen = []
    advance = basis._advance

    def spy(*args):
        seen.append(args)
        return advance(*args)

    monkeypatch.setattr(basis, "_advance", spy)
    rng = random.Random(seed)
    pool = small_forms(field)
    for _ in range(count):
        forms = rng.sample(pool, rng.randint(2, 4))
        if field == RATIONALS:
            forms = list(dict.fromkeys(forms + NON_MONIC))
        mult = {f: rng.randint(1, 6) for f in forms}
        mult[rng.choice(forms)] = rng.randint(13, 16)
        build_basis(Multiarrangement(field, mult))
    monkeypatch.setattr(basis, "_advance", advance)
    return seen


@pytest.mark.parametrize("field", RAMP_FIELDS, ids=str)
def test_advance_matches_evaluate_then_divide(monkeypatch, field):
    covered = set()
    carried = 0
    for f_quot, g_quot, line, d, f_div, g_div in advance_inputs(monkeypatch, field, seed=17, count=12):
        new = basis._advance(f_quot, g_quot, line, d, f_div, g_div)
        old = _advance_by_evaluation(f_quot, g_quot, line, d)
        assert new[0] is old[0] and new[3:5] == old[3:], (line, d)
        assert new[1:3] == old[1:3], (line, d)
        covered.add((new[0], d if new[0] is Branch.GENERIC else None))
        # a carried division is the one of the quotient it came with, made afresh
        for quot, div in ((f_quot, f_div), (g_quot, g_div)):
            if div is not None:
                carried += 1
                assert div == _division(quot, line), (line, d)
        kept = f_quot if new[0] is Branch.G_VANISHING else g_quot
        assert new[5] is None or new[5] == _division(kept, line), (line, d)
    assert {branch for branch, _ in covered} == set(Branch)
    assert {d for _, d in covered} >= set(range(13))
    assert carried >= 100


@pytest.mark.parametrize("field", RAMP_FIELDS, ids=str)
def test_monic_chains_never_evaluate(monkeypatch, field):
    def refuse(*args):
        raise AssertionError("eval_raw called on a monic form")

    monkeypatch.setattr(HomogPoly, "eval_raw", refuse)
    monkeypatch.setattr(basis, "eval_raw", refuse)
    rng = random.Random(23)
    monic = [f for f in small_forms(field) if f.ax < 2]
    for _ in range(6):
        chosen = rng.sample(monic, rng.randint(1, 5))
        arrangement = Multiarrangement(field, {f: rng.randint(1, 12) for f in chosen})
        assert verify_basis(build_basis(arrangement), arrangement)
        exponents(arrangement)


def test_only_non_monic_steps_evaluate(monkeypatch):
    points = []

    def record(cs, x, y, p):
        points.append((x, y))
        return eval_raw(cs, x, y, p)

    monkeypatch.setattr(basis, "eval_raw", record)
    arrangement = Multiarrangement(
        RATIONALS, {Y: 3, X: 4, XY: 5, LinearForm(RATIONALS, 1, -2): 2, NON_MONIC[0]: 6}
    )
    assert verify_basis(build_basis(arrangement), arrangement)
    # 2x + y vanishes at (1, -2); each of its 6 steps evaluates once or twice
    assert 6 <= len(points) <= 12 and set(points) == {(1, -2)}


def refuse_dense_products(monkeypatch, where):
    """Make ``HomogPoly.__mul__`` raise, so that a dense product in ``where`` fails the test."""

    def refuse(self, other):
        raise AssertionError(f"dense product in {where}")

    monkeypatch.setattr(HomogPoly, "__mul__", refuse)


@pytest.mark.parametrize("field", [RATIONALS, Field(7), Field(101)], ids=str)
def test_verify_basis_rejects_dependent_members(monkeypatch, field):
    # (theta_low, alpha^gap * theta_low): members whose degrees add up to |mu|
    # but whose determinant is zero
    rng = random.Random(31)
    cases = []
    for alpha in [LinearForm(field, 1, 0), LinearForm(field, 0, 1), LinearForm(field, 1, 1)]:
        for _ in range(4):
            chosen = rng.sample(small_forms(field), 3) + [alpha]
            arrangement = Multiarrangement(field, {f: rng.randint(1, 6) for f in chosen})
            pair = build_basis(arrangement)
            high = pair.theta2
            for _ in range(pair.theta1.degree - pair.theta2.degree):
                high = high.times_linear(alpha)
            dependent = BasisPair(high, pair.theta2)
            assert dependent.determinant().is_zero()
            cases.append((arrangement, pair, dependent))

    refuse_dense_products(monkeypatch, "verify_basis")
    for arrangement, pair, dependent in cases:
        assert all(theta.is_member(arrangement) for theta in dependent)
        assert verify_basis(pair, arrangement)
        assert not verify_basis(dependent, arrangement)


def random_derivation(rng, field, degree):
    """A nonzero derivation of the given degree with sparse, mixed-size coefficients."""
    p = field.characteristic

    def coeff():
        c = rng.choice([0, 0, rng.randint(-5, 5), rng.randint(-10**6, 10**6)])
        return Fraction(c, rng.randint(2, 5)) if not p and rng.random() < 0.2 else c

    while True:
        f, g = (HomogPoly(field, [coeff() for _ in range(degree + 1)]) for _ in range(2))
        if not (f.is_zero() and g.is_zero()):
            return Derivation(f, g)


def degree_bound(field):
    """The largest member degree of :func:`random_pairs`: 3p over F_p for p < 20, else 20."""
    return 3 * field.characteristic if 0 < field.characteristic < 20 else 20


def random_pairs(field):
    """150 seeded pairs: unrelated members, q * theta (zero determinant) and common factors."""
    rng = random.Random(47)
    top, p = degree_bound(field), field.characteristic
    pairs = []
    for _ in range(150):
        kind = rng.randrange(3)
        theta = random_derivation(rng, field, rng.randint(0, top))
        if kind == 0:  # unrelated members
            other = random_derivation(rng, field, rng.randint(0, top))
        elif kind == 1:  # q * theta: a zero determinant
            q = random_derivation(rng, field, rng.randint(0, 8)).f.coeffs
            if not any(q):
                q = (3,)
            other = Derivation(*(HomogPoly(field, dense_product(q, h.coeffs, p)) for h in (theta.f, theta.g)))
        else:  # a common factor form^j, so form^(2j) divides the determinant
            form = rng.choice(small_forms(field))
            other = random_derivation(rng, field, rng.randint(0, top))
            for _ in range(rng.randint(1, 6)):
                theta, other = theta.times_linear(form), other.times_linear(form)
        pairs.append((theta, other))
    return pairs


@pytest.mark.parametrize("field", [RATIONALS, Field(7), Field(2**31 - 1)], ids=str)
def test_independent_matches_the_determinant(monkeypatch, field):
    top = degree_bound(field)
    pairs = [(theta, other, any(dense_determinant(theta, other))) for theta, other in random_pairs(field)]
    for d1, d2 in [(0, 0), (3, 1), (9, 9), (top, 2)]:  # determinant x^D: only its top coefficient
        theta = Derivation(HomogPoly.monomial(field, d1, d1), HomogPoly.zero(field, d1))
        pairs.append((theta, Derivation(HomogPoly.zero(field, d2), HomogPoly.monomial(field, d2, d2)), True))
    assert 40 <= sum(expected for _, _, expected in pairs) <= 110
    if 0 < field.characteristic < top:  # degrees above p, where x^p - x*y^(p-1) vanishes pointwise
        assert sum(max(t.degree, o.degree) > field.characteristic for t, o, _ in pairs) >= 50

    refuse_dense_products(monkeypatch, "independent()")
    for theta, other, expected in pairs:
        assert BasisPair(theta, other).independent() == expected
        assert BasisPair(other, theta).independent() == expected


@pytest.mark.parametrize("field", [RATIONALS, Field(7), Field(2**31 - 1)], ids=str)
def test_determinant_matches_the_dense_product(monkeypatch, field):
    p = field.characteristic
    pairs = random_pairs(field)
    references = [dense_determinant(theta, other) for theta, other in pairs]
    assert sum(not any(det) for det in references) >= 40  # the q * theta pairs, among others
    if p == 0:
        # Fraction members, some of whose determinants have integral Fraction coefficients
        assert sum(Fraction in map(type, t.f.coeffs + t.g.coeffs) for pair in pairs for t in pair) >= 100
        assert sum(type(c) is Fraction and c.denominator == 1 for det in references for c in det) >= 100
    elif p < degree_bound(field):
        assert sum(max(t.degree, o.degree) > p for t, o in pairs) >= 50

    refuse_dense_products(monkeypatch, "the determinant")
    for (theta, other), reference in zip(pairs, references):
        pair = BasisPair(theta, other)
        for det, expected in [
            (saito_determinant(theta, other), reference),
            (pair.determinant(), dense_determinant(pair.theta1, pair.theta2)),
        ]:
            assert det.field == field
            assert det.degree == theta.degree + other.degree == len(expected) - 1
            assert det.coeffs == expected
            if p:
                assert all(type(c) is int and 0 <= c < p for c in det.coeffs)
            else:  # integral coefficients come out as ints, as the chain keeps them
                assert all(type(c) is int or c.denominator > 1 for c in det.coeffs)
