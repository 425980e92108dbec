"""The update step, the full chain construction, and Saito verification."""

import random
from itertools import chain
from fractions import Fraction

import pytest

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
from logvf import basis, exponents_by_oracle, trace_chain
from logvf.basis import _into_frame, _line, _out_of_frame, _ramp, _ramp_degrees, _step, _window_ramp
from logvf.derivation import apply, primitive
from logvf.poly import div_linear, div_linear_power, eval_raw, pack_residues, taylor_window, times_linear, unpack_residues

from conftest import dense_determinant, dense_product, plus_beta_power, reference_advance, sample_arrangements


def x_dx(field=RATIONALS):
    return Derivation(HomogPoly.monomial(field, 1, 1), HomogPoly.zero(field, 1))


def y_dy(field=RATIONALS):
    return Derivation(HomogPoly.zero(field, 1), HomogPoly.monomial(field, 1, 0))


def member(theta):
    """A derivation as the chain carries it: its pair of coefficient tuples."""
    return theta.f.coeffs, theta.g.coeffs


def step(theta1, theta2, form, mult):
    """:func:`_step` on ``(f, g)`` members, taken into the form's frame at multiplicity mult and back.

    Returns ``(theta1', theta2', branch)`` with ``(f, g)`` members.  Over F_p below degree p the
    members carry Taylor windows, as in ``update_basis``.
    """
    line = _line(form)
    window = basis._windowed(line, max(len(theta1[0]), len(theta2[0])))
    members = []
    for theta in (theta1, theta2):
        u, *rest = _into_frame(theta, line, window)
        for _ in range(mult):
            u, value = basis._divide(u, line)
            assert not value
        members.append((u, *rest))
    new1, new2, branch = _step(*members, line)
    return _out_of_frame(new1, line, mult + 1), _out_of_frame(new2, line, mult + 1), branch


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
    _, _, branch = step(DX, DY, X, 0)
    assert branch is Branch.G_VANISHING  # theta2(x) = 0
    t1, t2, branch = step(member(x_dx()), DY, Y, 0)
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
    # frame members, with the divisions they carry, threaded along as the chain does
    forms = [LinearForm(RATIONALS, a, b) for a, b in [(0, 1), (3, -2), (1, 1), (2, 1)]]
    theta1, theta2 = DX, DY
    branches = set()
    for form in forms:
        line = _line(form)
        member1, member2 = (_into_frame(theta, line, False) for theta in (theta1, theta2))
        for k in range(1, 6):
            member1, member2, branch = _step(member1, member2, line)
            branches.add(branch)
            for member in (member1, member2):
                # (quotient, div, degree, images...): the degree is the one entry that is an int
                assert type(member[2]) is int
                assert all(type(c) is int for cs in (member[0], *member[3:]) for c in cs)
                # div is None, (quotient, remainder) or (None, value), in ints as well
                if member[1] is not None:
                    quot, value = member[1]
                    assert type(value) is int and (quot is None or all(type(c) is int for c in quot))
            theta1, theta2 = (_out_of_frame(member, line, k) for member in (member1, member2))
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


def _generic_reference(theta1, theta2, form, mult):
    """theta1' = s*theta1 + t*beta^d*theta2 of a generic step on ``(f, g)`` members, s and t solved for at (ay, -ax)."""
    a, b, p = line = _line(form)
    px, py = form.point_raw()
    f_val, g_val = (
        eval_raw(div_linear_power(apply(f, g, a, b, p), a, b, p, mult), px, py, p) for f, g in (theta1, theta2)
    )
    d = len(theta1[0]) - len(theta2[0])
    # s*f_val + t*beta(point)^d*g_val = 0, beta = y, or x for the form y
    ratio = Fraction(-f_val, g_val * (py if a else px) ** d)
    if p:
        s, t = 1, ratio.numerator * pow(ratio.denominator, -1, p) % p
    else:
        s, t = ratio.denominator, ratio.numerator
    f, g = (plus_beta_power(c1, c2, s, t, line) for c1, c2 in zip(theta1, theta2))
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
                new1, new2, branch = step(theta1, theta2, form, m)
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
        full = [(t1[2], t2[2]) for t1, t2, _ in _ramp(theta1, theta2, _line(form), upto)]
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


ORACLE_FIELDS = [RATIONALS, Field(7), Field(2**31 - 1)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_every_step_lands_on_the_oracle_exponents(field):
    # a basis is not unique, its degrees are: after every step of a chain
    # they are the exponents of the arrangement built so far, |mu| <= 16
    rng = random.Random(41)
    pool = small_forms(field)
    branches = []
    for _ in range(10):
        forms = rng.sample(pool, rng.randint(2, 5))
        if field == RATIONALS:
            forms = list(dict.fromkeys(NON_MONIC + forms))
        mult = {form: 1 for form in forms}
        for _ in range(rng.randint(0, 16 - len(forms))):
            mult[rng.choice(forms)] += 1
        prefix = {}
        for t in trace_chain(Multiarrangement(field, mult))[1]:
            prefix[t.form] = t.multiplicity + 1
            assert t.degrees_after == exponents_by_oracle(Multiarrangement(field, prefix)), (mult, t)
            branches.append((t.branch, t.form.ax > 1))
    assert sum(branch is Branch.GENERIC for branch, _ in branches) >= 40
    assert field != RATIONALS or branches.count((Branch.GENERIC, True)) >= 20


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_generic_updates_on_y_land_on_the_oracle_exponents(field):
    # a chain takes no generic step on y, which it ramps first; update_basis does
    rng = random.Random(43)
    y = LinearForm(field, 0, 1)
    pool = [form for form in small_forms(field) if form != y]
    generic = 0
    for _ in range(12):
        forms = rng.sample(pool, rng.randint(1, 4))
        mult = {form: rng.randint(1, 4) for form in forms}
        if rng.random() < 0.5:
            mult[y] = rng.randint(1, 3)
        arrangement = Multiarrangement(field, mult)
        pair = build_basis(arrangement)
        m = arrangement.multiplicity(y)
        *_, branch = step(*map(member, pair), y, m)
        out = update_basis(pair, y, m)
        bigger = arrangement.incremented(y)
        assert out.degrees() == exponents_by_oracle(bigger) and verify_basis(out, bigger), (mult, m)
        generic += branch is Branch.GENERIC
    assert generic >= 3


# ----------------------------------------------------------------------
# one division per quotient per step
# ----------------------------------------------------------------------


def quotient(member, line, k):
    """A member's quotient theta(alpha)/alpha^k as a coefficient tuple.

    A window (over F_p below degree p) holds T_k, T_(k+1), ... of theta(alpha) at the form; it is unpacked
    and Taylor-shifted back at (a, -b).  It keeps at least one slot, as the tuples keep the zero constant.
    """
    u, _, degree = member[:3]
    if type(u) is not int:
        return u
    a, b, p = line
    n = max(degree + 1 - k, 1)
    return tuple(taylor_window(unpack_residues(u, n, p), a, -b, p, n))


def _division(member, line, k):
    """A member's division by the form as ``_step`` makes it: ``(quotient, value)`` at the point (-ay, ax).

    A monic form's remainder is that value; a non-monic form's quotient is
    None where the value is nonzero, else the exact quotient.  A window's
    quotient is the window of the tuple quotient, one slot shorter.
    """
    ax, ay, p = line
    quot = quotient(member, line, k)
    if ax < 2:
        q, value = div_linear(quot, ax, ay, p)
        return (pack_residues(list(taylor_window(q, ax, ay, p, len(q))), p) if type(member[0]) is int else q), value
    value = eval_raw(quot, -ay, ax, p)
    return None if value else div_linear(quot, ax, ay, p)[0], value


@pytest.mark.parametrize("field", [RATIONALS, Field(7), Field(2**31 - 1)], ids=str)
def test_divide_reads_every_form_at_one_kernel_point(field):
    # the value is T_0, the first Taylor coefficient at the form, for monic and
    # non-monic forms alike on quotients of odd and even degree (the value at
    # (ay, -ax) differs in sign on odd degrees), and a zero value comes with
    # the exact quotient
    p = field.characteristic
    rng = random.Random(29)
    divisions = []
    for ax, ay in [(0, 1), (1, 0), (1, 3), (1, -2), (2, 1), (3, -2)]:
        line = a, b, _ = _line(LinearForm(field, ax, ay))
        for degree in range(8):
            q = [rng.randint(-9, 9) % p if p else rng.randint(-9, 9) for _ in range(degree)]
            q = tuple(q + [rng.randint(1, 6)])  # a nonzero top: the zero constant has no quotient to multiply back
            for u in (q, times_linear(q, a, b, p)):
                divisions.append((u, line, basis._divide(u, line)))
                assert divisions[-1][2][1] == next(taylor_window(u, a, b, p, 1)), (line, u)
    zeros = [(u, line, quotient) for u, line, (quotient, value) in divisions if not value]
    for u, (a, b, p), quotient in zeros:
        assert quotient is not None and times_linear(quotient, a, b, p) == u, (a, b, u)
    assert len(zeros) >= 48 and len(divisions) - len(zeros) >= 30


def step_inputs(monkeypatch, field, seed, count):
    """Every ``_step`` argument tuple of seeded chains over ``field``, each pair sorted by degree as ``_step`` does.

    Each comes with the multiplicity k its members are at, counted from the
    ``_into_frame`` calls that start each ramp.  One line of each arrangement
    has multiplicity 13 to 16, so the degree gap d runs through 0..12; over Q
    the non-monic 2x + y and 3x - 2y are always present.
    """
    seen, k = [], [0]
    step_fn, into_fn = basis._step, basis._into_frame

    def into(theta, line, window):
        k[0] = 0
        return into_fn(theta, line, window)

    def spy(theta1, theta2, line):
        seen.append((theta1, theta2, line, k[0]) if theta1[2] >= theta2[2] else (theta2, theta1, line, k[0]))
        k[0] += 1
        return step_fn(theta1, theta2, line)

    monkeypatch.setattr(basis, "_step", spy)
    monkeypatch.setattr(basis, "_into_frame", into)
    rng = random.Random(seed)
    pool = small_forms(field)
    for _ in range(count):
        forms = rng.sample(pool, rng.randint(2, 4))
        if field == RATIONALS:
            forms = list(dict.fromkeys(forms + NON_MONIC))
        mult = {f: rng.randint(1, 6) for f in forms}
        mult[rng.choice(forms)] = rng.randint(13, 16)
        build_basis(Multiarrangement(field, mult))
    monkeypatch.setattr(basis, "_step", step_fn)
    monkeypatch.setattr(basis, "_into_frame", into_fn)
    return seen


def _generic_images(theta1, theta2, s, t, line):
    """theta1's images after a generic step, s*theta1 + t*beta^d*theta2, as tuples."""
    p = line[2]
    images = [[unpack_residues(v, m[2] + 1, p) if p else v for v in m[3:]] for m in (theta1, theta2)]
    return [plus_beta_power(v, w, s, t, line) for v, w in zip(*images)]


@pytest.mark.parametrize("field", RAMP_FIELDS, ids=str)
def test_advance_matches_evaluate_then_divide(monkeypatch, field):
    covered = set()
    carried = windows = steps = 0
    for theta1, theta2, line, k in step_inputs(monkeypatch, field, seed=17, count=12):
        p, d = line[2], theta1[2] - theta2[2]
        new1, new2, branch = basis._step(theta1, theta2, line)
        windows, steps = windows + (type(theta1[0]) is int), steps + 1
        old = reference_advance(quotient(theta1, line, k), quotient(theta2, line, k), line, d)
        assert branch is old[0], (line, d)
        assert quotient(new2, line, k + 1) == old[2], (line, d)
        if branch is Branch.GENERIC:
            # s and t fix theta1's images too; over Q the quotient and the
            # images share the content that _primitive divides out
            expected = [old[1], *_generic_images(theta1, theta2, *old[3:], line)]
            got = [quotient(new1, line, k + 1), *(unpack_residues(v, new1[2] + 1, p) if p else v for v in new1[3:])]
            scale = 1 if p else next(s // t for s, t in zip(chain(*expected), chain(*got)) if t)
            assert expected == [tuple(scale * c for c in cs) for cs in got], (line, d)
        else:
            assert quotient(new1, line, k + 1) == old[1], (line, d)
        covered.add((branch, d if branch is Branch.GENERIC else None))
        # a carried division is the one of the quotient it comes with, made afresh
        for member in (theta1, theta2):
            if member[1] is not None:
                carried += 1
                assert member[1] == _division(member, line, k), (line, d)
        for member in (new1, new2):
            assert member[1] is None or member[1] == _division(member, line, k + 1), (line, d)
        # the member whose quotient is unchanged keeps its division; the other's is dropped
        if branch is Branch.G_VANISHING:
            assert new1[1] == theta1[1] and new2[1] is None, (line, d)
        else:
            assert new2[1] == _division(theta2, line, k) and new1[1] is None, (line, d)
    assert {branch for branch, _ in covered} == set(Branch)
    assert {d for _, d in covered} >= set(range(13))
    assert carried >= 100
    # windows only over F_p: for every ramp below degree p (all of them over F_101 and F_(2^31-1)), none past it
    p = field.characteristic
    assert windows == 0 if not p else 0 < windows < steps if p == 7 else windows == steps, (windows, steps)


# ----------------------------------------------------------------------
# the window route: over F_p below degree p a member carries theta(alpha)'s Taylor window
# ----------------------------------------------------------------------

ROUTE_FIELDS = [Field(13), Field(101), Field(2**31 - 1)]


def route_arrangements(field):
    """Seeded arrangements over ``field``; below p = 101 some ramps end at degree p - 1 and some at p.

    From (d/dx, d/dy), y:m takes the pair to degrees (m, 0), so after y:3 the
    ramp of x to p - 4 ends at p - 1 and the one to p - 3 at p.
    """
    p = field.characteristic
    y, x, xy = (LinearForm(field, *c) for c in [(0, 1), (1, 0), (1, 1)])
    cases = []
    if p <= 101:
        cases += [{y: p - 1}, {y: p}, {y: 3, x: p - 4}, {y: 3, x: p - 3}, {y: 3, x: p - 4, xy: 5}]
    rng = random.Random(53)
    top = min(p, 40)
    for _ in range(10):
        forms = rng.sample(small_forms(field), rng.randint(2, 5))
        cases.append({f: rng.randint(1, top // 2) for f in forms})
    return [Multiarrangement(field, mult) for mult in cases]


@pytest.mark.parametrize("field", ROUTE_FIELDS, ids=str)
def test_window_route_matches_the_tuple_route(monkeypatch, field):
    # with the route predicate off every ramp carries tuples: the reference for
    # every step's branch and degrees, every basis and every single update
    p = field.characteristic
    arrangements = route_arrangements(field)
    windowed, routes = basis._windowed, []

    def record(line, top):
        routes.append((top, windowed(line, top)))
        return routes[-1][1]

    def run():
        out = []
        for arrangement in arrangements:
            pair, steps = trace_chain(arrangement)
            form = LinearForm(field, 1, 2)
            updated = update_basis(pair, form, arrangement.multiplicity(form))
            out.append((steps, [member(theta) for theta in (*pair, *updated)]))
        return out

    monkeypatch.setattr(basis, "_windowed", record)
    on = run()
    monkeypatch.setattr(basis, "_windowed", lambda line, top: False)
    off = run()
    for arrangement, (steps, members), reference in zip(arrangements, on, off):
        assert (steps, members) == reference, arrangement
        assert verify_basis(build_basis(arrangement), arrangement)
    if p <= 101:
        assert (p - 1, True) in routes and (p, False) in routes
        assert {window for _, window in routes} == {True, False}
    else:
        assert all(window for _, window in routes)


@pytest.mark.parametrize("field", ROUTE_FIELDS[1:], ids=str)
def test_update_on_the_window_route_refuses_a_false_multiplicity(monkeypatch, field):
    # the multiplicity's dropped slots must be zero, as every division's remainder is on tuples
    windows = []
    windowed = basis._windowed
    monkeypatch.setattr(basis, "_windowed", lambda line, top: windows.append(windowed(line, top)) or windows[-1])
    x, y, xy = (LinearForm(field, *c) for c in [(1, 0), (0, 1), (1, 1)])
    pair = build_basis(Multiarrangement(field, {x: 1, y: 1}))
    windows.clear()
    for form, mult in [(xy, 1), (xy, 2), (x, 2), (y, 3)]:
        with pytest.raises(InexactDivisionError):
            update_basis(pair, form, mult)
    assert verify_basis(update_basis(pair, xy, 0), Multiarrangement(field, {x: 1, y: 1, xy: 1}))
    assert windows and all(windows)


def test_generic_window_step_checks_its_dropped_slot():
    # slot 0 of theta1 + t*beta^d*theta2 is zero when t comes from the windows' values;
    # a carried division whose value disagrees with its window gives a nonzero slot, which raises
    field = Field(101)
    line = _line(LinearForm(field, 1, 1))
    theta1, theta2 = (_into_frame(theta, line, True) for theta in (DX, DY))
    _, _, branch = _step(theta1, theta2, line)
    assert branch is Branch.GENERIC
    quot, value = basis._divide(theta1[0], line)
    assert value == 1
    with pytest.raises(InexactDivisionError):
        _step((theta1[0], (quot, 2), *theta1[2:]), theta2, line)


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
    # 2x + y vanishes at its kernel point (-1, 2); each of its 6 steps evaluates once or twice
    assert 6 <= len(points) <= 12 and set(points) == {(-1, 2)}


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
