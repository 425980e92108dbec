"""Derivations, membership, determinants and primitive reduction."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logvf import (
    Derivation,
    Field,
    HomogPoly,
    LinearForm,
    Multiarrangement,
    RATIONALS,
    all_hyperplanes,
    build_basis,
    saito_determinant,
    verify_basis,
)
from logvf import derivation
from logvf.analysis import frobenius_derivation
from logvf.basis import BasisPair
from logvf.poly import div_linear


def D(f_coeffs, g_coeffs, field=RATIONALS):
    return Derivation(HomogPoly(field, f_coeffs), HomogPoly(field, g_coeffs))


def test_component_degrees_align():
    euler = Derivation.euler(RATIONALS)
    assert euler.degree == 1
    assert Derivation.partial_x(RATIONALS).degree == 0
    # a zero component adopts its partner's degree
    theta = Derivation(HomogPoly.zero(RATIONALS, 0), HomogPoly(RATIONALS, [0, 0, 1]))
    assert theta.f.degree == 2
    with pytest.raises(ValueError):
        Derivation(HomogPoly(RATIONALS, [1]), HomogPoly(RATIONALS, [1, 1]))
    with pytest.raises(ValueError):
        Derivation(HomogPoly.zero(RATIONALS, 1), HomogPoly.zero(RATIONALS, 1))


def test_apply():
    euler = Derivation.euler(RATIONALS)
    xy = LinearForm(RATIONALS, 1, 1)
    assert euler.apply(xy) == HomogPoly(RATIONALS, [1, 1])  # Euler fixes linear forms
    dx = Derivation.partial_x(RATIONALS)
    assert dx.apply(LinearForm(RATIONALS, 0, 1)).is_zero()


def test_apply_frobenius_power():
    # theta = x^p dx + y^p dy sends ax + by to (ax + by)^p in characteristic p
    p = 3
    Fp = Field(p)
    theta = Derivation(HomogPoly.monomial(Fp, p, p), HomogPoly.monomial(Fp, p, 0))
    form = LinearForm(Fp, 1, 2)
    linear = HomogPoly(Fp, [form.ay, form.ax])
    assert theta.apply(form) == linear * linear * linear


def test_membership():
    x = LinearForm(RATIONALS, 1, 0)
    x_dx = Derivation(HomogPoly.monomial(RATIONALS, 1, 1), HomogPoly.zero(RATIONALS, 1))
    assert x_dx.is_member(Multiarrangement(RATIONALS, {x: 1}))
    assert Derivation.partial_y(RATIONALS).is_member(Multiarrangement(RATIONALS, {x: 1}))
    assert not Derivation.partial_x(RATIONALS).is_member(Multiarrangement(RATIONALS, {x: 1}))


def test_membership_frobenius_f2():
    F2 = Field(2)
    theta = Derivation(HomogPoly.monomial(F2, 2, 2), HomogPoly.monomial(F2, 2, 0))
    arr = Multiarrangement(F2, {h: 2 for h in all_hyperplanes(F2)})
    assert theta.is_member(arr)


@pytest.mark.parametrize("p", [7, 13])
def test_membership_of_degree_at_least_p_divides_one_step_at_a_time(monkeypatch, p):
    # (x + 2y) * (x^p dx + y^p dy) has degree p + 1 >= p, where p! has no inverse mod p:
    # the Taylor window's rounds of suffix sums, one synthetic division each, need none
    def no_table(*args):
        raise AssertionError("the Taylor test needs degree < p")

    monkeypatch.setattr(derivation, "taylor_vanishes", no_table)
    field = Field(p)
    frob = frobenius_derivation(p, 1)
    line = HomogPoly(field, [2, 1])
    theta = Derivation(line * frob.f, line * frob.g)
    x_2y, x_3y = LinearForm(field, 1, 2), LinearForm(field, 1, 3)
    assert theta.is_member(Multiarrangement(field, {x_2y: p + 1, x_3y: p}))
    assert not theta.is_member(Multiarrangement(field, {x_3y: p + 1}))
    assert not theta.is_member(Multiarrangement(field, {x_2y: p + 2}))


def test_membership_of_a_zero_value_ignores_a_huge_multiplicity():
    # theta(x) = 0 for y dy, and x + 3y's nonzero value cannot take a power above its degree
    field = Field(2**31 - 1)
    y_dy = Derivation(HomogPoly.zero(field, 1), HomogPoly(field, [1, 0]))
    start = time.perf_counter()
    assert y_dy.is_member(Multiarrangement(field, {LinearForm(field, 1, 0): 10**12}))
    assert not y_dy.is_member(Multiarrangement(field, {LinearForm(field, 1, 3): 10**12}))
    assert time.perf_counter() - start < 1.0


def member_by_division(theta, arrangement):
    """D(A, mu) membership by dividing each theta(alpha) by alpha mu(alpha) times."""
    for form, mult in arrangement.items():
        h = theta.apply(form).coeffs
        for _ in range(mult):
            if not any(h):
                break
            h, r = div_linear(h, form.ax, form.ay, form.field.characteristic)
            if r:
                return False
    return True


@pytest.mark.parametrize("field", [RATIONALS, Field(7), Field(101), Field(2**31 - 1)], ids=str)
def test_membership_matches_repeated_division(field):
    # theta = (f, g) * prod of form powers, against x, y and two other lines
    # alone and in pairs, at every multiplicity from 1 to 2D + 3
    rng = random.Random(field.characteristic + 3)
    p = field.characteristic
    pool = [LinearForm(field, *ab) for ab in ((1, 0), (0, 1), (1, 1), (2, 3))]
    answers = set()
    for _ in range(30):
        n = rng.randint(0, 4)
        f, g = ([rng.randrange(p) if p else rng.randint(-3, 3) for _ in range(n + 1)] for _ in "fg")
        theta = Derivation(HomogPoly(field, f), HomogPoly(field, [1] + g[1:]))
        for form in rng.sample(pool, 2):
            for _ in range(rng.randint(0, 4)):
                theta = theta.times_linear(form)
        d = theta.degree
        for mult in range(1, 2 * d + 4):
            for forms in [[form] for form in pool] + [rng.sample(pool, 2)]:
                arrangement = Multiarrangement(field, {form: mult + i for i, form in enumerate(forms)})
                expected = member_by_division(theta, arrangement)
                assert theta.is_member(arrangement) == expected, (theta, arrangement)
                answers.add(expected)
    assert answers == {True, False}


@pytest.mark.parametrize("field", [RATIONALS, Field(7), Field(2**31 - 1)], ids=str)
def test_membership_of_x_and_y_above_the_degree(field):
    # theta(alpha) = alpha has degree 1: no power above 1 divides it, also for
    # multiplicities between D + 2 and 2D + 1 (here 3), where an uncapped slice
    # of the top coefficients would come back short
    x, y = LinearForm(field, 1, 0), LinearForm(field, 0, 1)
    x_dx = Derivation(HomogPoly(field, [0, 1]), HomogPoly.zero(field, 1))
    y_dy = Derivation(HomogPoly.zero(field, 1), HomogPoly(field, [1, 0]))
    assert x_dx.is_member(Multiarrangement(field, {x: 1}))
    assert y_dy.is_member(Multiarrangement(field, {y: 1}))
    for mult in (2, 3, 4, 5):
        assert not x_dx.is_member(Multiarrangement(field, {x: mult}))
        assert not y_dy.is_member(Multiarrangement(field, {y: mult}))


@pytest.mark.parametrize("field", [RATIONALS, Field(7), Field(2**31 - 1)], ids=str)
def test_verify_rejects_a_nonmember_with_the_right_degrees_and_determinant(field):
    # for y^3: y^2 dx and y dy have degree sum 3 and determinant -y^3, but y dy is no member
    y = LinearForm(field, 0, 1)
    arrangement = Multiarrangement(field, {y: 3})
    y2_dx = Derivation(HomogPoly(field, [1, 0, 0]), HomogPoly.zero(field, 2))
    y_dy = Derivation(HomogPoly.zero(field, 1), HomogPoly(field, [1, 0]))
    assert saito_determinant(y2_dx, y_dy) != HomogPoly.zero(field, 3)
    assert not verify_basis(BasisPair(y2_dx, y_dy), arrangement)
    y3_dy = Derivation(HomogPoly.zero(field, 3), HomogPoly(field, [1, 0, 0, 0]))
    assert verify_basis(BasisPair(y3_dy, Derivation.partial_x(field)), arrangement)


def test_verify_rejects_a_large_basis_with_one_coefficient_changed():
    # y, x, x + y, x - y and x + 2y at 96 each over F_(2^31-1), |mu| = 480
    field = Field(2**31 - 1)
    forms = [LinearForm(field, *ab) for ab in ((0, 1), (1, 0), (1, 1), (1, -1), (1, 2))]
    arrangement = Multiarrangement(field, {form: 96 for form in forms})
    pair = build_basis(arrangement)
    assert verify_basis(pair, arrangement)
    theta1, theta2 = pair
    f = list(theta1.f.coeffs)
    f[len(f) // 2] = (f[len(f) // 2] + 1) % field.characteristic
    changed = Derivation(HomogPoly._raw(field, tuple(f)), theta1.g)
    # x and y still divide as before: only the Taylor test on the other lines can refuse
    assert changed.is_member(Multiarrangement(field, {forms[0]: 96, forms[1]: 96}))
    assert not changed.is_member(arrangement)
    assert not verify_basis(BasisPair(changed, theta2), arrangement)


def test_saito_determinant():
    dx, dy = Derivation.partial_x(RATIONALS), Derivation.partial_y(RATIONALS)
    assert saito_determinant(dx, dy) == HomogPoly.constant(RATIONALS, 1)
    x_dx = Derivation(HomogPoly.monomial(RATIONALS, 1, 1), HomogPoly.zero(RATIONALS, 1))
    assert saito_determinant(x_dx, x_dx).is_zero()


def test_saito_determinant_frobenius_pair():
    F2 = Field(2)
    t1 = Derivation(HomogPoly.monomial(F2, 1, 1), HomogPoly.monomial(F2, 1, 0))
    t2 = Derivation(HomogPoly.monomial(F2, 2, 2), HomogPoly.monomial(F2, 2, 0))
    det = saito_determinant(t1, t2)
    # x y^2 - x^2 y = x y^2 + x^2 y over F_2
    assert det == HomogPoly(F2, [0, 1, 1, 0])
    assert not det.is_zero()


def test_times_linear():
    x = LinearForm(RATIONALS, 1, 0)
    assert Derivation.partial_y(RATIONALS).times_linear(x) == Derivation(
        HomogPoly.zero(RATIONALS, 1), HomogPoly.monomial(RATIONALS, 1, 1)
    )


def test_plus_scaled():
    x2_dx = Derivation(HomogPoly.monomial(RATIONALS, 2, 2), HomogPoly.zero(RATIONALS, 2))
    y_dy = Derivation(HomogPoly.zero(RATIONALS, 1), HomogPoly.monomial(RATIONALS, 1, 0))
    q = HomogPoly.monomial(RATIONALS, 1, 1)  # x
    combined = x2_dx.plus_scaled(q, y_dy)
    assert combined == Derivation(
        HomogPoly.monomial(RATIONALS, 2, 2), HomogPoly(RATIONALS, [0, 1, 0])
    )  # x^2 dx + xy dy
    with pytest.raises(ValueError):
        x2_dx.plus_scaled(HomogPoly.constant(RATIONALS, 1), y_dy)  # degree mismatch
    x_dx = Derivation(HomogPoly.monomial(RATIONALS, 1, 1), HomogPoly.zero(RATIONALS, 1))
    with pytest.raises(ValueError):
        x_dx.plus_scaled(HomogPoly.constant(RATIONALS, -1), x_dx)  # zero result


def test_primitive_reduction():
    theta = D(["2/3", 0], [0, "4/3"])
    reduced, factor = theta.primitive()
    assert reduced == D([1, 0], [0, 2])
    assert factor == Fraction(3, 2)
    already = D([1, 2], [3, 4])
    same, factor = already.primitive()
    assert same is already and factor == 1


def test_primitive_sign_convention():
    theta = D([0, -2], [0, -4])
    reduced, _ = theta.primitive()
    assert reduced == D([0, -1], [0, -2]) or reduced == D([0, 1], [0, 2])
    # trailing nonzero coefficient (x-power of g) ends positive
    assert reduced.g.coeffs[-1] > 0 or (reduced.g.is_zero() and reduced.f.coeffs[-1] > 0)


@given(st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(lambda c: c != 0))
def test_primitive_is_scaling_invariant(c):
    theta = D([6, "-9/2"], [0, 12])
    scaled = Derivation(theta.f.scale(c), theta.g.scale(c))
    assert scaled.primitive()[0] == theta.primitive()[0]


def test_primitive_trivial_over_prime_field():
    F3 = Field(3)
    theta = Derivation(HomogPoly(F3, [1, 2]), HomogPoly(F3, [2, 2]))
    reduced, factor = theta.primitive()
    assert reduced is theta and factor == 1


def test_text_round_trip():
    theta = D(["1/2", 0, 1], [0, 0, 0], RATIONALS)
    text = theta.to_text()
    assert Derivation.from_text(RATIONALS, text) == theta
    with pytest.raises(ValueError):
        Derivation.from_text(RATIONALS, "1:1,1")


def test_str():
    assert str(Derivation.euler(RATIONALS)) == "(x) dx + (y) dy"
    assert str(Derivation.partial_x(RATIONALS)) == "(1) dx + (0) dy"
