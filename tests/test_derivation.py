"""Derivations, membership, determinants and primitive reduction."""

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
    saito_determinant,
)


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
    scaled = theta.scale(c)
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
