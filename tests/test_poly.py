"""Homogeneous polynomial arithmetic, evaluation and linear-form division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logvf import Field, HomogPoly, InexactDivisionError, LinearForm, RATIONALS
from logvf.poly import div_linear_power

from conftest import dense_product

F2 = Field(2)


def P(coeffs, field=RATIONALS):
    return HomogPoly(field, coeffs)


def divide(h, form, power):
    """``h / form^power`` through the tuple kernel :func:`div_linear_power`."""
    quotient = div_linear_power(h.coeffs, form.ax, form.ay, h.field.characteristic, power)
    return HomogPoly._raw(h.field, quotient)


def test_addition():
    # coefficients are listed by x-power: [y^2, xy, x^2]
    p = P([1, 0, 1])  # x^2 + y^2
    q = P([-1, 0, 2])  # 2x^2 - y^2
    assert p + q == P([0, 0, 3])
    assert p + HomogPoly.zero(RATIONALS, 2) == p


def test_addition_to_zero_keeps_tag_but_equals_zero():
    p = P([1, 1])  # x + y
    z = p + p.scale(-1)
    assert z.is_zero()
    assert z.degree == 1
    assert z == HomogPoly.zero(RATIONALS, 0)  # zero compares equal across degrees


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        P([1, 1]) + P([1, 0, 1])


def test_multiplication():
    assert P([1, 1]) * P([-1, 1]) == P([-1, 0, 1])  # (x+y)(x-y) = x^2 - y^2
    sq = P([1, 1], F2) * P([1, 1], F2)
    assert sq == P([1, 0, 1], F2)  # (x+y)^2 = x^2 + y^2 in characteristic 2
    assert (HomogPoly.zero(RATIONALS, 1) * P([1, 1])).is_zero()


def test_scale():
    assert P([1, 1]).scale(0).is_zero()
    assert P([1, 2]).scale("1/2") == P(["1/2", 1])
    assert P([1, 0]).scale(3) == P([3, 0])
    # ``*`` multiplies polynomials only; scalars go through scale()
    for scalar_product in (lambda: 3 * P([1, 0]), lambda: P([1, 0]) * 3, lambda: -P([1, 0])):
        with pytest.raises(TypeError):
            scalar_product()


def test_times_linear():
    y_poly = HomogPoly.monomial(RATIONALS, 1, 0)  # y
    x_form = LinearForm(RATIONALS, 1, 0)
    assert y_poly.times_linear(x_form) == P([0, 1, 0])  # x*y
    assert HomogPoly.zero(RATIONALS, 1).times_linear(x_form).is_zero()


def test_eval():
    assert not P([-1, 0, 1]).eval_raw(1, 1)  # x^2 - y^2 at (1, 1)
    assert not P([2, 1]).eval_raw(2, -1)  # x + 2y at (2, -1)
    assert not HomogPoly.monomial(RATIONALS, 2, 2).eval_raw(0, 1)  # x^2 at (0, 1)
    assert P([1, 2, 3]).eval_raw(1, 1) == 6
    assert P([1, 2, 3], Field(5)).eval_raw(1, 1) == 1


def test_divisibility():
    # a linear form divides h exactly when h vanishes at the form's kernel point
    x2_minus_y2 = P([-1, 0, 1])
    x2_plus_y2 = P([1, 0, 1])
    x_minus_y = LinearForm(RATIONALS, 1, -1)
    assert not x2_minus_y2.eval_raw(*x_minus_y.point_raw())
    assert x2_plus_y2.eval_raw(*x_minus_y.point_raw())
    assert not P([1, 0, 1], F2).eval_raw(*LinearForm(F2, 1, 1).point_raw())


def test_div_linear_power():
    x = LinearForm(RATIONALS, 1, 0)
    xy = LinearForm(RATIONALS, 1, 1)
    x2y = HomogPoly.monomial(RATIONALS, 3, 2)  # x^2 y
    assert divide(x2y, x, 2) == HomogPoly.monomial(RATIONALS, 1, 0)
    cube = P([1, 1]) * P([1, 1]) * P([1, 1])
    assert divide(cube, xy, 2) == P([1, 1])
    with pytest.raises(InexactDivisionError):
        divide(P([1, 0, 1]), x, 1)  # remainder y^2
    assert divide(x2y, x, 0) == x2y


def test_div_by_y_form():
    y = LinearForm(RATIONALS, 0, 1)
    xy2 = HomogPoly.monomial(RATIONALS, 3, 1)  # x y^2
    assert divide(xy2, y, 2) == HomogPoly.monomial(RATIONALS, 1, 1)
    with pytest.raises(InexactDivisionError):
        divide(HomogPoly.monomial(RATIONALS, 2, 2), y, 1)


def test_monomial_and_constant():
    assert HomogPoly.constant(RATIONALS, 5) == P([5])
    assert HomogPoly.monomial(RATIONALS, 3, 1, 2) == P([0, 2, 0, 0])
    with pytest.raises(ValueError):
        HomogPoly.monomial(RATIONALS, 2, 3)


def test_str():
    assert str(P(["-1/2", 0, 0, 3])) == "3*x^3 - 1/2*y^3"
    assert str(P([0, 3, 0, 0])) == "3*x*y^2"
    assert str(HomogPoly.zero(RATIONALS, 4)) == "0"
    assert str(P([1, -1])) == "-x + y"
    assert str(P([2], F2)) == "0"


def test_text_round_trip():
    p = P(["-1/2", 0, 3])
    assert p.to_text() == "2:-1/2,0,3"
    assert HomogPoly.from_text(RATIONALS, p.to_text()) == p
    assert HomogPoly.from_text(F2, "1:1,1") == P([1, 1], F2)
    with pytest.raises(ValueError):
        HomogPoly.from_text(RATIONALS, "2:1,2")  # wrong count
    with pytest.raises(ValueError):
        HomogPoly.from_text(RATIONALS, "nope")


def test_float_coefficients_rejected():
    with pytest.raises(ValueError):
        P([0.5, 1])


def test_degree_is_read_off_the_coefficients():
    assert P([1, 0, 0, 0]).degree == 3 and P([7]).degree == 0
    with pytest.raises(ValueError, match="at least one coefficient"):
        P([])


small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def poly_strategy(field=RATIONALS, max_degree=5):
    if field.characteristic:
        scalars = st.integers(min_value=0, max_value=field.characteristic - 1)
    else:
        scalars = small_rationals
    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda d: st.lists(scalars, min_size=d + 1, max_size=d + 1).map(
            lambda cs: HomogPoly(field, cs)
        )
    )


@given(poly_strategy(), poly_strategy())
def test_mul_commutes_and_adds_degrees(p, q):
    assert p * q == q * p
    assert (p * q).degree == p.degree + q.degree


@given(poly_strategy(), small_rationals, small_rationals)
def test_eval_is_multiplicative(p, a, b):
    assert (p * p).eval_raw(a, b) == p.eval_raw(a, b) * p.eval_raw(a, b)


@given(
    poly_strategy(),
    st.fractions(min_value=-10, max_value=10, max_denominator=5),
    st.booleans(),
)
def test_multiply_then_divide_round_trips(p, c, use_y):
    form = LinearForm(RATIONALS, 0, 1) if use_y else LinearForm(RATIONALS, 1, c)
    assert divide(p.times_linear(form), form, 1) == p


@given(poly_strategy(), st.fractions(min_value=-10, max_value=10, max_denominator=5), st.booleans())
@settings(max_examples=60)
def test_divisibility_predicate_matches_actual_division(p, c, use_y):
    # dual route: the kernel-point evaluation must agree with synthetic division
    form = LinearForm(RATIONALS, 0, 1) if use_y else LinearForm(RATIONALS, 1, c)
    divided_cleanly = True
    try:
        divide(p, form, 1)
    except InexactDivisionError:
        divided_cleanly = False
    assert (not p.eval_raw(*form.point_raw())) == divided_cleanly


def same_degree_pair(field, max_degree=5):
    scalars = st.integers(min_value=0, max_value=field.characteristic - 1)
    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda d: st.tuples(
            st.lists(scalars, min_size=d + 1, max_size=d + 1),
            st.lists(scalars, min_size=d + 1, max_size=d + 1),
        ).map(lambda cs: (HomogPoly(field, cs[0]), HomogPoly(field, cs[1])))
    )


@given(same_degree_pair(Field(5)))
def test_distributivity_mod_p(pq):
    p, q = pq
    r = HomogPoly.monomial(Field(5), 0, 0, 2)
    assert (p + q) * r == p * r + q * r


KERNEL_FIELDS = [RATIONALS, Field(7), Field(2**31 - 1)]


def monic_form(field, kind, c):
    """The form y, x or x + c*y."""
    if kind == "y":
        return LinearForm(field, 0, 1)
    return LinearForm(field, 1, 0 if kind == "x" else c)


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(KERNEL_FIELDS),
    coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=31),
    kind=st.sampled_from(["y", "x", "x + c*y"]),
    c=st.integers(-20, 20),
)
def test_div_linear_remainder_identity(field, coeffs, kind, c):
    # h = form*q + r*y^deg (r*x^deg for y), so h(point) = (-1)^deg * r (r for y)
    h = HomogPoly(field, coeffs)
    form = monic_form(field, kind, c)
    q, r = h._div_linear(form)
    deg = h.degree
    rest = HomogPoly.monomial(field, deg, deg if kind == "y" else 0, r)
    assert q.times_linear(form) + rest == h
    signed = -r if kind != "y" and deg % 2 else r
    p = field.characteristic
    assert h.eval_raw(*form.point_raw()) == (signed % p if p else signed)


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(KERNEL_FIELDS),
    coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=31),
    ax=st.integers(-5, 5),
    ay=st.integers(-5, 5),
)
def test_times_linear_matches_dense_product(field, coeffs, ax, ay):
    if not (ax or ay):
        ax = 1
    h = HomogPoly(field, coeffs)
    form = LinearForm(field, ax, ay)  # non-monic over Q when |ax| > 1
    product = h.times_linear(form)
    reference = dense_product(h.coeffs, (form.ay, form.ax), field.characteristic)
    assert (product.degree, product.coeffs) == (len(reference) - 1, reference)


def test_rational_arithmetic_collapses_integral_fractions():
    h = P([Fraction(1, 2), 3])
    for out in (h.scale(2), h + h, h * P([2])):
        assert out.coeffs == (1, 6)
        assert all(type(c) is int for c in out.coeffs)
