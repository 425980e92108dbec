"""Normalized forms and multiarrangement bookkeeping."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logvf import Field, LinearForm, Multiarrangement, RATIONALS, all_hyperplanes
from logvf.cli import parse_arrangement_text


def test_normalization_over_q():
    form = LinearForm(RATIONALS, 2, 4)
    assert (form.ax, form.ay) == (1, 2)
    assert str(form) == "x + 2*y"
    assert LinearForm(RATIONALS, 0, -3) == LinearForm(RATIONALS, 0, 1)
    assert str(LinearForm(RATIONALS, 0, -3)) == "y"


def test_normalization_over_f5():
    form = LinearForm(Field(5), 3, 1)
    assert (form.ax, form.ay) == (1, 2)  # 3^-1 = 2 mod 5


@pytest.mark.parametrize("p", [0, 7, 2**31 - 1])
@pytest.mark.parametrize(
    "ax, ay",
    [(3, 5), ("3/2", "-1/4"), ("0.25", "1e3"), (-2, -6), ("-4", "12"), (0, "-3/2"), ("1e3", 0)],
)
def test_form_coefficients_are_plain_ints(p, ax, ay):
    field = Field(p)
    header = f"field F {p}" if p else "field Q"
    scaled = LinearForm(field, Fraction(ax) * -3, Fraction(ay) * -3)
    parsed = parse_arrangement_text(f"{header}\n{ax} {ay} 1\n").forms()[0]
    for form in (LinearForm(field, ax, ay), scaled, parsed):
        assert type(form.ax) is int and type(form.ay) is int
        assert (form.ax, form.ay) == (scaled.ax, scaled.ay)


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        LinearForm(RATIONALS, 0, 0)


def test_equal_kernels_compare_equal():
    assert LinearForm(RATIONALS, 2, 4) == LinearForm(RATIONALS, 1, 2)
    assert LinearForm(RATIONALS, "1/2", "-1/2") == LinearForm(RATIONALS, 1, -1)
    assert hash(LinearForm(RATIONALS, 2, 4)) == hash(LinearForm(RATIONALS, 1, 2))


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-20, max_value=20, max_denominator=10).filter(lambda c: c != 0),
)
def test_normalization_kills_scaling(a, b, c):
    if a == 0 and b == 0:
        return
    assert LinearForm(RATIONALS, a, b) == LinearForm(RATIONALS, c * a, c * b)


def test_point_raw_lies_on_kernel():
    form = LinearForm(RATIONALS, 3, 7)
    px, py = form.point_raw()
    assert form.ax * px + form.ay * py == 0


def x_y_xy():
    return (
        LinearForm(RATIONALS, 1, 0),
        LinearForm(RATIONALS, 0, 1),
        LinearForm(RATIONALS, 1, 1),
    )


def test_total():
    x, y, xy = x_y_xy()
    assert Multiarrangement(RATIONALS).total == 0
    assert Multiarrangement(RATIONALS, {x: 2, y: 3}).total == 5
    assert Multiarrangement(RATIONALS, {xy: 1}).total == 1


def test_incremented():
    x, y, _ = x_y_xy()
    arr = Multiarrangement(RATIONALS, {x: 1})
    assert arr.incremented(y) == Multiarrangement(RATIONALS, {x: 1, y: 1})
    assert arr.incremented(x) == Multiarrangement(RATIONALS, {x: 2})
    assert arr == Multiarrangement(RATIONALS, {x: 1})  # the original is unchanged
    with pytest.raises(ValueError):
        arr.incremented(LinearForm(Field(5), 1, 0))


def test_invalid_multiplicities():
    x, _, _ = x_y_xy()
    with pytest.raises(ValueError):
        Multiarrangement(RATIONALS, {x: 0})
    with pytest.raises(ValueError):
        Multiarrangement(RATIONALS, {x: -1})
    with pytest.raises(ValueError):
        Multiarrangement(RATIONALS, {x: "2"})


def test_multiarrangement_takes_only_a_mapping():
    x, y, _ = x_y_xy()
    consumed = []

    def pairs():
        consumed.append(True)
        yield x, 1

    for bad in ([(x, 1), (y, 2)], [], ((x, 1),), pairs(), 5):
        with pytest.raises(ValueError, match="must be a mapping"):
            Multiarrangement(RATIONALS, bad)
    assert not consumed  # refused before a single pair is read

    class ItemsOnly:
        def items(self):
            return [(x, 2), (y, 1)]

    assert Multiarrangement(RATIONALS, ItemsOnly()) == Multiarrangement(RATIONALS, {x: 2, y: 1})
    assert Multiarrangement(RATIONALS, None) == Multiarrangement(RATIONALS, {}) == Multiarrangement(RATIONALS)


def test_duplicate_forms_rejected():
    # (2, 0) normalizes to the same hyperplane as (1, 0)
    pairs = [(LinearForm(RATIONALS, 1, 0), 1), (LinearForm(RATIONALS, 2, 0), 2)]
    with pytest.raises(ValueError):
        Multiarrangement(RATIONALS, pairs)


def test_canonical_order():
    x, y, xy = x_y_xy()
    arr = Multiarrangement(RATIONALS, {xy: 1, x: 1, y: 1})
    assert arr.forms() == (y, x, xy)
    assert str(arr) == "{y: 1, x: 1, x + y: 1}"


def test_multiplicity_lookup():
    x, y, _ = x_y_xy()
    arr = Multiarrangement(RATIONALS, {x: 2})
    assert arr.multiplicity(x) == 2
    assert arr.multiplicity(y) == 0
    assert x in arr and y not in arr
    assert len(arr) == 1


def test_all_hyperplanes_counts():
    forms2 = all_hyperplanes(Field(2))
    assert [str(f) for f in forms2] == ["y", "x", "x + y"]
    assert len(all_hyperplanes(Field(3))) == 4
    assert len(all_hyperplanes(Field(5))) == 6
    with pytest.raises(ValueError):
        all_hyperplanes(RATIONALS)


def test_all_hyperplanes_refuses_a_huge_field_before_building_forms():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2147483648"):
        all_hyperplanes(Field(2**31 - 1))
    assert time.perf_counter() - start < 1.0
    assert len(all_hyperplanes(Field(10007))) == 10008


@given(st.sampled_from([2, 3, 5, 7]))
def test_all_hyperplanes_distinct_and_complete(p):
    forms = all_hyperplanes(Field(p))
    assert len(set(forms)) == p + 1
    # every nonzero vector lies on exactly one of them
    for a in range(p):
        for b in range(p):
            if a == 0 and b == 0:
                continue
            hits = [f for f in forms if (f.ax * a + f.ay * b) % p == 0]
            assert len(hits) == 1
