"""Scalar arithmetic over Q and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logvf import Field, FieldElement, FieldKind, RATIONALS
from logvf.field import _is_prime


def test_field_kinds():
    assert RATIONALS.kind is FieldKind.RATIONALS
    assert RATIONALS.characteristic == 0
    assert Field(7).kind is FieldKind.PRIME


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 15, 100, -2])
def test_non_prime_characteristic_rejected(bad):
    with pytest.raises(ValueError):
        Field(bad)


def test_primality_agrees_with_sieve():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for n in range(2, int(limit**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, limit, n)))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize(
    "n, prime",
    [(561, False), (3215031751, False), (2**31 - 1, True), (2**61 - 1, True), (2**61 + 1, False)],
)
def test_primality_hard_cases(n, prime):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7
    assert _is_prime(n) is prime
    if prime:
        assert Field(n).characteristic == n


def test_oversized_characteristic_rejected():
    with pytest.raises(ValueError, match="too large"):
        Field(10**30 + 57)


def test_rational_addition():
    a = RATIONALS.element(Fraction(1, 2))
    b = RATIONALS.element("1/3")
    assert a + b == RATIONALS.element(Fraction(5, 6))


def test_prime_addition():
    F7 = Field(7)
    assert F7.element(5) + F7.element(4) == F7.element(2)


def test_additive_identity():
    a = RATIONALS.element("7/3")
    assert a + RATIONALS.zero == a


def test_inverses():
    assert Field(5).element(2).inverse() == Field(5).element(3)
    assert RATIONALS.element("-3/4").inverse() == RATIONALS.element("-4/3")


def test_from_integer_reduces():
    assert Field(7).from_integer(10) == Field(7).element(3)
    with pytest.raises(ValueError):
        RATIONALS.from_integer("3")


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        RATIONALS.one / RATIONALS.zero
    with pytest.raises(ZeroDivisionError):
        Field(5).zero.inverse()
    # 1/5 does not exist in F_5: the denominator collapses to zero
    with pytest.raises(ZeroDivisionError):
        Field(5).element(Fraction(1, 5))


def test_floats_rejected():
    with pytest.raises(ValueError):
        RATIONALS.element(0.5)
    with pytest.raises(ValueError):
        Field(3).element(1.0)


def test_mixed_fields_rejected():
    a = Field(5).element(1)
    b = Field(7).element(1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        RATIONALS.element(1) * a
    assert a != b  # comparison is allowed, just never equal


def test_string_parsing():
    assert RATIONALS.element("-5") == RATIONALS.element(-5)
    assert RATIONALS.element("0.25") == RATIONALS.element(Fraction(1, 4))
    assert Field(7).element("10/3") == Field(7).element(10) / Field(7).element(3)
    with pytest.raises(ValueError):
        RATIONALS.element("x")


def test_pow():
    assert RATIONALS.element("2/3") ** 3 == RATIONALS.element("8/27")
    assert RATIONALS.element(2) ** -2 == RATIONALS.element("1/4")
    assert Field(5).element(2) ** -1 == Field(5).element(3)
    assert Field(3).element(2) ** 0 == Field(3).one


def test_equality_and_hash_across_representations():
    a = RATIONALS.element(Fraction(4, 2))
    b = RATIONALS.element(2)
    assert a == b and hash(a) == hash(b)
    assert a == 2 and a == Fraction(2)
    assert len({a, b}) == 1


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(x, y, z):
    a, b, c = (RATIONALS.element(v) for v in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a / b) * b == a


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(), st.integers())
def test_prime_field_axioms(p, x, y):
    F = Field(p)
    a, b = F.element(x), F.element(y)
    assert a + b == b + a
    assert a * (b + F.one) == a * b + a
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == F.one


@given(st.sampled_from([2, 3, 5, 7]), st.integers())
def test_frobenius_is_additive_on_scalars(p, x):
    # a^p = a in F_p, the scalar shadow of the characteristic-p identities
    a = Field(p).element(x)
    assert a**p == a


def test_str_and_repr():
    assert str(RATIONALS.element("2/3")) == "2/3"
    assert str(Field(5)) == "F_5"
    assert str(RATIONALS) == "Q"
    assert "2/3" in repr(RATIONALS.element("2/3"))


def test_is_zero_and_bool():
    assert RATIONALS.zero.is_zero()
    assert not RATIONALS.one.is_zero()
    assert bool(RATIONALS.one)
    assert not bool(Field(3).element(3))
