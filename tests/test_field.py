"""Scalars over Q and prime fields: coercion and F_p division."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logvf import Field, RATIONALS
from logvf.field import _is_prime


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


def test_inverses():
    assert Field(5).div_raw(1, 2) == 3
    assert Field(101).div_raw(7, 3) * 3 % 101 == 7


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        Field(5).div_raw(1, 0)
    # 1/5 does not exist in F_5: the denominator collapses to zero
    with pytest.raises(ZeroDivisionError):
        Field(5).coerce(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        Field(5).coerce("1/5")


def test_floats_rejected():
    with pytest.raises(ValueError):
        RATIONALS.coerce(0.5)
    with pytest.raises(ValueError):
        Field(3).coerce(1.0)


def test_string_parsing():
    assert RATIONALS.coerce("-5") == -5
    assert RATIONALS.coerce("0.25") == Fraction(1, 4)
    assert RATIONALS.coerce("2/3") == Fraction(2, 3)
    assert RATIONALS.coerce("1e3") == 1000 and RATIONALS.coerce("25E-2") == Fraction(1, 4)
    assert Field(7).coerce("10/3") == Field(7).div_raw(3, 3)
    for bad in ("x", "1/0", "1e", "1.5.2", ""):
        with pytest.raises(ValueError):
            RATIONALS.coerce(bad)


@pytest.mark.parametrize("token", ["1e100000000", "1E-100000000", "-2.5e+4301", "1e" + "9" * 5000])
def test_huge_exponents_rejected_at_once(token):
    # Fraction would build 10**exp itself, outside the integer-string digit limit
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent|cannot parse"):
        RATIONALS.coerce(token)
    assert time.perf_counter() - start < 0.5
    assert RATIONALS.coerce("1e4300") == 10**4300


def test_equality_and_hash_across_representations():
    a = RATIONALS.coerce(Fraction(4, 2))
    b = RATIONALS.coerce("2")
    assert type(a) is int and type(b) is int
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@given(st.sampled_from([2, 3, 5, 7, 11, 2**31 - 1]), st.integers(), st.integers())
def test_prime_field_axioms(p, x, y):
    F = Field(p)
    a, b = F.coerce(x), F.coerce(y)
    assert 0 <= a < p and (a - x) % p == 0
    if b:
        assert F.div_raw(a, b) * b % p == a
        assert F.div_raw(F.div_raw(1, b), b) * b * b % p == 1


def test_str_and_repr():
    assert str(Field(5)) == "F_5"
    assert str(RATIONALS) == "Q"
    assert repr(Field(5)) == "Field(characteristic=5)"
