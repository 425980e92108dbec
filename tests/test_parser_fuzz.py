"""Fuzzed text inputs: every parser ends in a value or in exit status 2, never a traceback."""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from logvf import Derivation, Field, Multiarrangement, RATIONALS
from logvf.cli import ParseError, main, parse_arrangement_text

# scalar tokens: valid ints, fractions, decimals and exponents, huge values and garbage
SCALARS = st.one_of(
    st.integers(-12, 12).map(str),
    st.sampled_from(
        [
            "3/2", "-1/3", "1/0", "0/5", "0.25", "-2.5", ".5", "1e3", "25E-2", "-1e+2",
            "1e100000000", "1E-100000000", "2.5e4301", "1e" + "9" * 5000, "9" * 5000,
            "1_000", "x", "", "--", "1e", "1/", "/2", "1.2.3", "nan", "inf", "0x10",
        ]
    ),
)
HEADERS = st.sampled_from(
    [
        "field Q", "field F 7", "field F 2", "field F 4", "field F 1", "field F -3",
        "field F 0", "field F " + "9" * 40, "field F " + "9" * 5000, "field", "field G",
        "field F", "field F 7 7", "field Q Q", "Q", "", "# comment",
    ]
)
MULTIPLICITIES = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["1.5", "x", "", "9" * 5000]))
LINES = st.lists(
    st.one_of(
        st.tuples(SCALARS, SCALARS, MULTIPLICITIES).map(" ".join),
        st.lists(SCALARS, max_size=5).map(" ".join),
        HEADERS,
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(HEADERS, LINES)
@example("field Q", ["1e1000000 1 1"])
@example("field Q", ["1e100000000 1 1"])
@example("field Q", ["1 0 " + "9" * 5000])
@example("field F 7", ["1 1/7 1"])
def test_parse_arrangement_text_returns_or_raises_parse_error(header, lines):
    text = "\n".join([header, *lines])
    try:
        arrangement = parse_arrangement_text(text)
    except ParseError:
        return
    assert isinstance(arrangement, Multiarrangement)


POLY_TEXT = st.one_of(
    st.tuples(st.integers(-1, 4).map(str), st.lists(SCALARS, max_size=6).map(",".join)).map(":".join),
    SCALARS,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([RATIONALS, Field(7)]), st.lists(POLY_TEXT, min_size=1, max_size=3).map(";".join))
@example(RATIONALS, "0:1e100000000;0:1")
@example(RATIONALS, "1:1,2;1:3,1/0")
@example(Field(7), "0:1/7;0:1")
def test_derivation_from_text_returns_or_raises_value_error(field, text):
    try:
        theta = Derivation.from_text(field, text)
    except (ValueError, ZeroDivisionError):  # the CLI turns both into exit status 2
        return
    assert isinstance(theta, Derivation)


def _run(argv):
    """Exit status of the CLI, counting argparse's usage errors (SystemExit 2)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


INDEX = st.sampled_from(["-1", "0", "1", "2", "11", "40", "1" + "0" * 30, "x", "1e3"])
PRIMES = st.sampled_from(["2", "3", "5", "7", "4", "1", "0", "-7", "4099", "2147483647", "1" + "0" * 30, "x"])


@settings(max_examples=200, deadline=None)
@given(PRIMES, INDEX, st.one_of(st.none(), st.lists(SCALARS, max_size=9).map(",".join)))
@example("2", "40", None)
@example("2", "40", "0,0,0")
@example("2147483647", "-1", "0")
@example("2", "1", "0,1,0")
def test_frobenius_command_exits_0_or_2(p, i, shifts):
    argv = ["frobenius", p, i] + ([] if shifts is None else ["--shifts", shifts])
    assert _run(argv) in (0, 2)
