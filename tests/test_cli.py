"""End-to-end command-line behaviour: parsing, output, exit codes."""

import sys
import time

import pytest

from logvf import (
    BasisPair,
    Derivation,
    Field,
    HomogPoly,
    LinearForm,
    Multiarrangement,
    PropositionReport,
    RATIONALS,
    build_basis,
    verify_basis,
)
from logvf.cli import (
    CHAIN_TOTAL_LIMIT,
    FROBENIUS_TOTAL_LIMIT,
    ORACLE_FP_TOTAL_LIMIT,
    ORACLE_TOTAL_LIMIT,
    PROP_TUPLE_LIMIT,
    PROP_WORK_LIMIT,
    VERIFY_DEGREE_LIMIT,
    ParseError,
    _print_pair,
    main,
    parse_arrangement_text,
    render_arrangement,
)

from conftest import sample_arrangements


def write(tmp_path, text, name="arr.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------


def test_parse_basic():
    arr = parse_arrangement_text("field Q\n1 0 2\n0 1 3\n")
    assert arr == Multiarrangement(
        RATIONALS, {LinearForm(RATIONALS, 1, 0): 2, LinearForm(RATIONALS, 0, 1): 3}
    )


def test_parse_normalizes():
    arr = parse_arrangement_text("field F 7\n2 4 1\n")
    F7 = Field(7)
    assert arr == Multiarrangement(F7, {LinearForm(F7, 1, 2): 1})


def test_parse_comments_and_blanks():
    text = "# a comment\n\nfield Q\n1 0 1  # trailing comment\n\n# done\n"
    arr = parse_arrangement_text(text)
    assert arr.total == 1


def test_parse_duplicate_hyperplane():
    with pytest.raises(ParseError) as err:
        parse_arrangement_text("field Q\n1 0 1\n2 0 1\n")
    assert "line 3" in str(err.value) and "duplicate" in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_arrangement_text("field Q\n1 0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_arrangement_text("1 0 1\n")  # missing header
    with pytest.raises(ParseError):
        parse_arrangement_text("field F 6\n")  # not a prime
    with pytest.raises(ParseError):
        parse_arrangement_text("field Q\n0 0 1\n")  # zero form
    with pytest.raises(ParseError):
        parse_arrangement_text("field Q\n1 0 0\n")  # zero multiplicity
    with pytest.raises(ParseError):
        parse_arrangement_text("field Q\nx 0 1\n")  # bad coefficient
    with pytest.raises(ParseError):
        parse_arrangement_text("")  # empty file


def test_parse_rational_coefficients():
    arr = parse_arrangement_text("field Q\n2 -4/3 5\n")
    assert arr.forms()[0] == LinearForm(RATIONALS, 1, "-2/3")


def test_render_round_trip():
    for arr in sample_arrangements(808, 25, max_total=8):
        assert parse_arrangement_text(render_arrangement(arr)) == arr


def test_render_canonical():
    text = render_arrangement(
        Multiarrangement(RATIONALS, {LinearForm(RATIONALS, 1, 1): 1, LinearForm(RATIONALS, 0, 1): 2})
    )
    assert text == "field Q\n0 1 2\n1 1 1\n"


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def test_exponents_command(tmp_path, capsys):
    path = write(tmp_path, "field Q\n1 0 5\n0 1 2\n")
    assert main(["exponents", path]) == 0
    assert capsys.readouterr().out == "exponents: {5, 2}\n"


@pytest.mark.parametrize(
    "text",
    [
        "field Q\n1 0 1\n0 1 1\n1 1 1\n",
        "field Q\n0 1 3\n1 0 2\n1 -1 2\n2 1 3\n",
        "field F 7\n0 1 2\n1 0 3\n1 3 2\n1 5 2\n",
        "field F 2147483647\n0 1 4\n1 0 4\n1 1 3\n1 2 5\n",
    ],
)
def test_exponents_command_balanced_runs_the_chain(tmp_path, capsys, text):
    arrangement = parse_arrangement_text(text)
    d1, d2 = build_basis(arrangement).degrees()
    assert main(["exponents", write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == f"exponents: {{{d1}, {d2}}}\n"


def test_exponents_command_dominant_line_uses_closed_form(tmp_path, capsys, monkeypatch):
    def no_chain(arrangement):
        raise AssertionError("the chain is quadratic in |mu| for a dominant line")

    monkeypatch.setattr("logvf.cli.exponents", no_chain)
    path = write(tmp_path, "field Q\n1 0 200000\n0 1 1\n")
    assert main(["exponents", path]) == 0
    assert capsys.readouterr().out == "exponents: {200000, 1}\n"


def test_basis_command_empty_arrangement(tmp_path, capsys):
    path = write(tmp_path, "field Q\n")
    assert main(["basis", path]) == 0
    out = capsys.readouterr().out
    assert "theta1 (degree 0): (1) dx + (0) dy" in out
    assert "theta2 (degree 0): (0) dx + (1) dy" in out
    assert "exponents: {0, 0}" in out


def test_basis_command_three_lines(tmp_path, capsys):
    path = write(tmp_path, "field Q\n1 0 1\n0 1 1\n1 1 1\n")
    assert main(["basis", path]) == 0
    out = capsys.readouterr().out
    assert "exponents: {2, 1}" in out
    assert "(x) dx + (y) dy" in out  # the Euler derivation shows up


def test_verify_command_accepts_and_rejects(tmp_path, capsys):
    path = write(tmp_path, "field Q\n1 0 1\n")
    good = main(["verify", path, "--theta1", "1:0,1;1:0,0", "--theta2", "0:0;0:1"])
    assert good == 0
    assert "basis: true" in capsys.readouterr().out
    bad = main(["verify", path, "--theta1", "0:1;0:0", "--theta2", "0:0;0:1"])
    assert bad == 1
    out = capsys.readouterr().out
    assert "basis: false" in out
    assert "theta1 in D(A, mu): false" in out
    # the lower-degree derivation first: the labels still follow the flags
    swapped = main(["verify", path, "--theta1", "0:1;0:0", "--theta2", "1:0,0;1:1,0"])
    assert swapped == 1
    out = capsys.readouterr().out
    assert "theta1 in D(A, mu): false" in out and "theta2 in D(A, mu): true" in out


def test_verify_command_decides_as_verify_basis(tmp_path, capsys, monkeypatch):
    # the verdict is read off the printed facts, each membership decided once; verify_basis
    # must agree on bases, dependent pairs, non-members and pairs of the wrong degree sum
    calls = []
    is_member = Derivation.is_member
    monkeypatch.setattr(Derivation, "is_member", lambda theta, arr: calls.append(theta) or is_member(theta, arr))
    verdicts = set()
    for arr in sample_arrangements(17, 12, max_total=8):
        field = arr.field
        theta1, theta2 = build_basis(arr)
        path = write(tmp_path, render_arrangement(arr))
        for pair in [(theta1, theta2), (theta2, theta1), (theta2, theta2), (Derivation.euler(field), theta2),
                     (Derivation.partial_x(field), theta1)]:
            expected = verify_basis(BasisPair(*pair), arr)
            calls.clear()
            status = main(["verify", path, "--theta1", pair[0].to_text(), "--theta2", pair[1].to_text()])
            assert status == (0 if expected else 1), (arr, pair)
            assert capsys.readouterr().out.endswith(f"basis: {'true' if expected else 'false'}\n")
            assert len(calls) == 2
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_verify_command_degree_limit(tmp_path, capsys, monkeypatch):
    # every basis logvf prints (frobenius goes up to |mu| = 4096) stays verifiable
    assert VERIFY_DEGREE_LIMIT >= FROBENIUS_TOTAL_LIMIT

    def no_product(*a):
        raise AssertionError("nothing may be multiplied above the degree limit")

    monkeypatch.setattr(BasisPair, "independent", no_product)
    monkeypatch.setattr(Derivation, "is_member", no_product)
    path = write(tmp_path, "field Q\n1 0 1\n")
    big = f"{VERIFY_DEGREE_LIMIT + 1}:" + ",".join(["1"] * (VERIFY_DEGREE_LIMIT + 2))
    for theta1, theta2 in [(f"{big};{big}", "0:0;0:1"), ("0:1;0:0", f"{big};0:0")]:
        start = time.perf_counter()
        assert main(["verify", path, "--theta1", theta1, "--theta2", theta2]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify is limited to degree <= {VERIFY_DEGREE_LIMIT}, got {VERIFY_DEGREE_LIMIT + 1}\n"


def test_verify_command_accepts_the_degree_limit_itself(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("logvf.cli.VERIFY_DEGREE_LIMIT", 2)
    path = write(tmp_path, "field Q\n1 0 2\n")  # basis x^2 dx, dy
    assert main(["verify", path, "--theta1", "2:0,0,1;2:0,0,0", "--theta2", "0:0;0:1"]) == 0
    assert "basis: true" in capsys.readouterr().out
    assert main(["verify", path, "--theta1", "3:0,0,0,1;3:0,0,0,0", "--theta2", "0:0;0:1"]) == 2
    assert "degree <= 2, got 3" in capsys.readouterr().err


def test_verify_command_bad_derivation_text(tmp_path, capsys):
    path = write(tmp_path, "field Q\n1 0 1\n")
    assert main(["verify", path, "--theta1", "junk", "--theta2", "0:0;0:1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "field Q\n1 0 1\n0 1 1\n1 1 1\n")
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert "d = 0: dim 0" in out
    assert "d = 1: dim 1" in out
    assert "d = 2: dim 3" in out
    assert "d = 3: dim 5" in out
    assert "exponents: {2, 1}" in out


def test_oracle_command_size_limit(tmp_path, capsys, monkeypatch):
    def no_oracle(arrangement):
        raise AssertionError("the oracle must not start above the size limit")

    monkeypatch.setattr("logvf.cli.dimension_table", no_oracle)
    for field, limit in (("Q", ORACLE_TOTAL_LIMIT), ("F 101", ORACLE_FP_TOTAL_LIMIT)):
        path = write(tmp_path, f"field {field}\n1 0 {limit + 1}\n")
        assert main(["oracle", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: oracle is limited to |mu| <= {limit}, got {limit + 1}\n"



@pytest.mark.parametrize("command", ["basis", "trace"])
def test_chain_commands_size_limit(tmp_path, capsys, monkeypatch, command):
    def no_chain(arrangement):
        raise AssertionError("the chain must not start above the size limit")

    monkeypatch.setattr("logvf.cli.build_basis", no_chain)
    monkeypatch.setattr("logvf.cli.trace_chain", no_chain)
    path = write(tmp_path, "field Q\n1 0 200000\n0 1 1\n")
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command} is limited to |mu| <= {CHAIN_TOTAL_LIMIT}, got 200001\n"


@pytest.mark.parametrize("command", ["basis", "trace"])
def test_chain_commands_accept_the_size_limit_itself(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("logvf.cli.CHAIN_TOTAL_LIMIT", 3)
    assert main([command, write(tmp_path, "field Q\n1 0 2\n0 1 1\n")]) == 0
    assert capsys.readouterr().out.endswith("exponents: {2, 1}\n")
    assert main([command, write(tmp_path, "field Q\n1 0 3\n0 1 1\n")]) == 2
    assert "|mu| <= 3, got 4" in capsys.readouterr().err


def test_exponents_command_size_limit(tmp_path, capsys, monkeypatch):
    def no_chain(arrangement):
        raise AssertionError("the chain must not start above the size limit")

    monkeypatch.setattr("logvf.cli.exponents", no_chain)
    monkeypatch.setattr("logvf.cli.build_basis", no_chain)
    path = write(tmp_path, "field Q\n0 1 3000\n1 0 3000\n1 1 3000\n1 -1 3000\n")
    assert main(["exponents", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: exponents is limited to |mu| <= {CHAIN_TOTAL_LIMIT}, got 12000\n"


def test_print_pair_prints_integers_past_the_string_digit_limit(capsys):
    big = 10**5000 - 1  # 5000 nines, beyond Python's default 4300-digit limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    theta1 = Derivation(HomogPoly.constant(RATIONALS, big), HomogPoly.zero(RATIONALS, 0))
    _print_pair(BasisPair(theta1, Derivation.partial_y(RATIONALS)))
    assert "9" * 5000 in capsys.readouterr().out
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no integer string limit"
)
def test_parse_keeps_the_string_digit_limit(tmp_path, capsys):
    path = write(tmp_path, f"field Q\n{'7' * 5000} 1 2\n0 1 1\n")
    assert main(["basis", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: ")


def test_huge_exponent_coefficient_exits_fast(tmp_path, capsys):
    path = write(tmp_path, "field Q\n1e100000000 1 1\n")
    start = time.perf_counter()
    assert main(["basis", path]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: ") and "1e100000000" in captured.err
    assert main(["exponents", write(tmp_path, "field Q\n1e3 1 1\n0.25 3/2 1\n")]) == 0


def test_trace_command(tmp_path, capsys):
    path = write(tmp_path, "field Q\n1 0 1\n0 1 1\n1 1 1\n")
    assert main(["trace", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4  # three steps plus the exponent line
    assert out[0].startswith("step 1: form y")
    assert out[-1] == "exponents: {2, 1}"
    assert any("branch generic" in line for line in out)


GOLDEN_ARRANGEMENT = "field Q\n2 1 3\n3 -2 2\n1/2 1/3 2\n0 1 3\n"

GOLDEN_BASIS = """\
theta1 (degree 5): (-4752*x^5 - 4896*x^4*y + 4392*x^3*y^2 + 6375*x^2*y^3 + 1712*x*y^4 - 68*y^5) dx + (3234*x^2*y^3 + 4046*x*y^4 + 1288*y^5) dy
theta2 (degree 5): (-540*x^5 - 522*x^4*y + 459*x^3*y^2 + 660*x^2*y^3 + 164*x*y^4 - 16*y^5) dx + (273*x^2*y^3 + 392*x*y^4 + 140*y^5) dy
exponents: {5, 5}
"""

GOLDEN_TRACE = """\
step 1: form y, multiplicity 0 -> 1, branch f-vanishing, degrees (0, 0) -> (1, 0), diff 0 -> 1
step 2: form y, multiplicity 1 -> 2, branch g-vanishing, degrees (1, 0) -> (2, 0), diff 1 -> 2
step 3: form y, multiplicity 2 -> 3, branch g-vanishing, degrees (2, 0) -> (3, 0), diff 2 -> 3
step 4: form x - 2/3*y, multiplicity 0 -> 1, branch generic, degrees (3, 0) -> (3, 1), diff 3 -> 2
step 5: form x - 2/3*y, multiplicity 1 -> 2, branch f-vanishing, degrees (3, 1) -> (3, 2), diff 2 -> 1
step 6: form x + 1/2*y, multiplicity 0 -> 1, branch generic, degrees (3, 2) -> (3, 3), diff 1 -> 0
step 7: form x + 1/2*y, multiplicity 1 -> 2, branch generic, degrees (3, 3) -> (4, 3), diff 0 -> 1
step 8: form x + 1/2*y, multiplicity 2 -> 3, branch generic, degrees (4, 3) -> (4, 4), diff 1 -> 0
step 9: form x + 2/3*y, multiplicity 0 -> 1, branch generic, degrees (4, 4) -> (5, 4), diff 0 -> 1
step 10: form x + 2/3*y, multiplicity 1 -> 2, branch generic, degrees (5, 4) -> (5, 5), diff 1 -> 0
exponents: {5, 5}
"""


@pytest.mark.parametrize("command, expected", [("basis", GOLDEN_BASIS), ("trace", GOLDEN_TRACE)], ids=["basis", "trace"])
def test_golden_output_non_monic_lines(tmp_path, capsys, command, expected):
    # non-monic (2x + y, 3x - 2y) and rational-input (x/2 + y/3) lines over Q
    path = write(tmp_path, GOLDEN_ARRANGEMENT)
    assert main([command, path]) == 0
    assert capsys.readouterr().out == expected


def test_render_writes_primitive_integer_pairs():
    arr = parse_arrangement_text(GOLDEN_ARRANGEMENT)
    text = render_arrangement(arr)
    assert text == "field Q\n0 1 3\n3 -2 2\n2 1 3\n3 2 2\n"
    assert parse_arrangement_text(text) == arr


def test_oversized_field_exits_fast(tmp_path, capsys):
    path = write(tmp_path, "field F 1000000000000000000000000000057\n1 0 1\n")
    assert main(["exponents", path]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "too large" in err


def test_field_f_zero_is_refused(tmp_path, capsys):
    # Field(0) is Q: a file headed "field F 0" must not run over the rationals
    text = "field F 0\n1 1 2\n1 0 1\n0 1 1\n"
    with pytest.raises(ParseError, match="^line 1: field F needs a prime, got 0$"):
        parse_arrangement_text(text)
    assert main(["exponents", write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: field F needs a prime, got 0\n"


def test_file_errors(tmp_path, capsys):
    assert main(["basis", str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err
    path = write(tmp_path, "field Q\n0 0 1\n")
    assert main(["exponents", path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_frobenius_command(capsys):
    assert main(["frobenius", "2", "0"]) == 0
    out = capsys.readouterr().out
    assert "field: F_2" in out
    assert "verified: true" in out
    assert "exponents: {2, 1}" in out


def test_frobenius_command_shifts(capsys):
    assert main(["frobenius", "2", "0", "--shifts", "0,1,0"]) == 0
    out = capsys.readouterr().out
    assert "verified: true" in out
    assert "exponents: {2, 2}" in out


def test_frobenius_command_bad_input(capsys):
    assert main(["frobenius", "4", "0"]) == 2
    capsys.readouterr()
    assert main(["frobenius", "2", "0", "--shifts", "1,0"]) == 2
    assert "3 comma-separated values" in capsys.readouterr().err
    assert main(["frobenius", "2", "0", "--shifts", "9,0,0"]) == 2
    capsys.readouterr()
    assert main(["frobenius", "2", "0", "--shifts", "0,1/2,x"]) == 2
    assert capsys.readouterr().err == "error: --shifts values must be integers\n"


@pytest.mark.parametrize("args", [["0", "0"], ["0", "3"], ["0", "0", "--shifts", "0"]])
def test_frobenius_command_refuses_p_zero(capsys, args):
    assert main(["frobenius", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the Frobenius families need a prime p, got 0\n"


@pytest.mark.parametrize(
    "args",
    [["2", "40"], ["2", "1" + "0" * 20], ["2", "11"], ["4099", "0"], ["2", "10", "--shifts", "1024,1024,0"]],
)
def test_frobenius_command_size_limit(capsys, monkeypatch, args):
    def no_basis(*a):
        raise AssertionError("the basis must not be built above the size limit")

    monkeypatch.setattr("logvf.cli.frobenius_basis", no_basis)
    start = time.perf_counter()
    assert main(["frobenius", *args]) == 2
    assert time.perf_counter() - start < 1
    assert f"frobenius is limited to |mu| <= {FROBENIUS_TOTAL_LIMIT}" in capsys.readouterr().err


def test_frobenius_command_accepts_the_size_limit_itself(capsys, monkeypatch):
    monkeypatch.setattr("logvf.cli.FROBENIUS_TOTAL_LIMIT", 12)  # 2 2: |mu| = 3 * 4
    assert main(["frobenius", "2", "2"]) == 0
    assert main(["frobenius", "2", "2", "--shifts", "0,1,0"]) == 2
    assert "|mu| <= 12, got 13" in capsys.readouterr().err


def test_prop_experiment_command(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code = main(["prop-experiment", "--lo", "20", "--hi", "21", "--out", str(out_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "16 tuples, 0 disagreements" in out
    assert out_csv.exists()
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 17


@pytest.mark.parametrize("target", ["missing_dir/r.csv", "."])
def test_prop_experiment_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch, target):
    def no_walk(*a, **k):
        raise AssertionError("the sweep must not start when its report cannot be written")

    monkeypatch.setattr("logvf.cli.proposition_experiment", no_walk)
    out = tmp_path / target
    assert main(["prop-experiment", "--lo", "20", "--hi", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert not (tmp_path / "missing_dir").exists()


@pytest.mark.parametrize("lo, hi", [(0, 3), (5, 3), (-2, -1)])
def test_prop_experiment_bad_box_leaves_no_report(tmp_path, capsys, lo, hi):
    out = tmp_path / "r.csv"
    assert main(["prop-experiment", "--lo", str(lo), "--hi", str(hi), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need 1 <= lo <= hi\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "lo, hi", [(20, 20 + round(PROP_TUPLE_LIMIT ** 0.25)), (1, 1000), (200, 200), (111, 125), (60, 74)]
)
def test_prop_experiment_command_size_limit(capsys, monkeypatch, lo, hi):
    def no_walk(*a, **k):
        raise AssertionError("the sweep must not start above the size limit")

    monkeypatch.setattr("logvf.cli.proposition_experiment", no_walk)
    assert main(["prop-experiment", "--lo", str(lo), "--hi", str(hi)]) == 2
    assert "prop-experiment is limited to" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, box",
    [([], (20, 30)), (["--lo", "20", "--hi", "23"], (20, 23)), (["--lo", "20", "--hi", "34"], (20, 34))],
)
def test_prop_experiment_limit_admits_the_default_box(capsys, monkeypatch, args, box):
    boxes = []

    def record(lo, hi):
        boxes.append((lo, hi))
        return PropositionReport(lo, hi, ())

    monkeypatch.setattr("logvf.cli.proposition_experiment", record)
    assert main(["prop-experiment", *args]) == 0
    assert boxes == [box]


def test_prop_experiment_work_bound_names_itself_and_exits_fast(capsys):
    # [111, 125]^4 is inside the tuple and |mu| limits but would run for minutes
    start = time.perf_counter()
    assert main(["prop-experiment", "--lo", "111", "--hi", "125"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"(hi-lo+1)^3 * hi^2 <= {PROP_WORK_LIMIT}" in err and "work 52734375" in err


def test_verify_command_zero_value_does_not_loop_over_the_multiplicity(tmp_path, capsys):
    # theta1 = y dy vanishes on x, so x^m divides theta1(x) for every m
    args = ["--theta1", "1:0,0;1:1,0", "--theta2", "0:1;0:0"]
    outputs = []
    for mult, limit in [(3, None), (10**12, 1.0)]:
        path = write(tmp_path, f"field Q\n1 0 {mult}\n")
        start = time.perf_counter()
        assert main(["verify", path, *args]) == 1
        assert limit is None or time.perf_counter() - start < limit
        outputs.append(capsys.readouterr().out.splitlines()[:2])
    assert outputs[0] == outputs[1] == ["theta1 in D(A, mu): true", "theta2 in D(A, mu): false"]


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
