"""Command-line interface: build, verify and explore bases of D(A, mu).

Arrangement files are plain text: a ``field Q`` or ``field F <p>`` header
followed by one ``<ax> <ay> <multiplicity>`` line per hyperplane.  Blank
lines and ``#`` comments are ignored.  Exit status is 0 on success, 1 when a
verification answers false, and 2 for unusable input.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    frobenius_arrangement,
    frobenius_basis,
    proposition_experiment,
    trace_chain,
    unbalanced_exponents,
)
from .arrangement import LinearForm, Multiarrangement, all_hyperplanes
from .basis import BasisPair, build_basis, exponents, verify_basis
from .derivation import Derivation
from .field import Field
from .oracle import dimension_table, exponents_by_oracle

ORACLE_TOTAL_LIMIT = 16
# ``basis``, ``trace`` and ``exponents`` run the chain, quadratic in |mu|
# and slower still over Q as coefficients grow.  On one core (Python 3.11)
# ``basis`` takes 5.5 s at |mu| = 500 on the lines y, x, x + y, x - y,
# 2x + y (15 s at 600); lines of larger height take longer at the same |mu|.
CHAIN_TOTAL_LIMIT = 500
# ``frobenius`` takes 5.8 s at |mu| = 4094 (p = 4093, i = 0).
FROBENIUS_TOTAL_LIMIT = 4096
# ``verify`` reads the Saito determinant one coefficient at a time up to the first nonzero one:
# at degree D = 4096, 0.2 s for a dense independent pair and O(D1*D2), 2.5 s, for a dependent
# one (one core, Python 3.11).  4096 is the largest degree ``frobenius`` prints, so every
# printed basis can be verified.
VERIFY_DEGREE_LIMIT = 4096
PROP_TUPLE_LIMIT = 15**4
# ``prop-experiment`` ramps its last line up to hi steps of O(hi) from at most (hi-lo+1)^3 nodes:
# 0.2-0.7 us per unit of (hi-lo+1)^3 * hi^2 (one shared core, Python 3.11), about 1 s on [20, 34]^4.
PROP_WORK_LIMIT = 5 * 10**6


class ParseError(ValueError):
    """A problem in an arrangement file, tagged with its line number."""

    def __init__(self, line_no, message):
        prefix = f"line {line_no}: " if line_no else ""
        super().__init__(prefix + message)
        self.line_no = line_no


def parse_arrangement_text(text: str) -> Multiarrangement:
    """Parse the arrangement file format into a Multiarrangement."""
    field = None
    entries: dict[LinearForm, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if field is None:
            if tokens[0] != "field":
                raise ParseError(line_no, "expected a 'field Q' or 'field F <p>' header first")
            if tokens[1:] == ["Q"]:
                field = Field(0)
            elif len(tokens) == 3 and tokens[1] == "F":
                try:
                    field = Field(int(tokens[2]))
                except ValueError as exc:
                    raise ParseError(line_no, str(exc)) from None
            else:
                raise ParseError(line_no, "field must be 'Q' or 'F <prime>'")
            continue
        if len(tokens) != 3:
            raise ParseError(line_no, "expected '<ax> <ay> <multiplicity>'")
        try:
            form = LinearForm(field, tokens[0], tokens[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(line_no, str(exc)) from None
        try:
            mult = int(tokens[2])
        except ValueError:
            raise ParseError(line_no, f"multiplicity {tokens[2]!r} is not an integer") from None
        if mult < 1:
            raise ParseError(line_no, f"multiplicity must be positive, got {mult}")
        if form in entries:
            raise ParseError(line_no, f"duplicate hyperplane {form}")
        entries[form] = mult
    if field is None:
        raise ParseError(None, "missing 'field' header")
    return Multiarrangement(field, entries)


def render_arrangement(arrangement: Multiarrangement) -> str:
    """Serialize an arrangement back to the file format (canonical order)."""
    field = arrangement.field
    header = f"field F {field.characteristic}" if field.characteristic else "field Q"
    lines = [header]
    for form, mult in arrangement.items():
        lines.append(f"{form.ax} {form.ay} {mult}")
    return "\n".join(lines) + "\n"


def _load(path: str) -> Multiarrangement:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(None, f"cannot read {path}: {exc.strerror}") from None
    return parse_arrangement_text(text)


def _check_limit(command: str, what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ParseError(None, f"{command} is limited to {what} <= {limit}, got {value}")


def _print_pair(pair: BasisPair) -> None:
    d1, d2 = pair.degrees()
    # a basis over Q may hold integers past Python's 4300-digit str() limit;
    # lift it for this output only, so parsing input keeps it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(f"theta1 (degree {d1}): {pair.theta1}")
        print(f"theta2 (degree {d2}): {pair.theta2}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _exponent_line(degrees) -> str:
    return f"exponents: {{{degrees[0]}, {degrees[1]}}}"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_basis(args) -> int:
    arrangement = _load(args.arrangement)
    _check_limit("basis", "|mu|", arrangement.total, CHAIN_TOTAL_LIMIT)
    pair = build_basis(arrangement)
    _print_pair(pair)
    print(_exponent_line(pair.degrees()))
    return 0


def cmd_exponents(args) -> int:
    arrangement = _load(args.arrangement)
    # a dominant line has closed-form exponents; its chain is quadratic in |mu|
    degrees = unbalanced_exponents(arrangement)
    if degrees is None:
        _check_limit("exponents", "|mu|", arrangement.total, CHAIN_TOTAL_LIMIT)
        degrees = exponents(arrangement)
    print(_exponent_line(degrees))
    return 0


def cmd_verify(args) -> int:
    arrangement = _load(args.arrangement)
    field = arrangement.field
    theta1 = Derivation.from_text(field, args.theta1)
    theta2 = Derivation.from_text(field, args.theta2)
    _check_limit("verify", "degree", max(theta1.degree, theta2.degree), VERIFY_DEGREE_LIMIT)
    # label each derivation as given; a BasisPair would reorder them by degree
    for name, theta in (("theta1", theta1), ("theta2", theta2)):
        print(f"{name} in D(A, mu): {'true' if theta.is_member(arrangement) else 'false'}")
    pair = BasisPair(theta1, theta2)
    print(f"independent: {'true' if pair.independent() else 'false'}")
    print(f"degree sum: {theta1.degree + theta2.degree}, |mu|: {arrangement.total}")
    ok = verify_basis(pair, arrangement)
    print(f"basis: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    arrangement = _load(args.arrangement)
    _check_limit("oracle", "|mu|", arrangement.total, ORACLE_TOTAL_LIMIT)
    table = dimension_table(arrangement)
    for d, dim in enumerate(table):
        print(f"d = {d}: dim {dim}")
    print(_exponent_line(exponents_by_oracle(arrangement)))
    return 0


def cmd_trace(args) -> int:
    arrangement = _load(args.arrangement)
    _check_limit("trace", "|mu|", arrangement.total, CHAIN_TOTAL_LIMIT)
    pair, traces = trace_chain(arrangement)
    for t in traces:
        print(t)
    print(_exponent_line(pair.degrees()))
    return 0


def cmd_frobenius(args) -> int:
    p, i = args.p, args.i
    field = Field(p)
    # |mu| > p^(i+1); compare without building p^i, which may be huge
    e = max(i, 0) + 1
    if p ** min(e, FROBENIUS_TOTAL_LIMIT.bit_length()) > FROBENIUS_TOTAL_LIMIT:
        raise ParseError(None, f"frobenius is limited to |mu| <= {FROBENIUS_TOTAL_LIMIT}, and |mu| > {p}^{e}")
    shifts = None
    if args.shifts is not None:
        hyperplanes = all_hyperplanes(field)
        parts = args.shifts.split(",")
        if len(parts) != len(hyperplanes):
            raise ParseError(
                None,
                f"--shifts needs {len(hyperplanes)} comma-separated values for F_{p}, got {len(parts)}",
            )
        try:
            values = [int(s) for s in parts]
        except ValueError:
            raise ParseError(None, "--shifts values must be integers") from None
        shifts = dict(zip(hyperplanes, values))
    arrangement = frobenius_arrangement(p, i, shifts)
    _check_limit("frobenius", "|mu|", arrangement.total, FROBENIUS_TOTAL_LIMIT)
    pair = frobenius_basis(p, i, shifts)
    print(f"field: F_{p}")
    print(f"multiplicities: {arrangement}")
    _print_pair(pair)
    print("verified: true")
    print(_exponent_line(pair.degrees()))
    return 0


def cmd_prop_experiment(args) -> int:
    if args.lo < 1 or args.hi < args.lo:  # before --out is created
        raise ParseError(None, "need 1 <= lo <= hi")
    width = args.hi - args.lo + 1
    count, work = width**4, width**3 * args.hi**2
    if count > PROP_TUPLE_LIMIT or 4 * args.hi > CHAIN_TOTAL_LIMIT or work > PROP_WORK_LIMIT:  # |mu| <= 4*hi
        raise ParseError(
            None,
            f"prop-experiment is limited to {PROP_TUPLE_LIMIT} tuples, hi <= {CHAIN_TOTAL_LIMIT // 4} and work "
            f"(hi-lo+1)^3 * hi^2 <= {PROP_WORK_LIMIT}, got {count} tuples, hi = {args.hi}, work {work}",
        )
    if args.out:
        try:  # fail before the sweep, not after it; "a" leaves an existing report intact
            open(args.out, "a").close()
        except OSError as exc:
            raise ParseError(None, f"cannot write {args.out}: {exc.strerror}") from None
    report = proposition_experiment(lo=args.lo, hi=args.hi)
    print(report.summary())
    if args.out:
        report.write_csv(args.out)
        print(f"report written to {args.out}")
    return 0 if not report.disagreements else 1


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logvf",
        description="Exact bases and exponents for logarithmic vector fields of weighted line arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="construct a homogeneous basis")
    p_basis.add_argument("arrangement", help="arrangement file")
    p_basis.set_defaults(func=cmd_basis)

    p_exp = sub.add_parser("exponents", help="print the exponents")
    p_exp.add_argument("arrangement", help="arrangement file")
    p_exp.set_defaults(func=cmd_exponents)

    p_verify = sub.add_parser("verify", help="check a pair against Saito's criterion")
    p_verify.add_argument("arrangement", help="arrangement file")
    p_verify.add_argument("--theta1", required=True, help="derivation as 'deg:c0,..;deg:c0,..'")
    p_verify.add_argument("--theta2", required=True, help="derivation as 'deg:c0,..;deg:c0,..'")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="graded dimensions by exact linear algebra")
    p_oracle.add_argument("arrangement", help="arrangement file")
    p_oracle.set_defaults(func=cmd_oracle)

    p_trace = sub.add_parser("trace", help="trace every multiplicity-raising step")
    p_trace.add_argument("arrangement", help="arrangement file")
    p_trace.set_defaults(func=cmd_trace)

    p_frob = sub.add_parser("frobenius", help="Frobenius-power basis over F_p")
    p_frob.add_argument("p", type=int, help="prime characteristic")
    p_frob.add_argument("i", type=int, help="power index: multiplicities p^i + shift")
    p_frob.add_argument("--shifts", help="comma-separated shifts, one per hyperplane in canonical order")
    p_frob.set_defaults(func=cmd_frobenius)

    p_prop = sub.add_parser(
        "prop-experiment", help="four-line exponent-difference classification sweep"
    )
    p_prop.add_argument("--out", help="write per-tuple CSV report here")
    p_prop.add_argument("--lo", type=int, default=20, help="smallest multiplicity (default 20)")
    p_prop.add_argument("--hi", type=int, default=30, help="largest multiplicity (default 30)")
    p_prop.set_defaults(func=cmd_prop_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
