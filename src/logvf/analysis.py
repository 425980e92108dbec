"""Consequences of the update step: traces, closed forms, and experiments.

This module packages the higher-level results that sit on top of the basis
construction: step-by-step traces of how the exponent gap evolves, generic
forms that rebalance a gap of one, the closed-form exponents of unbalanced
arrangements, Frobenius-power bases over prime fields, and a bulk experiment
classifying when a four-line arrangement has exponent difference two.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product

from .arrangement import LinearForm, Multiarrangement, all_hyperplanes
from .basis import BasisPair, Branch, _line, _out_of_frame, _pair, _ramp, _run_chain, _window_ramp
from .basis import verify_basis
from .derivation import Derivation, apply
from .field import Field
from .poly import HomogPoly, taylor_window, times_linear_power


# ----------------------------------------------------------------------
# step traces
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StepTrace:
    """One multiplicity-raising step on the way up to a target arrangement."""

    index: int
    form: LinearForm
    multiplicity: int
    branch: Branch
    degrees_before: tuple[int, int]
    degrees_after: tuple[int, int]

    @property
    def diff_before(self) -> int:
        return abs(self.degrees_before[0] - self.degrees_before[1])

    @property
    def diff_after(self) -> int:
        return abs(self.degrees_after[0] - self.degrees_after[1])

    def __str__(self):
        return (
            f"step {self.index}: form {self.form}, multiplicity "
            f"{self.multiplicity} -> {self.multiplicity + 1}, branch "
            f"{self.branch.value}, degrees {self.degrees_before} -> "
            f"{self.degrees_after}, diff {self.diff_before} -> {self.diff_after}"
        )


def trace_chain(arrangement: Multiarrangement):
    """Build a basis while recording every step; returns (pair, traces)."""
    traces: list[StepTrace] = []

    def observer(form, mult, branch, before, after):
        traces.append(
            StepTrace(
                index=len(traces) + 1,
                form=form,
                multiplicity=mult,
                branch=branch,
                degrees_before=tuple(sorted(before, reverse=True)),
                degrees_after=tuple(sorted(after, reverse=True)),
            )
        )

    pair = _pair(arrangement.field, *_run_chain(arrangement.items(), observer))
    return pair, traces


# ----------------------------------------------------------------------
# generic forms and balanced growth
# ----------------------------------------------------------------------


class NoGenericFormError(Exception):
    """No linear form outside ``exclude`` avoids the divisibility obstruction for theta2.

    Over Q this happens exactly when theta2 is a polynomial multiple of the
    Euler derivation, since then every linear form alpha divides theta2(alpha).
    Over F_p it can also mean that every hyperplane is excluded or obstructed.
    """


def _avoids_obstruction(theta2: Derivation, form: LinearForm) -> bool:
    """True when form does not divide theta2(form): theta2 is no member of D({form: 1})."""
    return not theta2.is_member(Multiarrangement(theta2.field, {form: 1}))


def _ladder():
    """0, 1, -1, 2, -2, ... candidate coefficients for generic forms."""
    yield 0
    c = 1
    while True:
        yield c
        yield -c
        c += 1


def find_generic_form(theta2: Derivation, exclude=()) -> LinearForm:
    """A linear form alpha, not in ``exclude``, with alpha not dividing theta2(alpha).

    Adding such a form to the arrangement sends the update step through its
    generic branch, which lowers the exponent difference when theta2 is the
    smaller-degree member of a basis.  Scanning y, then x + c*y for c = 0, 1,
    ..., p - 1 over F_p or c = 0, 1, -1, 2, ... over Q, makes the result
    deterministic.  A form is obstructed when theta2(alpha) vanishes at the
    chain's kernel point (-ay, ax) of alpha, (1, 0) for y (:func:`basis._divide`).
    theta2(x + c*y) there is (y*f - x*g)(-c, 1), of degree <= deg(theta2) + 1
    in c and zero exactly for an Euler multiple, so over every field the
    search stops after deg(theta2) + 2 obstructed forms.
    """
    field = theta2.field
    excluded = set(exclude)
    y_form = LinearForm(field, 0, 1)
    if y_form not in excluded and _avoids_obstruction(theta2, y_form):
        return y_form
    p = field.characteristic
    tested = 0
    for c in range(p) if p else _ladder():
        form = LinearForm(field, 1, c)
        if form in excluded:
            continue
        if _avoids_obstruction(theta2, form):
            return form
        tested += 1
        if tested > theta2.degree + 1:
            break
    raise NoGenericFormError("every linear form is excluded or divides its value under theta2")


def unbalanced_exponents(arrangement: Multiarrangement):
    """Closed-form exponents when one multiplicity dominates, else None.

    If some hyperplane H has 2*mu(H) >= |mu|, the exponents are exactly
    (mu(H), |mu| - mu(H)): once the dominant multiplicity reaches half the
    total, every further increase of it goes to a single basis member.
    """
    total = arrangement.total
    for form, mult in arrangement.items():
        if 2 * mult >= total:
            return (mult, total - mult)
    return None


# ----------------------------------------------------------------------
# Frobenius-power bases over prime fields
# ----------------------------------------------------------------------


def _prime_field(p: int) -> Field:
    """F_p for a Frobenius family, refusing p = 0: ``Field(0)`` is Q, which has no Frobenius power."""
    if not p:
        raise ValueError("the Frobenius families need a prime p, got 0")
    return Field(p)


def frobenius_derivation(p: int, i: int) -> Derivation:
    """The derivation x^(p^i) dx + y^(p^i) dy over F_p.

    Raising to the p^i-th power is additive in characteristic p, so applying
    this derivation to a*x + b*y gives a*x^(p^i) + b*y^(p^i) = (a*x + b*y)^(p^i):
    every hyperplane automatically divides the value to the p^i-th power.
    """
    if i < 0:
        raise ValueError("the power index must be nonnegative")
    field = _prime_field(p)
    q = p**i
    return Derivation(
        HomogPoly.monomial(field, q, q), HomogPoly.monomial(field, q, 0)
    )


def frobenius_arrangement(p: int, i: int, shifts=None) -> Multiarrangement:
    """All p + 1 hyperplanes of F_p^2 with multiplicities p^i + shift(H).

    ``shifts`` maps hyperplanes to integers in [0, p^(i+1) - p^i]; missing
    hyperplanes get shift 0.
    """
    field = _prime_field(p)
    if i < 0:
        raise ValueError("the power index must be nonnegative")
    q = p**i
    max_shift = p ** (i + 1) - q
    shifts = dict(shifts or {})
    hyperplanes = all_hyperplanes(field)
    valid = set(hyperplanes)
    for form, j in shifts.items():
        if form not in valid:
            raise ValueError(f"{form!r} is not a hyperplane over F_{p}")
        if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j <= max_shift:
            raise ValueError(
                f"shift for {form} must be an integer in [0, {max_shift}], got {j!r}"
            )
    return Multiarrangement(
        field, {h: q + shifts.get(h, 0) for h in hyperplanes}
    )


def frobenius_basis(p: int, i: int, shifts=None) -> BasisPair:
    """A verified basis for the shifted constant-multiplicity arrangement.

    The pair is (prod_H alpha_H^shift(H)) * theta_(p^i) together with
    theta_(p^(i+1)), where theta_q = x^q dx + y^q dy; with no shifts this is
    the basis for constant multiplicity p^i on all p + 1 hyperplanes.  The
    result is checked against Saito's criterion before being returned.
    """
    arrangement = frobenius_arrangement(p, i, shifts)
    theta1, theta2 = frobenius_derivation(p, i), frobenius_derivation(p, i + 1)
    f, g, q = theta1.f.coeffs, theta1.g.coeffs, p**i
    for form, mult in arrangement.items():
        f, g = (times_linear_power(cs, form.ax, form.ay, p, mult - q) for cs in (f, g))
    pair = _pair(arrangement.field, (f, g), (theta2.f.coeffs, theta2.g.coeffs))
    if not verify_basis(pair, arrangement):
        raise RuntimeError(
            "Frobenius-power pair failed Saito verification; this should be impossible"
        )
    return pair


# ----------------------------------------------------------------------
# the four-line parity classification experiment
# ----------------------------------------------------------------------

_EXPERIMENT_COEFFS = ((1, 1), (1, -1), (1, 0), (0, 1))  # x+y, x-y, x, y
# x+y, x, y, x-y: a representative then has the pair {x, y} in the middle, sorted, which
# prunes more nodes than the other layout.  Only x+y and x step: y ramps on Taylor windows,
# and x-y's exact windows ride along, since y is beta in x-y's frame (x-y, y) and x = (x-y) + y
_WALK_ORDER = (0, 2, 3, 1)


def _representative(mu):
    """The member of mu's orbit that is largest in walk order, in walk order.

    A symmetry sends the pairs {x+y, x-y} and {x, y} to themselves or to
    each other, and the walk order x+y, x, y, x-y puts one pair at the ends
    and the other in the middle.  With each pair sorted, hi >= lo, the
    largest view leads with a pair's hi and the other pair's hi: the larger
    of (hi1, hi2, lo2, lo1) and (hi2, hi1, lo1, lo2).
    """
    m1, m2, m3, m4 = mu
    hi1, lo1 = (m1, m2) if m1 >= m2 else (m2, m1)
    hi2, lo2 = (m3, m4) if m3 >= m4 else (m4, m3)
    return max((hi1, hi2, lo2, lo1), (hi2, hi1, lo1, lo2))


def _odd_pair_with_gap(a: int, b: int, offset: int) -> bool:
    """Whether b = 2k+1 for some k >= 0 and a = b + offset + 4h for some integer h."""
    return b >= 1 and b % 2 == 1 and (a - b - offset) % 4 == 0


def predicted_difference_two(mu: tuple[int, int, int, int]) -> bool:
    """The parity classification of exponent difference 2 for four lines.

    For multiplicities (m1, m2, m3, m4) on x+y, x-y, x, y with no dominant
    hyperplane, the exponent difference is 2 exactly when one of the pairs
    {m1, m2} or {m3, m4} is two odd numbers differing by 2 mod 4 while the
    other pair is twice-equal even, or two odd numbers differing by 0 mod 4
    while the other pair is twice-equal odd.
    """
    m1, m2, m3, m4 = mu
    return (
        (_odd_pair_with_gap(m1, m2, 2) and m3 == m4 and m3 % 2 == 0)
        or (_odd_pair_with_gap(m3, m4, 2) and m1 == m2 and m1 % 2 == 0)
        or (_odd_pair_with_gap(m1, m2, 0) and m3 == m4 and m3 % 2 == 1)
        or (_odd_pair_with_gap(m3, m4, 0) and m1 == m2 and m1 % 2 == 1)
    )


@dataclass(frozen=True)
class ExperimentRow:
    """Computed and predicted behaviour of one multiplicity tuple."""

    mu: tuple[int, int, int, int]
    total: int
    d1: int
    d2: int
    difference: int
    predicted_two: bool
    hypothesis_ok: bool

    @property
    def agrees(self):
        """True/False when the hypothesis holds, None when it is vacuous."""
        if not self.hypothesis_ok:
            return None
        return (self.difference == 2) == self.predicted_two


@dataclass(frozen=True)
class PropositionReport:
    """All rows of the four-line experiment over a multiplicity range."""

    lo: int
    hi: int
    rows: tuple[ExperimentRow, ...]

    @property
    def tuple_count(self) -> int:
        return len(self.rows)

    @property
    def disagreements(self) -> tuple[ExperimentRow, ...]:
        return tuple(r for r in self.rows if r.agrees is False)

    def summary(self) -> str:
        return f"{self.tuple_count} tuples, {len(self.disagreements)} disagreements"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["mu1", "mu2", "mu3", "mu4", "total", "d1", "d2", "d", "predicted_d2", "agrees"]
            )
            for r in self.rows:
                agrees = "" if r.agrees is None else ("true" if r.agrees else "false")
                writer.writerow(
                    [
                        *r.mu,
                        r.total,
                        r.d1,
                        r.d2,
                        r.difference,
                        "true" if r.predicted_two else "false",
                        agrees,
                    ]
                )


def proposition_experiment(lo: int = 20, hi: int = 30) -> PropositionReport:
    """Exponent differences of all four-line arrangements with mu in [lo, hi]^4.

    Each multiplicity tuple for the lines x+y, x-y, x, y is run through the
    basis construction and its exponent difference is compared with the parity
    classification.  Tuples where some hyperplane carries at least half the
    total weight fall outside the classification's hypothesis and are reported
    with ``agrees`` empty.

    The maps (x, y) -> (x, -y), (y, x) and (x+y, x-y) permute the four lines
    as the 8 permutations that keep the pairs {x+y, x-y} and {x, y}.  A linear
    change of coordinates keeps degrees, so every tuple takes the exponents of
    its orbit's representative: the orbit member largest in walk order.  The
    walk ramps x+y, x, y, then x-y, depth-first and sharing prefixes; it
    descends only into prefixes of representatives and ramps each line only
    as far as a representative below the prefix needs.  A row needs only the
    degrees, so y and x-y ramp on Taylor windows (:func:`basis._window_ramp`),
    and the walk builds no derivation object and no polynomial below x.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    field = Field(0)
    lines = [_line(LinearForm(field, *_EXPERIMENT_COEFFS[i])) for i in _WALK_ORDER]
    box = list(product(range(lo, hi + 1), repeat=4))
    reps = list(map(_representative, box))
    upto = {}  # prefix of a representative -> the largest next multiplicity below it
    for rep in set(reps):
        for k in range(4):
            upto[rep[:k]] = max(upto.get(rep[:k], 0), rep[k])
    degrees = {}

    def walk(theta1, theta2, prefix):
        line, top = lines[len(prefix)], upto[prefix]
        if len(prefix) == 2:  # y ramps on windows, carrying those at x - y, whose ramps follow (see _WALK_ORDER)
            members = [[*taylor_window(apply(f, g, 1, -1, 0), 1, -1, 0, hi), *taylor_window(g, 0, 1, 0, top)]
                       for f, g in (theta1, theta2)]
            ramp = _window_ramp(*members, len(theta1[0]) - 1, len(theta2[0]) - 1, 0, hi)  # x = (x - y) + y
            for mult, (d1, d2, new1, new2) in enumerate(ramp, start=1):
                last = upto.get(prefix + (mult,), 0)
                for m, (e1, e2, _, _) in enumerate(_window_ramp(new1[:last], new2[:last], d1, d2, 0), start=1):
                    degrees[prefix + (mult, m)] = (e1, e2) if e1 >= e2 else (e2, e1)
            return
        for mult, (new1, new2, _) in enumerate(_ramp(theta1, theta2, line, top), start=1):
            if prefix + (mult,) in upto:
                walk(_out_of_frame(new1, line, mult), _out_of_frame(new2, line, mult), prefix + (mult,))

    walk(((1,), (0,)), ((0,), (1,)), ())
    rows = []
    for mu, rep in zip(box, reps):
        d1, d2 = degrees[rep]
        total = sum(mu)
        rows.append(
            ExperimentRow(
                mu=mu,
                total=total,
                d1=d1,
                d2=d2,
                difference=d1 - d2,
                predicted_two=predicted_difference_two(mu),
                hypothesis_ok=all(2 * m < total for m in mu),
            )
        )
    return PropositionReport(lo=lo, hi=hi, rows=tuple(rows))
