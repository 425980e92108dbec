"""The framed chain against the reference chain of ``conftest.py``.

The library ramps each line with its members in the line's frame and
rebuilds f and g once per line; the reference rewrites (f, g) and the
quotients at every step.  Bases, their order, traces, exponents, single
updates and sweep rows must be identical on seeded inputs over Q (lines of
height up to 6, non-monic ones included), over F_2, F_3 and F_7 with every
line, over F_101, F_(2^31 - 1), F_(2^61 - 1) and F_(2^64 + 13) up to |mu| 300,
with degree ties, and on the full-size shapes of the benchmark's chain
workloads.
"""

import random

import pytest

from logvf import (
    BasisPair,
    Branch,
    Derivation,
    Field,
    LinearForm,
    Multiarrangement,
    RATIONALS,
    all_hyperplanes,
    build_basis,
    exponents,
    frobenius_arrangement,
    proposition_experiment,
    trace_chain,
    update_basis,
)
from logvf.basis import _line, _pair
from logvf.derivation import apply
from logvf.poly import div_linear_power

from conftest import reference_basis, reference_chain, reference_step

P31 = Field(2**31 - 1)
# the packed residue vectors of F_p chains: a struct word per slot up to 2^64, bytes beyond
P61, P64 = Field(2**61 - 1), Field(2**64 + 13)


def members(pair):
    return tuple((theta.f.coeffs, theta.g.coeffs) for theta in (pair.theta1, pair.theta2))


def reference_pair(arrangement):
    return _pair(arrangement.field, *reference_basis(arrangement))


def reference_traces(arrangement):
    """``(form, multiplicity, branch, degrees before, degrees after)`` of every reference step, largest first."""
    out = []

    def observer(form, mult, branch, before, after):
        out.append((form, mult, branch, tuple(sorted(before, reverse=True)), tuple(sorted(after, reverse=True))))

    reference_chain(arrangement.items(), observer)
    return out


def assert_matches_reference(arrangement):
    """build_basis, trace_chain and exponents against the reference, member by member."""
    pair = build_basis(arrangement)
    # the pair keeps the reference's member order, which decides degree ties
    assert members(pair) == members(reference_pair(arrangement)), arrangement
    traced, traces = trace_chain(arrangement)
    assert traced == pair
    got = [(t.form, t.multiplicity, t.branch, t.degrees_before, t.degrees_after) for t in traces]
    assert got == reference_traces(arrangement), arrangement
    assert exponents(arrangement) == pair.degrees()
    return pair


def q_forms(height):
    """Every hyperplane over Q with a form of height at most ``height``."""
    forms = {LinearForm(RATIONALS, a, b) for a in range(-height, height + 1) for b in range(-height, height + 1) if a or b}
    return sorted(forms, key=LinearForm.sort_key)


def seeded_arrangement(rng, field, pool, lines, top):
    forms = rng.sample(pool, lines)
    return Multiarrangement(field, {form: rng.randint(1, top) for form in forms})


def test_rational_lines_of_height_six():
    rng = random.Random(61)
    pool = q_forms(6)
    non_monic = [form for form in pool if form.ax > 1]
    generic_non_monic = largest = 0
    for i in range(30):
        arrangement = seeded_arrangement(rng, RATIONALS, pool, rng.randint(2, 4), 40 if i % 3 else 12)
        if not any(form.ax > 1 for form in arrangement.forms()):
            mult = dict(arrangement.items())
            mult[rng.choice([f for f in non_monic if f not in mult])] = rng.randint(1, 40)
            arrangement = Multiarrangement(RATIONALS, mult)
        assert_matches_reference(arrangement)
        traces = trace_chain(arrangement)[1]
        generic_non_monic += sum(t.form.ax > 1 and t.branch is Branch.GENERIC for t in traces)
        largest = max(largest, arrangement.total)
    assert generic_non_monic >= 300 and largest >= 100


@pytest.mark.parametrize("p", [2, 3, 7])
def test_every_line_of_a_small_prime_field(p):
    # the Frobenius families: all p + 1 lines, multiplicities p^i + a seeded shift
    rng = random.Random(p)
    field = Field(p)
    hyperplanes = all_hyperplanes(field)
    for i in (0, 1, 2) if p < 7 else (0, 1):
        for _ in range(3):
            shifts = {h: rng.randint(0, p ** (i + 1) - p**i) for h in hyperplanes}
            assert_matches_reference(frobenius_arrangement(p, i, shifts))
    for _ in range(6):
        assert_matches_reference(Multiarrangement(field, {h: rng.randint(1, 30) for h in hyperplanes}))


@pytest.mark.parametrize("field", [Field(101), P31, P61, P64], ids=str)
def test_large_prime_fields_up_to_300(field):
    rng = random.Random(field.characteristic % 1000)
    p = field.characteristic
    pool = [LinearForm(field, 0, 1), LinearForm(field, 1, 0), LinearForm(field, 1, 1), LinearForm(field, 1, p - 1)]
    pool += [LinearForm(field, 1, rng.randrange(2, p - 1)) for _ in range(6)]
    pool = list(dict.fromkeys(pool))
    for total in (7, 30, 64, 120, 200, 300):
        forms = rng.sample(pool, rng.randint(2, 6))
        mult = {form: 1 for form in forms}
        for _ in range(total - len(mult)):
            mult[rng.choice(forms)] += 1
        pair = assert_matches_reference(Multiarrangement(field, mult))
        assert sum(pair.degrees()) == total


@pytest.mark.parametrize("field", [RATIONALS, Field(7), P31], ids=str)
def test_degree_ties_keep_the_reference_order(field):
    x, y = LinearForm(field, 1, 0), LinearForm(field, 0, 1)
    xy, xmy = LinearForm(field, 1, 1), LinearForm(field, 1, -1)
    ties = 0
    for m in range(1, 13):
        for mult in ({x: m, y: m}, {y: m, xy: m}, {x: m, y: m, xy: m, xmy: m}, {x: m, xy: m + 1, xmy: m + 1}):
            arrangement = Multiarrangement(field, mult)
            pair = assert_matches_reference(arrangement)
            ties += pair.theta1.degree == pair.theta2.degree
    assert ties >= 24


def benchmark_shapes(field):
    """The chain shapes of the benchmark's chain-q and fp-xcheck workloads at full size."""
    base = [LinearForm(field, *c) for c in ((0, 1), (1, 0), (1, 1), (1, -1))]

    def near_balanced(total, k):
        return [total // k + (1 if i < total % k else 0) for i in range(k)]

    shapes = [dict(zip(base, near_balanced(79, 4)))]
    if not field.characteristic:
        shapes[0][LinearForm(field, 2, 1)] = 1  # the half shape
    else:
        shapes[0] = dict(zip(base, near_balanced(80, 4)))
    shapes.append({base[0]: 82, **dict(zip(base[1:], near_balanced(78, 3)))})  # dominant 160
    shapes += [dict(zip(base, near_balanced(total, 4))) for total in (240, 480)]
    return [Multiarrangement(field, mult) for mult in shapes]


@pytest.mark.parametrize("field", [RATIONALS, P31], ids=str)
def test_benchmark_chain_shapes(field):
    for arrangement in benchmark_shapes(field):
        assert members(build_basis(arrangement)) == members(reference_pair(arrangement)), arrangement


@pytest.mark.parametrize("p", [7, 11, 13])
def test_benchmark_frobenius_shapes(p):
    rng = random.Random(p)
    field = Field(p)
    shifts = {h: rng.choice((0, 0, 1, 2)) for h in all_hyperplanes(field)}
    assert_matches_reference(frobenius_arrangement(p, 1, shifts))


@pytest.mark.parametrize("field", [RATIONALS, Field(3), Field(101), P31, P61, P64], ids=str)
def test_single_updates(field):
    rng = random.Random(67)
    p = field.characteristic
    pool = q_forms(6) if not p else [LinearForm(field, 0, 1)] + [LinearForm(field, 1, c) for c in range(min(p, 29))]
    for _ in range(40):
        arrangement = seeded_arrangement(rng, field, pool, rng.randint(0, 3), 15)
        form = rng.choice(pool)
        m = arrangement.multiplicity(form)
        pair = build_basis(arrangement)
        theta1, theta2 = members(pair)
        line = _line(form)
        quotients = (div_linear_power(apply(*theta, *line), *line[:2], p, m) for theta in (theta1, theta2))
        new1, new2, _, _, _ = reference_step(theta1, theta2, line, *quotients)
        assert update_basis(pair, form, m) == _pair(field, new1, new2), (arrangement, form)


def test_single_updates_from_non_primitive_members():
    # update_basis reduces a scaled pair first, so it lands where the primitive one does
    arrangement = Multiarrangement(RATIONALS, {LinearForm(RATIONALS, 2, 1): 3, LinearForm(RATIONALS, 1, -3): 4})
    pair = build_basis(arrangement)
    scaled = BasisPair(*(Derivation(theta.f.scale(-6), theta.g.scale(-6)) for theta in pair))
    for form in q_forms(3):
        m = arrangement.multiplicity(form)
        assert update_basis(scaled, form, m) == update_basis(pair, form, m)


def test_sweep_rows_match_the_reference():
    x_plus_y, x_minus_y, x, y = (LinearForm(RATIONALS, *c) for c in ((1, 1), (1, -1), (1, 0), (0, 1)))
    rows = list(proposition_experiment(lo=1, hi=5).rows) + list(proposition_experiment(lo=20, hi=21).rows)
    for row in rows:
        arrangement = Multiarrangement(RATIONALS, dict(zip((x_plus_y, x_minus_y, x, y), row.mu)))
        theta1, theta2 = reference_basis(arrangement)
        degrees = tuple(sorted((len(theta1[0]) - 1, len(theta2[0]) - 1), reverse=True))
        assert (row.d1, row.d2) == degrees, row.mu
    assert len(rows) == 5**4 + 16
