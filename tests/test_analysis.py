"""Traces, generic forms, closed forms, Frobenius bases, and the sweep."""

import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from logvf import (
    Branch,
    Derivation,
    Field,
    HomogPoly,
    LinearForm,
    Multiarrangement,
    NoGenericFormError,
    RATIONALS,
    all_hyperplanes,
    build_basis,
    exponents,
    exponents_by_oracle,
    find_generic_form,
    frobenius_arrangement,
    frobenius_basis,
    frobenius_derivation,
    predicted_difference_two,
    proposition_experiment,
    trace_chain,
    unbalanced_exponents,
    verify_basis,
)
from logvf import analysis, basis
from logvf.analysis import ExperimentRow, _avoids_obstruction, _ladder
from logvf.poly import eval_raw

from conftest import kernel_point, sample_arrangements

X = LinearForm(RATIONALS, 1, 0)
Y = LinearForm(RATIONALS, 0, 1)
XY = LinearForm(RATIONALS, 1, 1)


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


def test_trace_single_hyperplane():
    pair, traces = trace_chain(Multiarrangement(RATIONALS, {X: 1}))
    assert len(traces) == 1
    step = traces[0]
    assert step.branch is Branch.G_VANISHING
    assert (step.diff_before, step.diff_after) == (0, 1)
    assert step.form == X and step.multiplicity == 0
    assert pair.degrees() == (1, 0)


def test_trace_final_pair_matches_build():
    arr = Multiarrangement(RATIONALS, {X: 2, Y: 1, XY: 3})
    pair, traces = trace_chain(arr)
    assert (pair.theta1, pair.theta2) == tuple(build_basis(arr))
    assert len(traces) == arr.total


def test_trace_difference_law():
    # diff moves by exactly 1, upward exactly on (g-vanishing or diff 0) steps
    for arr in sample_arrangements(13, 50):
        _, traces = trace_chain(arr)
        for step in traces:
            assert abs(step.diff_after - step.diff_before) == 1
            went_up = step.diff_after > step.diff_before
            assert went_up == (step.branch is Branch.G_VANISHING or step.diff_before == 0)


# ----------------------------------------------------------------------
# generic forms
# ----------------------------------------------------------------------


def test_find_generic_form_examples():
    assert find_generic_form(Derivation.partial_y(RATIONALS)) == Y
    y_dy = Derivation(HomogPoly.zero(RATIONALS, 1), HomogPoly.monomial(RATIONALS, 1, 0))
    assert find_generic_form(y_dy) == XY
    assert find_generic_form(Derivation.partial_y(RATIONALS), exclude=[Y]) == XY


def test_find_generic_form_euler_multiple_fails():
    with pytest.raises(NoGenericFormError):
        find_generic_form(Derivation.euler(RATIONALS))
    x_times_euler = Derivation(
        HomogPoly.monomial(RATIONALS, 2, 2), HomogPoly(RATIONALS, [0, 1, 0])
    )  # x^2 dx + xy dy = x * (x dx + y dy)
    with pytest.raises(NoGenericFormError):
        find_generic_form(x_times_euler)


def test_find_generic_form_over_prime_field():
    F2 = Field(2)
    assert find_generic_form(Derivation.partial_y(F2)) == LinearForm(F2, 0, 1)
    with pytest.raises(NoGenericFormError):
        find_generic_form(Derivation.partial_y(F2), exclude=all_hyperplanes(F2))


def test_generic_addition_balances_difference_one():
    rng = random.Random(555)
    checked = 0
    while checked < 25:
        from conftest import random_difference_one_arrangement

        arr = random_difference_one_arrangement(rng)
        pair = build_basis(arr)
        try:
            form = find_generic_form(pair.theta2, exclude=tuple(arr))
        except NoGenericFormError:
            continue  # theta2 is an Euler multiple; the corollary is vacuous here
        d1, d2 = exponents(arr.incremented(form))
        assert d1 == d2
        checked += 1


def _two_branch_scan(theta2, exclude=()):
    """Reference: the scan with a separate F_p branch over all p + 1 hyperplanes; None for a raise."""
    field = theta2.field
    excluded = set(exclude)
    if field.characteristic:
        for form in all_hyperplanes(field):
            if form not in excluded and _avoids_obstruction(theta2, form):
                return form
        return None
    y_form = LinearForm(field, 0, 1)
    if y_form not in excluded and _avoids_obstruction(theta2, y_form):
        return y_form
    tested = 0
    for c in _ladder():
        form = LinearForm(field, 1, c)
        if form in excluded:
            continue
        if _avoids_obstruction(theta2, form):
            return form
        tested += 1
        if tested > theta2.degree + 1:
            break
    return None


SCAN_FIELDS = [RATIONALS, Field(2), Field(3), Field(5), Field(7), Field(101)]
X_OF = {field: LinearForm(field, 1, 0) for field in SCAN_FIELDS}
Y_OF = {field: LinearForm(field, 0, 1) for field in SCAN_FIELDS}


def _random_poly(rng, field, degree):
    return HomogPoly(field, [rng.randint(-3, 3) for _ in range(degree + 1)])


def _obstructed_at(rng, field, forms, degree):
    """A derivation of the given degree obstructed on the first deg + 1 of ``forms``, or None.

    theta(alpha) at the kernel point of alpha is x*g - y*f there, so a product
    h of those forms (times a random factor) is split as h = x*g - y*f, and a
    random Euler multiple (x*k, y*k), which leaves h unchanged, is added.
    """
    h = HomogPoly(field, [1])
    for form in forms[: degree + 1]:
        h = h.times_linear(form)
    h = h * _random_poly(rng, field, degree + 1 - h.degree)
    f = HomogPoly.monomial(field, degree, 0, -h.coeffs[0])
    g = HomogPoly(field, h.coeffs[1:])
    if degree:
        k = _random_poly(rng, field, degree - 1)
        f, g = f + k.times_linear(X_OF[field]), g + k.times_linear(Y_OF[field])
    return Derivation(f, g) if not (f.is_zero() and g.is_zero()) else None


def _candidate_pool(field):
    if field.characteristic:
        return all_hyperplanes(field)
    return [Y] + [LinearForm(RATIONALS, 1, c) for c in range(-4, 5)] + [LinearForm(RATIONALS, 2, 1)]


@pytest.mark.parametrize("field", SCAN_FIELDS, ids=str)
def test_find_generic_form_matches_the_two_branch_scan(field):
    rng = random.Random(20260 + field.characteristic)
    pool = _candidate_pool(field)
    kinds = {"found": 0, "raised": 0, "euler": 0, "excluded": 0}
    for _ in range(400):
        degree = rng.randint(0, 5)
        draw = rng.random()
        if draw < 0.25 and degree:  # an Euler multiple: x*k dx + y*k dy
            k = _random_poly(rng, field, degree - 1)
            if k.is_zero():
                continue
            theta = Derivation(k.times_linear(X_OF[field]), k.times_linear(Y_OF[field]))
            kinds["euler"] += 1
        elif draw < 0.7:  # obstructed on the first deg + 1 pool forms, y, x, x + y, ... over F_p
            theta = _obstructed_at(rng, field, sorted(pool, key=LinearForm.sort_key), degree)
        else:
            f, g = _random_poly(rng, field, degree), _random_poly(rng, field, degree)
            theta = None if f.is_zero() and g.is_zero() else Derivation(f, g)
        if theta is None:
            continue
        if rng.random() < 0.1 and field.characteristic:
            exclude = list(pool)
        else:
            exclude = rng.sample(pool, rng.randint(0, min(len(pool), 4)))
        kinds["excluded"] += bool(exclude)
        expected = _two_branch_scan(theta, exclude)
        try:
            got = find_generic_form(theta, exclude=exclude)
        except NoGenericFormError:
            got = None
        assert got == expected, (theta, exclude)
        kinds["found" if got is not None else "raised"] += 1
    assert min(kinds.values()) >= 10, kinds
    p = field.characteristic
    if p:  # the Frobenius derivation: every form obstructed, yet no Euler multiple
        frobenius = frobenius_derivation(p, 1)
        with pytest.raises(NoGenericFormError):
            find_generic_form(frobenius)
        assert _two_branch_scan(frobenius) is None


def test_find_generic_form_makes_at_most_degree_plus_three_tests(monkeypatch):
    calls = []

    def counting(theta2, form):
        calls.append(form)
        return _avoids_obstruction(theta2, form)

    monkeypatch.setattr(analysis, "_avoids_obstruction", counting)
    # F_101 first: the two-branch scan tests all 102 hyperplanes there, so this
    # fails before F_(2^31-1), where that scan would build about 2^31 forms
    for p in (101, 2**31 - 1):
        field = Field(p)
        x_euler = Derivation(HomogPoly.monomial(field, 2, 2), HomogPoly(field, [0, 1, 0]))
        for theta in (Derivation.euler(field), x_euler):
            calls.clear()
            start = time.perf_counter()
            with pytest.raises(NoGenericFormError):
                find_generic_form(theta, exclude=[LinearForm(field, 1, 1)])
            assert len(calls) <= theta.degree + 3, (p, len(calls))
            assert time.perf_counter() - start < 1


def test_find_generic_form_matches_theta2_at_the_kernel_point():
    # the obstruction test is membership in D({form: 1}); read here directly: theta2(alpha), from
    # Derivation.apply on rational coefficients, at the chain's kernel point.  The scan returns the
    # first of y, x, x + y, x - y, ... where that value is nonzero, and raises when deg + 2 of the x + c*y
    # are zero; half of the derivations are obstructed at y and x, where a test at multiplicity 2 would pass
    rng = random.Random(29)
    non_monic = [LinearForm(RATIONALS, 2, 1), LinearForm(RATIONALS, 3, -2), LinearForm(RATIONALS, 1, 2)]
    found = raised = collapsed = 0
    for _ in range(300):
        degree = rng.randint(0, 5)
        f, g = ([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree + 1)] for _ in "fg")
        if rng.random() < 0.5:
            f[0] = g[-1] = 0  # theta2(x) = f vanishes at (0, 1), theta2(y) = g at (1, 0)
        if not any(f + g):
            continue
        theta2 = Derivation(HomogPoly(RATIONALS, f), HomogPoly(RATIONALS, g))

        def value(form):
            nonlocal collapsed
            h = theta2.apply(form).coeffs
            assert all(type(c) is int or c.denominator > 1 for c in h), (theta2, form)  # integral values are ints
            collapsed += sum(type(c) is int and Fraction in (type(s), type(t)) for c, s, t in zip(h, f, g))
            return eval_raw(h, *kernel_point(form), 0)

        candidates = [Y] + [LinearForm(RATIONALS, 1, c) for c in itertools.islice(_ladder(), degree + 2)]
        expected = next((form for form in candidates if value(form)), None)
        try:
            got = find_generic_form(theta2)
        except NoGenericFormError:
            got = None
        assert got == expected, theta2
        found += got is not None
        raised += got is None
        for form in non_monic:
            assert _avoids_obstruction(theta2, form) == bool(value(form)), (theta2, form)
    assert found >= 200 and raised >= 1 and collapsed >= 100, (found, raised, collapsed)


# ----------------------------------------------------------------------
# unbalanced closed form
# ----------------------------------------------------------------------


def test_unbalanced_exponents():
    assert unbalanced_exponents(Multiarrangement(RATIONALS, {X: 5, Y: 2})) == (5, 2)
    assert unbalanced_exponents(Multiarrangement(RATIONALS, {X: 1, Y: 1, XY: 1})) is None
    # boundary: exactly half the total counts as dominant
    arr = Multiarrangement(RATIONALS, {X: 2, Y: 1, XY: 1})
    assert unbalanced_exponents(arr) == (2, 2)
    assert exponents(arr) == (2, 2)


def test_unbalanced_matches_construction():
    rng = random.Random(99)
    from conftest import random_dominant_arrangement

    for _ in range(25):
        arr, _ = random_dominant_arrangement(rng)
        closed = unbalanced_exponents(arr)
        assert closed is not None
        assert closed == exponents(arr)


# ----------------------------------------------------------------------
# Frobenius powers
# ----------------------------------------------------------------------


def test_frobenius_derivation_examples():
    assert frobenius_derivation(2, 0) == Derivation.euler(Field(2))
    F3 = Field(3)
    assert frobenius_derivation(3, 1) == Derivation(
        HomogPoly.monomial(F3, 3, 3), HomogPoly.monomial(F3, 3, 0)
    )
    with pytest.raises(ValueError):
        frobenius_derivation(4, 0)
    with pytest.raises(ValueError):
        frobenius_derivation(2, -1)


@pytest.mark.parametrize("build", [frobenius_derivation, frobenius_arrangement, frobenius_basis])
def test_frobenius_families_refuse_p_zero(build):
    # Field(0) is Q, which has no Frobenius power
    with pytest.raises(ValueError, match="need a prime p, got 0"):
        build(0, 0)


def test_frobenius_derivation_membership():
    for p in (2, 3, 5):
        for i in (0, 1):
            theta = frobenius_derivation(p, i)
            assert theta.is_member(frobenius_arrangement(p, i))


def test_frobenius_basis_no_shifts():
    pair = frobenius_basis(2, 0)
    assert pair.theta2 == frobenius_derivation(2, 0)
    assert pair.theta1 == frobenius_derivation(2, 1)
    assert pair.degrees() == (2, 1)
    assert exponents(frobenius_arrangement(2, 0)) == (2, 1)


def test_frobenius_basis_shift_example():
    F2 = Field(2)
    x = LinearForm(F2, 1, 0)
    pair = frobenius_basis(2, 0, {x: 1})
    arr = frobenius_arrangement(2, 0, {x: 1})
    assert arr == Multiarrangement(
        F2, {x: 2, LinearForm(F2, 0, 1): 1, LinearForm(F2, 1, 1): 1}
    )
    # x * (x dx + y dy) together with x^2 dx + y^2 dy
    assert pair.theta1 == Derivation.euler(F2).times_linear(x)
    assert pair.theta2 == frobenius_derivation(2, 1)
    assert verify_basis(pair, arr)
    assert exponents(arr) == (2, 2)


def test_frobenius_shift_validation():
    F2 = Field(2)
    x = LinearForm(F2, 1, 0)
    with pytest.raises(ValueError):
        frobenius_arrangement(2, 0, {x: 2})  # above p^(i+1) - p^i = 1
    with pytest.raises(ValueError):
        frobenius_arrangement(2, 0, {x: -1})
    with pytest.raises(ValueError):
        frobenius_arrangement(2, 0, {LinearForm(Field(3), 1, 0): 1})


def test_frobenius_families_refuse_a_huge_field_before_building_forms():
    start = time.perf_counter()
    for build in (frobenius_arrangement, frobenius_basis):
        with pytest.raises(ValueError, match="2147483648"):
            build(2**31 - 1, 0)
    assert time.perf_counter() - start < 1.0


def test_frobenius_basis_random_shifts_match_chain():
    rng = random.Random(2718)
    for p in (2, 3):
        hyperplanes = all_hyperplanes(Field(p))
        max_shift = p - 1
        for _ in range(8):
            shifts = {h: rng.randint(0, max_shift) for h in hyperplanes}
            pair = frobenius_basis(p, 0, shifts)
            arr = frobenius_arrangement(p, 0, shifts)
            assert verify_basis(pair, arr)
            assert sorted(pair.degrees()) == sorted(build_basis(arr).degrees())


# ----------------------------------------------------------------------
# the four-line sweep
# ----------------------------------------------------------------------


def test_parity_classification_examples():
    assert predicted_difference_two((23, 21, 20, 20))  # family 1: k=10, h=0, l=10
    assert predicted_difference_two((21, 23, 20, 20))  # same family, negative shift
    assert not predicted_difference_two((20, 20, 20, 20))
    assert predicted_difference_two((21, 21, 21, 21))  # family 3 with h = 0
    assert predicted_difference_two((20, 20, 23, 21))  # family 2
    assert not predicted_difference_two((25, 21, 22, 22))  # gap 0 mod 4 needs odd pair


def test_parity_classification_symmetries():
    rng = random.Random(4)
    for _ in range(200):
        mu = tuple(rng.randint(20, 30) for _ in range(4))
        value = predicted_difference_two(mu)
        m1, m2, m3, m4 = mu
        assert predicted_difference_two((m2, m1, m3, m4)) == value
        assert predicted_difference_two((m1, m2, m4, m3)) == value
        assert predicted_difference_two((m3, m4, m1, m2)) == value


def four_lines(mu):
    """The sweep's arrangement: multiplicities mu on x+y, x-y, x, y."""
    coeffs = ((1, 1), (1, -1), (1, 0), (0, 1))
    return Multiarrangement(
        RATIONALS, {LinearForm(RATIONALS, a, b): m for (a, b), m in zip(coeffs, mu)}
    )


SWEEP_COEFFS = ((1, 1), (1, -1), (1, 0), (0, 1))
# the coordinate changes (x, y) -> (x, -y), (y, x) and (x+y, x-y), each taking the form
# a*x + b*y to its composite with the map
SWEEP_MAPS = (lambda a, b: (a, -b), lambda a, b: (b, a), lambda a, b: (a + b, a - b))
# the 8 permutations of the positions x+y, x-y, x, y that keep the pairs {x+y, x-y} and {x, y}
PAIR_PERMUTATIONS = [s for s in itertools.permutations(range(4)) if sorted(s[:2]) in ([0, 1], [2, 3])]


def sweep_symmetries():
    """The permutations of the sweep's line positions generated by SWEEP_MAPS."""
    lines = [LinearForm(RATIONALS, a, b) for a, b in SWEEP_COEFFS]
    generators = [
        tuple(lines.index(LinearForm(RATIONALS, *m(a, b))) for a, b in SWEEP_COEFFS) for m in SWEEP_MAPS
    ]
    group = {(0, 1, 2, 3)}
    while True:
        grown = group | {tuple(s[t] for t in g) for s in group for g in generators}
        if grown == group:
            return group
        group = grown


def orbit(mu):
    return {tuple(mu[i] for i in s) for s in sweep_symmetries()}


def test_sweep_symmetries_keep_exponents():
    group = sweep_symmetries()
    assert len(group) == 8 and group == set(PAIR_PERMUTATIONS)
    rng = random.Random(11)
    tuples = [tuple(rng.randint(1, 60) for _ in range(4)) for _ in range(16)]
    for _ in range(8):  # one line carries at least half of |mu|
        rest = [rng.randint(1, 20) for _ in range(3)]
        mu = rest + [rng.randint(sum(rest), 60)]
        rng.shuffle(mu)
        tuples.append(tuple(mu))
    assert sum(2 * max(mu) >= sum(mu) for mu in tuples) >= 8
    for mu in tuples:
        expected = exponents(four_lines(mu))
        for image in orbit(mu):
            assert exponents(four_lines(image)) == expected, (mu, image)
            assert predicted_difference_two(image) == predicted_difference_two(mu)


def test_representative_closed_form_matches_the_views():
    # the 8 views of a tuple in walk order, from the symmetry group and the walk order
    views = [[s[i] for i in analysis._WALK_ORDER] for s in PAIR_PERMUTATIONS]
    rng = random.Random(13)
    tuples = list(itertools.product(range(1, 16), repeat=4))
    tuples += [tuple(rng.randint(1, 125) for _ in range(4)) for _ in range(5000)]
    tuples += [(125, 125, 1, 1), (1, 125, 125, 1), (7, 7, 7, 7), (125, 124, 125, 124)]
    for mu in tuples:
        assert analysis._representative(mu) == max(tuple(mu[i] for i in view) for view in views), mu


def test_experiment_rows_match_exponents():
    # the x - y windows carried by y's ramp: kills a degree-dependent sign on them and a
    # generic step that does not multiply them by x = (x - y) + y
    report = proposition_experiment(lo=18, hi=21)
    assert report.tuple_count == 4**4
    for r in report.rows:
        assert (r.d1, r.d2) == exponents(four_lines(r.mu)), r.mu


def test_experiment_known_prediction_misses():
    """On [1, 15]^4 the parity formula misses exactly two orbits, both with exponents (16, 14)."""
    misses = proposition_experiment(lo=1, hi=15).disagreements
    assert {r.mu for r in misses} == orbit((2, 9, 8, 11)) | orbit((4, 7, 6, 13))
    assert len(misses) == 16
    for r in misses:
        assert (r.d1, r.d2, r.predicted_two, r.hypothesis_ok) == (16, 14, False, True)
    for mu in ((2, 9, 8, 11), (4, 7, 6, 13)):
        assert exponents_by_oracle(four_lines(mu)) == (16, 14)


@pytest.mark.parametrize(
    "mu",
    [
        (103, 1, 60, 60),
        (1, 103, 60, 60),
        (60, 60, 103, 1),
        (71, 1, 36, 36),
        (69, 1, 35, 35),
        (101, 1, 60, 60),
        (99, 1, 61, 61),
    ],
)
def test_parity_classification_on_wide_tuples(mu):
    arr = four_lines(mu)
    assert all(2 * m < arr.total for m in mu)
    d1, d2 = exponents(arr)
    assert predicted_difference_two(mu) == (d1 - d2 == 2)


def test_tuple_exponents_spot_checks():
    rows = {r.mu: (r.d1, r.d2) for r in proposition_experiment(lo=20, hi=23).rows}
    assert rows[(23, 21, 20, 20)] == (43, 41)
    assert rows[(20, 20, 20, 20)] == (40, 40)


def test_experiment_rows_match_per_tuple_construction():
    report = proposition_experiment(lo=1, hi=5)
    assert report.tuple_count == 5**4
    assert not all(r.hypothesis_ok for r in report.rows)
    for r in report.rows:
        assert (r.d1, r.d2) == build_basis(four_lines(r.mu)).degrees(), r.mu


def test_small_subrange_experiment():
    report = proposition_experiment(lo=20, hi=21)
    assert report.tuple_count == 16
    assert all(r.hypothesis_ok for r in report.rows)
    assert not report.disagreements
    assert report.summary() == "16 tuples, 0 disagreements"
    row = report.rows[0]
    assert row.mu == (20, 20, 20, 20) and row.total == 80
    assert row.d1 + row.d2 == row.total and row.difference == row.d1 - row.d2


def test_experiment_csv(tmp_path):
    report = proposition_experiment(lo=20, hi=21)
    out = tmp_path / "report.csv"
    report.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "mu1,mu2,mu3,mu4,total,d1,d2,d,predicted_d2,agrees"
    assert len(lines) == 17
    assert lines[1] == "20,20,20,20,80,40,40,0,false,true"


# sha256 of the CSV reports as built from full bases on every line
EXPERIMENT_CSV_SHA256 = {
    (20, 23): "e30d332bf2e7a0e5a0b9b5aeb4aa626e8273a2ba0f93dae9554790317e57c211",
    (1, 6): "a7b5f6a995307dd354839464b15cd8aa0b5188080a42c07a993e77bb4a7c9648",
}


@pytest.mark.parametrize("lo, hi", sorted(EXPERIMENT_CSV_SHA256))
def test_experiment_csv_is_unchanged(tmp_path, lo, hi):
    out = tmp_path / "report.csv"
    proposition_experiment(lo=lo, hi=hi).write_csv(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPERIMENT_CSV_SHA256[(lo, hi)]


# _step calls of the orbit walk, which prunes nodes and shortens ramps, and
# steps x + y and x only: y and x - y ramp on Taylor windows
PRUNED_STEPS = {(20, 21): 62, (3, 5): 17}


@pytest.mark.parametrize("lo, hi, unpruned", [(20, 21, 147), (3, 5, 65)])
def test_experiment_builds_no_derivation_on_the_last_line(monkeypatch, lo, hi, unpruned):
    """Only x + y and x step, fewer times than hi steps per node of a full walk of three lines."""
    calls = []
    step = basis._step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(basis, "_step", counting)
    proposition_experiment(lo=lo, hi=hi)
    w = hi - lo + 1
    assert (1 + w + w * w) * hi == unpruned
    assert len(calls) == PRUNED_STEPS[(lo, hi)] < unpruned


def test_experiment_walk_builds_no_polynomial_or_derivation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a HomogPoly or a Derivation")

    monkeypatch.setattr(HomogPoly, "__init__", refuse)
    monkeypatch.setattr(HomogPoly, "_raw", refuse)
    monkeypatch.setattr(Derivation, "__init__", refuse)
    report = proposition_experiment(lo=3, hi=5)
    assert report.tuple_count == 81


def test_experiment_rejects_bad_arguments():
    with pytest.raises(ValueError):
        proposition_experiment(lo=0, hi=3)
    with pytest.raises(ValueError):
        proposition_experiment(lo=5, hi=4)


def test_row_agrees_none_when_hypothesis_fails():
    row = ExperimentRow(
        mu=(9, 1, 1, 1),
        total=12,
        d1=9,
        d2=3,
        difference=6,
        predicted_two=False,
        hypothesis_ok=False,
    )
    assert row.agrees is None
