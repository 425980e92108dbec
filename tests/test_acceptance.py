"""Acceptance checks: every top-level claim the package makes, end to end.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  All comparisons are exact; the only
numeric thresholds are wall-clock budgets, and the long classification sweep
treats its budget as a soft target (reported, not asserted).
"""

import random
import time
from fractions import Fraction

import pytest

from logvf import (
    BasisPair,
    Branch,
    Derivation,
    Field,
    LinearForm,
    Multiarrangement,
    NoGenericFormError,
    RATIONALS,
    all_hyperplanes,
    build_basis,
    exponents,
    exponents_by_oracle,
    dimension_table,
    find_generic_form,
    frobenius_arrangement,
    frobenius_basis,
    frobenius_derivation,
    proposition_experiment,
    trace_chain,
    unbalanced_exponents,
    verify_basis,
)
from logvf.poly import div_linear_power

from conftest import (
    random_difference_one_arrangement,
    random_dominant_arrangement,
    sample_arrangements,
)

RESULTS: list[str] = []


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    RESULTS.append(line)
    print(line)
    assert ok, f"{name} failed {suffix}"


ORACLE_BATCH_SEED = 1234
ORACLE_BATCH_SIZE = 500


def hilbert_dims(e1, e2, d):
    return max(0, d - e1 + 1) + max(0, d - e2 + 1)


def test_criterion_1_oracle_equivalence():
    """500 random arrangements: chain exponents == oracle, full table matches."""
    start = time.perf_counter()
    mismatches = 0
    for arr in sample_arrangements(ORACLE_BATCH_SEED, ORACLE_BATCH_SIZE):
        d1, d2 = exponents(arr)
        if (d1, d2) != exponents_by_oracle(arr):
            mismatches += 1
            continue
        table = dimension_table(arr)
        if table != [hilbert_dims(d1, d2, d) for d in range(arr.total + 1)]:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (oracle equivalence, 500 arrangements)",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_saito_product_form():
    """Every criterion-1 basis has determinant = nonzero constant * prod alpha^mu."""
    bad = 0
    for arr in sample_arrangements(ORACLE_BATCH_SEED, ORACLE_BATCH_SIZE):
        det = build_basis(arr).determinant()
        try:
            quotient = det.coeffs
            for form, mult in arr.items():
                quotient = div_linear_power(quotient, form.ax, form.ay, arr.field.characteristic, mult)
        except Exception:
            bad += 1
            continue
        if len(quotient) != 1 or not quotient[0]:
            bad += 1
    report("criterion 2 (Saito determinant product form)", bad == 0, f"{bad} failures")


def test_criterion_3_unbalanced_closed_form():
    """200 dominant arrangements follow the closed form, and stay on it when raised."""
    rng = random.Random(777)
    bad = 0
    for _ in range(200):
        arr, dominant = random_dominant_arrangement(rng)
        m = arr.multiplicity(dominant)
        rest = arr.total - m
        if exponents(arr) != (m, rest) or unbalanced_exponents(arr) != (m, rest):
            bad += 1
            continue
        raised = arr
        for n in (1, 2, 3):
            raised = raised.incremented(dominant)
            if exponents(raised) != (m + n, rest):
                bad += 1
                break
    report("criterion 3 (unbalanced closed form, 200 arrangements)", bad == 0, f"{bad} failures")


def test_criterion_4_difference_dynamics():
    """On every traced step the gap widens iff the branch is g-vanishing or the gap was 0."""
    steps = 0
    violations = 0
    for arr in sample_arrangements(ORACLE_BATCH_SEED, ORACLE_BATCH_SIZE):
        _, traces = trace_chain(arr)
        for s in traces:
            steps += 1
            widened = s.diff_after > s.diff_before
            if widened != (s.branch is Branch.G_VANISHING or s.diff_before == 0):
                violations += 1
            if abs(s.diff_after - s.diff_before) != 1:
                violations += 1
    report(
        "criterion 4 (difference dynamics)",
        violations == 0,
        f"{steps} steps, {violations} violations",
    )


def test_criterion_5_generic_addition():
    """200 difference-one arrangements: adding the found generic form balances them."""
    rng = random.Random(31415)
    bad = 0
    checked = 0
    skipped_euler = 0
    while checked < 200:
        arr = random_difference_one_arrangement(rng)
        pair = build_basis(arr)
        try:
            form = find_generic_form(pair.theta2, exclude=arr.forms())
        except NoGenericFormError:
            # the smaller member is an Euler multiple: the corollary's
            # hypothesis (a form with theta2(alpha) not divisible) is empty
            skipped_euler += 1
            continue
        checked += 1
        d1, d2 = exponents(arr.incremented(form))
        if d1 != d2:
            bad += 1
    report(
        "criterion 5 (generic addition balances, 200 arrangements)",
        bad == 0,
        f"{bad} failures, {skipped_euler} Euler-multiple draws skipped",
    )


def test_criterion_6_finite_field_lemma():
    """(theta_q, theta_pq) is a basis for constant multiplicity q = p^i, p in {2,3,5}."""
    start = time.perf_counter()
    bad = []
    for p in (2, 3, 5):
        for i in (0, 1):
            arr = frobenius_arrangement(p, i)
            pair = BasisPair(frobenius_derivation(p, i), frobenius_derivation(p, i + 1))
            if not verify_basis(pair, arr):
                bad.append((p, i, "verify"))
            if exponents(arr) != (p ** (i + 1), p**i):
                bad.append((p, i, "exponents"))
    elapsed = time.perf_counter() - start
    report(
        "criterion 6 (finite-field constant-multiplicity bases)",
        not bad and elapsed < 30.0,
        f"{bad or 'all six cases'}, {elapsed:.1f}s",
    )


def test_criterion_7_finite_field_shifts():
    """50 random shift maps for p in {2,3}, i=0: verified and chain-consistent."""
    rng = random.Random(123)
    bad = 0
    for n in range(50):
        p = 2 if n % 2 == 0 else 3
        hyperplanes = all_hyperplanes(Field(p))
        max_shift = p - 1  # p^(i+1) - p^i with i = 0
        shifts = {h: rng.randint(0, max_shift) for h in hyperplanes}
        arr = frobenius_arrangement(p, 0, shifts)
        pair = frobenius_basis(p, 0, shifts)
        if not verify_basis(pair, arr):
            bad += 1
        elif sorted(pair.degrees()) != sorted(build_basis(arr).degrees()):
            bad += 1
    report("criterion 7 (shifted finite-field bases, 50 maps)", bad == 0, f"{bad} failures")


@pytest.mark.slow
def test_criterion_8_proposition_experiment():
    """All 14641 tuples in [20,30]^4: computed gap-2 status matches the parity families."""
    start = time.perf_counter()
    result = proposition_experiment(lo=20, hi=30)
    elapsed = time.perf_counter() - start
    ok = (
        result.tuple_count == 14641
        and all(r.hypothesis_ok for r in result.rows)
        and len(result.disagreements) == 0
    )
    report(
        "criterion 8 (four-line classification, 14641 tuples)",
        ok,
        f"{result.summary()}, {elapsed:.0f}s (soft target 600s)",
    )


def test_criterion_9_exactness():
    """No floats anywhere: scalars are ints, exact rationals, or residues."""
    exact_types = (int, Fraction)
    bad = 0
    for arr in sample_arrangements(5150, 60):
        pair = build_basis(arr)
        for theta in pair:
            for c in theta.f.coeffs + theta.g.coeffs:
                if not isinstance(c, exact_types):
                    bad += 1
        for dim in dimension_table(arr):
            if not isinstance(dim, int):
                bad += 1
    float_rejected = True
    try:
        RATIONALS.coerce(0.5)
        float_rejected = False
    except ValueError:
        pass
    try:
        LinearForm(RATIONALS, 1.5, 1)
        float_rejected = False
    except ValueError:
        pass
    report(
        "criterion 9 (exact arithmetic everywhere)",
        bad == 0 and float_rejected,
        f"{bad} inexact values",
    )
