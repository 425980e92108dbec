"""Golden differential test: bases, traces, exponents and the sweep CSV, byte for byte.

Each field gets seeded arrangements up to |mu| = 160 (over Q the non-monic
lines 2x + y and 3x - 2y are always present), so any change in a basis, a
trace line or an exponent pair, at sizes far past the oracle's |mu| <= 12,
shows up as a changed digest.  ``GOLDEN`` pins the bases of the generic step
theta1' = s*theta1 + t*beta^d*theta2; every one of them passed
``verify_basis`` before it was pinned.  A basis is not unique, so that step
changed them and some branch labels.  ``INVARIANTS`` pins what it could not
change, every step's degrees and the exponents; it was computed by the
earlier generic step, whose q was num*y^d + den*(x^d + ... + x*y^(d-1)), and
holds for both.  The Frobenius digest was computed while ``frobenius_basis``
still multiplied its member by each shifted form through
``Derivation.times_linear``.
"""

import hashlib
import random

import pytest

from logvf import (
    Field,
    LinearForm,
    Multiarrangement,
    all_hyperplanes,
    build_basis,
    exponents,
    frobenius_basis,
    proposition_experiment,
    trace_chain,
    verify_basis,
)

TOTALS = (3, 8, 12, 17, 29, 40, 64, 80, 120, 160)
NON_MONIC = ((2, 1), (3, -2))

GOLDEN = {
    "Q": "62a0dc3bc4a25c5c08d6ffad46bfcd8912d388e2aadb8dd1f7dd2de193243f21",
    "F_2147483647": "08f37c12f0c47f0841cab0abba4b67185151d9d2d5eaf85513c6512729a6be04",
    "F_101": "b528f8a35f25d16851079088db0f5fc23d4dc2184392e4a8df2af1f3a2c1b06a",
    "F_7": "0d45d7148897d7967517dbf9be5fdf6640320f5e1450c4b1156436a2d94bfb7f",
}
SWEEP_20_23 = "e30d332bf2e7a0e5a0b9b5aeb4aa626e8273a2ba0f93dae9554790317e57c211"
FROBENIUS = "8c4dedf2b1275b6203c2f19b0f9da7fce26aeef3d25c3476859022e29173a89b"
# what no choice of basis can change: every step's degrees and the exponents, over all four fields
INVARIANTS = "2379ae4b7a294b66e3d2a13c1f5fae99605c55b6158fb0a43d4a1f316f790aca"


def golden_arrangements(field, seed=1):
    """One seeded arrangement per total in TOTALS, two to six lines each."""
    rng = random.Random(seed)
    pool = sorted(
        {LinearForm(field, a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b},
        key=LinearForm.sort_key,
    )
    for total in TOTALS:
        forms = rng.sample(pool, rng.randint(2, min(6, total)))
        if not field.characteristic:
            forms = list(dict.fromkeys([LinearForm(field, *c) for c in NON_MONIC] + forms))
        mult = {form: 1 for form in forms[:total]}
        for _ in range(total - len(mult)):
            mult[rng.choice(list(mult))] += 1
        yield Multiarrangement(field, mult)


def golden_text(field):
    """Every arrangement's basis, trace lines and exponents, one item per line."""
    lines = []
    for arrangement in golden_arrangements(field):
        pair = build_basis(arrangement)
        traced, traces = trace_chain(arrangement)
        lines.append(repr(arrangement))
        lines.extend(theta.to_text() for theta in pair)
        lines.extend(theta.to_text() for theta in traced)
        lines.extend(str(t) for t in traces)
        lines.append(str(exponents(arrangement)))
    return "\n".join(lines) + "\n"


def invariant_text():
    """The part of :func:`golden_text` that is an invariant of D(A, mu): step degrees and exponents, no branch."""
    lines = []
    for p in (0, 2**31 - 1, 101, 7):
        for arrangement in golden_arrangements(Field(p)):
            lines.append(repr(arrangement))
            for t in trace_chain(arrangement)[1]:
                lines.append(f"{t.index} {t.form} {t.multiplicity} {t.degrees_before} {t.degrees_after}")
            lines.append(str(exponents(arrangement)))
    return "\n".join(lines) + "\n"


def frobenius_text(seed=1):
    """Seeded shifted Frobenius families for p in {2, 3, 5, 7} and i in {0, 1}, one basis per line pair."""
    rng = random.Random(seed)
    lines = []
    for p in (2, 3, 5, 7):
        hyperplanes = all_hyperplanes(Field(p))
        for i in (0, 1):
            top = p ** (i + 1) - p**i
            for _ in range(5):
                chosen = rng.sample(hyperplanes, rng.randint(0, len(hyperplanes)))
                shifts = {form: rng.randint(0, top) for form in chosen}
                lines.append(f"{p} {i} " + ",".join(str(shifts.get(h, 0)) for h in hyperplanes))
                lines.extend(theta.to_text() for theta in frobenius_basis(p, i, shifts))
    return "\n".join(lines) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("p", [0, 2**31 - 1, 101, 7], ids=lambda p: str(Field(p)))
def test_chain_outputs_are_unchanged(p):
    field = Field(p)
    assert digest(golden_text(field)) == GOLDEN[str(field)]


def test_step_degrees_and_exponents_are_unchanged():
    assert digest(invariant_text()) == INVARIANTS


@pytest.mark.parametrize("p", [0, 7])
def test_golden_bases_verify(p):
    # the pinned bases are bases: the digests do not freeze a wrong answer
    for arrangement in golden_arrangements(Field(p)):
        assert verify_basis(build_basis(arrangement), arrangement), arrangement


def test_sweep_csv_is_unchanged(tmp_path):
    out = tmp_path / "report.csv"
    proposition_experiment(20, 23).write_csv(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_20_23


def test_frobenius_bases_are_unchanged():
    assert digest(frobenius_text()) == FROBENIUS
