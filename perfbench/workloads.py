"""Seeded inputs, jobs and answer checks for the three benchmark workloads.

Each workload turns a ``random.Random`` into *rounds*.  A round is a fixed
recipe of job classes (the same classes in the same numbers every round) whose
concrete inputs are drawn from the generator, then shuffled.  A run's job set
is ``ROUNDS[name]`` whole rounds, so every run measures the same mix of job
sizes and the percentiles land at the same place in that mix from one seed to
the next.

A job object has four methods:

``prepare(lv)``
    parses its generated inputs (part of set-up, not timed);
``solve(lv)``
    the timed call(s) into the program; ``lv`` is the imported ``logvf``
    package, looked up at call time so that traced runs see the wrapped
    bindings;
``check(lv, answer)``
    the correctness gate, run outside the timed region; returns a list of
    problems, empty when the answer is right;
``out_bits(answer)``
    the largest coefficient bit length of the answer, for the record.

``size`` is the number of jobs it stands for (16 for a sweep cube, 1
otherwise); ``label``, ``mu_range``, ``lines()``, ``field_name`` and
``in_bits`` describe the input for the record.

The program only ever receives generated inputs: arrangement text parsed by
``logvf.cli.parse_arrangement_text``, or the bounds of a sweep box.
"""

from __future__ import annotations

from dataclasses import dataclass

P31 = 2**31 - 1  # word-size prime for the fp-xcheck chain shapes
P_ORACLE = 101  # small prime for the mixed-field oracle cross-check

# The fixed line pool.  Coefficient height drives the cost over Q (height-2
# lines everywhere make |mu| = 480 take minutes), so the pool is pinned:
# y, x, x + y, x - y, plus 2x + y, whose normalised form x + y/2 has a
# non-integer coefficient and therefore forces rational arithmetic.
BASE_LINES = ((0, 1), (1, 0), (1, 1), (1, -1))
HALF_LINE = (2, 1)
# Factors a line is written with; none vanishes modulo the primes used here.
SCALES = (1, -1, 2, -3)


def arrangement_text(field_name: str, lines) -> str:
    """Arrangement file text for ``[((ax, ay), multiplicity), ...]``."""
    body = "".join(f"{ax} {ay} {m}\n" for (ax, ay), m in lines)
    return f"field {field_name}\n{body}"


def near_balanced(total: int, k: int) -> list[int]:
    """``k`` positive multiplicities summing to ``total``, as equal as they can be."""
    return [total // k + (1 if i < total % k else 0) for i in range(k)]


def presented(rng, lines):
    """The same lines in a seeded order, each scaled by a seeded nonzero factor.

    A line and its multiples are one hyperplane, and the program consumes
    hyperplanes in canonical order, so this changes the text the parser reads
    but not the arrangement or the cost of solving it.
    """
    scaled = []
    for (ax, ay), m in lines:
        c = rng.choice(SCALES)
        scaled.append(((c * ax, c * ay), m))
    rng.shuffle(scaled)
    return scaled


def degree_bits(pair) -> int:
    """Largest bit length of a numerator or denominator among a basis' coefficients."""
    bits = 0
    for theta in pair:
        for c in theta.f.coeffs + theta.g.coeffs:
            if isinstance(c, int):
                bits = max(bits, abs(c).bit_length())
            else:
                bits = max(bits, abs(int(c.numerator)).bit_length(), int(c.denominator).bit_length())
    return bits


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------


@dataclass
class ChainJob:
    """One arrangement: build a basis by the chain, verify it by Saito's criterion.

    ``closed_form`` holds the exponents a closed form predicts (dominant line
    or Frobenius family), or None when no closed form applies.  ``frob_spec``
    is ``(p, i, list of shifts)`` for a Frobenius family; ``prepare`` turns it
    into the ``(p, i, shifts)`` arguments of ``frobenius_basis`` in
    ``frobenius``.  ``oracle`` asks for the linear-algebra oracle as well.
    """

    label: str
    text: str
    arrangement: object = None
    closed_form: tuple | None = None
    frobenius: tuple | None = None
    oracle: bool = False
    size: int = 1
    in_bits: int = 1
    frob_spec: tuple | None = None

    def prepare(self, lv):
        self.arrangement = lv.cli.parse_arrangement_text(self.text)
        if self.frob_spec is not None:
            p, i, shift_list = self.frob_spec
            hyperplanes = lv.all_hyperplanes(lv.Field(p))
            self.frobenius = (p, i, dict(zip(hyperplanes, shift_list)))

    @property
    def mu_range(self) -> tuple[int, int]:
        return (self.arrangement.total, self.arrangement.total)

    @property
    def field_name(self) -> str:
        return str(self.arrangement.field)

    def lines(self) -> int:
        return len(self.arrangement)

    def solve(self, lv):
        arr = self.arrangement
        pair = lv.build_basis(arr)
        verified = lv.verify_basis(pair, arr)
        frob = lv.frobenius_basis(*self.frobenius) if self.frobenius is not None else None
        oracle = lv.exponents_by_oracle(arr) if self.oracle else None
        return {"pair": pair, "verified": verified, "frobenius": frob, "oracle": oracle}

    def check(self, lv, answer) -> list[str]:
        arr = self.arrangement
        pair = answer["pair"]
        degrees = pair.degrees()
        problems = []
        if answer["verified"] is not True:
            problems.append("basis fails Saito's criterion")
        if sum(degrees) != arr.total or degrees[0] < degrees[1]:
            problems.append(f"exponents {degrees} do not split |mu| = {arr.total}")
        if self.closed_form is not None:
            if degrees != self.closed_form:
                problems.append(f"exponents {degrees} != closed form {self.closed_form}")
            dominant = lv.unbalanced_exponents(arr)
            if self.frobenius is None and dominant != self.closed_form:
                problems.append(f"unbalanced_exponents gives {dominant}, expected {self.closed_form}")
        if answer["frobenius"] is not None and answer["frobenius"].degrees() != degrees:
            problems.append(f"frobenius_basis degrees {answer['frobenius'].degrees()} != chain {degrees}")
        if self.oracle and answer["oracle"] != degrees:
            problems.append(f"oracle exponents {answer['oracle']} != chain {degrees}")
        return problems

    def out_bits(self, answer) -> int:
        return degree_bits(answer["pair"])


@dataclass
class SweepJob:
    """One call of the classification sweep over the cube ``[lo, hi]^4``.

    ``samples`` are tuples of the cube rebuilt one by one with ``build_basis``
    during the check, so the sweep's rows are compared against an independent
    call path.
    """

    label: str
    lo: int
    hi: int
    samples: tuple
    sample_arrangements: tuple = ()
    size: int = 0
    in_bits: int = 1
    rebuilt_bits: int = 0

    def __post_init__(self):
        self.size = (self.hi - self.lo + 1) ** 4

    def prepare(self, lv):
        self.sample_arrangements = tuple(lv.cli.parse_arrangement_text(four_line_text(mu)) for mu in self.samples)

    @property
    def mu_range(self) -> tuple[int, int]:
        return (4 * self.lo, 4 * self.hi)

    field_name = "Q"

    def lines(self) -> int:
        return 4

    def solve(self, lv):
        return lv.proposition_experiment(self.lo, self.hi)

    def check(self, lv, report) -> list[str]:
        problems = []
        if report.tuple_count != self.size:
            problems.append(f"{report.tuple_count} rows for a cube of {self.size} tuples")
        rows = {row.mu: row for row in report.rows}
        for row in report.rows:
            if not row.hypothesis_ok:
                problems.append(f"{row.mu}: hypothesis not met")
            if row.d1 + row.d2 != row.total or row.d1 < row.d2:
                problems.append(f"{row.mu}: exponents {row.d1, row.d2} do not split {row.total}")
        if report.disagreements:
            problems.append(f"{len(report.disagreements)} disagreements with the prediction")
        for mu, arr in zip(self.samples, self.sample_arrangements):
            pair = lv.build_basis(arr)
            self.rebuilt_bits = max(self.rebuilt_bits, degree_bits(pair))
            row = rows.get(mu)
            if not lv.verify_basis(pair, arr):
                problems.append(f"{mu}: rebuilt basis fails Saito's criterion")
            if row is None or pair.degrees() != (row.d1, row.d2):
                problems.append(f"{mu}: sweep row disagrees with rebuilt exponents {pair.degrees()}")
        return problems

    def out_bits(self, report) -> int:
        """Coefficient bits of the rebuilt sample bases (the sweep returns degrees only)."""
        return self.rebuilt_bits


def four_line_text(mu) -> str:
    """The sweep's arrangement x+y, x-y, x, y with multiplicities ``mu``."""
    coeffs = ((1, 1), (1, -1), (1, 0), (0, 1))
    return arrangement_text("Q", zip(coeffs, mu))


# ----------------------------------------------------------------------
# job classes
# ----------------------------------------------------------------------


def chain_shape(rng, field_name: str, kind: str, total: int) -> ChainJob:
    """One of the chain shapes shared by chain-q and fp-xcheck.

    ``balanced``: the four base lines with multiplicities as equal as they can
    be.  ``half``: the same plus 2x + y with multiplicity 1.  ``dominant``: the
    line y carries |mu|/2 + 2, so the exponents have a closed form.

    The multiplicities of a shape are fixed; the seed draws only how the
    arrangement is written (:func:`presented`).  Moving multiplicities, even
    by two unit transfers, changes the cost of a job by up to 20 %, and which
    line dominates by up to 5x, which would make a run's percentiles depend
    on the seed rather than on the program.
    """
    if kind == "balanced":
        lines = list(zip(BASE_LINES, near_balanced(total, 4)))
        closed = None
    elif kind == "half":
        lines = list(zip(BASE_LINES, near_balanced(total - 1, 4))) + [(HALF_LINE, 1)]
        closed = None
    elif kind == "dominant":
        big = total // 2 + 2
        lines = [(BASE_LINES[0], big)] + list(zip(BASE_LINES[1:], near_balanced(total - big, 3)))
        closed = (big, total - big)
    else:
        raise ValueError(kind)
    lines = presented(rng, lines)
    in_bits = max(max(abs(a).bit_length(), abs(b).bit_length()) for (a, b), _ in lines)
    return ChainJob(
        label=f"{field_name}:{kind}:{total}",
        text=arrangement_text(field_name, lines),
        closed_form=closed,
        in_bits=in_bits,
    )


def frobenius_shape(rng, p: int, i: int) -> ChainJob:
    """All p + 1 lines of F_p^2 with multiplicities p^i + small seeded shifts."""
    q = p**i
    shifts = [rng.choice((0, 0, 1, 2)) for _ in range(p + 1)]
    # canonical order of all_hyperplanes: y, then x + c*y for c = 0..p-1
    coeffs = [(0, 1)] + [(1, c) for c in range(p)]
    lines = [(c, q + s) for c, s in zip(coeffs, shifts)]
    degrees = tuple(sorted((q + sum(shifts), p * q), reverse=True))
    return ChainJob(
        label=f"F_{p}:frobenius:{i}",
        text=arrangement_text(f"F {p}", lines),
        closed_form=degrees,
        frob_spec=(p, i, shifts),
        in_bits=max(1, (p - 1).bit_length()),
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def sweep_box_round(rng, tiny=False):
    """Five calls: the cubes [lo, lo + 1]^4 of the four-line sweep for lo = 20, 22, ..., 28.

    Every round holds the same cubes, so its work is the same for all seeds;
    the seed picks the order and the tuples rebuilt by the check.  The cube
    [24, 25]^4 holds the ROADMAP's (25, 25, 25, 25).
    """
    if tiny:
        return [SweepJob("cube[20,20]", 20, 20, samples=((20, 20, 20, 20),))]
    jobs = []
    for lo in SWEEP_CUBES:
        cube = [(a, b, c, d) for a in (lo, lo + 1) for b in (lo, lo + 1) for c in (lo, lo + 1) for d in (lo, lo + 1)]
        jobs.append(SweepJob(f"cube[{lo},{lo + 1}]", lo, lo + 1, samples=(rng.choice(cube),)))
    rng.shuffle(jobs)
    return jobs


# Round recipes as (kind, |mu|, count).  A run times ROUNDS[name] rounds, so
# its job count is fixed, and the shapes of a class cost the same, so every
# class sits at the same ranks of the run's sorted job times in every run.
# The counts put the median and the tail percentile (the highest with 10
# jobs beyond it) inside one class each:
#   sweep-box   5 calls: median cube[24,25], tail (maximum) cube[28,29];
#   chain-q    34 jobs: median among the 80s, p70 among the dominant 160s;
#   fp-xcheck  84 jobs: median among the dominant 160s over F_(2^31 - 1)
#              (with the p = 13 Frobenius families just below them, at
#              nearly the same cost), p88 among the 240s.
# One pass over a run's jobs takes 2 to 3 s on the reference machine.
SWEEP_CUBES = (20, 22, 24, 26, 28)
CHAIN_RECIPE = (("half", 80, 20), ("dominant", 160, 12), ("balanced", 240, 1), ("balanced", 480, 1))
FP_CHAIN_RECIPE = (("half", 80, 3), ("dominant", 160, 6), ("balanced", 240, 2), ("balanced", 480, 1))
FROBENIUS_PRIMES = (7, 11, 13)
ORACLE_RECIPE = (("half", 16, 2), ("dominant", 32, 2), ("balanced", 48, 1), ("balanced", 64, 1))
TINY_CHAIN_RECIPE = (("half", 9, 1), ("dominant", 12, 1), ("balanced", 12, 1))
TINY_ORACLE_RECIPE = (("half", 6, 1), ("balanced", 6, 1))


def chain_q_round(rng, tiny=False):
    """Twenty 80-line jobs with 2x + y, twelve dominant 160s, one 240 and one 480, over Q."""
    jobs = _chain_round(rng, "Q", TINY_CHAIN_RECIPE if tiny else CHAIN_RECIPE)
    rng.shuffle(jobs)
    return jobs


def fp_xcheck_round(rng, tiny=False):
    """Every kernel's ``% p`` branch: chains, Frobenius families and the oracle over prime fields.

    The chain shapes over F_(2^31 - 1), Frobenius families for p = 7, 11, 13
    (each also built by ``frobenius_basis``), and arrangements of |mu| 16 to
    64 over F_101 whose exponents the linear-algebra oracle computes too.
    """
    jobs = _chain_round(rng, f"F {P31}", TINY_CHAIN_RECIPE if tiny else FP_CHAIN_RECIPE)
    jobs += [frobenius_shape(rng, p, 1) for p in ((3,) if tiny else FROBENIUS_PRIMES)]
    oracle_jobs = _chain_round(rng, f"F {P_ORACLE}", TINY_ORACLE_RECIPE if tiny else ORACLE_RECIPE)
    for job in oracle_jobs:
        job.oracle = True
    jobs += oracle_jobs
    rng.shuffle(jobs)
    return jobs


def _chain_round(rng, field_name, recipe):
    return [chain_shape(rng, field_name, kind, total) for kind, total, count in recipe for _ in range(count)]


WORKLOADS = {
    "sweep-box": sweep_box_round,
    "chain-q": chain_q_round,
    "fp-xcheck": fp_xcheck_round,
}

# Rounds in one run's job set.
ROUNDS = {"sweep-box": 1, "chain-q": 1, "fp-xcheck": 4}
