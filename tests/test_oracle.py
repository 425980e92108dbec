"""The linear-algebra route to graded dimensions and exponents."""

import math
import random
from fractions import Fraction

import pytest

from logvf import (
    Field,
    LinearForm,
    Multiarrangement,
    RATIONALS,
    all_hyperplanes,
    dim_degree,
    dimension_table,
    build_basis,
    exponents,
    exponents_by_oracle,
    verify_basis,
)
from logvf import oracle, poly

from conftest import form_pool, random_arrangement, sample_arrangements

X = LinearForm(RATIONALS, 1, 0)
Y = LinearForm(RATIONALS, 0, 1)
XY = LinearForm(RATIONALS, 1, 1)


def hilbert_dims(e1, e2, d):
    """Graded dimension of a free module with generators in degrees e1 and e2."""
    return max(0, d - e1 + 1) + max(0, d - e2 + 1)


def test_dim_degree_basics():
    assert dim_degree(Multiarrangement(RATIONALS), 0) == 2
    assert dim_degree(Multiarrangement(RATIONALS, {X: 1}), 0) == 1
    arr = Multiarrangement(RATIONALS, {X: 1, Y: 1, XY: 1})
    assert dim_degree(arr, 1) == 1  # only the Euler derivation
    with pytest.raises(ValueError):
        dim_degree(arr, -1)


def test_dimension_table_three_lines():
    arr = Multiarrangement(RATIONALS, {X: 1, Y: 1, XY: 1})
    assert dimension_table(arr) == [0, 1, 3, 5]


def test_exponents_by_oracle():
    assert exponents_by_oracle(Multiarrangement(RATIONALS)) == (0, 0)
    assert exponents_by_oracle(Multiarrangement(RATIONALS, {X: 2, Y: 2})) == (2, 2)
    assert exponents_by_oracle(Multiarrangement(RATIONALS, {X: 1, Y: 1, XY: 1})) == (2, 1)


def test_oracle_over_prime_field():
    F2 = Field(2)
    arr = Multiarrangement(F2, {h: 1 for h in all_hyperplanes(F2)})
    assert exponents_by_oracle(arr) == (2, 1)
    # doubling every multiplicity gives the Frobenius-power degrees {2, 4}
    arr2 = Multiarrangement(F2, {h: 2 for h in all_hyperplanes(F2)})
    assert exponents_by_oracle(arr2) == (4, 2)


def test_table_matches_hilbert_shape():
    for arr in sample_arrangements(31337, 25, max_total=8):
        e1, e2 = exponents_by_oracle(arr)
        table = dimension_table(arr)
        assert table == [hilbert_dims(e1, e2, d) for d in range(arr.total + 1)]


def test_oracle_agrees_with_chain_construction():
    for arr in sample_arrangements(424242, 40, max_total=9):
        assert exponents_by_oracle(arr) == exponents(arr)


def test_dim_bounded_by_free_rank():
    arr = Multiarrangement(RATIONALS, {X: 3, XY: 2})
    for d in range(arr.total + 1):
        assert 0 <= dim_degree(arr, d) <= 2 * (d + 1)


def linear_scan_exponents(arrangement):
    """The degree-by-degree reading of the exponents off the full dimension table."""
    table = dimension_table(arrangement)
    e1 = next(d for d, dim in enumerate(table) if dim > 0)
    e2 = next(d for d in range(e1, len(table)) if table[d] > d - e1 + 1)
    assert e1 + e2 == arrangement.total
    return (e2, e1)


ORACLE_FIELDS = [RATIONALS, Field(7), Field(101)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_bisected_oracle_matches_linear_scan(field):
    rng = random.Random(field.characteristic + 2)
    for _ in range(12):
        arr = random_arrangement(rng, field=field, max_forms=6, max_total=24)
        assert exponents_by_oracle(arr) == linear_scan_exponents(arr)


@pytest.mark.parametrize("e1, e2, total", [(3, 5, 9), (3, 5, 7), (4, 4, 9), (6, 6, 10), (2, 9, 13)])
def test_oracle_rejects_tables_that_contradict_freeness(monkeypatch, e1, e2, total):
    # a free-shaped table whose exponents do not add up to |mu|
    arr = Multiarrangement(RATIONALS, {X: total})
    monkeypatch.setattr(oracle, "dim_degree", lambda _arr, d: hilbert_dims(e1, e2, d))
    with pytest.raises(RuntimeError):
        exponents_by_oracle(arr)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_oracle_ranks_logarithmically_many_degrees(monkeypatch, field):
    rng = random.Random(7 * field.characteristic + 1)
    real = oracle.dim_degree
    calls = []

    def counting(arr, d):
        calls.append(d)
        return real(arr, d)

    monkeypatch.setattr(oracle, "dim_degree", counting)
    for _ in range(10):
        arr = random_arrangement(rng, field=field, max_forms=6, max_total=24)
        calls.clear()
        exponents_by_oracle(arr)
        assert len(calls) <= math.ceil(math.log2(arr.total // 2 + 2)) + 2


@pytest.mark.parametrize(
    "field, lines",
    [
        (Field(101), [((0, 1), 15), ((1, 0), 14), ((1, 1), 13), ((1, 7), 10), ((1, 50), 8)]),
        (Field(101), [((0, 1), 32), ((1, 0), 10), ((1, 2), 9), ((1, 3), 8)]),
        (Field(101), [((0, 1), 12), ((1, 0), 12), ((1, 1), 12), ((1, 100), 12), ((1, 5), 12)]),
        (RATIONALS, [((0, 1), 10), ((1, 0), 9), ((1, 1), 8), ((1, -1), 7), ((2, 1), 6)]),
        (RATIONALS, [((0, 1), 21), ((1, 0), 8), ((3, -2), 6), ((1, 2), 5)]),
    ],
)
def test_chain_agrees_with_oracle_at_larger_sizes(field, lines):
    arr = Multiarrangement(field, {LinearForm(field, a, b): m for (a, b), m in lines})
    assert exponents_by_oracle(arr) == exponents(arr)


@pytest.mark.parametrize("field, max_total", [(Field(101), 60), (RATIONALS, 40)], ids=str)
def test_chain_agrees_with_oracle_on_seeded_larger_arrangements(field, max_total):
    rng = random.Random(max_total)
    for _ in range(8):
        arr = random_arrangement(rng, field=field, max_forms=7, max_total=max_total, min_forms=3)
        assert exponents_by_oracle(arr) == exponents(arr)


@pytest.mark.parametrize("p, count, total", [(2**31 - 1, 5, 200), (13, 3, 60), (0, 10, 60)], ids=str)
def test_exponents_agree_with_the_oracle_on_both_taylor_routes(monkeypatch, p, count, total):
    # exponents() ramps its last line on Taylor windows of the chain's members: over
    # F_(2^31-1), below degree p, from one packed product (the last line is x + b*y with
    # b above p/2, passed as b - p); over F_13, at degrees past 13, and over Q, each with
    # a non-monic line, from suffix sums.  Every basis build_basis gives is Saito-verified
    field = Field(p) if p else RATIONALS
    rng = random.Random(total + p)
    factorials, products = poly._factorials, []
    monkeypatch.setattr(poly, "_factorials", lambda d, p: products.append(d) or factorials(d, p))
    monic = [form for form in form_pool(field) if form.ax < 2] if p < total else []
    non_monic = [form for form in form_pool(RATIONALS) if form.ax > 1]
    for _ in range(count):
        if p > total:
            forms = {LinearForm(field, 0, 1), LinearForm(field, 1, 0)}
            forms |= {LinearForm(field, 1, rng.randrange(1, p)) for _ in range(rng.randint(1, 4))}
        else:
            forms = set(rng.sample(monic, rng.randint(3, 5)) + ([] if p else rng.sample(non_monic, 1)))
        forms = sorted(forms, key=LinearForm.sort_key)
        mult = dict.fromkeys(forms, 1)
        mult[forms[-1]] = 2  # the last line ramps at least two steps on windows
        for _ in range(total - len(forms) - 1):
            mult[rng.choice(forms)] += 1
        arrangement = Multiarrangement(field, mult)
        products.clear()
        assert exponents(arrangement) == exponents_by_oracle(arrangement), arrangement
        assert bool(products) == (p > total), arrangement
        assert verify_basis(build_basis(arrangement), arrangement)


def _slope_rows(arrangement, d):
    """The rows in the slope c = ay/ax: the u^k coefficient of h/ax, in Fractions."""
    p = arrangement.field.characteristic
    rows = []
    for form, mult in arrangement.items():
        ax, ay = form.ax, form.ay
        c = Fraction(ay, ax) if ax else None
        for k in range(min(mult, d + 1)):
            row = [0] * (2 * (d + 1))
            if not ax:
                row[(d + 1) + (d - k)] = 1
            for j in range(k, d + 1) if ax else ():
                w = math.comb(j, k) * (-c) ** (j - k)
                row[j], row[(d + 1) + j] = (w % p, w * c % p) if p else (w, w * c)
            rows.append(row)
    return rows


@pytest.mark.parametrize(
    "field, extra",
    [(RATIONALS, [(2, 1), (3, -2), (1, 2), (5, 7), (2, 3)]), (Field(7), []), (Field(101), [])],
)
def test_constraint_rows_are_integral_scalings_of_the_slope_rows(field, extra):
    # row k of a form ax*x + ay*y is the slope row times ax^(d+1-k); over F_p, ax = 1
    rng = random.Random(1729)
    for trial in range(40):
        arr = random_arrangement(rng, field, max_forms=5, max_total=14)
        if extra:
            form = LinearForm(field, *extra[trial % len(extra)])
            if form not in arr:
                arr = Multiarrangement(field, {**dict(arr.items()), form: rng.randint(1, 5)})
        for d in range(arr.total + 1):
            fixed, rows = oracle._constraint_rows(arr, d)
            assert all(type(v) is int for row in rows for v in row)
            # x and y fix the columns of their unit rows; the other rows list only the free columns
            slope, expected, units = iter(_slope_rows(arr, d)), [], []
            for form, mult in arr.items():
                for k in range(min(mult, d + 1)):
                    row = next(slope)
                    if form.ax and form.ay:
                        expected.append([v * form.ax ** (d + 1 - k) for v in row])
                    else:
                        units.append(row)
            assert all(row.count(0) == len(row) - 1 and 1 in row for row in units)
            columns = {row.index(1) for row in units}
            assert fixed == len(units) == len(columns)
            free = [j for j in range(2 * (d + 1)) if j not in columns]
            assert rows == [[row[j] for j in free] for row in expected]


def _plain_dim(arrangement, d):
    """dim D_d by eliminating every slope row, unit rows included, each scaled to integers."""
    rows = []
    for row in _slope_rows(arrangement, d):
        den = math.lcm(*(Fraction(v).denominator for v in row))
        rows.append([int(v * den) for v in row])
    p = arrangement.field.characteristic
    rank = (oracle._rank_mod_p(rows, p) if p else oracle._rank_rational(rows)) if rows else 0
    return 2 * (d + 1) - rank


@pytest.mark.parametrize("field", [RATIONALS, Field(2), Field(101), Field(2**31 - 1)], ids=str)
def test_dim_degree_matches_plain_elimination(field):
    # with and without x and y (whose rows are unit rows), multiplicities up to
    # 9 > d + 1 at low degrees, every degree 0..|mu|
    p = field.characteristic
    rng = random.Random(p + 11)
    x, y = LinearForm(field, 1, 0), LinearForm(field, 0, 1)
    if p > 1000:  # too many hyperplanes to list: x + c*y for seeded c
        pool = [LinearForm(field, 1, rng.randrange(1, p)) for _ in range(8)]
    else:
        pool = [f for f in form_pool(field) if f not in (x, y)]
    for trial in range(40):
        forms = [x] * (trial % 2) + [y] * (trial // 2 % 2) + rng.sample(pool, rng.randint(0, min(3, len(pool))))
        arr = Multiarrangement(field, {form: rng.randint(1, 9) for form in forms})
        for d in range(arr.total + 1):
            assert dim_degree(arr, d) == _plain_dim(arr, d), (arr, d)


def list_rank_mod_p(rows, p):
    """Rank over F_p by row reduction on lists, every entry reduced as it changes."""
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for row in mat[rank + 1 :]:
            factor = row[col] * inv % p
            row[:] = [(v - factor * w) % p for v, w in zip(row, mat[rank])]
        rank += 1
    return rank


def seeded_matrices(rng, p):
    """Matrices of residues: square, rank deficient, more rows than columns, and largest slot growth."""
    out = []
    for _ in range(12):
        n, m = rng.randint(1, 10), rng.randint(1, 12)
        out.append([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        basis = [[rng.randrange(p) for _ in range(m)] for _ in range(rng.randint(0, min(n, m) - 1))]
        combos = [[rng.randrange(p) for _ in basis] for _ in range(n)]
        out.append([[sum(c * row[j] for c, row in zip(cs, basis)) % p for j in range(m)] for cs in combos])
        out.append([[rng.randrange(p) for _ in range(m)] for _ in range(m + rng.randint(1, 8))])
    for n in (1, 5, 60):
        # rows of p - 1 from the diagonal on pivot in order, and every pivot
        # eliminates the last row (p - 1 on even columns): the most products per slot
        out.append([[0] * i + [p - 1] * (n - i) for i in range(n)] + [[(p - 1) * (1 - j % 2) for j in range(n)]])
    return out


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1, 2**64 + 13], ids=str)
def test_packed_rank_matches_list_elimination(p):
    rng = random.Random(p % 1009)
    deficient = 0
    for rows in seeded_matrices(rng, p):
        rank = list_rank_mod_p(rows, p)
        assert oracle._rank_mod_p(rows, p) == rank, rows
        deficient += rank < min(len(rows), len(rows[0]))
    assert deficient >= 12
