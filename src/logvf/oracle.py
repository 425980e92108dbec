"""Graded dimensions of D(A, mu) by direct exact linear algebra.

This is deliberately independent of the incremental basis construction: for
each degree d the membership conditions are expressed as linear constraints on
the 2(d+1) unknown coefficients of a derivation, and the dimension of the
solution space is computed by exact elimination (fraction-free over Q,
modular over F_p).  Divisibility of a homogeneous polynomial h by
``(x + c*y)^k`` is read off from its expansion in the variables
``u = x + c*y, v = y``: the coefficients of u^0, ..., u^(k-1) must vanish, and
they are integer-binomial combinations of the coefficients of h.

For a primitive integer form ``ax*x + ay*y`` over Q (c = ay/ax) the u^k
condition is multiplied by ax^(d+1-k) (by one over F_p), which makes every row
integral; for a prime dividing no ax, the rows reduced mod p span the same
space as the rows of the reduced forms.
"""

from __future__ import annotations

import math
from operator import mul

from .arrangement import Multiarrangement
from .poly import pack_residues, reduce_packed, residue_width


def _constraint_rows(arrangement: Multiarrangement, d: int):
    """The linear system cutting out D(A, mu)_d inside K^(2(d+1)), as ``(fixed, rows)``.

    Unknowns are f_0..f_d, g_0..g_d where f_j is the coefficient of x^j
    y^(d-j) in f (and likewise for g).  x^n and y^n, n = min(mu, d + 1), fix
    f_0..f_(n-1) and g_(d+1-n)..g_d at zero: ``fixed`` counts them, and each
    row lists only the other unknowns, the free f_j, then the free g_j.
    """
    p = arrangement.field.characteristic
    items = arrangement.items()
    nx = next((min(mult, d + 1) for form, mult in items if not form.ay), 0)
    ny = next((min(mult, d + 1) for form, mult in items if not form.ax), 0)
    rows = []
    for form, mult in items:
        ax, ay = form.ax, form.ay
        if not ax or not ay:
            continue
        # ax^(d+1-k) times the u^k coefficient of h = ax*f + ay*g (ax = 1 over F_p) is
        # sum_j C(j, k) * (-ay)^(j-k) * (ax^(d+1-j) * f_j + ay*ax^(d-j) * g_j)
        minus = [pow(-ay, i, p or None) for i in range(d + 1)]  # mod p keeps the entries small
        fs = [ax ** (d + 1 - j) for j in range(nx, d + 1)]
        gs = [ay * ax ** (d - j) for j in range(d + 1 - ny)]
        for k in range(min(mult, d + 1)):
            w = [0] * k + [math.comb(j, k) * minus[j - k] for j in range(k, d + 1)]
            row = [*map(mul, w[nx:], fs), *map(mul, w, gs)]
            rows.append([c % p for c in row] if p else row)
    return nx + ny, rows


def _rank_rational(rows) -> int:
    """Rank over Q of integer rows by Bareiss fraction-free elimination."""
    mat = [list(row) for row in rows]
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        piv_row = mat[rank]
        piv = piv_row[col]
        for i in range(rank + 1, len(mat)):
            row = mat[i]
            factor = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * piv - factor * piv_row[j]) // prev
            row[col] = 0
        prev = piv
        rank += 1
        if rank == len(mat):
            break
    return rank


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of rows of residues, each packed once (:func:`poly.pack_residues`).

    Slot 0 is the current column; each column is shifted out once eliminated.
    Each other row r gains c*pivot, c = -r_0/pivot_0 mod p in [0, p), which
    grows its slots by at most (p - 1)^2 per pivot, at most once per column,
    so only the pivot rows are reduced.
    """
    w = residue_width(p)
    low = (1 << 8 * w) - 1
    mat = [pack_residues(row, p) for row in rows]
    rank = 0
    for _ in range(len(rows[0])):
        i = next((i for i, r in enumerate(mat) if (r & low) % p), None)
        if i is None:
            mat = [r >> 8 * w for r in mat]
            continue
        pivot = reduce_packed(mat.pop(i), p)
        c = p - pow(pivot & low, -1, p)
        mat = [(r + (r & low) * c % p * pivot) >> 8 * w for r in mat]
        rank += 1
        if not mat:
            break
    return rank


def dim_degree(arrangement: Multiarrangement, d: int) -> int:
    """dim of the degree-d graded piece of D(A, mu)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    fixed, rows = _constraint_rows(arrangement, d)
    p = arrangement.field.characteristic
    rank = (_rank_mod_p(rows, p) if p else _rank_rational(rows)) if rows else 0
    return 2 * (d + 1) - fixed - rank


def dimension_table(arrangement: Multiarrangement) -> list[int]:
    """Graded dimensions for d = 0, ..., |mu|."""
    return [dim_degree(arrangement, d) for d in range(arrangement.total + 1)]


def exponents_by_oracle(arrangement: Multiarrangement) -> tuple[int, int]:
    """Exponents read off the graded dimensions alone, largest first.

    The smaller exponent e1 is the first degree with a nonzero piece; the
    larger e2 is the first degree whose dimension exceeds the d - e1 + 1 that
    multiples of the first generator alone can provide.  Both predicates are
    monotone in d, so O(log |mu|) ranks suffice:

    - ``dim D_d`` is nondecreasing, because multiplying by x is injective
      from D_d into D_(d+1);
    - ``dim D_(d+1) >= dim D_d + 1`` once V = D_d is nonzero: xV + yV lies
      in D_(d+1), and xV meets yV in less than all of xV, because x*theta is
      not in yV when theta in V has the least power of y dividing it.
      So ``dim D_d - (d - e1 + 1)`` is nondecreasing for d >= e1.

    e1 is bisected over [0, |mu| // 2], where freeness puts it, and
    e2 = |mu| - e1 is confirmed by the second predicate holding at e2 and,
    when e2 > e1, failing at e2 - 1.  Any other outcome would contradict
    freeness and raises RuntimeError, as a degree-by-degree scan would.
    """
    total = arrangement.total
    lo, hi = 0, total // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if dim_degree(arrangement, mid) > 0:
            hi = mid
        else:
            lo = mid + 1
    if lo > total // 2:
        raise RuntimeError(
            f"no nonzero graded piece up to |mu|/2 = {total // 2}; freeness violated"
        )
    e1, e2 = lo, total - lo

    def second(d):
        return dim_degree(arrangement, d) > d - e1 + 1

    if not second(e2) or (e2 > e1 and second(e2 - 1)):
        raise RuntimeError(
            f"second exponent is not |mu| - {e1} = {e2}; freeness violated"
        )
    return (e2, e1)
