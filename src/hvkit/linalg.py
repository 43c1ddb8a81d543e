"""Exact linear algebra over the Gaussian-rational scalars.

One sparse eliminator, ``sparse_rref``: rows are ``{column: Scalar}`` dicts,
zero entries are never stored, and each incoming row is reduced against the
pivot rows found so far before it becomes a pivot row itself (with
back-elimination), so the result is the reduced row echelon form.  Rank and
kernel decisions are never numerical.

Inside the eliminator a row is a pair ``(nums, den)``: integer numerators
over one positive row denominator, the entry in column c being
``nums[c]/den``.  The numerators are plain ints when every input entry is
real and ``(re, im)`` int pairs (Gaussian integers) as soon as one entry is
not; one scan of the input decides.  A row is converted from its Scalars once
on entry, by the least common multiple of their denominators, and back to
canonical Scalars once on exit, so no Scalar operation runs inside a row
reduction.  Every row operation ends with one ``gcd`` that keeps the row
primitive (numerators and denominator coprime), and a pivot row is scaled so
that its pivot reads 1, i.e. its pivot numerator equals its denominator.

Before any of that, a certificate: the integer rows are mapped to F_P, with
P = 1,073,741,789 (the largest prime below 2**30 that is 1 mod 4) and i
mapped to S, a square root of -1 mod P, and eliminated there until their
rank reaches the number of distinct columns they use or can no longer reach
it.  Reduction mod P is a ring map from the Gaussian rationals whose
denominators are prime to P, so a rank can only drop under it: full rank
mod P means full rank over Q(i), and the reduced row echelon form of such
rows is the identity on their columns, which is returned as it is.  This is
exact, not probabilistic.  A row whose denominator P divides, or a rank that
falls short mod P, sends the rows to the exact elimination, and since a
reduced row echelon form is unique, the output is the same either way.

``row_reduce``, ``rank`` and ``nullspace`` are dense-list adapters over it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable

from .scalars import ONE, ZERO, Scalar

SparseRow = dict  # column -> nonzero Scalar


# -- real rows: nums[c] is an int ------------------------------------------------


def _primitive_real(row: dict, den: int):
    if den != 1:
        g = gcd(den, *row.values())
        if g != 1:
            return {c: v // g for c, v in row.items()}, den // g
    return row, den


def _reduce_real(row: dict, den: int, pivots: list):
    """row/den minus (row[p]/den) * prow/pden for each (p, prow, pden), primitive.

    Each prow reads 1 at its own p and 0 at the others, so every factor is
    read from the incoming row and all of them are subtracted at once, over
    one common denominator.
    """
    terms = []
    scale = 1
    for p, prow, pden in pivots:
        g = gcd(row[p], pden)
        terms.append((row[p] // g, pden // g, prow))
        scale = lcm(scale, pden // g)
    out = {c: v * scale for c, v in row.items()}
    for f, s, prow in terms:
        f *= scale // s
        for c, v in prow.items():
            x = out.get(c, 0) - f * v
            if x:
                out[c] = x
            else:
                del out[c]
    return _primitive_real(out, den * scale)


def _normalise_real(row: dict, p: int):
    """The row scaled so that column p reads 1: the row over row[p]."""
    if row[p] < 0:
        row = {c: -v for c, v in row.items()}
    return _primitive_real(row, row[p])


# -- Gaussian rows: nums[c] is a pair (re, im) ------------------------------------


def _primitive_gauss(row: dict, den: int):
    if den != 1:
        g = gcd(den, *[x for ab in row.values() for x in ab])
        if g != 1:
            return {c: (a // g, b // g) for c, (a, b) in row.items()}, den // g
    return row, den


def _reduce_gauss(row: dict, den: int, pivots: list):
    """As ``_reduce_real``, on Gaussian-integer numerators."""
    terms = []
    scale = 1
    for p, prow, pden in pivots:
        fr, fi = row[p]
        g = gcd(fr, fi, pden)
        terms.append((fr // g, fi // g, pden // g, prow))
        scale = lcm(scale, pden // g)
    out = {c: (a * scale, b * scale) for c, (a, b) in row.items()}
    for fr, fi, s, prow in terms:
        fr *= scale // s
        fi *= scale // s
        for c, (x, y) in prow.items():
            a, b = out.get(c, (0, 0))
            a -= fr * x - fi * y
            b -= fr * y + fi * x
            if a or b:
                out[c] = (a, b)
            else:
                del out[c]
    return _primitive_gauss(out, den * scale)


def _normalise_gauss(row: dict, p: int):
    """The row scaled so that column p reads 1: times conj(row[p]) over |row[p]|^2."""
    pr, pi = row[p]
    row = {c: (a * pr + b * pi, b * pr - a * pi) for c, (a, b) in row.items()}
    return _primitive_gauss(row, pr * pr + pi * pi)


# -- the eliminator ---------------------------------------------------------------


def _integer_rows(rows: Iterable[SparseRow]):
    """Each row as (numerators, denominator), and whether any entry is not real."""
    triples = [t for t in ({c: v.triple for c, v in src.items() if v} for src in rows) if t]
    gaussian = any(b for t in triples for _a, b, _d in t.values())
    out = []
    for t in triples:
        den = lcm(*[d for _a, _b, d in t.values()])
        if gaussian:
            out.append(({c: (a * (den // d), b * (den // d)) for c, (a, b, d) in t.items()}, den))
        else:
            out.append(({c: a * (den // d) for c, (a, _b, d) in t.items()}, den))
    return out, gaussian


def _eliminate(int_rows: list, gaussian: bool) -> dict:
    """The reduced pivot rows ``{pivot column: (nums, den)}`` of integer rows."""
    if gaussian:
        reduce, normalise = _reduce_gauss, _normalise_gauss
    else:
        reduce, normalise = _reduce_real, _normalise_real
    pivots: dict = {}
    for row, den in int_rows:
        hits = [(c, *pivots[c]) for c in row if c in pivots]
        if hits:
            row, den = reduce(row, den, hits)
        if not row:
            continue
        p = min(row)
        row, den = normalise(row, p)
        # back-eliminate; pivot rows stay free of every other pivot column
        for pc, (prow, pden) in pivots.items():
            if p in prow:
                pivots[pc] = reduce(prow, pden, [(p, row, den)])
        pivots[p] = (row, den)
    return pivots


# -- the certificate: full column rank modulo P ------------------------------------

P = 1_073_741_789  # the largest prime below 2**30 that is 1 mod 4
S = 140_687_844  # a square root of -1 mod P, the image of i


def _full_rank_mod_p(int_rows: list, gaussian: bool, ncols: int) -> bool:
    """Whether the integer rows reach rank ``ncols`` modulo P, with i mapped to S.

    Forward elimination only: rows are taken shortest first and reduced
    against the pivot rows found so far, each pivot row scaled so that its
    pivot reads 1 and holding only columns before its pivot, its greatest
    column.  The run stops as soon as the rank reaches ``ncols`` or the rows
    left cannot reach it.  A row whose denominator P divides has no image,
    and the answer is then False.
    """
    pivots: dict = {}  # pivot column -> the rest of its row
    left = len(int_rows)
    for nums, den in sorted(int_rows, key=lambda r: len(r[0])):
        if len(pivots) == ncols:
            break
        if len(pivots) + left < ncols or not den % P:
            return False
        left -= 1
        inv = pow(den, -1, P)
        if gaussian:
            row = {c: x for c, (a, b) in nums.items() if (x := (a + b * S) * inv % P)}
        else:
            row = {c: x for c, a in nums.items() if (x := a * inv % P)}
        # clear pivot columns greatest first (a max-heap of negated columns):
        # a pivot row only brings in columns before its pivot
        todo = [-c for c in row if c in pivots]
        heapify(todo)
        while todo:
            c = -heappop(todo)
            f = row.pop(c, 0)
            if not f:
                continue
            for k, v in pivots[c].items():
                x = (row.get(k, 0) - f * v) % P
                if not x:
                    del row[k]
                else:
                    if k not in row and k in pivots:
                        heappush(todo, -k)
                    row[k] = x
        if row:
            p = max(row)
            inv = pow(row.pop(p), -1, P)
            pivots[p] = {c: v * inv % P for c, v in row.items()}
    return len(pivots) == ncols


def sparse_rref(rows: Iterable[SparseRow]) -> list[tuple[int, SparseRow]]:
    """Reduced row echelon form of sparse rows.

    Returns the nonzero rows as (pivot column, row) pairs sorted by pivot
    column; each pivot entry is 1 and every other pivot column is zero in
    the row.  The input rows are not modified.  Rows of full column rank
    modulo P give the identity on their columns without exact elimination.
    """
    int_rows, gaussian = _integer_rows(rows)
    columns = {c for nums, _den in int_rows for c in nums}
    if _full_rank_mod_p(int_rows, gaussian, len(columns)):
        return [(c, {c: ONE}) for c in sorted(columns)]
    pivots = sorted(_eliminate(int_rows, gaussian).items())
    make = Scalar.from_triple
    if gaussian:
        return [(p, {c: make(a, b, den) for c, (a, b) in row.items()}) for p, (row, den) in pivots]
    return [(p, {c: make(v, 0, den) for c, v in row.items()}) for p, (row, den) in pivots]


def sparse_kernel(reduced: list[tuple[int, SparseRow]], ncols: int) -> list[SparseRow]:
    """Kernel basis of a reduced matrix, one vector per free column in order."""
    pivot_set = {p for p, _row in reduced}
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: ONE}
        for p, row in reduced:
            c = row.get(free)
            if c is not None:
                vec[p] = -c
        basis.append(vec)
    return basis


def _sparse(rows: list[list[Scalar]]) -> list[SparseRow]:
    return [dict(enumerate(r)) for r in rows]


def _dense(row: SparseRow, ncols: int) -> list[Scalar]:
    out = [ZERO] * ncols
    for c, v in row.items():
        out[c] = v
    return out


def row_reduce(rows: list[list[Scalar]], ncols: int):
    """Reduced row echelon form.  Returns (matrix, pivot column list).

    The matrix keeps one row per input row: the pivot rows in pivot order,
    then zero rows.
    """
    reduced = sparse_rref(_sparse(rows))
    mat = [_dense(row, ncols) for _p, row in reduced]
    mat += [[ZERO] * ncols for _ in range(len(rows) - len(reduced))]
    return mat, [p for p, _row in reduced]


def rank(rows: list[list[Scalar]], ncols: int) -> int:
    return len(sparse_rref(_sparse(rows)))


def nullspace(rows: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the kernel of the matrix, one vector per free column."""
    kernel = sparse_kernel(sparse_rref(_sparse(rows)), ncols)
    return [_dense(vec, ncols) for vec in kernel]
