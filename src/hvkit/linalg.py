"""Exact linear algebra over the Gaussian-rational scalars.

One sparse eliminator: rows are ``{column: Scalar}`` dicts, zero entries are
never stored, and each incoming row is reduced against the pivot rows found
so far before it becomes a pivot row itself (with back-elimination), so the
result is the reduced row echelon form.  Rank and kernel decisions are never
numerical.  ``row_reduce``, ``rank`` and ``nullspace`` are dense-list
adapters over it.
"""

from __future__ import annotations

from typing import Iterable

from .scalars import ONE, ZERO, Scalar

SparseRow = dict  # column -> nonzero Scalar


def _axpy(row: SparseRow, f: Scalar, pivot_row: SparseRow) -> None:
    """row -= f * pivot_row, in place, dropping entries that cancel."""
    for c, v in pivot_row.items():
        x = row.get(c)
        if x is None:
            row[c] = -(f * v)
        else:
            x = x - f * v
            if x.is_zero:
                del row[c]
            else:
                row[c] = x


def sparse_rref(rows: Iterable[SparseRow]) -> list[tuple[int, SparseRow]]:
    """Reduced row echelon form of sparse rows.

    Returns the nonzero rows as (pivot column, row) pairs sorted by pivot
    column; each pivot entry is 1 and every other pivot column is zero in
    the row.  The input rows are not modified.
    """
    pivots: dict[int, SparseRow] = {}
    for src in rows:
        row = {c: v for c, v in src.items() if not v.is_zero}
        for pc in [c for c in row if c in pivots]:
            _axpy(row, row[pc], pivots[pc])
        if not row:
            continue
        p = min(row)
        inv = ONE / row[p]
        if inv != ONE:
            row = {c: v * inv for c, v in row.items()}
        # back-eliminate; pivot rows stay free of every other pivot column
        for prow in pivots.values():
            f = prow.get(p)
            if f is not None:
                _axpy(prow, f, row)
        pivots[p] = row
    return sorted(pivots.items())


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
