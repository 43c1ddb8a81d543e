"""Differential and contract tests of the integer-row eliminator.

``_reference_sparse_rref`` and ``_reference_axpy`` are the previous
eliminator, kept verbatim: the same Gauss-Jordan order on ``{column: Scalar}``
rows, with every entry updated by ``Scalar`` arithmetic.  A reduced row
echelon form is unique, so ``linalg.sparse_rref`` must return exactly what
the reference returns, on every input, and must leave its input alone.
The contract tests check the integer rows inside the eliminator: each one
primitive over a positive denominator, each pivot reading 1.  The
certificate tests check its constants, that rows of full column rank never
reach the exact elimination, that rank-deficient rows still get their exact
reduced form (a row with a denominator P divides, i times a row, a 3x3 of
rank 2), and that the level builder takes each path where it should.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from hvkit import analysis, linalg
from hvkit.algebra import PolynomialCoefficients, QuotientCoefficients
from hvkit.analysis import singular_vectors
from hvkit.linalg import sparse_rref
from hvkit.modules import HighestWeightFunctional, TruncatedVerma
from hvkit.polys import JetQuotient
from hvkit.scalars import IMAG, ONE, ZERO, Scalar

# -- the previous eliminator, kept as the oracle ------------------------------------


def _reference_axpy(row, f, pivot_row):
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


def _reference_sparse_rref(rows):
    """Reduced row echelon form of sparse rows.

    Returns the nonzero rows as (pivot column, row) pairs sorted by pivot
    column; each pivot entry is 1 and every other pivot column is zero in
    the row.  The input rows are not modified.
    """
    pivots = {}
    for src in rows:
        row = {c: v for c, v in src.items() if not v.is_zero}
        for pc in [c for c in row if c in pivots]:
            _reference_axpy(row, row[pc], pivots[pc])
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
                _reference_axpy(prow, f, row)
        pivots[p] = row
    return sorted(pivots.items())


# -- drawn matrices -----------------------------------------------------------------

HEIGHT = 10**6
_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_TALL = st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT))
_REAL = st.one_of(_SMALL.map(Scalar), _TALL.map(Scalar))
_GAUSSIAN = st.one_of(
    st.tuples(_SMALL, _SMALL.filter(bool)).map(lambda p: Scalar(*p)),
    st.tuples(_TALL, _TALL.filter(bool)).map(lambda p: Scalar(*p)),
)
_MULTIPLIERS = (Scalar(1, 2), Scalar(2, -1), Scalar(-3), Scalar(Fraction(-2, 7), Fraction(1, 5)))


@st.composite
def matrices(draw, gaussian=True):
    """Up to 15 sparse rows over up to 12 columns.

    A row is drawn, empty, all explicit zeros, or a multiple (by 1+2i, 2-i or
    a rational) or sum of earlier rows, so that rank drops and entries cancel.
    """
    ncols = draw(st.integers(1, 12))
    entry = st.one_of(st.just(ZERO), _REAL, _GAUSSIAN) if gaussian else st.one_of(st.just(ZERO), _REAL)
    multipliers = _MULTIPLIERS if gaussian else tuple(m for m in _MULTIPLIERS if m.is_real)
    rows = []
    for _ in range(draw(st.integers(0, 15))):
        kind = draw(st.sampled_from(("drawn", "drawn", "empty", "zeros", "multiple", "sum")))
        if kind == "empty":
            rows.append({})
        elif kind == "zeros":
            rows.append({c: ZERO for c in range(ncols)})
        elif kind == "multiple" and rows:
            f = draw(st.sampled_from(multipliers))
            rows.append({c: f * v for c, v in draw(st.sampled_from(rows)).items()})
        elif kind == "sum" and len(rows) > 1:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append({c: a.get(c, ZERO) + b.get(c, ZERO) for c in sorted(set(a) | set(b))})
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
            rows.append({c: draw(entry) for c in sorted(cols)})
    return rows


def _check_against_reference(rows):
    snapshot = [list(row.items()) for row in rows]
    got = sparse_rref(rows)
    assert [list(row.items()) for row in rows] == snapshot
    want = _reference_sparse_rref(rows)
    assert got == want
    for _p, row in got:
        assert all(type(v) is Scalar and not v.is_zero for v in row.values())


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_sparse_rref_matches_reference(rows):
    _check_against_reference(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(gaussian=False))
def test_sparse_rref_matches_reference_on_real_rows(rows):
    _check_against_reference(rows)


@settings(max_examples=100, deadline=None)
@given(matrices(gaussian=False), st.integers(1, 14), _GAUSSIAN)
def test_one_gaussian_entry_in_a_later_row_switches_the_kernel(rows, at, value):
    rows = rows + [{}] * (at + 1 - len(rows))
    rows[at] = {**rows[at], 0: value}
    _check_against_reference(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [{}],
        [{0: ZERO, 3: ZERO}],
        [{0: Scalar(2), 1: Scalar(4)}, {1: Scalar(0, 1)}],
        [{0: Scalar(1, 2), 1: Scalar(3)}, {0: Scalar(2, -1) * Scalar(1, 2), 1: Scalar(2, -1) * 3}],
        [{2: Scalar(-3), 5: Scalar(Fraction(7, 10**6))}, {2: Scalar(1), 4: Scalar(-1)}],
        [{1: Scalar(-1), 2: Scalar(1)}, {0: Scalar(1), 1: Scalar(1)}, {0: Scalar(1), 2: Scalar(1)}],
    ],
    ids=["none", "empty", "zeros", "gaussian-later", "gaussian-multiple", "negative-pivot",
         "cancelling"],
)
def test_sparse_rref_examples(rows):
    _check_against_reference(rows)


# -- the integer rows -----------------------------------------------------------------


def _value(num, den):
    return Scalar.from_triple(*(num if isinstance(num, tuple) else (num, 0)), den)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_integer_rows_are_primitive_over_a_positive_denominator(rows):
    int_rows, gaussian = linalg._integer_rows(rows)
    assert gaussian == any(not v.is_real for row in rows for v in row.values())
    pivots = linalg._eliminate(int_rows, gaussian)
    want = _reference_sparse_rref(rows)
    assert sorted(pivots) == [p for p, _row in want]
    for (p, (nums, den)), (_p, ref) in zip(sorted(pivots.items()), want):
        assert den > 0
        parts = [x for v in nums.values() for x in (v if gaussian else (v,))]
        assert gcd(den, *parts) == 1
        assert nums[p] == ((den, 0) if gaussian else den)
        assert {c: _value(v, den) for c, v in nums.items()} == ref


# -- singular slices, against the previous eliminator --------------------------------

SLOTS = ("d0", "I0", "C", "C_D", "C_I")


def _functional(kind, coeffs):
    """Values numbered n = 1, 2, ... over (key, slot): generic n/2; Gaussian
    d0 = n/2 + i/(n+1) and n/3 elsewhere; degenerate as generic, I0, C_D, C_I zero."""
    values = {}
    n = 1
    for key in coeffs.basis_keys():
        for slot in SLOTS:
            if kind == "gaussian":
                v = Scalar(Fraction(n, 2), Fraction(1, n + 1)) if slot == "d0" else Scalar(Fraction(n, 3))
            elif kind == "degenerate" and slot in ("I0", "C_D", "C_I"):
                v = ZERO
            else:
                v = Scalar(Fraction(n, 2))
            values[(slot, key)] = v
            n += 1
    return HighestWeightFunctional(values)


@pytest.mark.parametrize("kind", ["generic", "gaussian", "degenerate"])
def test_singular_slices_match_the_reference_eliminator(kind, monkeypatch):
    """The same slice, and the same reduced rows R_1 .. R_4 on the way."""
    coeffs = QuotientCoefficients((JetQuotient((ZERO,), 2),))
    level = 4

    def run(eliminator):
        reduced = []

        def recording(rows):
            reduced.append(eliminator(rows))
            return reduced[-1]

        monkeypatch.setattr(analysis, "sparse_rref", recording)
        module = TruncatedVerma(_functional(kind, coeffs), coeffs, max_level=level)
        rendered = [v.render(coeffs) for v in singular_vectors(module, level)]
        return rendered, reduced

    got, got_reduced = run(sparse_rref)
    want, want_reduced = run(_reference_sparse_rref)
    assert got == want
    assert got_reduced == want_reduced
    assert len(got_reduced) == level


# -- the certificate: full column rank modulo P ---------------------------------------


def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


def test_the_certificate_constants():
    P, S = linalg.P, linalg.S
    assert _is_prime(P) and P % 4 == 1 and P < 2**30
    assert not any(_is_prime(n) and n % 4 == 1 for n in range(P + 1, 2**30))
    assert S * S % P == P - 1


def _refuse(*_args):
    raise AssertionError("exact elimination of rows of full column rank")


_SMALL_GAUSSIAN = st.tuples(_SMALL, _SMALL.filter(bool)).map(lambda p: Scalar(*p))


@st.composite
def full_rank_matrices(draw, gaussian=True):
    """Rows of full rank on the up to 10 columns they use, over Q(i) and mod P.

    A triangle over the drawn columns in drawn order, each diagonal entry
    small and nonzero (so nonzero mod P as well, its norm being below P),
    plus up to 6 further rows on the same columns, all shuffled.
    """
    cols = draw(st.lists(st.integers(0, 40), min_size=1, max_size=10, unique=True))
    entry = st.one_of(_REAL, _GAUSSIAN) if gaussian else _REAL
    diagonal = _SMALL_GAUSSIAN if gaussian else _SMALL.filter(bool).map(Scalar)
    rows = []
    for k, c in enumerate(cols):
        later = draw(st.sets(st.sampled_from(cols[k + 1:]))) if k + 1 < len(cols) else set()
        rows.append({c: draw(diagonal), **{x: draw(entry) for x in sorted(later)}})
    rows += draw(st.lists(st.dictionaries(st.sampled_from(cols), entry, max_size=len(cols)), max_size=6))
    return draw(st.permutations(rows))


def _check_certified(rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eliminate", _refuse)
        _check_against_reference(rows)


@settings(max_examples=150, deadline=None)
@given(full_rank_matrices())
def test_full_column_rank_rows_are_certified(rows):
    _check_certified(rows)


@settings(max_examples=150, deadline=None)
@given(full_rank_matrices(gaussian=False))
def test_full_column_rank_real_rows_are_certified(rows):
    _check_certified(rows)


def _counting_eliminations(monkeypatch) -> list:
    calls = []
    eliminate = linalg._eliminate

    def counting(int_rows, gaussian):
        calls.append(len(int_rows))
        return eliminate(int_rows, gaussian)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    return calls



@pytest.mark.parametrize(
    "rows, want",
    [
        (
            [{0: Scalar(Fraction(1, linalg.P)), 1: ONE}, {0: ONE, 1: Scalar(linalg.P)}],
            [(0, {0: ONE, 1: Scalar(linalg.P)})],
        ),
        ([{0: ONE, 1: IMAG}, {0: IMAG, 1: -ONE}], [(0, {0: ONE, 1: IMAG})]),
        (
            [{c: Scalar(3 * r + c + 1) for c in range(3)} for r in range(3)],
            [(0, {0: ONE, 2: -ONE}), (1, {1: ONE, 2: Scalar(2)})],
        ),
    ],
    ids=["denominator-P", "i-times-a-row", "rank-2-of-3"],
)
def test_rank_deficient_rows_take_the_exact_path(rows, want, monkeypatch):
    calls = _counting_eliminations(monkeypatch)
    assert sparse_rref(rows) == want
    assert len(calls) == 1
    _check_against_reference(rows)


# -- both paths in the level builder ---------------------------------------------------


@pytest.mark.parametrize("kind, slice_dim", [("generic", 0), ("gaussian", 0), ("degenerate", 216)])
def test_the_script_functionals_are_certified_at_every_level_up_to_5(kind, slice_dim, monkeypatch):
    """tools/singular_levels.py's functionals over C[b]/(b^2): every level's
    rows have full rank on the columns they use."""
    monkeypatch.setattr(linalg, "_eliminate", _refuse)
    coeffs = QuotientCoefficients((JetQuotient((ZERO,), 2),))
    module = TruncatedVerma(_functional(kind, coeffs), coeffs, max_level=5)
    assert len(singular_vectors(module, 5)) == slice_dim


def test_the_kac_functional_takes_the_exact_path_at_level_2(monkeypatch):
    """c = 1/2 and h = -phi(d0) = 1/16 on trivial B, every Heisenberg value 0:
    the Virasoro singular vector L(-2) - 4/3 L(-1)^2 at level 2, d = -L."""
    calls = _counting_eliminations(monkeypatch)
    coeffs = PolynomialCoefficients(0)
    phi = HighestWeightFunctional({("d0", ()): Scalar(Fraction(-1, 16)), ("C", ()): Scalar(Fraction(1, 2))})
    module = TruncatedVerma(phi, coeffs, max_level=2)
    exact = [len(calls) for _reduced in analysis._reduced_levels(module, 2, "generators")]
    assert exact == [0, 0, 1]
    rendered = [v.render(coeffs) for v in singular_vectors(module, 2)]
    assert "d(-2)·hw + 4/3*d(-1)·d(-1)·hw" in rendered
