"""Differential tests of the level-by-level singular slices against the word kernel.

``_reference_singular_vectors`` is the word-kernel computation: the kernel of
the highest-weight coefficient of every ordered raising word of total degree
n, by dense exact elimination.  ``singular_vectors`` builds the maximal
submodule one level at a time on the sparse eliminator.  Both describe the
same subspace by its canonical free-column basis, so the rendered bases must
be equal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hvkit.algebra import AlgebraElement, Generator, PolynomialCoefficients, QuotientCoefficients
from hvkit.analysis import _raising_factors, in_maximal_submodule, singular_vectors
from hvkit.linalg import nullspace, rank, row_reduce
from hvkit.modules import (
    PBW_D_FIRST,
    PBW_I_FIRST,
    HighestWeightFunctional,
    PBWVector,
    TruncatedVerma,
)
from hvkit.polys import JetQuotient
from hvkit.scalars import ONE, ZERO, Scalar

# -- the word kernel, kept as the oracle ----------------------------------------


def _reference_row_reduce(rows, ncols):
    """Dense reduced row echelon form.  Returns (matrix, pivot column list)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _reference_nullspace(rows, ncols):
    """Dense kernel basis, one vector per free column."""
    mat, pivots = _reference_row_reduce(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = -mat[row_idx][free]
        basis.append(vec)
    return basis


def _reference_raising_words(factors, degree):
    """All ordered words over the factors with index degrees summing to `degree`."""
    out = []

    def rec(remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for fac in factors:
            if fac[1] <= remaining:
                acc.append(fac)
                rec(remaining - fac[1], acc)
                acc.pop()

    rec(degree, [])
    return out


def _reference_singular_vectors(module, level, raising="generators"):
    """Kernel of the hw coefficient of every ordered raising word of degree `level`."""
    monos = module.level_monomials(level)
    factors = _raising_factors(module, level, raising)
    words = _reference_raising_words(factors, level)
    single_ops = {
        fac: AlgebraElement(module.coeffs, {(Generator(fac[0], fac[1]), fac[2]): ONE})
        for fac in factors
    }
    rows = []
    for word in words:
        row = []
        for mono in monos:
            vec = PBWVector({mono: ONE})
            for fac in reversed(word):
                vec = module.act(single_ops[fac], vec)
                if vec.is_zero:
                    break
            row.append(vec.coeff(()))
        rows.append(row)
    if not rows:
        rows = [[ZERO] * len(monos)]
    kernel = _reference_nullspace(rows, len(monos))
    return [
        PBWVector({mono: c for mono, c in zip(monos, vec)})
        for vec in kernel
    ]


# -- modules --------------------------------------------------------------------

SLOTS = ("d0", "I0", "C", "C_D", "C_I")


def _coeffs(algebra):
    if algebra == "trivial":
        return PolynomialCoefficients(0)
    order = {"b2": 2, "m3": 3}[algebra]
    return QuotientCoefficients((JetQuotient((ZERO,), order),))


def _keys(coeffs):
    return [()] if isinstance(coeffs, PolynomialCoefficients) else coeffs.basis_keys()


def _verma(algebra, values, max_level, order=PBW_D_FIRST):
    """values: {(slot, key index): scalar}; key indices past the basis are dropped."""
    coeffs = _coeffs(algebra)
    keys = _keys(coeffs)
    phi = {(slot, keys[i]): c for (slot, i), c in values.items() if i < len(keys)}
    return TruncatedVerma(HighestWeightFunctional(phi), coeffs, max_level=max(max_level, 1),
                          order=order)


def _values(table):
    return {(slot, i): Scalar(v) for i, row in enumerate(table) for slot, v in zip(SLOTS, row)}


Q = Fraction
FUNCTIONALS = {
    # rows: coefficient key 0, 1, 2; columns: d0, I0, C, C_D, C_I
    "generic": _values([(Q(3, 2), Q(-2), Q(5), Q(1, 3), Q(-4)),
                        (Q(-1), Q(2, 5), Q(7), Q(3), Q(1, 2)),
                        (Q(2), Q(-3, 4), Q(-1), Q(5, 2), Q(6))]),
    "degenerate": _values([(Q(3, 2), 0, Q(5), 0, 0),
                           (Q(-1), 0, Q(7), 0, 0),
                           (Q(2), 0, Q(-1), 0, 0)]),
    # C_I = 0 and I_0 = -2 C_D: the first singular vector appears at level 3
    "resonant": _values([(Q(3, 2), Q(-2), Q(5), Q(1), 0),
                         (Q(1), Q(1, 2), Q(-2), 0, 0),
                         (Q(-1, 3), Q(2), Q(3), 0, 0)]),
    "zero": {},
}
FUNCTIONALS["gaussian"] = dict(FUNCTIONALS["generic"])
FUNCTIONALS["gaussian"][("d0", 0)] = Scalar(Q(3, 2), 2)
FUNCTIONALS["gaussian"][("C_D", 0)] = Scalar(Q(1, 3), Q(-1, 2))
FUNCTIONALS["gaussian"][("I0", 1)] = Scalar(0, 1)

GRID = [("trivial", n) for n in range(6)] + [("b2", n) for n in range(4)]
GRID += [("m3", n) for n in range(3)]
# the word kernel takes over about 0.5 s on these, so they are left out
SLOW = {("trivial", 5, "full", kind) for kind in ("generic", "gaussian", "resonant")}
CASES = [
    (algebra, level, raising, kind)
    for algebra, level in GRID
    for raising in ("generators", "full")
    for kind in sorted(FUNCTIONALS)
    if (algebra, level, raising, kind) not in SLOW
]


def _rendered(vectors, coeffs):
    return sorted(v.render(coeffs) for v in vectors)


def _assert_same(module, level, raising):
    got = singular_vectors(module, level, raising)
    want = _reference_singular_vectors(module, level, raising)
    assert _rendered(got, module.coeffs) == _rendered(want, module.coeffs)


@pytest.mark.parametrize("order", [PBW_D_FIRST, PBW_I_FIRST], ids=lambda o: o.name)
@pytest.mark.parametrize("algebra,level,raising,kind", CASES)
def test_level_recursion_matches_word_kernel(algebra, level, raising, kind, order):
    module = _verma(algebra, FUNCTIONALS[kind], level, order)
    _assert_same(module, level, raising)


_VALUE = st.one_of(
    st.just(Scalar(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).map(Scalar),
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda ab: Scalar(*ab)),
)


@given(
    values=st.dictionaries(st.tuples(st.sampled_from(SLOTS), st.integers(0, 2)), _VALUE),
    algebra_level=st.sampled_from([("trivial", 3), ("trivial", 4), ("b2", 2), ("m3", 1)]),
    order=st.sampled_from([PBW_D_FIRST, PBW_I_FIRST]),
    raising=st.sampled_from(["generators", "full"]),
)
def test_level_recursion_matches_word_kernel_drawn(values, algebra_level, order, raising):
    algebra, level = algebra_level
    module = _verma(algebra, values, level, order)
    for n in range(level + 1):
        _assert_same(module, n, raising)


@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.tuples(
            st.just(ncols),
            st.lists(st.lists(_VALUE, min_size=ncols, max_size=ncols), min_size=1, max_size=7),
        )
    )
)
def test_dense_adapters_match_reference(shape_rows):
    ncols, rows = shape_rows
    assert row_reduce(rows, ncols) == _reference_row_reduce(rows, ncols)
    assert nullspace(rows, ncols) == _reference_nullspace(rows, ncols)
    assert rank(rows, ncols) == len(_reference_row_reduce(rows, ncols)[1])


# -- work bound -----------------------------------------------------------------


def test_each_factor_acts_once_per_monomial(monkeypatch):
    """At most sum over m <= n of #{factors of degree <= m} * dim V_m actions."""
    module = _verma("b2", FUNCTIONALS["generic"], 3)
    level = 3
    calls = []
    original = TruncatedVerma.act

    def counting_act(self, x, v):
        calls.append(1)
        return original(self, x, v)

    monkeypatch.setattr(TruncatedVerma, "act", counting_act)
    vectors = singular_vectors(module, level)
    monkeypatch.undo()
    factors = _raising_factors(module, level, "generators")
    bound = sum(
        sum(1 for fac in factors if fac[1] <= m) * module.level_dimension(m)
        for m in range(level + 1)
    )
    assert len(calls) <= bound
    assert len(vectors) == len(_reference_singular_vectors(module, level))


# -- membership ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["generic", "degenerate", "zero"])
@pytest.mark.parametrize("algebra", ["trivial", "b2"])
def test_slice_vectors_lie_in_maximal_submodule(algebra, kind):
    module = _verma(algebra, FUNCTIONALS[kind], 3)
    for level in (1, 2, 3):
        vectors = singular_vectors(module, level)
        for vec in vectors:
            assert in_maximal_submodule(module, vec)
        # each basis vector is 1 on its free column (its last monomial) and the
        # pivot-column monomials have a nonzero quotient coordinate: adding one
        # to the slice vectors must leave the maximal submodule
        monos = module.level_monomials(level)
        free = {max(monos.index(m) for m in vec.terms) for vec in vectors}
        rest = PBWVector()
        for vec in vectors:
            rest = rest + vec
        for j in range(len(monos)):
            if j not in free:
                assert not in_maximal_submodule(module, rest + PBWVector({monos[j]: ONE}))
