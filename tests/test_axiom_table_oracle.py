"""Differential tests of the row-reading axiom sweep against a vector-by-vector sweep.

``_reference_axiom_sweep`` is the sweep as it stood before operator rows: it
acts by each operator on each window basis vector, then by the other operator
on that image vector with ``module.act``, so it re-extends the columns over
every intermediate vector, and acts by the bracket on each window vector.
``axiom_sweep`` reads each one-term element's image on each basis key once
and sums those rows for both sides instead.  The two must give the same
report: the same triple count, violation count, kept violations and
inconclusive triples, entry for entry.  The sweep sums its triples as
unnormalized integer triples, so cases with mixed denominators (a Gaussian
series, an Ω with fractional lambda and mu) and a test double whose only
violations are purely imaginary check that sum for exactness.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hvkit import analysis
from hvkit.algebra import (
    AlgebraElement,
    I,
    PolynomialCoefficients,
    QuotientCoefficients,
    bracket,
    d,
    hv_structure,
)
from hvkit.analysis import AxiomSweepReport, algebra_generator_elements, axiom_sweep, unit_element
from hvkit.errors import LevelOverflowError
from hvkit.modules import (
    EvaluationModule,
    HighestWeightFunctional,
    IntermediateSeries,
    OmegaModule,
    TensorModule,
    TruncatedVerma,
)
from hvkit.polys import JetQuotient
from hvkit.scalars import ONE, ZERO, Scalar
from mutants import STRUCTURE_MUTANTS, OffByOneOmega

HALF = Scalar(Fraction(1, 2))


def _reference_axiom_sweep(module, index_bound, monomial_bound, window, order_seed=None) -> AxiomSweepReport:
    """Vector by vector: every double action is ``module.act`` on an image vector."""
    report = AxiomSweepReport(index_bound, monomial_bound, window)
    keys = module.window_keys(window)
    ops = algebra_generator_elements(module.algebra(), index_bound, monomial_bound)
    basis = [module.basis_vector(key) for key in keys]
    pairs = [(i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))]
    if order_seed is not None:
        random.Random(order_seed).shuffle(pairs)

    overflow = "overflow"
    acted: dict = {}

    def act_on_basis(oi: int, vi: int):
        hit = acted.get((oi, vi))
        if hit is None:
            try:
                hit = module.act(ops[oi], basis[vi])
            except LevelOverflowError:
                hit = overflow
            acted[(oi, vi)] = hit
        return hit

    for i, j in pairs:
        xy = bracket(ops[i], ops[j])
        for vi, (key, v) in enumerate(zip(keys, basis)):
            report.triples_checked += 1
            try:
                wy = act_on_basis(j, vi)
                wx = act_on_basis(i, vi)
                if wy is overflow or wx is overflow:
                    raise LevelOverflowError("window vector saturates the truncation")
                lhs = module.act(xy, v)
                rhs = module.act(ops[i], wy) - module.act(ops[j], wx)
            except LevelOverflowError:
                report.inconclusive.append((ops[i].render(), ops[j].render(), str(key)))
                continue
            if lhs != rhs:
                report.violations.append((ops[i].render(), ops[j].render(), str(key)))
    report.violations_found = len(report.violations)
    report.violations.sort()
    del report.violations[analysis.MAX_VIOLATION_SAMPLES:]
    report.inconclusive.sort()
    return report


def _b2(point=0):
    return QuotientCoefficients((JetQuotient((Scalar(point),), 2),))


def _phi(coeffs):
    """Value n/2 on the n-th (slot, key): nonzero on every slot."""
    pairs = [(slot, key) for key in coeffs.basis_keys() for slot in ("d0", "I0", "C", "C_D", "C_I")]
    return HighestWeightFunctional({pair: Scalar(Fraction(n, 2)) for n, pair in enumerate(pairs, 1)})


def _verma(coeffs, max_level, structure=hv_structure):
    return TruncatedVerma(_phi(coeffs), coeffs, max_level=max_level, structure=structure)


def _eval_verma(point, max_level):
    return EvaluationModule(JetQuotient((Scalar(point),), 2), _verma(_b2(point), max_level))


class _CappedSeries(IntermediateSeries):
    """Test double: a column of an index past 2 overflows.  At index bound 2
    every operator row reads, so only a bracket term, of index up to 4, can
    overflow: the left side alone."""

    def _column(self, kind, index, key, k):
        if abs(index) > 2:
            raise LevelOverflowError(f"index {index} is past the cap")
        return super()._column(kind, index, key, k)


class _ImaginarySlipSeries(IntermediateSeries):
    """Test double: I_n, n != 0, adds i/6 to its coefficient on line 1.  The
    parameters are real, and no double action reads two slipped entries
    (that would take I_0 on line 1), so each violation is purely imaginary:
    a sweep that tests only real parts for zero finds none."""

    def _column(self, kind, index, key, k):
        if kind == "I" and index and k == 1:
            return ((k + index, self.f + Scalar(0, Fraction(1, 6))),)
        return super()._column(kind, index, key, k)


# name -> (a builder of fresh handles, index bound, monomial bound, window)
CASES = {
    "intermediate": (lambda: IntermediateSeries(HALF, Fraction(1, 3), 1), 3, 0, 3),
    "intermediate-drop-line": (lambda: IntermediateSeries.primed_zero(), 3, 0, 3),
    "intermediate-gaussian": (
        lambda: IntermediateSeries(Scalar(Fraction(1, 3), Fraction(1, 2)), Fraction(2, 5), Scalar(Fraction(3, 7), -1)),
        3,
        0,
        3,
    ),
    "imaginary-slip": (lambda: _ImaginarySlipSeries(HALF, Fraction(1, 3), 1), 3, 0, 3),
    "omega-k0": (lambda: OmegaModule(2, 3, (), Fraction(1, 2)), 3, 0, 3),
    "omega-k1": (lambda: OmegaModule(Fraction(1, 3), 1, (ONE,), 2), 2, 2, 3),
    "omega-k2": (lambda: OmegaModule(2, 0, (ONE, HALF), 1), 2, 1, 2),
    "omega-mixed-denominators": (
        lambda: OmegaModule(Fraction(2, 3), Fraction(1, 5), (HALF,), Fraction(3, 4)),
        2,
        2,
        3,
    ),
    "evaluation-order-1": (
        lambda: EvaluationModule(JetQuotient((Scalar(2),), 1), IntermediateSeries(HALF, 0, 1)),
        2,
        2,
        3,
    ),
    "evaluation-order-2": (lambda: _eval_verma(0, 3), 2, 1, 1),
    "evaluation-order-2-point-1": (lambda: _eval_verma(1, 3), 2, 1, 1),
    "verma-trivial": (lambda: _verma(PolynomialCoefficients(0), 3), 3, 0, 2),
    "verma-b2": (lambda: _verma(_b2(), 2), 2, 1, 2),
    "tensor-intermediate": (
        lambda: TensorModule(IntermediateSeries(HALF, 0, 1), IntermediateSeries(0, 1, 2)),
        2,
        0,
        1,
    ),
    "tensor-evaluation": (lambda: TensorModule(_eval_verma(0, 2), _eval_verma(1, 2)), 1, 1, 1),
    "off-by-one-omega": (lambda: OffByOneOmega(2, 3, (ONE,), ZERO), 2, 1, 2),
    "left-side-overflow": (lambda: _CappedSeries(HALF, Fraction(1, 3), 1), 2, 0, 2),
    **{
        f"verma-{name}": (lambda structure=structure: _verma(_b2(), 2, structure), 2, 1, 2)
        for name, structure in STRUCTURE_MUTANTS.items()
    },
}


def _both_sweeps(name, order_seed):
    # fresh handles on each side, so that neither reads the other's caches
    build, index_bound, monomial_bound, window = CASES[name]
    got = axiom_sweep(build(), index_bound, monomial_bound, window, order_seed=order_seed)
    want = _reference_axiom_sweep(build(), index_bound, monomial_bound, window, order_seed=order_seed)
    return got, want


def _same_findings(got, want):
    assert got.triples_checked == want.triples_checked
    assert got.violations_found == want.violations_found
    assert got.violations == want.violations
    assert got.inconclusive == want.inconclusive


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_match_the_vector_reference(name):
    got, want = _both_sweeps(name, None)
    _same_findings(got, want)
    assert want.triples_checked > 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.integers(0, 2**30))
def test_rows_match_the_vector_reference_in_any_pair_order(name, order_seed):
    _same_findings(*_both_sweeps(name, order_seed))


def test_the_cases_exercise_violations_and_truncation():
    """The differential cases include real violations and real overflows."""
    for name in ("off-by-one-omega", "imaginary-slip", *(f"verma-{m}" for m in STRUCTURE_MUTANTS)):
        assert _both_sweeps(name, None)[1].violations_found, name
    for name in ("evaluation-order-2", "verma-trivial", "verma-b2", "tensor-evaluation"):
        assert _both_sweeps(name, None)[1].inconclusive, name


def test_the_imaginary_slip_violates_in_imaginary_parts_only():
    """Every nonzero entry of [x, y].v - (x.(y.v) - y.(x.v)) in the
    imaginary-slip case has a zero real part and a nonzero imaginary part."""
    build, index_bound, monomial_bound, window = CASES["imaginary-slip"]
    module = build()
    ops = algebra_generator_elements(module.algebra(), index_bound, monomial_bound)
    parts = set()
    for x, y in itertools.combinations(ops, 2):
        for key in module.window_keys(window):
            v = module.basis_vector(key)
            gap = module.act(bracket(x, y), v) - (module.act(x, module.act(y, v)) - module.act(y, module.act(x, v)))
            parts.update((bool(c.re), bool(c.im)) for c in gap.terms.values())
    assert parts == {(False, True)}


def test_a_row_overflowing_outside_the_window_makes_the_triple_inconclusive():
    """x = I(-1), y = I(-2) on v = d(-1).hw, truncated at level 3, window 1.

    y.v (level 3) and x.v (level 2) exist, so both window rows read, but
    reading x's row on y.v's keys, which lie outside the window, overflows the
    truncation (level 4).  [x, y] = 0 acts without overflow, so a sweep that
    dropped the overflowing row would see 0 = 0; it must instead count the
    triple inconclusive, never a violation."""
    module = _verma(PolynomialCoefficients(0), 3)
    coeffs = module.algebra()
    x, y = unit_element(coeffs, I(-1)), unit_element(coeffs, I(-2))
    key = (("d", -1, ()),)
    v = module.basis_vector(key)
    wy, wx = module.act(y, v), module.act(x, v)
    assert not wy.is_zero and not wx.is_zero
    assert not set(wy.terms) & set(module.window_keys(1))
    with pytest.raises(LevelOverflowError):
        module.act(x, wy)
    assert module.act(bracket(x, y), v).is_zero

    report = axiom_sweep(module, 2, 0, window=1)
    entry = (y.render(), x.render(), str(key))  # ops in sweep order: I(-2) before I(-1)
    assert entry in report.inconclusive
    assert report.clean and entry not in report.violations
    assert report == _reference_axiom_sweep(_verma(PolynomialCoefficients(0), 3), 2, 0, 1)


def test_each_operator_is_rendered_once_per_sweep(monkeypatch):
    renders = []
    render = analysis.AlgebraElement.render
    monkeypatch.setattr(analysis.AlgebraElement, "render", lambda self: renders.append(self) or render(self))
    module = _verma(_b2(), 2)
    report = axiom_sweep(module, 2, 1, window=2)
    assert report.inconclusive
    assert len(renders) == len(algebra_generator_elements(module.algebra(), 2, 1))


def test_only_the_point_1_case_reads_b_squared_on_the_left():
    """The bracket of b.d(1) and b.d(-2) is -3 b^2.d(-1); over C[b]/(b - p)^2
    b^2 is 2(b - 1) + 1 at p = 1 and 0 at p = 0, so only the point-1 case
    acts by such a term on the left."""
    x, y = [AlgebraElement(PolynomialCoefficients(1), {(g, (1,)): ONE}) for g in (d(1), d(-2))]
    xy = bracket(x, y)
    assert list(xy.terms) == [(d(-1), (2,))]
    assert CASES["evaluation-order-2"][0]().translate(xy).is_zero
    assert not CASES["evaluation-order-2-point-1"][0]().translate(xy).is_zero


def test_a_left_side_that_overflows_alone_makes_its_triples_inconclusive():
    """The left-side-overflow case does what its name says: in the capped
    series only bracket terms of an index past 2 overflow, and the reference
    counts those triples inconclusive, never violations, and checks the rest."""
    build, index_bound, monomial_bound, window = CASES["left-side-overflow"]
    want = _reference_axiom_sweep(build(), index_bound, monomial_bound, window)
    assert want.inconclusive and want.clean
    assert len(want.inconclusive) < want.triples_checked


@pytest.mark.parametrize("name", ["verma-b2", "tensor-evaluation"])
def test_each_term_acts_once_on_each_basis_key(name, monkeypatch):
    """Every ``Module.apply`` call of a sweep applies the own terms of a
    one-term element (one generator) to a basis key, never a bracket's, and
    no (term, basis key) twice."""
    build, index_bound, monomial_bound, window = CASES[name]
    module = build()
    apply = type(module).apply
    seen = []

    def counted(self, own_terms, coords):
        assert len({g for (g, _key), _c in own_terms}) == 1, own_terms
        assert [c for _b, c in coords] == [ONE], coords
        seen.append((own_terms, *(b for b, _c in coords)))
        return apply(self, own_terms, coords)

    monkeypatch.setattr(type(module), "apply", counted)
    axiom_sweep(module, index_bound, monomial_bound, window)
    assert seen and len(set(seen)) == len(seen)


@pytest.mark.parametrize("name", ["evaluation-order-2", "tensor-evaluation"])
def test_each_term_reads_its_own_terms_once_per_sweep(name, monkeypatch):
    """The merged jet image of a one-term element (both sides of it, on a
    tensor product) is computed once per sweep, whatever rows read it."""
    build, index_bound, monomial_bound, window = CASES[name]
    module = build()
    own_terms = type(module)._terms
    seen = []

    def counted(self, pairs):
        ((t, c),) = pairs
        assert c == ONE
        seen.append(t)
        return own_terms(self, pairs)

    monkeypatch.setattr(type(module), "_terms", counted)
    axiom_sweep(module, index_bound, monomial_bound, window)
    assert seen and len(set(seen)) == len(seen)
