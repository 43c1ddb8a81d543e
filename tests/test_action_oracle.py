"""Differential tests of the column actions against per-family action loops.

Each family now defines only ``_column`` (one decorated generator on one
basis vector) and :meth:`Module.act` extends it linearly.  The reference
functions below are the earlier per-family ``act`` bodies, kept as they
were apart from ``self`` becoming a parameter, recursion into factors going
through :func:`reference_act`, and Omega's and the evaluation wrapper's
per-handle caches being dropped.  ``module.act(x, v)`` must equal the
reference on multi-term elements (all five generator kinds, Gaussian
coefficients, cancelling terms, parts in the kernel of the jet map) and
multi-term vectors of every family, and must raise
:class:`LevelOverflowError` exactly when the reference does.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hvkit.algebra import (
    HV,
    AlgebraElement,
    C,
    C_D,
    C_I,
    PolynomialCoefficients,
    QuotientCoefficients,
    d,
    I,
)
from hvkit.errors import LevelOverflowError
from hvkit.modules import (
    EvaluationModule,
    HighestWeightFunctional,
    IntermediateSeries,
    Module,
    OmegaModule,
    PBWVector,
    TensorModule,
    TensorVector,
    TruncatedVerma,
    WeightVector,
)
from hvkit.polys import JetQuotient, PolyB, PolyT, jet_expand
from hvkit.scalars import IMAG, ONE, ZERO, Scalar

# ---------------------------------------------------------------------------
# reference actions: the per-family act loops
# ---------------------------------------------------------------------------


def _ref_intermediate(self, x: AlgebraElement, v: WeightVector) -> WeightVector:
    self._check_element(x)
    drop = self.drop_line
    out: dict = {}
    for (g, _key), c in x.terms.items():
        if g.is_central_kind:
            continue
        i = g.index
        if g.kind == "d":
            for k, cv in v.terms.items():
                if k == drop:
                    continue
                w = self.alpha + k + self.beta * i
                if w.is_zero:
                    continue
                tgt = k + i
                if tgt == drop:
                    continue
                out[tgt] = out.get(tgt, ZERO) + c * cv * w
        else:
            if self.f.is_zero:
                continue
            cf = c * self.f
            for k, cv in v.terms.items():
                if k == drop:
                    continue
                tgt = k + i
                if tgt == drop:
                    continue
                out[tgt] = out.get(tgt, ZERO) + cf * cv
    return WeightVector(out)


def _ref_omega_term_on_power(self, kind: str, n: int, exps, j: int) -> PolyT:
    s = self._scale(n, exps)
    shifted = PolyT.t_power(j).shift(n)
    if kind == "d":
        return s * (shifted * PolyT((-n * self.alpha, ONE)))
    return (s * self.beta) * shifted


def _ref_omega(self, x: AlgebraElement, f: PolyT) -> PolyT:
    self._check_element(x)
    acc: dict = {}
    for (g, exps), c in x.terms.items():
        if g.is_central_kind:
            continue
        for j, fc in enumerate(f.coeffs):
            if fc.is_zero:
                continue
            base = _ref_omega_term_on_power(self, g.kind, g.index, exps, j)
            w = c * fc
            for deg, bc in enumerate(base.coeffs):
                if not bc.is_zero:
                    acc[deg] = acc.get(deg, ZERO) + w * bc
    if not acc:
        return PolyT.zero()
    top = max(acc)
    return PolyT([acc.get(i, ZERO) for i in range(top + 1)])


def _ref_translate(self, x: AlgebraElement) -> AlgebraElement:
    self._check_element(x)
    acc: dict = {}
    for (g, exps), c in x.terms.items():
        jets = jet_expand(PolyB.monomial(exps), self.quotient)
        if isinstance(self.inner.algebra(), PolynomialCoefficients):  # the core algebra: order 1
            eta = jets.get((0,) * self.quotient.k)
            if eta is None:
                continue
            tk = (g, ())
            acc[tk] = acc.get(tk, ZERO) + c * eta
        else:
            for r, jc in jets.items():
                tk = (g, (0, r))
                acc[tk] = acc.get(tk, ZERO) + c * jc
    return AlgebraElement(self.inner.algebra(), acc)


def _ref_evaluation(self, x: AlgebraElement, v):
    return reference_act(self.inner, _ref_translate(self, x), v)


def _ref_verma(self, x: AlgebraElement, v: PBWVector) -> PBWVector:
    self._check_element(x)
    out: dict = {}
    for (g, key), c in x.terms.items():
        for mono, cv in v.terms.items():
            cc = c * cv
            for m2, c2 in self._act_term(g.kind, g.index, key, mono).items():
                out[m2] = out.get(m2, ZERO) + cc * c2
    return PBWVector(out)


def _ref_tensor(self, x: AlgebraElement, v: TensorVector) -> TensorVector:
    self._check_element(x)
    out: dict = {}
    for (lk, rk), c in v.terms.items():
        lw = reference_act(self.left, x, self.left.basis_vector(lk))
        for k2, c2 in lw.terms.items():
            key = (k2, rk)
            out[key] = out.get(key, ZERO) + c * c2
        rw = reference_act(self.right, x, self.right.basis_vector(rk))
        for k2, c2 in rw.terms.items():
            key = (lk, k2)
            out[key] = out.get(key, ZERO) + c * c2
    return TensorVector(out)


_REFERENCE = {
    "intermediate": _ref_intermediate,
    "omega": _ref_omega,
    "evaluation": _ref_evaluation,
    "verma": _ref_verma,
    "tensor": _ref_tensor,
}


def reference_act(module: Module, x: AlgebraElement, v):
    return _REFERENCE[module.family](module, x, v)


def _outcome(fn):
    try:
        return fn()
    except LevelOverflowError:
        return LevelOverflowError


def assert_matches_reference(module: Module, x: AlgebraElement, v):
    got = _outcome(lambda: module.act(x, v))
    want = _outcome(lambda: reference_act(module, x, v))
    assert type(got) is type(want)
    assert got == want, (x, v)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

HALF = Scalar(Fraction(1, 2))
THIRD = Scalar(Fraction(1, 3))

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gaussians = st.builds(Scalar, rationals, rationals)
nonzero_gaussians = gaussians.filter(lambda c: not c.is_zero)

generators = st.one_of(
    st.builds(d, st.integers(-3, 3)),
    st.builds(I, st.integers(-3, 3)),
    st.sampled_from([C, C_D, C_I]),
)


def coefficient_keys(coeffs) -> list:
    if isinstance(coeffs, QuotientCoefficients):
        return coeffs.basis_keys()
    return coeffs.keys_upto(2)


@st.composite
def elements(draw, coeffs, jet_kernel_at=()):
    """Multi-term elements; some terms cancel, fully or partly, when merged.

    For each point p in ``jet_kernel_at`` (points of order-2 wrappers over
    C[b]) it may add g (x) c(b - p)^2, whose jet image at p is zero.
    """
    keys = coefficient_keys(coeffs)
    raw = draw(st.lists(st.tuples(generators, st.sampled_from(keys), gaussians), min_size=1, max_size=4))
    for g, key, c in list(raw):
        if draw(st.booleans()):
            raw.append((g, key, -c if draw(st.booleans()) else -HALF * c))
    for p in jet_kernel_at:
        if draw(st.booleans()):
            g, c = draw(generators), draw(nonzero_gaussians)
            raw += [(g, (2,), c), (g, (1,), -2 * p * c), (g, (0,), p * p * c)]
    terms: dict = {}
    for g, key, c in raw:
        terms[(g, key)] = terms.get((g, key), ZERO) + c
    return AlgebraElement(coeffs, terms)


def basis_keys(module: Module):
    if module.family == "evaluation":
        return basis_keys(module.inner)
    if module.family == "tensor":
        return st.tuples(basis_keys(module.left), basis_keys(module.right))
    if module.family == "verma":
        levels = range(module.max_level + 1)
        return st.sampled_from([mono for n in levels for mono in module.level_monomials(n)])
    if module.family == "omega":
        return st.integers(0, 3)
    return st.integers(-4, 4)


def vectors(module: Module):
    """Multi-term vectors; Verma ones reach the truncation level."""
    coords = st.dictionaries(basis_keys(module), nonzero_gaussians, min_size=1, max_size=3)
    return coords.map(module.vector_type)


# ---------------------------------------------------------------------------
# modules under test
# ---------------------------------------------------------------------------

P1 = PolynomialCoefficients(1)


def _jet(point, order):
    return JetQuotient((point,), order)


def _verma(coeffs, max_level, values):
    return TruncatedVerma(HighestWeightFunctional(values), coeffs, max_level=max_level)


def _jet_verma(point, max_level):
    q = _jet(point, 2)
    key0, key1 = (0, (0,)), (0, (1,))
    values = {("d0", key0): HALF + IMAG, ("d0", key1): Scalar(2), ("I0", key1): THIRD,
              ("C", key0): Scalar(3), ("C_D", key0): -ONE, ("C_I", key1): IMAG}
    return q, _verma(QuotientCoefficients((q,)), max_level, values)


def _eval_verma(point, max_level):
    q, inner = _jet_verma(point, max_level)
    return EvaluationModule(q, inner)


INTERMEDIATES = [
    IntermediateSeries(HALF, THIRD, 2),
    IntermediateSeries(HALF + IMAG, -ONE, IMAG),
    IntermediateSeries(0, 0, 0),
    IntermediateSeries.primed_zero(),
    IntermediateSeries(2, 0, 0, drop_line=-2),
]

OMEGAS = {
    0: OmegaModule(2, HALF, [], 3),
    1: OmegaModule(ONE + IMAG, THIRD, [Scalar(2)], -ONE),
    2: OmegaModule(Scalar(Fraction(-3, 2)), IMAG, [ONE, Scalar(-2)], HALF),
}

EVAL_ORDER1 = [
    EvaluationModule(_jet(p, 1), IntermediateSeries(HALF, THIRD, ONE - IMAG))
    for p in (Scalar(2), ZERO, ONE + IMAG)
]

EVAL_POINTS = (ZERO, ONE, IMAG)
EVAL_ORDER2 = [_eval_verma(p, 3) for p in EVAL_POINTS]

VERMA_TRIVIAL = _verma(HV, 3, {("d0", ()): HALF, ("I0", ()): -IMAG, ("C", ()): Scalar(2),
                               ("C_D", ()): THIRD, ("C_I", ()): ONE})
VERMA_JET = _jet_verma(ZERO, 3)[1]
TENSOR = TensorModule(_eval_verma(ZERO, 3), _eval_verma(ONE, 3))


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


@settings(max_examples=150)
@given(st.data())
def test_intermediate_series_matches_reference(data):
    module = data.draw(st.sampled_from(INTERMEDIATES))
    x = data.draw(elements(HV))
    v = data.draw(vectors(module))
    assert_matches_reference(module, x, v)


@pytest.mark.parametrize("k", [0, 1, 2])
@settings(max_examples=60)
@given(data=st.data())
def test_omega_matches_reference(k, data):
    module = OMEGAS[k]
    x = data.draw(elements(module.algebra()))
    v = data.draw(vectors(module))
    assert_matches_reference(module, x, v)


@settings(max_examples=100)
@given(st.data())
def test_order_one_evaluation_matches_reference(data):
    module = data.draw(st.sampled_from(EVAL_ORDER1))
    x = data.draw(elements(P1))
    v = data.draw(vectors(module))
    assert module.translate(x) == _ref_translate(module, x)
    assert_matches_reference(module, x, v)


@settings(max_examples=100)
@given(st.data())
def test_order_two_evaluation_matches_reference(data):
    i = data.draw(st.integers(0, len(EVAL_POINTS) - 1))
    module = EVAL_ORDER2[i]
    x = data.draw(elements(P1, jet_kernel_at=(EVAL_POINTS[i],)))
    v = data.draw(vectors(module))
    assert module.translate(x) == _ref_translate(module, x)
    assert_matches_reference(module, x, v)


@settings(max_examples=100)
@given(st.data())
def test_unit_coefficients_on_evaluation_match_reference(data):
    """Elements and vectors whose coefficients are the ``ONE`` object, as the
    axiom sweep's operators and basis vectors are, take the product-free
    paths of ``_merged`` and ``apply`` on wrappers of order 1 and 2."""
    module = data.draw(st.sampled_from(EVAL_ORDER1 + EVAL_ORDER2))
    terms = data.draw(st.lists(st.tuples(generators, st.sampled_from(P1.keys_upto(2))),
                               min_size=1, max_size=4, unique=True))
    x = AlgebraElement(P1, dict.fromkeys(terms, ONE))
    v = module.basis_vector(data.draw(basis_keys(module)))
    assert module.translate(x) == _ref_translate(module, x)
    assert_matches_reference(module, x, v)


@pytest.mark.parametrize("module", [VERMA_TRIVIAL, VERMA_JET], ids=["trivial-B", "jet-b2"])
@settings(max_examples=100)
@given(data=st.data())
def test_verma_matches_reference(module, data):
    x = data.draw(elements(module.algebra()))
    v = data.draw(vectors(module))
    assert_matches_reference(module, x, v)


@settings(max_examples=100)
@given(st.data())
def test_tensor_of_evaluation_vermas_matches_reference(data):
    x = data.draw(elements(P1, jet_kernel_at=(ZERO, ONE)))
    v = data.draw(vectors(TENSOR))
    assert_matches_reference(TENSOR, x, v)


def test_jet_kernel_element_acts_by_zero_below_the_truncation():
    # d(-4) (x) (b-1)^2 would lower past level 3 term by term; its jet image is zero
    q, inner = _jet_verma(ONE, 3)
    module = EvaluationModule(q, inner)
    x = AlgebraElement(P1, {(d(-4), (2,)): ONE, (d(-4), (1,)): Scalar(-2), (d(-4), (0,)): ONE})
    hw = inner.highest_weight_vector()
    assert module.translate(x).is_zero
    assert module.act(x, hw).is_zero
    tensor = TensorModule(module, _eval_verma(ONE, 3))
    assert tensor.act(x, TensorVector.pure((), ())).is_zero


def test_every_family_uses_the_one_linear_extension():
    for cls in (IntermediateSeries, OmegaModule, EvaluationModule, TruncatedVerma, TensorModule):
        assert vars(cls)["act"] is Module.act
