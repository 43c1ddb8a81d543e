"""Differential tests of the Ω and intermediate-series columns, and of the
basis keys the axiom sweep names.

``OmegaModule._column`` expands s (t - n)^j (t - n*alpha) and s*beta (t - n)^j
by the binomial theorem, and ``IntermediateSeries._column`` sums
alpha + k + beta*i as one integer triple.  The oracles below are those
columns as they stood before: Ω's built from ``PolyT`` products and shifts
(its per-handle cache dropped), the series' from ``Scalar`` sums.  The new
columns must give the same (basis key, coefficient) pairs in the same order,
on Gaussian parameters.

The axiom sweep keys its rows by integer ids; its reports must still name
the basis keys themselves.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hvkit.algebra import QuotientCoefficients
from hvkit.analysis import axiom_sweep
from hvkit.modules import HighestWeightFunctional, IntermediateSeries, OmegaModule, TruncatedVerma
from hvkit.polys import JetQuotient, PolyT, exponents_upto
from hvkit.scalars import ONE, ZERO, Scalar
from mutants import OffByOneOmega

# ---------------------------------------------------------------------------
# oracles: the columns before the binomial expansion and the one-triple sum
# ---------------------------------------------------------------------------


def omega_column_oracle(self, kind, n, exps, j):
    if kind not in ("d", "I"):
        return ()
    s = self._scale(n, exps)
    shifted = PolyT.t_power(j).shift(n)
    if kind == "d":
        image = s * (shifted * PolyT((-n * self.alpha, ONE)))
    else:
        image = (s * self.beta) * shifted
    return image.terms.items()


def intermediate_column_oracle(self, kind, index, key, k):
    if kind == "d":
        w = self.alpha + k + self.beta * index
    elif kind == "I":
        w = self.f
    else:
        return ()
    tgt = k + index
    if w.is_zero or self.drop_line in (k, tgt):
        return ()
    return ((tgt, w),)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
gaussians = st.builds(Scalar, rationals, rationals)
# a zero real or imaginary part, now and then, so real parameters are drawn too
parameters = st.one_of(gaussians, st.builds(Scalar, rationals), st.just(ZERO))
lambdas = gaussians.filter(lambda s: s not in (ZERO, ONE, -ONE))
kinds = st.sampled_from(("d", "I", "C", "CD", "CI"))
indices = st.integers(min_value=-4, max_value=4)


@st.composite
def omega_cases(draw, kinds=kinds):
    k = draw(st.integers(min_value=0, max_value=2))
    module_args = (draw(lambdas), draw(parameters), tuple(draw(parameters) for _ in range(k)), draw(parameters))
    exps = draw(st.sampled_from(exponents_upto(k, 2)))
    return module_args, draw(kinds), draw(indices), exps, draw(st.integers(min_value=0, max_value=6))


# ---------------------------------------------------------------------------
# Ω
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(omega_cases())
def test_the_omega_column_matches_the_polyt_oracle(case):
    module_args, kind, n, exps, j = case
    module = OmegaModule(*module_args)
    assert list(module._column(kind, n, exps, j)) == list(omega_column_oracle(module, kind, n, exps, j))
    # a second read comes from the handle's cache, unchanged
    assert list(module._column(kind, n, exps, j)) == list(omega_column_oracle(module, kind, n, exps, j))


@settings(max_examples=100, deadline=None)
# central kinds have empty columns, which the test skips: drawing them made
# the filter-too-much health check fail now and then (hypothesis seed 21)
@given(omega_cases(st.sampled_from(("d", "I"))))
def test_the_off_by_one_mutant_disagrees_with_the_oracle(case):
    module_args, kind, n, exps, j = case
    want = list(omega_column_oracle(OmegaModule(*module_args), kind, n, exps, j))
    assume(want)
    assert list(OffByOneOmega(*module_args)._column(kind, n, exps, j)) != want


def test_the_omega_column_on_fixed_parameters():
    # d_2 on t: lambda^2 (t - 2)(t - 2*alpha) = 4t^2 - 8(1 + i)t + 16i at alpha = i
    module = OmegaModule(2, Scalar(0, 1), (), 0)
    assert list(module._column("d", 2, (), 1)) == [(0, Scalar(0, 16)), (1, Scalar(-8, -8)), (2, Scalar(4))]
    # I_{-1} (x) b on t^2: mu lambda^{-2} beta (t + 1)^2, and d_0 on t^3 is t^4
    module = OmegaModule(2, 3, (Scalar(3),), Scalar(Fraction(1, 2)))
    assert list(module._column("I", -1, (1,), 2)) == [(0, Scalar(Fraction(3, 8))), (1, Scalar(Fraction(3, 4))), (2, Scalar(Fraction(3, 8)))]
    assert list(module._column("d", 0, (0,), 3)) == [(4, ONE)]
    # a zero mu kills every column decorated by b
    assert list(OmegaModule(2, 3, (ZERO,), 1)._column("d", 1, (1,), 2)) == []


# ---------------------------------------------------------------------------
# intermediate series
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(parameters, parameters, parameters, kinds, indices, st.integers(min_value=-6, max_value=6))
def test_the_intermediate_column_matches_the_scalar_oracle(alpha, beta, f, kind, index, k):
    module = IntermediateSeries(alpha, beta, f)
    assert list(module._column(kind, index, (), k)) == list(intermediate_column_oracle(module, kind, index, (), k))


@pytest.mark.parametrize("k", range(-3, 4))
@pytest.mark.parametrize("index", range(-2, 3))
def test_the_dropped_line_column_matches_the_scalar_oracle(index, k):
    module = IntermediateSeries(-2, 0, 0, drop_line=2)
    for kind in ("d", "I"):
        assert list(module._column(kind, index, (), k)) == list(intermediate_column_oracle(module, kind, index, (), k))


# ---------------------------------------------------------------------------
# the axiom sweep names basis keys, not their ids
# ---------------------------------------------------------------------------


class _ShiftedSeries(IntermediateSeries):
    """Test double: d and I acting on the line v[1] get 1 added to their coefficient."""

    def _column(self, kind, index, key, k):
        out = IntermediateSeries._column(self, kind, index, key, k)
        return out if k != 1 else tuple((tgt, w + 1) for tgt, w in out)


def _jet_verma():
    coeffs = QuotientCoefficients((JetQuotient((ZERO,), 2),))
    return TruncatedVerma(HighestWeightFunctional.zero(), coeffs, max_level=1)


def _key_texts(entries):
    return sorted({v for _x, _y, v in entries})


@pytest.mark.parametrize(
    "make,bounds,violations,inconclusive,first,named",
    [
        (
            lambda: OffByOneOmega(2, 3, (ONE,), ZERO),
            (1, 1, 2),
            36,
            0,
            [("d(-1)", "d(0)", "0"), ("d(-1)", "d(0)", "1"), ("d(-1)", "d(0)", "2")],
            ["0", "1", "2"],
        ),
        (
            # window keys -2..2 have ids 0..4, so an id in place of a key shows
            lambda: _ShiftedSeries(Scalar(Fraction(1, 2)), 0, 1),
            (1, 0, 2),
            30,
            0,
            [("I(-1)", "I(0)", "1"), ("I(-1)", "I(0)", "2"), ("I(-1)", "I(1)", "0")],
            ["0", "1", "2"],
        ),
        (
            _jet_verma,
            (1, 0, 1),
            0,
            61,
            [
                ("I(-1)⊗e[0]", "C_D⊗e[0]", "(('I', -1, (0, (0,))),)"),
                ("I(-1)⊗e[0]", "C_D⊗e[0]", "(('I', -1, (0, (1,))),)"),
                ("I(-1)⊗e[0]", "C_D⊗e[0]", "(('d', -1, (0, (0,))),)"),
            ],
            ["(('I', -1, (0, (0,))),)", "(('I', -1, (0, (1,))),)", "(('d', -1, (0, (0,))),)",
             "(('d', -1, (0, (1,))),)", "()"],
        ),
    ],
    ids=["off-by-one-omega", "shifted-series", "jet-verma-inconclusive"],
)
def test_sweep_entries_name_the_basis_keys(make, bounds, violations, inconclusive, first, named):
    module = make()
    report = axiom_sweep(module, *bounds)
    assert (report.violations_found, len(report.inconclusive)) == (violations, inconclusive)
    entries = report.violations or report.inconclusive
    assert entries[:3] == first
    assert _key_texts(entries) == named
    window = {str(key) for key in module.window_keys(bounds[2])}
    assert set(named) <= window
