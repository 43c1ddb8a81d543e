import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hvkit.algebra import (
    HV,
    AlgebraElement,
    PolynomialCoefficients,
    QuotientCoefficients,
    bracket,
    d,
    element,
    gen_elt,
    I,
    C,
    C_D,
    C_I,
)
from hvkit import modules
from hvkit.analysis import axiom_sweep
from hvkit.errors import ConfigurationError, DimensionMismatchError, LevelOverflowError
from hvkit.modules import (
    MAX_LEVEL_MONOMIALS,
    EvaluationModule,
    HighestWeightFunctional,
    IntermediateSeries,
    OmegaModule,
    PBW_D_FIRST,
    PBW_I_FIRST,
    PBWVector,
    TensorModule,
    TensorVector,
    TruncatedVerma,
    WeightVector,
    module_from_descriptor,
)
from hvkit.polys import JetQuotient, PolyB, PolyT, poly_eval
from hvkit.scalars import IMAG, ONE, ZERO, Scalar, parse_scalar

HALF = Scalar(Fraction(1, 2))


def q_at(value, order):
    return JetQuotient((Scalar(value),), order)


# -- intermediate series -----------------------------------------------------


def test_intermediate_action_values():
    V = IntermediateSeries(HALF, 0, 1)
    assert V.act(gen_elt(HV, d(2)), WeightVector.line(0)) == WeightVector({2: HALF})
    assert V.act(gen_elt(HV, I(3)), WeightVector.line(4)) == WeightVector({7: ONE})
    for g in (C, C_D, C_I):
        assert V.act(gen_elt(HV, g), WeightVector.line(1)).is_zero


def test_intermediate_weight_property():
    V = IntermediateSeries(HALF, Scalar(2), Scalar(3))
    for k in range(-3, 4):
        v = WeightVector.line(k)
        assert V.act(gen_elt(HV, d(0)), v) == (HALF + k) * v
        assert V.act(gen_elt(HV, I(0)), v) == Scalar(3) * v


def test_degenerate_module_kills_line_zero():
    V = IntermediateSeries(0, 0, 0)
    for i in range(-5, 6):
        assert V.act(gen_elt(HV, d(i)), WeightVector.line(0)).is_zero
        assert V.act(gen_elt(HV, I(i)), WeightVector.line(0)).is_zero


def test_primed_subquotient_axiom():
    V = IntermediateSeries.primed_zero()
    assert all(k != 0 for k in V.window_keys(3))
    ops = [gen_elt(HV, d(n)) for n in range(-3, 4)] + [gen_elt(HV, I(n)) for n in range(-3, 4)]
    for x in ops:
        for y in ops:
            for v in map(V.basis_vector, V.window_keys(3)):
                lhs = V.act(bracket(x, y), v)
                rhs = V.act(x, V.act(y, v)) - V.act(y, V.act(x, v))
                assert lhs == rhs


def test_primed_requires_degenerate_parameters():
    with pytest.raises(ConfigurationError):
        IntermediateSeries(0, 1, 0, drop_line=0)
    with pytest.raises(ConfigurationError):
        IntermediateSeries(0, 0, 1, drop_line=0)


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-2, max_value=2),
)
def test_intermediate_module_axiom_random(n, m, k):
    V = IntermediateSeries(HALF, Scalar(Fraction(1, 3)), Scalar(2))
    x, y = gen_elt(HV, d(n)), gen_elt(HV, I(m))
    v = WeightVector.line(k)
    assert V.act(bracket(x, y), v) == V.act(x, V.act(y, v)) - V.act(y, V.act(x, v))


# -- rank-one free family ----------------------------------------------------


def test_omega_action_values():
    Om = OmegaModule(2, 3, (), 0)
    assert Om.act(gen_elt(HV, d(1)), PolyT.one()) == PolyT((-6, 2))  # 2(t-3)
    Om2 = OmegaModule(2, 0, (Scalar(3),), 5)
    got = Om2.act(gen_elt(Om2.algebra(), I(2), (1,)), PolyT.one())
    assert got == PolyT((30,))  # 3 * 2^(2-1) * 5
    Om3 = OmegaModule(2, 1, (Scalar(3),), 0)
    got = Om3.act(gen_elt(Om3.algebra(), d(1), (1,)), PolyT.one())
    assert got == PolyT((-3, 3))  # 3 * (t - 1)
    for g in (C, C_D, C_I):
        assert Om2.act(gen_elt(Om2.algebra(), g, (1,)), PolyT.t_power(2)).is_zero


def test_omega_rank_one_freeness():
    Om = OmegaModule(Scalar(Fraction(7, 2)), Scalar(5), (Scalar(2),), Scalar(3))
    d0 = gen_elt(Om.algebra(), d(0))
    v = PolyT.one()
    for n in range(1, 7):
        v = Om.act(d0, v)
        assert v == PolyT.t_power(n)


def test_omega_negative_lambda_powers():
    Om = OmegaModule(Scalar(Fraction(2, 3)), 0, (Scalar(1),), 1)
    got = Om.act(gen_elt(Om.algebra(), I(-1), (2,)), PolyT.one())
    # lambda^(-1-2) = (3/2)^3
    assert got == PolyT((Scalar(Fraction(27, 8)),))


def test_omega_scales_each_generator_once_per_handle(monkeypatch):
    """x . 1 is built once per decorated generator and read for every degree."""
    scale, column = OmegaModule._scale, OmegaModule._column
    scaled, read = [], set()
    monkeypatch.setattr(OmegaModule, "_scale", lambda self, n, exps: scaled.append((n, exps)) or scale(self, n, exps))

    def reading(self, kind, n, exps, j):
        if kind in ("d", "I"):
            read.add((kind, n, exps))
        return column(self, kind, n, exps, j)

    monkeypatch.setattr(OmegaModule, "_column", reading)
    report = axiom_sweep(OmegaModule(Scalar(Fraction(2, 3)), HALF, (Scalar(3),), Scalar(5)), 2, 1, window=3)
    assert report.clean
    assert len(scaled) == len(read) > 0


def test_omega_rejects_zero_lambda():
    with pytest.raises(ConfigurationError):
        OmegaModule(0, 1, (Scalar(1),), 0)


def test_omega_core_algebra_variant_with_heisenberg_scalar():
    # the k = 0 family where I_n acts by beta * lambda^n after a shift
    Om = OmegaModule(2, 1, (), 3)
    got = Om.act(gen_elt(HV, I(2)), PolyT.t_power(1))
    assert got == Scalar(12) * PolyT((-2, 1))  # 3 * 2^2 * (t - 2)
    got = Om.act(gen_elt(HV, I(0)), PolyT.one())
    assert got == PolyT((3,))
    ops = [gen_elt(HV, d(n)) for n in range(-3, 4)] + [gen_elt(HV, I(n)) for n in range(-3, 4)]
    for x in ops:
        for y in ops:
            for j in range(3):
                v = PolyT.t_power(j)
                lhs = Om.act(bracket(x, y), v)
                assert lhs == Om.act(x, Om.act(y, v)) - Om.act(y, Om.act(x, v))


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
)
def test_omega_module_axiom_random(n, m, r1, r2, j):
    Om = OmegaModule(Scalar(2), HALF, (Scalar(3),), Scalar(Fraction(1, 3)))
    x = gen_elt(Om.algebra(), d(n), (r1,))
    y = gen_elt(Om.algebra(), I(m), (r2,))
    v = PolyT.t_power(j)
    assert Om.act(bracket(x, y), v) == Om.act(x, Om.act(y, v)) - Om.act(y, Om.act(x, v))


# -- evaluation wrappers -----------------------------------------------------


def test_order_one_evaluation_scales():
    E = EvaluationModule(q_at(2, 1), IntermediateSeries(HALF, 0, 1))
    v = WeightVector.line(0)
    via_wrapper = E.act(gen_elt(E.algebra(), d(1), (1,)), v)
    direct = E.inner.act(gen_elt(HV, d(1)), v)
    assert via_wrapper == 2 * direct


def test_order_one_evaluation_kills_maximal_ideal():
    E = EvaluationModule(q_at(2, 1), IntermediateSeries(HALF, 0, 1))
    x = element(E.algebra(), {(d(1), (1,)): 1, (d(1), (0,)): -2})  # d1 (x) (b1 - 2)
    assert E.act(x, WeightVector.line(3)).is_zero


def test_order_one_factorization_property():
    # act(x (x) p, v) = p(mu) * act(x (x) 1, v) for polynomials of degree <= 3
    E = EvaluationModule(q_at(Fraction(3, 2), 1), IntermediateSeries(HALF, Scalar(1), Scalar(2)))
    v = WeightVector.line(-1)
    for coeffs in ([1], [0, 1], [2, 0, 1], [0, 0, 0, 1], [1, -2, 3, Fraction(1, 2)]):
        p = PolyB(1, {(i,): c for i, c in enumerate(coeffs)})
        x = AlgebraElement(E.algebra(), {(d(2), exps): c for exps, c in p.terms.items()})
        plain = E.act(gen_elt(E.algebra(), d(2), (0,)), v)
        assert E.act(x, v) == poly_eval(p, (Scalar(Fraction(3, 2)),)) * plain


def test_order_two_evaluation_uses_jets():
    q = q_at(0, 2)
    qc = QuotientCoefficients((q,))
    phi = HighestWeightFunctional({("d0", (0, (0,))): ONE, ("I0", (0, (1,))): Scalar(5)})
    M = TruncatedVerma(phi, qc, max_level=4)
    E = EvaluationModule(q, M)
    hw = M.highest_weight_vector()
    # b1^2 lies in m^2: acts as zero
    assert E.act(gen_elt(E.algebra(), I(0), (2,)), hw).is_zero
    # b1 acts through the degree-1 jet component
    got = E.act(gen_elt(E.algebra(), I(0), (1,)), hw)
    assert got == Scalar(5) * hw


def test_unit_jet_coefficients_are_the_one_object():
    """A jet coefficient equal to 1 is stored as ``ONE``, which ``_merged`` and
    ``apply`` multiply by without a product; any other keeps its value."""
    key0, key1 = (0, (0,)), (0, (1,))
    for point in (0, 1):
        q = q_at(point, 2)
        inner = TruncatedVerma(HighestWeightFunctional.zero(), QuotientCoefficients((q,)), max_level=2)
        E = EvaluationModule(q, inner)
        assert dict(E._jets((0,)))[key0] is ONE  # b^0
        assert dict(E._jets((1,)))[key1] is ONE  # b = point + eps
    square = dict(E._jets((2,)))  # b^2 = 1 + 2 eps at point 1
    assert square[key0] is ONE
    assert square[key1] == 2 and square[key1] is not ONE


def test_evaluation_rejects_mismatched_inner():
    q = q_at(0, 2)
    with pytest.raises(ConfigurationError):
        EvaluationModule(q, IntermediateSeries(0, 0, 1))  # order 2 needs a quotient module
    other = QuotientCoefficients((q_at(1, 2),))
    M = TruncatedVerma(HighestWeightFunctional.zero(), other, max_level=2)
    with pytest.raises(DimensionMismatchError):
        EvaluationModule(q, M)


def _no_listing(*_args):
    raise AssertionError("the keys were listed")


def test_evaluation_keys_are_budgeted_like_a_level(monkeypatch):
    """The wrapper lists its quotient's keys once; past MAX_LEVEL_MONOMIALS it refuses first."""
    q = JetQuotient((Scalar(2), ZERO), 3)  # 6 jets in two variables
    M = TruncatedVerma(HighestWeightFunctional.zero(), QuotientCoefficients((q,)), max_level=2)
    monkeypatch.setattr(modules, "MAX_LEVEL_MONOMIALS", 6)
    E = EvaluationModule(q, M)
    # b1*b2 = 2*b2 + (b1 - 2)*b2 at the point (2, 0)
    assert E.translate(gen_elt(E.algebra(), d(1), (1, 1))) == AlgebraElement(
        M.algebra(), {(d(1), (0, (0, 1))): Scalar(2), (d(1), (0, (1, 1))): ONE}
    )
    monkeypatch.setattr(modules, "MAX_LEVEL_MONOMIALS", 5)
    monkeypatch.setattr(QuotientCoefficients, "basis_keys", _no_listing)
    with pytest.raises(ConfigurationError, match="^the jet quotient has 6 keys, more than 5 to list$"):
        EvaluationModule(q, M)


# -- truncated Verma ---------------------------------------------------------


def test_verma_single_straightening_step():
    phi = HighestWeightFunctional({("d0", ()): Scalar(Fraction(3, 2))})
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4)
    hw = M.highest_weight_vector()
    got = M.act(gen_elt(HV, d(1)), M.act(gen_elt(HV, d(-1)), hw))
    assert got == Scalar(-3) * hw  # -2 phi(d0)


def test_verma_level_dimensions_trivial_coefficients():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=4)
    assert [M.level_dimension(n) for n in range(5)] == [1, 2, 5, 10, 20]


def test_verma_level_dimensions_jet_coefficients():
    qc = QuotientCoefficients((q_at(0, 2),))
    M = TruncatedVerma(HighestWeightFunctional.zero(), qc, max_level=3)
    # four lowering colours per index: d/I times the two jet directions
    assert [M.level_dimension(n) for n in range(4)] == [1, 4, 14, 40]


def test_verma_identities_with_decoration():
    qc = QuotientCoefficients((q_at(0, 3),))
    fkey = (0, (1,))
    phi = HighestWeightFunctional(
        {
            ("d0", fkey): Scalar(5),
            ("I0", fkey): Scalar(-2),
            ("C", fkey): Scalar(4),
            ("C_D", fkey): Scalar(3),
            ("C_I", fkey): Scalar(7),
        }
    )
    M = TruncatedVerma(phi, qc, max_level=4)
    hw = M.highest_weight_vector()
    unit = (0, (0,))
    dm2f = M.act(AlgebraElement(qc, {(d(-2), fkey): ONE}), hw)
    im2f = M.act(AlgebraElement(qc, {(I(-2), fkey): ONE}), hw)
    assert M.act(AlgebraElement(qc, {(d(2), unit): ONE}), dm2f) == (
        Scalar(-4) * Scalar(5) + HALF * Scalar(4)
    ) * hw
    d1 = AlgebraElement(qc, {(d(1), unit): ONE})
    assert M.act(d1, M.act(d1, dm2f)) == Scalar(30) * hw  # 6 phi(d0 (x) f)
    assert M.act(AlgebraElement(qc, {(I(2), unit): ONE}), dm2f) == (
        Scalar(-2) * Scalar(-2) - 2 * Scalar(3)
    ) * hw
    assert M.act(AlgebraElement(qc, {(d(2), unit): ONE}), im2f) == (
        Scalar(-2) * Scalar(-2) + 6 * Scalar(3)
    ) * hw
    assert M.act(AlgebraElement(qc, {(I(2), unit): ONE}), im2f) == (2 * Scalar(7)) * hw


def test_verma_degree_additivity():
    phi = HighestWeightFunctional({("d0", ()): ONE, ("I0", ()): Scalar(2)})
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=5)
    for mono in M.level_monomials(3):
        v = PBWVector({mono: ONE})
        out = M.act(gen_elt(HV, d(2)), v)
        for m2 in out.terms:
            assert TruncatedVerma.level_of(m2) == 1
        out = M.act(gen_elt(HV, I(-2)), v)
        for m2 in out.terms:
            assert TruncatedVerma.level_of(m2) == 5


def test_verma_raising_never_truncates():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=3)
    top = M.level_monomials(3)[0]
    M.act(gen_elt(HV, d(5)), PBWVector({top: ONE}))  # fine: lands below level 0 -> zero


def test_verma_truncation_overflow():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=2)
    with pytest.raises(LevelOverflowError):
        M.act(gen_elt(HV, d(-3)), M.highest_weight_vector())


def _d_minus_one_power(n):
    return PBWVector({(("d", -1, ()),) * n: ONE})


def test_verma_deep_straightening_overflows_instead_of_recursing():
    """d(1)·d(-1)^n·hw = (n(n-1) - 2nh)·d(-1)^(n-1)·hw with h = φ(d0); straightening
    recurses once per factor, so 1,000 factors pass the default recursion limit."""
    phi = HighestWeightFunctional({("d0", ()): 1})
    M = TruncatedVerma(phi, HV, max_level=1200)
    x = gen_elt(HV, d(1))
    with pytest.raises(LevelOverflowError, match="1000 factors"):
        M.act(x, _d_minus_one_power(1000))
    for n in (1, 2, 3, 5):  # the handle keeps no partial entry
        assert M.act(x, _d_minus_one_power(n)) == Scalar(n * (n - 1) - 2 * n) * _d_minus_one_power(n - 1)
    fresh = TruncatedVerma(phi, HV, max_level=1200)
    assert fresh.act(x, _d_minus_one_power(600)) == Scalar(600 * 599 - 1200) * _d_minus_one_power(599)


def test_verma_phi_linearity_at_level_zero():
    phi = HighestWeightFunctional({("d0", ()): Scalar(3), ("C", ()): HALF})
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=2)
    hw = M.highest_weight_vector()
    x = element(HV, {(d(0), ()): 2, (C, ()): 4})
    assert M.act(x, hw) == (Scalar(6) + Scalar(2)) * hw


def test_verma_rejects_infinite_coefficients():
    with pytest.raises(ConfigurationError):
        TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(1))


def test_verma_multi_point_quotient():
    qc = QuotientCoefficients((q_at(0, 1), q_at(1, 1)))
    phi = HighestWeightFunctional({("d0", (0, (0,))): ONE, ("d0", (1, (0,))): Scalar(2)})
    M = TruncatedVerma(phi, qc, max_level=2)
    hw = M.highest_weight_vector()
    # the unit acts by the sum of the point components
    x = element(qc, {(d(0), (0, (0,))): 1, (d(0), (1, (0,))): 1})
    assert M.act(x, hw) == Scalar(3) * hw
    # cross-point products vanish: [d1 (x) e0, d-1 (x) e1] = 0
    a = AlgebraElement(qc, {(d(1), (0, (0,))): ONE})
    b = AlgebraElement(qc, {(d(-1), (1, (0,))): ONE})
    assert bracket(a, b).is_zero
    assert M.act(a, M.act(b, hw)).is_zero


def _colored_partition_count(level: int, colors: int) -> int:
    """Independent oracle: multisets of positive parts with `colors` colors each."""
    # dp[n] after allowing parts 1..p; standard partition recurrence per color
    dp = [1] + [0] * level
    for part in range(1, level + 1):
        for _ in range(colors):
            for n in range(part, level + 1):
                dp[n] += dp[n - part]
    return dp[level]


def test_verma_level_dimension_matches_partition_oracle():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=6)
    for n in range(7):
        assert M.level_dimension(n) == _colored_partition_count(n, 2)
    qc = QuotientCoefficients((q_at(0, 3),))
    M3 = TruncatedVerma(HighestWeightFunctional.zero(), qc, max_level=4)
    for n in range(5):
        assert M3.level_dimension(n) == _colored_partition_count(n, 6)


@pytest.mark.parametrize(
    "order,pbw",
    [
        pytest.param(order, pbw, id=name if pbw is PBW_D_FIRST else f"{name}-{pbw.name}")
        for pbw in (PBW_D_FIRST, PBW_I_FIRST)
        for order, name in ((1, "trivial"), (2, "b2"), (3, "m3"))
    ],
)
def test_verma_level_count_matches_the_listing(order, pbw):
    """The Euler-transform count equals the listed monomials, levels 0..6, in both PBW orders."""
    coeffs = PolynomialCoefficients(0) if order == 1 else QuotientCoefficients((q_at(0, order),))
    M = TruncatedVerma(HighestWeightFunctional.zero(), coeffs, max_level=6, order=pbw)
    for n in range(7):
        assert M.level_dimension(n) == len(M.level_monomials(n))


def test_verma_level_count_refuses_a_level_too_large_to_list():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=1200)
    # two factor kinds per degree: level 24 is the last one within the limit
    assert M.level_dimension(24) == _colored_partition_count(24, 2) <= MAX_LEVEL_MONOMIALS
    for level in (25, 1200):
        with pytest.raises(ConfigurationError, match=f"level {level} has more than {MAX_LEVEL_MONOMIALS}"):
            M.level_monomials(level)
        with pytest.raises(ConfigurationError):
            M.level_dimension(level)
    assert M._level_cache == {}


def test_verma_negative_level_is_refused_and_not_cached():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=3)
    for probe in (M.level_monomials, M.level_dimension):
        with pytest.raises(ConfigurationError, match="level must be >= 0"):
            probe(-1)
    assert -1 not in M._level_cache
    with pytest.raises(LevelOverflowError):
        M.level_dimension(4)


def test_vector_rendering():
    v = WeightVector({0: ONE, 2: HALF})
    assert v.render() == "v[0] + 1/2*v[2]"
    qc = QuotientCoefficients((q_at(0, 2),))
    w = PBWVector({(("d", -1, (0, (1,))),): Scalar(-2), (): ONE})
    text = w.render(qc)
    assert "hw" in text and "d(-1)" in text
    assert PBWVector().render(HV) == "0"


def test_a_gaussian_coefficient_renders_as_one_factor():
    """Every text form parenthesizes a coefficient with both parts nonzero."""
    c = parse_scalar("1/3+1/2*i")
    V = IntermediateSeries(c, 0, 1)
    assert V.act(gen_elt(HV, d(1)), V.basis_vector(0)).render() == "(1/3+1/2*i)*v[1]"
    assert PBWVector({(("I", -1, ()),): c}).render(HV) == "(1/3+1/2*i)*I(-1)·hw"
    assert PolyT({1: c}).render() == "(1/3+1/2*i)*t"
    assert PolyB(1, {(1,): c}).render() == "(1/3+1/2*i)*b1"
    assert gen_elt(HV, d(1), coefficient=c).render() == "(1/3+1/2*i)*d(1)"
    assert WeightVector({0: Scalar(Fraction(-1, 2)), 1: IMAG * -2}).render() == "-1/2*v[0] + -2*i*v[1]"


def test_verma_alternative_order_same_action_values():
    phi = HighestWeightFunctional({("d0", ()): Scalar(2), ("I0", ()): Scalar(3)})
    M1 = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4)
    M2 = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4, order=PBW_I_FIRST)
    hw1, hw2 = M1.highest_weight_vector(), M2.highest_weight_vector()
    word = [d(-1), I(-1), d(1), I(1), d(2), d(-2)]
    v1, v2 = hw1, hw2
    for g in word:
        v1 = M1.act(gen_elt(HV, g), v1)
        v2 = M2.act(gen_elt(HV, g), v2)
    # both chains end at level 0: the scalars must agree
    assert v1.coeff(()) == v2.coeff(())


# -- tensor products ---------------------------------------------------------


def _two_point_tensor(max_level=6):
    qL, qR = q_at(0, 2), q_at(1, 2)
    phiL = HighestWeightFunctional({("d0", (0, (0,))): ONE, ("I0", (0, (1,))): Scalar(2)})
    phiR = HighestWeightFunctional({("d0", (0, (0,))): Scalar(10), ("C_D", (0, (1,))): ONE})
    left = EvaluationModule(qL, TruncatedVerma(phiL, QuotientCoefficients((qL,)), max_level=max_level))
    right = EvaluationModule(qR, TruncatedVerma(phiR, QuotientCoefficients((qR,)), max_level=max_level))
    return TensorModule(left, right)


def test_tensor_weight_adds():
    T = _two_point_tensor()
    tv = TensorVector.pure((), ())
    assert T.act(gen_elt(T.algebra(), d(0)), tv) == Scalar(11) * tv


def test_tensor_zero_element_acts_as_zero():
    from hvkit.algebra import zero_element

    T = _two_point_tensor()
    assert T.act(zero_element(T.algebra()), TensorVector.pure((), ())).is_zero


def test_tensor_leibniz():
    T = _two_point_tensor()
    x = gen_elt(T.algebra(), d(-1), (1,))
    tv = TensorVector.pure((), ())
    out = T.act(x, tv)
    lw = T.left.act(x, T.left.basis_vector(()))
    rw = T.right.act(x, T.right.basis_vector(()))
    expect = {}
    for key, c in lw.terms.items():
        expect[(key, ())] = c
    for key, c in rw.terms.items():
        expect[((), key)] = expect.get(((), key), ZERO) + c
    assert out == TensorVector(expect)


def test_tensor_module_axiom_spot():
    T = _two_point_tensor(max_level=8)
    ops = [gen_elt(T.algebra(), d(n), (r,)) for n in (-2, -1, 0, 1, 2) for r in (0, 1)]
    ops += [gen_elt(T.algebra(), I(n), (r,)) for n in (-2, 2) for r in (0, 1)]
    tv = TensorVector.pure((), ())
    for x in ops:
        for y in ops:
            lhs = T.act(bracket(x, y), tv)
            rhs = T.act(x, T.act(y, tv)) - T.act(y, T.act(x, tv))
            assert lhs == rhs


def test_tensor_rejects_mismatched_algebras():
    left = IntermediateSeries(0, 0, 1)
    right = OmegaModule(1, 0, (Scalar(0),), 0)
    with pytest.raises(DimensionMismatchError):
        TensorModule(left, right)


# -- descriptors -------------------------------------------------------------


def test_descriptor_round_trips():
    qc = QuotientCoefficients((q_at(0, 2),))
    modules = [
        IntermediateSeries(HALF, Scalar(1), Scalar(2)),
        IntermediateSeries.primed_zero(),
        OmegaModule(2, 3, (Scalar(5), Scalar(1, 1)), 7),
        EvaluationModule(q_at(2, 1), IntermediateSeries(HALF, 0, 1)),
        TruncatedVerma(
            HighestWeightFunctional({("d0", (0, (1,))): HALF}), qc, max_level=3
        ),
        _two_point_tensor(max_level=2),
    ]
    for mod in modules:
        desc = mod.describe()
        rebuilt = module_from_descriptor(desc)
        assert rebuilt.describe() == desc


def test_descriptor_rejects_unknown_fields():
    with pytest.raises(ConfigurationError):
        module_from_descriptor({"family": "omega", "lambda": "1", "alpha": "0", "mu": [], "beta": "0", "x": 1})
    with pytest.raises(ConfigurationError):
        module_from_descriptor({"family": "nope"})
    with pytest.raises(ConfigurationError):
        module_from_descriptor({"family": "intermediate", "alpha": "0", "beta": "0"})


_LINE = {"family": "intermediate", "alpha": "0", "beta": "0", "F": "0"}
_OMEGA = {"family": "omega", "lambda": "2", "alpha": "3", "mu": ["1"], "beta": "0"}


def _at_two(order: int, inner: dict):
    return {"family": "evaluation", "point": ["2"], "order": order, "inner": inner}


def _quotients(*quotients):
    return {"family": "verma", "quotients": [{"point": p, "order": s} for p, s in quotients]}


@pytest.mark.parametrize(
    "descriptor, error, message",
    [
        (dict(_LINE, alpha="1", drop_line=0), ConfigurationError,
         "module: drop_line requires the degenerate parameters alpha+drop_line=0, beta=0, f=0"),
        (_at_two(2, _LINE), ConfigurationError,
         "module: a core-algebra inner module supports only order-1 evaluation"),
        (_quotients((["0"], 2), (["0"], 3)), ConfigurationError, "module.quotients: quotient points must be distinct"),
        (_quotients((["0"], 2), (["1", "2"], 2)), DimensionMismatchError, "module.quotients: all quotient points must share k"),
        (_quotients((["0"], 0)), ConfigurationError, "module.quotients[0]: jet order must be >= 1, got 0"),
        (dict(_quotients((["0"], 2)), max_level=0), ConfigurationError, "module: max_level must be >= 1"),
        ({"family": "tensor", "left": _OMEGA, "right": _LINE}, DimensionMismatchError,
         "module: tensor factors live over different algebras"),
        ({"family": "tensor", "left": _LINE, "right": _at_two(0, _LINE)}, ConfigurationError,
         "module.right: jet order must be >= 1, got 0"),
        ({"family": "tensor", "left": _LINE, "right": _at_two(1, dict(_OMEGA, **{"lambda": "0"}))}, ConfigurationError,
         "module.right.inner: lambda must be nonzero"),
        (_at_two(1, _quotients((["0"], 0))), ConfigurationError,
         "module.inner.quotients[0]: jet order must be >= 1, got 0"),
    ],
    ids=["drop-line", "order-2-over-the-core", "repeated-point", "mixed-k", "jet-order", "max-level",
         "tensor-algebras", "nested-jet-order", "twice-nested-lambda", "nested-quotient-order"],
)
def test_a_constructor_refusal_names_its_descriptor_once(descriptor, error, message):
    with pytest.raises(error) as caught:
        module_from_descriptor(descriptor)
    assert str(caught.value) == message


def _jet_verma(order: int, point: int, exp: list):
    return {
        "family": "verma",
        "quotients": [{"point": ["0"], "order": order}, {"point": ["1"], "order": 2}],
        "phi": [{"gen": "d0", "point": point, "exp": exp, "value": "1"}],
    }


@pytest.mark.parametrize(
    "point,exp",
    [(2, [0]), (-1, [0]), (0, []), (0, [0, 0]), (0, [-1]), (0, [3]), (1, [2])],
    ids=["point-past-the-quotients", "negative-point", "short-exp", "long-exp", "negative-exp",
         "degree-past-the-order", "degree-past-the-second-order"],
)
def test_a_phi_key_outside_the_quotient_basis_is_refused(point, exp):
    with pytest.raises(ConfigurationError, match=r"module.phi\[0\]: key .* outside the quotient basis"):
        module_from_descriptor(_jet_verma(3, point, exp))


def test_phi_keys_are_checked_without_listing_the_quotient_basis(monkeypatch):
    for point, exp in ((0, [0]), (0, [2]), (1, [1])):
        module = module_from_descriptor(_jet_verma(3, point, exp))
        assert module.phi("d0", (point, tuple(exp))) == ONE
        assert (point, tuple(exp)) in module.coefficient_keys()

    def no_listing(*_args):
        raise AssertionError("the quotient basis was listed")

    monkeypatch.setattr(JetQuotient, "basis", no_listing)
    module = module_from_descriptor(_jet_verma(10**8, 0, [10**8 - 1]))
    assert module.coeffs.dimension == 10**8 + 2
    assert module.coeffs.keys_upto(1) == [(0, (0,)), (0, (1,)), (1, (0,)), (1, (1,))]


SQUARE_ZERO = QuotientCoefficients((JetQuotient((ZERO,), 2),))  # C[b]/(b^2)


@pytest.mark.parametrize(
    "coeffs,key",
    [(SQUARE_ZERO, (0, (5,))), (SQUARE_ZERO, (3, (0,))), (SQUARE_ZERO, ()), (HV, (0, (0,))), (HV, (0,))],
    ids=["degree-past-the-order", "point-past-the-quotients", "trivial-key-over-a-quotient",
         "quotient-key-over-trivial-B", "exponent-over-trivial-B"],
)
def test_a_verma_refuses_a_phi_key_outside_its_coefficient_basis(coeffs, key):
    """Such a value would be dropped: no basis key reads it, so φ would act as zero there."""
    with pytest.raises(ConfigurationError, match=r"phi key .* of d0 is outside the coefficient basis"):
        TruncatedVerma(HighestWeightFunctional({("d0", key): ONE}), coeffs)


def test_phi_keys_are_checked_by_arithmetic_at_every_order(monkeypatch):
    def no_listing(*_args):
        raise AssertionError("the quotient basis was listed")

    monkeypatch.setattr(JetQuotient, "basis", no_listing)
    coeffs = QuotientCoefficients((JetQuotient((ZERO,), 10**8),))
    start = time.perf_counter()
    top = TruncatedVerma(HighestWeightFunctional({("d0", (0, (10**8 - 1,))): ONE}), coeffs)
    assert top.phi("d0", (0, (10**8 - 1,))) == ONE
    with pytest.raises(ConfigurationError, match="outside the coefficient basis"):
        TruncatedVerma(HighestWeightFunctional({("d0", (0, (10**8,))): ONE}), coeffs)
    with pytest.raises(ConfigurationError, match=r"^module.phi\[0\]: key \(0, \(100000000,\)\) outside the quotient basis$"):
        module_from_descriptor(_jet_verma(10**8, 0, [10**8]))
    assert time.perf_counter() - start < 1.0


def test_quotient_keys_upto_is_the_prefix_of_the_basis():
    for orders in ((1,), (3,), (2, 4)):
        for k in (0, 1, 2)[len(orders) > 1:]:  # k = 0 has the one point ()
            quotients = [JetQuotient((Scalar(i),) * k, order) for i, order in enumerate(orders)]
            coeffs = QuotientCoefficients(quotients)
            for bound in range(-1, 6):
                want = [key for key in coeffs.basis_keys() if sum(key[1]) <= bound]
                assert coeffs.keys_upto(bound) == want, (orders, k, bound)

