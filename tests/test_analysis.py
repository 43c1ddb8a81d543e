import gc
import random
from fractions import Fraction

import pytest

from hvkit.algebra import (
    HV,
    PolynomialCoefficients,
    QuotientCoefficients,
    d,
    gen_elt,
    hv_structure,
)
from hvkit import analysis
from hvkit.analysis import (
    MAX_AXIOM_TRIPLES,
    WeightTuple,
    algebra_generator_elements,
    annihilator_probe,
    axiom_sweep,
    hc_criterion_suite,
    in_maximal_submodule,
    omega_invariants,
    pbw_order_spotcheck,
    probe_irreducible,
    singular_vectors,
    weight_table,
)
from hvkit.errors import ConfigurationError, UnsupportedModuleError
from hvkit.linalg import nullspace, rank
from hvkit.modules import (
    MAX_WINDOW_VECTORS,
    EvaluationModule,
    HighestWeightFunctional,
    IntermediateSeries,
    OmegaModule,
    PBW_I_FIRST,
    TensorModule,
    TruncatedVerma,
)
from hvkit.polys import JetQuotient, PolyB, PolyT
from hvkit.scalars import ONE, ZERO, Scalar
from mutants import STRUCTURE_MUTANTS, OffByOneOmega
from test_linalg_oracle import _functional

HALF = Scalar(Fraction(1, 2))


def q_at(value, order):
    return JetQuotient((Scalar(value),), order)


# -- exact linear algebra ----------------------------------------------------


def test_nullspace_simple():
    rows = [[ONE, Scalar(2), Scalar(3)], [Scalar(2), Scalar(4), Scalar(6)]]
    ker = nullspace(rows, 3)
    assert len(ker) == 2
    for vec in ker:
        for row in rows:
            acc = ZERO
            for a, b in zip(row, vec):
                acc = acc + a * b
            assert acc.is_zero
    assert rank(rows, 3) == 1


def test_nullspace_full_rank():
    rows = [[ONE, ZERO], [ZERO, Scalar(5)]]
    assert nullspace(rows, 2) == []


# -- axiom sweep -------------------------------------------------------------


def test_axiom_sweep_clean_families():
    assert axiom_sweep(IntermediateSeries(HALF, 0, 1), 5, 0, window=4).clean
    assert axiom_sweep(OmegaModule(2, 3, (Scalar(1),), 0), 5, 2, window=3).clean


def test_axiom_sweep_counts_inconclusive_on_truncation():
    qc = QuotientCoefficients((q_at(0, 2),))
    M = TruncatedVerma(HighestWeightFunctional.zero(), qc, max_level=2)
    report = axiom_sweep(M, 3, 1, window=2)
    assert report.clean
    assert report.inconclusive  # lowering chains overrun level 2


def test_axiom_sweep_catches_corrupted_action():
    bad = OffByOneOmega(2, 3, (Scalar(1),), 0)
    report = axiom_sweep(bad, 3, 1, window=2)
    assert report.violations


def test_axiom_sweep_keeps_the_least_violations_and_counts_them_all(monkeypatch):
    bad = OffByOneOmega(2, 3, (Scalar(1),), 0)
    full = axiom_sweep(bad, 2, 1, window=1)
    assert (full.violations_found, len(full.violations)) == (80, analysis.MAX_VIOLATION_SAMPLES)
    monkeypatch.setattr(analysis, "MAX_VIOLATION_SAMPLES", 3)
    kept = axiom_sweep(bad, 2, 1, window=1)
    assert kept.violations_found == full.violations_found
    assert kept.violations == full.violations[:3]


def test_axiom_sweep_seed_does_not_change_findings():
    bad = OffByOneOmega(2, 1, (Scalar(1),), 1)
    a = axiom_sweep(bad, 2, 1, window=2, order_seed=1)
    b = axiom_sweep(bad, 2, 1, window=2, order_seed=99)
    assert a.violations == b.violations


@pytest.mark.parametrize(
    "module",
    [
        OmegaModule(2, 3, (), 0),
        OmegaModule(2, 3, (ONE, HALF), 0),
        TruncatedVerma(HighestWeightFunctional.zero(), QuotientCoefficients((q_at(0, 2), q_at(1, 1))), 2),
    ],
    ids=["omega-k0", "omega-k2", "verma-two-points"],
)
def test_axiom_sweep_counts_its_pairs_exactly(monkeypatch, module):
    """Window 0 has one vector, so the budget binds first on the operator pairs."""
    for index_bound, monomial_bound in ((-1, 0), (0, -1), (1, 1), (1, 2)):
        nops = len(algebra_generator_elements(module.algebra(), index_bound, monomial_bound))
        npairs = nops * (nops - 1) // 2
        monkeypatch.setattr(analysis, "MAX_AXIOM_TRIPLES", npairs)
        assert axiom_sweep(module, index_bound, monomial_bound, window=0).triples_checked == npairs
        monkeypatch.setattr(analysis, "MAX_AXIOM_TRIPLES", npairs - 1)
        with pytest.raises(ConfigurationError, match="operator pairs"):
            axiom_sweep(module, index_bound, monomial_bound, window=0)


def test_the_largest_suite_sweep_has_headroom():
    """The criterion-2 tensor piece, (5, 2) on window 1 over C[b], is the largest sweep
    in the tests, the benchmark, the README and CI: 2,775 pairs and 69,375 triples."""
    nops = len(algebra_generator_elements(PolynomialCoefficients(1), 5, 2))
    triples = nops * (nops - 1) // 2 * 25  # 25 = 5 x 5 tensor basis vectors
    assert triples == 69_375
    assert 10 * triples <= MAX_AXIOM_TRIPLES


def _no_operators(*_args):
    raise AssertionError("an operator was built")


@pytest.mark.parametrize(
    "module,bounds",
    [
        (IntermediateSeries(HALF, 0, 1), (3000, 0)),
        (OmegaModule(2, 3, (Scalar(1), Scalar(2)), 0), (5, 10**50)),
        (OmegaModule(2, 3, (ONE,) * 100_000, 0), (0, 100_000)),
    ],
    ids=["index-3000", "monomial-1e50", "k-100000"],
)
def test_axiom_sweep_refuses_too_many_pairs_before_building(monkeypatch, module, bounds):
    monkeypatch.setattr(analysis, "algebra_generator_elements", _no_operators)
    with pytest.raises(ConfigurationError, match=f"more than {MAX_AXIOM_TRIPLES} operator pairs"):
        axiom_sweep(module, *bounds, window=2)


@pytest.mark.parametrize(
    "name,actions,run",
    [
        # 13 generators within operator 2, on the 5 lines of window 2
        ("a probe over operator 2, window 2", 65,
         lambda: probe_irreducible(IntermediateSeries(HALF, 0, 1), window=2, operator_bound=2)),
        # two polynomials times 9 generators within index 1, on the 3 lines of window 1
        ("an annihilator probe over index 1, window 1", 54,
         lambda: annihilator_probe(EvaluationModule(q_at(2, 1), IntermediateSeries(HALF, 0, 1)),
                                   [PolyB(1, {(1,): ONE}), PolyB(1, {(0,): ONE})], window=1, index_bound=1)),
        # 9 generators within operator 1, each decorated by the 3 keys of degree <= 1 in
        # two variables, on the 3 degrees of window 2
        ("a probe over operator 1, window 2", 81,
         lambda: probe_irreducible(OmegaModule(2, 3, (ONE, ONE), 0), window=2, operator_bound=1)),
    ],
    ids=["probe", "annihilator", "omega-probe"],
)
def test_probes_count_their_actions_before_building_an_operator(monkeypatch, name, actions, run):
    monkeypatch.setattr(analysis, "MAX_AXIOM_TRIPLES", actions)
    run()
    monkeypatch.setattr(analysis, "MAX_AXIOM_TRIPLES", actions - 1)
    monkeypatch.setattr(analysis, "_decorated", _no_operators)
    with pytest.raises(ConfigurationError, match=f"^{name} acts more than {actions - 1} times$"):
        run()


def _no_listing(*_args):
    raise AssertionError("exponent tuples were listed")


@pytest.mark.parametrize(
    "name,entries,run",
    [
        # the 4 keys of degree <= 1 in three variables, 3 entries each
        ("a probe over k 3", 12, lambda module: probe_irreducible(module, window=1, operator_bound=1)),
        # the 3 tuples of b_1, b_2, b_3
        ("rank-one invariants over k 3", 9, omega_invariants),
    ],
    ids=["probe", "invariants"],
)
def test_omega_keys_are_budgeted_before_they_are_listed(monkeypatch, name, entries, run):
    module = OmegaModule(2, 3, (ONE, Scalar(2), Scalar(5)), 1)
    monkeypatch.setattr(analysis, "MAX_SWEEP_EXPONENTS", entries)
    run(module)
    monkeypatch.setattr(analysis, "MAX_SWEEP_EXPONENTS", entries - 1)
    monkeypatch.setattr(PolynomialCoefficients, "keys_upto", _no_listing)
    monkeypatch.setattr(analysis, "_decorated", _no_operators)
    with pytest.raises(ConfigurationError, match=f"^{name}: {entries} exponent entries to list, more than {entries - 1}$"):
        run(module)


def test_axiom_sweep_refuses_too_many_triples_before_checking(monkeypatch):
    # index 200: 805 operators, 323,610 pairs; window 8 has 17 lines
    monkeypatch.setattr(analysis, "bracket", _no_operators)
    with pytest.raises(ConfigurationError, match=f"window 8 checks more than {MAX_AXIOM_TRIPLES} triples"):
        axiom_sweep(IntermediateSeries(HALF, 0, 1), 200, 0, window=8)


# -- window budget -----------------------------------------------------------


def _b2():
    return QuotientCoefficients((JetQuotient((ZERO,), 2),))


WINDOW_MODULES = {
    "intermediate": IntermediateSeries(HALF, 0, 1),
    "dropped-line": IntermediateSeries.primed_zero(),
    "omega": OmegaModule(2, 3, (ONE,), 0),
    "evaluation": EvaluationModule(JetQuotient((Scalar(2),), 1), IntermediateSeries(HALF, 0, 1)),
    "jet-verma": EvaluationModule(
        JetQuotient((ZERO,), 2), TruncatedVerma(HighestWeightFunctional.zero(), _b2(), max_level=2)
    ),
    "verma": TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=3),
    "tensor": TensorModule(
        IntermediateSeries(HALF, 0, 1),
        TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=2),
    ),
}


@pytest.mark.parametrize("name", sorted(WINDOW_MODULES))
def test_window_size_counts_the_listing(name):
    module = WINDOW_MODULES[name]
    for window in range(-1, 5):
        assert module.window_size(window) == len(module.window_keys(window)), window


def test_window_budget_boundary():
    line, omega = WINDOW_MODULES["intermediate"], WINDOW_MODULES["omega"]
    assert len(line.window_keys(49_999)) == 99_999
    # an Ω window of degree w weighs its (w + 1)(w + 2)/2 image coefficients
    assert len(omega.window_keys(445)) == 446
    for module, window in ((line, 50_000), (omega, 446)):
        with pytest.raises(ConfigurationError, match=f"more than {MAX_WINDOW_VECTORS} to list"):
            module.window_keys(window)


@pytest.mark.parametrize("name", sorted(WINDOW_MODULES))
def test_window_cost_is_the_size_except_on_omega(name):
    module = WINDOW_MODULES[name]
    for window in range(-3, 5):
        n = module.window_size(window)
        assert module.window_cost(window) == (n * (n + 1) // 2 if name == "omega" else n), window


def test_omega_weighs_its_coefficients_inside_wrappers():
    omega = OmegaModule(2, 0, (), 0)
    wrapped = EvaluationModule(JetQuotient((Scalar(2),), 1), omega)
    assert len(wrapped.window_keys(445)) == 446
    with pytest.raises(ConfigurationError, match=r"window 446 has 447 vectors, .* \(weighed as 100128,"):
        wrapped.window_keys(446)
    # (2w + 1) lines times (w + 1)(w + 2)/2: 98,371 at w = 45, 104,904 at w = 46
    tensor = TensorModule(IntermediateSeries(HALF, 0, 1), omega)
    assert len(tensor.window_keys(45)) == 91 * 46
    with pytest.raises(ConfigurationError, match=r"\(weighed as 104904,"):
        tensor.window_keys(46)


def _no_listing(*_args):
    raise AssertionError("the window was listed")


@pytest.mark.parametrize(
    "call",
    [
        lambda m: weight_table(m, window=10**8),
        lambda m: probe_irreducible(m, 10**8),
        lambda m: axiom_sweep(m, 0, 0, window=10**8),
        lambda m: annihilator_probe(m, [PolyB.const(0, 1)], window=10**8),
    ],
    ids=["weights", "probe-irreducible", "check-axioms", "annihilator"],
)
def test_a_huge_window_is_refused_before_it_is_listed(monkeypatch, call):
    for family in (IntermediateSeries, OmegaModule, EvaluationModule, TruncatedVerma, TensorModule):
        monkeypatch.setattr(family, "_window_keys", _no_listing)
    with pytest.raises(ConfigurationError, match=f"window 100000000 has 200000001 vectors, more than {MAX_WINDOW_VECTORS}"):
        call(IntermediateSeries(HALF, 0, 1))


# -- weight tables -----------------------------------------------------------


def test_weight_table_intermediate():
    table = weight_table(IntermediateSeries(HALF, 0, 1), window=4)
    assert len(table) == 9
    assert set(table.values()) == {1}
    expected = {WeightTuple(HALF + k, ONE, ZERO, ZERO, ZERO) for k in range(-4, 5)}
    assert set(table) == expected


def test_weight_table_trivial_line():
    table = weight_table(IntermediateSeries(0, 0, 0), window=0)
    assert table == {WeightTuple(ZERO, ZERO, ZERO, ZERO, ZERO): 1}


def test_weight_table_verma_levels():
    phi = HighestWeightFunctional({("d0", ()): Scalar(7), ("C", ()): HALF})
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=3)
    table = weight_table(M, window=2)
    dims = sorted(table.values())
    assert dims == [1, 2, 5]
    for wt, _dim in table.items():
        assert wt.C == HALF
        assert wt.d0 in {Scalar(7), Scalar(6), Scalar(5)}


def test_weight_table_rejects_non_weight_module():
    with pytest.raises(UnsupportedModuleError):
        weight_table(OmegaModule(2, 0, (Scalar(1),), 0), window=2)


# -- reducibility probes -----------------------------------------------------


def test_probe_grid_matches_classification():
    # reducible exactly when F = 0, alpha integral, beta in {0, 1}
    for alpha in (Scalar(0), Scalar(1), HALF):
        for beta in (Scalar(0), Scalar(1), Scalar(2)):
            for f in (Scalar(0), Scalar(1)):
                report = probe_irreducible(IntermediateSeries(alpha, beta, f), 4, 3)
                expected = f.is_zero and alpha.im == 0 and alpha.re.denominator == 1 and beta in (ZERO, ONE)
                assert report.reducible == expected, (alpha, beta, f)


def test_probe_witnesses():
    r = probe_irreducible(IntermediateSeries(0, 0, 0), 4, 3)
    assert r.witness == {"kind": "lines", "lines": [0]}
    r = probe_irreducible(IntermediateSeries(0, 1, 0), 4, 3)
    assert r.witness == {"kind": "complement-of-lines", "lines": [0]}
    r = probe_irreducible(IntermediateSeries(1, 0, 0), 4, 3)
    assert r.witness == {"kind": "lines", "lines": [-1]}


def test_probe_omega():
    r = probe_irreducible(OmegaModule(2, 0, (Scalar(1),), 0), 4, 3)
    assert r.reducible and r.witness == {"kind": "t-multiples"}
    assert not probe_irreducible(OmegaModule(2, 1, (Scalar(1),), 0), 4, 3).reducible
    assert not probe_irreducible(OmegaModule(2, 0, (Scalar(1),), 1), 4, 3).reducible


def test_probe_through_evaluation_wrapper():
    E = EvaluationModule(q_at(3, 1), IntermediateSeries(0, 0, 0))
    r = probe_irreducible(E, 4, 2)
    assert r.reducible and r.witness == {"kind": "lines", "lines": [0]}


OMEGA_GRID = [(lam, alpha, beta) for lam in (2, -HALF) for alpha in (0, 1, HALF) for beta in (0, 1)]


@pytest.mark.parametrize("lam,alpha,beta", OMEGA_GRID)
@pytest.mark.parametrize("point", [0, 2, Fraction(-1, 2)])
def test_an_evaluation_over_omega_is_probed_as_omega(lam, alpha, beta, point):
    """An order-1 evaluation acts by unit-decorated operators exactly as its inner
    module does, and the t*C[t] probe reads the inner Ω's verdict and witness."""
    inner = OmegaModule(lam, alpha, (), beta)
    wrapped = probe_irreducible(EvaluationModule(q_at(point, 1), inner), 4, 3)
    assert wrapped.summary() == probe_irreducible(inner, 4, 3).summary()


def test_the_omega_grid_holds_both_verdicts():
    verdicts = {probe_irreducible(OmegaModule(*params[:2], (), params[2]), 4, 3).reducible for params in OMEGA_GRID}
    assert verdicts == {True, False}


@pytest.mark.parametrize("alpha,beta,f", [(0, 0, 0), (0, 1, 0), (1, 0, 0), (HALF, 0, 1)])
def test_an_evaluation_over_an_evaluation_is_probed_by_lines(alpha, beta, f):
    inner = IntermediateSeries(alpha, beta, f)
    wrapped = EvaluationModule(q_at(3, 1), EvaluationModule(JetQuotient((), 1), inner))
    assert probe_irreducible(wrapped, 4, 2).summary() == probe_irreducible(inner, 4, 2).summary()


def test_probe_rejects_verma():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=2)
    with pytest.raises(UnsupportedModuleError):
        probe_irreducible(M, 2, 2)


# -- singular vectors --------------------------------------------------------


def test_singular_level_one_zero_functional():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=4)
    assert len(singular_vectors(M, 1)) == 2


def test_singular_level_one_d0_functional():
    phi = HighestWeightFunctional({("d0", ()): ONE})
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4)
    kernel = singular_vectors(M, 1)
    assert len(kernel) == 1
    assert list(kernel[0].terms) == [(("I", -1, ()),)]


def test_singular_level_one_central_charge():
    phi = HighestWeightFunctional({("C_I", ()): ONE})
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4)
    kernel = singular_vectors(M, 1)
    # I(-1) escapes: I1 I(-1) hw = phi(C_I) hw != 0; d(-1) stays singular
    assert len(kernel) == 1
    assert list(kernel[0].terms) == [(("d", -1, ()),)]


def test_restricted_and_full_words_agree():
    rng = random.Random(11)
    for _ in range(4):
        vals = {
            (slot, ()): Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for slot in ("d0", "I0", "C", "C_D", "C_I")
        }
        M = TruncatedVerma(HighestWeightFunctional(vals), PolynomialCoefficients(0), max_level=5)
        for level in range(5):
            a = singular_vectors(M, level, "generators")
            b = singular_vectors(M, level, "full")
            assert sorted(v.render(M.coeffs) for v in a) == sorted(v.render(M.coeffs) for v in b)


def test_restricted_and_full_words_agree_with_jets():
    """tools/singular_levels.py's degenerate functional over C[b]/(b^2), whose
    slices at levels 0..3 have dimensions 0, 2, 9 and 30."""
    qc = QuotientCoefficients((q_at(0, 2),))
    M = TruncatedVerma(_functional("degenerate", qc), qc, max_level=4)
    dims = []
    for level in range(4):
        a = singular_vectors(M, level, "generators")
        b = singular_vectors(M, level, "full")
        assert sorted(v.render(M.coeffs) for v in a) == sorted(v.render(M.coeffs) for v in b)
        dims.append(len(a))
    assert dims == [0, 2, 9, 30]


def test_membership_agrees_with_kernel():
    phi = HighestWeightFunctional({("d0", ()): ONE, ("C_D", ()): HALF})
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4)
    for level in (1, 2, 3):
        for vec in singular_vectors(M, level):
            assert in_maximal_submodule(M, vec)
    hw = M.highest_weight_vector()
    assert not in_maximal_submodule(M, M.act(gen_elt(HV, d(-2)), hw))


def test_membership_leaves_no_reference_cycle():
    # with the collector off, a cycle would outlive the call and be counted
    # by the next collection, the module handle and its caches among it
    M = TruncatedVerma(HighestWeightFunctional({}), PolynomialCoefficients(0), max_level=4)
    vec = M.act(gen_elt(HV, d(-2)), M.highest_weight_vector())
    gc.collect()
    gc.disable()
    try:
        assert in_maximal_submodule(M, vec)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- highest-weight criterion suite -------------------------------------------


def _mk_verma(phi_values, order=3, max_level=4):
    qc = QuotientCoefficients((q_at(0, order),))
    return TruncatedVerma(HighestWeightFunctional(phi_values), qc, max_level=max_level)


def test_hc_identities_hold_for_nonkilling_functional():
    # functional with full support so every right-hand side is nonzero
    keys = [(0, (0,)), (0, (1,)), (0, (2,))]
    vals = {}
    value = 1
    for slot in ("d0", "I0", "C", "C_D", "C_I"):
        for key in keys:
            vals[(slot, key)] = Scalar(value)
            value += 1
    M = _mk_verma(vals)
    for f in (PolyB.const(1, 1), PolyB.variable(1, 0), PolyB.monomial((2,))):
        report = hc_criterion_suite(M, f)
        assert report.identities_pass, f.render()
        assert not report.phi_kills_ideal
        assert report.passed


def test_hc_singular_mechanism_positive():
    # phi kills the zero part tensored with the ideal (b1): all decorated
    # lowering vectors must fall into the maximal submodule
    vals = {("d0", (0, (0,))): Scalar(2), ("C_I", (0, (0,))): ONE}
    M = _mk_verma(vals)
    for f in (PolyB.variable(1, 0), PolyB.monomial((2,))):
        report = hc_criterion_suite(M, f)
        assert report.phi_kills_ideal
        assert report.passed
        assert len(report.singular_checks) == 8  # d/I times n = 1..4


def test_hc_negative_control():
    vals = {("d0", (0, (1,))): ONE}  # phi(d0 (x) b1) != 0
    M = _mk_verma(vals)
    report = hc_criterion_suite(M, PolyB.variable(1, 0))
    assert not report.phi_kills_ideal
    assert ("d(-2)(x)f.hw", False, False) in report.singular_checks
    assert report.passed


def test_hc_ideal_vs_pointwise_kill():
    # phi kills every slot at the b1 key but sees d0 (x) b1^2: the ideal (b1)
    # is not killed, so no singular expectation is raised for f = b1
    vals = {("d0", (0, (2,))): Scalar(2)}
    M = _mk_verma(vals)
    report = hc_criterion_suite(M, PolyB.variable(1, 0))
    assert not report.phi_kills_ideal
    assert report.passed
    # ... while f = b1^2 generates a killed ideal and gets the full mechanism
    vals = {("I0", (0, (1,))): Scalar(5)}
    M = _mk_verma(vals)
    report = hc_criterion_suite(M, PolyB.monomial((2,)))
    assert report.phi_kills_ideal and report.passed


def test_hc_trivial_coefficients():
    phi = HighestWeightFunctional.zero()
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4)
    report = hc_criterion_suite(M, PolyB.const(0, 1))
    assert report.phi_kills_ideal and report.passed


def test_hc_rejects_f_that_is_zero_in_the_coefficient_algebra():
    M = _mk_verma({("d0", (0, (0,))): ONE}, order=2, max_level=3)
    with pytest.raises(ConfigurationError, match="f: zero in the coefficient algebra"):
        hc_criterion_suite(M, PolyB.monomial((2,)))
    with pytest.raises(ConfigurationError, match="f: zero in the coefficient algebra"):
        hc_criterion_suite(M, PolyB.zero(1))
    # b1 survives in C[b]/(b^2), so the same module still runs the suite
    assert hc_criterion_suite(M, PolyB.variable(1, 0)).passed


@pytest.mark.parametrize("mutant, failing", [("cocycle-quadratic", "d2.(d-2(x)f)"), ("dropped-C_D", "d2.(I-2(x)f)")])
def test_hc_identities_catch_the_structure_mutants(mutant, failing):
    """The right-hand sides are brackets under hv_structure, so a module
    straightening with a wrong structure function fails an identity."""
    phi = HighestWeightFunctional({("C", ()): Scalar(3), ("C_D", ()): Scalar(5)})
    f = PolyB.const(0, 1)
    assert hc_criterion_suite(TruncatedVerma(phi, PolynomialCoefficients(0), max_level=2), f).identities_pass
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=2, structure=STRUCTURE_MUTANTS[mutant])
    report = hc_criterion_suite(M, f)
    assert (failing, False) in report.identities
    assert not report.passed


# -- rank-one invariants -----------------------------------------------------


def test_invariants_round_trip_grid():
    seen = set()
    for lam in (Scalar(1), Scalar(2)):
        for alpha in (Scalar(0), Scalar(3)):
            for mu in ((Scalar(0),), (Scalar(5),)):
                for beta in (Scalar(0), Scalar(7)):
                    module = OmegaModule(lam, alpha, mu, beta)
                    inv = omega_invariants(module)
                    assert inv == (lam, alpha, mu, beta)
                    seen.add(inv)
    assert len(seen) == 16


def test_invariants_gaussian_parameters():
    module = OmegaModule(Scalar(0, 1), Scalar(1, -1), (Scalar(2, 3),), Scalar(Fraction(1, 2)))
    assert omega_invariants(module) == (
        Scalar(0, 1),
        Scalar(1, -1),
        (Scalar(2, 3),),
        Scalar(Fraction(1, 2)),
    )


def test_invariants_reject_non_rank_one_action():
    class NotOmega(OmegaModule):
        def act(self, x, f):
            return PolyT((ONE, ONE, ONE))

    with pytest.raises(UnsupportedModuleError):
        omega_invariants(NotOmega(1, 0, (), 0))


# -- annihilator probes ------------------------------------------------------


def _eval_spec(order):
    mu = Scalar(2)
    if order == 1:
        return EvaluationModule(q_at(2, 1), IntermediateSeries(HALF, 0, 1))
    q = q_at(2, order)
    qc = QuotientCoefficients((q,))
    top = (0, (order - 1,))
    phi = HighestWeightFunctional({("d0", (0, (0,))): ONE, ("I0", top): Scalar(3)})
    return EvaluationModule(q, TruncatedVerma(phi, qc, max_level=4))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_annihilator_orders(order):
    E = _eval_spec(order)
    shifted = PolyB.variable(1, 0) - PolyB.const(1, 2)  # b1 - 2 generates m
    power = PolyB.const(1, 1)
    for _ in range(order):
        power = power * shifted
    lower = PolyB.const(1, 1)
    for _ in range(order - 1):
        lower = lower * shifted
    report = annihilator_probe(E, [power, lower], window=2, index_bound=2)
    assert report.entries[0][1] is True  # m^s annihilates
    assert report.entries[1][1] is False  # m^(s-1) does not


def test_annihilator_merges_terms_before_the_truncation():
    # d(-2) (x) (b-2)^2 on a level-2 vector: each monomial of (b-2)^2 alone would
    # lower to level 4 > max_level 3, but the jet image of the sum is zero
    q = q_at(2, 2)
    phi = HighestWeightFunctional({("d0", (0, (0,))): ONE, ("I0", (0, (1,))): Scalar(3)})
    E = EvaluationModule(q, TruncatedVerma(phi, QuotientCoefficients((q,)), max_level=3))
    shifted = PolyB.variable(1, 0) - PolyB.const(1, 2)
    report = annihilator_probe(E, [shifted * shifted, shifted], window=2, index_bound=2)
    assert [ann for _p, ann in report.entries] == [True, False]


def test_annihilator_unit_on_nontrivial_module():
    E = _eval_spec(1)
    report = annihilator_probe(E, [PolyB.const(1, 1)], window=2)
    assert report.entries[0][1] is False


# -- PBW order spot-check ----------------------------------------------------


def test_singular_vectors_refuses_a_negative_level_before_listing():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=3)
    with pytest.raises(ConfigurationError, match="level must be >= 0"):
        singular_vectors(M, -1)
    assert -1 not in M._level_cache


def _builder_reads(module, level, factor_indices):
    """Columns the level builder reads: each factor of index <= m on each monomial of V_m."""
    return sum(
        sum(i <= m for i in factor_indices) * module.level_dimension(m) for m in range(1, level + 1)
    )


@pytest.mark.parametrize("raising", ["generators", "full"])
def test_the_level_builder_counts_its_reads_before_the_first(monkeypatch, raising):
    # two coefficient keys; d_1, I_1, d_2 on each, or d_i, I_i for i <= 3 on each
    indices = [1, 1, 2] * 2 if raising == "generators" else [i for i in (1, 2, 3) for _ in range(4)]
    module = TruncatedVerma(HighestWeightFunctional.zero(), _b2(), max_level=3)
    reads = _builder_reads(module, 3, indices)
    monkeypatch.setattr(analysis, "MAX_BUILDER_READS", reads)
    assert len(singular_vectors(module, 3, raising)) == module.level_dimension(3)  # phi = 0: all of V_3
    monkeypatch.setattr(analysis, "MAX_BUILDER_READS", reads - 1)
    monkeypatch.setattr(TruncatedVerma, "_column", _no_listing)
    with pytest.raises(ConfigurationError, match=f"level 3 reads {reads} columns, more than {reads - 1}$"):
        singular_vectors(module, 3, raising)


def test_the_builder_budget_has_headroom_over_the_largest_listed_pass():
    """``tools/singular_levels.py --max-level 6`` (the README's run) is the largest builder
    pass listed anywhere: 5,926 reads; the budget is over ten times that."""
    module = TruncatedVerma(HighestWeightFunctional.zero(), _b2(), max_level=6)
    reads = _builder_reads(module, 6, [1, 1, 2] * 2)
    assert reads == 5_926
    assert analysis.MAX_BUILDER_READS >= 10 * reads


def test_pbw_spotcheck_passes():
    phi = HighestWeightFunctional(
        {("d0", ()): Scalar(2), ("I0", ()): ONE, ("C_D", ()): Scalar(3)}
    )
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4)
    report = pbw_order_spotcheck(M, PBW_I_FIRST, level_bound=3)
    assert report.passed
    assert [row[1] for row in report.rows] == [1, 2, 5, 10]


def test_pbw_spotcheck_identical_orders():
    M = TruncatedVerma(HighestWeightFunctional.zero(), PolynomialCoefficients(0), max_level=3)
    from hvkit.modules import PBW_D_FIRST

    assert pbw_order_spotcheck(M, PBW_D_FIRST, level_bound=2).passed


def test_pbw_spotcheck_catches_corrupted_straightening():
    def dropped_central(k1, n1, k2, n2):
        out = hv_structure(k1, n1, k2, n2)
        if k1 == "d" and k2 == "I":
            return tuple(t for t in out if t[0] != "CD")
        return out

    phi = HighestWeightFunctional(
        {("d0", ()): ONE, ("I0", ()): Scalar(2), ("C_D", ()): Scalar(5)}
    )
    M = TruncatedVerma(phi, PolynomialCoefficients(0), max_level=4)
    report = pbw_order_spotcheck(
        M, PBW_I_FIRST, level_bound=3, alternative_structure=dropped_central
    )
    assert not report.passed
    assert report.value_mismatches
