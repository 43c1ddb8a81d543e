"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -s`` to see them live).  Everything is
exact arithmetic: a criterion passes only when the checked identities hold
on the nose.
"""

import random
import time
from fractions import Fraction

from hvkit.algebra import (
    PolynomialCoefficients,
    QuotientCoefficients,
    jacobi_antisymmetry_sweep,
    sweep_terms,
)
from hvkit.analysis import (
    annihilator_probe,
    axiom_sweep,
    hc_criterion_suite,
    omega_invariants,
    probe_irreducible,
    singular_vectors,
)
from hvkit.modules import (
    EvaluationModule,
    HighestWeightFunctional,
    IntermediateSeries,
    OmegaModule,
    TensorModule,
    TruncatedVerma,
)
from hvkit.polys import JetQuotient, PolyB
from hvkit.scalars import ONE, ZERO, Scalar
from mutants import STRUCTURE_MUTANTS, OffByOneOmega
from test_singular_oracle import _reference_singular_vectors

HALF = Scalar(Fraction(1, 2))

V_GRID = [
    (Scalar(a), Scalar(b), Scalar(f))
    for a in (0, 1, Fraction(1, 2))
    for b in (0, 1, 2)
    for f in (0, 1)
]

OMEGA_GRID = [
    (Scalar(lam), Scalar(al), (Scalar(mu),), Scalar(be))
    for lam in (1, 2)
    for al in (0, 1)
    for mu in (0, 3)
    for be in (0, 1)
]


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _verma_functional_full(qc: QuotientCoefficients) -> HighestWeightFunctional:
    values = {}
    seed = 1
    for key in qc.basis_keys():
        for slot in ("d0", "I0", "C", "C_D", "C_I"):
            values[(slot, key)] = Scalar(Fraction(seed, 2))
            seed += 1
    return HighestWeightFunctional(values)


def test_criterion_1_jacobi_sweep():
    t0 = time.time()
    report = jacobi_antisymmetry_sweep(6, 2, 2)
    elapsed = time.time() - t0
    nterms = len(sweep_terms(6, 2, 2))
    ok = (
        report.clean
        and report.triples_checked == nterms**3
        and report.pairs_checked == nterms * (nterms + 1) // 2
        and elapsed < 60
    )
    _line(
        1,
        ok,
        f"jacobi+antisymmetry sweep |n|<=6 |r|<=2 k=2: {report.triples_checked} triples, "
        f"{len(report.jacobi_violations)} jacobi / {len(report.antisymmetry_violations)} "
        f"antisymmetry violations, {elapsed:.1f}s",
    )


def test_criterion_2_module_axiom_sweep():
    t0 = time.time()
    pieces = []

    for alpha, beta, f in V_GRID:
        rep = axiom_sweep(IntermediateSeries(alpha, beta, f), 5, 0, window=8)
        pieces.append(("intermediate", rep))
    for lam, alpha, mu, beta in OMEGA_GRID:
        rep = axiom_sweep(OmegaModule(lam, alpha, mu, beta), 5, 2, window=4)
        pieces.append(("omega", rep))

    eval1 = EvaluationModule(
        JetQuotient((Scalar(2),), 1), IntermediateSeries(HALF, ZERO, ONE)
    )
    pieces.append(("evaluation order 1", axiom_sweep(eval1, 5, 2, window=6)))

    q2 = JetQuotient((ZERO,), 2)
    qc2 = QuotientCoefficients((q2,))
    phi2 = _verma_functional_full(qc2)
    eval2 = EvaluationModule(q2, TruncatedVerma(phi2, qc2, max_level=12))
    pieces.append(("evaluation order 2", axiom_sweep(eval2, 5, 2, window=2)))

    verma6 = TruncatedVerma(phi2, qc2, max_level=6)
    pieces.append(("verma level 6", axiom_sweep(verma6, 5, 2, window=2)))

    qL, qR = JetQuotient((ZERO,), 2), JetQuotient((ONE,), 2)
    qcL, qcR = QuotientCoefficients((qL,)), QuotientCoefficients((qR,))
    tensor = TensorModule(
        EvaluationModule(qL, TruncatedVerma(_verma_functional_full(qcL), qcL, max_level=11)),
        EvaluationModule(qR, TruncatedVerma(_verma_functional_full(qcR), qcR, max_level=11)),
    )
    pieces.append(("tensor", axiom_sweep(tensor, 5, 2, window=1)))

    elapsed = time.time() - t0
    total = sum(rep.triples_checked for _n, rep in pieces)
    bad = [name for name, rep in pieces if not rep.clean]
    inconclusive = sum(len(rep.inconclusive) for _n, rep in pieces)
    ok = not bad and elapsed < 120
    _line(
        2,
        ok,
        f"module-axiom sweep over {len(pieces)} modules, {total} triples, "
        f"violations in {bad or 'none'}, {inconclusive} truncation-inconclusive, {elapsed:.1f}s",
    )


def test_criterion_3_reducibility_concordance():
    mismatches = []
    for alpha, beta, f in V_GRID:
        report = probe_irreducible(IntermediateSeries(alpha, beta, f), 4, 3)
        expected = (
            f.is_zero
            and alpha.im == 0
            and alpha.re.denominator == 1
            and beta in (ZERO, ONE)
        )
        if report.reducible != expected:
            mismatches.append((alpha, beta, f))
    w000 = probe_irreducible(IntermediateSeries(0, 0, 0), 4, 3).witness
    w010 = probe_irreducible(IntermediateSeries(0, 1, 0), 4, 3).witness
    ok = (
        not mismatches
        and w000 == {"kind": "lines", "lines": [0]}
        and w010 == {"kind": "complement-of-lines", "lines": [0]}
    )
    _line(
        3,
        ok,
        f"intermediate-series verdicts match the F=0, integral alpha, beta in {{0,1}} "
        f"criterion on {len(V_GRID)} tuples; witnesses span{{v0}} and a 1-codimensional "
        f"complement; mismatches: {mismatches or 'none'}",
    )


def test_criterion_4_omega_classification():
    mismatches = []
    for lam, alpha, mu, beta in OMEGA_GRID:
        report = probe_irreducible(OmegaModule(lam, alpha, mu, beta), 4, 3)
        expected = alpha.is_zero and beta.is_zero
        witness_ok = (not expected) or report.witness == {"kind": "t-multiples"}
        if report.reducible != expected or not witness_ok:
            mismatches.append((lam, alpha, mu, beta))
    ok = not mismatches
    _line(
        4,
        ok,
        f"rank-one family verdicts match 'reducible iff alpha=beta=0' with witness t*C[t] "
        f"on {len(OMEGA_GRID)} tuples; mismatches: {mismatches or 'none'}",
    )


def _phi_grid_order3(qc: QuotientCoefficients):
    """Ten functionals over B/m^3: killers of each ideal plus generic ones."""
    u, b1, b2 = (0, (0,)), (0, (1,)), (0, (2,))
    mk = lambda vals: HighestWeightFunctional(vals)  # noqa: E731
    return [
        mk({}),
        mk({("d0", u): ONE}),
        mk({("I0", u): Scalar(2), ("C_D", u): Scalar(3)}),
        mk({("d0", b1): ONE}),
        mk({("I0", b1): Scalar(5), ("C_I", b1): ONE}),
        mk({("d0", b2): Scalar(2)}),
        mk({("C", b2): Scalar(4), ("I0", b2): ONE}),
        mk({("d0", u): HALF, ("I0", b1): Scalar(-1), ("C_D", b2): Scalar(3)}),
        mk({("d0", b1): Scalar(-2), ("C_I", u): ONE, ("C", b1): Scalar(7)}),
        mk({("d0", u): Scalar(1, 1), ("C_D", u): Scalar(0, 1), ("I0", b2): Scalar(3)}),
    ]


def test_criterion_5_identity_suite():
    t0 = time.time()
    q3 = JetQuotient((ZERO,), 3)
    qc3 = QuotientCoefficients((q3,))
    fs = [PolyB.const(1, 1), PolyB.variable(1, 0), PolyB.monomial((2,))]
    failures = []
    kills_exercised = 0
    for pi, phi in enumerate(_phi_grid_order3(qc3)):
        module = TruncatedVerma(phi, qc3, max_level=4)
        for f in fs:
            report = hc_criterion_suite(module, f, singular_depth=4)
            if not report.identities_pass:
                failures.append((pi, f.render(), "identity"))
            if not report.singular_pass:
                failures.append((pi, f.render(), "singular"))
            if report.phi_kills_ideal:
                kills_exercised += 1
                if len(report.singular_checks) != 8:
                    failures.append((pi, f.render(), "depth"))
    elapsed = time.time() - t0
    ok = not failures and kills_exercised >= 4
    _line(
        5,
        ok,
        f"five straightening identities hold for 10 functionals x {len(fs)} polynomials "
        f"over B/m^3; singular mechanism exercised in {kills_exercised} killing cases "
        f"(n <= 4); failures: {failures or 'none'}; {elapsed:.1f}s",
    )


def test_criterion_6_raising_word_oracles():
    rng = random.Random(2024)
    mismatches = []
    word_mismatches = []
    for trial in range(10):
        values = {
            (slot, ()): Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for slot in ("d0", "I0", "C", "C_D", "C_I")
        }
        M = TruncatedVerma(
            HighestWeightFunctional(values), PolynomialCoefficients(0), max_level=5
        )
        for level in range(5):
            a = sorted(v.render(M.coeffs) for v in singular_vectors(M, level, "generators"))
            b = sorted(v.render(M.coeffs) for v in singular_vectors(M, level, "full"))
            if a != b:
                mismatches.append((trial, level))
            words = sorted(v.render(M.coeffs) for v in _reference_singular_vectors(M, level))
            if a != words:
                word_mismatches.append((trial, level))
    ok = not mismatches and not word_mismatches
    _line(
        6,
        ok,
        f"restricted {{d1, d2, I1}} and full raising sets give identical kernels "
        f"at levels <= 4 for 10 random functionals; mismatches: {mismatches or 'none'}; "
        f"level recursion against the word kernel: {word_mismatches or 'none'}",
    )


def test_criterion_7_isomorphism_invariants():
    seen = set()
    failures = []
    for params in OMEGA_GRID:
        inv = omega_invariants(OmegaModule(*params))
        if inv != params:
            failures.append(params)
        seen.add(inv)
    ok = not failures and len(seen) == len(OMEGA_GRID) == 16
    _line(
        7,
        ok,
        f"invariant extraction inverts construction on {len(OMEGA_GRID)} parameter tuples "
        f"({len(seen)} distinct invariant tuples); failures: {failures or 'none'}",
    )


def test_criterion_8_annihilator_orders():
    mu = Scalar(2)
    shifted = PolyB.variable(1, 0) - PolyB.const(1, mu)
    failures = []
    for order in (1, 2, 3):
        if order == 1:
            spec = EvaluationModule(
                JetQuotient((mu,), 1), IntermediateSeries(HALF, ZERO, ONE)
            )
        else:
            q = JetQuotient((mu,), order)
            qc = QuotientCoefficients((q,))
            phi = HighestWeightFunctional(
                {("d0", (0, (0,))): ONE, ("I0", (0, (order - 1,))): Scalar(3)}
            )
            spec = EvaluationModule(q, TruncatedVerma(phi, qc, max_level=4))
        power = PolyB.const(1, 1)
        for _ in range(order):
            power = power * shifted
        lower = PolyB.const(1, 1)
        for _ in range(order - 1):
            lower = lower * shifted
        report = annihilator_probe(spec, [power, lower], window=2, index_bound=2)
        if not (report.entries[0][1] is True and report.entries[1][1] is False):
            failures.append(order)
    ok = not failures
    _line(
        8,
        ok,
        "maximal-ideal powers annihilate order-s evaluation windows at exactly s, "
        f"for s in {{1,2,3}}; failures: {failures or 'none'}",
    )


def test_criterion_9_mutation_controls():
    caught = {}
    rep = jacobi_antisymmetry_sweep(3, 1, 1, structure=STRUCTURE_MUTANTS["cocycle-quadratic"])
    caught["quadratic cocycle"] = not rep.clean
    rep = jacobi_antisymmetry_sweep(3, 1, 1, structure=STRUCTURE_MUTANTS["dropped-C_D"])
    caught["dropped C_D in the d-I bracket"] = not rep.clean
    rep = axiom_sweep(OffByOneOmega(2, 3, (ONE,), ZERO), 3, 1, window=2)
    caught["lambda exponent off by one"] = not rep.clean
    ok = all(caught.values())
    _line(
        9,
        ok,
        "seeded bugs caught by the criterion-1/2 sweeps: "
        + ", ".join(f"{name}={'caught' if hit else 'MISSED'}" for name, hit in caught.items()),
    )
