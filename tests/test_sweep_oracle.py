"""Differential tests of the table-driven Jacobi sweep against a direct sweep.

``_reference_sweep`` computes every nested bracket of every triple afresh from
the structure function, with no tables.  The table-driven
``jacobi_antisymmetry_sweep`` must produce the same report: the same counts
and the same violation lists, entry for entry and in the same order.
"""

from math import comb

import pytest
from hypothesis import given, strategies as st

from hvkit import algebra
from hvkit.algebra import (
    _CENTRAL_KINDS,
    JacobiSweepReport,
    StructureFn,
    hv_structure,
    jacobi_antisymmetry_sweep,
    sweep_terms,
)
from mutants import STRUCTURE_MUTANTS


def _reference_sweep(
    index_bound: int,
    monomial_bound: int,
    k: int,
    structure: StructureFn = hv_structure,
    max_violations: int = 20,
) -> JacobiSweepReport:
    """Direct sweep: every nested bracket is recomputed from ``structure``."""
    report = JacobiSweepReport(index_bound, monomial_bound, k)
    terms = sweep_terms(index_bound, monomial_bound, k)
    nterms = len(terms)

    def term_bracket(k1, n1, m1, k2, n2, m2):
        struct = structure(k1, n1, k2, n2)
        if not struct:
            return ()
        mono = tuple(a + b for a, b in zip(m1, m2))
        return tuple((kind, idx, mono, c) for kind, idx, c in struct)

    # pair table, antisymmetry, centrality
    pair_table = [None] * (nterms * nterms)
    for i, (k1, n1, m1) in enumerate(terms):
        base = i * nterms
        for j, (k2, n2, m2) in enumerate(terms):
            pair_table[base + j] = term_bracket(k1, n1, m1, k2, n2, m2)
    for i in range(nterms):
        for j in range(i, nterms):
            report.pairs_checked += 1
            acc: dict = {}
            for kind, idx, mono, c in pair_table[i * nterms + j]:
                key = (kind, idx, mono)
                acc[key] = acc.get(key, 0) + c
            for kind, idx, mono, c in pair_table[j * nterms + i]:
                key = (kind, idx, mono)
                acc[key] = acc.get(key, 0) + c
            if any(acc.values()) and len(report.antisymmetry_violations) < max_violations:
                report.antisymmetry_violations.append((terms[i], terms[j], dict(acc)))
    for i, (k1, n1, m1) in enumerate(terms):
        if k1 in _CENTRAL_KINDS or (k1 == "I" and n1 == 0):
            # I_0 is central in the core algebra; over coefficients this is
            # the statement [I_0 (x) p, g (x) q] = 0, swept here too.
            for j in range(nterms):
                if pair_table[i * nterms + j] or pair_table[j * nterms + i]:
                    if len(report.centrality_violations) < max_violations:
                        report.centrality_violations.append((terms[i], terms[j]))

    # Jacobi on all ordered triples
    triples = 0
    violations = report.jacobi_violations
    for i, (k1, n1, m1) in enumerate(terms):
        row_i = i * nterms
        for j in range(nterms):
            k2, n2, m2 = terms[j]
            row_j = j * nterms
            b_ij = pair_table[row_i + j]
            for l in range(nterms):
                triples += 1
                acc: dict = {}
                # [x, [y, z]]
                for kind, idx, mono, c in pair_table[row_j + l]:
                    for kk, ii, mm, cc in term_bracket(k1, n1, m1, kind, idx, mono):
                        key = (kk, ii, mm)
                        v = acc.get(key, 0) + c * cc
                        if v:
                            acc[key] = v
                        elif key in acc:
                            del acc[key]
                # [y, [z, x]]
                k3, n3, m3 = terms[l]
                for kind, idx, mono, c in pair_table[l * nterms + i]:
                    for kk, ii, mm, cc in term_bracket(k2, n2, m2, kind, idx, mono):
                        key = (kk, ii, mm)
                        v = acc.get(key, 0) + c * cc
                        if v:
                            acc[key] = v
                        elif key in acc:
                            del acc[key]
                # [z, [x, y]]
                for kind, idx, mono, c in b_ij:
                    for kk, ii, mm, cc in term_bracket(k3, n3, m3, kind, idx, mono):
                        key = (kk, ii, mm)
                        v = acc.get(key, 0) + c * cc
                        if v:
                            acc[key] = v
                        elif key in acc:
                            del acc[key]
                if acc and len(violations) < max_violations:
                    violations.append((terms[i], terms[j], terms[l], dict(acc)))
    report.triples_checked = triples
    return report


def _nterms(index_bound, monomial_bound, k):
    return (4 * index_bound + 5) * comb(monomial_bound + k, k)


# index 0-3, monomial 0-2, k 0-3, without the points whose direct sweep
# takes more than about half a second
GRID = [
    (n, m, k)
    for n in range(4)
    for m in range(3)
    for k in range(4)
    if _nterms(n, m, k) <= 54
]
SMALL_GRID = [bounds for bounds in GRID if _nterms(*bounds) <= 27]


def _assert_same(bounds, structure, max_violations=20):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "MAX_SWEEP_VIOLATIONS", max_violations)
        new = jacobi_antisymmetry_sweep(*bounds, structure=structure)
    ref = _reference_sweep(*bounds, structure=structure, max_violations=max_violations)
    assert new.pairs_checked == ref.pairs_checked
    assert new.triples_checked == ref.triples_checked
    assert new.antisymmetry_violations == ref.antisymmetry_violations
    assert new.centrality_violations == ref.centrality_violations
    assert new.jacobi_violations == ref.jacobi_violations
    assert new == ref
    return new


@pytest.mark.parametrize("bounds", GRID)
def test_hv_structure_matches_reference(bounds):
    assert _assert_same(bounds, hv_structure).clean


@pytest.mark.parametrize("structure", list(STRUCTURE_MUTANTS.values()))
@pytest.mark.parametrize("bounds", [b for b in GRID if _nterms(*b) <= 40])
def test_mutants_match_reference(bounds, structure):
    for max_violations in (0, 1, 20):
        _assert_same(bounds, structure, max_violations)


def test_violation_cap_default():
    assert algebra.MAX_SWEEP_VIOLATIONS == 20


def test_mutants_fire():
    for structure in STRUCTURE_MUTANTS.values():
        rep = _assert_same((3, 1, 1), structure)
        assert rep.jacobi_violations


_KINDS_OUT = ("d", "I") + _CENTRAL_KINDS
_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _perturbed(draw):
    """hv_structure with one (k1, n1, k2, n2) entry perturbed, plus sweep bounds."""
    bounds = draw(st.sampled_from(SMALL_GRID))
    k1, n1, _ = draw(st.sampled_from(sweep_terms(bounds[0], 0, 0)))
    k2, n2, _ = draw(st.sampled_from(sweep_terms(bounds[0], 0, 0)))
    out = list(hv_structure(k1, n1, k2, n2))
    op = draw(st.sampled_from(["scale", "drop", "fraction", "repeat", "cancel"]))
    if op in ("scale", "drop", "repeat") and not out:
        op = "fraction"
    if op == "scale":
        pos = draw(st.integers(0, len(out) - 1))
        kind, idx, c = out[pos]
        out[pos] = (kind, idx, c * draw(_coefficients))
    elif op == "drop":
        del out[draw(st.integers(0, len(out) - 1))]
    elif op == "repeat":
        kind, idx, _c = out[draw(st.integers(0, len(out) - 1))]
        out.append((kind, idx, draw(_coefficients)))
    else:
        kind = draw(st.sampled_from(_KINDS_OUT))
        idx = draw(st.integers(-2 * bounds[0] - 1, 2 * bounds[0] + 1)) if kind in ("d", "I") else 0
        c = draw(_coefficients.filter(bool))
        if op == "fraction":
            out.append((kind, idx, c))
        else:
            out += [(kind, idx, c), (kind, idx, -c)]
    entry, perturbed = (k1, n1, k2, n2), tuple(out)

    def structure(*args):
        return perturbed if args == entry else hv_structure(*args)

    max_violations = draw(st.sampled_from([0, 1, 20]))
    return bounds, structure, max_violations


@given(_perturbed())
def test_perturbed_structure_matches_reference(case):
    bounds, structure, max_violations = case
    _assert_same(bounds, structure, max_violations)


def test_structure_calls_independent_of_monomials():
    counts = []
    for monomial_bound in (0, 2):
        calls = []

        def structure(*args):
            calls.append(args)
            return hv_structure(*args)

        jacobi_antisymmetry_sweep(2, monomial_bound, 2, structure=structure)
        assert len(set(calls)) == len(calls)
        counts.append(len(calls))
    assert counts[0] == counts[1]
