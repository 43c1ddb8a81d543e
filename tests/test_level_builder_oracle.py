"""Differential tests of the level builder's column reads and the spot-check's shared chains.

``analysis._reduced_levels`` reads each raising factor's column on each
basis monomial straight from ``module._column``, and ``pbw_order_spotcheck``
applies each distinct raising suffix once per handle.  The references below
are the loops they replaced, kept verbatim: the builder wraps every factor as
an algebra element and acts with ``module.act`` on a one-term vector, and the
chains re-apply every raising word from its lowered vector.  Both fast paths
must reproduce them exactly: every ``R_m`` pivot for pivot and entry for
entry, and the whole spot-check report, value mismatches and their order
included, also under the criterion-9 structure mutants, where the two
handles disagree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hvkit.algebra import (
    AlgebraElement,
    Generator,
    PolynomialCoefficients,
    QuotientCoefficients,
)
from hvkit.analysis import PbwSpotcheckReport, _reduced_levels, pbw_order_spotcheck
from hvkit.errors import ConfigurationError
from hvkit.linalg import sparse_rref
from hvkit.modules import (
    PBW_D_FIRST,
    PBW_I_FIRST,
    HighestWeightFunctional,
    PBWVector,
    PbwOrder,
    TruncatedVerma,
)
from hvkit.polys import JetQuotient
from hvkit.scalars import ONE, ZERO, Scalar
from mutants import STRUCTURE_MUTANTS

# -- the builder and chain loops as they were, kept as the oracle -------------------


def _reference_raising_factors(module: TruncatedVerma, level: int, raising: str) -> list:
    keys = module.coefficient_keys()
    if raising == "generators":
        gens = [("d", 1), ("d", 2), ("I", 1)]
    elif raising == "full":
        gens = [(kind, i) for i in range(1, level + 1) for kind in ("d", "I")]
    else:
        raise ConfigurationError(f"unknown raising set {raising!r}")
    return [(kind, idx, key) for (kind, idx) in gens for key in keys]


def _reference_factor_elements(coeffs, factors: list) -> dict:
    """Each (kind, index, key) factor as its single-term element."""
    return {fac: AlgebraElement(coeffs, {(Generator(fac[0], fac[1]), fac[2]): ONE}) for fac in factors}


def _reference_raising_words(factors: list, degree: int) -> list:
    """All ordered words over the factors with index degrees summing to `degree`."""
    if degree == 0:
        return [()]
    return [
        (fac,) + rest
        for fac in factors
        if fac[1] <= degree
        for rest in _reference_raising_words(factors, degree - fac[1])
    ]


def _reference_quotient_coordinates(reduced: list, monos: list) -> dict:
    """Column view of reduced rows: each monomial's coordinates in V/M."""
    out: dict = {}
    for i, (_pivot, row) in enumerate(reduced):
        for j, c in row.items():
            out.setdefault(monos[j], {})[i] = c
    return out


def _reference_reduced_levels(module: TruncatedVerma, level: int, raising: str):
    ops = _reference_factor_elements(module.coeffs, _reference_raising_factors(module, level, raising))
    # quotient coordinates by level: coords[m][mono] = {row of R_m: coefficient}
    coords: list = []
    reduced = [(0, {0: ONE})]  # R_0: M_0 = 0, the coordinate is the hw coefficient
    yield reduced
    for m in range(1, level + 1):
        coords.append(_reference_quotient_coordinates(reduced, module.level_monomials(m - 1)))
        rows: list = []
        for fac, op in ops.items():
            if fac[1] > m:
                continue
            below = coords[m - fac[1]]
            fac_rows: dict = {}
            for j, mono in enumerate(module.level_monomials(m)):
                image = module.act(op, PBWVector({mono: ONE}))
                for m2, c in image.terms.items():
                    for i, rc in below.get(m2, {}).items():
                        row = fac_rows.setdefault(i, {})
                        row[j] = row.get(j, ZERO) + c * rc
            rows.extend(fac_rows.values())
        reduced = sparse_rref(rows)
        yield reduced


def _reference_pbw_order_spotcheck(
    module: TruncatedVerma,
    alternative_order: PbwOrder,
    level_bound: int = 3,
    alternative_structure=None,
) -> PbwSpotcheckReport:
    alt = TruncatedVerma(
        module.phi,
        module.coeffs,
        max_level=module.max_level,
        order=alternative_order,
        structure=alternative_structure or module.structure,
    )
    report = PbwSpotcheckReport()
    # per handle: dim V_m from its listing, one builder pass, dim M_m = dim V_m - len(R_m)
    dims, sing = [], []
    for h in (module, alt):
        dims.append([len(h.level_monomials(m)) for m in range(level_bound + 1)])
        sing.append([dim - len(r) for dim, r in zip(dims[-1], _reference_reduced_levels(h, level_bound, "generators"))])
    report.rows = list(zip(range(level_bound + 1), *dims, *sing))

    keys = module.coefficient_keys()
    lowering = [("d", -i, key) for i in (1, 2) for key in keys]
    lowering += [("I", -i, key) for i in (1, 2) for key in keys]
    lowering_words = [(f,) for f in lowering] + [
        (f1, f2) for f1 in lowering for f2 in lowering
    ]
    raising = _reference_raising_factors(module, level_bound, "generators")
    ops = _reference_factor_elements(module.coeffs, lowering + raising)
    for word in lowering_words:
        level = -sum(f[1] for f in word)
        if level > min(level_bound, module.max_level):
            continue
        va = module.highest_weight_vector()
        vb = alt.highest_weight_vector()
        for fac in reversed(word):
            va = module.act(ops[fac], va)
            vb = alt.act(ops[fac], vb)
        for rword in _reference_raising_words(raising, level):
            wa, wb = va, vb
            for fac in reversed(rword):
                wa = module.act(ops[fac], wa)
                wb = alt.act(ops[fac], wb)
            report.values_compared += 1
            if wa.coeff(()) != wb.coeff(()):
                report.value_mismatches.append((word, rword))
    return report


# -- modules ----------------------------------------------------------------------

SLOTS = ("d0", "I0", "C", "C_D", "C_I")
ALGEBRAS = {
    "trivial": PolynomialCoefficients(0),
    "b2": QuotientCoefficients((JetQuotient((ZERO,), 2),)),
    "m3": QuotientCoefficients((JetQuotient((ZERO,), 3),)),
}


_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).filter(bool)


@st.composite
def _functionals(draw, coeffs):
    """Generic (every value a nonzero real), Gaussian, or degenerate (the
    Heisenberg slots I0, C_D and C_I zero, so I_{-1}.hw is singular)."""
    kind = draw(st.sampled_from(["generic", "gaussian", "degenerate"]))
    values = {}
    for slot in SLOTS:
        for key in coeffs.basis_keys():
            if kind == "degenerate" and slot in ("I0", "C_D", "C_I"):
                continue
            im = draw(_fractions) if kind == "gaussian" else 0
            values[(slot, key)] = Scalar(draw(_fractions), im)
    return HighestWeightFunctional(values)


def _generic(coeffs):
    """Nonzero Gaussian values on every (slot, key)."""
    pairs = [(slot, key) for slot in SLOTS for key in coeffs.basis_keys()]
    return HighestWeightFunctional(
        {pair: Scalar(Fraction(n + 2, 3), Fraction(n % 2, 2)) for n, pair in enumerate(pairs)}
    )


# -- the level builder --------------------------------------------------------------


@st.composite
def _builder_cases(draw):
    algebra = draw(st.sampled_from(sorted(ALGEBRAS)))
    coeffs = ALGEBRAS[algebra]
    raising = draw(st.sampled_from(["generators", "full"]))
    # B/m^3 at level 4 lists 315 monomials; keep it to the generator set there
    top = 3 if algebra == "m3" and raising == "full" else 4
    level = draw(st.integers(0, top))
    return draw(_functionals(coeffs)), coeffs, level, raising


def _both_builders(phi, coeffs, level, raising):
    # fresh handles on each side, so that neither reads the other's caches
    def handle():
        return TruncatedVerma(phi, coeffs, max_level=max(level, 1))

    return (
        list(_reduced_levels(handle(), level, raising)),
        list(_reference_reduced_levels(handle(), level, raising)),
    )


@settings(max_examples=60, deadline=None)
@given(_builder_cases())
def test_builder_rows_match_the_act_reference(case):
    got, want = _both_builders(*case)
    assert got == want


@pytest.mark.parametrize("raising", ["generators", "full"])
@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
def test_builder_rows_match_the_act_reference_at_level_3(algebra, raising):
    coeffs = ALGEBRAS[algebra]
    got, want = _both_builders(_generic(coeffs), coeffs, 3, raising)
    assert got == want


# -- the spot-check's chains --------------------------------------------------------


def _both_spotchecks(phi, coeffs, max_level, order, level_bound, structure):
    module, twin = (TruncatedVerma(phi, coeffs, max_level=max_level) for _ in range(2))
    got = pbw_order_spotcheck(module, order, level_bound=level_bound, alternative_structure=structure)
    want = _reference_pbw_order_spotcheck(twin, order, level_bound=level_bound, alternative_structure=structure)
    return got, want


@st.composite
def _spotcheck_cases(draw):
    algebra = draw(st.sampled_from(["trivial", "b2"]))
    coeffs = ALGEBRAS[algebra]
    phi = draw(_functionals(coeffs))
    max_level = draw(st.integers(1, 4))
    level_bound = draw(st.integers(0, min(max_level, 3)))
    order = draw(st.sampled_from([PBW_D_FIRST, PBW_I_FIRST]))
    structure = draw(st.sampled_from([None, *STRUCTURE_MUTANTS.values()]))
    return phi, coeffs, max_level, order, level_bound, structure


@settings(max_examples=60, deadline=None)
@given(_spotcheck_cases())
def test_spotcheck_report_matches_the_chain_reference(case):
    got, want = _both_spotchecks(*case)
    assert got == want


@pytest.mark.parametrize("structure", sorted(STRUCTURE_MUTANTS))
@pytest.mark.parametrize("algebra", ["trivial", "b2"])
def test_spotcheck_mismatches_match_the_chain_reference_under_structure_mutants(algebra, structure):
    coeffs = ALGEBRAS[algebra]
    got, want = _both_spotchecks(_generic(coeffs), coeffs, 3, PBW_I_FIRST, 3, STRUCTURE_MUTANTS[structure])
    assert want.value_mismatches, "the mutant must show in the chain values"
    assert got == want
