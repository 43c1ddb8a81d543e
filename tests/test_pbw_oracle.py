"""Differential tests of the PBW-order spot-check and the level builder.

``_reference_pbw_order_spotcheck`` is the spot-check as it was before the
level builder: it calls ``singular_vectors`` once per level and per handle,
so every call rebuilds the lower levels.  It is kept verbatim, together with
the ``singular_vectors`` and raising-word helpers it used then, so that it
shares nothing with ``analysis._reduced_levels``.  The library spot-check
runs the builder once per handle and reads each singular dimension as
``level_dimension(m) - len(R_m)``; both must report the same rows, summary
and mismatches, and must raise the same error when the level bound passes
the truncation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hvkit import analysis
from hvkit.algebra import (
    AlgebraElement,
    Generator,
    PolynomialCoefficients,
    QuotientCoefficients,
)
from hvkit.analysis import PbwSpotcheckReport, _reduced_levels, pbw_order_spotcheck, singular_vectors
from hvkit.errors import ConfigurationError, LevelOverflowError
from hvkit.linalg import sparse_kernel, sparse_rref
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

# -- the per-level spot-check, kept as the oracle ---------------------------------


def _reference_raising_factors(module: TruncatedVerma, level: int, raising: str) -> list:
    keys = module.coefficient_keys()
    if raising == "generators":
        gens = [("d", 1), ("d", 2), ("I", 1)]
    elif raising == "full":
        gens = [(kind, i) for i in range(1, level + 1) for kind in ("d", "I")]
    else:
        raise ConfigurationError(f"unknown raising set {raising!r}")
    return [(kind, idx, key) for (kind, idx) in gens for key in keys]


def _reference_raising_words(factors: list, degree: int) -> list:
    """All ordered words over the factors with index degrees summing to `degree`."""
    out: list = []

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


def _reference_quotient_coordinates(reduced: list, monos: list) -> dict:
    """Column view of reduced rows: each monomial's coordinates in V/M."""
    out: dict = {}
    for i, (_pivot, row) in enumerate(reduced):
        for j, c in row.items():
            out.setdefault(monos[j], {})[i] = c
    return out


def _reference_singular_vectors(module: TruncatedVerma, level: int, raising: str = "generators") -> list:
    monos = module.level_monomials(level)
    if level < 0:
        raise ConfigurationError(f"level must be >= 0, got {level}")
    factors = _reference_raising_factors(module, level, raising)
    single_ops = {
        fac: AlgebraElement(module.coeffs, {(Generator(fac[0], fac[1]), fac[2]): ONE})
        for fac in factors
    }
    # quotient coordinates by level: coords[m][mono] = {row of R_m: coefficient}
    coords: list = []
    reduced = [(0, {0: ONE})]  # R_0: M_0 = 0, the coordinate is the hw coefficient
    for m in range(1, level + 1):
        coords.append(_reference_quotient_coordinates(reduced, module.level_monomials(m - 1)))
        rows: list = []
        for fac in factors:
            if fac[1] > m:
                continue
            below = coords[m - fac[1]]
            fac_rows: dict = {}
            for j, mono in enumerate(module.level_monomials(m)):
                image = module.act(single_ops[fac], PBWVector({mono: ONE}))
                for m2, c in image.terms.items():
                    for i, rc in below.get(m2, {}).items():
                        row = fac_rows.setdefault(i, {})
                        row[j] = row.get(j, ZERO) + c * rc
            rows.extend(fac_rows.values())
        reduced = sparse_rref(rows)
    return [
        PBWVector({monos[j]: c for j, c in vec.items()})
        for vec in sparse_kernel(reduced, len(monos))
    ]


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
    for level in range(level_bound + 1):
        da = module.level_dimension(level)
        db = alt.level_dimension(level)
        sa = len(_reference_singular_vectors(module, level))
        sb = len(_reference_singular_vectors(alt, level))
        report.rows.append((level, da, db, sa, sb))

    keys = module.coefficient_keys()
    lowering = [("d", -i, key) for i in (1, 2) for key in keys]
    lowering += [("I", -i, key) for i in (1, 2) for key in keys]
    lowering_words = [(f,) for f in lowering] + [
        (f1, f2) for f1 in lowering for f2 in lowering
    ]
    for word in lowering_words:
        level = -sum(f[1] for f in word)
        if level > min(level_bound, module.max_level):
            continue
        va = module.highest_weight_vector()
        vb = alt.highest_weight_vector()
        for fac in reversed(word):
            x = AlgebraElement(module.coeffs, {(Generator(fac[0], fac[1]), fac[2]): ONE})
            va = module.act(x, va)
            vb = alt.act(x, vb)
        for rword in _reference_raising_words(_reference_raising_factors(module, level, "generators"), level):
            wa, wb = va, vb
            for fac in reversed(rword):
                x = AlgebraElement(module.coeffs, {(Generator(fac[0], fac[1]), fac[2]): ONE})
                wa = module.act(x, wa)
                wb = alt.act(x, wb)
            report.values_compared += 1
            if wa.coeff(()) != wb.coeff(()):
                report.value_mismatches.append((word, rword))
    return report


# -- modules ----------------------------------------------------------------------

SLOTS = ("d0", "I0", "C", "C_D", "C_I")


def _coeffs(algebra):
    if algebra == "trivial":
        return PolynomialCoefficients(0)
    return QuotientCoefficients((JetQuotient((ZERO,), 2),))


_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _functionals(draw, coeffs):
    """Zero, real or Gaussian values on every (slot, key), some left at zero."""
    kind = draw(st.sampled_from(["zero", "real", "gaussian"]))
    values = {}
    if kind == "zero":
        return HighestWeightFunctional(values)
    for slot in SLOTS:
        for key in coeffs.basis_keys():
            re = draw(_fractions)
            im = draw(_fractions) if kind == "gaussian" else 0
            values[(slot, key)] = Scalar(re, im)
    return HighestWeightFunctional(values)


def _outcome(check, module, order, level_bound, structure):
    try:
        report = check(module, order, level_bound=level_bound, alternative_structure=structure)
    except LevelOverflowError as exc:
        return ("raises", LevelOverflowError, str(exc))
    return (report.summary(), report.rows, report.value_mismatches)


@st.composite
def _cases(draw):
    algebra = draw(st.sampled_from(["trivial", "b2"]))
    coeffs = _coeffs(algebra)
    phi = draw(_functionals(coeffs))
    max_level = draw(st.integers(1, 4))
    level_bound = draw(st.integers(0, 3))
    order = draw(st.sampled_from([PBW_D_FIRST, PBW_I_FIRST]))
    structure = draw(st.sampled_from([None, STRUCTURE_MUTANTS["dropped-C_D"]]))
    return TruncatedVerma(phi, coeffs, max_level=max_level), order, level_bound, structure


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_spotcheck_matches_the_per_level_reference(case):
    module, order, level_bound, structure = case
    # fresh handles on each side, so that neither reads the other's caches
    twin = TruncatedVerma(module.phi, module.coeffs, max_level=module.max_level)
    got = _outcome(pbw_order_spotcheck, module, order, level_bound, structure)
    want = _outcome(_reference_pbw_order_spotcheck, twin, order, level_bound, structure)
    assert got == want


def _generic(coeffs):
    """Nonzero Gaussian values on every (slot, key)."""
    pairs = [(slot, key) for slot in SLOTS for key in coeffs.basis_keys()]
    return {pair: Scalar(Fraction(n + 2, 3), Fraction(n % 2, 2)) for n, pair in enumerate(pairs)}


@pytest.mark.parametrize("structure", [None, STRUCTURE_MUTANTS["dropped-C_D"]], ids=["hv", "dropped-C_D"])
@pytest.mark.parametrize("order", [PBW_D_FIRST, PBW_I_FIRST], ids=lambda o: o.name)
def test_spotcheck_matches_the_reference_on_b2_level_3(order, structure):
    coeffs = _coeffs("b2")
    got, want = (
        _outcome(check, TruncatedVerma(HighestWeightFunctional(_generic(coeffs)), coeffs, max_level=3),
                 order, 3, structure)
        for check in (pbw_order_spotcheck, _reference_pbw_order_spotcheck)
    )
    assert got == want


@pytest.mark.parametrize("algebra", ["trivial", "b2"])
def test_spotcheck_parity_past_the_truncation(algebra):
    def run(check):
        coeffs = _coeffs(algebra)
        module = TruncatedVerma(HighestWeightFunctional(_generic(coeffs)), coeffs, max_level=2)
        return _outcome(check, module, PBW_I_FIRST, 3, None)

    got, want = run(pbw_order_spotcheck), run(_reference_pbw_order_spotcheck)
    assert got == want
    assert got[0] == "raises"


# -- the builder against singular_vectors ------------------------------------------


@pytest.mark.parametrize("generic", [False, True], ids=["zero", "generic"])
@pytest.mark.parametrize("algebra,level", [("trivial", 5), ("b2", 4)])
def test_builder_levels_are_the_rows_singular_vectors_records(algebra, level, generic, monkeypatch):
    coeffs = _coeffs(algebra)
    phi = _generic(coeffs) if generic else {}

    def module():
        return TruncatedVerma(HighestWeightFunctional(phi), coeffs, max_level=level)

    built = list(_reduced_levels(module(), level, "generators"))
    assert len(built) == level + 1
    assert built[0] == [(0, {0: ONE})]
    for m in range(1, level + 1):
        recorded = []

        def recording(rows):
            recorded.append(sparse_rref(rows))
            return recorded[-1]

        monkeypatch.setattr(analysis, "sparse_rref", recording)
        handle = module()
        dim = len(singular_vectors(handle, m))
        monkeypatch.undo()
        assert len(recorded) == m
        assert recorded == built[1 : m + 1]
        assert dim == handle.level_dimension(m) - len(built[m])
