"""Differential tests of the highest-weight criterion suite, and the interop
contract of ``PolyB`` as a :class:`~hvkit.scalars.Combination`.

``_project_poly`` and ``_reference_hc_criterion_suite`` are the suite as it
was before both coefficient algebras answered ``basis_keys()`` and
``project()``: it branches on the coefficient algebra, evaluates the
functional generator by generator and walks the kill check by hand.  The
library suite must give the same summary on trivial B, B/m^2, B/m^3 and a
two-point quotient, for zero, Gaussian and sparse functionals and every f
whose image in the coefficient algebra is nonzero (the library refuses a
zero image; the reference passes vacuously there).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hvkit.algebra import (
    C,
    C_D,
    C_I,
    AlgebraElement,
    Generator,
    PolynomialCoefficients,
    QuotientCoefficients,
    d,
    gen_elt,
    I,
)
from hvkit.analysis import HcSuiteReport, hc_criterion_suite, in_maximal_submodule, unit_element
from hvkit.errors import ConfigurationError, DimensionMismatchError, HvkitError, LevelOverflowError
from hvkit.modules import HighestWeightFunctional, TruncatedVerma, WeightVector
from hvkit.polys import JetQuotient, PolyB
from hvkit.scalars import ONE, ZERO, Combination, Scalar

# -- the suite before the shared coefficient interface, kept as the oracle ----


def _project_poly(coeffs, f: PolyB) -> dict:
    if isinstance(coeffs, QuotientCoefficients):
        if f.k != coeffs.k:
            raise DimensionMismatchError("polynomial k mismatch with quotient")
        return coeffs.project(f)
    if isinstance(coeffs, PolynomialCoefficients) and coeffs.k == 0:
        if f.k != 0:
            raise DimensionMismatchError("trivial coefficients need k=0 polynomials")
        c = f.terms.get((), ZERO)
        return {(): c} if not c.is_zero else {}
    raise ConfigurationError(f"unsupported coefficient algebra {coeffs!r}")


def _reference_hc_criterion_suite(module: TruncatedVerma, f: PolyB, singular_depth: int = 4) -> HcSuiteReport:
    """Check the five straightening identities behind the highest-weight
    finiteness criterion, plus the singular-kernel mechanism.

    The identities are bracket identities, so they must pass for every
    functional.  When the functional kills the whole zero part tensored
    with the ideal generated by f, the lowering vectors decorated by f land
    in the maximal submodule; when the functional sees d_0 (x) f, the
    double-d_1 word certifies the d_{-2} (x) f vector escapes it.
    """
    report = HcSuiteReport()
    coeffs = module.coeffs
    fim = _project_poly(coeffs, f)
    hw = module.highest_weight_vector()

    def decorated(g: Generator) -> AlgebraElement:
        return AlgebraElement(coeffs, {(g, key): c for key, c in fim.items()})

    def phi_of(g: Generator) -> Scalar:
        acc = ZERO
        for key, c in fim.items():
            acc = acc + c * module.phi.of_generator(g, key)
        return acc

    u = lambda g: unit_element(coeffs, g)  # noqa: E731
    dm2f = module.act(decorated(d(-2)), hw)
    im2f = module.act(decorated(I(-2)), hw)

    half = Scalar(1) / 2
    checks = [
        (
            "d2.(d-2(x)f)",
            module.act(u(d(2)), dm2f),
            (Scalar(-4) * phi_of(d(0)) + half * phi_of(C)) * hw,
        ),
        (
            "d1.d1.(d-2(x)f)",
            module.act(u(d(1)), module.act(u(d(1)), dm2f)),
            (6 * phi_of(d(0))) * hw,
        ),
        (
            "I2.(d-2(x)f)",
            module.act(u(I(2)), dm2f),
            (Scalar(-2) * phi_of(I(0)) - 2 * phi_of(C_D)) * hw,
        ),
        (
            "d2.(I-2(x)f)",
            module.act(u(d(2)), im2f),
            (Scalar(-2) * phi_of(I(0)) + 6 * phi_of(C_D)) * hw,
        ),
        (
            "I2.(I-2(x)f)",
            module.act(u(I(2)), im2f),
            (2 * phi_of(C_I)) * hw,
        ),
    ]
    for name, lhs, rhs in checks:
        report.identities.append((name, lhs == rhs))

    # does the functional kill the zero part tensored with the ideal (f)?
    ideal_span = []
    basis_keys = (
        [()] if isinstance(coeffs, PolynomialCoefficients) else coeffs.basis_keys()
    )
    for bkey in basis_keys:
        prod: dict = {}
        for fkey, fc in fim.items():
            key2 = coeffs.multiply(fkey, bkey)
            if key2 is not None:
                prod[key2] = prod.get(key2, ZERO) + fc
        if any(not c.is_zero for c in prod.values()):
            ideal_span.append(prod)
    kills = True
    for prod in ideal_span:
        for slot_gen in (d(0), I(0), C, C_D, C_I):
            acc = ZERO
            for key, c in prod.items():
                acc = acc + c * module.phi.of_generator(slot_gen, key)
            if not acc.is_zero:
                kills = False
                break
        if not kills:
            break
    report.phi_kills_ideal = kills

    depth = min(singular_depth, module.max_level)
    if kills:
        for n in range(1, depth + 1):
            for kind, gen in (("d", d(-n)), ("I", I(-n))):
                vec = module.act(decorated(gen), hw)
                report.singular_checks.append(
                    (f"{kind}(-{n})(x)f.hw", True, in_maximal_submodule(module, vec))
                )
    else:
        if not phi_of(d(0)).is_zero and module.max_level >= 2:
            report.singular_checks.append(
                ("d(-2)(x)f.hw", False, in_maximal_submodule(module, dm2f))
            )
        escape_i = (
            not (Scalar(-2) * phi_of(I(0)) + 6 * phi_of(C_D)).is_zero
            or not phi_of(C_I).is_zero
        )
        if escape_i and module.max_level >= 2:
            report.singular_checks.append(
                ("I(-2)(x)f.hw", False, in_maximal_submodule(module, im2f))
            )
    return report




# -- strategies ---------------------------------------------------------------

ALGEBRAS = {
    "trivial-B": PolynomialCoefficients(0),
    "m2": QuotientCoefficients((JetQuotient((Scalar(1),), 2),)),
    "m3": QuotientCoefficients((JetQuotient((ZERO,), 3),)),
    "two-point": QuotientCoefficients((JetQuotient((ZERO,), 2), JetQuotient((Scalar(-1),), 1))),
}
SLOTS = ("d0", "I0", "C", "C_D", "C_I")
VALUES = st.one_of(
    st.sampled_from([ONE, Scalar(-2), Scalar(Fraction(1, 2))]),
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda ab: Scalar(*ab)),
)


@st.composite
def functionals(draw, coeffs):
    """Zero, dense Gaussian or sparse values on (slot, coefficient key)."""
    cells = [(slot, key) for slot in SLOTS for key in coeffs.basis_keys()]
    mode = draw(st.sampled_from(["zero", "gaussian", "sparse"]))
    if mode == "zero":
        return HighestWeightFunctional.zero()
    if mode == "gaussian":
        return HighestWeightFunctional({cell: draw(VALUES) for cell in cells})
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True))
    return HighestWeightFunctional({cell: draw(VALUES) for cell in chosen})


@st.composite
def polys(draw, k):
    exps = st.just(()) if k == 0 else st.tuples(st.integers(0, 3))
    return PolyB(k, draw(st.dictionaries(exps, VALUES, min_size=1, max_size=3)))


def _outcome(suite, module, f, depth):
    try:
        return "ok", suite(module, f, singular_depth=depth).summary()
    except HvkitError as exc:
        return "raises", type(exc)


@settings(max_examples=60)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@given(data=st.data())
def test_suite_matches_reference(name, data):
    coeffs = ALGEBRAS[name]
    phi = data.draw(functionals(coeffs), label="phi")
    f = data.draw(polys(coeffs.k), label="f")
    assume(_project_poly(coeffs, f))
    max_level = data.draw(st.integers(2, 3), label="max_level")
    depth = data.draw(st.integers(0, 3), label="singular_depth")
    new = _outcome(hc_criterion_suite, TruncatedVerma(phi, coeffs, max_level=max_level), f, depth)
    ref = _outcome(_reference_hc_criterion_suite, TruncatedVerma(phi, coeffs, max_level=max_level), f, depth)
    assert new == ref


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_wrong_k_and_overflow_are_refused_like_the_reference(name):
    coeffs = ALGEBRAS[name]
    module = TruncatedVerma(HighestWeightFunctional.zero(), coeffs, max_level=2)
    f = PolyB.const(coeffs.k + 1, 1)
    for suite in (hc_criterion_suite, _reference_hc_criterion_suite):
        assert _outcome(suite, module, f, 2) == ("raises", DimensionMismatchError)
    # d(-2) (x) f lies at level 2, past a max_level 1 truncation
    shallow = TruncatedVerma(HighestWeightFunctional.zero(), coeffs, max_level=1)
    one = PolyB.const(coeffs.k, 1)
    for suite in (hc_criterion_suite, _reference_hc_criterion_suite):
        assert _outcome(suite, shallow, one, 2) == ("raises", LevelOverflowError)


# -- PolyB as a Combination ---------------------------------------------------


def test_polyb_is_a_combination_with_the_traced_names_in_its_class_dict():
    assert issubclass(PolyB, Combination)
    for name in ("__sub__", "__neg__", "__eq__", "__hash__", "is_zero", "_check", "total_degree"):
        assert name not in vars(PolyB), name
    for name in ("__add__", "__mul__", "__rmul__"):
        assert name in vars(PolyB), name


def test_polyb_k_mismatch_raises_in_sum_and_product():
    p, q = PolyB.const(1, 1), PolyB.const(2, 1)
    with pytest.raises(DimensionMismatchError):
        p + q
    with pytest.raises(DimensionMismatchError):
        p - q
    with pytest.raises(DimensionMismatchError):
        p * q


def test_polyb_does_not_add_to_an_algebra_element():
    p = PolyB.const(0, 1)
    x = gen_elt(PolynomialCoefficients(0), d(1))
    with pytest.raises(TypeError):
        p + x
    with pytest.raises(TypeError):
        x + p


def test_polyb_never_equals_another_combination():
    p = PolyB(1, {(0,): 1})
    v = WeightVector({(0,): ONE})
    assert p.terms == v.terms
    assert p != v and v != p
    assert PolyB.const(0, 1) != PolyB.const(1, 1)


def test_equal_polybs_hash_equal():
    b1, b2 = PolyB.variable(2, 0), PolyB.variable(2, 1)
    p = b1 + 2 * b2
    q = PolyB(2, {(0, 1): 1, (1, 0): 1}) + b2 + PolyB(2, {(3, 3): 5}) - PolyB.monomial((3, 3), 5)
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_scalar_multiplication_commutes_and_coeff_reads_terms():
    p = PolyB(2, {(1, 0): Scalar(1, 1), (0, 2): -3})
    assert 2 * p == p * 2
    assert (2 * p).coeff((0, 2)) == Scalar(-6)
    assert p.coeff((1, 0)) == Scalar(1, 1)
    assert p.coeff((5, 5)) == ZERO
    assert (p - p).is_zero and (p + -p) == PolyB.zero(2)


def test_polynomial_coefficients_basis_keys_and_project():
    trivial = PolynomialCoefficients(0)
    assert trivial.basis_keys() == [()]
    assert trivial.project(PolyB.const(0, 3)) == {(): Scalar(3)}
    assert trivial.project(PolyB.zero(0)) == {}
    plane = PolynomialCoefficients(2)
    with pytest.raises(ConfigurationError):
        plane.basis_keys()
    p = PolyB(2, {(0, 0): 1, (2, 1): Scalar(0, 1)})
    assert plane.project(p) == p.terms
    with pytest.raises(DimensionMismatchError):
        plane.project(PolyB.const(1, 1))
    with pytest.raises(DimensionMismatchError):
        trivial.project(PolyB.const(2, 1))
