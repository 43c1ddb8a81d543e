from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hvkit import algebra
from hvkit.algebra import (
    HV,
    AlgebraElement,
    C,
    C_D,
    C_I,
    Generator,
    PolynomialCoefficients,
    QuotientCoefficients,
    bracket,
    d,
    element,
    gen_elt,
    generator_count,
    generators_upto,
    hv_structure,
    I,
    jacobi_antisymmetry_sweep,
    jacobi_check,
    parse_element,
    project_element,
    render_element,
    sweep_terms,
    zero_element,
)
from hvkit.errors import ConfigurationError, DimensionMismatchError, ParseError
from hvkit.polys import JetQuotient
from hvkit.scalars import IMAG, ONE, ZERO, Scalar
from mutants import STRUCTURE_MUTANTS

P1 = PolynomialCoefficients(1)
P2 = PolynomialCoefficients(2)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.builds(Scalar, rationals)
indices = st.integers(min_value=-4, max_value=4)
monos2 = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))


@st.composite
def elements2(draw, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        kind = draw(st.sampled_from(["d", "I", "C", "CD", "CI"]))
        idx = draw(indices) if kind in ("d", "I") else 0
        terms[(Generator(kind, idx), draw(monos2))] = draw(scalars)
    return AlgebraElement(P2, terms)


# -- frozen bracket values ---------------------------------------------------


def test_bracket_d_d_with_cocycle():
    assert bracket(gen_elt(HV, d(2)), gen_elt(HV, d(-2))) == element(
        HV, {(d(0), ()): -4, (C, ()): Fraction(1, 2)}
    )


def test_bracket_d_I_with_central_term():
    assert bracket(gen_elt(HV, d(2)), gen_elt(HV, I(-2))) == element(
        HV, {(I(0), ()): -2, (C_D, ()): 6}
    )


def test_bracket_I_I():
    assert bracket(gen_elt(HV, I(2)), gen_elt(HV, I(-2))) == element(HV, {(C_I, ()): 2})
    assert bracket(gen_elt(HV, I(3)), gen_elt(HV, I(2))).is_zero


def test_bracket_monomials_multiply():
    x = gen_elt(P2, d(1), (1, 0))
    y = gen_elt(P2, I(1), (0, 1))
    assert bracket(x, y) == element(P2, {(I(2), (1, 1)): 1})


def test_bracket_witt_relation():
    for n in range(-3, 4):
        for m in range(-3, 4):
            got = bracket(gen_elt(HV, d(n)), gen_elt(HV, d(m)))
            expect = {}
            if n != m:
                expect[(d(n + m), ())] = Scalar(m - n)
            if n == -m:
                c = Fraction(n**3 - n, 12)
                if c:
                    expect[(C, ())] = Scalar(c)
            assert got == element(HV, expect)


# -- structural laws ---------------------------------------------------------


@given(elements2(), elements2())
def test_antisymmetry(x, y):
    assert (bracket(x, y) + bracket(y, x)).is_zero


@given(elements2())
def test_self_bracket_vanishes(x):
    assert bracket(x, x).is_zero


@given(elements2(), elements2(), elements2())
def test_bilinearity(x, y, z):
    assert bracket(x + y, z) == bracket(x, z) + bracket(y, z)
    assert bracket(x, y + z) == bracket(x, y) + bracket(x, z)


def test_jacobi_frozen_triples():
    assert jacobi_check(gen_elt(HV, d(1)), gen_elt(HV, d(2)), gen_elt(HV, d(3))).is_zero
    assert jacobi_check(gen_elt(HV, d(2)), gen_elt(HV, d(-2)), gen_elt(HV, I(1))).is_zero
    assert jacobi_check(
        gen_elt(P2, d(1), (1, 0)), gen_elt(P2, I(2), (0, 1)), gen_elt(P2, d(-3), (1, 0))
    ).is_zero


@given(elements2(max_terms=2), elements2(max_terms=2), elements2(max_terms=2))
def test_jacobi_random(x, y, z):
    assert jacobi_check(x, y, z).is_zero


def test_grading_of_brackets():
    for n in range(-4, 5):
        for m in range(-4, 5):
            got = bracket(gen_elt(HV, d(n)), gen_elt(HV, I(m)))
            deg = got.degree()
            assert deg is None or got.is_zero or deg == n + m
            # central terms only ever occur at degree zero
            for (g, _key), _c in got.terms.items():
                if g.is_central_kind:
                    assert n + m == 0


def test_centrality():
    candidates = [gen_elt(P1, C, (2,)), gen_elt(P1, C_D, (0,)), gen_elt(P1, C_I, (1,))]
    others = [gen_elt(P1, d(n), (1,)) for n in range(-3, 4)]
    others += [gen_elt(P1, I(n), (0,)) for n in range(-3, 4)]
    for z in candidates:
        for x in others:
            assert bracket(z, x).is_zero
            assert bracket(x, z).is_zero
    # I_0 (x) b brackets to zero against every d_n (x) c
    i0b = gen_elt(P1, I(0), (1,))
    for n in range(-4, 5):
        assert bracket(i0b, gen_elt(P1, d(n), (2,))).is_zero


def grade_split(x):
    """Split an element into its (negative, zero, positive) graded parts."""
    neg, zero, pos = {}, {}, {}
    for (g, key), c in x.terms.items():
        bucket = zero if g.degree == 0 else (pos if g.degree > 0 else neg)
        bucket[(g, key)] = c
    return (
        AlgebraElement(x.coeffs, neg),
        AlgebraElement(x.coeffs, zero),
        AlgebraElement(x.coeffs, pos),
    )


def test_grade_split():
    x = element(P1, {(d(3), (1,)): 1, (I(0), (0,)): 1, (d(-1), (0,)): 1})
    neg, zero, pos = grade_split(x)
    assert neg == element(P1, {(d(-1), (0,)): 1})
    assert zero == element(P1, {(I(0), (0,)): 1})
    assert pos == element(P1, {(d(3), (1,)): 1})
    assert neg + zero + pos == x
    neg, zero, pos = grade_split(gen_elt(HV, C_D))
    assert neg.is_zero and pos.is_zero and zero == gen_elt(HV, C_D)
    neg, zero, pos = grade_split(zero_element(HV))
    assert neg.is_zero and zero.is_zero and pos.is_zero


@given(elements2())
def test_grade_split_recombines(x):
    neg, zero, pos = grade_split(x)
    assert neg + zero + pos == x


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        bracket(gen_elt(P1, d(1), (0,)), gen_elt(P2, d(1), (0, 0)))


# -- quotient algebras -------------------------------------------------------


def test_quotient_requires_distinct_points():
    q = JetQuotient((ZERO,), 1)
    with pytest.raises(ConfigurationError):
        QuotientCoefficients((q, JetQuotient((ZERO,), 2)))


def test_projection_is_lie_map():
    quot = QuotientCoefficients((JetQuotient((ZERO,), 2), JetQuotient((ONE,), 1)))
    xs = [gen_elt(P1, d(2), (1,)), gen_elt(P1, I(-1), (2,)), gen_elt(P1, d(0), (0,))]
    for x in xs:
        for y in xs:
            lhs = project_element(bracket(x, y), quot)
            rhs = bracket(project_element(x, quot), project_element(y, quot))
            assert lhs == rhs


def test_projection_order_one_collapses_to_scalars():
    quot = QuotientCoefficients((JetQuotient((Scalar(3),), 1),))
    img = project_element(gen_elt(P1, d(2), (2,)), quot)  # b1^2 evaluates to 9
    assert img == AlgebraElement(quot, {(d(2), (0, (0,))): Scalar(9)})


def test_projection_two_points_componentwise():
    quot = QuotientCoefficients((JetQuotient((ZERO,), 1), JetQuotient((ONE,), 1)))
    img = project_element(gen_elt(P1, d(0), (1,)), quot)
    # b1 vanishes at the first point and is 1 at the second
    assert img == AlgebraElement(quot, {(d(0), (1, (0,))): ONE})


def test_quotient_bracket_antisymmetry_survives():
    quot = QuotientCoefficients((JetQuotient((ZERO,), 2),))
    x = AlgebraElement(quot, {(d(1), (0, (1,))): ONE})
    assert bracket(x, x).is_zero


# -- one term per generator --------------------------------------------------

# every coefficient algebra the package builds: C, C[b1], C[b1, b2], a
# one-point and a two-point jet quotient
ONE_TERM_ALGEBRAS = {
    "C": HV,
    "C[b1]": P1,
    "C[b1,b2]": P2,
    "jet-1-point": QuotientCoefficients((JetQuotient((Scalar(1),), 3),)),
    "jet-2-point": QuotientCoefficients((JetQuotient((ZERO, ONE), 3), JetQuotient((ONE, ZERO), 2))),
}


@st.composite
def _one_term_brackets(draw):
    coeffs = ONE_TERM_ALGEBRAS[draw(st.sampled_from(sorted(ONE_TERM_ALGEBRAS)))]
    structure = draw(st.sampled_from([hv_structure, *STRUCTURE_MUTANTS.values()]))
    keys = coeffs.keys_upto(2)

    def one_term():
        kind = draw(st.sampled_from(["d", "I", "C", "CD", "CI"]))
        idx = draw(indices) if kind in ("d", "I") else 0
        c = draw(scalars.filter(bool))
        return AlgebraElement(coeffs, {(Generator(kind, idx), draw(st.sampled_from(keys))): c})

    return one_term(), one_term(), structure


@settings(max_examples=300)
@given(_one_term_brackets())
def test_a_bracket_of_one_term_elements_holds_one_term_per_generator(case):
    """The axiom sweep reads [x, y].v term by term on this: no two terms of
    the bracket share a generator, so an evaluation wrapper, which merges
    the jet images of terms of one generator before it acts, never cancels
    across them."""
    x, y, structure = case
    terms = bracket(x, y, structure).terms
    assert len({g for g, _ in terms}) == len(terms)


# -- one key product ---------------------------------------------------------

exps2 = st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))


@st.composite
def _quotient_keys(draw):
    """A quotient over one to three distinct points in C^2 and two of its basis keys."""
    points = draw(st.lists(st.tuples(indices, indices), min_size=1, max_size=3, unique=True))
    orders = [draw(st.integers(min_value=1, max_value=4)) for _ in points]
    coeffs = QuotientCoefficients(tuple(JetQuotient(p, s) for p, s in zip(points, orders)))
    return coeffs, draw(st.sampled_from(coeffs.basis_keys())), draw(st.sampled_from(coeffs.basis_keys()))


@settings(max_examples=200)
@given(exps2, exps2)
def test_a_polynomial_product_is_the_exponent_sum(r, s):
    key = P2.multiply(r, s)
    assert key == (r[0] + s[0], r[1] + s[1])
    assert P2.is_basis_key(key)
    assert P2.unit_keys() == ((0, 0),)
    assert P2.multiply(P2.unit_keys()[0], r) == r


@settings(max_examples=200)
@given(_quotient_keys())
def test_a_jet_product_is_one_key_or_none(case):
    """The exponent sum at one point, None past the jet order or across points."""
    coeffs, (i, r), (j, s) = case
    key = coeffs.multiply((i, r), (j, s))
    total = tuple(a + b for a, b in zip(r, s))
    if i == j and sum(total) < coeffs.quotients[i].order:
        assert key == (i, total)
        assert coeffs.is_basis_key(key)
    else:
        assert key is None
    units = coeffs.unit_keys()
    assert units == tuple((p, (0, 0)) for p in range(len(coeffs.quotients)))
    assert coeffs.multiply(units[i], (i, r)) == (i, r)


# -- sweep -------------------------------------------------------------------


def test_sweep_clean_small():
    report = jacobi_antisymmetry_sweep(3, 1, 1)
    assert report.clean
    nterms = len(sweep_terms(3, 1, 1))
    assert report.triples_checked == nterms**3
    assert report.pairs_checked == nterms * (nterms + 1) // 2


@pytest.mark.parametrize("index", [-1, 0, 1])
@pytest.mark.parametrize("monomial", [-1, 0, 1])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_sweep_budget_counts_the_triples_it_would_check(index, monomial, k, monkeypatch):
    """The refusal counts exactly the triples the sweep checks, without listing them."""
    triples = len(sweep_terms(index, monomial, k)) ** 3
    monkeypatch.setattr(algebra, "MAX_SWEEP_TRIPLES", triples)
    assert jacobi_antisymmetry_sweep(index, monomial, k).triples_checked == triples
    monkeypatch.setattr(algebra, "MAX_SWEEP_TRIPLES", triples - 1)
    with pytest.raises(ConfigurationError, match=f"checks more than {triples - 1} triples"):
        jacobi_antisymmetry_sweep(index, monomial, k)


@pytest.mark.parametrize("index", range(-3, 13))
def test_generator_count_counts_the_listing(index):
    assert generator_count(index) == len(generators_upto(index))


def test_sweep_refuses_past_the_budget_before_building_tables():
    assert algebra.MAX_SWEEP_TRIPLES == 50_000_000
    assert len(sweep_terms(6, 2, 2)) ** 3 <= algebra.MAX_SWEEP_TRIPLES
    with pytest.raises(ConfigurationError, match="k 2 checks more than 50000000 triples"):
        jacobi_antisymmetry_sweep(40, 2, 2)
    for bounds in ((0, 10**9, 10**9), (10**4000, 2, 2), (0, 2, 10**6)):
        with pytest.raises(ConfigurationError):
            jacobi_antisymmetry_sweep(*bounds)


def test_sweep_catches_corrupted_cocycle():
    report = jacobi_antisymmetry_sweep(3, 0, 0, structure=STRUCTURE_MUTANTS["cocycle-quadratic"])
    assert report.jacobi_violations


def test_sweep_catches_dropped_central_term():
    report = jacobi_antisymmetry_sweep(3, 0, 0, structure=STRUCTURE_MUTANTS["dropped-C_D"])
    assert report.jacobi_violations or report.antisymmetry_violations


# -- rendering / parsing -----------------------------------------------------


def test_render_examples():
    x = element(HV, {(d(0), ()): -4, (C, ()): Fraction(1, 2)})
    assert render_element(x) == "-4*d(0) + 1/2*C"
    y = element(P2, {(I(2), (1, 1)): 1})
    assert render_element(y) == "I(2)⊗b[1,1]"
    assert render_element(zero_element(HV)) == "0"


@given(elements2())
def test_render_parse_round_trip(x):
    assert parse_element(render_element(x), P2) == x


def test_parse_gaussian_coefficient():
    x = element(HV, {(d(1), ()): Scalar(1, 1), (C_D, ()): -IMAG})
    assert parse_element(render_element(x), HV) == x


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_element("q(3)", HV)
    with pytest.raises(ParseError):
        parse_element("d(x)", HV)
