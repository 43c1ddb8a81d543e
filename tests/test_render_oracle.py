"""Differential oracle for ``scalars.render_sum``, the one text of a sum of terms.

Elements, ``PolyT``, ``PolyB``, weight vectors and PBW vectors each print by
their sort order and one ``render_sum`` call.  The references below are the
per-type loops they replaced, kept verbatim, so every rendering stays
byte-identical: golden digests and the CLI reports pin these texts.  Two
conventions are kept apart on purpose: elements and ``PolyT`` fold signs
(``d(1) - d(2)``), while ``PolyB``, weight and PBW vectors print ``-1*x`` and
`` + -2*x``.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from hvkit.algebra import (
    HV,
    AlgebraElement,
    Generator,
    PolynomialCoefficients,
    QuotientCoefficients,
    d,
    gen_elt,
    parse_element,
    render_element,
)
from hvkit.modules import PBWVector, WeightVector
from hvkit.polys import JetQuotient, PolyB, PolyT
from hvkit.scalars import ONE, ZERO, Scalar, render_scalar

# -- the replaced loops ------------------------------------------------------------


def _coefficient(s):
    text = render_scalar(s)
    return f"({text})" if s.re and s.im else text


_GEN_ORDER = {"d": 0, "I": 1, "C": 2, "CD": 3, "CI": 4}


def _term_sort_key(item):
    (g, key), _c = item
    return (g.degree, _GEN_ORDER[g.kind], g.index, key)


def element_text(x):
    if x.is_zero:
        return "0"
    parts = []
    for (g, key), c in sorted(x.terms.items(), key=_term_sort_key):
        keytext = x.coeffs.render_key(key)
        body = g.render() + (f"⊗{keytext}" if keytext else "")
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{_coefficient(c)}*{body}")
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


def polyt_text(f):
    if not f.terms:
        return "0"
    parts = []
    for j in sorted(f.terms, reverse=True):
        c = f.terms[j]
        mono = "1" if j == 0 else ("t" if j == 1 else f"t^{j}")
        if j == 0:
            body = render_scalar(c)
        elif c == 1:
            body = mono
        elif c == -1:
            body = f"-{mono}"
        else:
            body = f"{_coefficient(c)}*{mono}"
        parts.append(body)
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


def _monomial(exps):
    factors = [
        f"b{i + 1}" if e == 1 else f"b{i + 1}^{e}"
        for i, e in enumerate(exps)
        if e
    ]
    return "*".join(factors) if factors else "1"


def polyb_text(p):
    if not p.terms:
        return "0"
    parts = []
    for exps in sorted(p.terms, key=lambda e: (sum(e), e)):
        c = p.terms[exps]
        mono = _monomial(exps)
        if mono == "1":
            parts.append(render_scalar(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{_coefficient(c)}*{mono}")
    return " + ".join(parts)


def weight_text(v):
    if not v.terms:
        return "0"
    parts = []
    for k in sorted(v.terms):
        c = v.terms[k]
        body = f"v[{k}]"
        parts.append(body if c == 1 else f"{_coefficient(c)}*{body}")
    return " + ".join(parts)


def pbw_text(v, coeffs):
    def factor_text(f):
        kind, idx, key = f
        body = Generator(kind, idx).render()
        keytext = coeffs.render_key(key)
        if keytext:
            body += f"⊗{keytext}"
        return body

    if not v.terms:
        return "0"
    parts = []
    for mono in sorted(v.terms):
        c = v.terms[mono]
        body = "·".join([factor_text(f) for f in mono] + ["hw"])
        parts.append(body if c == 1 else f"{_coefficient(c)}*{body}")
    return " + ".join(parts)


# -- strategies ----------------------------------------------------------------------

F = Fraction
FIXED = [
    Scalar(x, y)
    for x, y in [
        (1, 0), (-1, 0), (2, 0), (-2, 0), (F(-1, 2), 0), (F(3, 4), 0),
        (0, 1), (0, -1), (0, 2), (0, F(-1, 2)),
        (F(1, 2), 1), (-1, F(3, 4)), (2, -1), (F(-1, 3), F(-2, 5)),
    ]
]
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coefficients = st.one_of(st.sampled_from(FIXED), st.builds(Scalar, small, small))

P2 = PolynomialCoefficients(2)
ONE_JET = QuotientCoefficients((JetQuotient((ZERO,), 2),))
TWO_JETS = QuotientCoefficients((JetQuotient((ZERO,), 2), JetQuotient((ONE,), 3)))
exponents2 = st.tuples(st.integers(0, 2), st.integers(0, 2))


def keys_of(coeffs):
    if coeffs == P2:
        return exponents2
    return st.sampled_from(coeffs.basis_keys())


generators = st.one_of(
    st.builds(Generator, st.sampled_from(["d", "I"]), st.integers(-3, 3)),
    st.sampled_from([Generator("C"), Generator("CD"), Generator("CI")]),
)


@st.composite
def elements(draw, coeffs):
    terms = draw(st.dictionaries(st.tuples(generators, keys_of(coeffs)), coefficients, max_size=4))
    return AlgebraElement(coeffs, terms)


all_coeffs = st.sampled_from([HV, PolynomialCoefficients(0), P2, ONE_JET, TWO_JETS])
any_element = all_coeffs.flatmap(elements)


@st.composite
def pbw_vectors(draw, coeffs):
    factor = st.tuples(st.sampled_from(["d", "I"]), st.integers(-3, 0), keys_of(coeffs))
    monos = st.lists(factor, max_size=3).map(tuple)
    return coeffs, PBWVector(draw(st.dictionaries(monos, coefficients, max_size=4)))


# -- the new rule against the replaced loops ----------------------------------------------


@given(any_element)
def test_elements_render_as_before(x):
    assert render_element(x) == element_text(x)
    assert x.render() == element_text(x)


@given(st.dictionaries(st.integers(0, 5), coefficients, max_size=5))
def test_polyt_renders_as_before(terms):
    f = PolyT(terms)
    assert f.render() == polyt_text(f)


@given(st.sampled_from([0, 1, 2]).flatmap(
    lambda k: st.dictionaries(st.tuples(*[st.integers(0, 2)] * k), coefficients, max_size=5).map(
        lambda terms: PolyB(k, terms))))
def test_polyb_renders_as_before(p):
    assert p.render() == polyb_text(p)


@given(st.dictionaries(st.integers(-4, 4), coefficients, max_size=5))
def test_weight_vectors_render_as_before(terms):
    v = WeightVector(terms)
    assert v.render() == weight_text(v)


@given(all_coeffs.flatmap(pbw_vectors))
def test_pbw_vectors_render_as_before(case):
    coeffs, v = case
    assert v.render(coeffs) == pbw_text(v, coeffs)


@given(st.sampled_from([HV, P2]).flatmap(elements))
def test_elements_read_back(x):
    """``parse_element`` reads every polynomial-coefficient element it prints,
    Gaussian and imaginary coefficients included (``2*i*d(1)``, ``(1+i)*C``)."""
    assert parse_element(render_element(x), x.coeffs) == x


# -- one fixed case of each convention ---------------------------------------------------


def test_the_two_sign_conventions():
    assert PBWVector({(("d", -1, ()),): -1}).render(HV) == "-1*d(-1)·hw"
    assert PBWVector({(("d", -1, ()),): -2, (): ONE}).render(HV) == "hw + -2*d(-1)·hw"
    assert WeightVector({0: -ONE, 1: Scalar(-2)}).render() == "-1*v[0] + -2*v[1]"
    assert PolyB(1, {(0,): -ONE, (1,): -ONE}).render() == "-1 + -1*b1"
    assert (gen_elt(HV, d(1)) - gen_elt(HV, d(2))).render() == "d(1) - d(2)"
    assert (-gen_elt(HV, d(1)) - 2 * gen_elt(HV, d(2))).render() == "-d(1) - 2*d(2)"
    assert PolyT({1: ONE, 0: Scalar(-3)}).render() == "t - 3"
    assert PolyT({2: -ONE, 1: Scalar(F(1, 2), 1)}).render() == "-t^2 + (1/2+i)*t"


def test_pbw_factors_keep_their_jet_keys():
    """``d(-1)⊗e[0]`` and ``d(-1)⊗e[1]`` are two factors, and print as two."""
    v = PBWVector({(("d", -1, (0, (0,))),): ONE, (("d", -1, (0, (1,))),): ONE})
    assert v.render(ONE_JET) == "d(-1)⊗e[0]·hw + d(-1)⊗e[1]·hw"
    assert v.render(TWO_JETS) == "d(-1)⊗e0[0]·hw + d(-1)⊗e0[1]·hw"
