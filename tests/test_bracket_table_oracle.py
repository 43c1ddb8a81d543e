"""Differential test of the axiom sweep's bracket table against ``bracket``.

``analysis._negated_bracket`` reads ``hv_structure`` once per generator pair
into a table, lifts each constant to an integer triple and negates it, and
decorates the pair by the one key product ``coeffs.multiply`` (``None``: no
terms).  For every ordered pair of ``algebra_generator_elements``, central
generators and equal pairs included, its terms must be those of
``bracket(x, y)`` with each coefficient negated, over polynomial
coefficients and over jet quotients at one and two points, where
``multiply`` answers ``None`` across points and past the jet order.
"""

import pytest

from hvkit.algebra import PolynomialCoefficients, QuotientCoefficients, bracket
from hvkit.analysis import _negated_bracket, algebra_generator_elements
from hvkit.polys import JetQuotient
from hvkit.scalars import IMAG, ONE, ZERO, Scalar

INDEX_BOUND = 3

POLYNOMIAL = [
    pytest.param(PolynomialCoefficients(k), bound, id=f"k{k}-monomial{bound}")
    for k in (0, 1, 2)
    for bound in (0, 1, 2)
]
QUOTIENT_CASES = [
    (QuotientCoefficients(tuple(JetQuotient((p,), order) for p in points)), 2)
    for points in ((ONE,), (ZERO, Scalar(2) + IMAG))
    for order in (1, 2, 3)
]
QUOTIENT = [
    pytest.param(coeffs, bound, id=f"{len(coeffs.quotients)}points-order{coeffs.quotients[0].order}")
    for coeffs, bound in QUOTIENT_CASES
]


def _negated_terms(table: dict, coeffs, x, y) -> dict:
    got = _negated_bracket(table, coeffs, next(iter(x.terms)), next(iter(y.terms)))
    out = {t: (-a, -b, d) for t, a, b, d in got}
    assert len(out) == len(got), "a term listed twice"
    return out


@pytest.mark.parametrize("coeffs, bound", POLYNOMIAL + QUOTIENT)
def test_the_table_gives_the_terms_of_bracket(coeffs, bound):
    ops = algebra_generator_elements(coeffs, INDEX_BOUND, bound)
    table: dict = {}  # one table for every pair, as in one sweep
    for x in ops:
        for y in ops:
            want = {t: c.triple for t, c in bracket(x, y).terms.items()}
            assert _negated_terms(table, coeffs, x, y) == want, (x, y)


def test_the_quotient_cases_reach_a_none_product():
    """The quotient cases include key pairs at two points and key pairs past
    the jet order, where ``multiply`` answers None and the table must give no
    terms even when its generator pair has some."""
    reached = set()
    for coeffs, bound in QUOTIENT_CASES:
        ops = algebra_generator_elements(coeffs, INDEX_BOUND, bound)
        for x in ops:
            for y in ops:
                (_, k1), (_, k2) = next(iter(x.terms)), next(iter(y.terms))
                if coeffs.multiply(k1, k2) is None:
                    reached.add("points" if k1[0] != k2[0] else "order")
    assert reached == {"points", "order"}
