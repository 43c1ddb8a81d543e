import itertools
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from hvkit.errors import ConfigurationError, DimensionMismatchError
from hvkit.polys import (
    JetQuotient,
    PolyB,
    PolyT,
    exponent_count,
    exponents_upto,
    jet_expand,
    poly_eval,
)
from hvkit.scalars import ONE, ZERO, Scalar

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
scalars = st.builds(Scalar, rationals)

polyts = st.lists(scalars, max_size=5).map(PolyT)


def polybs(k, max_deg=3, max_terms=4):
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * k))
    return st.dictionaries(exps, scalars, max_size=max_terms).map(lambda t: PolyB(k, t))


# -- PolyT ------------------------------------------------------------------


@given(polyts, polyts, polyts)
def test_polyt_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


def test_polyt_degree_of_product_adds():
    f = PolyT((1, 2, 3))
    g = PolyT((0, 5))
    assert (f * g).degree == f.degree + g.degree


def test_shift_examples():
    t = PolyT.t_power(1)
    assert t.shift(1) == PolyT((-1, 1))
    assert PolyT((0, 0, 1)).shift(-2) == PolyT((4, 4, 1))
    assert t.shift(0) == t


def test_shift_composes_additively():
    f = PolyT((0, 1, 0, 1))  # t^3 + t
    lhs = f.shift(2).shift(3)
    rhs = f.shift(5)
    assert lhs == rhs
    # independent oracle: values agree at interpolation points
    for x in range(-4, 5):
        assert lhs(Scalar(x)) == f(Scalar(x - 5))


@given(polyts, st.integers(min_value=-4, max_value=4))
def test_shift_matches_pointwise_evaluation(f, n):
    g = f.shift(n)
    assert g.degree == f.degree
    for x in range(-3, 4):
        assert g(Scalar(x)) == f(Scalar(x - n))


@given(polyts, polyts, st.integers(min_value=-3, max_value=3))
def test_shift_is_ring_automorphism(f, g, n):
    assert (f * g).shift(n) == f.shift(n) * g.shift(n)
    assert (f + g).shift(n) == f.shift(n) + g.shift(n)


# -- PolyB ------------------------------------------------------------------


@given(polybs(2), polybs(2), polybs(2))
def test_polyb_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


def test_polyb_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        PolyB.const(1, 1) + PolyB.const(2, 1)


def test_poly_eval_examples():
    p = PolyB(2, {(1, 2): 1})  # b1 * b2^2
    assert poly_eval(p, (Scalar(2), Scalar(3))) == Scalar(18)
    assert poly_eval(PolyB.const(2, 1), (Scalar(7), Scalar(-1))) == ONE
    mu = Scalar(Fraction(5, 3))
    p = PolyB.variable(1, 0) - PolyB.const(1, mu)
    assert poly_eval(p, (mu,)) == ZERO


@given(polybs(2), polybs(2))
def test_poly_eval_is_ring_map(p, q):
    point = (Scalar(2), Scalar(Fraction(-1, 2)))
    assert poly_eval(p * q, point) == poly_eval(p, point) * poly_eval(q, point)
    assert poly_eval(p + q, point) == poly_eval(p, point) + poly_eval(q, point)


def test_poly_eval_dimension_error():
    with pytest.raises(DimensionMismatchError):
        poly_eval(PolyB.const(2, 1), (Scalar(1),))


# -- jets -------------------------------------------------------------------


def _derivative(p: PolyB, var: int) -> PolyB:
    out = {}
    for exps, c in p.terms.items():
        if exps[var] == 0:
            continue
        e = list(exps)
        e[var] -= 1
        out[tuple(e)] = c * exps[var]
    return PolyB(p.k, out)


def _evaluate(p: PolyB, point) -> Scalar:
    """p at a point, term by term (``poly_eval`` reads a jet, so the jet oracles evaluate on their own)."""
    acc = ZERO
    for exps, c in p.terms.items():
        for x, e in zip(point, exps):
            c = c * x**e
        acc = acc + c
    return acc


def _jet_by_derivatives(p: PolyB, q: JetQuotient):
    """Independent oracle: coefficient at r is (d^r p)(mu) / r!."""
    out = {}
    for r in exponents_upto(q.k, q.order - 1):
        dp = p
        for var, times in enumerate(r):
            for _ in range(times):
                dp = _derivative(dp, var)
        value = _evaluate(dp, q.point)
        for e in r:
            value = value / factorial(e)
        if not value.is_zero:
            out[r] = value
    return out


def test_jet_examples():
    q2 = JetQuotient((ZERO,), 2)
    b1 = PolyB.variable(1, 0)
    assert jet_expand(b1, q2) == {(1,): ONE}
    assert jet_expand(b1 * b1, q2) == {}
    q_at_1 = JetQuotient((ONE,), 2)
    assert jet_expand(b1 * b1, q_at_1) == {(0,): ONE, (1,): Scalar(2)}


@given(polybs(1), st.integers(min_value=1, max_value=3))
def test_jet_matches_derivative_oracle(p, order):
    q = JetQuotient((Scalar(Fraction(1, 2)),), order)
    assert jet_expand(p, q) == _jet_by_derivatives(p, q)


def jets_multiply(q: JetQuotient, a: dict, b: dict) -> dict:
    """Product of two jet-coefficient maps in the truncated ring."""
    out: dict = {}
    for r, cr in a.items():
        for s, cs in b.items():
            key = q.multiply_exps(r, s)
            if key is None:
                continue
            out[key] = out.get(key, ZERO) + cr * cs
    return {r: c for r, c in out.items() if not c.is_zero}


@given(polybs(2, max_deg=2, max_terms=3), polybs(2, max_deg=2, max_terms=3),
       st.integers(min_value=1, max_value=3))
def test_jet_expand_is_ring_map(p, q_poly, order):
    q = JetQuotient((Scalar(1), Scalar(-2)), order)
    lhs = jet_expand(p * q_poly, q)
    rhs = jets_multiply(q, jet_expand(p, q), jet_expand(q_poly, q))
    assert lhs == rhs


def test_jet_degree_zero_is_evaluation():
    p = PolyB(1, {(0,): 3, (1,): -2, (3,): 1})
    for order in (1, 2, 4):
        q = JetQuotient((Scalar(2),), order)
        jets = jet_expand(p, q)
        assert jets.get((0,), ZERO) == _evaluate(p, q.point)


def test_jet_quotient_dimension():
    assert JetQuotient((ZERO,), 3).dimension == 3
    assert JetQuotient((ZERO, ZERO), 2).dimension == 3  # 1, b1, b2 directions
    assert JetQuotient((ZERO, ZERO), 3).dimension == 6


def test_jet_quotient_validation():
    with pytest.raises(ConfigurationError):
        JetQuotient((ZERO,), 0)
    with pytest.raises(DimensionMismatchError):
        jet_expand(PolyB.const(2, 1), JetQuotient((ZERO,), 2))


def test_exponents_upto():
    assert exponents_upto(0, 3) == [()]
    assert exponents_upto(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert len(exponents_upto(2, 2)) == 6


def _nested_exponents(k: int, bound: int) -> list:
    """The earlier listing, kept as a reference: it prepends one entry per pass, so
    building a tuple of length k costs k passes (quadratic in k at bound 0)."""
    if k == 0:
        return [()]
    by_total = [[(t,)] for t in range(bound + 1)]
    for _ in range(k - 1):
        by_total = [[(f,) + rest for f in range(t + 1) for rest in by_total[t - f]] for t in range(bound + 1)]
    return [r for level in by_total for r in level]


def test_exponents_upto_lists_every_tuple_once_in_total_then_lexicographic_order():
    for k in range(1, 5):
        for bound in range(-2, 7):
            want = sorted(
                (r for r in itertools.product(range(max(bound, 0) + 1), repeat=k) if sum(r) <= bound),
                key=lambda r: (sum(r), r),
            )
            assert exponents_upto(k, bound) == want == _nested_exponents(k, bound), (k, bound)


def test_exponents_upto_is_linear_in_k():
    start = time.perf_counter()
    assert exponents_upto(100_000, 0) == [(0,) * 100_000]
    ones = exponents_upto(1_000, 1)[1:]
    assert len(ones) == 1_000 and ones[0] == (0,) * 999 + (1,) and ones[-1] == (1,) + (0,) * 999
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", range(4))
def test_jet_quotient_dimension_counts_the_basis(k):
    for order in range(1, 7):
        q = JetQuotient((ZERO,) * k, order)
        assert q.dimension == len(q.basis())


def test_a_large_jet_quotient_is_counted_and_listed_fast():
    start = time.perf_counter()
    assert JetQuotient((ZERO,), 10**8).dimension == 10**8
    assert JetQuotient((ZERO, ZERO), 10**8).dimension == 10**8 * (10**8 + 1) // 2
    assert len(exponents_upto(1, 100_000)) == 100_001  # linear: about 0.1 s, not quadratic
    assert time.perf_counter() - start < 2.0


def test_exponent_count_is_exact_or_a_stand_in_past_the_budget():
    for k in range(5):
        for bound in range(-1, 6):
            count = len(exponents_upto(k, bound))
            for budget in (-1, 0, 4, 20, 100):
                got = exponent_count(k, bound, budget)
                assert got == count or (got < count and got * got > budget)
            assert exponent_count(k, bound, 100) == count
    assert exponent_count(3, 10**50, 100) == 10**50 + 3  # unexpanded
