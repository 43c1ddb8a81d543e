"""Differential test of ``Module.apply``'s unit path, and of the column contract.

``apply`` returns a copy of the column when it gets one own term of
coefficient ``ONE`` on one coordinate ``ONE``; that is exact because every
family's ``_column`` lists distinct basis keys with nonzero coefficients.
Here, on every window key and every decorated generator of
``algebra_generator_elements``, the contract is checked, the unit path is
compared with a reference that sums the column over the own terms and drops
zeros, and a coefficient other than ``ONE``, on the coordinate or on the own
terms, must scale that result, so that the generic loop is compared too.
"""

from fractions import Fraction

import pytest

from hvkit.algebra import QuotientCoefficients
from hvkit.analysis import algebra_generator_elements
from hvkit.errors import LevelOverflowError
from hvkit.modules import (
    EvaluationModule,
    HighestWeightFunctional,
    IntermediateSeries,
    OmegaModule,
    TensorModule,
    TruncatedVerma,
)
from hvkit.polys import JetQuotient
from hvkit.scalars import IMAG, ONE, ZERO, Scalar

HALF = Scalar(Fraction(1, 2))
THIRD = Scalar(Fraction(1, 3))
SCALES = (Scalar(2), HALF + IMAG)


def _jet_verma(point, max_level):
    """A Verma module over C[b]/(b²) at ``point``, its functional nonzero on both keys."""
    q = JetQuotient((point,), 2)
    key0, key1 = (0, (0,)), (0, (1,))
    values = {("d0", key0): HALF + IMAG, ("d0", key1): Scalar(2), ("I0", key1): THIRD,
              ("C", key0): Scalar(3), ("C_D", key0): -ONE, ("C_I", key1): IMAG}
    return q, TruncatedVerma(HighestWeightFunctional(values), QuotientCoefficients((q,)), max_level=max_level)


def _eval_verma(point, max_level):
    return EvaluationModule(*_jet_verma(point, max_level))


# name -> (module, index bound, monomial bound, window)
CASES = {
    "intermediate": (IntermediateSeries(HALF + IMAG, THIRD, 2 - IMAG), 3, 0, 4),
    "omega-k1": (OmegaModule(ONE + IMAG, THIRD, [Scalar(2)], -ONE), 2, 2, 3),
    "omega-k2": (OmegaModule(Scalar(Fraction(-3, 2)), IMAG, [ONE, Scalar(-2)], HALF), 2, 1, 3),
    "verma-jet": (_jet_verma(ZERO, 2)[1], 2, 1, 2),
    "evaluation-order-1": (EvaluationModule(JetQuotient((Scalar(2),), 1), IntermediateSeries(HALF, THIRD, ONE - IMAG)), 2, 2, 3),
    "evaluation-order-2": (_eval_verma(ONE, 2), 2, 2, 2),
    "tensor-evaluation-vermas": (TensorModule(_eval_verma(ZERO, 2), _eval_verma(ONE, 2)), 2, 1, 1),
}


def _reference(module, own, b) -> dict:
    """The column summed over the own terms, zeros dropped."""
    acc: dict = {}
    for ((kind, index), key), c in own:
        for b2, c2 in module._column(kind, index, key, b):
            acc[b2] = acc.get(b2, ZERO) + c * c2
    return {b2: c for b2, c in acc.items() if c}


def _outcome(fn):
    try:
        return fn()
    except LevelOverflowError:
        return LevelOverflowError


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_unit_path_matches_the_summed_columns(name):
    module, index_bound, monomial_bound, window = CASES[name]
    ops = algebra_generator_elements(module.algebra(), index_bound, monomial_bound)
    keys = module.window_keys(window)
    checked = 0
    for op in ops:
        own = tuple(module._terms(op.terms.items()))
        for b in keys:
            # the contract: distinct keys, nonzero coefficients
            for ((kind, index), key), _c in own:
                column = _outcome(lambda: list(module._column(kind, index, key, b)))
                if column is not LevelOverflowError:
                    assert len({b2 for b2, _c in column}) == len(column), (name, op.render(), b)
                    assert all(c for _b2, c in column), (name, op.render(), b)
            want = _outcome(lambda: _reference(module, own, b))
            got = _outcome(lambda: module.apply(own, ((b, ONE),)))
            assert got == want, (name, op.render(), b)
            if want is LevelOverflowError:
                continue
            checked += 1
            if got:  # a copy: emptying it leaves the handle's caches as they were
                got.clear()
                assert module.apply(own, ((b, ONE),)) == want
            for s in SCALES:
                scaled = {b2: s * c for b2, c in want.items()}
                assert module.apply(own, ((b, s),)) == scaled, (name, op.render(), b, s)
                own_scaled = tuple((t, s * c) for t, c in own)
                assert module.apply(own_scaled, ((b, ONE),)) == scaled, (name, op.render(), b, s)
    assert checked


def test_the_cases_reach_the_unit_path_except_the_tensor():
    """Every case but the tensor has operators with one own term of
    coefficient ONE, so the unit path is met; a tensor product's own terms
    are its two sides, so it always takes the loop."""
    reached = set()
    for name, (module, index_bound, monomial_bound, _window) in CASES.items():
        ops = algebra_generator_elements(module.algebra(), index_bound, monomial_bound)
        owns = [tuple(module._terms(op.terms.items())) for op in ops]
        if any(len(own) == 1 and own[0][1] is ONE for own in owns):
            reached.add(name)
    assert reached == set(CASES) - {"tensor-evaluation-vermas"}
