"""``Module.act`` returns ``apply``'s dict as the vector, checked as before.

``act`` skips the algebra comparison when the element holds the module's own
algebra object, and makes ``apply``'s dict the vector's terms without another
pass through ``Combination.__init__``.  Here, on random elements and vectors
of every family and both wrappers, ``act`` is compared with
``vector_type(apply(...))`` after ``_check_element``, over the module's own
algebra object and over an equal copy of it; the result's coefficients must
all be nonzero Scalars.  An element over another algebra must still raise
DimensionMismatchError.  Vectors carry no instance dict.
"""

import importlib
import pkgutil

import hvkit
import pytest
from hypothesis import given, settings, strategies as st

from hvkit.algebra import AlgebraElement, PolynomialCoefficients, QuotientCoefficients, d
from hvkit.errors import DimensionMismatchError, LevelOverflowError
from hvkit.scalars import ONE, Combination, Scalar
from test_action_oracle import (
    EVAL_ORDER1,
    EVAL_ORDER2,
    INTERMEDIATES,
    OMEGAS,
    TENSOR,
    VERMA_JET,
    VERMA_TRIVIAL,
    _outcome,
    elements,
    vectors,
)

MODULES = {
    "intermediate": INTERMEDIATES[1],
    "intermediate-dropped-line": INTERMEDIATES[4],
    **{f"omega-k{k}": m for k, m in OMEGAS.items()},
    "evaluation-order-1": EVAL_ORDER1[0],
    "evaluation-order-2": EVAL_ORDER2[2],
    "verma-trivial": VERMA_TRIVIAL,
    "verma-jet": VERMA_JET,
    "tensor": TENSOR,
}


def _equal_copy(coeffs):
    """An algebra equal to ``coeffs`` that is another object."""
    if isinstance(coeffs, QuotientCoefficients):
        copy = QuotientCoefficients(coeffs.quotients)
    else:
        copy = PolynomialCoefficients(coeffs.k)
    assert copy == coeffs and copy is not coeffs
    return copy


def _reference(module, x, v):
    module._check_element(x)
    return module.vector_type(module.apply(module._terms(x.terms.items()), v.terms.items()))


@pytest.mark.parametrize("name", sorted(MODULES))
@settings(max_examples=20)
@given(data=st.data(), own=st.booleans())
def test_act_matches_the_vector_built_from_apply(name, data, own):
    module = MODULES[name]
    coeffs = module.algebra() if own else _equal_copy(module.algebra())
    x = data.draw(elements(coeffs))
    v = data.draw(vectors(module))
    got = _outcome(lambda: module.act(x, v))
    want = _outcome(lambda: _reference(module, x, v))
    assert type(got) is type(want)
    assert got == want
    if got is not LevelOverflowError:
        assert type(got) is module.vector_type
        assert all(type(c) is Scalar and c for c in got.terms.values())


@pytest.mark.parametrize("name", sorted(MODULES))
def test_an_element_over_another_algebra_is_refused(name):
    module = MODULES[name]
    other = PolynomialCoefficients(3)
    assert other != module.algebra()
    x = AlgebraElement(other, {(d(1), (0, 0, 0)): ONE})
    v = module.basis_vector(module.window_keys(1)[0])
    with pytest.raises(DimensionMismatchError):
        module.act(x, v)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_combination_carries_an_instance_dict():
    for info in pkgutil.iter_modules(hvkit.__path__):
        importlib.import_module(f"hvkit.{info.name}")
    found = [cls for cls in _subclasses(Combination) if cls.__module__.startswith("hvkit.")]
    names = {cls.__name__ for cls in found}
    assert {"AlgebraElement", "PolyT", "PolyB", "HighestWeightFunctional", "WeightVector", "PBWVector", "TensorVector"} <= names
    with_dict = [cls.__qualname__ for cls in found if cls.__dictoffset__]
    assert with_dict == []
