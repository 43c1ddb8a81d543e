"""One immutability rule for hvkit's value types, and the functional as a Combination.

Every value type is a ``scalars.Frozen`` and refuses attribute assignment
with "<Type> is immutable".  Records built from equal inputs of different
shapes (lists or tuples, ints or Scalars) are equal and hash equal, and the
repr texts that error messages quote are pinned.
"""

import importlib
from fractions import Fraction

import pytest

from hvkit.algebra import HV, AlgebraElement, PolynomialCoefficients, QuotientCoefficients, d
from hvkit.errors import ConfigurationError
from hvkit.modules import (
    EvaluationModule,
    HighestWeightFunctional,
    IntermediateSeries,
    Module,
    OmegaModule,
    PBWVector,
    TensorModule,
    TensorVector,
    TruncatedVerma,
    WeightVector,
)
from hvkit.polys import JetQuotient, PolyB, PolyT
from hvkit.scalars import Combination, Frozen, Scalar

HALF = Scalar(Fraction(1, 2))
JET = JetQuotient((0,), 2)
QUOTIENT = QuotientCoefficients([JET])
PHI = HighestWeightFunctional({("d0", ()): 1, ("C", ()): HALF})

# attribute name to overwrite on each value, one instance per value type
VALUES = {
    "Scalar": (Scalar(1, 2), "_a"),
    "AlgebraElement": (AlgebraElement(HV, {(d(1), ()): 1}), "terms"),
    "PolyB": (PolyB(1, {(1,): 2}), "k"),
    "WeightVector": (WeightVector.line(2), "terms"),
    "PBWVector": (PBWVector.highest_weight(), "terms"),
    "TensorVector": (TensorVector.pure(0, 1), "terms"),
    "HighestWeightFunctional": (PHI, "terms"),
    "PolyT": (PolyT([1, 2]), "terms"),
    "JetQuotient": (JET, "order"),
    "PolynomialCoefficients": (PolynomialCoefficients(2), "k"),
    "QuotientCoefficients": (QUOTIENT, "quotients"),
    "IntermediateSeries": (IntermediateSeries(HALF, 0, 1), "alpha"),
    "OmegaModule": (OmegaModule(2, 3, [1], 0), "lam"),
    "EvaluationModule": (EvaluationModule(JetQuotient((2,), 1), IntermediateSeries(HALF, 0, 1)), "inner"),
    "TruncatedVerma": (TruncatedVerma(PHI, HV, max_level=2), "phi"),
    "TensorModule": (TensorModule(IntermediateSeries(HALF, 0, 1), IntermediateSeries(0, 1, 0)), "left"),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_type_is_covered():
    for base in (Combination, Module):
        package = {c.__name__ for c in _subclasses(base) if c.__module__.startswith("hvkit.")}
        assert package <= set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_assignment_is_refused(name):
    value, existing = VALUES[name]
    assert isinstance(value, Frozen)
    before = getattr(value, existing)
    for attr in (existing, "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, attr, 0)
    assert getattr(value, existing) is before
    assert not hasattr(value, "extra")


def test_one_refusal_in_the_package():
    owners = {
        obj
        for mod in ("scalars", "polys", "algebra", "modules", "analysis", "linalg", "cli")
        for obj in vars(importlib.import_module(f"hvkit.{mod}")).values()
        if isinstance(obj, type) and obj.__module__.startswith("hvkit.") and "__setattr__" in vars(obj)
    }
    assert owners == {Frozen}


# -- records ----------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: (JetQuotient([1, 2], 3), JetQuotient((Scalar(1), Scalar(2)), 3)),
        lambda: (JetQuotient((Fraction(1, 2),), 1), JetQuotient([HALF], 1)),
        lambda: (QuotientCoefficients([JET]), QuotientCoefficients((JetQuotient([0], 2),))),
        lambda: (PolynomialCoefficients(2), PolynomialCoefficients(k=2)),
    ],
    ids=["jet-list-ints", "jet-fraction", "quotient-list-tuple", "poly-keyword"],
)
def test_equal_records_compare_and_hash_equal(build):
    left, right = build()
    assert left == right
    assert hash(left) == hash(right)
    assert len({left, right}) == 1


def test_jet_quotient_coerces_its_point():
    q = JetQuotient([1, Fraction(1, 2)], 2)
    assert type(q.point) is tuple
    assert all(type(x) is Scalar for x in q.point)
    assert type(q.order) is int


def test_records_keep_their_validation():
    with pytest.raises(ConfigurationError, match="jet order must be >= 1, got 0"):
        JetQuotient((0,), 0)
    with pytest.raises(ConfigurationError, match="variable count must be >= 0, got -1"):
        PolynomialCoefficients(-1)
    with pytest.raises(ConfigurationError, match="need at least one jet quotient"):
        QuotientCoefficients([])
    with pytest.raises(ConfigurationError, match="quotient points must be distinct"):
        QuotientCoefficients([JET, JetQuotient([0], 1)])


@pytest.mark.parametrize(
    "value,text",
    [
        (PolynomialCoefficients(2), "PolynomialCoefficients(k=2)"),
        (JetQuotient((1, Fraction(1, 2)), 3), "JetQuotient(point=(1, 1/2), order=3)"),
        (
            QuotientCoefficients([JET, JetQuotient((1,), 1)]),
            "QuotientCoefficients([JetQuotient(point=(0), order=2), JetQuotient(point=(1), order=1)])",
        ),
        (
            HighestWeightFunctional({("d0", ()): Fraction(1, 2), ("C_D", (0, (1,))): Scalar(0, 1)}),
            "HighestWeightFunctional({('d0', ()): Scalar('1/2'), ('C_D', (0, (1,))): Scalar('i')})",
        ),
        (Scalar(Fraction(1, 2), 1), "Scalar('1/2+i')"),
        (PolyT([1, Fraction(1, 2)]), "PolyT(1/2*t + 1)"),
        (WeightVector.line(2, 3), "WeightVector({2: Scalar('3')})"),
    ],
)
def test_repr_texts_are_pinned(value, text):
    assert repr(value) == text


# -- the functional as a Combination ------------------------------------------


def test_functional_drops_zeros():
    phi = HighestWeightFunctional({("d0", ()): 0, ("C", ()): Fraction(2)})
    assert phi.terms == {("C", ()): Scalar(2)}
    assert HighestWeightFunctional({("I0", ()): 0}) == HighestWeightFunctional.zero()
    assert (PHI - PHI).terms == {}


def test_functional_refuses_unknown_slots():
    with pytest.raises(ConfigurationError, match="unknown zero-part slot 'd1'"):
        HighestWeightFunctional({("d1", ()): 1})
    with pytest.raises(ConfigurationError, match="unknown zero-part slot 'd1'"):
        HighestWeightFunctional({("d1", ()): 0})


def test_functional_moves_along_a_line():
    e = HighestWeightFunctional({("d0", ()): 1})
    s = Scalar(3, 1)
    line = PHI + s * e
    assert isinstance(line, HighestWeightFunctional)
    assert line("d0", ()) == PHI("d0", ()) + s
    assert line("C", ()) == HALF
    assert line("I0", ()) == 0
    assert line - PHI == e * s
    assert -line + PHI == (-s) * e
    assert hash(line) == hash(HighestWeightFunctional({("d0", ()): 1 + s, ("C", ()): HALF}))
    # a point of the line builds a Verma module like any functional
    verma = TruncatedVerma(line, HV, max_level=1)
    assert verma.describe()["phi"] == [
        {"gen": "C", "value": "1/2", "point": 0, "exp": []},
        {"gen": "d0", "value": "4+i", "point": 0, "exp": []},
    ]
