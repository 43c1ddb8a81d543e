"""Differential tests of the Verma PBW listing and the membership walk.

``_reference_level_monomials`` is the listing as it was before one PBW rule
(``TruncatedVerma._leads``) served both the listing and the straightening: a
recursion over the sorted factor list, one call per factor.
``_reference_in_maximal_submodule`` is the membership test as it was before
the walk visited each line once: it walks every raising word of the
reachable cone.  Both are kept verbatim, with their raising factors built
here, so they share no code with ``level_monomials`` or the line walk.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hvkit.algebra import AlgebraElement, Generator, PolynomialCoefficients, QuotientCoefficients
from hvkit.analysis import in_maximal_submodule, pbw_order_spotcheck, singular_vectors
from hvkit.linalg import sparse_kernel, sparse_rref
from hvkit.modules import (
    PBW_D_FIRST,
    PBW_I_FIRST,
    HighestWeightFunctional,
    PBWVector,
    TruncatedVerma,
)
from hvkit.polys import JetQuotient
from hvkit.scalars import ONE, ZERO, Scalar

# -- the listing and the cone walk, kept as the oracles ---------------------------


def _reference_level_monomials(module: TruncatedVerma, level: int) -> list:
    factors = [
        (kind, -i, key)
        for i in range(1, level + 1)
        for kind in ("d", "I")
        for key in module.coefficient_keys()
    ]
    factors.sort(key=module.order.key)
    out: list = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for pos in range(start, len(factors)):
            f = factors[pos]
            if -f[1] <= remaining:
                acc.append(f)
                rec(pos, remaining + f[1], acc)
                acc.pop()

    rec(0, level, [])
    return out


def _reference_in_maximal_submodule(module: TruncatedVerma, v: PBWVector) -> bool:
    by_level: dict[int, dict] = {}
    for mono, c in v.terms.items():
        lvl = TruncatedVerma.level_of(mono)
        by_level.setdefault(lvl, {})[mono] = c
    ops = {
        (kind, idx, key): AlgebraElement(module.coeffs, {(Generator(kind, idx), key): ONE})
        for (kind, idx) in (("d", 1), ("d", 2), ("I", 1))
        for key in module.coefficient_keys()
    }

    def rec(vec: PBWVector, level: int) -> bool:
        if vec.is_zero:
            return True
        if level == 0:
            return False
        return all(
            rec(module.act(op, vec), level - fac[1]) for fac, op in ops.items() if fac[1] <= level
        )

    return all(rec(PBWVector(part), lvl) for lvl, part in by_level.items())


# -- modules ----------------------------------------------------------------------

ALGEBRAS = {
    "trivial": PolynomialCoefficients(0),
    "b2": QuotientCoefficients((JetQuotient((ZERO,), 2),)),
    "m3": QuotientCoefficients((JetQuotient((ZERO,), 3),)),
    "b2+m1": QuotientCoefficients((JetQuotient((ZERO,), 2), JetQuotient((ONE,), 1))),
}
LISTED_LEVELS = {"trivial": 12, "b2": 7, "m3": 5, "b2+m1": 5}
ORDERS = [PBW_D_FIRST, PBW_I_FIRST]

SLOTS = ("d0", "I0", "C", "C_D", "C_I")
Q = Fraction


def _values(table):
    """{(slot, key index): scalar} from rows per coefficient key."""
    return {(slot, i): Scalar(v) for i, row in enumerate(table) for slot, v in zip(SLOTS, row)}


FUNCTIONALS = {
    # rows: coefficient key 0, 1; columns: d0, I0, C, C_D, C_I
    "zero": {},
    "generic": _values([(Q(3, 2), Q(-2), Q(5), Q(1, 3), Q(-4)), (Q(-1), Q(2, 5), Q(7), Q(3), Q(1, 2))]),
    "degenerate": _values([(Q(3, 2), 0, Q(5), 0, 0), (Q(-1), 0, Q(7), 0, 0)]),
}
FUNCTIONALS["gaussian"] = dict(FUNCTIONALS["generic"])
FUNCTIONALS["gaussian"][("d0", 0)] = Scalar(Q(3, 2), 2)
FUNCTIONALS["gaussian"][("I0", 1)] = Scalar(0, 1)


def _verma(algebra, kind, max_level, order=PBW_D_FIRST):
    coeffs = ALGEBRAS[algebra]
    keys = coeffs.basis_keys()
    phi = {(slot, keys[i]): c for (slot, i), c in FUNCTIONALS[kind].items() if i < len(keys)}
    return TruncatedVerma(HighestWeightFunctional(phi), coeffs, max_level=max_level, order=order)


# -- the listing --------------------------------------------------------------------


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
def test_listing_matches_the_recursive_reference(algebra, order):
    top = LISTED_LEVELS[algebra]
    upwards = _verma(algebra, "zero", top, order)
    top_first = _verma(algebra, "zero", top, order)
    top_first.level_monomials(top)  # every lower level comes from the cache
    for n in range(top + 1):
        want = _reference_level_monomials(upwards, n)
        assert upwards.level_monomials(n) == want
        assert top_first.level_monomials(n) == want
        assert len(want) == upwards.level_dimension(n)


@pytest.mark.parametrize("algebra", ["trivial", "b2"])
def test_spotcheck_dims_are_the_listing_lengths(algebra):
    """The dims columns read each handle's listing, not the order-free count."""
    module = _verma(algebra, "zero", 3)
    report = pbw_order_spotcheck(module, PBW_I_FIRST, level_bound=3)
    alt = _verma(algebra, "zero", 3, PBW_I_FIRST)
    want = [
        (m, len(_reference_level_monomials(module, m)), len(_reference_level_monomials(alt, m)))
        for m in range(4)
    ]
    assert [row[:3] for row in report.rows] == want
    assert report.passed


# -- membership -----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _slice(algebra, kind, level) -> list:
    """The maximal-submodule slice at ``level``, built once on its own handle."""
    return singular_vectors(_verma(algebra, kind, level), level)


_COEFF = st.one_of(
    st.integers(-3, 3).filter(bool).map(Scalar),
    st.tuples(st.integers(-2, 2), st.integers(1, 2)).map(lambda ab: Scalar(*ab)),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_membership_matches_the_cone_walk_reference(data):
    algebra = data.draw(st.sampled_from(["trivial", "b2"]))
    kind = data.draw(st.sampled_from(sorted(FUNCTIONALS)))
    levels = data.draw(st.sets(st.integers(1, 4), min_size=1, max_size=2))
    module = _verma(algebra, kind, 4)
    v = PBWVector()
    perturbed = False
    for level in sorted(levels):
        for vec in _slice(algebra, kind, level):
            v = v + data.draw(st.one_of(st.just(ZERO), _COEFF)) * vec
        monos = module.level_monomials(level)
        for j, c in data.draw(st.lists(st.tuples(st.integers(0, len(monos) - 1), _COEFF), max_size=2)):
            v = v + PBWVector({monos[j]: c})
            perturbed = True
    twin = _verma(algebra, kind, 4)  # its own caches, so neither side reads the other's
    got = in_maximal_submodule(module, v)
    assert got == _reference_in_maximal_submodule(twin, v)
    if not perturbed:
        assert got


@pytest.mark.parametrize("algebra", ["trivial", "b2"])
def test_membership_needs_the_degree_two_raising_factor(algebra):
    """Level-2 vectors killed by d_1 and I_1 but not by d_2 lie outside M."""
    module = _verma(algebra, "generic", 2)
    assert singular_vectors(module, 1) == [] and singular_vectors(module, 2) == []
    monos = module.level_monomials(2)
    rows: dict = {}
    for (kind, idx) in (("d", 1), ("I", 1)):
        for key in module.coefficient_keys():
            op = AlgebraElement(module.coeffs, {(Generator(kind, idx), key): ONE})
            for j, mono in enumerate(monos):
                for m2, c in module.act(op, PBWVector({mono: ONE})).terms.items():
                    rows.setdefault((kind, key, m2), {})[j] = c
    below_d2 = sparse_kernel(sparse_rref(rows.values()), len(monos))
    assert below_d2
    for vec in below_d2:
        v = PBWVector({monos[j]: c for j, c in vec.items()})
        assert not in_maximal_submodule(module, v)
        assert not _reference_in_maximal_submodule(_verma(algebra, "generic", 2), v)
