"""Differential tests of the sparse ``PolyT`` against the dense one it replaced.

``DensePolyT`` below is the earlier implementation, kept verbatim apart from
its name: a tuple of coefficients ascending by degree, trailing zeros
stripped.  Every operation of the sparse ``PolyT`` (a ``Combination`` keyed
by degree) is compared with it on the same dense inputs, and the sparse type
is checked to mix with no other vector type.
"""

from math import comb

import pytest
from hypothesis import given, strategies as st

from hvkit.errors import DimensionMismatchError
from hvkit.modules import PBWVector, TensorVector, WeightVector
from hvkit.polys import PolyB, PolyT
from hvkit.scalars import ONE, ZERO, Combination, Frozen, Scalar, render_scalar, scalar


class DensePolyT(Frozen):
    """Polynomial in t, coefficients ascending by degree, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((ONE,))

    @classmethod
    def t_power(cls, n: int):
        return cls((ZERO,) * n + (ONE,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Scalar:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else ZERO

    def __add__(self, other):
        if not isinstance(other, DensePolyT):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return DensePolyT(out)

    def __sub__(self, other):
        if not isinstance(other, DensePolyT):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DensePolyT(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, DensePolyT):
            if not self.coeffs or not other.coeffs:
                return DensePolyT()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return DensePolyT(out)
        try:
            c = scalar(other)
        except TypeError:
            return NotImplemented
        return DensePolyT(tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DensePolyT):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x) -> Scalar:
        x = scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, n: int) -> "DensePolyT":
        """Return f(t - n): precompose with the translation t -> t - n."""
        if n == 0 or not self.coeffs:
            return self
        out = [ZERO] * len(self.coeffs)
        for j, cj in enumerate(self.coeffs):
            if cj.is_zero:
                continue
            # (t - n)^j expanded by the binomial theorem
            for i in range(j + 1):
                out[i] = out[i] + (comb(j, i) * (-n) ** (j - i)) * cj
        return DensePolyT(out)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if c.is_zero:
                continue
            mono = "1" if j == 0 else ("t" if j == 1 else f"t^{j}")
            if j == 0:
                body = render_scalar(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                sc = render_scalar(c)
                sc = f"({sc})" if ("+" in sc[1:] or "-" in sc[1:]) else sc
                body = f"{sc}*{mono}"
            parts.append(body)
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"PolyT({self.render()})"


# small Gaussian rationals, zero often, so gaps and trailing zeros occur
parts = st.sampled_from([0, 0, 1, -1, 2, -3]) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(Scalar, parts, st.sampled_from([0, 0, 0, 1, -1]) | parts)
dense = st.lists(scalars, max_size=6)
shifts = st.integers(min_value=-3, max_value=3)


def pair(coeffs):
    return PolyT(coeffs), DensePolyT(coeffs)


def assert_same(got: PolyT, want: DensePolyT):
    assert isinstance(got, PolyT)
    assert got.coeffs == want.coeffs
    assert got.degree == want.degree
    assert got.is_zero == want.is_zero
    assert got.render() == want.render()
    assert repr(got) == repr(want)
    for n in range(-2, want.degree + 3):
        assert got.coeff(n) == want.coeff(n), n
    assert all(not c.is_zero for c in got.terms.values())


@given(dense)
def test_construction_matches(coeffs):
    assert_same(*pair(coeffs))


def test_named_constructors_match():
    assert_same(PolyT.zero(), DensePolyT.zero())
    assert_same(PolyT.one(), DensePolyT.one())
    for n in range(5):
        assert_same(PolyT.t_power(n), DensePolyT.t_power(n))


@given(dense, dense)
def test_sums_and_differences_match(a, b):
    (f, rf), (g, rg) = pair(a), pair(b)
    assert_same(f + g, rf + rg)
    assert_same(f - g, rf - rg)
    assert_same(-f, -rf)


@given(dense, dense, scalars)
def test_products_match(a, b, c):
    (f, rf), (g, rg) = pair(a), pair(b)
    assert_same(f * g, rf * rg)
    assert_same(c * f, c * rf)
    assert_same(f * c, rf * c)
    assert_same(3 * f, 3 * rf)


@given(dense, shifts, scalars)
def test_shift_and_evaluation_match(a, n, x):
    f, rf = pair(a)
    assert_same(f.shift(n), rf.shift(n))
    assert f(x) == rf(x)
    assert f(n) == rf(n)


@given(dense, dense)
def test_equality_matches(a, b):
    (f, rf), (g, rg) = pair(a), pair(b)
    assert (f == g) == (rf == rg)
    assert (f != g) == (rf != rg)
    if f == g:
        assert hash(f) == hash(g)


@given(dense)
def test_sparse_terms_build_the_same_polynomial(a):
    f, rf = pair(a)
    assert PolyT(dict(f.terms)) == f
    assert PolyT({j: c for j, c in enumerate(a)}) == f
    assert_same(PolyT(dict(f.terms)), rf)


def test_other_vector_types_do_not_mix():
    f = PolyT([1, 0, 2])
    others = [
        WeightVector(f.terms),
        PBWVector(f.terms),
        TensorVector(f.terms),
        PolyB(1, {(0,): 1, (2,): 2}),
    ]
    for other in others:
        assert isinstance(other, Combination)
        assert f != other and other != f
        with pytest.raises(TypeError):
            f + other
        with pytest.raises(TypeError):
            other + f
        with pytest.raises(TypeError):
            f - other
        with pytest.raises(TypeError):
            f * other


@pytest.mark.parametrize("bad", [-1, 1.0, True, (1,), "1"])
def test_a_degree_that_is_not_a_natural_number_is_refused(bad):
    with pytest.raises(DimensionMismatchError, match="invalid for a polynomial in t"):
        PolyT({0: 1, bad: 2})
