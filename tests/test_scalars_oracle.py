"""Differential tests of the integer-triple Scalar against a Fraction-pair oracle.

The oracle below is an independent, deliberately plain model of Q(i): a pair
of ``fractions.Fraction`` components with the textbook formulas.  Every
Scalar operation is compared with it, and every result is checked to be in
canonical form (``d > 0`` and ``gcd(a, b, d) == 1``).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hvkit.errors import ParseError
from hvkit.scalars import Scalar, parse_scalar, render_scalar, scalar


class Oracle:
    """re + im*i with Fraction components."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Oracle(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Oracle(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Oracle(-self.re, -self.im)

    def __mul__(self, o):
        return Oracle(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return Oracle(
            (self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n
        )

    def __pow__(self, k):
        base = self if k >= 0 else Oracle(1) / self
        out = Oracle(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def render(self):
        if not self.im:
            return str(self.re)
        imag = "i" if abs(self.im) == 1 else f"{abs(self.im)}*i"
        if not self.re:
            return imag if self.im > 0 else "-" + imag
        return f"{self.re}{'+' if self.im > 0 else '-'}{imag}"


def assert_matches(s, o):
    """`s` is a canonical Scalar with the oracle's value."""
    assert type(s) is Scalar
    a, b, d = s._a, s._b, s._d
    assert d > 0
    assert gcd(a, b, d) == 1
    assert (s.re, s.im) == (o.re, o.im)
    assert type(s.re) is Fraction and type(s.im) is Fraction


def as_oracle(x):
    return Oracle(x) if not isinstance(x, Scalar) else Oracle(x.re, x.im)


# small and large heights, so both the d == 1 fast paths and gcd reduction run
small_q = st.fractions(min_value=-6, max_value=6, max_denominator=6)
big_q = st.builds(
    Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12)
)
rationals = st.one_of(st.integers(-10, 10), small_q, big_q)
reals = st.builds(Scalar, rationals)
gaussians = st.builds(Scalar, rationals, rationals)
scalars = st.one_of(reals, gaussians, st.sampled_from([Scalar(0), Scalar(1), Scalar(0, 1)]))
nonzero_scalars = scalars.filter(bool)
# plain operands a Scalar meets in arithmetic: int and Fraction
plain = st.one_of(st.integers(-(10**6), 10**6), small_q, big_q)
operands = st.one_of(scalars, plain)

BINARY = [
    ("+", lambda x, y: x + y),
    ("-", lambda x, y: x - y),
    ("*", lambda x, y: x * y),
    ("/", lambda x, y: x / y),
]


@settings(max_examples=200)
@given(st.builds(Scalar, rationals, rationals))
def test_constructor_is_canonical(s):
    assert_matches(s, Oracle(s.re, s.im))
    assert_matches(Scalar(s.re, s.im), as_oracle(s))


@pytest.mark.parametrize("name, op", BINARY, ids=[n for n, _ in BINARY])
@settings(max_examples=200)
@given(x=scalars, y=operands, swap=st.booleans())
def test_binary_ops_match_oracle(name, op, x, y, swap):
    left, right = (y, x) if swap else (x, y)
    if name == "/" and right == 0:
        with pytest.raises(ZeroDivisionError):
            op(left, right)
        return
    assert_matches(op(left, right), op(as_oracle(left), as_oracle(right)))


@settings(max_examples=200)
@given(x=scalars, y=nonzero_scalars)
def test_gaussian_divisors(x, y):
    q = x / y
    assert_matches(q, as_oracle(x) / as_oracle(y))
    assert q * y == x


@given(scalars)
def test_negation_and_conjugate(x):
    assert_matches(-x, -as_oracle(x))
    assert_matches(x.conjugate(), Oracle(x.re, -x.im))


@given(scalars, st.integers(0, 6))
def test_positive_powers(x, k):
    assert_matches(x**k, as_oracle(x) ** k)


@given(nonzero_scalars, st.integers(-6, -1))
def test_negative_powers(x, k):
    assert_matches(x**k, as_oracle(x) ** k)


@settings(max_examples=200)
@given(scalars, scalars)
def test_equality_matches_oracle(x, y):
    assert (x == y) == (as_oracle(x) == as_oracle(y))
    assert (x != y) == (not as_oracle(x) == as_oracle(y))
    assert x == Scalar(x.re, x.im)


@given(scalars, plain)
def test_equality_with_plain_rationals(x, q):
    assert (x == q) == (as_oracle(x) == Oracle(q))
    assert (x == x.re.numerator) == (x.is_real and x.re.denominator == 1)
    assert Scalar(q) == q
    assert q == Scalar(q)


@settings(max_examples=200)
@given(scalars)
def test_hash_matches_fraction_hash(x):
    if x.is_real:
        assert hash(x) == hash(x.re)
    else:
        assert hash(x) == hash((x.re, x.im))


@settings(max_examples=200)
@given(scalars)
def test_render_matches_oracle(x):
    assert render_scalar(x) == as_oracle(x).render()
    assert parse_scalar(render_scalar(x)) == x


# -- inexact inputs ----------------------------------------------------------

INEXACT = [0.1, 1.0, 1j, True, False, "1/2", "1"]


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_constructor_rejects_inexact(bad):
    with pytest.raises(TypeError):
        Scalar(bad)
    with pytest.raises(TypeError):
        Scalar(1, bad)
    with pytest.raises(TypeError):
        scalar(bad)


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_arithmetic_rejects_inexact(bad):
    x = Scalar(1, 2)
    for op in (lambda: x + bad, lambda: bad - x, lambda: x * bad, lambda: bad * x, lambda: x / bad):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("bad", [0.5, True, 1j])
def test_parse_rejects_non_strings(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_immutable():
    x = Scalar(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(3)
    with pytest.raises(AttributeError):
        x._a = 3
    with pytest.raises(AttributeError):
        x.extra = 1


# -- hashing and dict interop ------------------------------------------------


def test_hash_equals_fraction_hash():
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(Scalar(-7)) == hash(-7)


def test_fraction_keyed_dict_found_with_scalar():
    table = {Fraction(-3, 4): "found"}
    assert table[Scalar(Fraction(-3, 4))] == "found"
    assert Scalar(Fraction(-3, 4)) in {Fraction(-3, 4)}


@given(gaussians, gaussians, gaussians)
def test_equal_gaussians_from_different_orders_hash_equal(x, y, z):
    first = (x + y) * z
    second = z * y + x * z
    assert first == second
    assert hash(first) == hash(second)
    table = {first: "v"}
    assert table[second] == "v"
