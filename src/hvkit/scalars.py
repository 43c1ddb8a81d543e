"""Exact Gaussian-rational scalars.

The ground field at desk scale is Q(i): numbers a + b*i with rational a, b.
Every identity checked by this package is a polynomial identity over this
field, so equality is exact and "equals zero" is decidable.  There is no
floating-point mode: inexact or ambiguous inputs (``float``, ``complex``,
``bool``, ``str``) are refused with ``TypeError``.

Values are immutable by one rule: a :class:`Frozen` value (scalars,
combinations, polynomials, coefficient algebras, jet quotients and module
handles) writes its slots once, in ``__init__``, and refuses every assignment.

A :class:`Scalar` is the integer triple ``(a, b, d)`` standing for
``(a + b*i)/d``, one common denominator for both parts.  The triple is kept
canonical, ``d > 0`` and ``gcd(a, b, d) == 1``, so equality is triple
equality and every operation normalises its result with a single
``math.gcd`` (skipped when ``d == 1``).  The parts ``re`` and ``im`` read
back as :class:`fractions.Fraction`.

Scalars serialize as strings like ``"3"``, ``"-3/4"``, ``"1/2*i"`` or
``"3/4+1/2*i"``; :func:`parse_scalar` accepts the same grammar.

:class:`Combination` is the one sparse linear combination over these
scalars: algebra elements, the vectors of every module family, the
highest-weight functional and the polynomials ``PolyT`` and ``PolyB`` are
its subclasses.
"""

from __future__ import annotations

import numbers
import re as _re
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatchError, ParseError


def _rational_parts(value):
    """(numerator, denominator) of an exact rational, or None for anything else."""
    t = type(value)
    if t is int:
        return value, 1
    if t is Fraction or (isinstance(value, numbers.Rational) and t is not bool):
        return int(value.numerator), int(value.denominator)
    return None


class Frozen:
    """Base of the immutable value types: every attribute assignment is refused."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Scalar(Frozen):
    """An element (a + b*i)/d of Q(i), stored as a canonical integer triple.

    The triple is written once, through the slot writers, and ``re`` and
    ``im`` are read-only views of it.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re_parts, im_parts = _rational_parts(re), _rational_parts(im)
        if re_parts is None or im_parts is None:
            bad = re if re_parts is None else im
            raise TypeError(f"cannot make a Scalar from {bad!r}: not an exact rational")
        (p, q), (r, s) = re_parts, im_parts
        a, b, d = p * s, r * q, q * s
        g = gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def triple(self) -> tuple:
        """The canonical integer triple ``(a, b, d)`` of ``(a + b*i)/d``."""
        return self._a, self._b, self._d

    @staticmethod
    def from_triple(a: int, b: int, d: int) -> "Scalar":
        """The Scalar ``(a + b*i)/d`` for integers a, b and d != 0, made canonical."""
        return _make(a, b, d)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self._a or self._b)

    @property
    def is_zero(self):
        return not (self._a or self._b)

    @property
    def is_real(self):
        return not self._b

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._a - other._a, self._b - other._b, d)
        return _make(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self._d, other._d
        return _make(other._a * d - self._a * e, other._b * d - self._b * e, d * e)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                return _make(self._a * other, self._b * other, self._d)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        b, e = self._b, other._b
        if not (b or e):
            return _make(self._a * other._a, 0, self._d * other._d)
        a, c = self._a, other._a
        return _make(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        c, e, f = other._a, other._b, other._d
        a, b = self._a, self._b
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            return _make(a * f, b * f, self._d * c)
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i) f / (d (c^2 + e^2))
        return _make((a * c + b * e) * f, (b * c - a * e) * f, self._d * (c * c + e * e))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ONE
        if n < 0:
            return (ONE / self) ** (-n)
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self):
        return _make(self._a, -self._b, self._d)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if type(other) is int:
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, numbers.Rational):
            return not self._b and self._a * other.denominator == other.numerator * self._d
        return NotImplemented

    def __hash__(self):
        # the hash of the equal Fraction (or int), so Scalars and rationals mix as keys
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({render_scalar(self)!r})"

    def sort_key(self):
        return (self.re, self.im)


_new = object.__new__
# slot writers that bypass Frozen.__setattr__, which refuses every assignment
_set_a, _set_b, _set_d = Scalar._a.__set__, Scalar._b.__set__, Scalar._d.__set__


def _make(a, b, d):
    """The canonical Scalar (a + b*i)/d, for integers a, b and d != 0."""
    if d != 1:
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _coerce(value):
    if type(value) is Scalar:
        return value
    parts = _rational_parts(value)
    if parts is None:
        return NotImplemented
    return _make(parts[0], 0, parts[1])


def scalar(value) -> Scalar:
    """Coerce an int, Fraction (or other exact rational) or Scalar into a Scalar."""
    if type(value) is Scalar:
        return value
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {value!r} to Scalar: not an exact rational")
    return out


ZERO = Scalar(0)
ONE = Scalar(1)
IMAG = Scalar(0, 1)


def _render_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_scalar(s: Scalar) -> str:
    re, im = s.re, s.im
    if not im:
        return _render_rational(re)
    if im == 1:
        imag = "i"
    elif im == -1:
        imag = "-i"
    else:
        imag = f"{_render_rational(im)}*i"
    if not re:
        return imag
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imag = "i" if mag == 1 else f"{_render_rational(mag)}*i"
    return f"{_render_rational(re)}{sign}{imag}"


def render_sum(terms, signed: bool) -> str:
    """The text of a sum of ``(body, coefficient)`` terms, in the order given;
    ``0`` for none.  An empty body prints its scalar, a coefficient 1 is left
    out, and one with both parts nonzero is parenthesized, as in ``(1/2+i)*t``.
    ``signed`` folds signs (``d(1) - 2*d(2)``); unsigned text reads
    ``-1*v[0] + -2*v[1]``."""
    parts = []
    for body, c in terms:
        if not body:
            parts.append(render_scalar(c))
        elif c == 1:
            parts.append(body)
        elif signed and c == -1:
            parts.append(f"-{body}")
        else:
            text = render_scalar(c)
            parts.append(f"({text})*{body}" if c.re and c.im else f"{text}*{body}")
    if not parts:
        return "0"
    if not signed:
        return " + ".join(parts)
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


_CHUNK = _re.compile(r"[+-][^+-]+")


def parse_scalar(text: str) -> Scalar:
    """Parse ``"a/b"`` / ``"a/b+c/d*i"`` style strings into a Scalar.

    Tolerates spaces, a Unicode minus, and ``i`` with or without the ``*``.
    """
    if isinstance(text, Scalar):
        return text
    if _rational_parts(text) is not None:
        return Scalar(text)
    if not isinstance(text, str):
        raise ParseError(f"expected a scalar string, got {text!r}")
    s = text.strip().replace(" ", "").replace("−", "-")
    if not s:
        raise ParseError("empty scalar string")
    if s[0] not in "+-":
        s = "+" + s
    chunks = _CHUNK.findall(s)
    if "".join(chunks) != s:
        raise ParseError(f"malformed scalar {text!r}")
    re_part = im_part = None
    for chunk in chunks:
        sign = -1 if chunk[0] == "-" else 1
        body = chunk[1:]
        try:
            if body.endswith("i"):
                core = body[:-1].rstrip("*")
                value = Fraction(1) if core == "" else Fraction(core)
                if im_part is not None:
                    raise ParseError(f"two imaginary parts in {text!r}")
                im_part = sign * value
            else:
                if re_part is not None:
                    raise ParseError(f"two real parts in {text!r}")
                re_part = sign * Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed scalar {text!r}") from exc
    return Scalar(re_part or 0, im_part or 0)


class Combination(Frozen):
    """Immutable finite linear combination: a dict from keys to nonzero scalars.

    Subclasses say what the keys are.  Two combinations add or compare only
    when they are of one type and ``_space()`` agrees; ``_like`` builds a
    sibling in the same space.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            c = scalar(c)
            if not c.is_zero:
                clean[key] = c
        object.__setattr__(self, "terms", clean)

    def _space(self):
        return None

    def _like(self, terms):
        return type(self)(terms)

    def _check(self, other):
        if self._space() != other._space():
            raise DimensionMismatchError("elements live over different coefficient algebras")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key) -> Scalar:
        return self.terms.get(key, ZERO)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        try:
            c = scalar(other)
        except TypeError:
            return NotImplemented
        return self._like({k: c * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"
