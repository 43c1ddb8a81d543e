"""Polynomial coefficient machinery.

Three flavours live here:

* ``PolyT`` -- polynomials in t over Q(i), the vectors of the rank-one-free
  module family: a :class:`~hvkit.scalars.Combination` keyed by degree.  It
  adds the product, the translation ``shift``, evaluation, rendering and a
  read-only dense view ``coeffs``.
* ``PolyB`` -- polynomials in b_1..b_k, the coefficient algebra B of the map
  construction: a :class:`~hvkit.scalars.Combination` keyed by exponent
  tuples.  It adds only the product and rendering; for both, sums,
  equality, hashing, ``coeff`` and ``is_zero`` are the shared ones.
* ``JetQuotient`` -- the finite-dimensional quotient B/m^s at a point, with
  basis the monomials (b - mu)^r of total degree < s.  Order 1 reproduces
  plain evaluation at the point; :func:`jet_expand` is the quotient map.

Points of C^k are plain tuples of scalars (type alias ``PointB``).
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add

from .errors import ConfigurationError, DimensionMismatchError
from .scalars import ONE, ZERO, Combination, Frozen, Scalar, render_scalar, render_sum, scalar

MonomialExp = tuple[int, ...]
PointB = tuple[Scalar, ...]


def exponents_upto(k: int, bound: int) -> list[MonomialExp]:
    """All exponent k-tuples r with |r| <= bound, sorted by (|r|, r), each built
    once, in time linear in their number times k.

    Each total t starts at (0, .., 0, t); the next tuple moves one unit from
    the rightmost nonzero entry j to entry j - 1 and the rest of entry j to
    the last entry, and j = 0 ends the total."""
    if k == 0:
        return [()]
    out = []
    for t in range(bound + 1):
        r = [0] * (k - 1) + [t]
        out.append(tuple(r))
        j = k - 1 if t else 0
        while j:
            s, r[j] = r[j], 0
            r[j - 1] += 1
            r[-1] = s - 1
            out.append(tuple(r))
            j = k - 1 if s > 1 else j - 1
    return out


def exponent_count(k: int, bound: int, budget: int) -> int:
    """len(exponents_upto(k, bound)), counted without listing.  That is comb(n, min(k, bound))
    >= n = bound + k, so once n * n > ``budget`` the smaller n stands in for it, unexpanded."""
    if bound < 0:
        return int(k == 0)
    n, r = bound + k, min(k, bound)
    return n if r and n * n > budget else comb(n, r)


# ---------------------------------------------------------------------------
# univariate polynomials in t
# ---------------------------------------------------------------------------


class PolyT(Combination):
    """Polynomial in t: a :class:`Combination` keyed by degree, built from dense
    coefficients ``[c0, c1, ...]`` or from terms ``{n: c}``, each n an integer >= 0."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        terms = coeffs if isinstance(coeffs, dict) else dict(enumerate(coeffs))
        for n in terms:
            if type(n) is not int or n < 0:
                raise DimensionMismatchError(f"degree {n!r} invalid for a polynomial in t")
        Combination.__init__(self, terms)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: ONE})

    @classmethod
    def t_power(cls, n: int):
        return cls({n: ONE})

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    @property
    def coeffs(self) -> tuple:
        """The dense coefficients, ascending by degree up to the leading one."""
        return tuple(map(self.coeff, range(self.degree + 1)))

    # own class-dict entry: bench/spans.py wraps PolyT.__add__ by name
    __add__ = Combination.__add__

    def __mul__(self, other):
        if isinstance(other, PolyT):
            out: dict[int, Scalar] = {}
            for i, a in self.terms.items():
                for j, b in other.terms.items():
                    out[i + j] = out.get(i + j, ZERO) + a * b
            return PolyT(out)
        return Combination.__mul__(self, other)

    __rmul__ = __mul__

    def __call__(self, x) -> Scalar:
        x = scalar(x)
        return sum((c * x**j for j, c in self.terms.items()), ZERO)

    def shift(self, n: int) -> "PolyT":
        """Return f(t - n): precompose with the translation t -> t - n."""
        if n == 0 or not self.terms:
            return self
        out: dict[int, Scalar] = {}
        for j, cj in self.terms.items():
            # (t - n)^j expanded by the binomial theorem
            for i in range(j + 1):
                out[i] = out.get(i, ZERO) + (comb(j, i) * (-n) ** (j - i)) * cj
        return PolyT(out)

    def render(self) -> str:
        terms = sorted(self.terms.items(), reverse=True)
        return render_sum((("" if j == 0 else "t" if j == 1 else f"t^{j}", c) for j, c in terms), signed=True)

    def __repr__(self):
        return f"PolyT({self.render()})"


# ---------------------------------------------------------------------------
# sparse multivariate polynomials in b_1..b_k
# ---------------------------------------------------------------------------


class PolyB(Combination):
    """Element of B = C[b_1..b_k]: a :class:`Combination` keyed by exponent tuples."""

    __slots__ = ("k",)

    def __init__(self, k: int, terms=None):
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != k or any(e < 0 for e in exps):
                raise DimensionMismatchError(f"exponent {exps} invalid for k={k}")
            clean[exps] = clean.get(exps, ZERO) + scalar(c)
        object.__setattr__(self, "k", k)
        Combination.__init__(self, clean)

    def _space(self):
        return self.k

    def _like(self, terms):
        return PolyB(self.k, terms)

    @classmethod
    def zero(cls, k: int):
        return cls(k, {})

    @classmethod
    def const(cls, k: int, value):
        return cls(k, {(0,) * k: scalar(value)})

    @classmethod
    def variable(cls, k: int, i: int):
        """The polynomial b_{i+1} (0-based index i)."""
        exps = [0] * k
        exps[i] = 1
        return cls(k, {tuple(exps): ONE})

    @classmethod
    def monomial(cls, exps: MonomialExp, coeff=ONE):
        return cls(len(exps), {tuple(exps): scalar(coeff)})

    # own class-dict entry: bench/spans.py wraps PolyB.__add__ by name
    __add__ = Combination.__add__

    def __mul__(self, other):
        if isinstance(other, PolyB):
            self._check(other)
            out: dict[MonomialExp, Scalar] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, ZERO) + c1 * c2
            return PolyB(self.k, out)
        return Combination.__mul__(self, other)

    __rmul__ = __mul__

    def render(self) -> str:
        terms = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        return render_sum(((render_monomial(exps), c) for exps, c in terms), signed=False)

    def __repr__(self):
        return f"PolyB({self.render()})"


def render_monomial(exps: MonomialExp) -> str:
    """``b1*b2^2`` for ``(1, 2)``; empty for the constant monomial."""
    return "*".join(f"b{i + 1}" if e == 1 else f"b{i + 1}^{e}" for i, e in enumerate(exps) if e)


# ---------------------------------------------------------------------------
# jet quotients B/m^s
# ---------------------------------------------------------------------------


class JetQuotient(Frozen):
    """The quotient B/m^s at a point, m the maximal ideal (b_1-mu_1, .., b_k-mu_k).

    Concretely: scalars on the monomials (b - mu)^r with |r| < order, with
    multiplication truncating everything of total degree >= order.
    """

    __slots__ = ("point", "order")

    def __init__(self, point, order: int):
        if order < 1:
            raise ConfigurationError(f"jet order must be >= 1, got {order}")
        object.__setattr__(self, "point", tuple(scalar(x) for x in point))
        object.__setattr__(self, "order", int(order))

    @property
    def k(self) -> int:
        return len(self.point)

    def basis(self) -> list[MonomialExp]:
        return exponents_upto(self.k, self.order - 1)

    @property
    def dimension(self) -> int:
        """``len(self.basis())``, counted without listing it."""
        return comb(self.order - 1 + self.k, self.k)

    def multiply_exps(self, r: MonomialExp, s: MonomialExp) -> MonomialExp | None:
        """Product of two basis monomials, or None if it truncates to zero."""
        out = tuple(map(add, r, s))
        return out if sum(out) < self.order else None

    def __eq__(self, other):
        if not isinstance(other, JetQuotient):
            return NotImplemented
        return self.point == other.point and self.order == other.order

    def __hash__(self):
        return hash((self.point, self.order))

    def __repr__(self):
        pt = ", ".join(render_scalar(x) for x in self.point)
        return f"JetQuotient(point=({pt}), order={self.order})"


def jet_expand(p: PolyB, q: JetQuotient) -> dict[MonomialExp, Scalar]:
    """Taylor coefficients of p at q.point, truncated at the quotient order.

    Returns the image of p in B/m^s as a map from (b - mu)^r exponents to
    scalars.  A ring map: the degree-0 coefficient is the value of p at
    q.point (``poly_eval``), and jets multiply like the truncated ring.
    """
    if p.k != q.k:
        raise DimensionMismatchError(f"poly k={p.k} vs quotient k={q.k}")
    out: dict[MonomialExp, Scalar] = {}
    for exps, c in p.terms.items():
        # b^e = prod_i ((b_i - mu_i) + mu_i)^{e_i}, expanded binomially
        for r in itertools.product(*(range(min(e, q.order - 1) + 1) for e in exps)):
            if sum(r) >= q.order:
                continue
            w = c
            for e_i, r_i, mu_i in zip(exps, r, q.point):
                if e_i > r_i:
                    w = w * (comb(e_i, r_i) * mu_i ** (e_i - r_i))
                else:
                    w = w * comb(e_i, r_i)
            key = tuple(r)
            out[key] = out.get(key, ZERO) + w
    return {r: c for r, c in out.items() if not c.is_zero}


def poly_eval(p: PolyB, point: PointB) -> Scalar:
    """Evaluate p at a point of C^k, as its order-1 jet there.  This is the ring map eta: B -> C."""
    return jet_expand(p, JetQuotient(point, 1)).get((0,) * len(point), ZERO)

