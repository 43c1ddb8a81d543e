"""The five module families behind one action interface.

A family defines its column: ``_column(kind, index, key, basis_key)``, the
(basis key, coefficient) pairs of one decorated generator
``kind_index (x) key`` acting on one basis vector.  :meth:`Module.apply` is the
package's one linear extension: it sums the column over the terms the family
reads x as (``_terms``: the terms of x, except for the evaluation wrapper and
tensor products) and the coordinates of v.  :meth:`Module.act` checks the
element's algebra against the module's (an element holding the module's own
algebra object passes without a comparison), calls it and makes its dict the
vector's terms without another pass.  The families and their columns:

* ``IntermediateSeries`` -- weight lines v_{alpha+k} indexed by integer
  offsets; d_i shifts a line by i with coefficient alpha + k + beta*i, I_i
  shifts with the fixed scalar f, and the central elements act as zero.
* ``OmegaModule`` -- C[t], free of rank one over the subalgebra generated by
  d_0 (which acts as multiplication by t): it states x . 1 (``_one_image``)
  and acts by the rule x_n . f = f(t-n) (x_n . 1).  lambda must be nonzero.
  Vectors are ``PolyT``.
* ``EvaluationModule`` -- wraps a module over a single jet quotient (or over
  the core algebra when the order is 1) into a module over the polynomial
  map algebra: x (x) p acts through the jet expansion of p, each jet read
  as an inner key through one map (``_keys``), so the wrapper reads x as
  its merged image in the inner algebra (``_merged``, which ``translate``
  wraps as an element) and its column is the inner module's column.
* ``TruncatedVerma`` -- the highest-weight module induced from a functional
  on the zero part, materialized on its PBW basis up to a truncation level.
  One PBW rule (``_leads``: a lowering factor may stand in front of a
  monomial whose first factor it does not follow in the order) lists the
  basis and places lowering factors when straightening.  Raising operators
  are never truncated (they lower the level); lowering past the truncation
  raises :class:`LevelOverflowError`.  A level is counted before it is
  listed, and one past ``MAX_LEVEL_MONOMIALS`` is refused.
* ``TensorModule`` -- Leibniz on the two factor columns: x is read as the
  terms each factor reads it as, tagged with the factor's side.

Every vector is a :class:`~hvkit.scalars.Combination` keyed by basis keys,
of the family's ``vector_type``: weight lines, degrees in t (``PolyT``), PBW
monomials or key pairs of a tensor.  The highest-weight functional is one
keyed by (slot, coefficient key).

Sweeps and probes run over a window of basis keys, and :meth:`Module.window_keys`
is its one listing: it counts the window first (``window_size``, and
``window_cost``, where an Ω vector t^j weighs its j + 1 image coefficients),
refuses one past ``MAX_WINDOW_VECTORS`` before listing anything, and then
returns the family's ``_window_keys``.

A handle is :class:`~hvkit.scalars.Frozen`, but it is not stateless: it fills
unbounded memo caches as it acts (``OmegaModule._term_cache``, x . 1 per
decorated generator, ``TruncatedVerma._cache``, ``_level_cache`` and
``_lift_cache``, ``EvaluationModule._jet_cache``).  Entries are only ever
added, each a deterministic function of its key, so results do not depend on
call order; the memory is held until the handle is dropped.  Cached dicts and lists are
handed to callers as they are and must not be mutated, and nothing locks the
caches.  Descriptors round-trip through :meth:`Module.describe` /
:func:`module_from_descriptor` as JSON-shaped dicts; a family's descriptor is
its row of ``_FAMILIES``.  Drivers and the CLI read a module only through
this interface and never dispatch on its class: ``vector_type`` picks a
reducibility probe and ``default_window`` is the window ``check-axioms``
sweeps when its config names none.  So a new family is its row plus its class.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .algebra import (
    AlgebraElement,
    Generator,
    PolynomialCoefficients,
    QuotientCoefficients,
    StructureFn,
    hv_structure,
    lifted_structure,
    render_decorated,
)
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    HvkitError,
    LevelOverflowError,
    ParseError,
)
from .polys import JetQuotient, PolyB, PolyT, jet_expand
from .scalars import ONE, ZERO, Combination, Frozen, Scalar, parse_scalar, render_scalar, render_sum, scalar


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


_new = object.__new__
# writes a vector's terms without Combination.__init__'s pass over them: act
# hands it apply's dict, which holds distinct keys and nonzero Scalars only
_set_terms = Combination.terms.__set__


class WeightVector(Combination):
    """Combination of weight lines, keyed by the integer offset k of v_{alpha+k}."""

    __slots__ = ()

    @classmethod
    def line(cls, k: int, coeff=ONE):
        return cls({int(k): scalar(coeff)})

    def render(self) -> str:
        return render_sum(((f"v[{k}]", c) for k, c in sorted(self.terms.items())), signed=False)


class PBWVector(Combination):
    """Combination of PBW monomials applied to the highest-weight generator."""

    __slots__ = ()

    @classmethod
    def highest_weight(cls, coeff=ONE):
        return cls({(): scalar(coeff)})

    def render(self, coeffs) -> str:
        """Text form like ``-2*I(-1)·hw + d(-1)⊗e[1]·hw``, factors decorated over ``coeffs``."""
        def body(mono):
            return "·".join([render_decorated(coeffs, Generator(kind, idx), key) for kind, idx, key in mono] + ["hw"])

        return render_sum(((body(mono), c) for mono, c in sorted(self.terms.items())), signed=False)


class TensorVector(Combination):
    """Combination of pure tensors, keyed by (left basis key, right basis key)."""

    __slots__ = ()

    @classmethod
    def pure(cls, left_key, right_key, coeff=ONE):
        return cls({(left_key, right_key): scalar(coeff)})


# ---------------------------------------------------------------------------
# base handle
# ---------------------------------------------------------------------------

MAX_WINDOW_VECTORS = 100_000  # the most a window may weigh (``Module.window_cost``) in one command


class Module(Frozen):
    __slots__ = ()
    family = "abstract"
    # the family's Combination subclass, which every vector of the module is
    vector_type = None
    # the window check-axioms sweeps when its config names none
    default_window = 1

    def algebra(self):
        raise NotImplementedError

    def _column(self, kind: str, index: int, key, basis_key):
        """(basis key, coefficient) pairs of kind_index (x) key on one basis vector:
        distinct keys, nonzero coefficients, maybe a view of a handle's cache."""
        raise NotImplementedError

    def act(self, x: AlgebraElement, v):
        """x . v: the element is checked against the module's algebra (skipped
        when it holds that very algebra object), read as the family's own terms
        (``_terms``) and extended over by :meth:`apply`, whose dict becomes the
        vector's terms as it is."""
        if x.coeffs is not self.algebra():
            self._check_element(x)
        out = _new(self.vector_type)
        _set_terms(out, self.apply(self._terms(x.terms.items()), v.terms.items()))
        return out

    def apply(self, own_terms, coords) -> dict:
        """The one linear extension, unchecked: {basis key: nonzero coefficient}
        of the column summed over ``own_terms`` (((generator, key), coefficient)
        pairs, as ``_terms`` gives) and ``coords`` ((basis key, coefficient)
        pairs); one own term of coefficient ``ONE`` on one coordinate ``ONE`` is
        its column, copied.  The axiom sweep builds its rows with it, not act."""
        column = self._column
        if len(own_terms) == 1 and len(coords) == 1:
            ((((kind, index), key), c),), ((b, cv),) = own_terms, coords
            if c is ONE and cv is ONE:
                return dict(column(kind, index, key, b))
        out: dict = {}
        for ((kind, index), key), c in own_terms:
            for b, cv in coords:
                cc = c if cv is ONE else c * cv
                for b2, c2 in column(kind, index, key, b):
                    if cc is not ONE:  # basis vectors and a sweep's terms carry ONE: no product
                        c2 = cc * c2
                    prev = out.get(b2)
                    out[b2] = c2 if prev is None else prev + c2
        return {b2: c for b2, c in out.items() if c}

    def _terms(self, pairs):
        """The ((generator, key), coefficient) pairs the column is extended over,
        from an element's (term, coefficient) pairs: those pairs themselves,
        except for the evaluation wrapper and tensor products.  ``pairs`` may
        be read more than once."""
        return pairs

    def basis_vector(self, key):
        return self.vector_type({key: ONE})

    def window_keys(self, window: int) -> list:
        """The basis keys of the window that sweeps and probes run over.  Counted
        first, and refused (ConfigurationError) before anything is listed when
        ``window_cost`` passes MAX_WINDOW_VECTORS."""
        size, cost = self.window_size(window), self.window_cost(window)
        if cost > MAX_WINDOW_VECTORS:
            weight = "" if cost == size else f" (weighed as {cost}, each t^j as j + 1)"
            raise ConfigurationError(f"window {window} has {size} vectors, more than {MAX_WINDOW_VECTORS} to list{weight}")
        return self._window_keys(window)

    def _window_keys(self, window: int) -> list:
        """The window's basis keys, unbudgeted: the family's listing."""
        raise NotImplementedError

    def window_size(self, window: int) -> int:
        """``len(self._window_keys(window))``, counted without listing it."""
        raise NotImplementedError

    def window_cost(self, window: int) -> int:
        """The window's weight against the window budget: its size, except on Ω."""
        return self.window_size(window)

    def describe(self) -> dict:
        raise NotImplementedError

    def _check_element(self, x: AlgebraElement):
        if x.coeffs != self.algebra():
            raise DimensionMismatchError(
                f"element over {x.coeffs!r} cannot act on a {self.family} module over {self.algebra()!r}"
            )


# ---------------------------------------------------------------------------
# intermediate series
# ---------------------------------------------------------------------------


class IntermediateSeries(Module):
    """The uniformly bounded family with one-dimensional weight spaces.

    Basis lines v_{alpha+k}, k an integer; the actions are

        d_i . v_{alpha+k} = (alpha + k + beta*i) v_{alpha+k+i}
        I_i . v_{alpha+k} = f v_{alpha+k+i}
        C = C_D = C_I = 0.

    ``drop_line`` realizes the simple subquotient obtained by deleting one
    basis line; this is only a module when that line is both killed by and
    unreachable from every operator, which forces beta = 0, f = 0 and
    alpha + drop_line = 0 (the classical degenerate case).
    """

    family = "intermediate"
    vector_type = WeightVector
    default_window = 8

    __slots__ = ("alpha", "beta", "f", "drop_line", "_coeffs")

    def __init__(self, alpha, beta, f, drop_line: int | None = None):
        object.__setattr__(self, "alpha", scalar(alpha))
        object.__setattr__(self, "beta", scalar(beta))
        object.__setattr__(self, "f", scalar(f))
        object.__setattr__(self, "drop_line", drop_line)
        object.__setattr__(self, "_coeffs", PolynomialCoefficients(0))
        if drop_line is not None:
            if not (self.f.is_zero and self.beta.is_zero and (self.alpha + drop_line).is_zero):
                raise ConfigurationError(
                    "drop_line requires the degenerate parameters alpha+drop_line=0, beta=0, f=0"
                )

    @classmethod
    def primed_zero(cls):
        """The nontrivial simple subquotient of the (0,0,0) module."""
        return cls(0, 0, 0, drop_line=0)

    def algebra(self):
        return self._coeffs

    act = Module.act  # own class-dict entry: bench/spans.py wraps it per family

    def _column(self, kind, index, key, k):
        if kind == "d":
            # alpha + k + beta*index as one triple over one denominator
            a1, b1, d1 = self.alpha.triple
            a2, b2, d2 = self.beta.triple
            w = Scalar.from_triple((a1 + k * d1) * d2 + a2 * index * d1, b1 * d2 + b2 * index * d1, d1 * d2)
        elif kind == "I":
            w = self.f
        else:
            return ()
        tgt = k + index
        if w.is_zero or self.drop_line in (k, tgt):
            return ()
        return ((tgt, w),)

    def _window_keys(self, window: int) -> list:
        return [k for k in range(-window, window + 1) if k != self.drop_line]

    def window_size(self, window: int) -> int:
        dropped = self.drop_line is not None and -window <= self.drop_line <= window
        return max(2 * window + 1, 0) - dropped

    def describe(self) -> dict:
        out = {
            "family": self.family,
            "alpha": render_scalar(self.alpha),
            "beta": render_scalar(self.beta),
            "F": render_scalar(self.f),
        }
        if self.drop_line is not None:
            out["drop_line"] = self.drop_line
        return out


# ---------------------------------------------------------------------------
# rank-one free family
# ---------------------------------------------------------------------------


class OmegaModule(Module):
    """C[t] with the action x_n . f = f(t-n) (x_n . 1), where

        d_n (x) b^r . 1 = mu^r lambda^{n-|r|} (t - n*alpha)
        I_n (x) b^r . 1 = mu^r lambda^{n-|r|} beta
        C = C_D = C_I = 0  (and their decorated versions).

    Free of rank one over the polynomial algebra in d_0, which acts as
    multiplication by t; the family states only x . 1 (``_one_image``).
    Negative powers of lambda occur, so lambda != 0.
    """

    family = "omega"
    vector_type = PolyT
    default_window = 4

    __slots__ = ("lam", "alpha", "mu", "beta", "_coeffs", "_term_cache")

    def __init__(self, lam, alpha, mu, beta):
        lam = scalar(lam)
        if lam.is_zero:
            raise ConfigurationError("lambda must be nonzero")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha", scalar(alpha))
        object.__setattr__(self, "mu", tuple(scalar(m) for m in mu))
        object.__setattr__(self, "beta", scalar(beta))
        object.__setattr__(self, "_coeffs", PolynomialCoefficients(len(self.mu)))
        object.__setattr__(self, "_term_cache", {})

    @property
    def k(self) -> int:
        return len(self.mu)

    def algebra(self):
        return self._coeffs

    def _lambda_power(self, n: int, total: int) -> Scalar:
        return self.lam ** (n - total)

    def _scale(self, n: int, exps) -> Scalar:
        s = self._lambda_power(n, sum(exps))
        for mu_i, e in zip(self.mu, exps):
            if e:
                s = s * mu_i**e
        return s

    act = Module.act  # own class-dict entry: bench/spans.py wraps it per family

    def _one_image(self, kind, n, exps) -> tuple:
        """x . 1 for x = kind_n (x) b^exps, as its coefficients in t, ascending:
        s (t - n*alpha) for d_n and s*beta for I_n, s = ``_scale(n, exps)``."""
        if kind not in ("d", "I"):
            return ()
        s = self._scale(n, exps)
        return (s * self.alpha * -n, s) if kind == "d" else (s * self.beta,)

    def _column(self, kind, n, exps, j):
        """Coordinates of one decorated generator x on t^j by the free rank-one
        rule x . t^j = (t - n)^j (x . 1): the nonzero ones, ascending in
        degree.  x . 1 is cached per generator; (t - n)^j is the sum of
        c_k t^k, c_k = C(j, k) (-n)^(j - k), by the binomial theorem."""
        one = self._term_cache.get((kind, n, exps))
        if one is None:
            one = self._term_cache[(kind, n, exps)] = self._one_image(kind, n, exps)
        binom = [comb(j, k) * (-n) ** (j - k) for k in range(j + 1)]
        out = [ZERO] * (j + len(one))
        for i, p in enumerate(one):
            for k, c in enumerate(binom):
                if p and c:
                    out[i + k] += p * c
        return [(deg, c) for deg, c in enumerate(out) if c]

    def _window_keys(self, window: int) -> list:
        return list(range(window + 1))

    def window_size(self, window: int) -> int:
        return max(window + 1, 0)

    def window_cost(self, window: int) -> int:
        # acting on t^j expands (t - n)^j, so t^j weighs its j + 1 coefficients
        n = self.window_size(window)
        return n * (n + 1) // 2

    def describe(self) -> dict:
        return {
            "family": self.family,
            "lambda": render_scalar(self.lam),
            "alpha": render_scalar(self.alpha),
            "mu": [render_scalar(m) for m in self.mu],
            "beta": render_scalar(self.beta),
        }


# ---------------------------------------------------------------------------
# evaluation wrappers
# ---------------------------------------------------------------------------


class EvaluationModule(Module):
    """Turn a module over one jet quotient into a module over the map algebra.

    x (x) p acts as x (x) jet_expand(p): for order 1 this is the scalar
    eta(p) times the core-algebra action (single point evaluation); for
    higher orders the inner module must live over the quotient algebra of
    the jet (generalized evaluation).  Either way ``_keys`` sends each jet
    exponent to its inner key (order 1's one jet to the core key ``()``).
    """

    family = "evaluation"

    __slots__ = ("quotient", "inner", "_keys", "_coeffs", "_jet_cache")

    def __init__(self, quotient: JetQuotient, inner: Module):
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_coeffs", PolynomialCoefficients(quotient.k))
        object.__setattr__(self, "_jet_cache", {})
        inner_alg = inner.algebra()
        if isinstance(inner_alg, PolynomialCoefficients) and inner_alg.k == 0:
            if quotient.order != 1:
                raise ConfigurationError(
                    "a core-algebra inner module supports only order-1 evaluation"
                )
        elif inner_alg != QuotientCoefficients((quotient,)):
            raise DimensionMismatchError(
                "inner module must live over the wrapped jet quotient"
            )
        n = quotient.dimension  # the key map lists every jet; the two bases share one order by construction
        if n > MAX_LEVEL_MONOMIALS:
            raise ConfigurationError(f"the jet quotient has {n} keys, more than {MAX_LEVEL_MONOMIALS} to list")
        object.__setattr__(self, "_keys", dict(zip(quotient.basis(), inner_alg.basis_keys())))

    def algebra(self):
        return self._coeffs

    def _jets(self, exps):
        """(inner key, coefficient) pairs of b^exps, through its jets, 1 as ``ONE``; cached."""
        jets = self._jet_cache.get(exps)
        if jets is None:
            expanded = jet_expand(PolyB.monomial(exps), self.quotient)
            jets = self._jet_cache[exps] = [(self._keys[r], ONE if jc == 1 else jc) for r, jc in expanded.items()]
        return jets

    def _merged(self, pairs) -> dict:
        """{(generator, inner key): nonzero coefficient}: the jet images of an
        element's (term, coefficient) pairs, merged."""
        acc: dict = {}
        for (g, exps), c in pairs:
            for key, jc in self._jets(exps):
                tk = (g, key)
                cj = jc if c is ONE else (c if jc is ONE else c * jc)
                prev = acc.get(tk)
                acc[tk] = cj if prev is None else prev + cj
        return {tk: c for tk, c in acc.items() if c}

    def translate(self, x: AlgebraElement) -> AlgebraElement:
        """Image of an element of the polynomial map algebra in the inner algebra."""
        self._check_element(x)
        return AlgebraElement(self.inner.algebra(), self._merged(x.terms.items()))

    act = Module.act  # own class-dict entry: bench/spans.py wraps it per family

    def _terms(self, pairs):
        # merged first, so terms whose jet images cancel never act
        return self.inner._terms(self._merged(pairs).items())

    def _column(self, kind, index, key, basis_key):
        return self.inner._column(kind, index, key, basis_key)

    @property
    def vector_type(self):
        return self.inner.vector_type

    @property
    def default_window(self) -> int:
        return 6 if self.inner.vector_type is WeightVector else 2

    def _window_keys(self, window: int) -> list:
        return self.inner._window_keys(window)

    def window_size(self, window: int) -> int:
        return self.inner.window_size(window)

    def window_cost(self, window: int) -> int:
        return self.inner.window_cost(window)

    def describe(self) -> dict:
        return {
            "family": self.family,
            "point": [render_scalar(x) for x in self.quotient.point],
            "order": self.quotient.order,
            "inner": self.inner.describe(),
        }


# ---------------------------------------------------------------------------
# highest-weight functionals and truncated Verma modules
# ---------------------------------------------------------------------------

_PHI_SLOTS = ("d0", "I0", "C", "C_D", "C_I")
_SLOT_OF = {("d", 0): "d0", ("I", 0): "I0", ("C", 0): "C", ("CD", 0): "C_D", ("CI", 0): "C_I"}


class HighestWeightFunctional(Combination):
    """Linear functional on the zero part of the (quotient) map algebra.

    A combination keyed by (slot, coefficient key) where slot names one of
    d0, I0, C, C_D, C_I, so functionals add and scale like vectors.  The zero
    part is abelian, so any functional is a one-dimensional representation.
    """

    __slots__ = ()

    def __init__(self, values=None):
        for slot, _key in values or {}:
            if slot not in _PHI_SLOTS:
                raise ConfigurationError(f"unknown zero-part slot {slot!r}")
        Combination.__init__(self, values)

    @classmethod
    def zero(cls):
        return cls({})

    def __call__(self, slot: str, key) -> Scalar:
        return self.terms.get((slot, key), ZERO)

    def of_generator(self, g: Generator, key) -> Scalar:
        slot = _SLOT_OF.get((g.kind, g.index))
        if slot is None:
            raise ConfigurationError(f"{g.render()} is not in the zero part")
        return self(slot, key)

    def of_element(self, x: AlgebraElement) -> Scalar:
        """Evaluate on an element whose terms all have degree zero."""
        acc = ZERO
        for (g, key), c in x.terms.items():
            acc = acc + c * self.of_generator(g, key)
        return acc


class PbwOrder(NamedTuple):
    """A total order on lowering factors (kind, index, key), fixing the PBW basis."""

    name: str
    key: Callable


# default: d factors before I factors, indices descending, keys in enumeration order
PBW_D_FIRST = PbwOrder("d-first-descending", lambda f: (0 if f[0] == "d" else 1, -f[1], f[2]))
# alternative used by the order spot-check
PBW_I_FIRST = PbwOrder("I-first-ascending", lambda f: (0 if f[0] == "I" else 1, f[1], f[2]))


MAX_LEVEL_MONOMIALS = 100_000  # the most PBW monomials one Verma level may list


class TruncatedVerma(Module):
    """Highest-weight module induced from a zero-part functional, truncated.

    The level-n space has the PBW monomials in the lowering generators
    (decorated by the coefficient basis) with indices summing to -n, for
    n up to ``max_level``.  The positive part kills the highest-weight
    generator, the zero part acts through the functional, and a general
    element acts by bracket-and-reorder straightening.

    Only finite-dimensional coefficient algebras are materializable; over
    the full polynomial algebra the level spaces would be infinite
    dimensional.
    """

    family = "verma"
    vector_type = PBWVector
    default_window = 2

    __slots__ = ("phi", "coeffs", "max_level", "order", "structure", "_cache", "_level_cache", "_lift_cache")

    def __init__(
        self,
        phi: HighestWeightFunctional,
        coeffs,
        max_level: int = 6,
        order: PbwOrder = PBW_D_FIRST,
        structure: StructureFn = hv_structure,
    ):
        if isinstance(coeffs, PolynomialCoefficients):
            if coeffs.k != 0:
                raise ConfigurationError(
                    "Verma modules need a finite-dimensional coefficient algebra; "
                    "use jet quotients for k >= 1"
                )
        elif not isinstance(coeffs, QuotientCoefficients):
            raise ConfigurationError(f"unsupported coefficient algebra {coeffs!r}")
        if max_level < 1:
            raise ConfigurationError("max_level must be >= 1")
        for slot, key in phi.terms:
            if not coeffs.is_basis_key(key):
                raise ConfigurationError(f"phi key {key!r} of {slot} is outside the coefficient basis")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "max_level", int(max_level))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_level_cache", {})
        object.__setattr__(self, "_lift_cache", {})

    def algebra(self):
        return self.coeffs

    def coefficient_keys(self) -> list:
        return self.coeffs.basis_keys()

    @staticmethod
    def level_of(mono) -> int:
        return -sum(f[1] for f in mono)

    def highest_weight_vector(self) -> PBWVector:
        return PBWVector.highest_weight()

    # -- action ------------------------------------------------------------

    act = Module.act  # own class-dict entry: bench/spans.py wraps it per family

    def _column(self, kind, index, key, mono):
        try:
            return self._act_term(kind, index, key, mono).items()
        except RecursionError:  # straightening recurses once per factor
            raise LevelOverflowError(f"{len(mono)} factors are too deep to straighten") from None

    def _leads(self, fac, mono) -> bool:
        """The PBW rule: ``fac`` may stand in front of ``mono`` in a basis monomial."""
        return not mono or self.order.key(fac) <= self.order.key(mono[0])

    def _lift(self, kind: str, idx: int, u_kind: str, u_idx: int) -> tuple:
        """``lifted_structure`` of the handle's structure, once per handle and generator pair."""
        pair = (kind, idx, u_kind, u_idx)
        lifted = self._lift_cache.get(pair)
        if lifted is None:
            lifted = self._lift_cache[pair] = lifted_structure(*pair, self.structure)
        return lifted

    def _act_term(self, kind: str, idx: int, key, mono) -> dict:
        cache_key = (kind, idx, key, mono)
        hit = self._cache.get(cache_key)
        if hit is not None:
            return hit
        deg = idx if kind in ("d", "I") else 0
        fac = (kind, idx, key)
        if deg < 0 and self._leads(fac, mono):
            level = self.level_of(mono) - deg
            if level > self.max_level:
                raise LevelOverflowError(f"level {level} exceeds truncation level {self.max_level}")
            out = {(fac,) + mono: ONE}
        elif not mono:
            c = ZERO if deg else self.phi.of_generator(Generator(kind, idx), key)
            out = {} if c.is_zero else {(): c}
        else:
            (u_kind, u_idx, u_key), rest = mono[0], mono[1:]
            out, cancelled = {}, False
            # [x, u] . rest
            struct = self._lift(kind, idx, u_kind, u_idx)
            key3 = self.coeffs.multiply(key, u_key) if struct else None
            if key3 is not None:
                for k3, n3, c3 in struct:
                    for m2, c2 in self._act_term(k3, n3, key3, rest).items():
                        c = c2 if c3 is ONE else (c3 if c2 is ONE else c3 * c2)
                        prev = out.get(m2)
                        if prev is not None:
                            c = prev + c
                            cancelled = cancelled or not c
                        out[m2] = c
            # u . (x . rest)
            for m2, c2 in self._act_term(kind, idx, key, rest).items():
                for m3, c3 in self._act_term(u_kind, u_idx, u_key, m2).items():
                    c = c3 if c2 is ONE else (c2 if c3 is ONE else c2 * c3)
                    prev = out.get(m3)
                    if prev is not None:
                        c = prev + c
                        cancelled = cancelled or not c
                    out[m3] = c
            out = {m: c for m, c in out.items() if c} if cancelled else out  # only a sum can cancel
        self._cache[cache_key] = out
        return out

    # -- basis -------------------------------------------------------------

    def level_monomials(self, level: int) -> list:
        """The PBW monomials at ``level``, refused like :meth:`level_dimension`.
        Level m is each lowering factor f, in order-key order, in front of every
        monomial of level m - deg f that f leads, built upwards from level 0."""
        levels = self._level_cache  # levels 0..n
        if level not in levels:
            self.level_dimension(level)
            keys = self.coefficient_keys()
            factors = [(kind, -i, key) for i in range(1, level + 1) for kind in ("d", "I") for key in keys]
            factors.sort(key=self.order.key)
            levels.setdefault(0, [()])
            for m in range(len(levels), level + 1):
                levels[m] = [
                    (f,) + mono
                    for f in factors
                    if -f[1] <= m
                    for mono in levels[m + f[1]]
                    if self._leads(f, mono)
                ]
        return levels[level]

    def level_dimension(self, level: int) -> int:
        """PBW monomials at ``level``, counted without listing them: Euler's
        transform of prod_i (1 - x^i)^-K, K = 2 * (coefficient keys) factor
        kinds per degree.  Counts never drop as the level grows, so the first
        level past MAX_LEVEL_MONOMIALS refuses this one (ConfigurationError).
        """
        if level < 0:
            raise ConfigurationError(f"level must be >= 0, got {level}")
        if level > self.max_level:
            raise LevelOverflowError(f"level {level} exceeds truncation level {self.max_level}")
        kinds = 2 * self.coeffs.dimension
        counts, sigma = [1], [0]  # sigma[k]: K times the divisor sum of k
        for m in range(1, level + 1):
            sigma.append(kinds * sum(j for j in range(1, m + 1) if m % j == 0))
            counts.append(sum(sigma[k] * counts[m - k] for k in range(1, m + 1)) // m)
            if counts[m] > MAX_LEVEL_MONOMIALS:
                raise ConfigurationError(
                    f"level {level} has more than {MAX_LEVEL_MONOMIALS} PBW monomials "
                    f"(level {m} has {counts[m]}), too many to list"
                )
        return counts[level]

    def _window_keys(self, window: int) -> list:
        return [mono for level in range(min(window, self.max_level) + 1) for mono in self.level_monomials(level)]

    def window_size(self, window: int) -> int:
        return sum(self.level_dimension(level) for level in range(min(window, self.max_level) + 1))

    def describe(self) -> dict:
        if isinstance(self.coeffs, PolynomialCoefficients):
            quotients = []
        else:
            quotients = [
                {"point": [render_scalar(x) for x in q.point], "order": q.order}
                for q in self.coeffs.quotients
            ]
        phi_entries = []
        for (slot, key), c in sorted(self.phi.terms.items(), key=lambda item: (item[0][0], str(item[0][1]))):
            point, exp = key or (0, ())  # trivial B has the one key ()
            phi_entries.append({"gen": slot, "value": render_scalar(c), "point": point, "exp": list(exp)})
        return {
            "family": self.family,
            "quotients": quotients,
            "max_level": self.max_level,
            "phi": phi_entries,
        }


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


class TensorModule(Module):
    """x . (u (x) w) = (x . u) (x) w + u (x) (x . w), both factors over one algebra."""

    family = "tensor"
    vector_type = TensorVector

    __slots__ = ("left", "right")

    def __init__(self, left: Module, right: Module):
        if left.algebra() != right.algebra():
            raise DimensionMismatchError("tensor factors live over different algebras")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def algebra(self):
        return self.left.algebra()

    act = Module.act  # own class-dict entry: bench/spans.py wraps it per family

    def _terms(self, pairs):
        # Leibniz: each factor reads x its own way; the key carries the side
        return [((g, (0, key)), c) for (g, key), c in self.left._terms(pairs)] + [
            ((g, (1, key)), c) for (g, key), c in self.right._terms(pairs)
        ]

    def _column(self, kind, index, key, pair):
        side, key = key
        lk, rk = pair
        if side == 0:
            return [((k2, rk), c) for k2, c in self.left._column(kind, index, key, lk)]
        return [((lk, k2), c) for k2, c in self.right._column(kind, index, key, rk)]

    def _window_keys(self, window: int) -> list:
        right = self.right._window_keys(window)
        return [(lk, rk) for lk in self.left._window_keys(window) for rk in right]

    def window_size(self, window: int) -> int:
        return self.left.window_size(window) * self.right.window_size(window)

    def window_cost(self, window: int) -> int:
        return self.left.window_cost(window) * self.right.window_cost(window)

    def describe(self) -> dict:
        return {
            "family": self.family,
            "left": self.left.describe(),
            "right": self.right.describe(),
        }


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def object_field(value, path: str, required=(), optional=()) -> dict:
    """``value`` if it is an object with every field of ``required`` and none
    outside ``required`` and ``optional``; else a ConfigurationError that
    leads with the offending field's path ("" is the top of a config)."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: must be an object")
    prefix = f"{path}." if path else ""
    unknown = set(value) - {*required, *optional}
    if unknown:
        known = ", ".join((*required, *optional)) or "none"
        raise ConfigurationError(f"{prefix}{min(unknown, key=str)}: unknown field (accepted here: {known})")
    missing = [name for name in required if name not in value]
    if missing:
        raise ConfigurationError(f"{prefix}{missing[0]}: missing")
    return value


def int_field(value, path: str) -> int:
    """``value`` if it is an integer (not a bool); else a ConfigurationError naming ``path``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{path}: must be an integer")
    return value


def scalar_field(value, path: str) -> Scalar:
    """``parse_scalar(value)``; its ParseError becomes a ConfigurationError naming ``path``."""
    try:
        return parse_scalar(value)
    except ParseError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def list_field(value, path: str, read) -> tuple:
    """Each item of a list read by ``read(item, f"{path}[i]")``; else a ConfigurationError naming ``path``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{path}: must be a list")
    return tuple(read(item, f"{path}[{i}]") for i, item in enumerate(value))


def _named(path: str, build, *args):
    """``build(*args)``; a refusal that names no field under ``path`` (a
    constructor's) gets ``path``, once, so a nested one keeps its own."""
    try:
        return build(*args)
    except HvkitError as exc:
        if str(exc).startswith(f"{path}."):  # a field reader's or a nested descriptor's
            raise
        raise type(exc)(f"{path}: {exc}") from None


def _intermediate(data, path):
    alpha, beta, f = (scalar_field(data[name], f"{path}.{name}") for name in ("alpha", "beta", "F"))
    drop_line = int_field(data["drop_line"], f"{path}.drop_line") if "drop_line" in data else None
    return IntermediateSeries(alpha, beta, f, drop_line=drop_line)


def _omega(data, path):
    lam, alpha, beta = (scalar_field(data[name], f"{path}.{name}") for name in ("lambda", "alpha", "beta"))
    return OmegaModule(lam, alpha, list_field(data["mu"], f"{path}.mu", scalar_field), beta)


def _jet(data, path) -> JetQuotient:
    """The jet quotient at ``data["point"]`` of order ``data["order"]``."""
    point = list_field(data["point"], f"{path}.point", scalar_field)
    return JetQuotient(point, int_field(data["order"], f"{path}.order"))


def _evaluation(data, path):
    return EvaluationModule(_jet(data, path), module_from_descriptor(data["inner"], f"{path}.inner"))


def _phi_term(entry, path: str, coeffs):
    """One ``phi`` entry as ((slot, coefficient key), value)."""
    object_field(entry, path, ("gen", "value"), ("point", "exp"))
    slot = entry["gen"]
    if slot not in _PHI_SLOTS:
        raise ConfigurationError(f"{path}: unknown gen {slot!r}")
    exp = list_field(entry.get("exp", []), f"{path}.exp", int_field)
    point = int_field(entry.get("point", 0), f"{path}.point")
    if isinstance(coeffs, PolynomialCoefficients):
        if exp:
            raise ConfigurationError(f"{path}: exp must be empty over trivial B")
        if point:
            raise ConfigurationError(f"{path}.point: must be 0 over trivial B")
        key = ()
    else:
        key = (point, exp)
        if not coeffs.is_basis_key(key):
            raise ConfigurationError(f"{path}: key {key} outside the quotient basis")
    return (slot, key), scalar_field(entry["value"], f"{path}.value")


def _verma(data, path):
    quotients = list_field(
        data.get("quotients", []),
        f"{path}.quotients",
        lambda q, at: _named(at, _jet, object_field(q, at, ("point", "order")), at),
    )
    coeffs = _named(f"{path}.quotients", QuotientCoefficients, quotients) if quotients else PolynomialCoefficients(0)
    terms = list_field(data.get("phi", []), f"{path}.phi", lambda entry, at: _phi_term(entry, at, coeffs))
    first: dict = {}  # (slot, key) -> the index of its first entry
    for i, (slot_key, _value) in enumerate(terms):
        j = first.setdefault(slot_key, i)
        if j != i:
            raise ConfigurationError(f"{path}.phi[{i}]: repeats phi[{j}] (gen {slot_key[0]} at the same point and exp)")
    max_level = int_field(data.get("max_level", 6), f"{path}.max_level")
    return TruncatedVerma(HighestWeightFunctional(dict(terms)), coeffs, max_level=max_level)


def _tensor(data, path):
    return TensorModule(*(module_from_descriptor(data[side], f"{path}.{side}") for side in ("left", "right")))


# The descriptor schema: for each family, the fields it requires besides
# "family", the ones it accepts, and its builder (descriptor, path) -> Module.
_FAMILIES = {
    "intermediate": (("alpha", "beta", "F"), ("drop_line",), _intermediate),
    "omega": (("lambda", "alpha", "mu", "beta"), (), _omega),
    "evaluation": (("point", "order", "inner"), (), _evaluation),
    "verma": ((), ("quotients", "max_level", "phi"), _verma),
    "tensor": (("left", "right"), (), _tensor),
}


def module_from_descriptor(data: dict, path: str = "module") -> Module:
    """Rebuild a module handle from its JSON-shaped descriptor at ``path``.  A refusal
    leads with its field's full path (``module.right.drop_line: must be an integer``);
    a constructor's names none, so it gets ``path``, once (a nested one leads with its own)."""
    family = object_field(data, path, ("family",), data)["family"]  # the family's row checks the rest
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigurationError(f"{path}.family: must be one of {', '.join(_FAMILIES)}")
    required, optional, build = _FAMILIES[family]
    object_field(data, path, ("family", *required), optional)
    return _named(path, build, data, path)
