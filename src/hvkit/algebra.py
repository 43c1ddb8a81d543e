"""The Heisenberg-Virasoro Lie algebra and its map algebras.

Basis of the core algebra: d_n, I_n (n ranging over the integers) plus the
central elements C, C_D, C_I.  The defining brackets are

    [d_n, d_m] = (m - n) d_{n+m}  +  delta_{n,-m} (n^3 - n)/12 C
    [d_n, I_m] = m I_{n+m}        +  delta_{n,-m} (n^2 + n)   C_D
    [I_n, I_m] = n delta_{n,-m} C_I
    [C, -] = [C_D, -] = [C_I, -] = 0

and the map algebra over a commutative coefficient algebra extends them by
[g1 (x) p, g2 (x) q] = [g1, g2] (x) pq.

Two coefficient algebras are supported: the full polynomial algebra
C[b_1..b_k] (sparse exponent keys) and finite direct sums of jet quotients
B/m^s at distinct points (point-tagged jet keys).  The plain algebra is the
k = 0 polynomial case, whose only monomial is the empty one.

The cocycle coefficients are stored as exact rationals; no normalization
freedom is taken.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, NamedTuple

from .errors import ConfigurationError, DimensionMismatchError, ParseError
from .polys import PolyB, exponent_count, exponents_upto, jet_expand
from .scalars import ONE, ZERO, Combination, Frozen, Scalar, parse_scalar, render_sum, scalar

_CENTRAL_KINDS = ("C", "CD", "CI")
_KINDS = ("d", "I") + _CENTRAL_KINDS


class Generator(NamedTuple):
    """A basis generator of the core algebra.  Central kinds carry index 0."""

    kind: str
    index: int = 0

    @property
    def degree(self) -> int:
        return self.index if self.kind in ("d", "I") else 0

    @property
    def is_central_kind(self) -> bool:
        return self.kind in _CENTRAL_KINDS

    def render(self) -> str:
        if self.kind == "d":
            return f"d({self.index})"
        if self.kind == "I":
            return f"I({self.index})"
        return {"C": "C", "CD": "C_D", "CI": "C_I"}[self.kind]


def d(n: int) -> Generator:
    return Generator("d", n)


def I(n: int) -> Generator:  # noqa: E743 - matches the classical name
    return Generator("I", n)


C = Generator("C")
C_D = Generator("CD")
C_I = Generator("CI")

# structure function signature: (kind1, n1, kind2, n2) -> tuple of
# (kind, index, rational coefficient); used by brackets and straightening.
StructureFn = Callable[[str, int, str, int], tuple]


def hv_structure(k1: str, n1: int, k2: str, n2: int) -> tuple:
    """Structure constants of the bracket on basis generators; [I_n, d_m] is -[d_m, I_n]."""
    if k1 in _CENTRAL_KINDS or k2 in _CENTRAL_KINDS:
        return ()
    if k1 == "d":
        if k2 == "d":
            out = []
            if n1 != n2:
                out.append(("d", n1 + n2, n2 - n1))
            if n1 == -n2:
                c = Fraction(n1**3 - n1, 12)
                if c:
                    out.append(("C", 0, c))
            return tuple(out)
        out = []
        if n2:
            out.append(("I", n1 + n2, n2))
        if n1 == -n2:
            c = n1 * n1 + n1
            if c:
                out.append(("CD", 0, c))
        return tuple(out)
    if k2 == "d":
        return tuple((kind, idx, -c) for kind, idx, c in hv_structure("d", n2, "I", n1))
    if n1 == -n2 and n1:
        return (("CI", 0, n1),)
    return ()


def lifted_structure(k1: str, n1: int, k2: str, n2: int, structure: StructureFn = hv_structure) -> tuple:
    """``structure(k1, n1, k2, n2)``, each constant lifted to a Scalar (an int by its triple) and 1 to ``ONE``."""
    return tuple((k3, n3, ONE if c == 1 else Scalar.from_triple(c, 0, 1) if type(c) is int else scalar(c))
                 for k3, n3, c in structure(k1, n1, k2, n2))


# ---------------------------------------------------------------------------
# coefficient algebras
# ---------------------------------------------------------------------------


def _is_exponents(r, k: int) -> bool:
    """Whether ``r`` is a tuple of k integers, each >= 0."""
    return isinstance(r, tuple) and len(r) == k and all(type(e) is int and e >= 0 for e in r)


class PolynomialCoefficients(Frozen):
    """The polynomial algebra C[b_1..b_k]; keys are exponent tuples.

    k = 0 gives the trivial coefficient algebra C, i.e. the core algebra
    itself: the single key is the empty tuple.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 0:
            raise ConfigurationError(f"variable count must be >= 0, got {k}")
        object.__setattr__(self, "k", int(k))

    def multiply(self, r, s):
        return tuple(map(add, r, s))

    def unit_keys(self):
        return ((0,) * self.k,)

    def keys_upto(self, bound: int) -> list:
        return exponents_upto(self.k, bound)

    def is_basis_key(self, key) -> bool:
        """Whether ``key`` is a monomial's exponent tuple (over C, only ``()``)."""
        return _is_exponents(key, self.k)

    def basis_keys(self) -> list:
        """The one key of C; C[b_1..b_k] with k >= 1 has no finite basis."""
        if self.k:
            raise ConfigurationError(f"C[b_1..b_{self.k}] has no finite basis")
        return [()]

    @property
    def dimension(self) -> int:
        return len(self.basis_keys())

    def project(self, p: PolyB) -> dict:
        """Image of a polynomial: its own terms."""
        if p.k != self.k:
            raise DimensionMismatchError(f"polynomial k={p.k} vs coefficient k={self.k}")
        return dict(p.terms)

    def render_key(self, key) -> str:
        return "" if not any(key) else "b[" + ",".join(str(e) for e in key) + "]"

    def __eq__(self, other):
        return isinstance(other, PolynomialCoefficients) and self.k == other.k

    def __hash__(self):
        return hash(("poly", self.k))

    def __repr__(self):
        return f"PolynomialCoefficients(k={self.k})"


class QuotientCoefficients(Frozen):
    """A finite direct sum of jet quotients B/m_i^{s_i} at distinct points.

    Keys are (point_index, jet_exponents).  Products of keys at different
    points vanish; at the same point they follow the truncated ring.  The
    unit decomposes as the sum of the degree-zero jets of every point.
    """

    __slots__ = ("quotients",)

    def __init__(self, quotients):
        quotients = tuple(quotients)
        if not quotients:
            raise ConfigurationError("need at least one jet quotient")
        if len({q.k for q in quotients}) > 1:
            raise DimensionMismatchError("all quotient points must share k")
        if len({q.point for q in quotients}) != len(quotients):
            raise ConfigurationError("quotient points must be distinct")
        object.__setattr__(self, "quotients", quotients)

    @property
    def k(self) -> int:
        return self.quotients[0].k

    @property
    def dimension(self) -> int:
        return sum(q.dimension for q in self.quotients)

    def basis_keys(self) -> list:
        return [(i, r) for i, q in enumerate(self.quotients) for r in q.basis()]

    def is_basis_key(self, key) -> bool:
        """Whether ``key`` is one of ``basis_keys()``, checked by arithmetic, never by listing them."""
        if not (isinstance(key, tuple) and len(key) == 2 and type(key[0]) is int):
            return False
        i, r = key
        return 0 <= i < len(self.quotients) and _is_exponents(r, self.k) and sum(r) < self.quotients[i].order

    def multiply(self, key1, key2):
        """The product key, or None when it is zero (different points, or past the jet order)."""
        i, r = key1
        j, s = key2
        if i != j:
            return None
        out = self.quotients[i].multiply_exps(r, s)
        return None if out is None else (i, out)

    def unit_keys(self):
        return tuple((i, (0,) * self.k) for i in range(len(self.quotients)))

    def keys_upto(self, bound: int) -> list:
        """The basis keys of total degree <= bound, without listing the rest."""
        return [
            (i, r)
            for i, q in enumerate(self.quotients)
            for r in exponents_upto(q.k, min(bound, q.order - 1))
            if sum(r) <= bound  # drops the k = 0 key () when bound < 0
        ]

    def project(self, p: PolyB) -> dict:
        """Image of a polynomial: jet-expand at every point.  A ring map."""
        out = {}
        for i, q in enumerate(self.quotients):
            for r, c in jet_expand(p, q).items():
                out[(i, r)] = c
        return out

    def render_key(self, key) -> str:
        i, r = key
        inner = ",".join(str(e) for e in r)
        if len(self.quotients) == 1:
            return f"e[{inner}]"
        return f"e{i}[{inner}]"

    def __eq__(self, other):
        return isinstance(other, QuotientCoefficients) and self.quotients == other.quotients

    def __hash__(self):
        return hash(self.quotients)

    def __repr__(self):
        return f"QuotientCoefficients({list(self.quotients)!r})"


HV = PolynomialCoefficients(0)


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------


class AlgebraElement(Combination):
    """Finite linear combination of generators tensored with coefficient keys."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, terms=None):
        object.__setattr__(self, "coeffs", coeffs)
        Combination.__init__(self, terms)

    def _space(self):
        return self.coeffs

    def _like(self, terms):
        return AlgebraElement(self.coeffs, terms)

    def degree(self) -> int | None:
        """Common degree of all terms, or None if mixed (0 for the zero element)."""
        degs = {g.degree for g, _key in self.terms}
        if not degs:
            return 0
        return degs.pop() if len(degs) == 1 else None

    def render(self) -> str:
        return render_element(self)

    def __repr__(self):
        return f"AlgebraElement({self.render()})"


def element(coeffs, terms) -> AlgebraElement:
    """Build an element from {(Generator, key): coefficient}-like pairs."""
    acc: dict = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for key, c in items:
        acc[key] = acc.get(key, ZERO) + scalar(c)
    return AlgebraElement(coeffs, acc)


def gen_elt(coeffs, g: Generator, key=None, coefficient=ONE) -> AlgebraElement:
    """Single term g (x) key; key defaults to the zero-exponent monomial."""
    if key is None:
        if isinstance(coeffs, PolynomialCoefficients):
            key = (0,) * coeffs.k
        else:
            raise ConfigurationError("key required over quotient coefficients")
    return AlgebraElement(coeffs, {(g, key): scalar(coefficient)})


def zero_element(coeffs) -> AlgebraElement:
    return AlgebraElement(coeffs, {})


def bracket(x: AlgebraElement, y: AlgebraElement, structure: StructureFn = hv_structure) -> AlgebraElement:
    """The Lie bracket, extended to the map algebra by multiplying keys.

    Elements over one coefficient object skip the algebra check, a product
    by a ``ONE`` coefficient is skipped, and a key's first term is stored as
    it is."""
    if x.coeffs is not y.coeffs:
        x._check(y)
    multiply = x.coeffs.multiply
    acc: dict = {}
    for (g1, k1), c1 in x.terms.items():
        for (g2, k2), c2 in y.terms.items():
            struct = structure(g1.kind, g1.index, g2.kind, g2.index)
            key3 = multiply(k1, k2) if struct else None
            if key3 is None:
                continue
            c12 = c2 if c1 is ONE else (c1 if c2 is ONE else c1 * c2)
            for kind, idx, sc in struct:
                tk = (Generator(kind, idx), key3)
                c = c12 * sc
                prev = acc.get(tk)
                acc[tk] = c if prev is None else prev + c
    return AlgebraElement(x.coeffs, acc)


def jacobi_check(x: AlgebraElement, y: AlgebraElement, z: AlgebraElement,
                 structure: StructureFn = hv_structure) -> AlgebraElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero certifies Jacobi on the triple."""
    return (
        bracket(x, bracket(y, z, structure), structure)
        + bracket(y, bracket(z, x, structure), structure)
        + bracket(z, bracket(x, y, structure), structure)
    )


def project_element(x: AlgebraElement, quotient: QuotientCoefficients) -> AlgebraElement:
    """Push an element over C[b..] down to the quotient algebra.

    Jet expansion term by term; this is a Lie algebra map because jets
    multiply like the truncated ring.
    """
    if not isinstance(x.coeffs, PolynomialCoefficients):
        raise DimensionMismatchError("can only project from polynomial coefficients")
    if x.coeffs.k != quotient.k:
        raise DimensionMismatchError("variable count mismatch")
    acc: dict = {}
    for (g, exps), c in x.terms.items():
        for key, jc in quotient.project(PolyB.monomial(exps)).items():
            tk = (g, key)
            acc[tk] = acc.get(tk, ZERO) + c * jc
    return AlgebraElement(quotient, acc)


# ---------------------------------------------------------------------------
# exhaustive bracket-law sweep
# ---------------------------------------------------------------------------


class Report:
    """Base of the sweep and probe reports: a report's fields are its
    attributes, so two reports of one class are equal when their attributes
    are, and the repr lists them."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class JacobiSweepReport(Report):
    """Outcome of the exhaustive bracket-law sweep."""

    def __init__(self, index_bound: int, monomial_bound: int, k: int):
        self.index_bound = index_bound
        self.monomial_bound = monomial_bound
        self.k = k
        self.pairs_checked = 0
        self.triples_checked = 0
        self.antisymmetry_violations: list = []
        self.jacobi_violations: list = []
        self.centrality_violations: list = []

    @property
    def clean(self) -> bool:
        return not (
            self.antisymmetry_violations
            or self.jacobi_violations
            or self.centrality_violations
        )


def generators_upto(index_bound: int) -> list:
    """d_n, then I_n, for |n| <= index_bound, then C, C_D, C_I: the sweep order."""
    span = range(-index_bound, index_bound + 1)
    return [d(n) for n in span] + [I(n) for n in span] + [C, C_D, C_I]


def generator_count(index_bound: int) -> int:
    """``len(generators_upto(index_bound))``, counted without listing."""
    return 2 * max(2 * index_bound + 1, 0) + 3


def sweep_terms(index_bound: int, monomial_bound: int, k: int) -> list:
    """All decorated generators (kind, index, exponents) within the bounds."""
    monos = exponents_upto(k, monomial_bound)
    return [(kind, n, m) for (kind, n) in generators_upto(index_bound) for m in monos]


def _interner(initial):
    """A key list seeded with ``initial`` and a function giving each key's index."""
    keys = list(initial)
    ids = {key: i for i, key in enumerate(keys)}

    def intern(key) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(keys)
            keys.append(key)
        return i

    return keys, intern


def _merge(run) -> tuple:
    """Collect (generator id, coefficient) pairs by generator, dropping zero sums."""
    acc: dict = {}
    for gid, c in run:
        acc[gid] = acc.get(gid, 0) + c
    return tuple((gid, c) for gid, c in acc.items() if c)


def _accumulate(parts) -> dict:
    """Sum runs of (generator id, coefficient), each run tagged with a monomial id.

    Keys are (generator id, monomial id); zero sums are kept.
    """
    acc: dict = {}
    for run, mid in parts:
        for gid, c in run:
            key = (gid, mid)
            acc[key] = acc.get(key, 0) + c
    return acc


MAX_SWEEP_TRIPLES = 50_000_000  # the most ordered triples one Jacobi sweep may check
# the most exponent entries (monomials times k) one Jacobi sweep may store, and
# that the Ω probe ((k + 1) keys of degree <= 1) or the rank-one invariants (k keys) may list
MAX_SWEEP_EXPONENTS = 1_000_000
MAX_SWEEP_VIOLATIONS = 20  # the most violations of each kind a sweep report keeps


def jacobi_antisymmetry_sweep(
    index_bound: int,
    monomial_bound: int,
    k: int,
    structure: StructureFn = hv_structure,
) -> JacobiSweepReport:
    """Exhaustively check antisymmetry and Jacobi on decorated generators.

    Covers every ordered pair for antisymmetry and centrality, and every
    ordered triple for Jacobi, over indices |n| <= index_bound and monomial
    exponents |r| <= monomial_bound in k variables.

    A decorated generator g (x) m factors into a generator and a monomial,
    and [g (x) p, h (x) q] = [g, h] (x) pq, so the sweep reads every bracket
    from two tables built once per call.  The generator table holds
    ``structure`` on each ordered pair of generators the sweep reaches (one
    call per pair), with generators interned as small integer ids; the
    monomial table holds exponent addition on interned monomial ids.  Each
    distinct generator-level pair bracket gets a pair id, and
    ``nested[g][pair id]`` is the merged bracket of g with it.  The tables
    grow with the number of generators squared, not with the number of
    decorated terms.

    Antisymmetry, centrality and Jacobi all read these tables, and one
    accumulation path (keys: generator id, monomial id) sums both the pair
    checks and the three nested brackets of a triple, each part tagged with
    the monomial of its own pair.  Violation payloads are rebuilt as
    ``{(kind, index, exponents): coefficient}``, and each violation list
    keeps its first ``MAX_SWEEP_VIOLATIONS``.  A sweep of more than
    ``MAX_SWEEP_TRIPLES`` triples, or whose monomials hold more than
    ``MAX_SWEEP_EXPONENTS`` exponent entries, is refused before any table is
    built, in that order.
    """
    ngens = generator_count(index_bound)
    nmonos = exponent_count(k, monomial_bound, MAX_SWEEP_TRIPLES)
    if (ngens * nmonos) ** 3 > MAX_SWEEP_TRIPLES:
        raise ConfigurationError(
            f"a sweep over index {index_bound}, monomial {monomial_bound}, k {k} "
            f"checks more than {MAX_SWEEP_TRIPLES} triples"
        )
    if nmonos * k > MAX_SWEEP_EXPONENTS:  # nmonos is exact here: a stand-in fails the triple count
        raise ConfigurationError(
            f"a sweep over monomial {monomial_bound}, k {k} stores {nmonos * k} exponent entries, "
            f"more than {MAX_SWEEP_EXPONENTS}"
        )
    report = JacobiSweepReport(index_bound, monomial_bound, k)
    gens = generators_upto(index_bound)
    monos = exponents_upto(k, monomial_bound)
    terms = sweep_terms(index_bound, monomial_bound, k)
    nterms = len(terms)
    sweep_gens = range(len(gens))
    sweep_monos = range(len(monos))
    # decorated term i as (generator id, monomial id)
    ids = [(g, m) for g in sweep_gens for m in sweep_monos]

    gen_keys, intern_gen = _interner(gens)
    gen_table: dict = {}

    def gen_bracket(a: int, b: int) -> tuple:
        run = gen_table.get((a, b))
        if run is None:
            run = gen_table[(a, b)] = tuple(
                (intern_gen((kind, idx)), c)
                for kind, idx, c in structure(*gen_keys[a], *gen_keys[b])
            )
        return run

    raw = [[gen_bracket(a, b) for b in sweep_gens] for a in sweep_gens]
    pair_runs, intern_pair = _interner([()])
    pair_id = [[intern_pair(_merge(run)) for run in row] for row in raw]
    nested = [
        [_merge((h2, c * c2) for h, c in run for h2, c2 in gen_bracket(g, h)) for run in pair_runs]
        for g in sweep_gens
    ]

    mono_keys, intern_mono = _interner(monos)

    def mono_add(a: int, b: int) -> int:
        return intern_mono(tuple(x + y for x, y in zip(mono_keys[a], mono_keys[b])))

    # intern the pair sums first, so that each row covers every monomial a
    # pair bracket can carry
    for a in sweep_monos:
        for b in sweep_monos:
            mono_add(a, b)
    pair_monos = range(len(mono_keys))
    madd = [[mono_add(a, b) for b in pair_monos] for a in sweep_monos]

    def payload(acc: dict, keep_zeros: bool) -> dict:
        return {
            (*gen_keys[gid], mono_keys[mid]): c
            for (gid, mid), c in acc.items()
            if c or keep_zeros
        }

    # antisymmetry and centrality
    for i, (ga, ma) in enumerate(ids):
        for j in range(i, nterms):
            gb, mb = ids[j]
            report.pairs_checked += 1
            acc = _accumulate(((raw[ga][gb], madd[ma][mb]), (raw[gb][ga], madd[mb][ma])))
            if any(acc.values()) and len(report.antisymmetry_violations) < MAX_SWEEP_VIOLATIONS:
                report.antisymmetry_violations.append((terms[i], terms[j], payload(acc, True)))
    for i, (k1, n1, _m1) in enumerate(terms):
        if k1 in _CENTRAL_KINDS or (k1 == "I" and n1 == 0):
            # I_0 is central in the core algebra; over coefficients this is
            # the statement [I_0 (x) p, g (x) q] = 0, swept here too.
            ga = ids[i][0]
            for j, (gb, _mb) in enumerate(ids):
                if raw[ga][gb] or raw[gb][ga]:
                    if len(report.centrality_violations) < MAX_SWEEP_VIOLATIONS:
                        report.centrality_violations.append((terms[i], terms[j]))

    # Jacobi on all ordered triples: [x,[y,z]] + [y,[z,x]] + [z,[x,y]]
    violations = report.jacobi_violations
    for i, (gx, mx) in enumerate(ids):
        nested_x, pair_x, madd_x = nested[gx], pair_id[gx], madd[mx]
        for j, (gy, my) in enumerate(ids):
            report.triples_checked += nterms
            nested_y, pair_y, madd_y = nested[gy], pair_id[gy], madd[my]
            xy_pair, xy_mono = pair_x[gy], madd_x[my]
            for gz in sweep_gens:
                x_part = nested_x[pair_y[gz]]
                y_part = nested_y[pair_id[gz][gx]]
                z_part = nested[gz][xy_pair]
                if not (x_part or y_part or z_part):
                    continue
                for mz in sweep_monos:
                    madd_z = madd[mz]
                    acc = _accumulate((
                        (x_part, madd_x[madd_y[mz]]),
                        (y_part, madd_y[madd_z[mx]]),
                        (z_part, madd_z[xy_mono]),
                    ))
                    if any(acc.values()) and len(violations) < MAX_SWEEP_VIOLATIONS:
                        l = gz * len(monos) + mz
                        violations.append((terms[i], terms[j], terms[l], payload(acc, False)))
    return report


# ---------------------------------------------------------------------------
# text rendering and parsing of elements
# ---------------------------------------------------------------------------

_GEN_ORDER = {"d": 0, "I": 1, "C": 2, "CD": 3, "CI": 4}


def _term_sort_key(item):
    (g, key), _c = item
    return (g.degree, _GEN_ORDER[g.kind], g.index, key)


def render_decorated(coeffs, g: Generator, key) -> str:
    """The text of ``g⊗key``: the generator alone when the key prints empty."""
    keytext = coeffs.render_key(key)
    return g.render() + (f"⊗{keytext}" if keytext else "")


def render_element(x: AlgebraElement) -> str:
    """Text form like ``-4*d(0) + 1/2*C`` or ``I(2)⊗b[1,1]``."""
    terms = sorted(x.terms.items(), key=_term_sort_key)
    return render_sum(((render_decorated(x.coeffs, g, key), c) for (g, key), c in terms), signed=True)


_GEN_NAMES = {"C": C, "C_D": C_D, "C_I": C_I}


def _parse_generator(text: str) -> Generator:
    text = text.strip()
    if text in _GEN_NAMES:
        return _GEN_NAMES[text]
    for kind in ("d", "I"):
        if text.startswith(kind + "(") and text.endswith(")"):
            try:
                return Generator(kind, int(text[2:-1]))
            except ValueError as exc:
                raise ParseError(f"bad generator index in {text!r}") from exc
    raise ParseError(f"unknown generator {text!r}")


def parse_element(text: str, coeffs: PolynomialCoefficients) -> AlgebraElement:
    """Parse the grammar emitted by :func:`render_element` (polynomial keys)."""
    s = text.strip().replace("−", "-")
    if s == "0":
        return zero_element(coeffs)
    # split on top-level +/- (parens only occur inside scalar parts)
    chunks, depth, start = [], 0, 0
    for pos, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and pos > start:
            chunks.append(s[start:pos].strip())
            start = pos
    chunks.append(s[start:].strip())
    terms: dict = {}
    for chunk in chunks:
        if not chunk:
            raise ParseError(f"malformed element {text!r}")
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:].strip()
        coeff = ONE
        if "*" in chunk:
            # a body holds no *, so the coefficient is all before the last one: 2*i*d(1), (1+i)*C
            head, _, rest = chunk.rpartition("*")
            probe = head.strip()
            if probe.startswith("(") and probe.endswith(")"):
                probe = probe[1:-1]
            try:
                coeff = parse_scalar(probe)
                chunk = rest.strip()
            except ParseError:
                pass  # the * belonged to something else; treat whole as body
        body = chunk
        key = (0,) * coeffs.k
        if "⊗" in body:
            gen_text, _, key_text = body.partition("⊗")
            key_text = key_text.strip()
            if not (key_text.startswith("b[") and key_text.endswith("]")):
                raise ParseError(f"bad monomial {key_text!r}")
            try:
                key = tuple(int(v) for v in key_text[2:-1].split(","))
            except ValueError as exc:
                raise ParseError(f"bad monomial {key_text!r}") from exc
            if len(key) != coeffs.k:
                raise DimensionMismatchError(f"monomial {key} needs k={coeffs.k}")
            body = gen_text
        g = _parse_generator(body)
        tk = (g, key)
        terms[tk] = terms.get(tk, ZERO) + sign * coeff
    return AlgebraElement(coeffs, terms)
