"""Verification and exploration procedures.

Everything here is a bounded, exact check: axiom sweeps replay the bracket
against double actions, both sides read as sums of term rows (each one-term
element's image on each basis key, applied once per sweep), probes hunt for
invariant subspaces inside a finite window, and one level builder
(``_reduced_levels``) yields the maximal submodule of a Verma module level
by level, which singular slices and the PBW-order spot-check both read.
Operators come from one generator list (``algebra.generators_upto``) and one
constructor (``_decorated``); windows come from one budgeted listing of
basis keys (``Module.window_keys``), and a vector is built from a key only
where it is acted on.  Work is counted before it starts and refused past a
budget (``MAX_AXIOM_TRIPLES``, ``MAX_BUILDER_READS``, the bracket layer's
``MAX_SWEEP_EXPONENTS``, and the module layer's ``MAX_WINDOW_VECTORS`` and
``MAX_LEVEL_MONOMIALS``).  A reducibility witness is conclusive; a
"window-irreducible" verdict is a bounded-scope certificate, never a proof.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .algebra import (
    MAX_SWEEP_EXPONENTS,
    AlgebraElement,
    C,
    C_D,
    C_I,
    Generator,
    PolynomialCoefficients,
    Report,
    _interner,
    bracket,
    d,
    generator_count,
    generators_upto,
    I,
    lifted_structure,
)
from .errors import (
    ConfigurationError,
    LevelOverflowError,
    UnsupportedModuleError,
)
from .linalg import sparse_kernel, sparse_rref
from .modules import (
    MAX_LEVEL_MONOMIALS,
    Module,
    PBWVector,
    TruncatedVerma,
    PbwOrder,
    WeightVector,
)
from .polys import PolyB, PolyT, exponent_count
from .scalars import ONE, ZERO, Scalar, render_scalar


class WeightTuple(NamedTuple):
    """Joint eigenvalues of (d_0, I_0, C, C_I, C_D) on a weight vector."""

    d0: Scalar
    I0: Scalar
    C: Scalar
    CI: Scalar
    CD: Scalar

    def render(self) -> tuple:
        return tuple(render_scalar(x) for x in self)

    def sort_key(self):
        return tuple(x.sort_key() for x in self)


def _decorated(coeffs, g: Generator, image: dict) -> AlgebraElement:
    """g tensored with ``image`` ({key: scalar}, as ``coeffs.project`` gives)."""
    return AlgebraElement(coeffs, {(g, key): c for key, c in image.items()})


def unit_element(coeffs, g: Generator) -> AlgebraElement:
    """g tensored with the unit of the coefficient algebra."""
    return _decorated(coeffs, g, dict.fromkeys(coeffs.unit_keys(), ONE))


def algebra_generator_elements(coeffs, index_bound: int, monomial_bound: int) -> list:
    """Single-term homogeneous elements within the sweep bounds.

    Every generator of ``generators_upto(index_bound)``, each decorated by
    every coefficient key of total degree <= monomial_bound.
    """
    keys = coeffs.keys_upto(monomial_bound)
    return [_decorated(coeffs, g, {key: ONE}) for g in generators_upto(index_bound) for key in keys]


# ---------------------------------------------------------------------------
# module axiom sweep
# ---------------------------------------------------------------------------


MAX_AXIOM_TRIPLES = 5_000_000  # the most operator pairs, and pairs x window vectors, one sweep may check
MAX_VIOLATION_SAMPLES = 50  # the most violations an axiom-sweep report keeps (it counts them all)


class _Overflowed:
    """The row of a term whose image overflows a Verma truncation: iterating
    it raises, so every triple that reads it is inconclusive."""

    __slots__ = ()

    def __iter__(self):
        raise LevelOverflowError("a row of this triple saturates the truncation")


_OVERFLOWED = _Overflowed()


class _TermRows(dict):
    """{id of a basis key b: row of t on b} for one one-term element t =
    (generator, coefficient key).  Basis keys are read through one sweep's
    ids: ``keys[id]`` is the key, and ``intern`` gives each key it has not
    met the next id.  t's own terms (``module._terms``) are read once, when
    the table is made; a row is ``module.apply`` of them on ``keys[b]``,
    built on its first read and kept as a tuple of (id, a, b, d) standing
    for (a + b*i)/d, or ``_OVERFLOWED``, which raises when iterated."""

    __slots__ = ("module", "own", "keys", "intern")

    def __init__(self, module: Module, t, keys: list, intern):
        self.module = module
        self.own = tuple(module._terms(((t, ONE),)))
        self.keys = keys
        self.intern = intern

    def __missing__(self, b):
        intern = self.intern
        try:
            image = self.module.apply(self.own, ((self.keys[b], ONE),))
            row = tuple((intern(key), *c.triple) for key, c in image.items())
        except LevelOverflowError:
            row = _OVERFLOWED
        self[b] = row
        return row


def _fold(acc: dict, a1: int, b1: int, d1: int, row):
    """Add (a1 + b1*i)/d1 times ``row`` (a ``_TermRows`` row) into ``acc``, all
    as unnormalized integer triples (a, b, d) with d > 0.  Nothing is reduced
    by a gcd, and denominators are cross-multiplied only where they differ: the
    sweep only asks whether each sum is zero, which is whether its a and b are."""
    for key, a2, b2, d2 in row:
        if b1 or b2:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        else:
            a, b = a1 * a2, 0
        d = d1 * d2
        prev = acc.get(key)
        if prev is None:
            acc[key] = (a, b, d)
        else:
            pa, pb, pd = prev
            if pd == d:
                acc[key] = (pa + a, pb + b, d)
            else:
                acc[key] = (pa * d + a * pd, pb * d + b * pd, pd * d)


def _negated_bracket(table: dict, coeffs, t1, t2) -> list:
    """``bracket``'s terms on one-term elements t = (generator, key) of coefficient 1, as
    ((generator, key), -a, -b, d) for (a + b*i)/d; ``table`` keeps each generator pair's lift."""
    (g1, k1), (g2, k2) = t1, t2
    run = table.get((g1, g2))
    if run is None:
        run = table[(g1, g2)] = [(Generator(kind, idx), -a, -b, d) for kind, idx, c in lifted_structure(*g1, *g2)
                                 for a, b, d in (c.triple,)]
    key3 = coeffs.multiply(k1, k2) if run else None
    return [] if key3 is None else [((g3, key3), a, b, d) for g3, a, b, d in run]


class AxiomSweepReport(Report):
    def __init__(self, index_bound: int, monomial_bound: int, window: int):
        self.index_bound = index_bound
        self.monomial_bound = monomial_bound
        self.window = window
        self.triples_checked = 0
        self.violations_found = 0
        self.violations: list = []  # (x text, y text, basis key text)
        self.inconclusive: list = []  # the same, for triples a truncation overflow left undecided

    @property
    def clean(self) -> bool:
        return self.violations_found == 0

    def summary(self) -> dict:
        return {
            "index_bound": self.index_bound,
            "monomial_bound": self.monomial_bound,
            "window": self.window,
            "triples_checked": self.triples_checked,
            "violations": self.violations_found,
            "inconclusive": len(self.inconclusive),
            "violation_samples": [
                {"x": x, "y": y, "vector": v} for (x, y, v) in self.violations[:5]
            ],
        }


def axiom_sweep(
    module: Module,
    index_bound: int = 5,
    monomial_bound: int = 2,
    window: int = 4,
    order_seed: int | None = None,
) -> AxiomSweepReport:
    """Check act([x,y], v) = act(x, act(y, v)) - act(y, act(x, v)) exactly.

    Sweeps every unordered pair of decorated generators within the bounds
    against every window basis vector.  The ordered-pair identity follows
    from the swept one because the bracket engine's antisymmetry is checked
    exhaustively elsewhere.  Both sides are read from term rows: the row of
    a one-term element t = (generator, coefficient key) on a basis key b is
    ``module.apply`` of t's own terms (``module._terms``: the evaluation
    wrapper's merged jet image, a tensor product's two sides; read once per
    sweep) on b, built the first time the sweep meets (t, b), on a window
    key or on a key an image reaches, and read by every triple that needs
    it.  No row builds an algebra element or a vector, and none is checked
    against the algebra: the operators are built over ``module.algebra()``.
    So x.(y.v) is the sum over the terms c.b of y.v of c times x's row on b,
    and [x, y].v the sum over the terms c.t of [x, y] of c times t's row on
    v.  [g1 (x) k1, g2 (x) k2] = [g1, g2] (x) k1k2 is read from a per-sweep
    table (``_negated_bracket``): the default ``hv_structure``, never the
    module's, lifted once per generator pair and decorated by the one key
    product, so the sweep calls no ``bracket``.  Each triple sums
    x.(y.v) - y.(x.v) - [x, y].v in one accumulator of unnormalized integer
    triples (a, b, d), read as (a + b*i)/d: a violation when any entry has a
    or b nonzero, exact without a gcd, because only whether each sum is zero
    is asked.  A row is a flat tuple of (id, a, b, d), iterated as it is;
    ids are small integers that the sweep gives the basis keys it meets, the
    window's keys first (window key v has id v) and then each key a row
    reaches, as the row is built; ``apply`` and the report's entries see the
    keys themselves.  Hashing an int costs a fraction of hashing a PBW
    monomial or a tensor key pair.  Reading the bracket term by term is
    exact, overflows included, because it holds at most one term per
    generator (``multiply`` returns one product key or ``None``), so an
    evaluation wrapper's merged jet images never cancel across its terms.  A
    Verma truncation overflow inside a triple, in any row it reads (the row
    raises when iterated), is recorded as inconclusive for that triple, never
    as a violation.  Each operator is rendered once, for the report's
    entries.  More than ``MAX_AXIOM_TRIPLES`` operator pairs (counted before
    anything is built), a window past its budget (refused by ``window_keys``
    before it is listed), or pairs times window vectors past
    ``MAX_AXIOM_TRIPLES`` (before any operator is built) is refused with
    ``ConfigurationError``, in that order.  The report counts every
    violation and keeps the least ``MAX_VIOLATION_SAMPLES`` of them.
    """
    coeffs = module.algebra()
    sweep = f"an axiom sweep over index {index_bound}, monomial {monomial_bound}"
    if isinstance(coeffs, PolynomialCoefficients):
        nkeys = exponent_count(coeffs.k, monomial_bound, MAX_AXIOM_TRIPLES)
    else:
        nkeys = len(coeffs.keys_upto(monomial_bound))
    nops = generator_count(index_bound) * nkeys
    npairs = nops * (nops - 1) // 2
    if npairs > MAX_AXIOM_TRIPLES:
        raise ConfigurationError(f"{sweep} has more than {MAX_AXIOM_TRIPLES} operator pairs")
    keys = module.window_keys(window)
    if npairs * len(keys) > MAX_AXIOM_TRIPLES:
        raise ConfigurationError(f"{sweep}, window {window} checks more than {MAX_AXIOM_TRIPLES} triples")
    report = AxiomSweepReport(index_bound, monomial_bound, window)
    ops = algebra_generator_elements(coeffs, index_bound, monomial_bound)
    texts = [op.render() for op in ops]
    terms = [next(iter(op.terms)) for op in ops]
    pairs = [(i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))]
    if order_seed is not None:
        random.Random(order_seed).shuffle(pairs)
    report.triples_checked = len(pairs) * len(keys)

    # basis keys as ids: the window's first, so window key v has id v
    key_of, intern = _interner(keys)
    window_ids = range(len(keys))
    # rows[t]: the _TermRows of the one-term element t, made the first time
    # the sweep meets t
    rows: dict = {}

    def rows_of(t) -> _TermRows:
        table = rows.get(t)
        if table is None:
            table = rows[t] = _TermRows(module, t, key_of, intern)
        return table

    op_rows = [rows_of(t) for t in terms]
    pair_table: dict = {}  # (g1, g2): the lifted hv_structure(g1, g2), negated
    for i, j in pairs:
        ri, rj = op_rows[i], op_rows[j]
        xy = [(rows_of(t), a, b, d) for t, a, b, d in _negated_bracket(pair_table, coeffs, terms[i], terms[j])]
        for v in window_ids:
            # x.(y.v) - y.(x.v) - [x, y].v in one accumulator, x = ops[i],
            # y = ops[j] and v the basis vector of window key v; three loops,
            # because building one list of the three parts per triple cost
            # about a tenth of an axiom-sweep pass
            acc: dict = {}
            try:
                for b1, a, b, d in rj[v]:
                    _fold(acc, a, b, d, ri[b1])
                for b1, a, b, d in ri[v]:
                    _fold(acc, -a, -b, d, rj[b1])
                for rt, a, b, d in xy:
                    _fold(acc, a, b, d, rt[v])
            except LevelOverflowError:
                report.inconclusive.append((texts[i], texts[j], str(keys[v])))
                continue
            for a, b, _d in acc.values():
                if a or b:
                    report.violations.append((texts[i], texts[j], str(keys[v])))
                    break
    report.violations_found = len(report.violations)
    report.violations.sort()
    del report.violations[MAX_VIOLATION_SAMPLES:]
    report.inconclusive.sort()
    return report


# ---------------------------------------------------------------------------
# weight tables
# ---------------------------------------------------------------------------

_WEIGHT_GENS = (d(0), I(0), C, C_I, C_D)


def weight_table(module: Module, window: int = 4) -> dict:
    """Joint eigenspace dimensions of (d_0, I_0, C, C_I, C_D) on the window.

    Every window basis vector must be a joint eigenvector; a module whose
    basis vectors are not (the rank-one free family, say, where d_0 is
    multiplication by t) raises :class:`UnsupportedModuleError`.
    """
    keys = module.window_keys(window)
    coeffs = module.algebra()
    ops = [unit_element(coeffs, g) for g in _WEIGHT_GENS]
    table: dict[WeightTuple, int] = {}
    for key in keys:
        v = module.basis_vector(key)
        evs = []
        for op in ops:
            w = module.act(op, v)
            ev = w.coeff(key)
            if w != ev * v:
                raise UnsupportedModuleError(
                    f"basis vector {key} is not a joint eigenvector; "
                    "weight tables need a weight module"
                )
            evs.append(ev)
        wt = WeightTuple(*evs)
        table[wt] = table.get(wt, 0) + 1
    return table


# ---------------------------------------------------------------------------
# reducibility probes
# ---------------------------------------------------------------------------


def _refuse_actions(nops: int, keys: list, probe: str) -> None:
    """Refuse ``nops`` operators on each of ``keys`` past ``MAX_AXIOM_TRIPLES`` actions."""
    if nops * len(keys) > MAX_AXIOM_TRIPLES:
        raise ConfigurationError(f"{probe} acts more than {MAX_AXIOM_TRIPLES} times")


def _refuse_exponents(entries: int, listing: str) -> None:
    """Refuse, before it is built, a listing of exponent tuples that holds
    more than ``MAX_SWEEP_EXPONENTS`` entries in all."""
    if entries > MAX_SWEEP_EXPONENTS:
        raise ConfigurationError(f"{listing}: {entries} exponent entries to list, more than {MAX_SWEEP_EXPONENTS}")


class WindowReport(Report):
    def __init__(self, window: int, operator_bound: int, verdict: str, witness: dict | None = None):
        self.window = window
        self.operator_bound = operator_bound
        self.verdict = verdict  # "reducible-with-witness" | "window-irreducible"
        self.witness = witness

    @property
    def reducible(self) -> bool:
        return self.verdict == "reducible-with-witness"

    def summary(self) -> dict:
        return {
            "window": self.window,
            "operator_bound": self.operator_bound,
            "verdict": self.verdict,
            "witness": self.witness,
        }


def _line_probe(module: Module, lines: list, operator_bound: int) -> dict | None:
    coeffs = module.algebra()
    # (shift, operator): d_i then I_i for each nonzero |i| <= operator_bound
    ops = [
        (i, unit_element(coeffs, g(i)))
        for i in range(-operator_bound, operator_bound + 1)
        if i != 0
        for g in (d, I)
    ]
    dead = [k for k in lines if all(module.act(op, module.basis_vector(k)).is_zero for _i, op in ops)]
    if dead:
        return {"kind": "lines", "lines": sorted(dead)}
    unreachable = [
        k0
        for k0 in lines
        if all(module.act(op, module.basis_vector(k0 - i)).coeff(k0).is_zero for i, op in ops)
    ]
    if unreachable:
        return {"kind": "complement-of-lines", "lines": sorted(unreachable)}
    return None


def _omega_probe(module: Module, degrees: list, operator_bound: int) -> dict | None:
    coeffs = module.algebra()
    ops = [
        _decorated(coeffs, g, {key: ONE})
        for g in generators_upto(operator_bound)
        if not g.is_central_kind
        for key in coeffs.keys_upto(1)
    ]
    # the degree-shifted subspace t*C[t]: closed iff no action reintroduces constants
    closed = all(module.act(op, module.basis_vector(j)).coeff(0).is_zero for j in degrees if j for op in ops)
    return {"kind": "t-multiples"} if closed else None


def _omega_probe_keys(coeffs) -> int:
    """The k + 1 keys of degree <= 1 that the Ω probe decorates each generator
    by, counted; their (k + 1) * k exponent entries are refused first."""
    k = coeffs.k
    _refuse_exponents((k + 1) * k, f"a probe over k {k}")
    return k + 1


# each probe by the vector type it reads: (module, window keys, operator bound) -> witness or None,
# and the number of coefficient keys it decorates each generator by (from the module's algebra)
_PROBES = {WeightVector: (_line_probe, lambda coeffs: 1), PolyT: (_omega_probe, _omega_probe_keys)}


def probe_irreducible(module: Module, window: int = 4, operator_bound: int = 3) -> WindowReport:
    """Hunt for an invariant subspace within the window.

    The probe is picked by the module's ``vector_type``.  Weight lines
    (``WeightVector``): looks for basis lines that every shift operator kills
    (an invariant span) and for lines nothing maps into (an invariant
    complement).  Polynomials in t (``PolyT``, the rank-one free family):
    tests closure of the degree-shifted subspace t*C[t].  An evaluation
    wrapper reads its inner module's vectors, so it is probed as that module.
    Witnesses are conclusive; the irreducible verdict is only as strong as
    the window.  Decorated generators times window vectors past
    ``MAX_AXIOM_TRIPLES`` are refused with ``ConfigurationError`` before any
    operator is built, and so, before any key is listed, are the Ω probe's
    keys past ``MAX_SWEEP_EXPONENTS`` exponent entries.
    """
    if window < 1 or operator_bound < 1:
        raise ConfigurationError("window and operator bound must be >= 1")
    keys = module.window_keys(window)
    if module.vector_type not in _PROBES:
        raise UnsupportedModuleError(f"no reducibility probe for the {module.family} family")
    probe, decorations = _PROBES[module.vector_type]
    nops = generator_count(operator_bound) * decorations(module.algebra())
    _refuse_actions(nops, keys, f"a probe over operator {operator_bound}, window {window}")
    witness = probe(module, keys, operator_bound)
    verdict = "window-irreducible" if witness is None else "reducible-with-witness"
    return WindowReport(window, operator_bound, verdict, witness)


# ---------------------------------------------------------------------------
# singular vectors and the maximal submodule
# ---------------------------------------------------------------------------


def _raising_factors(module: TruncatedVerma, level: int, raising: str) -> list:
    keys = module.coefficient_keys()
    if raising == "generators":
        gens = [("d", 1), ("d", 2), ("I", 1)]
    elif raising == "full":
        gens = [(kind, i) for i in range(1, level + 1) for kind in ("d", "I")]
    else:
        raise ConfigurationError(f"unknown raising set {raising!r}")
    return [(kind, idx, key) for (kind, idx) in gens for key in keys]


def _factor_elements(coeffs, factors: list) -> dict:
    """Each (kind, index, key) factor as its single-term element."""
    return {fac: _decorated(coeffs, Generator(fac[0], fac[1]), {fac[2]: ONE}) for fac in factors}


def _raising_words(factors: list, degree: int) -> list:
    """All ordered words over the factors with index degrees summing to `degree`."""
    if degree == 0:
        return [()]
    return [
        (fac,) + rest
        for fac in factors
        if fac[1] <= degree
        for rest in _raising_words(factors, degree - fac[1])
    ]


MAX_BUILDER_READS = 1_000_000  # the most columns one level-builder pass may read


def _reduced_levels(module: TruncatedVerma, level: int, raising: str):
    """Yield R_0, R_1, ..., R_level: the level builder of the maximal submodule.

    The maximal proper submodule M is built up the levels: M_0 = 0, and a
    level-m vector v lies in M_m exactly when e.v lies in M_{m - deg e} for
    every raising factor e.  R_m is the nonzero rows of a reduced row echelon
    form whose kernel is M_m, so applying R_m to a level-m vector (in
    ``level_monomials`` coordinates) gives its coordinates in V_m / M_m, and
    dim M_m = dim V_m - len(R_m).  The rows at level m are the quotient
    coordinates of e.u, one factor e acting once on each basis monomial u,
    read straight from the module's column (the straightening of e.u); their
    elimination gives R_m.  This is the package's one call site of
    ``sparse_rref``, one call per level m >= 1; where it certifies full
    column rank, R_m is the identity and its coordinates are ``ONE``, which
    the next level's rows take without a product.  The reads, one column per
    factor of index <= m and monomial of V_m at each level m, are counted
    before the first, and more than ``MAX_BUILDER_READS`` is refused with
    ConfigurationError.
    """
    factors = _raising_factors(module, level, raising)
    reads = sum(sum(f[1] <= m for f in factors) * module.level_dimension(m) for m in range(1, level + 1))
    if reads > MAX_BUILDER_READS:
        raise ConfigurationError(
            f"the level builder up to level {level} reads {reads} columns, more than {MAX_BUILDER_READS}"
        )
    column = module._column
    # quotient coordinates by level: coords[m][mono] = {row of R_m: coefficient}
    coords: list = []
    reduced = [(0, {0: ONE})]  # R_0: M_0 = 0, the coordinate is the hw coefficient
    yield reduced
    for m in range(1, level + 1):
        coords.append(_quotient_coordinates(reduced, module.level_monomials(m - 1)))
        monos = module.level_monomials(m)
        rows: list = []
        for kind, index, key in factors:
            if index > m:
                continue
            below = coords[m - index]
            fac_rows: dict = {}
            for j, mono in enumerate(monos):
                for m2, c in column(kind, index, key, mono):
                    for i, rc in below.get(m2, {}).items():
                        row = fac_rows.setdefault(i, {})
                        row[j] = row.get(j, ZERO) + (c if rc is ONE else c * rc)
            rows.extend(fac_rows.values())
        reduced = sparse_rref(rows)
        yield reduced


def _quotient_coordinates(reduced: list, monos: list) -> dict:
    """Column view of reduced rows: each monomial's coordinates in V/M."""
    out: dict = {}
    for i, (_pivot, row) in enumerate(reduced):
        for j, c in row.items():
            out.setdefault(monos[j], {})[i] = c
    return out


def singular_vectors(module: TruncatedVerma, level: int, raising: str = "generators") -> list:
    """Basis of the maximal-submodule slice M_level: the kernel of R_level.

    R_level is the last item of the level builder ``_reduced_levels``; the
    kernel comes back as the free-column basis of its rows, in
    ``level_monomials`` order.  A negative level is refused with
    ConfigurationError before anything is listed.

    The restricted raising set {d_1, d_2, I_1} (decorated by the
    coefficient basis) suffices because it generates the whole positive
    part; the "full" mode (d_i, I_i for i <= level) exists to
    cross-validate exactly that.
    """
    monos = module.level_monomials(level)
    for reduced in _reduced_levels(module, level, raising):
        pass
    return [
        PBWVector({monos[j]: c for j, c in vec.items()})
        for vec in sparse_kernel(reduced, len(monos))
    ]


def in_maximal_submodule(module: TruncatedVerma, v: PBWVector) -> bool:
    """Membership test for the maximal proper submodule.

    Recursively: a vector lies in it iff each restricted raising generator
    maps it into the maximal submodule one or two levels down, with the
    level-0 slice being zero.  The same recursion as the level builder, but
    walked over the reachable cone of the given vector, one visit per line
    (scaled so its least monomial reads 1): a line that failed ends the walk.
    The walk is a module-level function, so no call leaves a reference cycle.
    """
    by_level: dict[int, dict] = {}
    for mono, c in v.terms.items():
        lvl = TruncatedVerma.level_of(mono)
        by_level.setdefault(lvl, {})[mono] = c
    ops = _factor_elements(module.coeffs, _raising_factors(module, 2, "generators"))
    walked: set = set()
    return all(_cone_in_submodule(module, ops, walked, PBWVector(part), lvl) for lvl, part in by_level.items())


def _cone_in_submodule(module: TruncatedVerma, ops: dict, walked: set, vec: PBWVector, level: int) -> bool:
    """The walk of ``in_maximal_submodule`` from ``vec`` at ``level``; ``walked``
    holds the lines already visited."""
    if vec.is_zero:
        return True
    if level == 0:
        return False
    lead = vec.terms[min(vec.terms)]
    line = vec if lead == 1 else vec * (ONE / lead)
    if line in walked:
        return True
    walked.add(line)
    return all(
        _cone_in_submodule(module, ops, walked, module.act(op, vec), level - fac[1])
        for fac, op in ops.items()
        if fac[1] <= level
    )


# ---------------------------------------------------------------------------
# highest-weight criterion suite
# ---------------------------------------------------------------------------


class HcSuiteReport(Report):
    def __init__(self):
        self.identities: list = []  # (name, passed)
        self.phi_kills_ideal = False
        self.singular_checks: list = []  # (name, expected, actual)

    @property
    def identities_pass(self) -> bool:
        return all(ok for _name, ok in self.identities)

    @property
    def singular_pass(self) -> bool:
        return all(exp == act for _n, exp, act in self.singular_checks)

    @property
    def passed(self) -> bool:
        return self.identities_pass and self.singular_pass

    def summary(self) -> dict:
        return {
            "identities": {name: ok for name, ok in self.identities},
            "phi_kills_ideal": self.phi_kills_ideal,
            "singular_checks": [
                {"vector": n, "expected_in_kernel": e, "in_kernel": a}
                for n, e, a in self.singular_checks
            ],
            "passed": self.passed,
        }


# One row per identity X.(Y(x)f).hw = phi([X, Y(x)f]).hw, where X kills hw:
# its report name, the raising generators X applied innermost first, the
# lowering generator Y, and whether a nonzero value certifies that Y(x)f.hw
# escapes the maximal submodule.
_HC_IDENTITIES = (
    ("d2.(d-2(x)f)", (d(2),), d(-2), False),
    ("d1.d1.(d-2(x)f)", (d(1), d(1)), d(-2), True),
    ("I2.(d-2(x)f)", (I(2),), d(-2), False),
    ("d2.(I-2(x)f)", (d(2),), I(-2), True),
    ("I2.(I-2(x)f)", (I(2),), I(-2), True),
)


def hc_criterion_suite(module: TruncatedVerma, f: PolyB, singular_depth: int = 4) -> HcSuiteReport:
    """Check the five straightening identities behind the highest-weight
    finiteness criterion, plus the singular-kernel mechanism.

    Each identity (``_HC_IDENTITIES``) compares the module's straightening
    of X.(Y(x)f).hw with phi([X, Y(x)f]).hw, the bracket taken with the
    default ``hv_structure`` (never ``module.structure``), so the identities
    must pass for every functional and catch a module whose structure
    function is wrong.  When the functional kills the whole zero part
    tensored with the ideal generated by f, the lowering vectors decorated
    by f land in the maximal submodule; otherwise a certifying identity
    with a nonzero value shows its lowering vector escapes it.  An f whose
    image in the coefficient algebra is zero is refused with
    ConfigurationError: every vector it decorates would be zero.
    """
    report = HcSuiteReport()
    depth = min(singular_depth, module.max_level)
    module.level_dimension(depth)  # refuses a level too large to list, so the walk stays bounded
    coeffs = module.coeffs
    # the ideal check and the decorated raising factors list every coefficient key
    if coeffs.dimension > MAX_LEVEL_MONOMIALS:
        raise ConfigurationError(
            f"the coefficient algebra has {coeffs.dimension} basis keys, more than {MAX_LEVEL_MONOMIALS} to list"
        )
    fim = coeffs.project(f)
    if not fim:
        raise ConfigurationError("f: zero in the coefficient algebra, so it decorates only zero vectors")
    hw = module.highest_weight_vector()
    decorated = lambda g: _decorated(coeffs, g, fim)  # noqa: E731
    u = lambda g: unit_element(coeffs, g)  # noqa: E731

    lowered = {g: module.act(decorated(g), hw) for g in (d(-2), I(-2))}
    escaping = set()
    for name, raising, g, certifies in _HC_IDENTITIES:
        lhs, x = lowered[g], decorated(g)
        for r in raising:
            lhs, x = module.act(u(r), lhs), bracket(u(r), x)
        value = module.phi.of_element(x)
        report.identities.append((name, lhs == value * hw))
        if certifies and not value.is_zero:
            escaping.add(g)

    # does the functional kill the zero part tensored with the ideal (f)?
    ideal_span = []
    for bkey in coeffs.basis_keys():
        prod: dict = {}
        for fkey, fc in fim.items():
            key2 = coeffs.multiply(fkey, bkey)
            if key2 is not None:
                prod[key2] = prod.get(key2, ZERO) + fc
        if any(not c.is_zero for c in prod.values()):
            ideal_span.append(prod)
    report.phi_kills_ideal = all(
        module.phi.of_element(_decorated(coeffs, slot_gen, prod)).is_zero
        for prod in ideal_span
        for slot_gen in (d(0), I(0), C, C_D, C_I)
    )

    if report.phi_kills_ideal:
        checks = [(g, True, module.act(decorated(g), hw)) for n in range(1, depth + 1) for g in (d(-n), I(-n))]
    else:
        checks = [(g, False, vec) for g, vec in lowered.items() if g in escaping]
    for g, expected, vec in checks:
        report.singular_checks.append((f"{g.render()}(x)f.hw", expected, in_maximal_submodule(module, vec)))
    return report


# ---------------------------------------------------------------------------
# isomorphism invariants of the rank-one free family
# ---------------------------------------------------------------------------


def omega_invariants(module: Module):
    """Recover (lambda, alpha, mu, beta) purely from action values.

    lambda and alpha come out of acting by d_1 on the cyclic generator
    (a degree-one polynomial: leading coefficient and root), each mu_i from
    d_1 (x) b_i, and beta from I_0.  Works through the uniform action
    interface, so it is an isomorphism invariant of the cyclic generator.
    The k exponent tuples of the b_i, k * k entries, are refused past
    ``MAX_SWEEP_EXPONENTS`` with ``ConfigurationError`` before any is built.
    """
    coeffs = module.algebra()
    if not isinstance(coeffs, PolynomialCoefficients):
        raise UnsupportedModuleError("rank-one invariants need the polynomial map algebra")
    if module.vector_type is not PolyT:
        raise UnsupportedModuleError("rank-one invariants need a module on C[t] (the omega family)")
    _refuse_exponents(coeffs.k * coeffs.k, f"rank-one invariants over k {coeffs.k}")
    one = PolyT.one()
    g1 = module.act(unit_element(coeffs, d(1)), one)
    if g1.degree != 1:
        raise UnsupportedModuleError("acting by d_1 on 1 is not degree one; not a rank-one free action")
    lam = g1.coeff(1)
    alpha = ZERO - g1.coeff(0) / lam
    mu = []
    for i in range(coeffs.k):
        exps = tuple(1 if j == i else 0 for j in range(coeffs.k))
        gi = module.act(_decorated(coeffs, d(1), {exps: ONE}), one)
        if gi.is_zero:
            mu.append(ZERO)
            continue
        if gi.degree != 1:
            raise UnsupportedModuleError("decorated d_1 action is not degree one")
        m = gi.coeff(1)
        if gi.coeff(0) != -(m * alpha):
            raise UnsupportedModuleError("decorated d_1 action has the wrong root")
        mu.append(m)
    b = module.act(unit_element(coeffs, I(0)), one)
    if b.degree > 0:
        raise UnsupportedModuleError("I_0 does not act by a constant on 1")
    beta = b.coeff(0)
    return (lam, alpha, tuple(mu), beta)


# ---------------------------------------------------------------------------
# annihilator probe
# ---------------------------------------------------------------------------


class AnnihilatorReport(Report):
    def __init__(self, window: int, index_bound: int):
        self.window = window
        self.index_bound = index_bound
        self.entries: list = []  # (generator text, annihilates)

    def summary(self) -> dict:
        return {
            "window": self.window,
            "index_bound": self.index_bound,
            "generators": [{"polynomial": n, "annihilates": f} for n, f in self.entries],
        }


def annihilator_probe(
    module: Module,
    generators: list,
    window: int = 2,
    index_bound: int = 2,
) -> AnnihilatorReport:
    """For each polynomial p, does x (x) p kill the whole window for every
    homogeneous x within the index bound?

    For an order-s evaluation wrapper every generator of m^s must
    annihilate, and the m^{s-1} generators must not.  A zero polynomial
    kills every module, so it is refused with ConfigurationError, and so are
    operators times window vectors past ``MAX_AXIOM_TRIPLES``, before any
    operator is built.
    """
    coeffs = module.algebra()
    if not isinstance(coeffs, PolynomialCoefficients):
        raise UnsupportedModuleError("annihilator probes run over the polynomial map algebra")
    for i, p in enumerate(generators):
        if p.is_zero:
            raise ConfigurationError(f"generators[{i}]: zero polynomial, so it annihilates every vector")
    keys = module.window_keys(window)
    nops = len(generators) * generator_count(index_bound)
    _refuse_actions(nops, keys, f"an annihilator probe over index {index_bound}, window {window}")
    report = AnnihilatorReport(window, index_bound)
    basis = [module.basis_vector(key) for key in keys]
    for p in generators:
        image = coeffs.project(p)
        ops = [_decorated(coeffs, g, image) for g in generators_upto(index_bound)]
        ann = all(module.act(x, v).is_zero for x in ops if not x.is_zero for v in basis)
        report.entries.append((p.render(), ann))
    return report


# ---------------------------------------------------------------------------
# PBW order spot-check
# ---------------------------------------------------------------------------


class PbwSpotcheckReport(Report):
    def __init__(self):
        self.rows: list = []  # (level, dim_a, dim_b, sing_a, sing_b)
        self.value_mismatches: list = []  # (lowering word, raising word)
        self.values_compared = 0

    @property
    def passed(self) -> bool:
        return not self.value_mismatches and all(
            da == db and sa == sb for _l, da, db, sa, sb in self.rows
        )

    def summary(self) -> dict:
        return {
            "levels": [
                {"level": l, "dims": [da, db], "singular_dims": [sa, sb]}
                for l, da, db, sa, sb in self.rows
            ],
            "values_compared": self.values_compared,
            "value_mismatches": len(self.value_mismatches),
            "passed": self.passed,
        }


def pbw_order_spotcheck(
    module: TruncatedVerma,
    alternative_order: PbwOrder,
    level_bound: int = 3,
    alternative_structure=None,
) -> PbwSpotcheckReport:
    """Differential check of two straightening configurations.

    Rebuilds the module under the alternative order (and, for mutation
    controls, optionally an alternative structure function) and compares
    level dimensions, singular-slice dimensions, and the highest-weight-line
    scalars of lowering-then-raising word chains.  The chains build one
    abstract vector per lowering word in each basis and collapse it with
    every matching raising word, applying each distinct raising suffix once
    per handle; any divergence between the two engines --
    a reordered basis, a dropped central term -- shows up as a value
    mismatch even when the kernel dimensions happen to agree.
    """
    alt = TruncatedVerma(
        module.phi,
        module.coeffs,
        max_level=module.max_level,
        order=alternative_order,
        structure=alternative_structure or module.structure,
    )
    report = PbwSpotcheckReport()
    # per handle: dim V_m from its listing, one builder pass, dim M_m = dim V_m - len(R_m)
    dims, sing = [], []
    for h in (module, alt):
        dims.append([len(h.level_monomials(m)) for m in range(level_bound + 1)])
        sing.append([dim - len(r) for dim, r in zip(dims[-1], _reduced_levels(h, level_bound, "generators"))])
    report.rows = list(zip(range(level_bound + 1), *dims, *sing))

    keys = module.coefficient_keys()
    lowering = [("d", -i, key) for i in (1, 2) for key in keys]
    lowering += [("I", -i, key) for i in (1, 2) for key in keys]
    lowering_words = [(f,) for f in lowering] + [
        (f1, f2) for f1 in lowering for f2 in lowering
    ]
    raising = _raising_factors(module, level_bound, "generators")
    ops = _factor_elements(module.coeffs, lowering + raising)
    for word in lowering_words:
        level = -sum(f[1] for f in word)
        if level > min(level_bound, module.max_level):
            continue
        va = module.highest_weight_vector()
        vb = alt.highest_weight_vector()
        for fac in reversed(word):
            va = module.act(ops[fac], va)
            vb = alt.act(ops[fac], vb)
        images = {(): (va, vb)}  # raising suffix -> its images of (va, vb), each applied once
        for rword in _raising_words(raising, level):
            for i in range(len(rword) - 1, -1, -1):
                suffix = rword[i:]
                if suffix not in images:
                    wa, wb = images[suffix[1:]]
                    op = ops[suffix[0]]
                    images[suffix] = (module.act(op, wa), alt.act(op, wb))
            wa, wb = images[rword]
            report.values_compared += 1
            if wa.coeff(()) != wb.coeff(()):
                report.value_mismatches.append((word, rword))
    return report
