"""The four benchmark workloads.

A workload is a list of operations built from the seed at set-up, as plain
Python data: no hvkit object exists until a pass runs.  A pass runs every
operation once, building fresh module handles, so every pass starts with
the cold per-handle caches a real CLI run starts with; there is no warm-up
pass.  The seed chooses parameter values (each slot picks one of a fixed
list of variants made of small-height rationals) and the operation order.
It never changes how much work a pass does: families, bounds, levels and
counts are fixed.

Every operation's outcome is checked.  Outcomes that the package computes
(sweep counts, slice dimensions, CLI exit codes and stdout digests) are
compared with ``golden.json``, which holds the outcome of every variant of
every slot; bracket-law checks on seeded elements are checked directly.

Each operation yields ``(outcome, units)``: ``outcome`` is compared with the
golden entry under the operation's key, ``units`` counts the work done in
the workload's own units (triples, brackets, level dimensions, configs).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from cli_corpus import SLOTS, TINY_SLOTS

# ---------------------------------------------------------------------------
# value pools
# ---------------------------------------------------------------------------

# nonzero small-height rationals for coefficients and functional values
REALS = ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "1/3", "-2/3", "3/2", "-3/4", "2/5")
GAUSSIAN_IM = ("1/3", "-1/2", "1", "2/3")


def gaussian(re: str, im: str) -> str:
    """A Gaussian value in the package's scalar grammar, e.g. '1/2-1/3*i'."""
    return f"{re}{im if im.startswith('-') else '+' + im}*i"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def normalise(outcome):
    """Round-trip through JSON so tuples compare equal to recorded lists."""
    return json.loads(json.dumps(outcome))


class Context:
    """Per-run knobs: mutation hooks (used only by the self-test) and handle capture."""

    def __init__(self, hv, seed: int, workdir: str | None = None,
                 structure=None, omega_cls=None):
        self.hv = hv
        self.seed = seed
        self.workdir = workdir
        self.structure = structure or hv.algebra.hv_structure
        self.omega_cls = omega_cls or hv.modules.OmegaModule
        self.handles: list | None = None  # set to a list to capture module handles

    def keep(self, handle):
        if self.handles is not None:
            self.handles.append(handle)
        return handle

    def scalar(self, text: str):
        return self.hv.scalars.parse_scalar(text)


class Op:
    """One operation: a golden key, a phase name, and how to run it."""

    __slots__ = ("key", "phase", "label", "run", "golden")

    def __init__(self, key: str, phase: str, label: str, run, golden: bool = True):
        self.key = key
        self.phase = phase
        self.label = label
        self.run = run  # callable(ctx) -> (outcome, units)
        self.golden = golden


# ---------------------------------------------------------------------------
# lie-sweep
# ---------------------------------------------------------------------------

# (index bound, monomial bound, k): criterion-1 shape, sized to seconds
LIE_SWEEPS = ((2, 2, 2), (3, 2, 1), (1, 2, 2), (3, 1, 1))
LIE_TRIPLES_PER_ALGEBRA = 30
LIE_TERMS = 4
LIE_INDEX = 3


def _lie_sweep_op(bounds):
    def run(ctx):
        rep = ctx.hv.algebra.jacobi_antisymmetry_sweep(*bounds, structure=ctx.structure)
        outcome = {
            "pairs": rep.pairs_checked,
            "triples": rep.triples_checked,
            "clean": rep.clean,
        }
        return outcome, {"triples": rep.triples_checked}

    key = canonical({"sweep": list(bounds)})
    return Op(key, "sweep", f"sweep{bounds}", run)


def _lie_algebra(ctx, spec):
    A, P = ctx.hv.algebra, ctx.hv.polys
    if spec["kind"] == "poly":
        return A.PolynomialCoefficients(2)
    return A.QuotientCoefficients(
        P.JetQuotient(tuple(ctx.scalar(x) for x in point), 2) for point in spec["points"]
    )


def _lie_element(ctx, coeffs, terms):
    A = ctx.hv.algebra
    return A.AlgebraElement(
        coeffs,
        {(A.Generator(kind, idx), key): ctx.scalar(c) for kind, idx, key, c in terms},
    )


def _lie_element_op(spec, triple, n):
    def run(ctx):
        A = ctx.hv.algebra
        coeffs = _lie_algebra(ctx, spec)
        x, y, z = (_lie_element(ctx, coeffs, terms) for terms in triple)
        jac = A.jacobi_check(x, y, z, ctx.structure)
        anti = A.bracket(x, y, ctx.structure) + A.bracket(y, x, ctx.structure)
        return {"jacobi_zero": jac.is_zero, "antisymmetric": anti.is_zero}, {"brackets": 8}

    return Op(f"jacobi {spec['kind']} #{n}", "element", f"jacobi-{spec['kind']}-{n}",
              run, golden=False)


def _lie_keys(spec):
    if spec["kind"] == "poly":
        return [(a, b) for total in range(3) for a in range(total + 1) for b in [total - a]]
    return [(i, r) for i in range(2) for r in ((0, 0), (1, 0), (0, 1))]


# coefficients of seeded elements: one height class, so every seed costs the same
LIE_COEFFS = ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3")


def plan_lie(rng: random.Random, tiny: bool) -> list:
    """Seeded element triples, then the sweeps.

    Which generators, keys and Gaussian slots the elements have is fixed
    (drawn once with a fixed seed); the run seed draws the coefficient
    values, the jet points and the order.
    """
    a, b, c, d = rng.sample(REALS, 4)  # distinct, so the two jet points differ
    specs = [{"kind": "poly"}, {"kind": "jet", "points": [[a, b], [c, d]]}]
    gens = [("d", n) for n in range(-LIE_INDEX, LIE_INDEX + 1)]
    gens += [("I", n) for n in range(-LIE_INDEX, LIE_INDEX + 1)]
    gens += [("C", 0), ("CD", 0), ("CI", 0)]
    shape = random.Random("hvkit-bench-lie-elements")
    count = 3 if tiny else LIE_TRIPLES_PER_ALGEBRA
    ops = []
    for spec in specs:
        keys = _lie_keys(spec)
        for n in range(count):
            triple = []
            for _ in range(3):
                terms = []
                for kind, idx in shape.sample(gens, LIE_TERMS):
                    key = keys[shape.randrange(len(keys))]
                    value = rng.choice(LIE_COEFFS)
                    if shape.random() < 0.25:
                        value = gaussian(value, rng.choice(LIE_COEFFS))
                    terms.append((kind, idx, key, value))
                triple.append(terms)
            ops.append(_lie_element_op(spec, triple, n))
    sweeps = [_lie_sweep_op(bounds) for bounds in ([(3, 1, 1)] if tiny else LIE_SWEEPS)]
    # each phase runs as a block, so element checks never start on a heap and
    # cache state left by a large sweep; the seed orders ops within a phase
    rng.shuffle(ops)
    rng.shuffle(sweeps)
    return ops + sweeps


def check_lie(outcome) -> bool:
    return bool(outcome["jacobi_zero"] and outcome["antisymmetric"])


# ---------------------------------------------------------------------------
# axiom-sweep
# ---------------------------------------------------------------------------

# (index bound, monomial bound, window) per piece: criterion-2 shape, sized to seconds
AXIOM_BOUNDS = {
    "intermediate": (3, 0, 3),
    "omega": (2, 1, 1),
    "evaluation1": (3, 1, 3),
    "evaluation2": (2, 1, 1),
    "verma6": (2, 1, 2),
    "tensor": (1, 1, 1),
}

# Criterion-2 grids; each slot lists the variants the seed picks from.  The
# variants of one slot differ only in sign, so that every seed costs the same:
# a zero F, beta or mu removes whole actions, and larger numerators and
# denominators slow exact arithmetic.
_INTERMEDIATE_SLOTS = [
    (sorted({a, str(-Fraction(a))}), b, ["0"] if f == "0" else ["1", "-1"])
    for a in ("0", "1", "1/2")
    for b in ("0", "1", "2")
    for f in ("0", "1")
]
_OMEGA_SLOTS = [
    (["1", "-1"] if lam == "1" else ["2", "-2"],
     ["0"] if al == "0" else ["1", "-1"],
     ["0"] if mu == "0" else ["3", "-3"],
     ["0"] if be == "0" else ["1", "-1"])
    for lam in ("1", "2")
    for al in ("0", "1")
    for mu in ("0", "3")
    for be in ("0", "1")
]
_PHI_SCALES = ("1", "-1")
_EVAL1_POINTS = ("2", "-2")
_EVAL1_INNER = (("1/2", "0", "1"), ("-1/2", "0", "1"))
_JET_POINTS = ("0",)
_TENSOR_POINTS = (("0", "1"), ("0", "-1"))


def _variants(*choices) -> list:
    out = [[]]
    for options in choices:
        out = [prev + [o] for prev in out for o in options]
    return out


def axiom_slots() -> list:
    """[(piece, [params variant, ...]), ...] for every slot of a pass."""
    slots = []
    for alphas, beta, fs in _INTERMEDIATE_SLOTS:
        slots.append(("intermediate", _variants(alphas, [beta], fs)))
    for lams, alphas, mus, betas in _OMEGA_SLOTS:
        slots.append(("omega", _variants(lams, alphas, mus, betas)))
    slots.append(("evaluation1", _variants(_EVAL1_POINTS, [list(t) for t in _EVAL1_INNER])))
    slots.append(("evaluation2", _variants(_JET_POINTS, _PHI_SCALES)))
    slots.append(("verma6", _variants(_PHI_SCALES)))
    slots.append(("tensor", _variants([list(t) for t in _TENSOR_POINTS], _PHI_SCALES)))
    return slots


def _phi_full(ctx, qc, scale: str):
    """Criterion 2's functional: value k/2 on the k-th (slot, key), times a scale."""
    s = Fraction(scale)
    values = {}
    n = 1
    for key in qc.basis_keys():
        for slot in ("d0", "I0", "C", "C_D", "C_I"):
            values[(slot, key)] = ctx.hv.scalars.Scalar(Fraction(n, 2) * s)
            n += 1
    return ctx.hv.modules.HighestWeightFunctional(values)


def _jet_verma(ctx, point: str, scale: str, max_level: int):
    A, M, P = ctx.hv.algebra, ctx.hv.modules, ctx.hv.polys
    q = P.JetQuotient((ctx.scalar(point),), 2)
    qc = A.QuotientCoefficients((q,))
    verma = ctx.keep(M.TruncatedVerma(_phi_full(ctx, qc, scale), qc, max_level=max_level,
                                      structure=ctx.structure))
    return q, verma


def build_axiom_module(ctx, piece: str, params):
    M, P = ctx.hv.modules, ctx.hv.polys
    S = ctx.scalar
    if piece == "intermediate":
        return ctx.keep(M.IntermediateSeries(*(S(x) for x in params)))
    if piece == "omega":
        lam, alpha, mu, beta = params
        return ctx.keep(ctx.omega_cls(S(lam), S(alpha), (S(mu),), S(beta)))
    if piece == "evaluation1":
        point, inner = params
        inner_module = ctx.keep(M.IntermediateSeries(*(S(x) for x in inner)))
        return ctx.keep(M.EvaluationModule(P.JetQuotient((S(point),), 1), inner_module))
    if piece == "evaluation2":
        point, scale = params
        q, verma = _jet_verma(ctx, point, scale, 12)
        return ctx.keep(M.EvaluationModule(q, verma))
    if piece == "verma6":
        (scale,) = params
        return _jet_verma(ctx, "0", scale, 6)[1]
    if piece == "tensor":
        (left, right), scale = params
        qL, vL = _jet_verma(ctx, left, scale, 11)
        qR, vR = _jet_verma(ctx, right, scale, 11)
        return ctx.keep(M.TensorModule(ctx.keep(M.EvaluationModule(qL, vL)),
                                       ctx.keep(M.EvaluationModule(qR, vR))))
    raise ValueError(f"unknown piece {piece!r}")


def _axiom_op(piece: str, params, order_seed: int):
    index_bound, monomial_bound, window = AXIOM_BOUNDS[piece]

    def run(ctx):
        module = build_axiom_module(ctx, piece, params)
        rep = ctx.hv.analysis.axiom_sweep(module, index_bound, monomial_bound, window,
                                          order_seed=order_seed)
        outcome = {
            "triples": rep.triples_checked,
            "inconclusive": len(rep.inconclusive),
            "violations": rep.violations_found,
        }
        return outcome, {"triples": rep.triples_checked}

    key = canonical({"piece": piece, "params": params, "bounds": [index_bound, monomial_bound, window]})
    return Op(key, "sweep", f"{piece}{tuple(params)}", run)


# the tiny plan keeps an Omega slot with lambda != 1, so a lambda-exponent bug shows
_AXIOM_TINY = (0, 5, 18 + 8, 34)


def plan_axiom(rng: random.Random, tiny: bool) -> list:
    slots = axiom_slots()
    if tiny:
        slots = [slots[i] for i in _AXIOM_TINY]
    ops = []
    for piece, variants in slots:
        params = variants[rng.randrange(len(variants))]
        ops.append(_axiom_op(piece, params, rng.randrange(1 << 30)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verma-kernel
# ---------------------------------------------------------------------------

_SLOTS = ("d0", "I0", "C", "C_D", "C_I")
_NKEYS = 3  # functionals are given on up to three coefficient keys (B/m^3)
VERMA_VARIANTS = 3


def _functional_variants(kind: str) -> list:
    """Fixed variant lists, drawn once from the value pools with a fixed seed."""
    rng = random.Random(f"hvkit-bench-functional-{kind}")
    out = []
    for _ in range(VERMA_VARIANTS):
        values = {}
        for slot in _SLOTS:
            for key in range(_NKEYS):
                if kind == "degenerate" and slot in ("I0", "C_D", "C_I"):
                    continue  # the Heisenberg part vanishes: I_{-1}.hw is singular
                v = rng.choice(REALS)
                if kind == "gaussian" and slot in ("d0", "C_D") and key == 0:
                    v = gaussian(v, rng.choice(GAUSSIAN_IM))
                values[f"{slot}@{key}"] = v
        out.append(values)
    return out


FUNCTIONALS = {kind: _functional_variants(kind) for kind in ("generic", "gaussian", "degenerate")}

# (coefficient algebra, raising mode, levels): trivial B, C[b]/(b^2)
VERMA_SLICES = (
    ("trivial", "generators", (1, 2, 3, 4)),
    ("trivial", "full", (1, 2, 3)),
    ("b2", "generators", (1, 2, 3)),
)
HC_POLYS = ((0,), (1,), (2,))  # f = 1, b, b^2 over B/m^3
HC_DEPTH = 4
PBW_LEVEL = 3


def _verma_coeffs(ctx, algebra: str):
    A, P = ctx.hv.algebra, ctx.hv.polys
    if algebra == "trivial":
        return A.PolynomialCoefficients(0)
    order = {"b2": 2, "m3": 3}[algebra]
    return A.QuotientCoefficients((P.JetQuotient((ctx.hv.scalars.ZERO,), order),))


def _verma_module(ctx, algebra: str, values: dict, max_level: int):
    coeffs = _verma_coeffs(ctx, algebra)
    keys = [()] if algebra == "trivial" else coeffs.basis_keys()
    phi = {}
    for name, v in values.items():
        slot, idx = name.split("@")
        if int(idx) < len(keys):
            phi[(slot, keys[int(idx)])] = ctx.scalar(v)
    M = ctx.hv.modules
    return ctx.keep(M.TruncatedVerma(M.HighestWeightFunctional(phi), coeffs,
                                     max_level=max_level, structure=ctx.structure))


def _singular_op(kind, values, algebra, raising, level):
    def run(ctx):
        module = _verma_module(ctx, algebra, values, max(level, 1))
        vectors = ctx.hv.analysis.singular_vectors(module, level, raising)
        dim = module.level_dimension(level)
        return {"kernel_dim": len(vectors)}, {"dims": dim}

    key = canonical({"op": "singular", "B": algebra, "raising": raising, "level": level,
                     "phi": values})
    return Op(key, "kernel", f"singular-{kind}-{algebra}-{raising}-L{level}", run)


def _hc_op(kind, values, exps):
    def run(ctx):
        module = _verma_module(ctx, "m3", values, HC_DEPTH)
        f = ctx.hv.polys.PolyB.monomial(exps)
        rep = ctx.hv.analysis.hc_criterion_suite(module, f, singular_depth=HC_DEPTH)
        outcome = {
            "passed": rep.passed,
            "kills": rep.phi_kills_ideal,
            "singular_checks": len(rep.singular_checks),
        }
        return outcome, {"dims": 0}

    key = canonical({"op": "hc-suite", "B": "m3", "f": list(exps), "phi": values})
    return Op(key, "kernel", f"hc-{kind}-b^{exps[0]}", run)


def _pbw_op(kind, values):
    def run(ctx):
        module = _verma_module(ctx, "trivial", values, PBW_LEVEL)
        rep = ctx.hv.analysis.pbw_order_spotcheck(module, ctx.hv.modules.PBW_I_FIRST,
                                                  level_bound=PBW_LEVEL)
        outcome = {
            "passed": rep.passed,
            "rows": [list(row) for row in rep.rows],
            "values_compared": rep.values_compared,
        }
        dims = sum(da + db for _l, da, db, _sa, _sb in rep.rows)
        return outcome, {"dims": dims}

    key = canonical({"op": "pbw", "B": "trivial", "level": PBW_LEVEL, "phi": values})
    return Op(key, "kernel", f"pbw-{kind}", run)


def verma_ops_for(kind: str, values: dict, tiny: bool) -> list:
    ops = []
    for algebra, raising, levels in VERMA_SLICES:
        if tiny and (algebra != "trivial" or raising != "generators"):
            continue
        for level in levels[:3] if tiny else levels:
            ops.append(_singular_op(kind, values, algebra, raising, level))
    for exps in HC_POLYS[:1] if tiny else HC_POLYS:
        ops.append(_hc_op(kind, values, exps))
    if not tiny:
        ops.append(_pbw_op(kind, values))
    return ops


def plan_verma(rng: random.Random, tiny: bool) -> list:
    ops = []
    for kind, variants in FUNCTIONALS.items():
        ops += verma_ops_for(kind, variants[rng.randrange(len(variants))], tiny)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-corpus
# ---------------------------------------------------------------------------


def cli_config_text(entry) -> str:
    config = entry["config"]
    return config if isinstance(config, str) else json.dumps(config, indent=1)


def _cli_op(entry, label: str):
    def run(ctx):
        argv = ["--config", os.path.join(ctx.workdir, label + ".json"), "--out", entry["out"],
                "--seed", str(ctx.seed)]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ctx.hv.cli.main(argv)
        except Exception as exc:  # a crash is an outcome to record, not a benchmark error
            code = f"crash:{type(exc).__name__}"
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        return {"exit": code, "stdout_sha256": digest}, {"configs": 1}

    return Op(canonical(entry), "config", label, run)


def plan_cli(rng: random.Random, tiny: bool) -> list:
    """One op per corpus slot; `write_cli_files` writes their config files."""
    ops = []
    for n, (name, variants) in enumerate(SLOTS):
        if tiny and name not in TINY_SLOTS:
            continue
        ops.append(_cli_op(variants[rng.randrange(len(variants))], f"{n:03d}-{name}"))
    rng.shuffle(ops)
    return ops


def write_cli_files(ops: list, workdir: str):
    for op in ops:
        with open(os.path.join(workdir, op.label + ".json"), "w", encoding="utf-8") as fh:
            fh.write(cli_config_text(json.loads(op.key)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name, plan, rates, check=None):
        self.name = name
        self.plan = plan  # (rng, tiny) -> [Op]
        # metric name -> (units key, phase or None for the whole pass); the first is work_per_s
        self.rates = rates
        self.check = check  # outcome -> bool, for ops without a golden entry


WORKLOADS = {
    "lie-sweep": Workload(
        "lie-sweep", plan_lie,
        {"lie.triples_per_s": ("triples", "sweep"), "lie.brackets_per_s": ("brackets", "element")},
        check=check_lie,
    ),
    "axiom-sweep": Workload(
        "axiom-sweep", plan_axiom, {"axiom.triples_per_s": ("triples", None)}),
    "verma-kernel": Workload(
        "verma-kernel", plan_verma, {"verma.dims_per_s": ("dims", None)}),
    "cli-corpus": Workload(
        "cli-corpus", plan_cli, {"cli.configs_per_s": ("configs", None)}),
}
