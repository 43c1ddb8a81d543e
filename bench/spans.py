"""Layer spans recorded from outside the package.

The tracer wraps the public functions and methods of each hvkit layer
(``scalars``, ``polys``, ``algebra``, ``modules``, ``analysis``, ``linalg``,
``cli``) with timing wrappers that live here, so nothing inside
``src/hvkit`` is instrumented.  Wrappers are installed for traced passes
and removed again for untraced ones.

Every wrapped call is a span with a parent (the innermost enclosing span).
A span's self time is its duration minus the time its child spans cover,
so per-layer self times add up to the traced wall time spent inside the
package.  Spans are aggregated in memory by name (calls, inclusive time,
self time) rather than kept one record each: a pass makes millions of
scalar calls.

Scalar arithmetic runs at a few microseconds per call, so its wrappers are
a cheaper fast path: they count and time each call and charge the time to
the enclosing span's children, but keep no span name of their own.  The
wrapper cost that falls outside the timed region (about a tenth of a
scalar call) is charged to the caller's layer; ``trace.overhead_ratio``
reports the total distortion.
"""

from __future__ import annotations

import time

_now = time.perf_counter_ns

SCALAR_OPS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "add",
    "__rsub__": "add",
    "__neg__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
}

# (layer, module attribute name, function name) of traced module-level functions
FUNCTIONS = [
    ("polys", "polys", "jet_expand"),
    ("algebra", "algebra", "bracket"),
    ("algebra", "algebra", "jacobi_check"),
    ("algebra", "algebra", "jacobi_antisymmetry_sweep"),
    ("modules", "modules", "module_from_descriptor"),
    ("analysis", "analysis", "axiom_sweep"),
    ("analysis", "analysis", "weight_table"),
    ("analysis", "analysis", "probe_irreducible"),
    ("analysis", "analysis", "singular_vectors"),
    ("analysis", "analysis", "in_maximal_submodule"),
    ("analysis", "analysis", "hc_criterion_suite"),
    ("analysis", "analysis", "omega_invariants"),
    ("analysis", "analysis", "annihilator_probe"),
    ("analysis", "analysis", "pbw_order_spotcheck"),
    ("linalg", "linalg", "row_reduce"),
    ("linalg", "linalg", "rank"),
    ("linalg", "linalg", "nullspace"),
    ("cli", "cli", "run_config"),
]

# (layer, module attribute name, class name, method names) of traced methods
METHODS = [
    ("polys", "polys", "PolyT", ("shift", "__add__", "__mul__", "__rmul__")),
    ("polys", "polys", "PolyB", ("__add__", "__mul__", "__rmul__")),
    ("modules", "modules", "IntermediateSeries", ("act",)),
    ("modules", "modules", "OmegaModule", ("act",)),
    ("modules", "modules", "EvaluationModule", ("act", "translate")),
    ("modules", "modules", "TruncatedVerma", ("act",)),
    ("modules", "modules", "TensorModule", ("act",)),
]

FAMILIES = ("intermediate", "omega", "evaluation", "verma", "tensor")
DRIVERS = tuple(name for layer, _m, name in FUNCTIONS if layer == "analysis")
LAYERS = ("scalars", "polys", "algebra", "modules", "analysis", "linalg", "cli")


class SpanStats:
    """Aggregate of one span name."""

    __slots__ = ("layer", "calls", "incl_ns", "self_ns", "depth")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.incl_ns = 0  # outermost calls only, so recursion is not double counted
        self.self_ns = 0
        self.depth = 0


class Tracer:
    """Installs span wrappers on an imported hvkit and aggregates what they see."""

    def __init__(self, hv):
        self.hv = hv
        self.stats: dict[str, SpanStats] = {}
        # each frame: [span name, child time in ns]
        self.stack: list = [["<root>", 0]]
        self.scalar_calls = {"add": 0, "mul": 0, "div": 0}
        self.scalar_gaussian = 0
        self.scalar_ns = 0
        self._in_scalar = False
        self.words = 0
        self.level_dim = 0
        self.linalg_rows = 0
        self.linalg_cols = 0
        self.linalg_pivots = 0
        self.handles: list = []  # module handles built during a traced pass
        self._saved: list = []  # (owner, attribute, original)

    # -- span bookkeeping ---------------------------------------------------

    def _stat(self, name: str, layer: str) -> SpanStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats(layer)
        return st

    def _span(self, name: str, layer: str, fn, after=None):
        st = self._stat(name, layer)
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            st.depth += 1
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_ns += dur - frame[1]
                if not st.depth:
                    st.incl_ns += dur
                stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar(self, kind: str, fn):
        calls = self.scalar_calls
        stack = self.stack
        tracer = self

        def wrapper(a, b=None):
            calls[kind] += 1
            if a.im or (b is not None and getattr(b, "im", 0)):
                tracer.scalar_gaussian += 1
            if tracer._in_scalar:
                return fn(a) if b is None else fn(a, b)
            tracer._in_scalar = True
            t0 = _now()
            try:
                return fn(a) if b is None else fn(a, b)
            finally:
                dur = _now() - t0
                tracer._in_scalar = False
                tracer.scalar_ns += dur
                stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at layer boundaries ---------------------------------

    def _after_singular(self, args, kwargs, result):
        module, level = args[0], args[1]
        raising = args[2] if len(args) > 2 else kwargs.get("raising", "generators")
        self.words += raising_word_count(len(module.coefficient_keys()), level, raising)
        self.level_dim += module.level_dimension(level)

    def _after_nullspace(self, args, kwargs, result):
        rows, ncols = args[0], args[1]
        self.linalg_rows += len(rows)
        self.linalg_cols += ncols
        self.linalg_pivots += ncols - len(result)

    def _after_descriptor(self, args, kwargs, result):
        self.handles.append(result)

    # -- install / remove ---------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Point every hvkit module attribute bound to `original` at `wrapper`.

        Modules import each other's functions by name (``from .linalg import
        nullspace``), so the function must be swapped in each namespace.
        """
        for mod in self.hv.all_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        hv = self.hv
        after = {
            "singular_vectors": self._after_singular,
            "nullspace": self._after_nullspace,
            "module_from_descriptor": self._after_descriptor,
        }
        for layer, modname, fname in FUNCTIONS:
            original = getattr(getattr(hv, modname), fname)
            wrapper = self._span(f"{layer}.{fname}", layer, original, after.get(fname))
            self._replace_everywhere(original, wrapper)
        for layer, modname, cname, methods in METHODS:
            cls = getattr(getattr(hv, modname), cname)
            for meth in methods:
                original = vars(cls)[meth]
                family = getattr(cls, "family", cname)
                name = f"{layer}.{family}.{meth}" if layer == "modules" else f"{layer}.{cname}.{meth}"
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._span(name, layer, original))
        scalar_cls = hv.scalars.Scalar
        for meth, kind in SCALAR_OPS.items():
            original = vars(scalar_cls)[meth]
            self._saved.append((scalar_cls, meth, original))
            setattr(scalar_cls, meth, self._scalar(kind, original))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- read-out -----------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for st in self.stats.values():
            out[st.layer] += st.self_ns / 1e9
        out["scalars"] += self.scalar_ns / 1e9
        return out

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_ns / 1e9 if st else 0.0

    def incl_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.incl_ns / 1e9 if st else 0.0

    def table(self) -> list:
        """Per-span rows (name, calls, inclusive s, self s), busiest first."""
        rows = [
            (name, st.calls, st.incl_ns / 1e9, st.self_ns / 1e9)
            for name, st in self.stats.items()
            if st.calls
        ]
        rows.append(("scalars.<arithmetic>", sum(self.scalar_calls.values()),
                     self.scalar_ns / 1e9, self.scalar_ns / 1e9))
        rows.sort(key=lambda row: -row[3])
        return rows


def raising_word_count(nkeys: int, level: int, raising: str) -> int:
    """Number of ordered raising words of total degree `level`.

    Mirrors the word set ``singular_vectors`` enumerates: generators mode
    uses d_1, I_1, d_2 and full mode d_i, I_i for 1 <= i <= level, each
    decorated by every coefficient key.  Counted by recursion on the last
    factor, so the tracer never enumerates the words itself.
    """
    if raising == "generators":
        per_degree = {1: 2 * nkeys, 2: nkeys}
    else:
        per_degree = {i: 2 * nkeys for i in range(1, level + 1)}
    ways = [1] + [0] * level
    for n in range(1, level + 1):
        ways[n] = sum(c * ways[n - deg] for deg, c in per_degree.items() if deg <= n)
    return ways[level]
