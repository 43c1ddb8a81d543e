"""Config-driven command-line surface.

One JSON config per run; exact rationals travel as strings so no float
parsing ever happens.  Reports print to stdout as JSON (default) or TSV,
byte-identical across repeated runs of the same config.  Exit status, a
test oracle: 0 verified (or a report produced), 1 a verification failed, 2 a
config error, with one line that leads with the field's full path (``config
error: module.right.drop_line: must be an integer``), 3 an internal error (a
crash inside hvkit), with one ``internal error: <Type>: <message>`` line.

Commands: check-axioms, weights, probe-irreducible, singular-vectors,
hc-suite, invariants, annihilator, jacobi-sweep.  Each is one row of
``_COMMANDS``: its fields, its bounds with their defaults and least values,
and its runner.  Any other field exits 2 before a module is built, and a
bound below its least value exits 2 naming ``bounds.<name>``.  A module
descriptor is read by its family's row of ``modules._FAMILIES``, and every
object is checked by ``modules.object_field``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import jacobi_antisymmetry_sweep
from .analysis import (
    annihilator_probe,
    axiom_sweep,
    hc_criterion_suite,
    omega_invariants,
    probe_irreducible,
    singular_vectors,
    weight_table,
)
from .errors import HvkitError, ConfigurationError
from .modules import (
    TruncatedVerma,
    int_field,
    list_field,
    module_from_descriptor,
    object_field,
    scalar_field,
)
from .polys import PolyB
from .scalars import render_scalar


def _fail(field: str, why: str):
    raise ConfigurationError(f"{field}: {why}")


def _bound(bounds: dict, name: str, default: int, least: int | None) -> int:
    """``bounds[name]`` (``default`` when absent): an integer, at least ``least`` unless that is None."""
    value = int_field(bounds.get(name, default), f"bounds.{name}")
    if least is not None and value < least:
        _fail(f"bounds.{name}", f"must be >= {least}")
    return value


def _parse_term(entry, path: str, k: int) -> tuple:
    object_field(entry, path, optional=("exp", "coeff"))
    exp = list_field(entry.get("exp", []), f"{path}.exp", int_field)
    if len(exp) != k:
        _fail(f"{path}.exp", f"expected {k} entries")
    if min(exp, default=0) < 0:
        _fail(f"{path}.exp", "entries must be >= 0")
    return exp, scalar_field(entry.get("coeff", "1"), f"{path}.coeff")


def _parse_poly(data, field: str, k: int) -> PolyB:
    """A polynomial in the module's ``k`` variables; terms with the same ``exp`` add."""
    object_field(data, field, ("terms",), ("k",))
    if "k" in data and int_field(data["k"], f"{field}.k") != k:
        _fail(f"{field}.k", f"must be {k}, the module's variable count")
    terms = list_field(data["terms"], f"{field}.terms", lambda t, at: _parse_term(t, at, k))
    return sum((PolyB(k, {exp: c}) for exp, c in terms), PolyB.zero(k))


# Each runner takes (config, module, bounds read from its row, seed) and
# returns (passed, report fields).  It calls its driver through this
# module's global name, so a tracer that swaps the name sees the call.


def _check_axioms(config, module, bounds, seed):
    report = axiom_sweep(
        module,
        index_bound=bounds["index"],
        monomial_bound=bounds["monomial"],
        window=bounds["window"],
        order_seed=seed,
    )
    return report.clean, report.summary()


_WEIGHT_COLUMNS = ("d0", "I0", "C", "CI", "CD", "dimension")


def _weights(config, module, bounds, seed):
    rows = sorted(weight_table(module, window=bounds["window"]).items(), key=lambda item: item[0].sort_key())
    return True, {"weights": [dict(zip(_WEIGHT_COLUMNS, (*wt.render(), dim))) for wt, dim in rows]}


def _probe_irreducible(config, module, bounds, seed):
    return True, probe_irreducible(module, window=bounds["window"], operator_bound=bounds["operator"]).summary()


def _singular_vectors(config, module, bounds, seed):
    if not isinstance(module, TruncatedVerma):
        _fail("module.family", "singular-vectors needs a verma module")
    if bounds["level"] > module.max_level:
        _fail("bounds.level", f"must be <= {module.max_level}, the module's max_level")
    raising = config.get("raising", "generators")
    if raising not in ("generators", "full"):
        _fail("raising", "must be 'generators' or 'full'")
    vectors = singular_vectors(module, bounds["level"], raising)
    return True, {
        "level": bounds["level"],
        "raising": raising,
        "dimension": len(vectors),
        "vectors": sorted(v.render(module.coeffs) for v in vectors),
    }


def _hc_suite(config, module, bounds, seed):
    if not isinstance(module, TruncatedVerma):
        _fail("module.family", "hc-suite needs a verma module")
    if module.max_level < 2:
        _fail("module.max_level", "must be >= 2 for hc-suite (its identities act at level 2)")
    f = _parse_poly(config["f"], "f", module.algebra().k)
    report = hc_criterion_suite(module, f, singular_depth=bounds["level"])
    if report.phi_kills_ideal and not report.singular_checks:
        _fail("bounds.level", "must be >= 1 when the functional kills the ideal, or no vector is checked")
    return report.passed, report.summary()


def _invariants(config, module, bounds, seed):
    lam, alpha, mu, beta = omega_invariants(module)
    return True, {
        "lambda": render_scalar(lam),
        "alpha": render_scalar(alpha),
        "mu": [render_scalar(m) for m in mu],
        "beta": render_scalar(beta),
    }


def _annihilator(config, module, bounds, seed):
    polys = list_field(config["generators"], "generators", lambda g, at: _parse_poly(g, at, module.algebra().k))
    if not polys:
        _fail("generators", "must not be empty")
    return True, annihilator_probe(module, polys, window=bounds["window"], index_bound=bounds["index"]).summary()


def _jacobi_sweep(config, module, bounds, seed):
    report = jacobi_antisymmetry_sweep(bounds["index"], bounds["monomial"], bounds["k"])
    return report.clean, {
        "pairs_checked": report.pairs_checked,
        "triples_checked": report.triples_checked,
        "jacobi_violations": len(report.jacobi_violations),
        "antisymmetry_violations": len(report.antisymmetry_violations),
        "centrality_violations": len(report.centrality_violations),
    }


# The config schema: for each command, the top-level fields it requires
# besides "command", the ones it accepts besides "bounds" (which every
# command accepts), its bounds as name: (default, least value or None), and
# its runner.  A default may be a function of the module.  Any other field
# is refused.
_COMMANDS = {
    "check-axioms": (
        ("module",),
        (),
        {"index": (5, None), "monomial": (2, 0), "window": (lambda module: module.default_window, 0)},
        _check_axioms,
    ),
    "weights": (("module",), (), {"window": (4, 0)}, _weights),
    "probe-irreducible": (("module",), (), {"window": (4, 1), "operator": (3, 1)}, _probe_irreducible),
    "singular-vectors": (("module",), ("raising",), {"level": (2, 0)}, _singular_vectors),
    "hc-suite": (("module", "f"), (), {"level": (4, 0)}, _hc_suite),
    "invariants": (("module",), (), {}, _invariants),
    "annihilator": (("module", "generators"), (), {"window": (2, 0), "index": (2, 0)}, _annihilator),
    "jacobi-sweep": ((), (), {"index": (6, 0), "monomial": (2, 0), "k": (2, 0)}, _jacobi_sweep),
}


def run_config(config: dict, out_format: str = "json", seed: int | None = None):
    """Execute one config; returns (exit_code, report_text)."""
    command = object_field(config, "config", optional=config).get("command")  # its row checks the fields
    if not isinstance(command, str) or command not in _COMMANDS:
        _fail("command", f"must be one of {', '.join(_COMMANDS)}")
    required, optional, bound_row, run = _COMMANDS[command]
    object_field(config, "", ("command", *required), ("bounds", *optional))
    bounds = object_field(config.get("bounds", {}), "bounds", optional=bound_row)
    payload: dict = {"command": command}
    module = None
    if "module" in required:
        module = module_from_descriptor(config["module"])
        payload["module"] = module.describe()
    values = {
        name: _bound(bounds, name, default(module) if callable(default) else default, least)
        for name, (default, least) in bound_row.items()
    }
    passed, fields = run(config, module, values, seed)
    payload.update(fields)
    return (0 if passed else 1), _render(payload, out_format)


def _flatten(prefix: str, value, lines: list):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], lines)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append(f"{prefix}\t{value}")


def _render(payload: dict, out_format: str) -> str:
    if out_format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if payload["command"] == "weights":  # a table, not the flattened payload
        lines = [_WEIGHT_COLUMNS, *([str(row[c]) for c in _WEIGHT_COLUMNS] for row in payload["weights"])]
        return "\n".join("\t".join(line) for line in lines) + "\n"
    lines = []
    _flatten("", payload, lines)
    return "\n".join(lines) + "\n"


def _object(pairs) -> dict:
    """A JSON object as a dict; a repeated key is refused (ValueError), not read as its last value."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hvkit",
        description="Exact checks for the Heisenberg-Virasoro map algebra and its modules.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", choices=("json", "tsv"), default="json")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="shuffle sweep sampling order (results are order-independent)",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh, object_pairs_hook=_object)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a repeated key, huge integers, deep nesting
        message = " ".join(str(exc).split())
        print(f"config error: cannot read {args.config}: {message}", file=sys.stderr)
        return 2
    try:
        code, text = run_config(config, args.out, args.seed)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HvkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect in hvkit, not a verdict on the input
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
