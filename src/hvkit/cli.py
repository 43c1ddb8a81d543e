"""Config-driven command-line surface.

One JSON config per run; exact rationals travel as strings so no float
parsing ever happens.  Reports print to stdout as JSON (default) or TSV,
byte-identical across repeated runs of the same config.  Exit status, a
test oracle: 0 verified (or a report produced), 1 a verification failed, 2 a
config error, with one line that leads with the field's full path (``config
error: module.right.drop_line: must be an integer``), 3 an internal error (a
crash inside hvkit), with one ``internal error: <Type>: <message>`` line.

Commands: check-axioms, weights, probe-irreducible, singular-vectors,
hc-suite, invariants, annihilator, jacobi-sweep.  Each reads only the
fields of its row in ``_COMMANDS``; any other field exits 2 before a module
is built.  A module descriptor is read by its family's row of
``modules._FAMILIES``, and every object is checked by ``modules.object_field``.
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
    EvaluationModule,
    IntermediateSeries,
    Module,
    OmegaModule,
    TruncatedVerma,
    int_field,
    list_field,
    module_from_descriptor,
    object_field,
    scalar_field,
)
from .polys import PolyB
from .scalars import render_scalar

# The config schema: for each command, the top-level fields it requires
# besides "command", the ones it accepts besides "bounds" (which every
# command accepts), and the bounds it reads.  Any other field is refused.
_COMMANDS = {
    "check-axioms": (("module",), (), ("index", "monomial", "window")),
    "weights": (("module",), (), ("window",)),
    "probe-irreducible": (("module",), (), ("window", "operator")),
    "singular-vectors": (("module",), ("raising",), ("level",)),
    "hc-suite": (("module", "f"), (), ("level",)),
    "invariants": (("module",), (), ()),
    "annihilator": (("module", "generators"), (), ("window", "index")),
    "jacobi-sweep": ((), (), ("index", "monomial", "k")),
}


def _fail(field: str, why: str):
    raise ConfigurationError(f"{field}: {why}")


def _get_int(bounds: dict, name: str, default: int) -> int:
    return int_field(bounds.get(name, default), f"bounds.{name}")


def _get_count(bounds: dict, name: str, default: int) -> int:
    value = _get_int(bounds, name, default)
    if value < 0:
        _fail(f"bounds.{name}", "must be >= 0")
    return value


def _parse_term(entry, path: str, k: int) -> tuple:
    object_field(entry, path, optional=("exp", "coeff"))
    exp = list_field(entry.get("exp", []), f"{path}.exp", int_field)
    if len(exp) != k:
        _fail(f"{path}.exp", f"expected {k} entries")
    return exp, scalar_field(entry.get("coeff", "1"), f"{path}.coeff")


def _parse_poly(data, field: str, k: int) -> PolyB:
    """A polynomial in the module's ``k`` variables."""
    object_field(data, field, ("terms",), ("k",))
    if "k" in data and int_field(data["k"], f"{field}.k") != k:
        _fail(f"{field}.k", f"must be {k}, the module's variable count")
    return PolyB(k, dict(list_field(data["terms"], f"{field}.terms", lambda t, at: _parse_term(t, at, k))))


def _default_window(module: Module) -> int:
    if isinstance(module, IntermediateSeries):
        return 8
    if isinstance(module, OmegaModule):
        return 4
    if isinstance(module, EvaluationModule):
        return 6 if isinstance(module.inner, IntermediateSeries) else 2
    if isinstance(module, TruncatedVerma):
        return 2
    return 1


def run_config(config: dict, out_format: str = "json", seed: int | None = None):
    """Execute one config; returns (exit_code, report_text)."""
    command = object_field(config, "config", optional=config).get("command")  # its row checks the fields
    if not isinstance(command, str) or command not in _COMMANDS:
        _fail("command", f"must be one of {', '.join(_COMMANDS)}")
    required, optional, bound_names = _COMMANDS[command]
    object_field(config, "", ("command", *required), ("bounds", *optional))
    bounds = object_field(config.get("bounds", {}), "bounds", optional=bound_names)

    if command == "jacobi-sweep":
        report = jacobi_antisymmetry_sweep(
            _get_count(bounds, "index", 6),
            _get_count(bounds, "monomial", 2),
            _get_count(bounds, "k", 2),
        )
        payload = {
            "command": command,
            "pairs_checked": report.pairs_checked,
            "triples_checked": report.triples_checked,
            "jacobi_violations": len(report.jacobi_violations),
            "antisymmetry_violations": len(report.antisymmetry_violations),
            "centrality_violations": len(report.centrality_violations),
        }
        return (0 if report.clean else 1), _render(payload, out_format)

    module = module_from_descriptor(config["module"])
    payload: dict = {"command": command, "module": module.describe()}

    if command == "check-axioms":
        report = axiom_sweep(
            module,
            index_bound=_get_int(bounds, "index", 5),
            monomial_bound=_get_count(bounds, "monomial", 2),
            window=_get_count(bounds, "window", _default_window(module)),
            order_seed=seed,
        )
        payload.update(report.summary())
        return (0 if report.clean else 1), _render(payload, out_format)

    if command == "weights":
        table = weight_table(module, window=_get_count(bounds, "window", 4))
        rows = sorted(table.items(), key=lambda item: item[0].sort_key())
        if out_format == "tsv":
            lines = ["d0\tI0\tC\tCI\tCD\tdimension"]
            for wt, dim in rows:
                lines.append("\t".join(list(wt.render()) + [str(dim)]))
            return 0, "\n".join(lines) + "\n"
        payload["weights"] = [
            {
                "d0": render_scalar(wt.d0),
                "I0": render_scalar(wt.I0),
                "C": render_scalar(wt.C),
                "CI": render_scalar(wt.CI),
                "CD": render_scalar(wt.CD),
                "dimension": dim,
            }
            for wt, dim in rows
        ]
        return 0, _render(payload, out_format)

    if command == "probe-irreducible":
        report = probe_irreducible(
            module,
            window=_get_int(bounds, "window", 4),
            operator_bound=_get_int(bounds, "operator", 3),
        )
        payload.update(report.summary())
        return 0, _render(payload, out_format)

    if command == "singular-vectors":
        if not isinstance(module, TruncatedVerma):
            _fail("module.family", "singular-vectors needs a verma module")
        raising = config.get("raising", "generators")
        if raising not in ("generators", "full"):
            _fail("raising", "must be 'generators' or 'full'")
        level = _get_int(bounds, "level", 2)
        vectors = singular_vectors(module, level, raising)
        payload.update(
            {
                "level": level,
                "raising": raising,
                "dimension": len(vectors),
                "vectors": sorted(v.render(module.coeffs) for v in vectors),
            }
        )
        return 0, _render(payload, out_format)

    if command == "hc-suite":
        if not isinstance(module, TruncatedVerma):
            _fail("module.family", "hc-suite needs a verma module")
        f = _parse_poly(config["f"], "f", module.algebra().k)
        report = hc_criterion_suite(module, f, singular_depth=_get_count(bounds, "level", 4))
        if report.phi_kills_ideal and not report.singular_checks:
            _fail("bounds.level", "must be >= 1 when the functional kills the ideal, or no vector is checked")
        payload.update(report.summary())
        return (0 if report.passed else 1), _render(payload, out_format)

    if command == "invariants":
        lam, alpha, mu, beta = omega_invariants(module)
        payload.update(
            {
                "lambda": render_scalar(lam),
                "alpha": render_scalar(alpha),
                "mu": [render_scalar(m) for m in mu],
                "beta": render_scalar(beta),
            }
        )
        return 0, _render(payload, out_format)

    if command == "annihilator":
        polys = list_field(config["generators"], "generators", lambda g, at: _parse_poly(g, at, module.algebra().k))
        if not polys:
            _fail("generators", "must not be empty")
        report = annihilator_probe(
            module,
            polys,
            window=_get_count(bounds, "window", 2),
            index_bound=_get_count(bounds, "index", 2),
        )
        payload.update(report.summary())
        return 0, _render(payload, out_format)

    raise AssertionError(f"unhandled command {command}")  # pragma: no cover


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
    if out_format == "tsv":
        lines: list = []
        _flatten("", payload, lines)
        return "\n".join(lines) + "\n"
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge integers, deep nesting
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
