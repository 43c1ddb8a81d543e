"""Self-test of the benchmark, about half a minute.

    python3 bench/selftest.py

1. Runs every workload at tiny size (``--tiny --seconds 0``: one pass, or
   one untraced and one traced pass) in its own process, untraced and
   traced, and checks that every metric named in ``BENCHMARK.json`` is
   printed with its unit, that the people-facing metric lines are there,
   and that the result is correct.
2. Re-runs workloads with seeded bugs and checks that each one drives the
   failure count above zero, so the correctness gate is not vacuous: the
   two mutated structure functions of acceptance criterion 9 (defined here,
   passed through the public ``structure=`` argument) on lie-sweep and
   verma-kernel, an Omega module whose lambda exponent is off by one on
   axiom-sweep, and corrupted golden stdout digests on cli-corpus.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import run as R

NAMED = {
    "lie-sweep": ["lie.triples_per_s", "lie.brackets_per_s"],
    "axiom-sweep": ["axiom.triples_per_s"],
    "verma-kernel": ["verma.dims_per_s"],
    "cli-corpus": ["cli.latency_p50_ms", "cli.latency_p90_ms", "cli.configs_per_s"],
}
NAMED_ALL = ["setup_s", "wall_s", "peak_rss_mb", "failed_frac"]


def quadratic_cocycle(hv):
    """[d_n, d_-n] with (n^2 - n)/12 C in place of (n^3 - n)/12 C."""
    base = hv.algebra.hv_structure

    def structure(k1, n1, k2, n2):
        out = base(k1, n1, k2, n2)
        if k1 == "d" and k2 == "d" and n1 == -n2:
            out = tuple(t for t in out if t[0] != "C")
            c = Fraction(n1 * n1 - n1, 12)
            if c:
                out += (("C", 0, c),)
        return out

    return structure


def dropped_cd(hv):
    """The C_D term of [d_n, I_m] left out."""
    base = hv.algebra.hv_structure

    def structure(k1, n1, k2, n2):
        out = base(k1, n1, k2, n2)
        if k1 == "d" and k2 == "I":
            return tuple(t for t in out if t[0] != "CD")
        return out

    return structure


def off_by_one_omega(hv):
    class OffByOneOmega(hv.modules.OmegaModule):
        def _lambda_power(self, n, total):
            return self.lam ** (n - total + 1)

    return OffByOneOmega


def corrupt_jacobi_digests(golden):
    """Wrong stdout digests for the jacobi-sweep configs (the tiny corpus has one)."""
    table = golden["cli-corpus"]
    for key in table:
        config = json.loads(key)["config"]
        if isinstance(config, dict) and config.get("command") == "jacobi-sweep":
            table[key] = dict(table[key], stdout_sha256="0" * 64)


MUTANTS = [
    ("lie-sweep", "quadratic cocycle", lambda hv, g: {"structure": quadratic_cocycle(hv)}),
    ("lie-sweep", "dropped C_D", lambda hv, g: {"structure": dropped_cd(hv)}),
    ("verma-kernel", "quadratic cocycle", lambda hv, g: {"structure": quadratic_cocycle(hv)}),
    ("verma-kernel", "dropped C_D", lambda hv, g: {"structure": dropped_cd(hv)}),
    ("axiom-sweep", "lambda exponent off by one", lambda hv, g: {"omega_cls": off_by_one_omega(hv)}),
    ("cli-corpus", "corrupted golden digest", lambda hv, g: corrupt_jacobi_digests(g) or {}),
]


def check_printed(name: str, trace: int, spec: dict) -> list:
    cmd = [sys.executable, os.path.join(R.BENCH_DIR, "run.py"), "--workload", name,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=R.ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"result {result['correct']} {result['attempted']} {result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith(("metric ", "layer ")) and len(line.split()) == 4}
    for metric in NAMED_ALL + NAMED[name] + (list(wanted) if trace else []):
        if metric not in printed:
            problems.append(f"{metric} not printed with a unit")
    return problems


def main() -> int:
    sys.path.insert(0, R.SRC)
    with open(os.path.join(R.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for name in R.W.WORKLOADS:
        for trace in (0, 1):
            problems = check_printed(name, trace, spec)
            failures += bool(problems)
            print(f"{'PASS' if not problems else 'FAIL'} metrics printed: {name} trace={trace}"
                  + "".join(f"\n    {p}" for p in problems), flush=True)
    for name, label, mutate in MUTANTS:
        res = R.measure(name, seed=7, seconds=0, trace=False, tiny=True, mutate=mutate)
        ok = res.failed > 0
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} mutant caught: {name} / {label} "
              f"({res.failed} of {res.attempted} operations failed)", flush=True)
    print("selftest:", "ok" if not failures else f"{failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
