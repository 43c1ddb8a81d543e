"""Record golden.json: the outcome of every variant of every workload slot.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/record_golden.py

The benchmark compares every operation it runs against these entries, so
they must be recorded before any refactor they are meant to guard.  A
config that crashes the CLI is recorded with its documented outcome
(exit 2, empty stdout) plus the exception it raises today under
``known_crash``; only slots listed in ``cli_corpus.KNOWN_CRASH_SLOTS`` may
crash.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as R
import workloads as W
from cli_corpus import KNOWN_CRASH_SLOTS, SLOTS


def all_ops() -> dict:
    ops = {
        "lie-sweep": [W._lie_sweep_op(b) for b in W.LIE_SWEEPS],
        "axiom-sweep": [
            W._axiom_op(piece, params, 0)
            for piece, variants in W.axiom_slots()
            for params in variants
        ],
        "verma-kernel": [
            op
            for kind, variants in W.FUNCTIONALS.items()
            for values in variants
            for op in W.verma_ops_for(kind, values, tiny=False)
        ],
        "cli-corpus": [
            W._cli_op(entry, f"{n:03d}-{i}-{name}")
            for n, (name, variants) in enumerate(SLOTS)
            for i, entry in enumerate(variants)
        ],
    }
    return ops


def main() -> int:
    sys.path.insert(0, R.SRC)
    hv = R.import_hvkit()
    workdir = os.path.join(R.WORK_ROOT, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    golden = {"_recorded_at": {"commit": R.git_commit(), "src_sha256": R.src_digest()}}
    try:
        ctx = W.Context(hv, seed=0, workdir=workdir)
        for name, ops in all_ops().items():
            if name == "cli-corpus":
                W.write_cli_files(ops, workdir)
            table = {}
            for op in ops:
                outcome, _units = op.run(ctx)
                outcome = W.normalise(outcome)
                if name == "cli-corpus":
                    slot = op.label.split("-", 2)[2]
                    crashed = str(outcome["exit"]).startswith("crash:")
                    if crashed != (slot in KNOWN_CRASH_SLOTS):
                        raise SystemExit(f"{op.label}: crash status {outcome['exit']} "
                                         "disagrees with KNOWN_CRASH_SLOTS")
                    if crashed:
                        outcome = {"exit": 2, "stdout_sha256": R.EMPTY_SHA256,
                                   "known_crash": outcome["exit"][len("crash:"):]}
                if op.key in table and table[op.key] != outcome:
                    raise SystemExit(f"{op.label}: two outcomes for one key")
                table[op.key] = outcome
            golden[name] = table
            print(f"{name}: {len(table)} entries", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(R.WORK_ROOT) and not os.listdir(R.WORK_ROOT):
            os.rmdir(R.WORK_ROOT)
    with open(R.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
