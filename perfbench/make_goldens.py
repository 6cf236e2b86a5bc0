"""Regenerate the benchmark goldens from the current source tree.

    python3 perfbench/make_goldens.py

Runs every workload once at seed GOLDEN_SEED and writes its expected output
to perfbench/goldens/<workload>.json: the whole stdout for `fan` and
`newton`, the seed-independent verdict part for `verify`.  Also writes
perfbench/goldens/sizes.json with each workload's size counts.  Only rerun
this when a change is meant to alter the output.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, GOLDENS, SRC, WORKLOADS, Run, verdict

GOLDEN_SEED = 0


def sizes(module, doc):
    from mtfan.polyhedra import normal_fan
    from mtfan.sublattice import enumerate_submodules, newton_polytope

    poly = newton_polytope(module)
    counts = {
        "dims": list(module.dims),
        "submodules": len(enumerate_submodules(module)),
        "newton_vertices": len(poly.vertices),
        "cones": len(normal_fan(poly).cones),
    }
    if doc is not None:
        counts["samples"] = doc["samples"]
        counts["checks"] = doc["oracle"]["checks"] + doc["dim_formula"]["checks"]
    return counts


def main():
    sys.path.insert(0, str(SRC))
    from inputs import seeded_module

    GOLDENS.mkdir(exist_ok=True)
    work = BENCH / ".work" / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        for name, wl in WORKLOADS.items():
            run = Run(name, GOLDEN_SEED, work)
            outcome, _ = run.launch(run.workload_args(), lambda o: [])
            if outcome.rc != 0:
                raise SystemExit(f"{name}: exit code {outcome.rc}\n{outcome.stderr.decode()}")
            doc = None
            if wl.verdict:
                doc = json.loads(outcome.out)
                text = json.dumps(verdict(doc), indent=2) + "\n"
                (GOLDENS / f"{name}.json").write_text(text)
            else:
                (GOLDENS / f"{name}.json").write_bytes(outcome.out)
            table[name] = {
                "module": wl.module,
                "golden_seed": GOLDEN_SEED,
                **sizes(seeded_module(wl.module, GOLDEN_SEED), doc),
            }
            print(name, table[name], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (GOLDENS / "sizes.json").write_text(json.dumps(table, indent=2) + "\n")


if __name__ == "__main__":
    main()
