"""mtfan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from `src/`.
Every timed sample is a fresh interpreter (the package keeps module-level
caches, so a reused process would only read them), started one at a time.
The seed picks a change of basis of the workload module (see inputs.py);
outputs are checked against the goldens in perfbench/goldens.

With --trace 0 the run measures, for --seconds seconds, whole workload
processes (`run_s`, `peak_rss_mb`), plus `setup_s`: start-up, import of
mtfan.cli and loading the input, as the median of several fresh processes.
Both times are rescaled to a reference CPU speed (calibrate.py).
With --trace 1 it alternates an untraced and a traced process (tracer.py)
and reports per-layer metrics.  The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import scale_to_reference, reference_loop

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens"

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
RUN_CAP_S = 160  # start no sample that would likely end after this


@dataclass(frozen=True)
class Workload:
    module: str  # key of inputs.PIECES
    step: tuple  # child.py step; "{input}" and "{seed}" are filled in
    verdict: bool  # verify output: compare verdicts, not the whole document


WORKLOADS = {
    "lattice": Workload("a2-P1^3", ("cli", "fan", "--input", "{input}"), False),
    "geometry": Workload(
        "sq",
        ("cli", "verify", "--grid-bound", "1", "--seed", "{seed}", "--input", "{input}"),
        True,
    ),
    "oracle": Workload(
        "nakayama2-121",
        ("cli", "verify", "--grid-bound", "16", "--seed", "{seed}", "--input", "{input}"),
        True,
    ),
    "enum": Workload("sq+sq+S4", ("newton", "{input}"), False),
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_METRICS = {  # traced function -> reported fields
    "stability.canonical_sequences": ("calls", "self_s"),
    "stability.t_set": ("calls", "self_s"),
    "stability.supp_factors": ("calls", "self_s"),
    "stability.m_tf_equivalent_by_filtration": ("calls", "self_s"),
    "stability.evaluate": ("calls",),
    "stability.is_semistable": ("calls",),
    "quiver.subquotient": ("calls", "self_s"),
    "quiver.submodule_contains": ("calls",),
    "quiver.submodule_sum": ("calls",),
    "quiver.generated_submodule": ("calls",),
    "fplinalg.rref_fp": ("calls",),
    "exact.rref": ("calls",),
    "exact.hnf": ("calls",),
    "sublattice.enumerate_submodules": ("calls", "self_s"),
    "polyhedra.cone_from_hrep": ("calls", "self_s"),
    "polyhedra.cone_intersection": ("calls", "s"),
    "polyhedra.convex_hull": ("s",),
    "polyhedra.normal_fan": ("s",),
    "polyhedra.validate_generalized_fan": ("s",),
    "fan.build_mtf_fan": ("s", "self_s"),
    "fan.wall_cone": ("calls",),
    "oracle.build_sample_set": ("s",),
    "oracle.verify_fan": ("s", "self_s"),
    "oracle.verify_dim_formula": ("s",),
    "oracle.verify_point": ("calls", "self_s"),
    "serialize.module_from_doc": ("s",),
    "serialize.fan_doc": ("s",),
    "serialize.polytope_doc": ("s",),
    "cli.run": ("s",),
}
LAYER_MODULES = ("stability", "quiver", "sublattice", "polyhedra", "fan", "oracle")


def per_layer_units():
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for func, fields in LAYER_METRICS.items():
        for field in fields:
            units[f"{func}.{field}"] = "count" if field == "calls" else "s"
    for mod in LAYER_MODULES:
        units[f"{mod}.self_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # hash order moves call counts otherwise
    env.pop("MTFAN_THREADS", None)
    return env


@dataclass
class Outcome:
    rc: int
    out: bytes
    wall_s: float
    rss_mb: float
    stderr: bytes


def run_child(args, work, timeout=CHILD_TIMEOUT_S):
    """Run `python args` from the checkout root; time it and read rusage."""
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode, out, wall_s, usage.ru_maxrss / 1024, err_path.read_bytes()
    )


def verdict(doc):
    """The seed-independent part of a verify document.

    The seed, and with it the random extra samples, changes `seed`,
    `samples` and the oracle's check count; everything else, the verdicts
    and the deterministic dim-formula and fan-validation reports, does not.
    """
    doc = dict(doc)
    for key in ("seed", "samples"):
        doc.pop(key, None)
    doc["oracle"] = {k: v for k, v in doc.get("oracle", {}).items() if k != "checks"}
    return doc


@functools.cache
def load_golden(name):
    with open(GOLDENS / f"{name}.json", "rb") as fh:
        return fh.read()


def check(name, wl, seed, outcome, golden):
    """Problems with one workload process's result, each one line."""
    problems = []
    if outcome.rc != 0:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        problems.append(f"{name}: exit code {outcome.rc}, expected 0 {tail}")
    if not wl.verdict:
        if outcome.rc == 0 and outcome.out != golden:
            problems.append(f"{name}: stdout differs from perfbench/goldens/{name}.json")
        return problems
    try:
        doc = json.loads(outcome.out)
    except ValueError:
        return problems or [f"{name}: stdout is not a JSON document"]
    if doc.get("ok") is not True:
        problems.append(f'{name}: verify reports "ok": {doc.get("ok")!r}')
    if doc.get("seed") != seed:
        problems.append(f"{name}: verify ran with seed {doc.get('seed')!r}, not {seed}")
    expected = json.loads(golden)
    got = verdict(doc)
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            detail = json.dumps(got.get(key))[:160]
            problems.append(f"{name}: verify field {key!r} differs from the golden: {detail}")
    return problems


def check_setup(outcome, dims):
    if outcome.rc != 0:
        return [f"setup: exit code {outcome.rc}"]
    if outcome.out.strip() != json.dumps(list(dims)).encode():
        return [f"setup: loaded dimension vector {outcome.out.strip()!r}, expected {list(dims)}"]
    return []


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """State of one benchmark run: inputs, counters and failure messages."""

    def __init__(self, name, seed, work):
        from inputs import module_doc, seeded_module

        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        module = seeded_module(self.wl.module, seed)
        self.dims = module.dims
        self.input = work / "input.json"
        with open(self.input, "w", encoding="utf-8") as fh:
            json.dump(module_doc(module), fh)
        fill = {"{input}": str(self.input), "{seed}": str(seed)}
        self.step = [fill.get(a, a) for a in self.wl.step]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.started = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.started

    def launch(self, args, checker):
        outcome = run_child(args, self.work)
        problems = checker(outcome)
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)
        return outcome, not problems

    def workload_args(self, prefix=()):
        """The workload process; untraced CLI steps run `python -m mtfan.cli`."""
        if not prefix and self.step[0] == "cli":
            return ["-m", "mtfan.cli", *self.step[1:]]
        return [str(BENCH / "child.py"), *prefix, *self.step]

    def workload(self, prefix=()):
        golden = load_golden(self.name)
        return self.launch(
            self.workload_args(prefix),
            lambda o: check(self.name, self.wl, self.seed, o, golden),
        )

    def setup(self):
        args = [str(BENCH / "child.py"), "setup", str(self.input)]
        return self.launch(args, lambda o: check_setup(o, self.dims))

    def more(self, seconds, last_s):
        spent = self.elapsed()
        return spent < seconds and spent + last_s < RUN_CAP_S

    def timed(self, launch, calib):
        """Launch one process; its wall time scaled to the reference CPU
        speed by the reference loops just before and just after it."""
        outcome, ok = launch()
        calib.append(reference_loop())
        return outcome, ok, scale_to_reference(outcome.wall_s, calib[-2:])

    def measure(self, seconds):
        """End-to-end metrics: set-up repeats, then workload processes."""
        self.setup()  # warm-up: byte-compiles the package on a fresh checkout
        calib = [reference_loop()]
        setups = []
        for _ in range(SETUP_REPEATS):
            _, ok, scaled = self.timed(self.setup, calib)
            if ok:
                setups.append(scaled)
        self.started = time.perf_counter()
        runs, walls, rss = [], [], []
        last = 0.0
        while not runs or self.more(seconds, last):
            outcome, ok, scaled = self.timed(self.workload, calib)
            last = outcome.wall_s
            if ok:
                runs.append(scaled)
                walls.append(outcome.wall_s)
                rss.append(outcome.rss_mb)
            elif not runs and self.attempted > SETUP_REPEATS + 3:
                break
        values = {"run_s": median(runs), "setup_s": median(setups), "peak_rss_mb": median(rss)}
        summary = [
            f"run_s: median {values['run_s']:.3f} s over {len(runs)} processes"
            f" (unscaled wall median {median(walls):.3f} s)",
            f"setup_s: median {values['setup_s']:.4f} s over {len(setups)} processes",
            f"peak_rss_mb: median {values['peak_rss_mb']:.1f} MB",
            f"reference loop: median {median(calib):.4f} s over {len(calib)} loops",
        ]
        return {k: (v, END_TO_END[k]) for k, v in values.items()}, summary

    def traced(self, seconds):
        """Per-layer metrics: alternate untraced and traced processes."""
        from tracer import summarize

        self.setup()  # warm-up
        self.started = time.perf_counter()
        body_path = self.work / "body.json"
        spans_path = self.work / "spans.json"
        plain_s, traced_s, layers = [], [], []
        last = 0.0
        while not layers or self.more(seconds, last):
            pair_start = time.perf_counter()
            _, ok = self.workload(("--time", str(body_path)))
            if ok:
                plain_s.append(json.loads(body_path.read_text())["body_s"])
            _, ok = self.workload(("--time", str(body_path), "--trace", str(spans_path)))
            if ok:
                traced_s.append(json.loads(body_path.read_text())["body_s"])
                layers.append(summarize(json.loads(spans_path.read_text())))
            elif not layers and self.attempted > 4:
                break
            last = time.perf_counter() - pair_start
        units = per_layer_units()
        values = {}
        for metric, unit in units.items():
            values[metric] = (median([layer.get(metric, 0) for layer in layers]), unit)
        overhead = median(traced_s) - median(plain_s)
        values["trace_overhead_s"] = (overhead, "s")
        summary = [
            f"traced {len(layers)} processes; body median {median(plain_s):.3f} s "
            f"untraced, {median(traced_s):.3f} s traced",
        ]
        if layers:
            body = median(traced_s)
            for mod in LAYER_MODULES:
                share = values[f"{mod}.self_s"][0] / body if body else 0.0
                summary.append(f"  {mod:<10} self {values[f'{mod}.self_s'][0]:8.3f} s  {share:6.1%}")
        return values, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mtfan" / "__init__.py").is_file():
        print(f"error: no mtfan package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mtfan

    if Path(mtfan.__file__).resolve().parent != (SRC / "mtfan").resolve():
        print(f"error: imported mtfan from {mtfan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process, its children and the reference loop
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            metrics, summary = run.traced(args.seconds)
        else:
            metrics, summary = run.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for line in summary:
        print(f"  {line}")
    print(f"  fail_frac: {run.failed}/{run.attempted}")
    for problem, count in collections.Counter(run.problems).items():
        print(f"  FAIL {problem} (x{count})")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
