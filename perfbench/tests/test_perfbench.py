"""Tests of the benchmark itself: inputs, goldens, tracer and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys

import pytest

import run
from inputs import PIECES, base_module, seeded_module
from mtfan.sublattice import enumerate_submodules
from tracer import summarize

SIZES = json.loads((run.GOLDENS / "sizes.json").read_text())
CHILD = str(run.BENCH / "child.py")


def python(*args, **kw):
    return subprocess.run(
        [sys.executable, *args],
        cwd=run.ROOT,
        env=run.child_env(),
        capture_output=True,
        timeout=120,
        **kw,
    )


def traced(work, *step):
    spans = work / "spans.json"
    proc = python(CHILD, "--trace", str(spans), *step)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, summarize(json.loads(spans.read_text()))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_generated_module_has_golden_submodule_count(name, seed):
    expected = SIZES[name]
    module = seeded_module(run.WORKLOADS[name].module, seed)
    assert list(module.dims) == expected["dims"]
    assert len(enumerate_submodules(module)) == expected["submodules"]


def test_seed_changes_the_input_bits():
    maps = {seeded_module("sq+sq+S4", seed).maps for seed in range(4)}
    assert len(maps) == 4
    assert base_module("sq+sq+S4").maps not in maps
    assert seeded_module("sq+sq+S4", 5) == seeded_module("sq+sq+S4", 5)
    assert set(PIECES) == {wl.module for wl in run.WORKLOADS.values()}


def test_tracer_leaves_no_unwrapped_alias():
    script = """
import mtfan.cli
from tracer import COUNTS, SPANS, Tracer, mtfan_modules
tracer = Tracer().install()
originals = {id(f) for f in tracer.originals.values()}
left = [f"{m.__name__}.{a}" for m in mtfan_modules()
        for a, v in vars(m).items() if id(v) in originals]
assert not left, left
n = sum(len(v) for v in SPANS.values()) + sum(len(v) for v in COUNTS.values())
assert len(originals) == n, (len(originals), n)
import mtfan.stability, mtfan.oracle, mtfan.sublattice
assert mtfan.oracle.enumerate_submodules is mtfan.sublattice.enumerate_submodules
assert mtfan.oracle.enumerate_submodules in tracer.originals
print("ok")
"""
    env = dict(run.child_env(), PYTHONPATH=f"{run.SRC}:{run.BENCH}")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip() == b"ok"


@pytest.mark.parametrize("command", ["fan", "verify"])
def test_traced_stdout_is_byte_identical(tmp_path, command):
    step = ("cli", command, "--preset", "a2-P1")
    plain = python(CHILD, *step)
    assert plain.returncode == 0
    out, layers = traced(tmp_path, *step)
    assert out == plain.stdout
    assert layers["cli.run.calls"] == 1


def test_two_traced_runs_give_identical_call_counts(tmp_path):
    step = ("cli", "fan", "--preset", "square-lambda")
    first = traced(tmp_path, *step)[1]
    second = traced(tmp_path, *step)[1]
    calls = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second.items() if k.endswith(".calls")}
    assert calls["fplinalg.rref_fp.calls"] > 0
    assert calls["fan.build_mtf_fan.calls"] == 1


def test_summarize_self_time_and_recursion():
    doc = {
        "names": ["a.f", "b.g"],
        # a.f [0, 10] calls b.g [1, 4] and a.f [5, 9], which calls b.g [6, 7]
        "spans": [[0, -1, 0, 10], [1, 0, 1, 4], [0, 0, 5, 9], [1, 2, 6, 7]],
        "counts": {"c.h": 5},
    }
    out = {k: round(v * 1e9) if not k.endswith("calls") else v for k, v in summarize(doc).items()}
    assert out["a.f.calls"] == 2 and out["b.g.calls"] == 2
    assert out["a.f.s"] == 10  # the nested call is not counted twice
    assert out["a.f.self_s"] == (10 - 3 - 4) + (4 - 1)
    assert out["b.g.self_s"] == 4
    assert out["a.self_s"] == 6
    assert out["c.h.calls"] == 5


def test_verdict_drops_only_seed_dependent_fields():
    doc = {
        "samples": 9,
        "grid_bound": 1,
        "seed": 4,
        "oracle": {"checks": 3, "violations": [], "ok": True},
        "ok": True,
    }
    assert run.verdict(doc) == {
        "grid_bound": 1,
        "oracle": {"violations": [], "ok": True},
        "ok": True,
    }


def test_verify_goldens_are_clean():
    for name, wl in run.WORKLOADS.items():
        if wl.verdict:
            doc = json.loads(run.load_golden(name))
            assert doc["ok"] is True
            assert not doc["oracle"]["violations"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["paths"] == ["perfbench"]


def test_runner_fails_without_source_tree(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
