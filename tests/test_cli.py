"""Command line interface: documents, exit codes, golden round-trips."""

import inspect
import json
import subprocess
import sys
import time

import pytest

import mtfan.cli
from mtfan.cli import MAX_SVG_SIZE, RunConfig, build_parser, main, run
from mtfan.errors import ResourceLimitError
from mtfan.fan import build_mtf_fan, wall_cone
from mtfan.oracle import build_sample_set
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import build_algebra, build_module
from mtfan.serialize import cone_from_doc, polytope_doc
from mtfan.sublattice import enumerate_submodules, newton_polytope
from mtfan.svg import render_svg


def run_cli(args, tmp_path, name="out.json"):
    """Invoke the CLI in-process, writing to a file; return (code, text)."""
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


A2_SPEC = {
    "p": 2,
    "vertices": ["1", "2"],
    "arrows": [{"name": "a", "from": "1", "to": "2"}],
    "relations": [],
    "module": {"dims": {"1": 1, "2": 1}, "maps": {"a": [[1]]}},
}


def test_newton_document(tmp_path):
    code, text = run_cli(["newton", "--preset", "a2-P1"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["vertices"] == [["0", "0"], ["0", "1"], ["1", "1"]]
    assert len(doc["faces"]) == 7
    dims = [f["dim"] for f in doc["faces"]]
    assert dims == sorted(dims)


@pytest.mark.parametrize("name", preset_names())
def test_newton_does_not_build_the_fan(name, monkeypatch, capsys):
    def no_fan(module):
        raise AssertionError("newton must not build the fan")

    monkeypatch.setattr(mtfan.cli, "build_mtf_fan", no_fan)
    assert main(["newton", "--preset", name]) == 0
    expected = polytope_doc(newton_polytope(preset_module(name)))
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_fan_document_and_cone_roundtrip(tmp_path):
    code, text = run_cli(["fan", "--preset", "a2-P1"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["p"] == 2 and doc["n"] == 2
    assert len(doc["cones"]) == 7
    mtf = build_mtf_fan(preset_module("a2-P1"))
    for cdoc in doc["cones"]:
        rebuilt = cone_from_doc(cdoc, doc["n"])
        assert rebuilt == mtf.cones[cdoc["id"]]
        assert cdoc["newton_face_id"] == cdoc["id"]
    classes = {tuple(c["class"]["t"]) for c in doc["cones"]}
    assert ("1", "1") in classes and ("0", "0") in classes


def test_wall_document(tmp_path):
    code, text = run_cli(["wall", "--preset", "square-lambda"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["wall"]["dim"] == 3
    assert doc["wall"]["rays"] == [
        ["0", "0", "1", "-1"],
        ["0", "1", "0", "-1"],
        ["1", "-1", "0", "0"],
        ["1", "0", "-1", "0"],
    ]
    mtf = build_mtf_fan(preset_module("square-lambda"))
    assert cone_from_doc(doc["wall"], 4) == wall_cone(mtf)


def test_classify_document(tmp_path):
    code, text = run_cli(
        ["classify", "--preset", "a2-P1", "--theta", "1/2,-1/2"], tmp_path
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["theta"] == ["1/2", "-1/2"]
    assert doc["class"]["w"] == ["1", "1"]
    assert doc["class"]["supp"] == [["1", "1"]]


@pytest.mark.parametrize("theta", ["1e5000,1", "1e10000000,1", "1" * 1001 + ",1"])
def test_classify_bounds_theta_before_parsing(theta, capsys):
    start = time.perf_counter()
    assert main(["classify", "--preset", "a2-P1", f"--theta={theta}"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "--theta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "theta, message",
    [
        ("x,y", "not a rational number: 'x'"),
        ("1,2,3", "--theta has 3 entries, the module has 2 vertices"),
        ("1e5,1", "--theta entry 1 uses exponent notation"),
    ],
)
def test_classify_checks_theta_before_the_build(theta, message, monkeypatch, capsys):
    def no_fan(module):
        raise AssertionError("a malformed --theta must not build the fan")

    monkeypatch.setattr(mtfan.cli, "build_mtf_fan", no_fan)
    assert main(["classify", "--preset", "a2-P1", f"--theta={theta}"]) == 2
    assert message in capsys.readouterr().err


def test_paths_document(tmp_path):
    code, text = run_cli(["paths", "--preset", "nakayama2-121"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    ends = {
        (tuple(p[0]), tuple(p[-1])) for p in doc["maximal_newton_paths"]
    }
    assert ends == {(("0", "0"), ("2", "1"))}
    assert len(doc["maximal_paths"]) == 2


def test_verify_document(tmp_path):
    code, text = run_cli(
        ["verify", "--preset", "a2-P1", "--grid-bound", "2", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert doc["oracle"]["violations"] == []
    assert doc["dim_formula"]["ok"] is True
    assert doc["fan_validation"]["ok"] is True
    assert doc["grid_bound"] == 2 and doc["seed"] == 5


def test_input_file_and_p_override(tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(A2_SPEC), encoding="utf-8")
    code, text = run_cli(["fan", "--input", str(path)], tmp_path)
    assert code == 0
    assert len(json.loads(text)["cones"]) == 7
    code, text = run_cli(
        ["newton", "--input", str(path), "--p", "5"], tmp_path, "p5.json"
    )
    assert code == 0
    assert json.loads(text)["vertices"] == [["0", "0"], ["0", "1"], ["1", "1"]]


@pytest.mark.parametrize("doc", [[1, 2], "x"])
def test_p_override_needs_an_object_document(doc, tmp_path, capsys):
    path = tmp_path / "not-an-object.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["newton", "--input", str(path), "--p", "3"]) == 2
    assert capsys.readouterr().err == "error: input document must be an object\n"


def test_p_override_supplies_a_missing_prime(tmp_path):
    spec = {k: v for k, v in A2_SPEC.items() if k != "p"}
    path = tmp_path / "no-p.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, text = run_cli(["newton", "--input", str(path), "--p", "3"], tmp_path)
    assert code == 0
    assert json.loads(text)["vertices"] == [["0", "0"], ["0", "1"], ["1", "1"]]


def test_svg_output(tmp_path):
    code, text = run_cli(["svg", "--preset", "a2-P1"], tmp_path, "fan.svg")
    assert code == 0
    assert text.startswith("<svg")
    assert text.count("<polygon") == 3  # three chambers
    assert text.count("<line") == 3  # three rays
    code, text = run_cli(["svg", "--preset", "a2-S1"], tmp_path, "s1.svg")
    assert code == 0
    assert text.count("<polygon") == 2  # two half-planes
    assert text.count("<line") == 1  # one full line


def test_svg_zero_module(tmp_path):
    spec = dict(A2_SPEC, module={"dims": {"1": 0, "2": 0}, "maps": {}})
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, text = run_cli(["svg", "--input", str(path)], tmp_path, "z.svg")
    assert code == 0
    assert text.count("<polygon") == 1  # the whole plane, one class
    assert text.count("<line") == 0


def test_svg_rejects_higher_rank(tmp_path, capsys):
    code = main(["svg", "--preset", "square-lambda"])
    assert code == 2
    assert "rank" in capsys.readouterr().err


def test_exit_code_2_on_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"p\": 2,", encoding="utf-8")
    assert main(["fan", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"p": 2, "vertices": ["1"]}))
    assert main(["fan", "--input", str(incomplete)]) == 2

    not_prime = tmp_path / "notprime.json"
    not_prime.write_text(json.dumps(dict(A2_SPEC, p=4)), encoding="utf-8")
    assert main(["fan", "--input", str(not_prime)]) == 2

    assert main(["fan", "--preset", "a2-P1", "--input", str(bad)]) == 2
    assert main(["classify", "--preset", "a2-P1"]) == 2  # no --theta
    assert main(["classify", "--preset", "a2-P1", "--theta", "x,y"]) == 2
    assert main(["svg", "--preset", "a2-P1", "--p", "3"]) == 2


def _exit_code_on(tmp_path, capsys, spec):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["fan", "--input", str(path)])
    return code, capsys.readouterr().err


def test_exit_code_2_on_ill_typed_dims(tmp_path, capsys):
    spec = dict(A2_SPEC, module={"dims": {"1": [1]}, "maps": {}})
    code, err = _exit_code_on(tmp_path, capsys, spec)
    assert code == 2
    assert "dimension at vertex '1'" in err


def test_exit_code_2_on_arrow_without_name(tmp_path, capsys):
    spec = dict(A2_SPEC, arrows=[{"from": "1", "to": "2"}])
    code, err = _exit_code_on(tmp_path, capsys, spec)
    assert code == 2
    assert "arrow 0" in err and '"name"' in err


def test_exit_code_2_on_ill_typed_map(tmp_path, capsys):
    spec = dict(A2_SPEC, module={"dims": {"1": 1, "2": 1}, "maps": {"a": 5}})
    code, err = _exit_code_on(tmp_path, capsys, spec)
    assert code == 2
    assert "matrix of arrow 'a'" in err


def test_exit_code_2_on_a_line_sweep_beyond_the_bound(tmp_path, capsys):
    """x^2 - 2 is irreducible over F_16411, so the module has two
    submodules, but the sweep would visit 16412 > 2^14 - 1 lines."""
    spec = {
        "p": 16411,
        "vertices": ["1"],
        "arrows": [{"name": "a", "from": "1", "to": "1"}],
        "module": {"dims": {"1": 2}, "maps": {"a": [[0, 2], [1, 0]]}},
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["newton", "--input", str(path)]) == 2
    assert "line sweep at p=16411 touches 16412 vectors" in capsys.readouterr().err


def test_declared_dims_are_bounded_before_any_matrix(tmp_path, capsys, monkeypatch):
    A = build_algebra(A2_SPEC)
    with pytest.raises(ResourceLimitError) as limit:
        enumerate_submodules(build_module(A, (8, 7), {}))

    def refuse(*args):
        raise AssertionError("a module was built")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mtfan" or mod_name.startswith("mtfan."):
            for attr, value in list(vars(mod).items()):
                if value is build_module:
                    monkeypatch.setattr(mod, attr, refuse)
    spec = dict(A2_SPEC, module={"dims": {"1": 8, "2": 7}})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["newton", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {limit.value}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--preset", "a2-P1", "--grid-bound", "-1"], ">= 0"),
        (["verify", "--preset", "a2-P1", "--grid-bound", "200"], "grid points"),
        (["verify", "--preset", "square-lambda", "--grid-bound", "9"], "grid points"),
        (["svg", "--preset", "a2-P1", "--size", "0"], "--size"),
        (["svg", "--preset", "a2-P1", "--size", "-40"], "--size"),
        (["svg", "--preset", "a2-P1", "--size", str(MAX_SVG_SIZE + 1)], "--size"),
    ],
)
def test_exit_code_2_on_sizes_out_of_range(args, message, capsys):
    assert main(args) == 2
    assert message in capsys.readouterr().err


def test_size_caps_admit_the_defaults_and_the_benchmark_grids():
    for name in preset_names():
        n = preset_module(name).algebra.n
        for command in ("verify", "svg"):
            mtfan.cli._check_sizes(RunConfig(command=command), n)
    for bound, n in ((16, 2), (1, 4)):
        mtfan.cli._check_sizes(RunConfig(command="verify", grid_bound=bound), n)


def test_parser_run_config_and_library_defaults_agree():
    parser = build_parser()
    verify = parser.parse_args(["verify", "--preset", "a2-P1"])
    svg = parser.parse_args(["svg", "--preset", "a2-P1"])
    config = RunConfig(command="verify")
    sample = inspect.signature(build_sample_set).parameters
    size = inspect.signature(render_svg).parameters["size"].default
    assert verify.grid_bound == config.grid_bound == sample["bound"].default
    assert verify.seed == config.seed == sample["seed"].default
    assert svg.size == config.size == size


def test_run_config_direct():
    cfg = RunConfig(command="wall", preset="a2-P1", output="/dev/null")
    assert run(cfg) == 0


def test_module_invocation_subprocess(tmp_path):
    out = tmp_path / "doc.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mtfan.cli",
            "fan",
            "--preset",
            "nakayama2-121",
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["cones"]) == 9
    assert doc["module_dims"] == ["2", "1"]


def test_subprocess_verify_exit_zero():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mtfan.cli",
            "verify",
            "--preset",
            "a2-S1",
            "--grid-bound",
            "2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True
