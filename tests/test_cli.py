"""Command line interface: documents, exit codes, golden round-trips."""

import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mtfan.cli
import mtfan.fan
import mtfan.oracle
import mtfan.polyhedra
from mtfan import serialize
from mtfan.cli import MAX_SVG_SIZE, build_parser, main, run
from mtfan.errors import InvariantError, ResourceLimitError
from mtfan.fan import MTFFan, build_mtf_fan, wall_cone
from mtfan.oracle import build_sample_set
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import build_algebra, build_module
from mtfan.serialize import polytope_doc
from mtfan.sublattice import enumerate_submodules, newton_polytope
from mtfan.svg import render_svg
from referee import cone_from_doc

GOLDENS = Path(__file__).resolve().parent / "goldens"


def parsed(*argv):
    """The namespace that main hands to run."""
    return build_parser().parse_args(argv)


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

    monkeypatch.setattr(mtfan.fan, "build_mtf_fan", no_fan)
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
        # Fraction reads these on some Python versions only
        ("1_0,1", "--theta entry 1 is not a rational number: '1_0'"),
        ("1 / 2,1", "--theta entry 1 is not a rational number: '1 / 2'"),
        # a zero denominator, which Fraction refuses with ZeroDivisionError
        ("1/0,1", "--theta entry 1 is not a rational number: '1/0'"),
        ("1,-3/000", "--theta entry 2 is not a rational number: '-3/000'"),
    ],
)
def test_classify_checks_theta_before_the_build(theta, message, monkeypatch, capsys):
    def no_fan(module):
        raise AssertionError("a malformed --theta must not build the fan")

    monkeypatch.setattr(mtfan.fan, "build_mtf_fan", no_fan)
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


def test_verify_records_an_invariant_the_oracle_breaks(tmp_path, monkeypatch):
    """An InvariantError in the oracle's definition route is one sample's
    failure, naming its functional, not an abort: the run still writes its
    document and exits 1."""
    import mtfan.stability

    real = mtfan.stability._largest_member
    calls = []

    def breaks_on_the_7th_call(*args):
        calls.append(args)
        if len(calls) == 7:
            raise InvariantError("planted break")
        return real(*args)

    monkeypatch.setattr(mtfan.stability, "_largest_member", breaks_on_the_7th_call)
    code, text = run_cli(
        ["verify", "--preset", "square-lambda", "--grid-bound", "1"], tmp_path
    )
    assert code == 1
    doc = json.loads(text)
    assert doc["ok"] is False
    assert doc["oracle"]["violations"] == [
        "theta (-1, -1, 0, -1): definition route broke: planted break"
    ]
    assert doc["dim_formula"]["ok"] and doc["fan_validation"]["ok"]


def test_verify_records_an_invariant_the_fan_route_breaks(tmp_path, monkeypatch):
    """An InvariantError in locating a sample in the fan is that sample's
    one failure, and the run still writes its document and exits 1.  The
    sample, the third in cone 0, enters no pair check: the fourth takes its
    place, so the run makes the 246 checks of a clean one."""
    real = mtfan.oracle.locate_index
    calls = []

    def breaks_on_the_3rd_call(*args):
        calls.append(args)
        if len(calls) == 3:
            raise InvariantError("planted break")
        return real(*args)

    monkeypatch.setattr(mtfan.oracle, "locate_index", breaks_on_the_3rd_call)
    code, text = run_cli(["verify", "--preset", "a2-P1"], tmp_path)
    assert code == 1
    doc = json.loads(text)
    assert doc["ok"] is False
    assert doc["oracle"] == {
        "checks": 246,
        "violations": ["theta (-3, -1): fan route broke: planted break"],
        "ok": False,
    }
    assert doc["dim_formula"]["ok"] and doc["fan_validation"]["ok"]


def test_verify_records_a_wall_that_breaks(tmp_path, monkeypatch):
    """A wall that raises InvariantError breaks the fan route at every
    sample and is one dim-formula violation; the run still writes its
    document and exits 1."""

    def broken(self):
        raise InvariantError("planted break")

    monkeypatch.setattr(MTFFan, "wall", property(broken))
    code, text = run_cli(
        ["verify", "--preset", "a2-P1", "--grid-bound", "1"], tmp_path
    )
    assert code == 1
    doc = json.loads(text)
    assert doc["ok"] is False
    violations = doc["oracle"]["violations"]
    assert len(violations) == doc["samples"] + 1
    assert all(v.endswith(": fan route broke: planted break") for v in violations[:-1])
    assert violations[-1] == "cones never sampled: [0, 1, 2, 3, 4, 5, 6]"
    # one check per cone, and the wall's one
    assert doc["dim_formula"] == {
        "checks": 8,
        "violations": ["wall broke: planted break"],
        "ok": False,
    }
    assert doc["fan_validation"]["ok"]


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


def test_svg_rejects_higher_rank(tmp_path, monkeypatch, capsys):
    def no_fan(module):
        raise AssertionError("the fan was built")

    # the CLI checks the rank before the build
    with monkeypatch.context() as patch:
        patch.setattr(mtfan.fan, "build_mtf_fan", no_fan)
        code = main(["svg", "--preset", "square-lambda"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: SVG rendering needs a rank-two fan, got rank 4\n"
    )
    # library callers get the same check from render_svg itself
    mtf = build_mtf_fan(preset_module("square-lambda"))
    with pytest.raises(ValueError, match="rank-two fan, got rank 4"):
        render_svg(mtf)


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


def test_exit_code_2_on_deeply_nested_json(tmp_path, capsys):
    """JSON nested past the parser's recursion limit is bad input, not a
    traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["fan", "--input", str(deep)]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid JSON in {deep}: nested too deeply\n"
    )


@pytest.mark.parametrize(
    "args",
    [["fan", "--preset", "a2-P1"], ["verify", "--preset", "a2-P1", "--grid-bound", "0"]],
)
def test_exit_code_2_on_an_unwritable_output(args, tmp_path, capsys):
    # exit 1 would read as "violations found" for verify
    out = tmp_path / "missing" / "out.json"
    assert main(args + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_exit_code_2_on_a_missing_input(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["fan", "--input", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_exit_code_2_on_a_write_that_fails_after_the_open(capsys):
    """/dev/full opens for writing and then fails every write (ENOSPC)."""
    assert main(["fan", "--preset", "a2-P1", "--output", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ")
    assert err.count("\n") == 1


def test_a_null_map_is_an_omitted_map(tmp_path, capsys):
    """README: a map that is omitted or null is zero."""
    modules, outputs = [], []
    for maps in ({"a": None}, {}):
        doc = dict(A2_SPEC, module={"dims": {"1": 1, "2": 1}, "maps": maps})
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["fan", "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
        modules.append(serialize.module_from_doc(doc)[1])
    assert modules[0] == modules[1]
    assert modules[0].maps == (((0,),),)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("where", [("missing", "x.json"), ()])
def test_an_unwritable_output_is_reported_before_any_work(
    where, tmp_path, monkeypatch, capsys
):
    """A file in a missing directory, or the directory itself."""

    def no_work(*args):
        raise AssertionError("the module was loaded or built")

    monkeypatch.setattr(mtfan.cli, "preset_module", no_work)
    monkeypatch.setattr(mtfan.fan, "build_mtf_fan", no_work)
    out = tmp_path.joinpath(*where)
    args = ["verify", "--preset", "square-lambda", "--output", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


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


def _arrowless_module_doc(n):
    """A module with one 1-dimensional vertex on n vertices and no arrows."""
    return {
        "p": 2,
        "vertices": [str(k) for k in range(n)],
        "arrows": [],
        "module": {"dims": {"0": 1}},
    }


def _write_cube_doc(tmp_path, n):
    """The arrowless module with a 1-dimensional space at each of n
    vertices: 2^n submodules, all with distinct dimension vectors, whose
    Newton polytope is the n-cube with 3^n faces."""
    doc = dict(
        _arrowless_module_doc(n), module={"dims": {str(k): 1 for k in range(n)}}
    )
    path = tmp_path / f"cube{n}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("n", [8, 10])
def test_newton_bounds_the_hull_points_before_the_hull(
    n, tmp_path, monkeypatch, capsys
):
    def no_dd(*args):
        raise AssertionError("the double description pass ran")

    monkeypatch.setattr(mtfan.polyhedra, "_dd", no_dd)
    path = _write_cube_doc(tmp_path, n)
    start = time.perf_counter()
    assert main(["newton", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: {2**n} distinct points, more than the convex hull's bound "
        f"of {mtfan.polyhedra.MAX_HULL_POINTS}\n"
    )


def test_newton_bounds_the_hull_faces(tmp_path, capsys):
    """The 7-cube has 128 vertices, within the point bound, and 2187
    faces, beyond the face bound."""
    path = _write_cube_doc(tmp_path, 7)
    assert main(["newton", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: the face lattice has more than "
        f"{mtfan.polyhedra.MAX_HULL_FACES} faces, the empty face counted, "
        "the convex hull's bound\n"
    )


def test_verify_bounds_the_validator_grid_before_the_build(
    tmp_path, monkeypatch, capsys
):
    """The fan validator covers [-2, 2]^n, so eight vertices (5^8 points)
    exceed the cap even at --grid-bound 0; seven are admitted."""

    def no_fan(module):
        raise AssertionError("the fan was built")

    monkeypatch.setattr(mtfan.fan, "build_mtf_fan", no_fan)
    path = tmp_path / "arrowless.json"
    path.write_text(json.dumps(_arrowless_module_doc(8)), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--grid-bound", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: the fan validator's completeness grid [-2, 2]^8 has 5^8 "
        f"points, more than the cap of {mtfan.cli.MAX_GRID_POINTS}\n"
    )
    for bound in (0, 1):
        args = parsed("verify", "--preset", "a2-P1", "--grid-bound", str(bound))
        mtfan.cli._check_sizes(args, 7)


def test_verify_caps_the_cones_before_the_samples(tmp_path, monkeypatch, capsys):
    """The 6-cube's fan has 729 cones, beyond the cap: verify refuses it
    after the build, before it builds a sample set or runs the oracle or
    the fan validator."""

    def no_work(*args, **kwargs):
        raise AssertionError("verify went past the cone cap")

    for mod, name in (
        (mtfan.oracle, "build_sample_set"),
        (mtfan.oracle, "verify_fan"),
        (mtfan.oracle, "verify_dim_formula"),
        (mtfan.polyhedra, "validate_generalized_fan"),
    ):
        monkeypatch.setattr(mod, name, no_work)
    path = _write_cube_doc(tmp_path, 6)
    assert main(["verify", "--input", str(path), "--grid-bound", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: the fan has 729 cones, more than verify's cap of "
        f"{mtfan.cli.MAX_VERIFY_CONES}\n"
    )


def test_the_cone_cap_is_inclusive(monkeypatch, capsys):
    """square-lambda has 39 cones: a cap of 39 admits it, 38 refuses it."""
    args = ["verify", "--preset", "square-lambda", "--grid-bound", "0"]
    monkeypatch.setattr(mtfan.cli, "MAX_VERIFY_CONES", 39)
    assert main(args) == 0
    capsys.readouterr()
    monkeypatch.setattr(mtfan.cli, "MAX_VERIFY_CONES", 38)
    assert main(args) == 2
    assert "the fan has 39 cones" in capsys.readouterr().err


def test_the_path_cap_is_inclusive(monkeypatch, capsys):
    """square-lambda has 43 increasing paths, counted over the Newton edges
    before any is listed: a cap of 43 admits them, 42 exits 2 with the
    count."""
    args = ["paths", "--preset", "square-lambda"]
    monkeypatch.setattr(mtfan.fan, "MAX_PATHS", 43)
    assert main(args) == 0
    capsys.readouterr()
    monkeypatch.setattr(mtfan.fan, "MAX_PATHS", 42)
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: the fan has 43 increasing paths, more than the cap of 42\n"
    )


def test_the_path_cap_admits_the_6_cube(tmp_path):
    """The 6-cube's fan has 5,296 increasing paths, within the cap."""
    path = _write_cube_doc(tmp_path, 6)
    code, text = run_cli(["paths", "--input", str(path)], tmp_path)
    assert code == 0
    assert len(json.loads(text)["increasing_paths"]) == 5296


def test_the_cone_cap_admits_every_golden_fan():
    """Every golden fan is within the cap: the presets, which include the
    benchmark's verify inputs, the Kronecker module R_4,
    square-lambda + square-lambda + square-lambda, S2 + S3 over
    square-lambda, the six interval modules of linear A_3 and
    P_0 + P_1 + I_0 + I_1 + R_1 over the Kronecker quiver."""
    goldens = sorted(GOLDENS.glob("*.fan.json"))
    assert len(goldens) == len(preset_names()) + 5
    for path in goldens:
        cones = json.loads(path.read_text(encoding="utf-8"))["cones"]
        assert len(cones) <= mtfan.cli.MAX_VERIFY_CONES


def test_size_caps_admit_the_defaults_and_the_benchmark_grids():
    for name in preset_names():
        n = preset_module(name).algebra.n
        for command in ("verify", "svg"):
            mtfan.cli._check_sizes(parsed(command, "--preset", name), n)
    for bound, n in ((16, 2), (1, 4)):
        args = parsed("verify", "--preset", "a2-P1", "--grid-bound", str(bound))
        mtfan.cli._check_sizes(args, n)


def test_parser_and_library_defaults_agree():
    """The parser leaves --grid-bound, --seed and --size unset, so that it
    loads no layer; _check_sizes fills them in from the library's."""
    verify = parsed("verify", "--preset", "a2-P1")
    svg = parsed("svg", "--preset", "a2-P1")
    assert (verify.grid_bound, verify.seed, svg.size) == (None, None, None)
    mtfan.cli._check_sizes(verify, 2)
    mtfan.cli._check_sizes(svg, 2)
    sample = inspect.signature(build_sample_set).parameters
    size = inspect.signature(render_svg).parameters["size"].default
    assert verify.grid_bound == sample["bound"].default
    assert verify.seed == sample["seed"].default
    assert svg.size == size


def test_run_takes_the_parsed_namespace():
    assert run(parsed("wall", "--preset", "a2-P1", "--output", "/dev/null")) == 0


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
