"""Byte-for-byte CLI output of every preset, and of the committed input
documents, against committed goldens: `<case>.json`, and `<preset>.svg` for
the rank-two presets.

Regenerate the files (only when an output change is intended) with
    PYTHONPATH=src python tests/test_goldens.py
"""
import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from mtfan.cli import main
from mtfan.fan import build_mtf_fan
from mtfan.presets import preset_module, preset_names
from mtfan.serialize import module_from_doc
from mtfan.quiver import direct_sum
from referee import (
    a_n_all,
    change_of_basis,
    cube_module,
    kronecker_pi,
    kronecker_r,
    square_lambda_sum,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"
COMMANDS = ("newton", "fan", "wall", "paths")
THETAS = {
    "a2-P1": "1,-2",
    "a2-S1": "-1,3",
    "nakayama2-121": "1/2,-1",
    "square-lambda": "1,-1,2,-3",
}
# presets pinned at a larger grid: nakayama2-121 at --grid-bound 16 (1,097
# samples), the grid of the benchmark's `oracle` workload
PRESET_COMMANDS = {
    "nakayama2-121": {
        "verify-16": ["verify", "--grid-bound", "16"],
    },
}
# `<name>.input.json` documents and the commands pinned on each: modules
# that are no preset.  kronecker-R4 is the indecomposable Kronecker module
# 1 => 2 with a = I_4, b = J_4(0) over F_2 (227 submodules); sq-sq-sq is
# square-lambda + square-lambda + square-lambda (2,060 submodules, 39 cones,
# chains of up to 12 steps), verified at one sample per cone.  sq-S2-S3 is
# S2 + S3 over square-lambda, zero at vertices 1 and 4: every cone has that
# two-dimensional lineality.  a3-all is the direct sum of the six interval
# modules of linear A_3 (1 -> 2 -> 3) over F_2: dimension vector (3, 4, 3),
# 1,229 submodules, 45 cones, and 9 maximal paths: the maximal green
# sequences of A_3.  cube5 is the arrowless module with a line at
# each of 5 vertices: its Newton polytope is the 5-cube, whose 243 cones give
# the fan validator its largest pair count (29,403 pairs of cones), on only
# 10 distinct rays and 10 distinct facet normals.  sq-S1-S2-S3-S4 is
# square-lambda + S1 + S2 + S3 + S4: 147 cones on 13 distinct rays and 53
# distinct facet normals.  Their `fan` documents (474 kB and 235 kB) are
# pinned by SHA-256 digest instead of a committed file.  kronecker-PI-R is
# P_0 + P_1 + I_0 + I_1 + R_1 over the Kronecker quiver and F_2, the
# preprojectives, preinjectives and a regular module: dimension vector
# (5, 5), 4,112 submodules, 7 chambers and 15 cones, with the ray (1, -1)
# that no summand without R_1 reaches.  Its `verify --grid-bound 1` golden
# (kronecker-PI-R.verify.json) takes about 3 s, so CI byte-compares it
# instead of this suite; the CI step says how to regenerate it.
# nakayama2-121-basis is nakayama2-121 after the change of basis
# NAKAYAMA_BASIS: the benchmark's `oracle` command on an input document,
# pinned to the preset's golden (SAME_GOLDEN).
INPUT_COMMANDS = {
    "kronecker-R4": {
        "newton": ["newton"],
        "fan": ["fan"],
        "verify": ["verify", "--grid-bound", "1"],
    },
    "sq-sq-sq": {
        "fan": ["fan"],
        "wall": ["wall"],
        "verify": ["verify", "--grid-bound", "0"],
    },
    "sq-S2-S3": {
        "fan": ["fan"],
        "verify": ["verify", "--grid-bound", "1"],
    },
    "a3-all": {
        "fan": ["fan"],
        "paths": ["paths"],
        "verify": ["verify", "--grid-bound", "1"],
    },
    "cube5": {
        "verify": ["verify", "--grid-bound", "0"],
    },
    "sq-S1-S2-S3-S4": {
        "verify": ["verify", "--grid-bound", "1"],
    },
    "kronecker-PI-R": {
        "fan": ["fan"],
    },
    "nakayama2-121-basis": {
        "verify-16": ["verify", "--grid-bound", "16"],
    },
}
# cases whose output is another case's golden, byte for byte
SAME_GOLDEN = {"nakayama2-121-basis.verify-16": "nakayama2-121.verify-16"}
# g_1 at vertex 1 and g_2 at vertex 2: arrow a carries g_2 A_a g_1^-1
NAKAYAMA_BASIS = ([[1, 1], [0, 1]], [[1]])


def _cases():
    for preset in preset_names():
        for command in COMMANDS:
            yield f"{preset}.{command}", [command, "--preset", preset]
        theta = f"--theta={THETAS[preset]}"
        yield f"{preset}.classify", ["classify", "--preset", preset, theta]
        yield f"{preset}.verify", ["verify", "--preset", preset, "--grid-bound", "1"]
        # the default grid: pins the sample count (2,409 on square-lambda)
        yield f"{preset}.verify-default", ["verify", "--preset", preset]
        if preset_module(preset).algebra.n == 2:
            yield f"{preset}.svg", ["svg", "--preset", preset]
    for name, commands in PRESET_COMMANDS.items():
        for command, args in commands.items():
            yield f"{name}.{command}", [*args, "--preset", name]
    for name, commands in INPUT_COMMANDS.items():
        path = str(GOLDENS / f"{name}.input.json")
        for command, args in commands.items():
            yield f"{name}.{command}", [*args, "--input", path]


CASES = list(_cases())


def _golden(name):
    name = SAME_GOLDEN.get(name, name)
    return GOLDENS / (name if name.endswith(".svg") else f"{name}.json")


def _output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv):
    golden = _golden(name).read_text(encoding="utf-8")
    assert _output(argv) == golden


FAN_DIGESTS = {
    "cube5": "7b016cf326908904cb7bcd8d6fec26959cfbc926959291ff8faad97a64819e0e",
    "sq-S1-S2-S3-S4": "c1d7592cf2b1cc2b88d6a51ce022cb4737a33d042491e1066d107323a3c4425b",
}


@pytest.mark.parametrize("name", FAN_DIGESTS)
def test_wide_fan_documents_match_their_digests(name):
    """The class data of the widest fans, 243 and 147 cones, byte for
    byte: the SHA-256 of the `fan` document."""
    path = str(GOLDENS / f"{name}.input.json")
    text = _output(["fan", "--input", path])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FAN_DIGESTS[name]


def test_integer_labels_read_as_their_strings():
    """nakayama2-121 written with integer vertex and arrow labels, relation
    paths included, is the preset: the same fan, byte for byte."""
    path = str(GOLDENS / "nakayama2-121-int.input.json")
    golden = _golden("nakayama2-121.fan").read_text(encoding="utf-8")
    assert _output(["fan", "--input", path]) == golden


def test_the_family_constructors_build_the_golden_inputs():
    """R_4, the 5-cube, A_3-all and P_0 + P_1 + I_0 + I_1 + R_1 at p = 2,
    the sums of square-lambda and its simples at p = 3, and nakayama2-121
    after a change of basis, as their constructors build them, are the
    modules of their input documents, with the dimension vector, submodule
    count S and cone count C of each."""
    pi_r = direct_sum(kronecker_pi(1), kronecker_r(1))
    nakayama = change_of_basis(preset_module("nakayama2-121"), NAKAYAMA_BASIS)
    for name, module, dims, s, c in (
        ("kronecker-R4", kronecker_r(4), (4, 4), 227, 7),
        ("cube5", cube_module(5), (1, 1, 1, 1, 1), 32, 243),
        ("a3-all", a_n_all(3), (3, 4, 3), 1229, 45),
        ("sq-S2-S3", square_lambda_sum(0, (2, 3)), (0, 1, 1, 0), 4, 9),
        ("sq-S1-S2-S3-S4", square_lambda_sum(1, (1, 2, 3, 4)), (2, 2, 2, 2), 208, 147),
        ("sq-sq-sq", square_lambda_sum(3), (3, 3, 3, 3), 2060, 39),
        ("nakayama2-121-basis", nakayama, (2, 1), 4, 9),
        ("kronecker-PI-R", pi_r, (5, 5), 4112, 15),
    ):
        doc = json.loads((GOLDENS / f"{name}.input.json").read_text())
        assert module == module_from_doc(doc)[1], name
        assert module.algebra.p == (3 if name.startswith("sq-") else 2)
        assert module.dims == dims
        mtf = build_mtf_fan(module)
        assert (len(mtf.lattice), len(mtf.cones)) == (s, c)
    # the change of basis moves the matrix entries, not the output
    assert nakayama.maps != preset_module("nakayama2-121").maps
    # the completion of the g-fan: R_1 adds a chamber and the ray (1, -1)
    assert mtf.module == pi_r and len(mtf.maximal_indices()) == 7
    assert (1, -1) in {r for cone in mtf.cones for r in cone.rays}


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name, argv in CASES:
        _golden(name).write_text(_output(argv), encoding="utf-8")
        print(name, file=sys.stderr)
