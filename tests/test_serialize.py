"""Exact-string JSON encoding and input parsing."""

from fractions import Fraction

import pytest

from mtfan.errors import InputFormatError
from mtfan.fan import build_mtf_fan
from mtfan.presets import preset_module
from mtfan.serialize import (
    algebra_doc,
    cone_doc,
    frac_str,
    module_from_doc,
    parse_frac,
    polytope_doc,
    vec_strs,
)
from referee import cone_from_doc


def test_frac_str_and_parse_round_trip():
    for x in (0, 3, -2, Fraction(1, 2), Fraction(-7, 3)):
        assert parse_frac(frac_str(x)) == Fraction(x)
    assert frac_str(Fraction(2, 4)) == "1/2"
    assert vec_strs((1, Fraction(-1, 3))) == ["1", "-1/3"]


def test_parse_frac_rejects_garbage():
    with pytest.raises(InputFormatError):
        parse_frac("one half")
    with pytest.raises(InputFormatError):
        parse_frac("1/0")


def test_module_from_doc_round_trip():
    doc = {
        "p": 2,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
        "relations": [],
        "module": {"dims": {"1": 1, "2": 1}, "maps": {"a": [[1]]}},
    }
    algebra, module = module_from_doc(doc)
    assert module == preset_module("a2-P1")
    # the algebra document reproduces the defining data
    adoc = algebra_doc(algebra)
    assert adoc["p"] == 2
    assert adoc["vertices"] == ["1", "2"]
    assert adoc["arrows"] == [{"name": "a", "from": "1", "to": "2"}]
    assert adoc["relations"] == []


def test_module_from_doc_requires_keys():
    with pytest.raises(InputFormatError):
        module_from_doc([])
    with pytest.raises(InputFormatError):
        module_from_doc({"p": 2, "vertices": ["1"], "arrows": []})
    with pytest.raises(InputFormatError):
        module_from_doc(
            {"p": 2, "vertices": ["1"], "arrows": [], "module": {"maps": {}}}
        )


def test_algebra_doc_with_relations():
    doc = {
        "p": 2,
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "a", "from": "1", "to": "2"},
            {"name": "b", "from": "2", "to": "1"},
        ],
        "relations": [
            [{"coeff": 1, "path": ["a", "b", "a"]}],
            [{"coeff": 1, "path": ["b", "a", "b"]}],
        ],
        "module": {"dims": {"1": 2, "2": 1}, "maps": {"a": [[1, 0]], "b": [[0], [1]]}},
    }
    algebra, module = module_from_doc(doc)
    assert module == preset_module("nakayama2-121")
    adoc = algebra_doc(algebra)
    assert adoc["relations"] == doc["relations"]


def test_polytope_doc_children_are_consistent():
    mtf = build_mtf_fan(preset_module("a2-P1"))
    doc = polytope_doc(mtf.newton)
    by_id = {f["id"]: f for f in doc["faces"]}
    for f in doc["faces"]:
        for child in f["children"]:
            assert by_id[child]["dim"] == f["dim"] - 1
            assert set(by_id[child]["vertex_ids"]) < set(f["vertex_ids"])


def test_cone_doc_no_id_key_when_unset():
    mtf = build_mtf_fan(preset_module("a2-P1"))
    doc = cone_doc(mtf.cones[0])
    assert "id" not in doc
    assert cone_from_doc(doc, 2) == mtf.cones[0]
