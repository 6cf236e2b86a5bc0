"""The record types: immutable values with equality, hashing and a
`Name(field=...)` repr.

Ten are named tuples; Module, Submodule, Cone, Polytope and MTFFan are
`mtfan.record.Record` subclasses, because each holds memos (its cached hash
and any `cached_property`) that take no part in equality, hashing or the
repr.
"""

import inspect

import pytest

from mtfan.fan import build_mtf_fan, fan_paths
from mtfan.oracle import verify_dim_formula, verify_point
from mtfan.polyhedra import validate_generalized_fan
from mtfan.presets import preset_module
from mtfan.stability import canonical_sequences
from mtfan.sublattice import enumerate_submodules


def _records():
    """One instance of each of the fifteen record types, by type name."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    module = mtf.module
    records = [
        module.algebra.arrows[0],
        module.algebra,
        module,
        enumerate_submodules(module)[1],
        mtf.cones[0],
        mtf.newton.faces[0],
        mtf.newton,
        mtf.fan,
        validate_generalized_fan(mtf.fan),
        mtf.classes[0],
        mtf,
        fan_paths(mtf),
        verify_point(mtf, (0, 0)),
        verify_dim_formula(mtf),
        canonical_sequences((0, 0), module),
    ]
    return {type(r).__name__: r for r in records}


RECORDS = _records()


def _fields(record):
    return tuple(inspect.signature(type(record)).parameters)


# reads every memo of a Record subclass but its hash
FILL_MEMOS = {
    "Cone": lambda cone: cone.face_keys,
    "MTFFan": lambda mtf: mtf.wall,
    "Polytope": lambda P: [
        P.face_id(P.faces[-1].vertex_ids), P.face_children(len(P.faces) - 1)
    ],
    "Submodule": lambda sub: sub.dims,
}


def test_every_record_type_is_covered():
    assert sorted(RECORDS) == sorted(
        [
            "Arrow",
            "BoundQuiverAlgebra",
            "CanonicalSequenceData",
            "Cone",
            "Face",
            "FanPathCatalog",
            "FanValidationReport",
            "GeneralizedFan",
            "MTFFan",
            "Module",
            "OracleReport",
            "PointReport",
            "Polytope",
            "Submodule",
            "TFClassData",
        ]
    )


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_values_and_hashes(name):
    record = RECORDS[name]
    values = [getattr(record, f) for f in _fields(record)]
    a, b = type(record)(*values), type(record)(*values)
    # a memo must not leak into equality, hashing or the repr
    hash(a)
    if name in FILL_MEMOS:
        FILL_MEMOS[name](a)
        assert set(vars(a)) > set(vars(b))
    assert a is not b and a == b == record
    assert not a != b
    assert hash(a) == hash(b) == hash(record)
    assert repr(a) == repr(b) == repr(record)
    assert len({a, b, record}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name]
    for field in _fields(record):
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_the_type_and_each_field(name):
    record = RECORDS[name]
    inner = ", ".join(f"{f}={getattr(record, f)!r}" for f in _fields(record))
    assert repr(record) == f"{name}({inner})"


def test_records_of_different_types_or_fields_differ():
    cone, other = RECORDS["Cone"], RECORDS["MTFFan"].cones[1]
    assert cone != other
    assert RECORDS["Module"] != RECORDS["Submodule"].module.algebra
    sub = RECORDS["Submodule"]
    top = enumerate_submodules(sub.module)[-1]
    assert sub != top and sub.module == top.module
