"""Brute-force oracle agreement with the decorated fan."""

import dataclasses
import sys
from fractions import Fraction

import pytest

import mtfan.oracle
import mtfan.polyhedra
import mtfan.quiver
import mtfan.stability
from mtfan.exact import as_theta
from mtfan.fan import MTFFan, build_mtf_fan
from mtfan.oracle import (
    build_sample_set,
    verify_dim_formula,
    verify_fan,
    verify_point,
)
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import zero_module
from mtfan.stability import canonical_sequences, t_set


@pytest.mark.parametrize("name", preset_names())
def test_oracle_clean_on_presets(name):
    mtf = build_mtf_fan(preset_module(name))
    samples = build_sample_set(mtf, bound=2, seed=7)
    report = verify_fan(mtf, samples=samples)
    assert report.ok, report.failures
    assert report.checks >= len(samples)


def test_oracle_clean_on_zero_module():
    mtf = build_mtf_fan(zero_module(preset_module("a2-P1").algebra))
    assert len(mtf.cones) == 1
    report = verify_fan(mtf)
    assert report.ok, report.failures


@pytest.mark.parametrize("name", preset_names())
def test_dim_formula(name):
    mtf = build_mtf_fan(preset_module(name))
    report = verify_dim_formula(mtf)
    assert report.ok, report.failures


def test_dim_formula_reports_wall_faces_with_a_wrong_support():
    """Blank the support of the ten fan cones that are faces of the
    square-lambda wall: each breaks dim + rank(supp) = n, and every proper
    wall face stops being the wall cut by its support span.  The wall
    faces are reported in ascending dimension."""
    mtf = build_mtf_fan(preset_module("square-lambda"))
    on_wall = (10, 21, 23, 25, 26, 33, 34, 35, 36, 38)
    assert on_wall == tuple(
        i for i, c in enumerate(mtf.cones) if c.is_face_of(mtf.wall)
    )
    classes = tuple(
        dataclasses.replace(d, supp_dims=()) if i in on_wall else d
        for i, d in enumerate(mtf.classes)
    )
    report = verify_dim_formula(MTFFan(mtf.module, mtf.newton, mtf.fan, classes))
    dims = {10: 3, 21: 2, 23: 2, 25: 2, 26: 2, 33: 1, 34: 1, 35: 1, 36: 1, 38: 0}
    assert report.checks == 49
    assert report.failures == tuple(
        f"cone {i}: dim {dims[i]} + rank(supp) 0 != 4" for i in on_wall
    ) + tuple(
        f"wall face of dim {d} is not the wall cut by its support span"
        for d in (0, 1, 1, 1, 1, 2, 2, 2, 2)
    )


def _corrupted(name, field, index):
    """The fan of a preset with one cone's class data replaced: t by tbar,
    or the support by the single class (1, ..., 1)."""
    mtf = build_mtf_fan(preset_module(name))

    def corrupt(d):
        if field == "t":
            return dataclasses.replace(d, t=d.tbar)
        return dataclasses.replace(d, supp_dims=((1,) * mtf.n,))

    classes = tuple(
        corrupt(d) if i == index else d for i, d in enumerate(mtf.classes)
    )
    return dataclasses.replace(mtf, classes=classes)


def _support_failures(support, thetas):
    return tuple(
        f"theta {theta}: support () != cone support ({support},)"
        for theta in thetas
    )


BAD_FANS = {
    ("a2-P1", "t", 3): (
        78,
        ("theta (-1, 0): canonical filtration differs from the cone's",),
    ),
    ("a2-P1", "supp_dims", 0): (
        78,
        _support_failures(
            "(1, 1)",
            (
                "(-1, -1)",
                "(0, -1)",
                "(0, -2)",
                "(-1, -2)",
                "(1, -2)",
            ),
        ),
    ),
    ("square-lambda", "t", 27): (
        2411,
        ("theta (-1, 0, 0, 1): canonical filtration differs from the cone's",),
    ),
    ("square-lambda", "supp_dims", 5): (
        2411,
        _support_failures(
            "(1, 1, 1, 1)",
            (
                "(1, 0, 0, 0)",
                "(1, 0, 0, 1)",
                "(1, 0, 1, -1)",
                "(1, 0, 1, 0)",
                "(1, 0, 1, 1)",
                "(1, 1, 0, -1)",
                "(1, 1, 0, 0)",
                "(1, 1, 0, 1)",
                "(1, 1, 1, -1)",
                "(1, 1, 1, 0)",
                "(1, 1, 1, 1)",
                "(2, 0, 0, -1)",
                "(3, 2, 3, -1)",
                "(2, 0, -1, 0)",
                "(1, 2, 1, -2)",
            ),
        ),
    ),
}


@pytest.mark.parametrize("name,field,index", list(BAD_FANS))
def test_oracle_reports_corrupted_class_data(name, field, index):
    """verify_fan recomputes t and the support at every sample from the
    definitions, so a wrong entry in one cone's class data is reported at
    every sample located in that cone."""
    bad = _corrupted(name, field, index)
    report = verify_fan(bad, samples=build_sample_set(bad, bound=1))
    assert (report.checks, report.failures) == BAD_FANS[name, field, index]


def test_oracle_messages_print_rational_functionals():
    bad = _corrupted("a2-P1", "supp_dims", 0)
    samples = (as_theta((Fraction(-1, 2), -1), 2),)
    report = verify_fan(bad, samples=samples)
    assert report.checks == 1
    assert report.failures == (
        "theta (-1/2, -1): support () != cone support ((1, 1),)",
        "cones never sampled: [1, 2, 3, 4, 5, 6]",
    )


def test_oracle_reports_a_definition_t_set_off_the_lattice(monkeypatch):
    """The definition t-set at theta must be the set of submodules where
    theta is largest.  At 0 every submodule of a2-P1 is there, so a t-set
    cut down to {t} is reported at the first submodule it misses."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    assert len(t_set((0, 0), mtf.module)) == 3

    def only_t(theta, module):
        return frozenset({canonical_sequences(theta, module).t})

    monkeypatch.setattr(mtfan.oracle, "t_set", only_t)
    assert verify_point(mtf, (0, 0)).failures == (
        "t-set mismatch at submodule of class (0, 1)",
    )
    assert verify_point(mtf, (2, 1)).ok


def test_verify_point_on_specific_functionals():
    mtf = build_mtf_fan(preset_module("a2-P1"))
    for theta in ((0, 0), (2, 1), (0, 1), (-1, 0), (1, -1), (-3, -5)):
        rep = verify_point(mtf, theta)
        assert rep.ok, rep.failures


def test_sample_set_builds_no_cone(monkeypatch):
    """Facet witnesses are ray sums of face keys, not relative-interior
    points of facet cones built by double description."""
    mtf = build_mtf_fan(preset_module("square-lambda"))
    real = mtfan.polyhedra.cone_from_hrep
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mtfan.polyhedra, "cone_from_hrep", counting)
    build_sample_set(mtf, bound=1)
    assert calls == []


def test_sample_set_is_deterministic_and_covers_all_cones():
    mtf = build_mtf_fan(preset_module("nakayama2-121"))
    a = build_sample_set(mtf, bound=2, seed=11)
    b = build_sample_set(mtf, bound=2, seed=11)
    assert a == b
    located = {verify_point(mtf, t).cone_index for t in a}
    assert located == set(range(len(mtf.cones)))


def test_oracle_containment_tests_do_not_grow_with_the_functionals(monkeypatch):
    """The order table decides each pair of submodules once per module, so
    verify_fan on nakayama2-121 at --grid-bound 16 (1,097 functionals) makes
    41 containment tests, counted through every alias; scans that test every
    pair at each functional made 26,033."""
    mtf = build_mtf_fan(preset_module("nakayama2-121"))
    samples = build_sample_set(mtf, bound=16)
    for memo in (
        mtfan.stability._order,
        mtfan.stability._canonical_sequences,
        mtfan.stability._t_set,
        mtfan.quiver.subquotient,
    ):
        memo.cache_clear()
    real = mtfan.quiver.submodule_contains
    calls = []

    def counting(outer, inner):
        calls.append(None)
        return real(outer, inner)

    for name, mod in list(sys.modules.items()):
        if name.startswith("mtfan") and getattr(mod, "submodule_contains", None) is real:
            monkeypatch.setattr(mod, "submodule_contains", counting)
    report = verify_fan(mtf, samples=samples)
    assert report.ok, report.failures
    assert len(samples) == 1097
    assert len(calls) <= 50
