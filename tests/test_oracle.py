"""Brute-force oracle agreement with the decorated fan."""

import dataclasses

import pytest

import mtfan.polyhedra
from mtfan.fan import MTFFan, build_mtf_fan
from mtfan.oracle import (
    build_sample_set,
    verify_dim_formula,
    verify_fan,
    verify_point,
)
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import zero_module


@pytest.mark.parametrize("name", preset_names())
def test_oracle_clean_on_presets(name):
    mtf = build_mtf_fan(preset_module(name))
    samples = build_sample_set(mtf, bound=2, seed=7)
    report = verify_fan(mtf, samples=samples)
    assert report.ok, report.failures
    assert report.checks >= len(samples.thetas)


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
        dataclasses.replace(d, supp_dims=()) if d.cone_index in on_wall else d
        for d in mtf.classes
    )
    report = verify_dim_formula(MTFFan(mtf.module, mtf.normal, classes))
    dims = {10: 3, 21: 2, 23: 2, 25: 2, 26: 2, 33: 1, 34: 1, 35: 1, 36: 1, 38: 0}
    assert report.checks == 49
    assert report.failures == tuple(
        f"cone {i}: dim {dims[i]} + rank(supp) 0 != 4" for i in on_wall
    ) + tuple(
        f"wall face of dim {d} is not the wall cut by its support span"
        for d in (0, 1, 1, 1, 1, 2, 2, 2, 2)
    )


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
    assert a.thetas == b.thetas
    located = {verify_point(mtf, t).cone_index for t in a.thetas}
    assert located == set(range(len(mtf.cones)))
