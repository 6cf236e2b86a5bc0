"""Brute-force oracle agreement with the decorated fan."""

import pytest

from mtfan.fan import build_mtf_fan
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


def test_verify_point_on_specific_functionals():
    mtf = build_mtf_fan(preset_module("a2-P1"))
    for theta in ((0, 0), (2, 1), (0, 1), (-1, 0), (1, -1), (-3, -5)):
        rep = verify_point(mtf, theta)
        assert rep.ok, rep.failures


def test_sample_set_is_deterministic_and_covers_all_cones():
    mtf = build_mtf_fan(preset_module("nakayama2-121"))
    a = build_sample_set(mtf, bound=2, seed=11)
    b = build_sample_set(mtf, bound=2, seed=11)
    assert a.thetas == b.thetas
    located = {verify_point(mtf, t).cone_index for t in a.thetas}
    assert located == set(range(len(mtf.cones)))
