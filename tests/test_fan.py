"""Decorated fans: construction, walls, facet partitions, paths."""

import dataclasses
import gc
import sys
import weakref

import pytest

import mtfan.fan
import mtfan.polyhedra
import mtfan.quiver
from mtfan.errors import InvariantError, ModuleDefinitionError
from mtfan.fan import (
    boundary_regions,
    build_mtf_fan,
    class_of,
    face_restriction_check,
    facet_partition,
    fan_paths,
    smallest_cone,
    wall_cone,
)
from mtfan.polyhedra import (
    cone_from_generators,
    cone_from_hrep,
    full_cone,
    minkowski_sum,
    validate_generalized_fan,
)
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import (
    dim_vector,
    direct_sum,
    quotient_module,
    simple_module,
    submodule_full,
    submodule_zero,
    zero_module,
)
from mtfan.stability import canonical_sequences, supp_factors, t_set


def fan_of(name):
    return build_mtf_fan(preset_module(name))


def ray2(x, y):
    return cone_from_generators(2, rays=[(x, y)])


def test_cone_counts():
    assert len(fan_of("a2-P1").cones) == 7
    assert len(fan_of("a2-S1").cones) == 3
    assert len(fan_of("nakayama2-121").cones) == 9
    assert len(fan_of("square-lambda").cones) == 39


def test_maximal_counts():
    assert len(fan_of("a2-P1").maximal_indices()) == 3
    assert len(fan_of("a2-S1").maximal_indices()) == 2
    assert len(fan_of("nakayama2-121").maximal_indices()) == 4
    assert len(fan_of("square-lambda").maximal_indices()) == 6


def test_dimension_duality_and_validation():
    for name in ("a2-P1", "a2-S1", "nakayama2-121"):
        mtf = fan_of(name)
        n = mtf.n
        for i, cone in enumerate(mtf.cones):
            assert cone.dim + mtf.newton.faces[i].dim == n
        assert validate_generalized_fan(mtf.fan).ok


def test_class_data_on_the_one_arrow_module():
    mtf = fan_of("a2-P1")
    by_cone = {mtf.cones[i]: d for i, d in enumerate(mtf.classes)}
    origin = cone_from_hrep(2, [(1, 0), (0, 1)], [])
    d = by_cone[origin]
    assert d.t_dims == (0, 0) and d.tbar_dims == (1, 1)
    assert d.supp_dims == ((0, 1), (1, 0))
    d = by_cone[ray2(0, 1)]
    assert d.t_dims == (0, 1) and d.w_dims == (1, 0)
    assert d.supp_dims == ((1, 0),)
    d = by_cone[ray2(-1, 0)]
    assert d.t_dims == (0, 0) and d.tbar_dims == (0, 1)
    assert d.supp_dims == ((0, 1),)
    d = by_cone[ray2(1, -1)]
    assert d.w_dims == (1, 1) and d.supp_dims == ((1, 1),)
    # chambers: everything torsion / top torsion / everything free
    chamber = cone_from_hrep(2, [], [(1, 0), (1, 1)])
    d = by_cone[chamber]
    assert d.t_dims == (1, 1) and d.f_dims == (0, 0)
    chamber = cone_from_hrep(2, [], [(-1, 0), (0, 1)])
    d = by_cone[chamber]
    assert d.t_dims == (0, 1) and d.f_dims == (1, 0)
    chamber = cone_from_hrep(2, [], [(0, -1), (-1, -1)])
    d = by_cone[chamber]
    assert d.t_dims == (0, 0) and d.f_dims == (1, 1)


def test_maximal_iff_middle_slice_vanishes():
    for name in ("a2-P1", "a2-S1", "nakayama2-121", "square-lambda"):
        mtf = fan_of(name)
        for i, cone in enumerate(mtf.cones):
            is_max = cone.dim == mtf.n
            w_zero = not any(mtf.classes[i].w_dims)
            assert is_max == w_zero


def test_class_of_locates():
    mtf = fan_of("a2-P1")
    idx = class_of(mtf, (2, 1))
    assert mtf.classes[idx].t_dims == (1, 1)
    assert mtf.cones[idx].contains_relint((2, 1))
    assert mtf.cones[class_of(mtf, (0, 0))].dim == 0


def test_wall_cones():
    assert wall_cone(fan_of("a2-P1")) == ray2(1, -1)
    assert wall_cone(fan_of("a2-S1")) == cone_from_hrep(2, [(1, 0)], [])
    assert wall_cone(fan_of("nakayama2-121")) == cone_from_hrep(
        2, [(1, 0), (0, 1)], []
    )
    wall = wall_cone(fan_of("square-lambda"))
    assert wall.dim == 3
    assert wall.rays == (
        (0, 0, 1, -1),
        (0, 1, 0, -1),
        (1, -1, 0, 0),
        (1, 0, -1, 0),
    )


def test_wall_cone_is_cached_and_rejects_zero_module():
    mtf = fan_of("a2-P1")
    assert wall_cone(mtf) is wall_cone(mtf) is mtf.wall
    z = build_mtf_fan(zero_module(preset_module("a2-P1").algebra))
    with pytest.raises(ModuleDefinitionError):
        wall_cone(z)


def test_a_walled_fan_is_freed_with_its_last_reference():
    mtf = fan_of("square-lambda")
    wall_cone(mtf)
    ref = weakref.ref(mtf)
    del mtf
    gc.collect()
    assert ref() is None


def test_smallest_cones():
    assert smallest_cone(fan_of("a2-P1")) == cone_from_hrep(
        2, [(1, 0), (0, 1)], []
    )
    # vanishing first vertex frees the first coordinate line
    assert smallest_cone(fan_of("a2-S1")) == cone_from_generators(
        2, lineality=[(0, 1)]
    )
    assert smallest_cone(fan_of("square-lambda")).dim == 0
    z = build_mtf_fan(zero_module(preset_module("a2-P1").algebra))
    assert smallest_cone(z) == full_cone(2)


def test_facet_partition_on_a2():
    mtf = fan_of("a2-P1")

    def parts(chamber):
        plus, minus = facet_partition(mtf, mtf.cones.index(chamber))
        return {mtf.cones[i] for i in plus}, {mtf.cones[i] for i in minus}

    top = cone_from_hrep(2, [], [(1, 0), (1, 1)])  # vertex (1, 1)
    assert parts(top) == ({ray2(0, 1), ray2(1, -1)}, set())
    mid = cone_from_hrep(2, [], [(-1, 0), (0, 1)])  # vertex (0, 1)
    assert parts(mid) == ({ray2(-1, 0)}, {ray2(0, 1)})
    low = cone_from_hrep(2, [], [(0, -1), (-1, -1)])  # vertex (0, 0)
    assert parts(low) == (set(), {ray2(-1, 0), ray2(1, -1)})


def test_facet_partition_requires_maximal_cone():
    mtf = fan_of("a2-P1")
    with pytest.raises(ModuleDefinitionError):
        facet_partition(mtf, mtf.cones.index(ray2(0, 1)))


def test_boundary_regions_cover_the_boundary():
    for name in ("a2-P1", "nakayama2-121", "square-lambda"):
        mtf = fan_of(name)
        for i in mtf.maximal_indices():
            plus, minus = boundary_regions(mtf, i)
            assert len(plus) + len(minus) == len(mtf.cones[i].ineqs)


@pytest.mark.parametrize("name", ["a2-P1", "square-lambda"])
def test_boundary_regions_reject_an_uncovered_face(name, monkeypatch):
    mtf = fan_of(name)
    idx = mtf.maximal_indices()[0]
    plus, minus = facet_partition(mtf, idx)
    monkeypatch.setattr(
        mtfan.fan, "facet_partition", lambda m, i: (((plus + minus)[0],), ())
    )
    with pytest.raises(InvariantError, match="a face of dim 1 lies in no listed facet"):
        boundary_regions(mtf, idx)


def test_fan_paths_on_a2():
    mtf = fan_of("a2-P1")
    cat = fan_paths(mtf)
    assert set(cat.vertices) == {(0, 0), (0, 1), (1, 1)}
    assert len(cat.increasing_paths) == 7
    newton = {cat.newton_path(p) for p in cat.maximal_paths}
    assert newton == {
        ((0, 0), (0, 1), (1, 1)),
        ((0, 0), (1, 1)),
    }
    for p in cat.maximal_paths:
        assert all(mtf.cones[c].dim == mtf.n for c in p)


def test_fan_paths_on_nakayama():
    cat = fan_paths(fan_of("nakayama2-121"))
    newton = {cat.newton_path(p) for p in cat.maximal_paths}
    assert newton == {
        ((0, 0), (1, 0), (2, 1)),
        ((0, 0), (1, 1), (2, 1)),
    }


def test_fan_paths_zero_module():
    z = build_mtf_fan(zero_module(preset_module("a2-P1").algebra))
    cat = fan_paths(z)
    assert cat.vertices == ((0, 0),)
    assert cat.increasing_paths == ((0,),)
    assert cat.maximal_paths == ((0,),)


def test_face_restriction():
    mtf = fan_of("a2-P1")
    top = mtf.cones.index(cone_from_hrep(2, [], [(1, 0), (1, 1)]))
    origin = mtf.cones.index(cone_from_hrep(2, [(1, 0), (0, 1)], []))
    assert face_restriction_check(mtf, top, mtf.cones.index(ray2(0, 1)))
    assert face_restriction_check(mtf, top, origin)
    with pytest.raises(ModuleDefinitionError):
        face_restriction_check(mtf, top, mtf.cones.index(ray2(-1, 0)))


def test_direct_sum_newton_is_minkowski_and_fan_refines():
    m = preset_module("a2-P1")
    s = simple_module(m.algebra, 1)
    both = direct_sum(m, s)
    fm = build_mtf_fan(m)
    fs = build_mtf_fan(s)
    fb = build_mtf_fan(both)
    assert fb.newton.vertices == minkowski_sum(fm.newton, fs.newton).vertices
    # the fan of a direct sum refines the fans of its summands
    for cone in fb.cones:
        assert any(c.contains_cone(cone) for c in fm.cones)
        assert any(c.contains_cone(cone) for c in fs.cones)


def test_direct_sum_with_nakayama():
    m = preset_module("nakayama2-121")
    s = simple_module(m.algebra, 2)
    both = direct_sum(m, s)
    fm = build_mtf_fan(m)
    fs = build_mtf_fan(s)
    fb = build_mtf_fan(both)
    assert fb.newton.vertices == minkowski_sum(fm.newton, fs.newton).vertices
    for cone in fb.cones:
        assert any(c.contains_cone(cone) for c in fm.cones)
        assert any(c.contains_cone(cone) for c in fs.cones)


def _sq_plus_s1():
    m = preset_module("square-lambda")
    return direct_sum(m, simple_module(m.algebra, 1))


@pytest.mark.parametrize("name", [*preset_names(), "sq+S1"])
def test_lattice_class_data_matches_the_definitions(name):
    """The build reads class data off the lattice; the definition routes
    (torsion scans, subquotient semistability) must give the same data at
    every cone's witness."""
    module = _sq_plus_s1() if name == "sq+S1" else preset_module(name)
    mtf = build_mtf_fan(module)
    for cone, data in zip(mtf.cones, mtf.classes):
        theta = cone.relint_point()
        cs = canonical_sequences(theta, module)
        assert (cs.t, cs.tbar) == (data.t, data.tbar)
        assert (data.t_dims, data.tbar_dims) == (cs.t.dims, cs.tbar.dims)
        assert data.w_dims == dim_vector(cs.w)
        assert data.f_dims == dim_vector(cs.f)
        assert data.fbar_dims == dim_vector(cs.fbar)
        supp = tuple(sorted(d for _, d in supp_factors(theta, cs.w)))
        assert data.supp_dims == supp
        assert data.t_set == t_set(theta, module)


@pytest.mark.parametrize("name", preset_names())
def test_the_build_presents_no_subquotient(name, monkeypatch):
    """Only the oracle's definition routes build subquotient modules, so
    their memo never serves the fan, its wall or its paths."""
    real = mtfan.quiver.subquotient

    def refuse(*args):
        raise AssertionError("a subquotient module was built")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mtfan" or mod_name.startswith("mtfan."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, refuse)
    module = preset_module(name)
    with pytest.raises(AssertionError, match="subquotient"):
        quotient_module(module, submodule_zero(module))
    mtf = build_mtf_fan(module)
    wall_cone(mtf)
    fan_paths(mtf)


@pytest.mark.parametrize("name", [*preset_names(), "sq+S1"])
def test_fan_queries_build_no_cone_by_double_description(name, monkeypatch):
    """The fan names its cones by index and compares a derived cone with a
    fan cone by face key, so no query builds a Cone by double description,
    and the wall and the smallest cone are the fan's own cone objects."""
    refused = (
        mtfan.polyhedra.cone_from_hrep,
        mtfan.polyhedra.cone_intersection,
        mtfan.polyhedra.cone_from_generators,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a cone was built by double description")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mtfan" or mod_name.startswith("mtfan."):
            for attr, value in list(vars(mod).items()):
                if any(value is f for f in refused):
                    monkeypatch.setattr(mod, attr, refuse)
    with pytest.raises(AssertionError, match="double description"):
        mtfan.polyhedra.cone_intersection(None, None)
    module = _sq_plus_s1() if name == "sq+S1" else preset_module(name)
    mtf = build_mtf_fan(module)
    assert any(wall_cone(mtf) is c for c in mtf.cones)
    assert any(smallest_cone(mtf) is c for c in mtf.cones)
    fan_paths(mtf)
    for i in mtf.maximal_indices():
        assert facet_partition(mtf, i) == boundary_regions(mtf, i)
    i = mtf.maximal_indices()[0]
    plus, minus = facet_partition(mtf, i)
    assert face_restriction_check(mtf, i, (plus + minus)[0])


def test_build_raises_when_random_points_disagree(monkeypatch):
    real = mtfan.fan._lattice_class
    calls = []

    def wrong_t_after_the_witness(subs, theta):
        t, tbar, supp, ts = real(subs, theta)
        calls.append(theta)
        if len(calls) > 1:  # the random interior points of the first cone
            M = t.module
            t = submodule_zero(M) if t.total_dim else submodule_full(M)
        return t, tbar, supp, ts

    monkeypatch.setattr(mtfan.fan, "_lattice_class", wrong_t_after_the_witness)
    with pytest.raises(InvariantError, match="differs inside the cone"):
        build_mtf_fan(preset_module("a2-P1"))


def test_corrupted_cone_table_raises_invariant_error():
    mtf = build_mtf_fan(preset_module("a2-P1"))
    cones = list(mtf.cones)
    # the cone of the vertex 0 trades places with the cone of the whole polytope
    cones[0], cones[-1] = cones[-1], cones[0]
    bad = dataclasses.replace(
        mtf, fan=dataclasses.replace(mtf.fan, cones=tuple(cones))
    )
    with pytest.raises(InvariantError, match="smallest face through 0 and"):
        wall_cone(bad)
    with pytest.raises(InvariantError):
        smallest_cone(bad)
