"""Decorated fans: construction, walls, facet partitions, paths."""

import gc
import json
import sys
import weakref

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import mtfan.fan
import mtfan.polyhedra
import mtfan.quiver
from mtfan.errors import InvariantError, ModuleDefinitionError
from mtfan.fan import (
    MTFFan,
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
    cone_from_hrep,
    convex_hull,
    minkowski_sum,
    normal_fan,
    validate_generalized_fan,
)
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import build_module, direct_sum, simple_module
from mtfan.serialize import class_doc, fan_doc, vec_strs
from mtfan.stability import canonical_sequences, supp_factors, t_set
from mtfan.sublattice import (
    enumerate_submodules,
    newton_polytope,
    submodule_dim_vectors,
)
from referee import (
    class_data_by_rescans,
    count_calls,
    cone_from_generators,
    full_cone,
    kronecker_i,
    kronecker_p,
    kronecker_pi,
    module_and_change_of_basis,
    preset_direct_sum,
    random_kronecker_module,
    t_set_by_scan,
    top_points,
)


def zero_fan():
    """The fan of the zero module over the algebra of a2-P1."""
    A = preset_module("a2-P1").algebra
    return build_mtf_fan(build_module(A, (0,) * A.n, [None] * len(A.arrows)))


def fan_of(name):
    return build_mtf_fan(preset_module(name))


def ray2(x, y):
    return cone_from_generators(2, rays=[(x, y)])


def minus(u, v):
    """Coordinatewise u - v: w = tbar - t, f = M - tbar, fbar = M - t."""
    return tuple(a - b for a, b in zip(u, v))


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
    M = mtf.module.dims
    d = by_cone[origin]
    assert d.t.dims == (0, 0) and d.tbar.dims == (1, 1)
    assert d.supp_dims == ((0, 1), (1, 0))
    d = by_cone[ray2(0, 1)]
    assert d.t.dims == (0, 1) and minus(d.tbar.dims, d.t.dims) == (1, 0)
    assert d.supp_dims == ((1, 0),)
    d = by_cone[ray2(-1, 0)]
    assert d.t.dims == (0, 0) and d.tbar.dims == (0, 1)
    assert d.supp_dims == ((0, 1),)
    d = by_cone[ray2(1, -1)]
    assert minus(d.tbar.dims, d.t.dims) == (1, 1) and d.supp_dims == ((1, 1),)
    # chambers: everything torsion / top torsion / everything free
    chamber = cone_from_hrep(2, [], [(1, 0), (1, 1)])
    d = by_cone[chamber]
    assert d.t.dims == (1, 1) and minus(M, d.tbar.dims) == (0, 0)
    chamber = cone_from_hrep(2, [], [(-1, 0), (0, 1)])
    d = by_cone[chamber]
    assert d.t.dims == (0, 1) and minus(M, d.tbar.dims) == (1, 0)
    chamber = cone_from_hrep(2, [], [(0, -1), (-1, -1)])
    d = by_cone[chamber]
    assert d.t.dims == (0, 0) and minus(M, d.tbar.dims) == (1, 1)


def test_maximal_iff_middle_slice_vanishes():
    for name in ("a2-P1", "a2-S1", "nakayama2-121", "square-lambda"):
        mtf = fan_of(name)
        for i, cone in enumerate(mtf.cones):
            is_max = cone.dim == mtf.n
            d = mtf.classes[i]
            w_zero = d.t.dims == d.tbar.dims
            assert is_max == w_zero


def test_class_of_locates():
    mtf = fan_of("a2-P1")
    idx = class_of(mtf, (2, 1))
    assert mtf.classes[idx].t.dims == (1, 1)
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
    z = zero_fan()
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
    z = zero_fan()
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


def test_oriented_edges_point_up_and_reject_incomparable_vertices():
    P = convex_hull([(1, 1), (0, 0), (0, 1), (1, 2)], 2)
    edges = mtfan.fan._oriented_edges(P)
    assert len(edges) == len(P.edges()) == 4
    for _, lo, hi in edges:
        u, v = P.vertices[lo], P.vertices[hi]
        assert u != v and all(a <= b for a, b in zip(u, v))
    with pytest.raises(InvariantError, match="incomparable"):
        mtfan.fan._oriented_edges(convex_hull([(1, 0), (0, 1)], 2))


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
    z = zero_fan()
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


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda p: st.tuples(*[random_kronecker_module(p, max_dim=2)] * 2)
    )
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_direct_sum_newton_is_minkowski_on_random_kronecker_modules(pair):
    """N(a + b) = N(a) + N(b) for random Kronecker modules a and b over one
    F_p, dims at most 2 at each vertex, and every maximal cone of the sum's
    fan, the normal fan of its Newton polytope, lies in a maximal cone of
    each summand's fan."""
    a, b = pair
    polytopes = [newton_polytope(m) for m in (direct_sum(a, b), a, b)]
    assert polytopes[0] == minkowski_sum(*polytopes[1:])
    fans = [normal_fan(P) for P in polytopes]
    for i in fans[0].maximal_indices():
        for f in fans[1:]:
            assert any(
                f.cones[j].contains_cone(fans[0].cones[i])
                for j in f.maximal_indices()
            )


def _rays(mtf):
    return {r for c in mtf.cones for r in c.rays}


@pytest.mark.parametrize(
    "module,dims,ray",
    [
        (kronecker_p(1), (1, 2), (2, -1)),
        (kronecker_p(2), (2, 3), (3, -2)),
        (kronecker_i(1), (2, 1), (1, -2)),
        (kronecker_i(2), (3, 2), (2, -3)),
    ],
)
def test_preprojective_and_preinjective_kronecker_fans(module, dims, ray):
    """P_k and I_k over F_2: each fan has 3 chambers and 7 cones, and one
    ray off the coordinate axes, (k + 1, -k) for P_k and (k, -(k + 1)) for
    I_k."""
    mtf = build_mtf_fan(module)
    assert mtf.module.dims == dims
    assert (len(mtf.maximal_indices()), len(mtf.cones)) == (3, 7)
    assert ray in _rays(mtf)


def test_kronecker_preprojectives_and_preinjectives_miss_the_imaginary_ray():
    """P_0 + P_1 + I_0 + I_1 over F_2 has 496 submodules, 6 chambers, 13
    cones and 6 rays, none of them (1, -1).  Adding the regular module R_1
    gives the golden input kronecker-PI-R, whose fan reaches (1, -1)."""
    mtf = build_mtf_fan(kronecker_pi(1))
    assert len(mtf.lattice) == 496
    assert (len(mtf.maximal_indices()), len(mtf.cones)) == (6, 13)
    assert len(_rays(mtf)) == 6 and (1, -1) not in _rays(mtf)


def _sq_plus_s1():
    m = preset_module("square-lambda")
    return direct_sum(m, simple_module(m.algebra, 1))


@pytest.mark.parametrize("name", [*preset_names(), "sq+S1"])
def test_lattice_class_data_matches_the_definitions(name):
    """The build reads class data off the Newton faces; the definition
    routes (F_p containment, w checked semistable as a module) must give the
    same data at every cone's witness, where the Newton points on which
    theta is largest are the face's and carry the definition's t-set, and
    the fan document's w, f and fbar, derived from t and tbar, must be the
    classes of the definition's w, f and M/t."""
    module = _sq_plus_s1() if name == "sq+S1" else preset_module(name)
    mtf = build_mtf_fan(module)
    subs = enumerate_submodules(module)
    points = submodule_dim_vectors(module)
    for cone, data, face in zip(mtf.cones, mtf.classes, mtf.newton.faces):
        theta = cone.relint_point()
        cs = canonical_sequences(theta, module)
        assert (cs.t, cs.tbar) == (data.t, data.tbar)
        doc = class_doc(data)
        assert doc["w"] == vec_strs(cs.w.dims)
        assert doc["f"] == vec_strs(minus(module.dims, cs.tbar.dims))
        assert doc["fbar"] == vec_strs(minus(module.dims, cs.t.dims))
        supp = tuple(sorted(d for _, d in supp_factors(theta, cs.w)))
        assert data.supp_dims == supp
        top = top_points(points, theta)
        assert top & set(mtf.newton.vertices) == {
            mtf.newton.vertices[v] for v in face.vertex_ids
        }
        assert {s for s in subs if s.dims in top} == t_set(theta, module)


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
    # the oracle's route builds them
    with pytest.raises(AssertionError, match="subquotient"):
        canonical_sequences((0,) * module.algebra.n, module)
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


def test_build_raises_when_a_witness_leaves_its_face(monkeypatch):
    """The class data comes from the face lattice alone, so only the
    witness check ties cone i to face i: two cones of equal dimension that
    trade places pass the face and dimension checks, and the witness of
    the first is largest on the other's face, whose slot holds another
    cone."""
    real = mtfan.fan.normal_fan

    def swapped(P):
        fan = real(P)
        cones = list(fan.cones)
        i, j = [k for k, c in enumerate(cones) if c.dim == fan.n][:2]
        cones[i], cones[j] = cones[j], cones[i]
        return fan._replace(cones=tuple(cones))

    monkeypatch.setattr(mtfan.fan, "normal_fan", swapped)
    with pytest.raises(InvariantError, match="not inside the cone of its"):
        build_mtf_fan(preset_module("square-lambda"))


def test_the_build_walks_each_chain_once(monkeypatch):
    """The build reads each cone's t-set off its Newton face and walks the
    chain of the t-set in one pass: on a2-P1 + a2-P1 + a2-P1 (66
    submodules, 7 cones) that is 15 containment tests, where rescanning
    the t-set at every step of the chain took 270."""
    m = preset_module("a2-P1")
    module = direct_sum(direct_sum(m, m), m)
    enumerate_submodules(module)
    calls = count_calls(monkeypatch, mtfan.quiver.submodule_contains)
    mtf = build_mtf_fan(module)
    assert len(mtf.cones) == 7
    assert 0 < calls["submodule_contains"] <= 30


@pytest.mark.parametrize("name", [*preset_names(), "sq+S1"])
def test_the_build_evaluates_theta_on_the_newton_points(name, monkeypatch):
    """The t-sets come from the facet masks of the Newton points, so the
    build reads each cone at one functional only: its witness, located on
    the Newton vertices to check that the cone is its face's."""
    module = _sq_plus_s1() if name == "sq+S1" else preset_module(name)
    real = mtfan.polyhedra.Cone.relint_point
    calls = []

    def recording(cone):
        calls.append(cone)
        return real(cone)

    monkeypatch.setattr(mtfan.polyhedra.Cone, "relint_point", recording)
    mtf = build_mtf_fan(module)
    assert calls == list(mtf.cones)


@given(st.one_of(preset_direct_sum(), random_kronecker_module()))
@seed(0x5EED)
@settings(max_examples=30, deadline=None)
def test_class_data_matches_the_rescan_referees(module):
    """At each cone's witness the submodules at the top Newton points are
    the submodules on which theta is largest, and the one-pass chain walk
    gives the class data of the walk that rescans the t-set at every
    step."""
    mtf = build_mtf_fan(module)
    subs = enumerate_submodules(module)
    points = submodule_dim_vectors(module)
    for cone, data, face in zip(mtf.cones, mtf.classes, mtf.newton.faces):
        theta = cone.relint_point()
        members = t_set_by_scan(subs, theta)
        top = top_points(points, theta)
        assert top & set(mtf.newton.vertices) == {
            mtf.newton.vertices[v] for v in face.vertex_ids
        }
        assert tuple(s for s in subs if s.dims in top) == members
        expected = class_data_by_rescans(members)
        assert mtfan.fan._class_data(members) == expected
        assert (data.t, data.tbar, data.supp_dims) == expected


@given(
    st.one_of(
        st.sampled_from(preset_names()).map(preset_module),
        preset_direct_sum(),
        random_kronecker_module(),
    )
)
@seed(0x5EED)
@settings(max_examples=40, deadline=None)
def test_every_lineality_is_the_span_of_the_vanishing_vertices(module):
    """A composition series has a step at every vertex of the support, so
    the functionals that vanish on the Newton polytope are spanned by the
    e_j where the module is zero.  The polytope and every cone store that
    span as those unit vectors, in increasing order."""
    mtf = build_mtf_fan(module)
    n = module.algebra.n
    units = tuple(
        tuple(int(i == j) for j in range(n))
        for i, d in enumerate(module.dims)
        if d == 0
    )
    assert mtf.newton.lineality == units
    assert all(cone.lineality == units for cone in mtf.cones)


def test_a_t_set_without_a_greatest_member_raises():
    """Two lines of S + S with the zero submodule have no greatest member;
    the chain walk stops at one of them and raises InvariantError."""
    s = simple_module(preset_module("a2-P1").algebra, 1)
    zero, *lines, whole = sorted(
        enumerate_submodules(direct_sum(s, s)), key=lambda x: x.total_dim
    )
    assert len(lines) == 3 and whole.total_dim == 2
    with pytest.raises(InvariantError, match="no greatest member"):
        mtfan.fan._class_data([zero, *lines[:2]])
    assert mtfan.fan._class_data([zero, lines[0], whole]) == (
        zero,
        whole,
        ((1, 0), (1, 0)),
    )


@pytest.mark.parametrize("name", [*preset_names(), "sq+S1"])
def test_the_wall_reads_the_stored_classes(name, monkeypatch):
    """The wall's semistability checks read the class data the build took
    off each Newton face: they neither enumerate the lattice nor compute
    class data again."""
    module = _sq_plus_s1() if name == "sq+S1" else preset_module(name)
    mtf = build_mtf_fan(module)

    def refuse(*args):
        raise AssertionError("the lattice was read again")

    monkeypatch.setattr(mtfan.fan, "enumerate_submodules", refuse)
    monkeypatch.setattr(mtfan.fan, "_class_data", refuse)
    assert any(wall_cone(mtf) is c for c in mtf.cones)


def test_corrupted_cone_table_raises_invariant_error():
    mtf = build_mtf_fan(preset_module("a2-P1"))
    cones = list(mtf.cones)
    # the cone of the vertex 0 trades places with the cone of the whole polytope
    cones[0], cones[-1] = cones[-1], cones[0]
    bad = MTFFan(
        mtf.module,
        mtf.lattice,
        mtf.newton,
        mtf.fan._replace(cones=tuple(cones)),
        mtf.classes,
    )
    with pytest.raises(InvariantError, match="smallest face through 0 and"):
        wall_cone(bad)
    with pytest.raises(InvariantError):
        smallest_cone(bad)


@given(module_and_change_of_basis())
@seed(0x5EED)
@settings(max_examples=40, deadline=None)
def test_fan_doc_is_invariant_under_a_change_of_basis(pair):
    """An isomorphic module with other matrix entries has the same fan
    document, byte for byte."""
    doc, moved_doc = (
        json.dumps(fan_doc(build_mtf_fan(m)), indent=2) for m in pair
    )
    assert moved_doc == doc
