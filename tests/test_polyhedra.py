"""Exact cones, hulls, normal fans and fan validation.

The double description engine is cross-checked two ways: a brute-force
extreme-ray enumeration over (n-1)-subsets of constraints for pointed
full-dimensional cones, and a generator/H-representation round-trip that
must reproduce the canonical cone bit for bit.
"""

import json
import pathlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import mtfan.exact
from mtfan import polyhedra
from mtfan.errors import InvariantError, ResourceLimitError
from mtfan.exact import as_theta, dot, nullspace, primitive, rank, rref
from mtfan.fan import build_mtf_fan
from mtfan.oracle import _boundary_witness
from mtfan.polyhedra import (
    Cone,
    GeneralizedFan,
    cone_from_hrep,
    cone_intersection,
    convex_hull,
    integer_grid,
    key_eqs,
    locate_index,
    minkowski_sum,
    normal_cone,
    normal_fan,
    validate_generalized_fan,
)
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import direct_sum, simple_module
from mtfan.serialize import module_from_doc
from mtfan.sublattice import newton_polytope
from referee import (
    certified_meet,
    cone_from_generators,
    count_calls,
    full_cone,
    hull_vertices_by_rank,
    preset_direct_sum,
    random_kronecker_module,
    square_lambda_and_simples,
    validate_by_pairs,
)

F = Fraction
GOLDENS = pathlib.Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# the double description face route, referee for Cone.face_keys


def face_at(cone, tight):
    """Face where the given inequality normals become equalities."""
    return cone_from_hrep(cone.n, cone.eqs + tuple(tight), cone.ineqs)


def facet_cones(cone):
    return tuple(face_at(cone, (a,)) for a in cone.ineqs)


def faces(cone):
    """All faces, the cone itself included, in (dim, eqs, ineqs) order."""
    found = {cone}
    frontier = [cone]
    while frontier:
        c = frontier.pop()
        for f in facet_cones(c):
            if f not in found:
                found.add(f)
                frontier.append(f)
    return tuple(sorted(found, key=lambda c: (c.dim, c.eqs, c.ineqs)))


# ---------------------------------------------------------------------------
# cones


def test_orthant():
    c = cone_from_hrep(2, [], [(1, 0), (0, 1)])
    assert c.dim == 2
    assert c.eqs == ()
    assert c.lineality == ()
    assert set(c.rays) == {(1, 0), (0, 1)}
    assert c.contains((1, 1)) and c.contains_relint((1, 1))
    assert c.contains((1, 0)) and not c.contains_relint((1, 0))
    assert not c.contains((-1, 0))


def test_halfplane_has_lineality():
    c = cone_from_hrep(2, [], [(1, 1)])
    assert c.dim == 2
    assert c.lineality == ((1, -1),)
    assert c.rays == ((1, 1),)


def test_line_cone():
    c = cone_from_hrep(2, [(1, 0)], [])
    assert c.dim == 1
    assert c.eqs == ((1, 0),)
    assert c.rays == ()
    assert c.lineality == ((0, 1),)


def test_zero_and_full_cones():
    z = cone_from_hrep(2, [(1, 0), (0, 1)], [])
    assert z.dim == 0 and z.rays == () and z.lineality == ()
    f = full_cone(3)
    assert f.dim == 3 and len(f.lineality) == 3 and f.ineqs == ()
    assert f.contains_relint((0, 0, 0))


def test_redundant_constraints_do_not_change_the_cone():
    a = cone_from_hrep(2, [], [(1, 0), (0, 1)])
    b = cone_from_hrep(2, [], [(1, 0), (0, 1), (1, 1), (2, 1), (0, 1)])
    assert a == b


def test_cone_from_generators_matches_hrep():
    a = cone_from_generators(2, rays=[(1, 0), (1, 2)])
    b = cone_from_hrep(2, [], [(0, 1), (2, -1)])
    assert a == b
    line = cone_from_generators(3, lineality=[(0, 0, 5)])
    assert line.dim == 1 and line.lineality == ((0, 0, 1),)


def test_cone_faces_and_is_face_of():
    c = cone_from_hrep(2, [], [(1, 0), (0, 1)])
    dims = sorted(f.dim for f in faces(c))
    assert dims == [0, 1, 1, 2]
    for f in faces(c):
        assert f.is_face_of(c)
    ray = cone_from_generators(2, rays=[(1, 0)])
    assert ray.is_face_of(c)
    inner = cone_from_generators(2, rays=[(1, 1)])
    assert not inner.is_face_of(c)


def test_cone_intersection():
    a = cone_from_hrep(2, [], [(1, 0)])
    b = cone_from_hrep(2, [], [(-1, 1)])
    c = cone_intersection(a, b)
    assert c == cone_from_hrep(2, [], [(1, 0), (-1, 1)])


def test_relint_point_lands_inside():
    for c in (
        cone_from_hrep(3, [], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        cone_from_hrep(2, [], [(1, 1)]),
        cone_from_hrep(2, [(1, 0)], []),
        cone_from_hrep(2, [(1, 0), (0, 1)], []),
    ):
        assert c.contains_relint(c.relint_point())


ineq3 = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))


def brute_force_rays(ineqs, n):
    """Extreme rays of a pointed full-dimensional cone, by rank counting."""
    rays = set()
    for combo in combinations(range(len(ineqs)), n - 1):
        ns = nullspace([ineqs[i] for i in combo], n)
        if len(ns) != 1:
            continue
        d = primitive(ns[0])
        for cand in (d, tuple(-x for x in d)):
            if all(dot(a, cand) >= 0 for a in ineqs):
                tight = [a for a in ineqs if dot(a, cand) == 0]
                if rank(tight) == n - 1:
                    rays.add(cand)
    return rays


@given(st.lists(ineq3, min_size=3, max_size=6))
@settings(max_examples=120, deadline=None)
def test_dd_rays_match_brute_force(ineqs):
    ineqs = [a for a in ineqs if any(a)]
    if not ineqs:
        return
    cone = cone_from_hrep(3, [], ineqs)
    if cone.lineality or cone.dim != 3:
        return
    assert set(cone.rays) == brute_force_rays(ineqs, 3)


@given(st.lists(ineq3, min_size=0, max_size=6))
@settings(max_examples=120, deadline=None)
def test_generator_hrep_roundtrip(ineqs):
    cone = cone_from_hrep(3, [], ineqs)
    again = cone_from_generators(3, cone.rays, cone.lineality)
    assert again == cone
    for r in cone.rays:
        assert all(dot(e, r) == 0 for e in cone.eqs)
        assert all(dot(a, r) >= 0 for a in cone.ineqs)
    for l in cone.lineality:
        assert all(dot(e, l) == 0 for e in cone.eqs)
        assert all(dot(a, l) == 0 for a in cone.ineqs)


# ---------------------------------------------------------------------------
# polytopes


def test_hull_of_single_point():
    P = convex_hull([(2, 3)], 2)
    assert P.vertices == ((F(2), F(3)),)
    assert len(P.faces) == 1
    assert P.dim == 0


def test_hull_of_segment():
    P = convex_hull([(0, 0), (2, 2), (1, 1)], 2)
    assert set(P.vertices) == {(0, 0), (2, 2)}
    assert [f.dim for f in P.faces] == [0, 0, 1]
    assert P.dim == 1


def test_hull_of_triangle_has_seven_faces():
    P = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))], 2)
    assert len(P.vertices) == 3
    assert [f.dim for f in P.faces] == [0, 0, 0, 1, 1, 1, 2]


def test_hull_of_quadrilateral_has_nine_faces():
    P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    assert len(P.vertices) == 4
    assert [f.dim for f in P.faces] == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    assert len(P.edges()) == 4


def test_hull_bounds_its_distinct_points():
    line = [(k, 0) for k in range(polyhedra.MAX_HULL_POINTS)]
    assert len(convex_hull(line + line, 2).vertices) == 2  # repeats are free
    with pytest.raises(ResourceLimitError, match="convex hull's bound"):
        convex_hull(line + [(-1, 0)], 2)


def test_hull_bounds_its_faces_the_empty_face_counted(monkeypatch):
    cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    monkeypatch.setattr(polyhedra, "MAX_HULL_FACES", 28)
    assert len(convex_hull(cube, 3).faces) == 27
    monkeypatch.setattr(polyhedra, "MAX_HULL_FACES", 27)
    with pytest.raises(ResourceLimitError, match="more than 27 faces"):
        convex_hull(cube, 3)


@pytest.mark.parametrize(
    "name", [*preset_names(), "sq+sq+sq", "sq+sq+S4"]
)
def test_hull_bounds_admit_the_presets_and_the_largest_inputs(name):
    if name in preset_names():
        module = preset_module(name)
    else:
        sq = preset_module("square-lambda")
        last = sq if name == "sq+sq+sq" else simple_module(sq.algebra, 4)
        module = direct_sum(direct_sum(sq, sq), last)
    P = newton_polytope(module)
    assert len(P.vertices) <= polyhedra.MAX_HULL_POINTS
    assert len(P.faces) + 1 <= polyhedra.MAX_HULL_FACES


def test_hull_is_invariant_under_input_order():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    a = convex_hull(pts, 3)
    b = convex_hull(list(reversed(pts)) + [(0, 0, 0)], 3)
    assert a.vertices == b.vertices
    assert [f.vertex_ids for f in a.faces] == [f.vertex_ids for f in b.faces]


def test_max_face_and_normal_cone_on_square():
    P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    fan = normal_fan(P)
    top_right = P.faces[locate_index(P, fan, (1, 1))]
    assert top_right.dim == 0
    assert P.vertices[top_right.vertex_ids[0]] == (1, 1)
    top = P.faces[locate_index(P, fan, (0, 1))]
    assert top.dim == 1
    c = normal_cone(P, top_right)
    assert c == cone_from_hrep(2, [], [(1, 0), (0, 1)])
    edge_cone = normal_cone(P, top)
    assert edge_cone.rays == ((0, 1),) and edge_cone.dim == 1


def test_normal_fan_and_locate_on_square():
    P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    fan = normal_fan(P)
    assert len(fan.cones) == 9
    c = fan.cones[locate_index(P, fan, (3, 1))]
    assert c.dim == 2
    assert c.contains_relint((3, 1))
    # order-reversing bijection: cone dim + face dim == n
    for i, cone in enumerate(fan.cones):
        assert cone.dim + P.faces[i].dim == 2


def test_locate_index_prints_a_rational_functional():
    """locate_index names theta as every message does, coordinate by
    coordinate: with the first two maximal cones of a2-P1 traded,
    (-1/2, -1/3) is largest on face 0, whose slot holds cone 1."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    cones = list(mtf.cones)
    cones[0], cones[1] = cones[1], cones[0]
    theta = as_theta((Fraction(-1, 2), Fraction(-1, 3)), 2)
    assert locate_index(mtf.newton, mtf.fan, theta) == 0
    with pytest.raises(InvariantError) as info:
        locate_index(mtf.newton, mtf.fan._replace(cones=tuple(cones)), theta)
    assert str(info.value) == (
        "(-1/2, -1/3) is not inside the cone of its maximal face"
    )


def test_face_children_is_the_cover_relation():
    pts3 = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1), (2, 2, 1)]
    for P in (
        convex_hull([(2, 3)], 2),
        convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2),
        convex_hull(pts3, 3),
        convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)], 4),
    ):
        for fid, f in enumerate(P.faces):
            covered = tuple(
                i
                for i, g in enumerate(P.faces)
                if g.dim == f.dim - 1 and set(g.vertex_ids) <= set(f.vertex_ids)
            )
            assert P.face_children(fid) == covered


def test_hull_keeps_its_facets_and_lineality():
    # the segment lies on x - y + 1 = 0, which misses the origin
    seg = convex_hull([(1, 2), (3, 4)], 2)
    assert seg.lineality == ((1, -1),)
    assert seg.facets == ((frozenset({0}), (-1, -1)), (frozenset({1}), (1, 1)))
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    assert sq.lineality == ()
    assert sorted(normal for _, normal in sq.facets) == [
        (-1, 0), (0, -1), (0, 1), (1, 0)
    ]
    assert convex_hull([(2, 3)], 2).facets == ()


@pytest.mark.parametrize("name", preset_names())
def test_newton_vertices_are_ints(name):
    P = newton_polytope(preset_module(name))
    assert all(type(x) is int for v in P.vertices for x in v)


def test_hull_keeps_fractional_coordinates():
    P = convex_hull([(F(1, 2), 0), (0, 1)], 2)
    assert P.vertices == ((0, 1), (F(1, 2), 0))
    assert [[type(x) for x in v] for v in P.vertices] == [[int, int], [F, int]]


def test_minkowski_sum_of_segments_is_square():
    seg_x = convex_hull([(0, 0), (1, 0)], 2)
    seg_y = convex_hull([(0, 0), (0, 1)], 2)
    sq = minkowski_sum(seg_x, seg_y)
    assert set(sq.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}


# ---------------------------------------------------------------------------
# normal cones: the vertex-difference H-representation is the referee


def vertex_difference_cone(P, face):
    """Normal cone of a face by definition: v0 - w = 0 for the face's other
    vertices w, and v0 - u >= 0 for every vertex u off the face."""
    vs = face.vertex_ids
    v0 = P.vertices[vs[0]]

    def diff(w):
        return primitive(tuple(a - b for a, b in zip(v0, P.vertices[w])))

    eqs = [diff(w) for w in vs[1:]]
    ineqs = [diff(u) for u in range(len(P.vertices)) if u not in vs]
    return cone_from_hrep(P.n, eqs, ineqs)


def random_point_set(rng):
    """1 to 9 rational points in R^n, n <= 4: an offset plus rational
    combinations of k random integer vectors.  k < n for about half the
    sets, and then the set lies in a lower-dimensional affine subspace."""
    n = rng.randint(1, 4)
    k = n if rng.random() < 0.5 else rng.randint(0, n - 1)
    offset = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    pts = []
    for _ in range(rng.randint(1, 9)):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(k)]
        pts.append(tuple(
            o + sum(c * b[i] for c, b in zip(coeffs, basis))
            for i, o in enumerate(offset)
        ))
    return pts, n


def test_hull_vertices_match_the_rank_referee_on_random_point_sets():
    for seed in range(200):
        pts, n = random_point_set(random.Random(seed))
        assert convex_hull(pts, n).vertices == hull_vertices_by_rank(pts, n)


CUBE = [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)]


@pytest.mark.parametrize(
    "pts,n,vertices",
    [
        # a point inside an edge, inside a facet and inside the cube
        (CUBE + [(1, 0, 0), (1, 1, 0), (1, 1, 1)], 3, sorted(CUBE)),
        # the same inside a square that lies in a plane of R^3
        ([(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1), (1, 0, 1), (1, 1, 1)],
         3, [(0, 0, 1), (0, 2, 1), (2, 0, 1), (2, 2, 1)]),
        # a triangle with points inside an edge and inside it
        ([(0, 0), (3, 0), (0, 3), (1, 1), (F(3, 2), F(3, 2))], 2,
         [(0, 0), (0, 3), (3, 0)]),
        # a segment with an inner point, and a single point
        ([(0, 0, 0), (2, 2, 2), (1, 1, 1)], 3, [(0, 0, 0), (2, 2, 2)]),
        ([(1, 2)], 2, [(1, 2)]),
    ],
)
def test_hull_drops_points_inside_edges_facets_and_the_interior(pts, n, vertices):
    assert convex_hull(pts, n).vertices == tuple(vertices)
    assert hull_vertices_by_rank(pts, n) == tuple(vertices)


def fan_input(name):
    sq = preset_module("square-lambda")
    if name == "sq+S1":
        return direct_sum(sq, simple_module(sq.algebra, 1))
    if name == "sq+sq+S4":
        return direct_sum(direct_sum(sq, sq), simple_module(sq.algebra, 4))
    return preset_module(name)


def assert_normal_fan_matches_the_referee(P):
    cones = normal_fan(P).cones
    assert cones == tuple(vertex_difference_cone(P, f) for f in P.faces)
    # face k is vertex k, so cone k is the maximal cone of vertex k
    assert all(P.faces[k].vertex_ids == (k,) for k in range(len(P.vertices)))


@pytest.mark.parametrize("name", [*preset_names(), "sq+S1", "sq+sq+S4"])
def test_normal_fan_matches_the_vertex_difference_referee(name):
    assert_normal_fan_matches_the_referee(newton_polytope(fan_input(name)))


@pytest.mark.parametrize("block", range(8))
def test_normal_fan_matches_the_referee_on_random_point_sets(block):
    """25 seeded rational point sets per block, 200 in all."""
    for seed in range(25 * block, 25 * block + 25):
        assert_normal_fan_matches_the_referee(
            convex_hull(*random_point_set(random.Random(seed)))
        )


def test_normal_fan_makes_one_dd_pass_per_face(monkeypatch):
    P = newton_polytope(preset_module("square-lambda"))
    real = polyhedra._dd
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "_dd", counted)
    normal_fan(P)
    assert len(calls) == len(P.faces)


# ---------------------------------------------------------------------------
# fan validation


def square_fan():
    P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    return normal_fan(P)


def test_validate_normal_fan_passes():
    report = validate_generalized_fan(square_fan())
    assert report.ok


def test_validate_detects_missing_face():
    fan = square_fan()
    kept = tuple(c for c in fan.cones if c.dim != 0)
    report = validate_generalized_fan(GeneralizedFan(2, kept))
    assert report.face_closure_violations == tuple(
        f"cone {i}: face of dim 0 is missing from the fan" for i in range(8)
    )
    assert report.intersection_violations == ()
    assert report.completeness_violations == ()
    assert not report.ok


def quadrant_gaps(facets_by_cone):
    """The completeness violations of cones that cover the first quadrant
    and nothing else: every point of [-2, 2]^2 outside it, then each
    facet of the maximal cones, none of them shared."""
    uncovered = [
        (x, y) for x in range(-2, 3) for y in range(-2, 3) if min(x, y) < 0
    ]
    return tuple(f"point {pt} is not covered" for pt in uncovered) + tuple(
        f"cone {i}: facet shared with 0 other maximal cones instead of 1"
        for i, count in enumerate(facets_by_cone)
        for _ in range(count)
    )


def test_validate_detects_bad_intersection():
    a = cone_from_hrep(2, [], [(1, 0), (0, 1)])
    b = cone_from_hrep(2, [], [(1, -1), (-1, 2)])  # overlaps a's interior
    cones = [a, b]
    for c in (a, b):
        cones.extend(f for f in faces(c) if f != c)
    fan = GeneralizedFan(2, tuple(dict.fromkeys(cones)))
    report = validate_generalized_fan(fan)
    assert report.face_closure_violations == ()
    assert report.intersection_violations == (
        "cones 0 and 1: intersection of dim 2 is not a common face",
        "cones 0 and 5: intersection of dim 1 is not a common face",
        "cones 0 and 6: intersection of dim 1 is not a common face",
    )
    # b lies inside a, so the two cover the quadrant alone
    assert report.completeness_violations == quadrant_gaps([2, 2])


def test_validate_detects_incompleteness():
    a = cone_from_hrep(2, [], [(1, 0), (0, 1)])
    cones = [a] + [f for f in faces(a) if f != a]
    fan = GeneralizedFan(2, tuple(cones))
    report = validate_generalized_fan(fan)
    assert report.face_closure_violations == ()
    assert report.intersection_violations == ()
    assert report.completeness_violations == quadrant_gaps([2])
    assert not report.ok


def test_validate_reports_missing_faces_in_ascending_dimension():
    simplex = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    fan = normal_fan(simplex)
    maximal = GeneralizedFan(3, tuple(c for c in fan.cones if c.dim == 3))
    per_cone = [0] + [1] * 3 + [2] * 3
    expected = tuple(
        f"cone {i}: face of dim {d} is missing from the fan"
        for i in range(4)
        for d in per_cone
    )
    report = validate_generalized_fan(maximal)
    assert report.face_closure_violations == expected
    assert report.intersection_violations == ()
    assert report.completeness_violations == ()


# ---------------------------------------------------------------------------
# certified meets and the validator: a double description pass per pair
# checks referee.certified_meet, and referee.validate_by_pairs, one certified
# meet per pair of cones, checks validate_generalized_fan


def meet_by_dd(a, b):
    return polyhedra.vrep(a.n, a.eqs + b.eqs, a.ineqs + b.ineqs)


def assert_certified_meet_agrees(a, b):
    """A certified meet is the double description meet; None is allowed."""
    assert certified_meet(a, b) in (None, meet_by_dd(a, b))


@st.composite
def cone_pairs(draw):
    """Two cones in R^n, n in 2..4, each with up to two equations."""
    n = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)

    def cone():
        eqs = draw(st.lists(vec, max_size=2))
        ineqs = draw(st.lists(vec, max_size=5))
        return cone_from_hrep(n, eqs, ineqs)

    return cone(), cone()


@given(cone_pairs())
@settings(max_examples=120, deadline=None)
def test_certified_meet_matches_double_description(pair):
    assert_certified_meet_agrees(*pair)


@pytest.mark.parametrize("name", [*preset_names(), "sq+S1"])
def test_certified_meet_matches_double_description_on_fans(name):
    cones = build_mtf_fan(fan_input(name)).cones
    for i, a in enumerate(cones):
        for b in cones[i + 1:]:
            meet = meet_by_dd(a, b)
            for x, y in ((a, b), (b, a)):
                assert certified_meet(x, y) in (None, meet)


def test_certified_meet_branches():
    quadrant = cone_from_hrep(2, [], [(1, 0), (0, 1)])
    ray = cone_from_generators(2, rays=[(1, 0)])
    # nested cones, either way round
    assert certified_meet(ray, quadrant) == ((), ((1, 0),))
    assert certified_meet(quadrant, ray) == ((), ((1, 0),))
    # a separator exposing the same face of both: two quadrants on an edge
    left = cone_from_hrep(2, [], [(-1, 0), (0, 1)])
    assert certified_meet(quadrant, left) == ((), ((0, 1),))
    # the exposed face of the first cone lies in the second, and the other
    # way round: the quadrant against the half-plane y <= 0
    lower = cone_from_hrep(2, [], [(0, -1)])
    assert certified_meet(quadrant, lower) == ((), ((1, 0),))
    assert certified_meet(lower, quadrant) == ((), ((1, 0),))
    # no separator: two overlapping chambers
    upper = cone_from_hrep(2, [], [(-1, 1), (1, 1)])
    assert certified_meet(quadrant, upper) is None
    # a separator whose exposed faces overlap without nesting
    octant = cone_from_generators(3, rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    below = cone_from_generators(3, rays=[(1, 1, 0), (-1, 1, 0), (0, 0, -1)])
    assert certified_meet(octant, below) is None
    assert certified_meet(below, octant) is None
    for a, b in ((ray, quadrant), (quadrant, left), (quadrant, lower)):
        assert_certified_meet_agrees(a, b)


def test_validate_detects_a_meet_that_is_a_face_of_one_cone_only():
    # the ray (1, 0) is a face of the quadrant but not of the half-plane
    quadrant = cone_from_hrep(2, [], [(1, 0), (0, 1)])
    lower = cone_from_hrep(2, [], [(0, -1)])
    report = validate_generalized_fan(GeneralizedFan(2, (quadrant, lower)))
    assert report.intersection_violations == (
        "cones 0 and 1: intersection of dim 1 is not a common face",
    )


@st.composite
def fans_and_broken_variants(draw):
    """The normal fan of a drawn module, or a broken variant of it: one cone
    dropped, a cone added that covers two maximal cones, or only the maximal
    cones kept."""
    module = draw(st.one_of(
        preset_direct_sum(), random_kronecker_module(), square_lambda_and_simples()
    ))
    fan = build_mtf_fan(module).fan
    cones, n = fan.cones, fan.n
    maximal = [c for c in cones if c.dim == n]
    variant = draw(st.sampled_from(["whole", "dropped", "covering", "maximal"]))
    if variant == "dropped":
        k = draw(st.integers(0, len(cones) - 1))
        cones = cones[:k] + cones[k + 1:]
    elif variant == "covering":
        pair = draw(st.permutations(maximal))[:2]
        rays = [r for c in pair for r in c.rays]
        lineality = [v for c in pair for v in c.lineality]
        cones += (cone_from_generators(n, rays, lineality),)
    elif variant == "maximal":
        cones = tuple(maximal)
    return GeneralizedFan(n, cones)


@given(fans_and_broken_variants())
@seed(0xFA7)
@settings(max_examples=60, deadline=None)
def test_validator_matches_the_pairwise_referee(fan):
    assert validate_generalized_fan(fan) == validate_by_pairs(fan)


@pytest.mark.parametrize("name", preset_names())
def test_validator_matches_the_pairwise_referee_on_broken_presets(name):
    """Each preset's fan without its first cone of each dimension, with a
    cone covering its first maximal cone and each other, and with its
    maximal cones alone."""
    fan = build_mtf_fan(preset_module(name)).fan
    cones, n = fan.cones, fan.n
    maximal = tuple(c for c in cones if c.dim == n)
    variants = [maximal]
    for d in sorted({c.dim for c in cones}):
        k = next(i for i, c in enumerate(cones) if c.dim == d)
        variants.append(cones[:k] + cones[k + 1:])
    for other in maximal[1:]:
        pair = (maximal[0], other)
        rays = [r for c in pair for r in c.rays]
        lineality = [v for c in pair for v in c.lineality]
        variants.append(cones + (cone_from_generators(n, rays, lineality),))
    for v in variants:
        broken = GeneralizedFan(n, v)
        assert validate_generalized_fan(broken) == validate_by_pairs(broken)


@pytest.mark.parametrize("name", ["cube5", "sq-S1-S2-S3-S4"])
def test_validator_matches_the_pairwise_referee_on_goldens(name):
    """The two golden fans at the ends of the range: 243 cones on 10
    distinct rays and 10 distinct normals, and 147 cones on 13 rays and 53
    normals, whole and with their maximal cones alone."""
    doc = json.loads((GOLDENS / f"{name}.input.json").read_text())
    fan = build_mtf_fan(module_from_doc(doc)[1]).fan
    maximal = GeneralizedFan(fan.n, tuple(c for c in fan.cones if c.dim == fan.n))
    for f in (fan, maximal):
        assert validate_generalized_fan(f) == validate_by_pairs(f)


def test_validator_takes_one_dot_per_normal_and_generator(monkeypatch):
    """The 5-cube's 243 cones have 10 distinct rays and 10 distinct facet
    normals; a dot product per cone pair made 1,217,475 calls."""
    doc = json.loads((GOLDENS / "cube5.input.json").read_text())
    fan = build_mtf_fan(module_from_doc(doc)[1]).fan
    calls = count_calls(monkeypatch, mtfan.exact.dot)
    assert validate_generalized_fan(fan).ok
    assert calls["dot"] <= 2000


def test_validator_makes_few_dd_passes(monkeypatch):
    """The certificate settles all but 10 of square-lambda's 741 cone
    pairs, so a return to one double description pass per pair fails."""
    fan = build_mtf_fan(preset_module("square-lambda")).fan
    real = polyhedra.vrep
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "vrep", counted)
    assert validate_generalized_fan(fan).ok
    assert len(calls) <= 10


@pytest.mark.parametrize("name", [*preset_names(), "sq+S1"])
def test_ray_set_referee_matches_the_definition_routes(name):
    """face_keys, is_face_of and the sample set's boundary witness read
    faces off a cone's own canonical rays; the definition routes build every
    face by double description.  Both must agree on every cone and ordered
    cone pair."""
    cones = build_mtf_fan(fan_input(name)).cones
    for c in cones:
        assert c.face_keys == {(f.lineality, f.rays) for f in faces(c)}
        if c.ineqs:
            last = max(facet_cones(c), key=lambda f: (f.eqs, f.ineqs))
            assert _boundary_witness(c) == last.relint_point()
        # the facet exposed by a spans the cone's span cut by a-perp
        for a in c.ineqs:
            assert key_eqs(c.n, c.exposed_key(a)) == rref(c.eqs + (a,))
    for face in cones:
        gens = face.rays + face.lineality
        for cone in cones:
            tight = tuple(
                a for a in cone.ineqs if all(dot(a, g) == 0 for g in gens)
            )
            by_definition = (
                cone.contains_cone(face) and face_at(cone, tight) == face
            )
            assert face.is_face_of(cone) == by_definition


def test_corrupted_cones_raise_invariant_error():
    # the first ray points out of the cone's own facet inequality
    bad = Cone(2, 2, (), ((0, 1), (1, 0)), (), ((-1, 0), (0, 1)))
    with pytest.raises(InvariantError, match="relative interior"):
        bad.relint_point()

    P = convex_hull([(0, 0), (0, 1), (1, 0)], 2)
    fan = normal_fan(P)
    assert locate_index(P, fan, (5, 1)) == 2  # the vertex (1, 0)
    cones = list(fan.cones)
    cones[1], cones[2] = cones[2], cones[1]
    swapped = GeneralizedFan(2, tuple(cones))
    with pytest.raises(InvariantError, match="not inside the cone"):
        locate_index(P, swapped, (5, 1))


def test_integer_grid_is_lexicographic_and_has_one_point_in_rank_zero():
    assert integer_grid(0, 3) == ((),)
    assert integer_grid(1, 1) == ((-1,), (0,), (1,))
    assert integer_grid(2, 1)[:4] == ((-1, -1), (-1, 0), (-1, 1), (0, -1))
    assert len(integer_grid(3, 2)) == 5**3
