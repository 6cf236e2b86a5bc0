"""Acceptance suite: one criterion per test, one PASS/FAIL line per run.

Every check is exact (rational arithmetic, no tolerances); the runtime
budgets are asserted with time.perf_counter around the full computation,
built cold inside the criterion wherever the budget demands it.
"""

import time

from mtfan.fan import (
    build_mtf_fan,
    facet_partition,
    fan_paths,
    smallest_cone,
    wall_cone,
)
from mtfan.oracle import build_sample_set, verify_dim_formula, verify_fan
from mtfan.polyhedra import (
    Order,
    cone_from_generators,
    cone_from_hrep,
    cone_intersection,
    key_dim,
    locate_index,
    minkowski_sum,
    validate_generalized_fan,
    vertex_order,
)
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import direct_sum, simple_module


def _report(num, desc, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL  criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s >= {budget}s"
    print(f"PASS  criterion {num}: {desc} ({elapsed:.2f}s)")


def test_criterion_1_a2_class_table():
    def check():
        mtf = build_mtf_fan(preset_module("a2-P1"))
        assert len(mtf.cones) == 7
        classes = {
            mtf.cones[i]: (d.t_dims, d.w_dims, d.f_dims, d.supp_dims)
            for i, d in enumerate(mtf.classes)
        }
        origin = cone_from_hrep(2, [(1, 0), (0, 1)], [])
        ray = lambda x, y: cone_from_generators(2, rays=[(x, y)])
        chamber = lambda a, b: cone_from_generators(2, rays=[a, b])
        expected = {
            origin: ((0, 0), (1, 1), (0, 0), ((0, 1), (1, 0))),
            ray(0, 1): ((0, 1), (1, 0), (0, 0), ((1, 0),)),
            ray(-1, 0): ((0, 0), (0, 1), (1, 0), ((0, 1),)),
            ray(1, -1): ((0, 0), (1, 1), (0, 0), ((1, 1),)),
            chamber((1, -1), (0, 1)): ((1, 1), (0, 0), (0, 0), ()),
            chamber((0, 1), (-1, 0)): ((0, 1), (0, 0), (1, 0), ()),
            chamber((-1, 0), (1, -1)): ((0, 0), (0, 0), (1, 1), ()),
        }
        assert classes == expected

    _report(1, "seven classes of the length-two uniserial module", 1.0, check)


def test_criterion_2_nakayama_chambers():
    def check():
        mtf = build_mtf_fan(preset_module("nakayama2-121"))
        assert len(mtf.maximal_indices()) == 4
        rays = [c.rays[0] for c in mtf.cones if c.dim == 1]
        assert len(rays) == 4
        for r in rays:
            assert r[0] == 0 or r[0] + r[1] == 0
        # both boundary lines really occur
        assert any(r[0] == 0 for r in rays)
        assert any(r[0] + r[1] == 0 and r[0] != 0 for r in rays)

    _report(2, "four chambers split by the two expected lines", 1.0, check)


def test_criterion_3_non_simplicial_wall():
    def check():
        mtf = build_mtf_fan(preset_module("square-lambda"))
        wall = wall_cone(mtf)
        assert wall.dim == 3
        assert set(wall.rays) == {
            (1, -1, 0, 0),
            (1, 0, -1, 0),
            (0, 1, 0, -1),
            (0, 0, 1, -1),
        }

    _report(3, "three-dimensional wall with four extreme rays", 5.0, check)


def test_criterion_4_oracle_equivalence():
    def check():
        for name in preset_names():
            mtf = build_mtf_fan(preset_module(name))
            samples = build_sample_set(mtf, bound=3)
            report = verify_fan(mtf, samples=samples)
            assert report.ok, (name, report.failures[:5])

    _report(4, "oracle agreement at grid bound 3 on every preset", 30.0, check)


def test_criterion_5_structural_invariants():
    def check():
        for name in preset_names():
            mtf = build_mtf_fan(preset_module(name))
            assert validate_generalized_fan(mtf.fan).ok
            for i, cone in enumerate(mtf.cones):
                assert cone.dim + mtf.newton.faces[i].dim == mtf.n
            # min/max of the located face at every sample is checked per
            # point by the oracle
            samples = build_sample_set(mtf, bound=2, seed=1)
            report = verify_fan(mtf, samples=samples)
            assert report.ok, (name, report.failures[:5])
            assert verify_dim_formula(mtf).ok
            for i in mtf.maximal_indices():
                cone = mtf.cones[i]
                plus, minus = facet_partition(mtf, i)
                facets = {k for k in cone.face_keys if key_dim(k) == mtf.n - 1}
                both = [mtf.cones[j] for j in plus + minus]
                assert {(c.lineality, c.rays) for c in both} == facets
                assert not (set(plus) & set(minus))
            fan_keys = {(c.lineality, c.rays) for c in mtf.cones}
            assert wall_cone(mtf).face_keys <= fan_keys

    _report(5, "fan axioms, duality, partitions, wall faces", 30.0, check)


def test_criterion_6_smallest_cone():
    def check():
        mtf = build_mtf_fan(preset_module("a2-S1"))
        line = cone_from_generators(2, lineality=[(0, 1)])
        small = smallest_cone(mtf)
        assert small == line
        assert small == mtf.cones[locate_index(mtf.newton, mtf.fan, (0, 0))]
        meet = mtf.cones[0]
        for c in mtf.cones[1:]:
            meet = cone_intersection(meet, c)
        assert small == meet

    _report(6, "smallest cone of the non-sincere simple", 1.0, check)


def test_criterion_7_direct_sum():
    def check():
        m = preset_module("a2-P1")
        s = preset_module("a2-S1")
        assert s == simple_module(m.algebra, 1)
        both = direct_sum(m, s)
        fm, fs, fb = map(build_mtf_fan, (m, s, both))
        assert fb.newton.vertices == minkowski_sum(
            fm.newton, fs.newton
        ).vertices
        for cone in fb.cones:
            assert any(c.contains_cone(cone) for c in fm.cones)
            assert any(c.contains_cone(cone) for c in fs.cones)

    _report(7, "Minkowski Newton polytope and fan refinement", 5.0, check)


def test_criterion_8_increasing_paths():
    def check():
        mtf = build_mtf_fan(preset_module("a2-P1"))
        cat = fan_paths(mtf)
        # brute-force the increasing vertex walks on the Newton graph
        P = mtf.newton
        verts = [tuple(map(int, v)) for v in P.vertices]
        adj = {i: set() for i in range(len(verts))}
        for eid in P.edges():
            a, b = P.faces[eid].vertex_ids
            if vertex_order(verts[a], verts[b]) is Order.LESS:
                adj[a].add(b)
            else:
                adj[b].add(a)

        def walks(i):
            out = [(i,)]
            for j in sorted(adj[i]):
                out.extend((i,) + w for w in walks(j))
            return out

        all_walks = [w for s in adj for w in walks(s)]
        maximal = {
            tuple(verts[i] for i in w)
            for w in all_walks
            if not any(w[0] in adj[j] for j in adj)
            and not adj[w[-1]]
        }
        ours = {cat.newton_path(p) for p in cat.maximal_paths}
        assert ours == maximal
        assert ours == {((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1))}
        for path in ours:
            assert path[0] == (0, 0) and path[-1] == (1, 1)
            for u, v in zip(path, path[1:]):
                assert vertex_order(u, v) is Order.LESS

    _report(8, "maximal increasing paths match Newton vertex walks", 1.0, check)
