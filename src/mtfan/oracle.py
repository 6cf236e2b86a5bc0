"""Brute-force verification of a decorated fan against direct stability
computations.

Every sample functional is classified twice: by locating it in the fan and
by recomputing filtration, support and t-set from scratch.  Pairs of samples
check the equivalence and closure predicates against the cone combinatorics.

A sample set is a plain tuple of as_theta vectors; the grid points, ray-sum
witnesses and seeded points are all integral, so their coordinates are ints.
Cones are named by their index in the fan, and a derived cone (a wall cut)
is compared with a fan cone by its face key (lineality, rays).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .exact import as_theta, rank
from .fan import wall_cone
from .polyhedra import integer_grid, key_dim, key_eqs, locate_index, ray_sum, vrep
from .stability import (
    canonical_sequences,
    evaluate,
    in_class_closure,
    is_m_tf_equivalent,
    m_tf_equivalent_by_filtration,
    supp_factors,
    t_set,
    theta_str,
    wall_membership,
)
from .sublattice import enumerate_submodules

DEFAULT_GRID_BOUND = 3
DEFAULT_SEED = 2024
EXTRA_SAMPLES = 8  # seeded random integer points per sample set
REPS_PER_CONE = 3  # samples per cone that enter the pair checks


def build_sample_set(mtf, bound=DEFAULT_GRID_BOUND, seed=DEFAULT_SEED):
    """Tuple of distinct sample functionals: the integer grid
    [-bound, bound]^n plus interior and boundary witnesses of every cone,
    plus EXTRA_SAMPLES seeded random integer points."""
    n = mtf.n
    samples = list(integer_grid(n, bound))
    for cone in mtf.cones:
        samples.append(cone.relint_point())
        if cone.ineqs:
            samples.append(_boundary_witness(cone))
    rng = random.Random(seed)
    for _ in range(EXTRA_SAMPLES):
        samples.append(tuple(rng.randint(-3 * bound, 3 * bound) for _ in range(n)))
    uniq = []
    seen = set()
    for s in samples:
        t = as_theta(s, n)
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return tuple(uniq)


def _boundary_witness(cone):
    """Ray sum of the last proper face of a cone in (dim, eqs) order: the
    facet whose canonical equations are greatest.  Distinct facets have
    distinct spans, so the equations alone order them."""
    facets = [cone.exposed_key(a) for a in cone.ineqs]
    return ray_sum(cone.n, max(facets, key=lambda key: key_eqs(cone.n, key)))


@dataclass(frozen=True)
class PointReport:
    theta: tuple
    cone_index: int
    failures: tuple[str, ...]

    @property
    def ok(self):
        return not self.failures


@dataclass(frozen=True)
class OracleReport:
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self):
        return not self.failures


def verify_point(mtf, theta):
    """Compare the located cone's class data with a from-scratch computation
    at theta, and check the polytope-side characterizations."""
    module = mtf.module
    theta = as_theta(theta, mtf.n)
    idx = locate_index(mtf.newton, mtf.fan, theta)
    data = mtf.classes[idx]
    fails = []

    cs = canonical_sequences(theta, module)
    if cs.t != data.t or cs.tbar != data.tbar:
        fails.append("canonical filtration differs from the cone's")
    supp = tuple(sorted(d for _, d in supp_factors(theta, cs.w)))
    if supp != data.supp_dims:
        fails.append(f"support {supp} != cone support {data.supp_dims}")
    # the definition t-set is exactly the set of submodules landing on the
    # max face, the lattice t-set at theta; the located cone holds theta in
    # its relative interior, so this is the cone's t-set
    ts = t_set(theta, module)
    subs = enumerate_submodules(module)
    vals = [evaluate(theta, L) for L in subs]
    maxval = max(vals)
    for L, v in zip(subs, vals):
        if (v == maxval) != (L in ts):
            fails.append(f"t-set mismatch at submodule of class {L.dims}")
            break

    # min and max of the located Newton face
    face = mtf.newton.faces[idx]
    vecs = [mtf.newton.vertices[v] for v in face.vertex_ids]
    if tuple(cs.t.dims) != tuple(map(min, zip(*vecs))) or tuple(
        cs.tbar.dims
    ) != tuple(map(max, zip(*vecs))):
        fails.append("t/tbar are not the min/max of the located face")

    if not module.is_zero():
        on_wall = wall_membership(theta, module)
        if on_wall != wall_cone(mtf).contains(theta):
            fails.append("wall membership disagrees with the wall cone")
    return PointReport(theta, idx, tuple(fails))


def verify_fan(mtf, samples=None):
    """Run verify_point over a sample set (default: build_sample_set(mtf))
    and check pairwise predicates.

    Same located cone must mean equivalent (both routes), different cones
    not equivalent; closure membership must match the face relation of the
    located cones.  Pair checks run on up to REPS_PER_CONE representatives
    per cone so the budget stays quadratic in the fan, not in the samples.
    """
    if samples is None:
        samples = build_sample_set(mtf)
    module = mtf.module
    failures = []
    checks = 0

    by_cone = {}
    for theta in samples:
        rep = verify_point(mtf, theta)
        checks += 1
        failures.extend(
            f"theta {theta_str(rep.theta)}: {m}" for m in rep.failures
        )
        by_cone.setdefault(rep.cone_index, []).append(rep.theta)

    observed = set(by_cone)
    if observed != set(range(len(mtf.cones))):
        missing = sorted(set(range(len(mtf.cones))) - observed)
        failures.append(f"cones never sampled: {missing}")

    reps = {i: ts[:REPS_PER_CONE] for i, ts in sorted(by_cone.items())}
    for i, ts in reps.items():
        for j, us in reps.items():
            if j < i:
                continue
            face_rel = mtf.cones[i].is_face_of(mtf.cones[j])
            for a in ts:
                for b in us:
                    if a == b:
                        continue
                    checks += 1
                    same = i == j
                    eq = is_m_tf_equivalent(a, b, module)
                    eq2 = m_tf_equivalent_by_filtration(a, b, module)
                    if eq != eq2:
                        failures.append(
                            "equivalence routes disagree at "
                            f"{theta_str(a)} vs {theta_str(b)}"
                        )
                    if eq != same:
                        failures.append(
                            f"equivalence({theta_str(a)}, {theta_str(b)}) = "
                            f"{eq}, located cones "
                            f"{'agree' if same else 'differ'}"
                        )
                    closure = in_class_closure(a, b, module)
                    if closure != face_rel:
                        failures.append(
                            f"closure({theta_str(a)}, {theta_str(b)}) = "
                            f"{closure} but face relation is {face_rel}"
                        )
    return OracleReport(checks, tuple(failures))


def verify_dim_formula(mtf):
    """Dimension bookkeeping across the fan.

    For every cone, dim(cone) + rank(support classes) = n.  Every face of
    the wall belongs to the fan and is cut out of the wall by the span of
    its own support classes.
    """
    failures = []
    checks = 0
    n = mtf.n
    for i, (cone, data) in enumerate(zip(mtf.cones, mtf.classes)):
        checks += 1
        if cone.dim + rank(data.supp_dims) != n:
            failures.append(
                f"cone {i}: dim {cone.dim} + rank(supp) "
                f"{rank(data.supp_dims)} != {n}"
            )
    if not mtf.module.is_zero():
        wall = wall_cone(mtf)
        cone_index = {c.key: i for i, c in enumerate(mtf.cones)}
        # (dim, eqs) order; the equations determine the face
        for key in sorted(wall.face_keys, key=lambda k: (key_dim(k), key_eqs(n, k))):
            checks += 1
            dim = key_dim(key)
            if key not in cone_index:
                failures.append(f"wall face of dim {dim} is missing from the fan")
                continue
            data = mtf.classes[cone_index[key]]
            cut = vrep(
                n, wall.eqs + tuple(tuple(d) for d in data.supp_dims), wall.ineqs
            )
            if cut != key:
                failures.append(
                    f"wall face of dim {dim} is not the wall cut by "
                    "its support span"
                )
    return OracleReport(checks, tuple(failures))
