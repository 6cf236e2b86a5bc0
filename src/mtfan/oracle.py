"""Brute-force verification of a decorated fan against direct stability
computations.

Every sample functional is classified twice: by locating it in the fan and
by recomputing filtration, support and t-set from scratch.  One
canonical_sequences call per sample gives all three, the semistable
subobjects of w that make its filtration key, and the functional's values
on the module's lattice, which the t-set scan and the wall check read.
Pairs of samples check the equivalence and closure predicates against the
cone combinatorics by comparing stored t-sets and filtration keys.

A sample set is a plain tuple of as_theta vectors; the grid points, ray-sum
witnesses and seeded points are all integral, so their coordinates are ints.
Cones are named by their index in the fan, and a derived cone (a wall cut)
is compared with a fan cone by its face key (lineality, rays).
"""
from __future__ import annotations

import random
from typing import NamedTuple

from .errors import InvariantError
from .exact import as_theta, rank, rref
from .fan import face_restriction_check
from .polyhedra import integer_grid, key_dim, key_eqs, locate_index, ray_sum
from .stability import (
    CanonicalSequenceData,
    canonical_sequences,
    filtration_key,
    theta_str,
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
    facet with the greatest canonical equations, those of eqs + (a,) for the
    facet exposed by a (distinct facets have distinct spans)."""
    a = max(cone.ineqs, key=lambda a: rref(cone.eqs + (a,)))
    return ray_sum(cone.n, cone.exposed_key(a))


class PointReport(NamedTuple):
    theta: tuple
    cone_index: int
    failures: tuple[str, ...]
    canonical: CanonicalSequenceData | None  # None if the route broke

    @property
    def ok(self):
        return not self.failures


class OracleReport(NamedTuple):
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self):
        return not self.failures


def verify_point(mtf, theta):
    """Compare the located cone's class data with a from-scratch computation
    at theta, and check the polytope-side characterizations.  An invariant
    that the from-scratch computation breaks is the sample's one failure."""
    module = mtf.module
    theta = as_theta(theta, mtf.n)
    idx = locate_index(mtf.newton, mtf.fan, theta)
    data = mtf.classes[idx]
    fails = []

    try:
        cs = canonical_sequences(theta, module)
    except InvariantError as exc:
        return PointReport(theta, idx, (f"definition route broke: {exc}",), None)
    if cs.t != data.t or cs.tbar != data.tbar:
        fails.append("canonical filtration differs from the cone's")
    if cs.supp != data.supp_dims:
        fails.append(f"support {cs.supp} != cone support {data.supp_dims}")
    # the definition t-set is exactly the set of submodules landing on the
    # max face, the lattice t-set at theta; the located cone holds theta in
    # its relative interior, so this is the cone's t-set
    ts = cs.t_set
    maxval = max(cs.vals)
    for L, v in zip(enumerate_submodules(module), cs.vals):
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

    # the module is semistable: theta(M) = 0 and theta <= 0 on its lattice,
    # whose last member is M
    if not module.is_zero():
        on_wall = cs.vals[-1] == 0 and maxval <= 0
        if on_wall != mtf.wall.contains(theta):
            fails.append("wall membership disagrees with the wall cone")
    return PointReport(theta, idx, tuple(fails), cs)


def verify_fan(mtf, samples):
    """Run verify_point over a sample set, as build_sample_set(mtf) draws
    one, and check pairwise predicates.

    Same located cone must mean equivalent (both routes), different cones
    not equivalent; closure membership must match the face relation of the
    located cones, in both directions.  Pair checks run on up to
    REPS_PER_CONE representatives per cone so the budget stays quadratic in
    the fan, not in the samples; they compare each representative's t-set
    and filtration key, both computed once.
    """
    failures = []
    checks = 0

    by_cone = {}
    for theta in samples:
        rep = verify_point(mtf, theta)
        checks += 1
        failures.extend(
            f"theta {theta_str(rep.theta)}: {m}" for m in rep.failures
        )
        # the first REPS_PER_CONE samples of a cone enter the pair checks
        # with their t-set and filtration key; a broken one enters none
        kept = by_cone.setdefault(rep.cone_index, [])
        if rep.canonical is not None and len(kept) < REPS_PER_CONE:
            cs = rep.canonical
            kept.append((rep.theta, cs.t_set, filtration_key(cs)))

    observed = set(by_cone)
    if observed != set(range(len(mtf.cones))):
        missing = sorted(set(range(len(mtf.cones))) - observed)
        failures.append(f"cones never sampled: {missing}")

    reps = sorted(by_cone.items())
    for i, ts in reps:
        for j, us in reps:
            if j < i:
                continue
            face_rel = mtf.cones[i].is_face_of(mtf.cones[j])
            face_back = mtf.cones[j].is_face_of(mtf.cones[i])
            for a, a_set, a_key in ts:
                for b, b_set, b_key in us:
                    if a == b:
                        continue
                    checks += 1
                    same = i == j
                    eq = a_set == b_set
                    if eq != (a_key == b_key):
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
                    # a lies in the closure of b's class
                    closure = b_set <= a_set
                    if closure != face_rel:
                        failures.append(
                            f"closure({theta_str(a)}, {theta_str(b)}) = "
                            f"{closure} but face relation is {face_rel}"
                        )
                    # and b in the closure of a's class, across two cones
                    closure = a_set <= b_set
                    if i < j and closure != face_back:
                        failures.append(
                            f"closure({theta_str(b)}, {theta_str(a)}) = "
                            f"{closure} but face relation is {face_back}"
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
        wall = mtf.wall
        cone_index = {c.key: i for i, c in enumerate(mtf.cones)}
        # (dim, eqs) order; the equations determine the face
        for key in sorted(wall.face_keys, key=lambda k: (key_dim(k), key_eqs(n, k))):
            checks += 1
            dim = key_dim(key)
            if key not in cone_index:
                failures.append(f"wall face of dim {dim} is missing from the fan")
            elif not face_restriction_check(mtf, cone_index[wall.key], cone_index[key]):
                failures.append(
                    f"wall face of dim {dim} is not the wall cut by "
                    "its support span"
                )
    return OracleReport(checks, tuple(failures))
