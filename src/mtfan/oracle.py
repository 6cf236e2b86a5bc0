"""Brute-force verification of a decorated fan against direct stability
computations.

Every sample functional is classified twice: by locating it in the fan and
by recomputing filtration, support and t-set from scratch.  One
stability._classify call per sample gives all three on lattice indices,
the semistable subobjects of w that make its filtration key, and the
functional's values on the module's lattice, which the t-set check and the
wall check read.  A pass reads each cone's data as lattice indices once.
Pairs of samples check the equivalence and closure predicates against the
cone combinatorics by comparing stored t-set bit masks and filtration keys.

A sample set is a plain tuple of as_theta vectors; the grid points, ray-sum
witnesses and seeded points are all integral, so their coordinates are ints.
Cones are named by their index in the fan, and a derived cone (a wall cut)
is compared with a fan cone by its face key (lineality, rays).
"""
from __future__ import annotations

import random
from typing import NamedTuple

from .errors import InvariantError
from .exact import as_theta, rank, rref, theta_str
from .fan import face_restriction_check
from .polyhedra import integer_grid, key_dim, key_eqs, locate_index, ray_sum
from .stability import (
    CanonicalSequenceData,
    _classify,
    _lattice,
    _record,
    filtration_key,
)
from .sublattice import enumerate_submodules  # noqa: F401  (the tracer's alias)

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
    cone_index: int | None  # None if the fan route broke
    failures: tuple[str, ...]
    canonical: CanonicalSequenceData | None  # None if a route broke

    @property
    def ok(self):
        return not self.failures


class OracleReport(NamedTuple):
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self):
        return not self.failures


def _pass(mtf):
    """What a pass reads at every sample: M's _lattice on the fan's lattice,
    the pass's table for _classify, and each cone's t and tbar as indices
    (None off the lattice), support, and the min and max of its Newton face."""
    table = {}
    lattice = _lattice(mtf.module, table, mtf.lattice)
    index = {s: j for j, s in enumerate(lattice[1])}.get
    cones = []
    for face, data in zip(mtf.newton.faces, mtf.classes):
        vecs = list(zip(*(mtf.newton.vertices[v] for v in face.vertex_ids)))
        bounds = tuple(map(min, vecs)), tuple(map(max, vecs))
        cones.append((index(data.t), index(data.tbar), data.supp_dims, *bounds))
    return lattice, table, cones


def _check(mtf, ctx, theta):
    """(located cone index, failures, _classify's answer) of an as_theta
    functional in a pass ctx.  A broken invariant of the fan route or the
    definition route is the sample's one failure, with no answer."""
    lattice, table, cones = ctx
    try:
        idx = locate_index(mtf.newton, mtf.fan, theta)
        on_wall = None if mtf.module.is_zero() else mtf.wall.contains(theta)
    except InvariantError as exc:
        return None, (f"fan route broke: {exc}",), None
    try:
        c = _classify(theta, lattice, table)
    except InvariantError as exc:
        return idx, (f"definition route broke: {exc}",), None
    t, tbar, supp, lo, hi = cones[idx]
    dims = lattice[2]
    fails = []
    if c.t != t or c.tbar != tbar:
        fails.append("canonical filtration differs from the cone's")
    if c.supp != supp:
        fails.append(f"support {c.supp} != cone support {supp}")
    # the definition t-set is exactly the set of submodules landing on the
    # max face, the lattice t-set at theta; the located cone holds theta in
    # its relative interior, so this is the cone's t-set
    top = max(c.vals)
    miss = c.t_set ^ sum(1 << j for j, v in enumerate(c.vals) if v == top)
    if miss:  # at the first member it misses
        j = (miss & -miss).bit_length() - 1
        fails.append(f"t-set mismatch at submodule of class {dims[j]}")
    if dims[c.t] != lo or dims[c.tbar] != hi:
        fails.append("t/tbar are not the min/max of the located face")
    # the module is semistable: theta(M) = 0 and theta <= 0 on its lattice,
    # whose last member is M
    if on_wall is not None and on_wall != (c.vals[-1] == 0 and top <= 0):
        fails.append("wall membership disagrees with the wall cone")
    return idx, tuple(fails), c


def verify_point(mtf, theta):
    """Compare the located cone's class data with a from-scratch computation
    at theta, and check the polytope-side characterizations: verify_fan's
    check of one sample, on a pass of its own."""
    theta = as_theta(theta, mtf.n)
    ctx = _pass(mtf)
    idx, fails, c = _check(mtf, ctx, theta)
    return PointReport(theta, idx, fails, c and _record(ctx[0], c, ctx[1]))


def verify_fan(mtf, samples):
    """Check every functional of a sample set, as build_sample_set(mtf)
    draws one, in one pass, and check pairwise predicates.

    Same located cone must mean equivalent (both routes), different cones
    not equivalent; closure membership must match the face relation of the
    located cones, in both directions.  Pair checks run on up to
    REPS_PER_CONE representatives per cone so the budget stays quadratic in
    the fan, not in the samples; they compare each representative's t-set,
    a bit mask over M's lattice, and filtration key, both computed once.
    """
    failures = []
    checks = 0
    ctx = _pass(mtf)

    by_cone = {}
    for theta in samples:
        theta = as_theta(theta, mtf.n)
        idx, fails, c = _check(mtf, ctx, theta)
        checks += 1
        failures.extend(f"theta {theta_str(theta)}: {m}" for m in fails)
        if idx is None:
            continue
        # the first REPS_PER_CONE samples of a cone enter the pair checks,
        # printed, with their t-set and filtration key; a broken one enters none
        kept = by_cone.setdefault(idx, [])
        if c is not None and len(kept) < REPS_PER_CONE:
            kept.append((theta_str(theta), c.t_set, filtration_key(c)))

    missing = sorted(set(range(len(mtf.cones))) - set(by_cone))
    if missing:
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
                        failures.append(f"equivalence routes disagree at {a} vs {b}")
                    if eq != same:
                        failures.append(
                            f"equivalence({a}, {b}) = {eq}, located cones "
                            f"{'agree' if same else 'differ'}"
                        )
                    # a lies in the closure of b's class: b's t-set inside a's
                    closure = not b_set & ~a_set
                    if closure != face_rel:
                        failures.append(
                            f"closure({a}, {b}) = {closure} "
                            f"but face relation is {face_rel}"
                        )
                    # and b in the closure of a's class, across two cones
                    closure = not a_set & ~b_set
                    if i < j and closure != face_back:
                        failures.append(
                            f"closure({b}, {a}) = {closure} "
                            f"but face relation is {face_back}"
                        )
    return OracleReport(checks, tuple(failures))


def verify_dim_formula(mtf):
    """Dimension bookkeeping across the fan.

    For every cone, dim(cone) + rank(support classes) = n.  Every face of
    the wall belongs to the fan and is cut out of the wall by the span of
    its own support classes.  A wall that breaks an invariant is one
    failure, and its faces go unchecked.
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
    try:
        wall = None if mtf.module.is_zero() else mtf.wall
    except InvariantError as exc:
        wall = None
        checks += 1
        failures.append(f"wall broke: {exc}")
    if wall is not None:
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
