"""Exact polyhedral geometry: cones, polytopes, face lattices, normal fans.

All coordinates are rational and all predicates exact.  Cones carry both a
canonical H-representation (equalities and irredundant facet inequalities,
primitive integer normals) and a canonical V-representation (lineality basis
plus the primitive extreme rays of the cone intersected with the orthogonal
complement of its lineality), so structural equality of Cone values
coincides with geometric equality.  Equations and lineality, and a
polytope's lineality, are stored in the one canonical form of a rational
subspace, its exact.rref rows.

Conversion between the two representations runs the double description
method: facets of a cone are the extreme rays of its dual, so one insertion
loop serves both directions.

The face key of a canonical cone is its (lineality, rays); it determines the
cone.  Faces of a cone are listed as face keys read off the cone's own rays
and facet normals (Cone.face_keys), with no double description pass.

A Polytope keeps what its one double description pass found: exact vertices,
facets with their outer normals, and the lineality of its normal cones, so
each normal cone takes one more pass, for its own facets (normal_cone).

Faces sort by (dim, vertex ids), so face k is vertex k for every vertex k.
The normal fan is a GeneralizedFan in face order: cones[i] is the normal
cone of faces[i], and no other table links the two.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, reduce
from itertools import product
from operator import and_, eq, ge, le, or_
from typing import NamedTuple

from .errors import InvariantError, ResourceLimitError
from .exact import (
    dot,
    nullspace,
    number,
    primitive,
    rank,
    rref,
    theta_str,
)
from .record import Record

# validate_generalized_fan checks that every point of [-B, B]^n is covered
COMPLETENESS_GRID_BOUND = 2
# convex_hull's bounds: distinct points, checked before the double
# description pass (0.5 s on the 8-cube's 256 vertices), and faces, the empty
# face counted, checked while they are listed (the 7-cube has 2188)
MAX_HULL_POINTS = 200
MAX_HULL_FACES = 1024


# ---------------------------------------------------------------------------
# double description


def _dd_pointed(normals, d):
    """Extreme rays of the pointed cone {t in R^d : a.t >= 0 for all a}.

    The normals must span R^d (which is exactly pointedness) and d >= 1.
    Insertion order is the given order; adjacency uses the combinatorial
    zero-set test.
    """
    # the pivot columns of the normals as columns: the first d independent
    # normals, chosen greedily from the front
    init = [
        next(c for c, x in enumerate(row) if x)
        for row in rref([tuple(a[j] for a in normals) for j in range(d)])
    ]
    if len(init) < d:
        raise ValueError("cone is not pointed: normals do not span")
    # the columns of the inverse of the chosen rows are the initial rays;
    # rref row i is that inverse's row i times its pivot red[i][i]
    red = rref(
        [tuple(normals[i]) + tuple(int(k == j) for j in range(d))
         for k, i in enumerate(init)]
    )
    scale = math.lcm(*(row[i] for i, row in enumerate(red)))
    rays = [
        primitive(tuple(row[d + j] * (scale // row[i]) for i, row in enumerate(red)))
        for j in range(d)
    ]
    processed = [normals[i] for i in init]
    rest = [a for i, a in enumerate(normals) if i not in init]

    for a in rest:
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(a)
            continue
        zero_sets = [
            frozenset(k for k, b in enumerate(processed) if dot(b, r) == 0)
            for r in rays
        ]
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        for i in plus:
            for j in minus:
                meet = zero_sets[i] & zero_sets[j]
                adjacent = True
                for k in range(len(rays)):
                    if k != i and k != j and meet <= zero_sets[k]:
                        adjacent = False
                        break
                if adjacent:
                    combo = tuple(
                        vals[i] * rays[j][c] - vals[j] * rays[i][c]
                        for c in range(d)
                    )
                    new_rays.append(primitive(combo))
        rays = [rays[i] for i in plus + zero] + new_rays
        processed.append(a)
    return tuple(sorted(set(rays)))


def _dd(ineqs, eqs, n):
    """V-representation of {x : eq.x = 0, a.x >= 0}.

    Returns (lineality_basis, rays): an integer basis of the lineality space
    and the primitive extreme rays of the cone intersected with the
    orthogonal complement of the lineality, sorted.
    """
    ineqs = [tuple(v) for v in ineqs]
    eqs = [tuple(v) for v in eqs]
    lin = nullspace(eqs + ineqs, n)
    w_basis = nullspace(eqs + list(lin), n)
    d = len(w_basis)
    if d == 0:
        return lin, ()
    restricted = []
    seen = set()
    for a in ineqs:
        ar = primitive(tuple(dot(a, w) for w in w_basis))
        if any(ar) and ar not in seen:
            seen.add(ar)
            restricted.append(ar)
    rays_t = _dd_pointed(restricted, d)
    rays = sorted(
        primitive(tuple(sum(t[j] * w_basis[j][c] for j in range(d))
                        for c in range(n)))
        for t in rays_t
    )
    return lin, tuple(rays)


# ---------------------------------------------------------------------------
# cones


class Cone(Record):
    """Polyhedral cone in canonical form; equal cones are equal values.
    eqs, ineqs, lineality and rays are tuples of integer vectors."""

    _fields = ("n", "dim", "eqs", "ineqs", "lineality", "rays")

    def __init__(self, n, dim, eqs, ineqs, lineality, rays):
        vars(self).update(
            n=n, dim=dim, eqs=eqs, ineqs=ineqs, lineality=lineality, rays=rays
        )

    @property
    def key(self):
        """The face key (lineality, rays), which determines the cone."""
        return self.lineality, self.rays

    def exposed_key(self, u):
        """Face key of the face where u vanishes, for a u that is >= 0 (or
        <= 0) on the whole cone: the lineality and the rays u vanishes on."""
        return self.lineality, tuple(r for r in self.rays if dot(u, r) == 0)

    def contains(self, theta):
        return all(dot(e, theta) == 0 for e in self.eqs) and all(
            dot(a, theta) >= 0 for a in self.ineqs
        )

    def contains_relint(self, theta):
        """Membership in the relative interior (facet inequalities strict)."""
        return all(dot(e, theta) == 0 for e in self.eqs) and all(
            dot(a, theta) > 0 for a in self.ineqs
        )

    def contains_cone(self, other):
        return self.contains_key(other.key)

    def contains_key(self, key):
        """Whether the cone with face key (lineality, rays) lies in this
        cone: its rays and both signs of its lineality vectors do."""
        lineality, rays = key
        negated = [tuple(-x for x in v) for v in lineality]
        return all(self.contains(g) for g in (*rays, *lineality, *negated))

    def relint_point(self):
        """Deterministic integer point in the relative interior."""
        pt = ray_sum(self.n, self.key)
        if not self.contains_relint(pt):
            raise InvariantError(f"ray sum {pt} is not in the relative interior")
        return pt

    @cached_property
    def face_keys(self):
        """Face keys (lineality, rays) of every face, the cone itself included.

        Faces keep the cone's lineality, and a face's rays are the cone's
        rays on which its tight facet normals vanish.  The faces are the cone
        itself and every intersection of facets, so their ray sets are the
        full set and the closure of the facet zero-sets under intersection
        (bit masks over self.rays).
        """
        rays = self.rays
        facets = {
            sum(1 << k for k, r in enumerate(rays) if dot(a, r) == 0)
            for a in self.ineqs
        }
        return frozenset(
            (self.lineality, tuple(r for k, r in enumerate(rays) if mask >> k & 1))
            for mask in _meet_closure(facets, (1 << len(rays)) - 1)
        )

    def is_face_of(self, other):
        """Whether self is a face of other: a face of a canonical cone is
        determined by its face key, so no double description pass is needed."""
        return self.n == other.n and self.key in other.face_keys


def _meet_closure(sets, top, max_count=math.inf):
    """top, the given sets and all their intersections (sets or bit masks);
    more than max_count of them raise ResourceLimitError."""
    sets = set(sets)
    found = sets | {top}
    frontier = list(sets)
    while frontier:
        cur = frontier.pop()
        for s in sets:
            meet = cur & s
            if meet not in found:
                found.add(meet)
                frontier.append(meet)
                if len(found) > max_count:
                    raise ResourceLimitError(
                        f"the face lattice has more than {max_count} faces, "
                        "the empty face counted, the convex hull's bound"
                    )
    return found


def vrep(n, eqs, ineqs):
    """Face key (lineality, rays) of the canonical cone
    {x : eq.x = 0, a.x >= 0}: one double description pass."""
    lin_raw, rays = _dd(ineqs, eqs, n)
    return rref(lin_raw), rays


def key_dim(key):
    """Dimension of the cone with the given face key."""
    lineality, rays = key
    return rank(list(lineality) + list(rays))


def key_eqs(n, key):
    """Canonical equations (the eqs of the canonical cone) of the linear
    span of a face key."""
    lineality, rays = key
    return rref(nullspace(list(lineality) + list(rays), n))


def ray_sum(n, key):
    """Sum of the rays of a face key, or of its lineality basis when it has
    no rays: an integer point in the relative interior of its cone."""
    lineality, rays = key
    gens = rays or lineality
    return tuple(sum(g[c] for g in gens) for c in range(n))


def cone_from_hrep(n, eqs, ineqs):
    """Canonical cone {x : eq.x = 0, a.x >= 0}."""
    return cone_from_key(n, vrep(n, eqs, ineqs))


def cone_from_key(n, key):
    """Canonical cone with the given face key (lineality, rays): one double
    description pass, for its equations and facets."""
    lineality, rays = key
    dual_lin, facets = _dd(rays, [tuple(v) for v in lineality], n)
    eqs_c = rref(dual_lin)
    dim = n - len(eqs_c)
    cone = Cone(n, dim, eqs_c, tuple(sorted(facets)), lineality, rays)
    for g in list(rays) + list(lineality):
        if not all(dot(e, g) == 0 for e in eqs_c):
            raise InvariantError(f"generator {g} violates an equation of its cone")
    if not rank(list(lineality) + list(rays)) == dim:
        raise InvariantError(f"generators do not span the cone's dimension {dim}")
    return cone


def cone_intersection(a, b):
    if a.n != b.n:
        raise ValueError("cones in different ambient dimensions")
    return cone_from_hrep(a.n, a.eqs + b.eqs, a.ineqs + b.ineqs)


# ---------------------------------------------------------------------------
# polytopes


class Face(NamedTuple):
    """Face of a polytope: vertex ids and dimension."""

    vertex_ids: tuple[int, ...]
    dim: int


class Polytope(Record):
    """Convex hull of finitely many rational points with its face lattice,
    its facets as (vertex ids, primitive outer normal) and the canonical
    basis (exact.rref) of the span of its affine equations, orthogonal to
    every facet normal.  Vertices have exact.number coordinates."""

    _fields = ("n", "vertices", "faces", "facets", "lineality")

    def __init__(self, n, vertices, faces, facets, lineality):
        vars(self).update(
            n=n, vertices=vertices, faces=faces, facets=facets, lineality=lineality
        )

    @property
    def dim(self):
        return self.faces[-1].dim

    def face_id(self, vertex_ids):
        return self._face_lookup[frozenset(vertex_ids)]

    @cached_property
    def _face_lookup(self):
        return {frozenset(f.vertex_ids): i for i, f in enumerate(self.faces)}

    def face_children(self, fid):
        """Ids of the faces covered by faces[fid] (one dimension down)."""
        return self._cover[fid]

    @cached_property
    def _cover(self):
        # a face covered by f is f's meet with some facet of the polytope
        cover = []
        for f in self.faces:
            vs = frozenset(f.vertex_ids)
            meets = {self._face_lookup.get(vs & ids) for ids, _ in self.facets}
            meets.discard(None)
            cover.append(
                tuple(sorted(k for k in meets if self.faces[k].dim == f.dim - 1))
            )
        return tuple(cover)

    def edges(self):
        return tuple(i for i, f in enumerate(self.faces) if f.dim == 1)


def convex_hull(points, n):
    """Polytope from a finite point set in R^n (exact rational arithmetic).

    The face lattice is complete: every nonempty face appears, the polytope
    itself included, ordered by (dim, vertex ids).  More than
    MAX_HULL_POINTS distinct points or MAX_HULL_FACES faces raise
    ResourceLimitError.
    """
    pts = []
    seen = set()
    for pt in points:
        t = tuple(number(x) for x in pt)
        if len(t) != n:
            raise ValueError("point of wrong dimension")
        if t not in seen:
            seen.add(t)
            pts.append(t)
    if not pts:
        raise ValueError("convex hull of an empty point set")
    if len(pts) > MAX_HULL_POINTS:
        raise ResourceLimitError(
            f"{len(pts)} distinct points, more than the convex hull's bound "
            f"of {MAX_HULL_POINTS}"
        )

    # shifted to put pts[0] at the origin, the affine equations are linear
    # and the dual rays (c0, c) come out with c orthogonal to them
    homog = [primitive((1,) + tuple(a - b for a, b in zip(v, pts[0])))
             for v in pts]
    dual_lin, dual_rays = _dd(homog, (), n + 1)

    facet_data = []  # (tight point ids, outer normal)
    for normal in dual_rays:
        tight = frozenset(i for i, h in enumerate(homog) if dot(normal, h) == 0)
        if tight:
            facet_data.append((tight, primitive(tuple(-c for c in normal[1:]))))

    # a vertex is the only point on every facet through it; with no facet
    # through a point, every point is on all of them
    everything = frozenset(range(len(pts)))

    def is_vertex(i):
        return everything.intersection(
            *(tight for tight, _ in facet_data if i in tight)) == {i}

    vertices = tuple(sorted(pts[i] for i in range(len(pts)) if is_vertex(i)))
    new_id = {v: i for i, v in enumerate(vertices)}
    facets = sorted(
        ((frozenset(new_id[pts[i]] for i in tight if pts[i] in new_id), a)
         for tight, a in facet_data),
        key=lambda facet: sorted(facet[0]),
    )

    all_sets = _meet_closure([ids for ids, _ in facets],
                             frozenset(range(len(vertices))), MAX_HULL_FACES)
    all_sets.discard(frozenset())

    faces = []
    for vs in all_sets:
        affine_dim = rank([(1,) + vertices[i] for i in vs]) - 1
        faces.append(Face(tuple(sorted(vs)), affine_dim))
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    for f in faces:
        if f.dim == 1 and not len(f.vertex_ids) == 2:
            raise InvariantError(f"edge with {len(f.vertex_ids)} vertices")
    lineality = rref([e[1:] for e in dual_lin])
    return Polytope(n, vertices, tuple(faces), tuple(facets), lineality)


def _max_face_id(polytope, theta):
    vals = [dot(theta, v) for v in polytope.vertices]
    best = max(vals)
    return polytope.face_id(i for i, x in enumerate(vals) if x == best)


def normal_cone(polytope, face):
    """Cone of linear functionals maximized exactly on the given face: the
    polytope's lineality plus the outer normals of the facets containing
    the face, which are the extreme rays (Ziegler, Lectures on Polytopes,
    section 7.1)."""
    vs = set(face.vertex_ids)
    rays = tuple(sorted(a for ids, a in polytope.facets if vs <= ids))
    cone = cone_from_key(polytope.n, (polytope.lineality, rays))
    if not cone.dim == polytope.n - face.dim:
        raise InvariantError(
            f"normal cone of dim {cone.dim} at a face of dim {face.dim} in R^{polytope.n}"
        )
    return cone


class GeneralizedFan(NamedTuple):
    """A finite collection of canonical cones in a common ambient space."""

    n: int
    cones: tuple[Cone, ...]

    def maximal_indices(self):
        return tuple(i for i, c in enumerate(self.cones) if c.dim == self.n)


def normal_fan(polytope):
    """Normal fan of a polytope, in face order: cones[i] is the normal cone
    of polytope.faces[i].  The shared index is the order-reversing bijection
    between the face lattice and the fan (the faces of cones[i] are the
    cones of the faces containing face i); vertex k is face k, so cone k is
    the maximal cone of vertex k."""
    cones = tuple(normal_cone(polytope, f) for f in polytope.faces)
    if not len(set(cones)) == len(cones):
        raise InvariantError("two faces share a normal cone")
    return GeneralizedFan(polytope.n, cones)


def locate_index(polytope, fan, theta):
    """Index of the unique cone of the polytope's normal fan whose relative
    interior contains theta: the index of the face where theta is largest."""
    fid = _max_face_id(polytope, theta)
    if not fan.cones[fid].contains_relint(theta):
        raise InvariantError(
            f"{theta_str(theta)} is not inside the cone of its maximal face"
        )
    return fid


def minkowski_sum(p, q):
    """Convex hull of pairwise sums of two polytopes in the same space."""
    if p.n != q.n:
        raise ValueError("polytopes in different ambient dimensions")
    sums = [
        tuple(a + b for a, b in zip(u, v))
        for u in p.vertices
        for v in q.vertices
    ]
    return convex_hull(sums, p.n)


# ---------------------------------------------------------------------------
# fan validation


class FanValidationReport(NamedTuple):
    face_closure_violations: tuple[str, ...]
    intersection_violations: tuple[str, ...]
    completeness_violations: tuple[str, ...]

    @property
    def ok(self):
        return not (
            self.face_closure_violations
            or self.intersection_violations
            or self.completeness_violations
        )


def integer_grid(n, bound):
    """Every integer vector with entries in [-bound, bound], in lexicographic
    order."""
    return tuple(product(range(-bound, bound + 1), repeat=n))


def _mask(vals, test):
    """The int with bit k set where test(vals[k], 0) holds."""
    flags = bytes([test(v, 0) for v in reversed(vals)])
    return int(b"0" + flags.translate(bytes.maketrans(b"\0\1", b"01")), 2)


def validate_generalized_fan(fan):
    """Check the generalized-fan axioms for a set of cones.

    Face closure: every face of every cone belongs to the set.  Pairwise:
    the intersection of two cones is a face of both.  Completeness: the
    points of the integer grid [-B, B]^n, B = COMPLETENESS_GRID_BOUND, are
    covered, and every facet of every full-dimensional cone is shared with
    exactly one other full-dimensional cone.

    Only the cones are read.  A cone is the bit mask of its generators, its
    rays and both signs of its lineality vectors, which determine it.  Each
    distinct normal takes one dot product per generator, kept as the masks
    where it is 0, >= 0 and <= 0; running sums give its masks on the grid.
    A meet of cones a and b is certified by nesting, or by the sum u of the
    facet normals of a that are <= 0 on b minus those of b that are <= 0 on
    a: each term is >= 0 on a and <= 0 on b, so u vanishes where all terms
    do, and a & b is a & u-perp or b & u-perp if it lies in the other cone.
    Other pairs take a double description pass.
    """
    cones, n, bit = tuple(fan.cones), fan.n, {}

    def mask(key):
        lineality, rays = key
        vecs = (*rays, *lineality, *(tuple(-x for x in v) for v in lineality))
        return sum(bit.setdefault(g, 1 << len(bit)) for g in vecs)

    def dim(m):
        return rank([g for g in bit if bit[g] & m])

    def contained(c, zero, nonneg):  # the mask of what c contains
        return reduce(and_, [*map(zero.get, c.eqs), *map(nonneg.get, c.ineqs)], -1)

    gens = [mask(c.key) for c in cones]
    zero, nonneg, nonpos, grid_zero, grid_nonneg = {}, {}, {}, {}, {}
    steps = range(-COMPLETENESS_GRID_BOUND, COMPLETENESS_GRID_BOUND + 1)
    for u in dict.fromkeys(u for c in cones for u in (*c.eqs, *c.ineqs)):
        vals = [dot(u, g) for g in bit]
        zero[u], nonneg[u], nonpos[u] = (_mask(vals, t) for t in (eq, ge, le))
        vals = [0]
        for x in u:
            vals = [v + x * t for v in vals for t in steps]
        grid_zero[u], grid_nonneg[u] = _mask(vals, eq), _mask(vals, ge)
    inside = [contained(c, zero, nonneg) for c in cones]
    faces = [_meet_closure({m & zero[u] for u in c.ineqs}, m)
             for c, m in zip(cones, gens)]

    def certified_meet(i, j):
        a, b = gens[i], gens[j]
        if not a & ~inside[j]:
            return a
        if not b & ~inside[i]:
            return b
        z = reduce(and_, [zero[u] for u in cones[i].ineqs if not b & ~nonpos[u]]
                   + [zero[v] for v in cones[j].ineqs if not a & ~nonpos[v]], -1)
        # with no separator z is every bit, and the tests above repeat
        exposed = ((a & z, j), (b & z, i))
        return next((f for f, k in exposed if not f & ~inside[k]), None)

    fan_masks = set(gens)
    face_violations = [f"cone {i}: face of dim {d} is missing from the fan"
                       for i, masks in enumerate(faces)
                       for d in sorted(dim(m) for m in masks - fan_masks)]
    inter_violations = []
    for i, a in enumerate(cones):
        for j, b in enumerate(cones[i + 1:], i + 1):
            meet = certified_meet(i, j)
            if meet is None:  # a generator that is no cone's gets a new bit
                meet = mask(vrep(n, a.eqs + b.eqs, a.ineqs + b.ineqs))
            if meet not in faces[i] or meet not in faces[j]:
                inter_violations.append(f"cones {i} and {j}: intersection "
                                        f"of dim {dim(meet)} is not a common face")
    maximal = [i for i, c in enumerate(cones) if c.dim == n]
    comp_violations = [] if maximal else ["no full-dimensional cone"]
    covered = reduce(or_, (contained(c, grid_zero, grid_nonneg) for c in cones), 0)
    points = integer_grid(n, COMPLETENESS_GRID_BOUND)
    comp_violations += [f"point {pt} is not covered"
                        for p, pt in enumerate(points) if not covered >> p & 1]
    owners = Counter(m for i in maximal for m in faces[i])
    comp_violations += [
        f"cone {i}: facet shared with {k} other maximal cones instead of 1"
        for i in maximal for u in cones[i].ineqs
        if (k := owners[gens[i] & zero[u]] - 1) != 1]
    return FanValidationReport(
        tuple(face_violations), tuple(inter_violations), tuple(comp_violations)
    )
