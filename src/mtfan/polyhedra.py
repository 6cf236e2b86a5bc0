"""Exact polyhedral geometry: cones, polytopes, face lattices, normal fans.

All coordinates are rational and all predicates exact.  Cones carry both a
canonical H-representation (equalities and irredundant facet inequalities,
primitive integer normals) and a canonical V-representation (Hermite-normal
lineality basis plus the primitive extreme rays of the cone intersected with
the orthogonal complement of its lineality), so structural equality of Cone
values coincides with geometric equality.

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

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import InvariantError
from .exact import (
    dot,
    lattice_basis_of_span,
    nullspace,
    number,
    primitive,
    rank,
    rref,
    subspace_canonical,
)


class Order(enum.Enum):
    """Coordinatewise comparison outcome for two vectors."""

    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def vertex_order(u, v):
    if len(u) != len(v):
        raise ValueError("vectors of different lengths")
    le = all(a <= b for a, b in zip(u, v))
    ge = all(a >= b for a, b in zip(u, v))
    if le and ge:
        return Order.EQUAL
    if le:
        return Order.LESS
    if ge:
        return Order.GREATER
    return Order.INCOMPARABLE


# ---------------------------------------------------------------------------
# double description


def _dd_pointed(normals, d):
    """Extreme rays of the pointed cone {t in R^d : a.t >= 0 for all a}.

    The normals must span R^d (which is exactly pointedness).  Insertion
    order is the given order; adjacency uses the combinatorial zero-set test.
    """
    if d == 0:
        return ()
    # the pivot columns of the normals as columns: the first d independent
    # normals, chosen greedily from the front
    _, init = rref([tuple(a[j] for a in normals) for j in range(d)])
    if len(init) < d:
        raise ValueError("cone is not pointed: normals do not span")
    # the columns of the inverse of the chosen rows are the initial rays
    red, _ = rref(
        [tuple(normals[i]) + tuple(int(k == j) for j in range(d))
         for k, i in enumerate(init)]
    )
    rays = [primitive(tuple(row[d + j] for row in red)) for j in range(d)]
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

    Returns (lineality_basis, rays): a rational basis of the lineality space
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


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone in canonical form; equal cones are equal values."""

    n: int
    dim: int
    eqs: tuple[tuple[int, ...], ...]
    ineqs: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]

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
        gens = list(other.rays)
        for v in other.lineality:
            gens.append(v)
            gens.append(tuple(-x for x in v))
        return all(self.contains(g) for g in gens)

    def relint_point(self):
        """Deterministic integer point in the relative interior."""
        pt = ray_sum(self.n, (self.lineality, self.rays))
        if not self.contains_relint(pt):
            raise InvariantError(f"ray sum {pt} is not in the relative interior")
        return pt

    def random_relint_point(self, rng):
        """Random rational point in the relative interior."""
        pt = [Fraction(0)] * self.n
        for r in self.rays:
            c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            pt = [a + c * x for a, x in zip(pt, r)]
        for l in self.lineality:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            pt = [a + c * x for a, x in zip(pt, l)]
        pt = tuple(pt)
        if not self.contains_relint(pt):
            raise InvariantError("random ray combination left the relative interior")
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
        return self.n == other.n and (self.lineality, self.rays) in other.face_keys


def _meet_closure(sets, top):
    """top, the given sets and all their intersections (sets or bit masks)."""
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
    return found


def vrep(n, eqs, ineqs):
    """Face key (lineality, rays) of the canonical cone
    {x : eq.x = 0, a.x >= 0}: one double description pass."""
    lin_raw, rays = _dd(ineqs, eqs, n)
    return lattice_basis_of_span(lin_raw, n), rays


def key_dim(key):
    """Dimension of the cone with the given face key."""
    lineality, rays = key
    return rank(list(lineality) + list(rays))


def key_eqs(n, key):
    """Canonical equations (the eqs of the canonical cone) of the linear
    span of a face key."""
    lineality, rays = key
    return subspace_canonical(nullspace(list(lineality) + list(rays), n))


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
    eqs_c = subspace_canonical(dual_lin)
    dim = n - len(eqs_c)
    cone = Cone(n, dim, eqs_c, tuple(sorted(facets)), lineality, rays)
    for g in list(rays) + list(lineality):
        if not all(dot(e, g) == 0 for e in eqs_c):
            raise InvariantError(f"generator {g} violates an equation of its cone")
    if not rank(list(lineality) + list(rays)) == dim:
        raise InvariantError(f"generators do not span the cone's dimension {dim}")
    return cone


def cone_from_generators(n, rays=(), lineality=()):
    """Canonical cone spanned by ray generators plus a lineality span."""
    dual_lin, facets = _dd([tuple(r) for r in rays], [tuple(v) for v in lineality], n)
    eqs_c = subspace_canonical(dual_lin)
    return cone_from_hrep(n, eqs_c, facets)


def cone_intersection(a, b):
    if a.n != b.n:
        raise ValueError("cones in different ambient dimensions")
    return cone_from_hrep(a.n, a.eqs + b.eqs, a.ineqs + b.ineqs)


def full_cone(n):
    return cone_from_hrep(n, (), ())


# ---------------------------------------------------------------------------
# polytopes


@dataclass(frozen=True)
class Face:
    """Face of a polytope: vertex ids and dimension."""

    vertex_ids: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many rational points with its face lattice,
    its facets as (vertex ids, primitive outer normal) and the HNF basis of
    the span of its affine equations, orthogonal to every facet normal."""

    n: int
    vertices: tuple[tuple[int | Fraction, ...], ...]  # exact.number coordinates
    faces: tuple[Face, ...]
    facets: tuple[tuple[frozenset[int], tuple[int, ...]], ...]
    lineality: tuple[tuple[int, ...], ...]
    _face_lookup: dict = field(compare=False, repr=False, hash=False)

    @property
    def dim(self):
        return self.faces[-1].dim

    def face_id(self, vertex_ids):
        return self._face_lookup[frozenset(vertex_ids)]

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
    itself included, ordered by (dim, vertex ids).
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

    # shifted to put pts[0] at the origin, the affine equations are linear
    # and the dual rays (c0, c) come out with c orthogonal to them
    homog = [primitive((1,) + tuple(a - b for a, b in zip(v, pts[0])))
             for v in pts]
    dual_lin, dual_rays = _dd(homog, (), n + 1)
    eq_parts = [e[1:] for e in dual_lin]

    facet_data = []  # (tight point ids, outer normal)
    for normal in dual_rays:
        tight = frozenset(i for i, h in enumerate(homog) if dot(normal, h) == 0)
        if tight:
            facet_data.append((tight, primitive(tuple(-c for c in normal[1:]))))

    def is_vertex(i):
        return rank(eq_parts + [a for tight, a in facet_data if i in tight]) == n

    vertices = tuple(sorted(pts[i] for i in range(len(pts)) if is_vertex(i)))
    new_id = {v: i for i, v in enumerate(vertices)}
    facets = sorted(
        ((frozenset(new_id[pts[i]] for i in tight if pts[i] in new_id), a)
         for tight, a in facet_data),
        key=lambda facet: sorted(facet[0]),
    )

    all_sets = _meet_closure([ids for ids, _ in facets],
                             frozenset(range(len(vertices))))
    all_sets.discard(frozenset())

    faces = []
    for vs in all_sets:
        affine_dim = rank([(1,) + vertices[i] for i in vs]) - 1
        faces.append(Face(tuple(sorted(vs)), affine_dim))
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    lookup = {frozenset(f.vertex_ids): i for i, f in enumerate(faces)}
    for f in faces:
        if f.dim == 1 and not len(f.vertex_ids) == 2:
            raise InvariantError(f"edge with {len(f.vertex_ids)} vertices")
    lineality = lattice_basis_of_span(eq_parts, n)
    return Polytope(n, vertices, tuple(faces), tuple(facets), lineality, lookup)


def _max_face_id(polytope, theta):
    vals = [dot(theta, v) for v in polytope.vertices]
    best = max(vals)
    return polytope.face_id(i for i, x in enumerate(vals) if x == best)


def max_face(polytope, theta):
    """Face of the polytope where theta attains its maximum."""
    return polytope.faces[_max_face_id(polytope, theta)]


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


@dataclass(frozen=True)
class GeneralizedFan:
    """A finite collection of canonical cones in a common ambient space."""

    n: int
    cones: tuple[Cone, ...]

    def __len__(self):
        return len(self.cones)

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
        raise InvariantError(f"{theta} is not inside the cone of its maximal face")
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


@dataclass(frozen=True)
class FanValidationReport:
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
    if n == 0:
        return ((),)
    pts = [()]
    for _ in range(n):
        pts = [t + (v,) for t in pts for v in range(-bound, bound + 1)]
    return tuple(pts)


def validate_generalized_fan(fan, check_completeness=True):
    """Check the generalized-fan axioms for a set of cones.

    Face closure: every face of every cone belongs to the set.  Pairwise:
    the intersection of two cones is a face of both.  Completeness
    (optional): sampled integer points are covered, and every facet of every
    full-dimensional cone is shared with exactly one other full-dimensional
    cone.

    Cones are compared by their canonical (lineality, rays), which determine
    a canonical cone; faces are read off each cone's own rays (face_keys),
    never off a polytope's face lattice.
    """
    cones = tuple(fan.cones)
    n = fan.n
    fan_keys = {(c.lineality, c.rays) for c in cones}
    face_keys = [c.face_keys for c in cones]
    face_violations = []
    for i, keys in enumerate(face_keys):
        for dim in sorted(key_dim(k) for k in keys if k not in fan_keys):
            face_violations.append(
                f"cone {i}: face of dim {dim} is missing from the fan"
            )
    inter_violations = []
    for i, a in enumerate(cones):
        for j in range(i + 1, len(cones)):
            b = cones[j]
            meet = vrep(n, a.eqs + b.eqs, a.ineqs + b.ineqs)
            if meet not in face_keys[i] or meet not in face_keys[j]:
                inter_violations.append(
                    f"cones {i} and {j}: intersection of dim "
                    f"{key_dim(meet)} is not a common face"
                )
    comp_violations = []
    if check_completeness:
        maximal = [i for i, c in enumerate(cones) if c.dim == n]
        if not maximal:
            comp_violations.append("no full-dimensional cone")
        for pt in integer_grid(n, 2):
            if not any(c.contains(pt) for c in cones):
                comp_violations.append(f"point {pt} is not covered")
        for i in maximal:
            c = cones[i]
            for a in c.ineqs:
                rays = tuple(r for r in c.rays if dot(a, r) == 0)
                owners = [
                    j
                    for j in maximal
                    if j != i and (c.lineality, rays) in face_keys[j]
                ]
                if len(owners) != 1:
                    comp_violations.append(
                        f"cone {i}: facet shared with {len(owners)} "
                        "other maximal cones instead of 1"
                    )
    return FanValidationReport(
        tuple(face_violations), tuple(inter_violations), tuple(comp_violations)
    )
