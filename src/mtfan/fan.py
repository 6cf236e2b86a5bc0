"""The equivalence fan of a module: cones of the normal fan of its Newton
polytope decorated with torsion-theoretic class data.

One index links the three: newton.faces[i], cones[i] and classes[i] are a
Newton face, its normal cone and that cone's class data.  Vertex k of the
Newton polytope is face k, so cone k is its maximal cone.  Nothing stores
the index; it is the position in each tuple.

The queries below take and return cone indices, and the wall and the
smallest cone are the fan's own cone objects.  A cone derived to check them
(a meet, a cut) is compared with a fan cone by its face key (lineality,
rays), which determines a canonical cone.

Functionals are equivalent relative to M exactly when they lie in the
relative interior of the same cone.  Each cone's class data is read off the
indexed submodule lattice at an interior witness theta: the t-set is the set
of submodules on which theta is largest, t and tbar are its least and
greatest members, w, f and fbar are the differences of dimension vectors,
and the stable support of w = tbar/t is the list of steps of a maximal chain
in the t-set.  The data is re-read at random interior points and checked
against the Newton face.  The definition routes (torsion scans, subquotient
modules) live in stability.py; the oracle compares them with this data at
every sample.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import InvariantError, ModuleDefinitionError
from .exact import lattice_basis_of_span, primitive, rank
from .polyhedra import (
    GeneralizedFan,
    Order,
    Polytope,
    key_dim,
    locate_index,
    normal_fan,
    ray_sum,
    vertex_order,
    vrep,
)
from .quiver import Module, Submodule, submodule_contains
from .stability import as_theta
from .sublattice import enumerate_submodules, newton_polytope

_SAMPLE_SEED = 0x5EED
_EXTRA_SAMPLES = 3


@dataclass(frozen=True)
class TFClassData:
    """Torsion-theoretic invariants attached to one cone of the fan."""

    t: Submodule  # least member of the t-set
    tbar: Submodule  # greatest member of the t-set
    t_dims: tuple[int, ...]
    tbar_dims: tuple[int, ...]
    w_dims: tuple[int, ...]
    f_dims: tuple[int, ...]
    fbar_dims: tuple[int, ...]
    supp_dims: tuple[tuple[int, ...], ...]  # sorted multiset
    t_set: frozenset  # submodules on which the cone's functionals are largest


@dataclass(frozen=True)
class MTFFan:
    """Newton polytope, its normal fan, and per-cone class data, all in face
    order: fan.cones[i] is the normal cone of newton.faces[i] and
    classes[i] is its class data."""

    module: Module
    newton: Polytope
    fan: GeneralizedFan
    classes: tuple[TFClassData, ...]

    @property
    def cones(self):
        return self.fan.cones

    @property
    def n(self):
        return self.module.algebra.n

    def maximal_indices(self):
        return self.fan.maximal_indices()

    @cached_property
    def wall(self):
        """The set of functionals at which the module itself is semistable.

        The fan's cone of the smallest face containing the Newton vertices 0
        and [M], checked against the meet of their two maximal cones by face
        key.  Memoized on the fan and freed with it.
        """
        module = self.module
        if module.is_zero():
            raise ModuleDefinitionError(
                "the wall is undefined for the zero module"
            )
        P = self.newton
        v0 = P.vertices.index((0,) * self.n)
        vM = P.vertices.index(tuple(module.dims))
        carrier = [
            set(f.vertex_ids)
            for f in P.faces
            if {v0, vM} <= set(f.vertex_ids)
        ]
        wall = self.cones[P.face_id(set.intersection(*carrier))]
        a, b = self.cones[v0], self.cones[vM]
        _require(
            vrep(self.n, a.eqs + b.eqs, a.ineqs + b.ineqs) == _key(wall),
            "the wall is not the cone of the smallest face through 0 and [M]",
        )
        subs = enumerate_submodules(module).submodules

        def semistable(theta):  # 0 and M are both in the t-set
            t, tbar, _, _ = _lattice_class(subs, theta)
            return t.total_dim == 0 and tbar.dims == module.dims

        _require(
            semistable(wall.relint_point()),
            "the module is not semistable inside the wall",
        )
        for i in self.maximal_indices():
            if not wall.contains_cone(self.cones[i]):
                _require(
                    not semistable(self.cones[i].relint_point()),
                    f"the module is semistable in cone {i}, off the wall",
                )
        return wall


def _lattice_class(subs, theta):
    """(t, tbar, supp_dims, t-set) at theta, read off the indexed lattice.

    The t-set is the set of submodules on which theta is largest; it is
    closed under sum and intersection, so its member of least total
    dimension is t and its member of greatest total dimension is tbar.  The
    steps of a maximal chain from t to tbar inside the t-set are the stable
    factors of tbar/t (Jordan-Hoelder for semistable modules).
    """
    theta = primitive(theta)  # a positive rescaling keeps the class
    vals = [sum(a * b for a, b in zip(theta, s.dims)) for s in subs]
    top = max(vals)
    members = [s for s, v in zip(subs, vals) if v == top]
    t = min(members, key=lambda s: s.total_dim)
    tbar = max(members, key=lambda s: s.total_dim)
    steps = []
    cur = t
    while cur != tbar:
        nxt = min(
            (
                s
                for s in members
                if s.total_dim > cur.total_dim and submodule_contains(s, cur)
            ),
            key=lambda s: s.total_dim,
        )
        steps.append(tuple(a - b for a, b in zip(nxt.dims, cur.dims)))
        cur = nxt
    return t, tbar, tuple(sorted(steps)), frozenset(members)


def _require(ok, what):
    if not ok:
        raise InvariantError(what)


def _key(cone):
    return cone.lineality, cone.rays


def build_mtf_fan(module):
    """Fan of equivalence classes of stability vectors relative to a module.

    Class data per cone is read off the submodule lattice at the
    deterministic interior witness and again at a few random interior
    points; any disagreement would mean the cone decomposition is wrong,
    so it raises InvariantError.
    """
    subs = enumerate_submodules(module).submodules
    P = newton_polytope(module)
    fan = normal_fan(P)
    n = module.algebra.n
    classes = []
    rng = random.Random(_SAMPLE_SEED)
    for idx, cone in enumerate(fan.cones):
        data = _lattice_class(subs, cone.relint_point())
        for _ in range(_EXTRA_SAMPLES):
            _require(
                _lattice_class(subs, cone.random_relint_point(rng)) == data,
                f"cone {idx}: class data differs inside the cone",
            )
        t, tbar, supp_dims, ts = data
        face = P.faces[idx]
        # the min and max of the Newton face are the classes of t and tbar:
        # both lie on the face, where theta is largest, so equal to the
        # componentwise min and max of its vertices they are vertices
        face_vecs = [P.vertices[v] for v in face.vertex_ids]
        t_vec, tbar_vec = t.dims, tbar.dims
        _require(
            t_vec == tuple(map(min, zip(*face_vecs)))
            and tbar_vec == tuple(map(max, zip(*face_vecs))),
            f"cone {idx}: t/tbar are not the min/max of the Newton face",
        )
        # duality of dimensions, and the span of the support cuts the cone
        _require(
            cone.dim == n - face.dim == n - rank(supp_dims),
            f"cone {idx}: dim {cone.dim} breaks dim + face dim = dim + rank(supp) = n",
        )
        classes.append(
            TFClassData(
                t=t,
                tbar=tbar,
                t_dims=t_vec,
                tbar_dims=tbar_vec,
                w_dims=tuple(b - a for a, b in zip(t_vec, tbar_vec)),
                f_dims=tuple(m - b for m, b in zip(module.dims, tbar_vec)),
                fbar_dims=tuple(m - a for m, a in zip(module.dims, t_vec)),
                supp_dims=supp_dims,
                t_set=ts,
            )
        )
    return MTFFan(module, P, fan, tuple(classes))


def class_of(mtf, theta):
    """Index i of the cone whose relative interior holds a functional: the
    cone is mtf.cones[i] and its class data mtf.classes[i]."""
    return locate_index(mtf.newton, mtf.fan, as_theta(theta, mtf.n))


def wall_cone(mtf):
    """The set of functionals at which the module itself is semistable."""
    return mtf.wall


def smallest_cone(mtf):
    """Intersection of all cones: the span of the coordinate functionals at
    vertices where the module vanishes.  It is the fan's cone at 0."""
    n = mtf.n
    cone = mtf.cones[class_of(mtf, (0,) * n)]
    units = [
        tuple(int(i == j) for j in range(n))
        for i, d in enumerate(mtf.module.dims)
        if d == 0
    ]
    _require(
        _key(cone) == (lattice_basis_of_span(units, n), ()),
        "the cone at 0 is not the span of the vanishing coordinates",
    )
    meet = vrep(
        n,
        [e for c in mtf.cones for e in c.eqs],
        [a for c in mtf.cones for a in c.ineqs],
    )
    _require(meet == _key(cone), "the cone at 0 is not the meet of all cones")
    return cone


def _oriented_edges(P):
    """(edge face id, lower vertex id, upper vertex id) for every Newton
    edge: the coordinatewise vertex order orients each edge."""
    out = []
    for eid in P.edges():
        a, b = P.faces[eid].vertex_ids
        order = vertex_order(P.vertices[a], P.vertices[b])
        _require(
            order in (Order.LESS, Order.GREATER),
            f"Newton edge {eid} joins incomparable vertices",
        )
        out.append((eid, a, b) if order is Order.LESS else (eid, b, a))
    return out


def facet_partition(mtf, idx):
    """Split the facets of maximal cone idx by the direction of the Newton
    edge they correspond to.

    Returns (plus, minus), cone indices of the facets across which the Newton
    vertex drops, respectively rises.  Each facet falls in exactly one part;
    the split is cross-checked against the facet cone's class data (the
    vertex drops iff t changes on the facet, rises iff tbar does).
    """
    cone = mtf.cones[idx]
    if cone.dim != mtf.n:
        raise ModuleDefinitionError("facet partition needs a maximal cone")
    data = mtf.classes[idx]
    plus, minus = [], []
    edges = [
        (eid, hi == idx)  # the vertex drops across the facet
        for eid, lo, hi in _oriented_edges(mtf.newton)
        if idx in (lo, hi)
    ]
    _require(
        len(edges) == len(cone.ineqs),
        f"cone {idx}: {len(edges)} Newton edges for {len(cone.ineqs)} facets",
    )
    for eid, drops in edges:
        # the facet's class data was read off at its witness
        facet = mtf.classes[eid]
        t_stays_torsion = facet.t_dims == data.t_dims
        f_stays_free = facet.tbar_dims == data.tbar_dims
        if drops:
            plus.append(eid)
            _require(
                not t_stays_torsion and f_stays_free,
                f"facet {eid}: the vertex drops, yet t stays or tbar moves",
            )
        else:
            minus.append(eid)
            _require(
                t_stays_torsion and not f_stays_free,
                f"facet {eid}: the vertex rises, yet tbar stays or t moves",
            )
    return tuple(plus), tuple(minus)


def boundary_regions(mtf, idx):
    """Decompose the boundary of maximal cone idx into the facets where t
    degenerates (plus side) and where f degenerates (minus side), as cone
    indices.

    The union of the two facet families is the whole boundary: every proper
    face of the cone lies in some listed facet (checked at the ray sum of
    each face, in ascending dimension).
    """
    plus, minus = facet_partition(mtf, idx)
    both = [mtf.cones[i] for i in plus + minus]
    cone = mtf.cones[idx]
    for key in sorted(cone.face_keys - {_key(cone)}, key=key_dim):
        probe = ray_sum(mtf.n, key)
        _require(
            any(c.contains(probe) for c in both) or not both,
            f"a face of dim {key_dim(key)} lies in no listed facet",
        )
    return plus, minus


@dataclass(frozen=True)
class FanPathCatalog:
    """Directed paths through adjacent maximal cones, oriented so that the
    Newton vertex increases coordinatewise along every step.  Node k is
    Newton vertex k and maximal cone k."""

    vertices: tuple[tuple[int, ...], ...]  # Newton vertex per node
    edges: tuple[tuple[int, int], ...]  # directed node pairs (small, large)
    increasing_paths: tuple[tuple[int, ...], ...]  # node sequences, all
    maximal_paths: tuple[tuple[int, ...], ...]  # inextensible ones

    def newton_path(self, path):
        return tuple(self.vertices[i] for i in path)


def fan_paths(mtf):
    """Catalog of increasing paths in the fan.

    Nodes are the maximal cones (equivalently the Newton vertices); steps
    cross a shared facet, which happens exactly along Newton edges, and are
    oriented by the coordinatewise vertex order.  Faces are sorted by
    (dim, vertex ids), so node, vertex id and cone index coincide.
    """
    vertices = mtf.newton.vertices
    edges = [(lo, hi) for _, lo, hi in _oriented_edges(mtf.newton)]
    succ = {i: [] for i in range(len(vertices))}
    pred = {i: [] for i in range(len(vertices))}
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    paths = []

    def extend(path):
        paths.append(tuple(path))
        for nxt in sorted(succ[path[-1]]):
            extend(path + [nxt])

    for start in range(len(vertices)):
        extend([start])
    maximal = tuple(
        p for p in paths if not pred[p[0]] and not succ[p[-1]]
    )
    return FanPathCatalog(
        vertices=vertices,
        edges=tuple(sorted(edges)),
        increasing_paths=tuple(sorted(paths)),
        maximal_paths=tuple(sorted(maximal)),
    )


def face_restriction_check(mtf, idx, fidx):
    """Whether face cone fidx of cone idx is cut out of it by the span
    conditions of its own support: cones[fidx] == cones[idx] intersected
    with {theta(d) = 0 for every support class d of the face}."""
    cone, face_cone = mtf.cones[idx], mtf.cones[fidx]
    if not face_cone.is_face_of(cone):
        raise ModuleDefinitionError("second cone is not a face of the first")
    supp = mtf.classes[fidx].supp_dims
    cut = vrep(mtf.n, cone.eqs + tuple(tuple(d) for d in supp), cone.ineqs)
    return cut == _key(face_cone)
