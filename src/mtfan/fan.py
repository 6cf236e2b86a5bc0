"""The equivalence fan of a module: cones of the normal fan of its Newton
polytope decorated with torsion-theoretic class data.

One index links the three: newton.faces[i], cones[i] and classes[i] are a
Newton face, its normal cone and that cone's class data.  Vertex k of the
Newton polytope is face k, so cone k is its maximal cone.  Nothing stores
the index; it is the position in each tuple.

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
from .exact import primitive, rank
from .polyhedra import (
    Cone,
    GeneralizedFan,
    Order,
    Polytope,
    cone_from_generators,
    cone_from_hrep,
    cone_intersection,
    key_dim,
    locate_index,
    normal_fan,
    ray_sum,
    vertex_order,
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
    witness: tuple[int, ...]
    t_set: frozenset  # submodules on which the witness is largest


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

    def cone_index(self, cone):
        for i, c in enumerate(self.cones):
            if c == cone:
                return i
        raise KeyError("cone does not belong to the fan")

    def maximal_indices(self):
        return self.fan.maximal_indices()

    @cached_property
    def wall(self):
        """The set of functionals at which the module itself is semistable.

        Computed as the intersection of the normal cones at the Newton
        vertices 0 and [M]; equals the normal cone of the smallest face
        containing both.  Memoized on the fan and freed with it.
        """
        module = self.module
        if module.is_zero():
            raise ModuleDefinitionError(
                "the wall is undefined for the zero module"
            )
        P = self.newton
        v0 = P.vertices.index((0,) * self.n)
        vM = P.vertices.index(tuple(module.dims))
        wall = cone_intersection(self.cones[v0], self.cones[vM])
        carrier = [
            set(f.vertex_ids)
            for f in P.faces
            if {v0, vM} <= set(f.vertex_ids)
        ]
        smallest = frozenset(set.intersection(*carrier))
        _require(
            wall == self.cones[P.face_id(smallest)],
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
        witness = cone.relint_point()
        data = _lattice_class(subs, witness)
        for _ in range(_EXTRA_SAMPLES):
            _require(
                _lattice_class(subs, cone.random_relint_point(rng)) == data,
                f"cone {idx}: class data differs inside the cone",
            )
        t, tbar, supp_dims, ts = data
        face = P.faces[idx]
        # the min and max of the Newton face are the classes of t and tbar
        face_vecs = [P.vertices[v] for v in face.vertex_ids]
        t_vec, tbar_vec = t.dims, tbar.dims
        _require(
            t_vec in face_vecs
            and tbar_vec in face_vecs
            and all(vertex_order(t_vec, v) in (Order.LESS, Order.EQUAL) for v in face_vecs)
            and all(vertex_order(tbar_vec, v) in (Order.GREATER, Order.EQUAL) for v in face_vecs),
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
                witness=witness,
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
    vertices where the module vanishes."""
    module = mtf.module
    gens = [
        tuple(int(i == j) for j in range(mtf.n))
        for i, d in enumerate(module.dims)
        if d == 0
    ]
    cone = cone_from_generators(mtf.n, (), gens)
    at_zero = mtf.cones[class_of(mtf, (0,) * mtf.n)]
    _require(cone == at_zero, "the smallest cone is not the cone at 0")
    meet = mtf.cones[0]
    for c in mtf.cones[1:]:
        meet = cone_intersection(meet, c)
    _require(cone == meet, "the smallest cone is not the meet of all cones")
    return cone


def _edge_neighbors(mtf, idx):
    """(facet cone index, neighbor maximal cone index) pairs around the
    maximal cone of Newton vertex idx, one per Newton edge at the vertex."""
    P = mtf.newton
    out = []
    for eid in P.edges():
        a, b = P.faces[eid].vertex_ids
        if idx in (a, b):
            out.append((eid, b if a == idx else a))
    return out


def facet_partition(mtf, cone):
    """Split the fan facets of a maximal cone by the direction of the Newton
    edge they correspond to.

    Returns (plus, minus): facets across which the Newton vertex drops,
    respectively rises.  Each facet falls in exactly one part; the split is
    cross-checked against the facet cone's class data (the vertex drops iff
    t changes on the facet, rises iff tbar does).
    """
    idx = mtf.cone_index(cone)
    if cone.dim != mtf.n:
        raise ModuleDefinitionError("facet partition needs a maximal cone")
    v = mtf.newton.vertices[idx]
    data = mtf.classes[idx]
    plus, minus = [], []
    pairs = _edge_neighbors(mtf, idx)
    _require(
        len(pairs) == len(cone.ineqs),
        f"cone {idx}: {len(pairs)} Newton edges for {len(cone.ineqs)} facets",
    )
    for eid, nid in pairs:
        tau = mtf.cones[eid]
        v2 = mtf.newton.vertices[nid]
        order = vertex_order(v, v2)
        _require(
            order in (Order.LESS, Order.GREATER),
            f"Newton edge {eid} joins incomparable vertices",
        )
        # the facet's class data was read off at its witness
        facet = mtf.classes[eid]
        t_stays_torsion = facet.t_dims == data.t_dims
        f_stays_free = facet.tbar_dims == data.tbar_dims
        if order is Order.GREATER:
            plus.append(tau)
            _require(
                not t_stays_torsion and f_stays_free,
                f"facet {eid}: the vertex drops, yet t stays or tbar moves",
            )
        else:
            minus.append(tau)
            _require(
                t_stays_torsion and not f_stays_free,
                f"facet {eid}: the vertex rises, yet tbar stays or t moves",
            )
    return tuple(plus), tuple(minus)


def boundary_regions(mtf, cone):
    """Decompose the boundary of a maximal cone into the facets where t
    degenerates (plus side) and where f degenerates (minus side).

    The union of the two facet families is the whole boundary: every proper
    face of the cone lies in some listed facet (checked at the ray sum of
    each face, in ascending dimension).
    """
    plus, minus = facet_partition(mtf, cone)
    both = plus + minus
    proper = cone.face_keys - {(cone.lineality, cone.rays)}
    for key in sorted(proper, key=key_dim):
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
    P = mtf.newton
    vertices = P.vertices
    edges = []
    for eid in P.edges():
        a, b = P.faces[eid].vertex_ids
        order = vertex_order(vertices[a], vertices[b])
        _require(
            order in (Order.LESS, Order.GREATER),
            f"Newton edge {eid} joins incomparable vertices",
        )
        edges.append((a, b) if order is Order.LESS else (b, a))
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


def face_restriction_check(mtf, cone, face_cone):
    """Whether a face of a cone is cut out of it by the span conditions of
    its own support: face == cone intersected with {theta(d) = 0 for every
    support class d of the face}."""
    idx = mtf.cone_index(cone)
    fidx = mtf.cone_index(face_cone)
    if not face_cone.is_face_of(cone):
        raise ModuleDefinitionError("second cone is not a face of the first")
    supp = mtf.classes[fidx].supp_dims
    cut = cone_from_hrep(
        mtf.n, cone.eqs + tuple(tuple(d) for d in supp), cone.ineqs
    )
    return cut == face_cone
