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
relative interior of the same cone.  Each cone's class data is a function
of its t-set, the submodules whose classes lie on the cone's Newton face:
t and tbar are its least and greatest members, w, f and fbar are
differences of dimension vectors, and the stable support of w = tbar/t is
the list of steps of a maximal chain in the t-set, walked in one pass.  The
data is checked against the Newton face.  The wall reads the stored data.
The definition routes (F_p containment, slices checked as modules) live in
stability.py; the oracle compares them with this data at every sample.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import InvariantError, ModuleDefinitionError, ResourceLimitError
from .exact import as_theta, dot, rank, rref
from .polyhedra import (
    convex_hull,
    key_dim,
    locate_index,
    normal_fan,
    ray_sum,
    vrep,
)
from .quiver import Submodule, submodule_contains
from .record import Record
from .sublattice import enumerate_submodules

# fan_paths lists at most this many increasing paths; the 6-cube's fan (the
# arrowless module with a line at each of 6 vertices) has 5,296, an 878 kB
# `paths` document
MAX_PATHS = 10_000


class TFClassData(NamedTuple):
    """Torsion-theoretic invariants of one cone, all read off its t-set."""

    t: Submodule  # least member of the t-set
    tbar: Submodule  # greatest member of the t-set
    supp_dims: tuple[tuple[int, ...], ...]  # sorted multiset


class MTFFan(Record):
    """The module's lattice in Submodule.sort_key order, Newton polytope,
    normal fan and per-cone class data, in face order: fan.cones[i] is the
    normal cone of newton.faces[i] and classes[i] its class data, whose t and
    tbar are lattice members.  The wall is memoized per instance."""

    _fields = ("module", "lattice", "newton", "fan", "classes")

    def __init__(self, module, lattice, newton, fan, classes):
        vars(self).update(
            module=module, lattice=lattice, newton=newton, fan=fan, classes=classes
        )

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
        key.  Semistability is read off the class data, which the build took
        off each cone's Newton face.  Memoized on the fan and freed with it.
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
        k = P.face_id(set.intersection(*carrier))
        wall = self.cones[k]
        a, b = self.cones[v0], self.cones[vM]
        _require(
            vrep(self.n, a.eqs + b.eqs, a.ineqs + b.ineqs) == wall.key,
            "the wall is not the cone of the smallest face through 0 and [M]",
        )

        def semistable(i):  # 0 and M are both in the t-set of cone i
            data = self.classes[i]
            return data.t.total_dim == 0 and data.tbar.dims == module.dims

        _require(semistable(k), "the module is not semistable inside the wall")
        for i in self.maximal_indices():
            if not wall.contains_cone(self.cones[i]):
                _require(
                    not semistable(i),
                    f"the module is semistable in cone {i}, off the wall",
                )
        return wall


def _class_data(members):
    """(t, tbar, supp_dims) of a t-set.

    The t-set is closed under sum and intersection, so it has a least member
    t and a greatest member tbar.  In order of total dimension, the first
    member strictly above the top of a chain covers it, so one pass walks a
    maximal chain from t to tbar.  Its steps are the stable factors of
    tbar/t (Jordan-Hoelder for semistable modules).
    """
    t, *rest = sorted(members, key=lambda s: s.total_dim)
    top, steps = t, []
    for s in rest:
        if s.total_dim > top.total_dim and submodule_contains(s, top):
            steps.append(tuple(a - b for a, b in zip(s.dims, top.dims)))
            top = s
    # a greatest member is larger than every other one
    _require(
        all(s is top or s.total_dim < top.total_dim for s in rest),
        "a t-set has no greatest member",
    )
    return t, top, tuple(sorted(steps))


def _require(ok, what):
    if not ok:
        raise InvariantError(what)


def build_mtf_fan(module):
    """Fan of equivalence classes of stability vectors relative to a module.

    Cone i's t-set is the set of submodules whose classes lie on Newton
    face i.  A point lies on a face exactly when it is tight on every facet
    through the face (none, for the polytope itself), so each Newton point
    gets one bit mask of the facets it is tight on.  Each cone's witness
    must be largest exactly on its face; a failed check raises
    InvariantError.
    """
    lattice = enumerate_submodules(module)
    groups = {}  # dimension vector -> the submodules of that class
    for s in lattice:
        groups.setdefault(s.dims, []).append(s)
    n = module.algebra.n
    P = convex_hull(groups, n)
    fan = normal_fan(P)
    tops = [dot(a, P.vertices[min(ids)]) for ids, a in P.facets]
    tight = {
        x: sum(1 << j for j, (_, a) in enumerate(P.facets) if dot(a, x) == tops[j])
        for x in groups
    }
    classes = []
    for idx, (cone, face) in enumerate(zip(fan.cones, P.faces)):
        _require(
            locate_index(P, fan, cone.relint_point()) == idx,
            f"cone {idx}: its witness is largest off Newton face {idx}",
        )
        vs = set(face.vertex_ids)
        through = sum(1 << j for j, (ids, _) in enumerate(P.facets) if vs <= ids)
        t, tbar, supp_dims = _class_data(
            [s for x, m in tight.items() if m & through == through for s in groups[x]]
        )
        # the min and max of the Newton face are the classes of t and tbar:
        # both lie on the face, so equal to the componentwise min and max of
        # its vertices they are vertices
        face_vecs = [P.vertices[v] for v in face.vertex_ids]
        _require(
            t.dims == tuple(map(min, zip(*face_vecs)))
            and tbar.dims == tuple(map(max, zip(*face_vecs))),
            f"cone {idx}: t/tbar are not the min/max of the Newton face",
        )
        # duality of dimensions, and the span of the support cuts the cone
        _require(
            cone.dim == n - face.dim == n - rank(supp_dims),
            f"cone {idx}: dim {cone.dim} breaks dim + face dim = dim + rank(supp) = n",
        )
        classes.append(TFClassData(t, tbar, supp_dims))
    return MTFFan(module, lattice, P, fan, tuple(classes))


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
        cone.key == (rref(units), ()),
        "the cone at 0 is not the span of the vanishing coordinates",
    )
    meet = vrep(
        n,
        [e for c in mtf.cones for e in c.eqs],
        [a for c in mtf.cones for a in c.ineqs],
    )
    _require(meet == cone.key, "the cone at 0 is not the meet of all cones")
    return cone


def _oriented_edges(P):
    """(edge face id, lower vertex id, upper vertex id) for every Newton
    edge: the coordinatewise vertex order orients each edge.  Of two
    comparable vertices the lower has the smaller coordinate sum."""
    out = []
    for eid in P.edges():
        lo, hi = sorted(P.faces[eid].vertex_ids, key=lambda v: sum(P.vertices[v]))
        _require(
            all(a <= b for a, b in zip(P.vertices[lo], P.vertices[hi])),
            f"Newton edge {eid} joins incomparable vertices",
        )
        out.append((eid, lo, hi))
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
        # the facet's class data was read off its Newton edge
        facet = mtf.classes[eid]
        t_stays_torsion = facet.t.dims == data.t.dims
        f_stays_free = facet.tbar.dims == data.tbar.dims
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
    for key in sorted(cone.face_keys - {cone.key}, key=key_dim):
        probe = ray_sum(mtf.n, key)
        _require(
            any(c.contains(probe) for c in both) or not both,
            f"a face of dim {key_dim(key)} lies in no listed facet",
        )
    return plus, minus


class FanPathCatalog(NamedTuple):
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

    Raises:
        ResourceLimitError: more than MAX_PATHS increasing paths, counted
            over the edges before any path is listed.
    """
    vertices = mtf.newton.vertices
    edges = [(lo, hi) for _, lo, hi in _oriented_edges(mtf.newton)]
    succ = {i: [] for i in range(len(vertices))}
    pred = {i: [] for i in range(len(vertices))}
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    # paths from a node: the node alone, and one more step to a successor,
    # which has a larger coordinate sum
    count = [1] * len(vertices)
    for a in sorted(range(len(vertices)), key=lambda v: -sum(vertices[v])):
        count[a] += sum(count[b] for b in succ[a])
    total = sum(count)
    if total > MAX_PATHS:
        raise ResourceLimitError(
            f"the fan has {total} increasing paths, more than the cap of "
            f"{MAX_PATHS}"
        )
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
    return cut == face_cone.key
