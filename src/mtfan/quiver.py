"""Bound quiver algebras and finite-dimensional representations over F_p.

A module assigns an F_p vector space to every vertex and a matrix to every
arrow; matrices act on column vectors, so arrow a: u -> v carries a matrix of
shape dim(v) x dim(u).  A path (a_1, ..., a_l) is traversed a_1 first and its
composite is the product M(a_l) @ ... @ M(a_1).

Submodules are arrow-stable families of subspaces, one per vertex, stored as
RREF bases so equal submodules compare equal structurally, and containment
tests and sums reduce vectors against the stored echelon form; no function
here is memoized.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import AlgebraDefinitionError, ModuleDefinitionError
from .fplinalg import (
    in_span,
    mat_mul,
    mat_vec,
    reduce_vec,
    rref_fp,
    rref_join,
)
from .record import Record

# primality is checked by trial division up to sqrt(p), about 46,000 steps
# below this bound
MAX_PRIME = 2**31


def _integer(value, what, error):
    """value, which must be an int and not a bool, as serialize requires of
    a document; anything else raises error rather than being truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


class BoundQuiverAlgebra(NamedTuple):
    """Path algebra of a finite quiver over F_p modulo admissible relations.

    relations holds, per relation, the terms as (coefficient, arrow-index
    path) pairs; every stored path is composable with length >= 2 and all
    terms of one relation share source and target.
    """

    p: int
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]

    @property
    def n(self):
        return len(self.vertices)


def build_algebra(spec):
    """Build a bound quiver algebra from a plain description.

    Args:
        spec: mapping with keys "p", "vertices", "arrows" (list of
            {"name", "from", "to"}) and optional "relations", each relation a
            list of {"coeff", "path"} terms with paths as arrow-name lists.

    Raises:
        AlgebraDefinitionError: non-prime p or p >= 2^31, duplicate
            labels, dangling arrow endpoints, non-composable or
            mixed-endpoint relation paths, paths of length < 2, or
            coefficients that are not ints or vanish mod p.
    """
    p = spec["p"]
    if not isinstance(p, int) or not (p < MAX_PRIME and _is_prime(p)):
        raise AlgebraDefinitionError(
            f"p must be a prime integer below 2^31, got {p!r}"
        )
    vertices = tuple(str(v) for v in spec["vertices"])
    if len(set(vertices)) != len(vertices):
        raise AlgebraDefinitionError("duplicate vertex labels")
    vindex = {v: i for i, v in enumerate(vertices)}

    arrows = []
    names = set()
    for a in spec["arrows"]:
        name = str(a["name"])
        if name in names:
            raise AlgebraDefinitionError(f"duplicate arrow name {name!r}")
        names.add(name)
        src, tgt = str(a["from"]), str(a["to"])
        if src not in vindex or tgt not in vindex:
            raise AlgebraDefinitionError(
                f"arrow {name!r} has endpoint outside the vertex set"
            )
        arrows.append(Arrow(name, vindex[src], vindex[tgt]))
    arrows = tuple(arrows)
    aindex = {a.name: i for i, a in enumerate(arrows)}

    relations = []
    for rel in spec.get("relations", ()):
        terms = []
        endpoints = None
        for term in rel:
            coeff = term["coeff"]
            _integer(coeff, "relation coefficient", AlgebraDefinitionError)
            coeff %= p
            if coeff == 0:
                raise AlgebraDefinitionError("relation coefficient vanishes mod p")
            path = tuple(str(name) for name in term["path"])
            if len(path) < 2:
                raise AlgebraDefinitionError("relation paths must have length >= 2")
            idxs = []
            for name in path:
                if name not in aindex:
                    raise AlgebraDefinitionError(f"unknown arrow {name!r} in relation")
                idxs.append(aindex[name])
            for k in range(len(idxs) - 1):
                if arrows[idxs[k]].target != arrows[idxs[k + 1]].source:
                    raise AlgebraDefinitionError(
                        f"relation path {path!r} is not composable"
                    )
            ends = (arrows[idxs[0]].source, arrows[idxs[-1]].target)
            if endpoints is None:
                endpoints = ends
            elif endpoints != ends:
                raise AlgebraDefinitionError(
                    "relation mixes terms with different endpoints"
                )
            terms.append((coeff, tuple(idxs)))
        if not terms:
            raise AlgebraDefinitionError("empty relation")
        relations.append(tuple(terms))

    return BoundQuiverAlgebra(p, vertices, arrows, tuple(relations))


class Module(Record):
    """Finite-dimensional representation of a bound quiver algebra; maps
    holds, per arrow, a target x source matrix."""

    _fields = ("algebra", "dims", "maps")

    def __init__(self, algebra, dims, maps):
        vars(self).update(algebra=algebra, dims=dims, maps=maps)

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0


def path_composite(module, arrow_path):
    """Composite matrix of an arrow-index path, acting on column vectors."""
    A = module.algebra
    src = A.arrows[arrow_path[0]].source
    cur = tuple(
        tuple(int(i == j) for j in range(module.dims[src]))
        for i in range(module.dims[src])
    )
    cur_cols = module.dims[src]
    for ai in arrow_path:
        cur = mat_mul(module.maps[ai], cur, cur_cols, A.p)
    return cur


def build_module(algebra, dims, maps):
    """Build and validate a module.

    Args:
        algebra: a BoundQuiverAlgebra.
        dims: sequence of vertex dimensions, or mapping label -> dimension
            (missing labels mean dimension 0).
        maps: sequence indexed like algebra.arrows, or mapping arrow name ->
            row-major matrix of shape dim(target) x dim(source); entries are
            reduced mod p.  Missing/None entries mean the zero matrix.

    Raises:
        ModuleDefinitionError: dimensions or entries that are not ints,
            negative dimensions, shape mismatches, or a relation whose
            composite is nonzero on this data.
    """
    p = algebra.p
    if isinstance(dims, dict):
        unknown = set(dims) - set(algebra.vertices)
        if unknown:
            raise ModuleDefinitionError(f"dims for unknown vertices {sorted(unknown)}")
        dim_tuple = tuple(dims.get(v, 0) for v in algebra.vertices)
    else:
        dim_tuple = tuple(dims)
        if len(dim_tuple) != algebra.n:
            raise ModuleDefinitionError("dims length does not match vertex count")
    for d in dim_tuple:
        _integer(d, "dimension", ModuleDefinitionError)
    if any(d < 0 for d in dim_tuple):
        raise ModuleDefinitionError("dimensions must be nonnegative")

    if isinstance(maps, dict):
        unknown = set(maps) - {a.name for a in algebra.arrows}
        if unknown:
            raise ModuleDefinitionError(f"maps for unknown arrows {sorted(unknown)}")
        raw = [maps.get(a.name) for a in algebra.arrows]
    else:
        raw = list(maps)
        if len(raw) != len(algebra.arrows):
            raise ModuleDefinitionError("maps length does not match arrow count")

    mats = []
    for arrow, rows in zip(algebra.arrows, raw):
        tdim = dim_tuple[arrow.target]
        sdim = dim_tuple[arrow.source]
        if rows is None:
            rows = tuple(tuple(0 for _ in range(sdim)) for _ in range(tdim))
        rows = tuple(
            tuple(_integer(x, "matrix entry", ModuleDefinitionError) % p for x in r)
            for r in rows
        )
        if len(rows) != tdim or any(len(r) != sdim for r in rows):
            raise ModuleDefinitionError(
                f"matrix for arrow {arrow.name!r} must have shape {tdim}x{sdim}"
            )
        mats.append(rows)

    module = Module(algebra, dim_tuple, tuple(mats))

    for rel in algebra.relations:
        src = algebra.arrows[rel[0][1][0]].source
        tgt = algebra.arrows[rel[0][1][-1]].target
        acc = [[0] * dim_tuple[src] for _ in range(dim_tuple[tgt])]
        for coeff, path in rel:
            comp = path_composite(module, path)
            for i, row in enumerate(comp):
                for j, x in enumerate(row):
                    acc[i][j] = (acc[i][j] + coeff * x) % p
        if any(any(row) for row in acc):
            names = [
                "*".join(algebra.arrows[i].name for i in path) for _, path in rel
            ]
            raise ModuleDefinitionError(
                f"relation {' + '.join(names)} is not satisfied by the maps"
            )
    return module


def simple_module(algebra, i):
    """Simple module concentrated at the i-th vertex (1-based)."""
    if not 1 <= i <= algebra.n:
        raise ModuleDefinitionError(
            f"vertex index {i} out of range 1..{algebra.n}"
        )
    dims = tuple(int(k == i - 1) for k in range(algebra.n))
    return build_module(algebra, dims, [None] * len(algebra.arrows))


def direct_sum(m1, m2):
    """Block-diagonal direct sum of two modules over the same algebra."""
    if m1.algebra != m2.algebra:
        raise ModuleDefinitionError("direct sum needs a common algebra")
    A = m1.algebra
    dims = tuple(a + b for a, b in zip(m1.dims, m2.dims))
    mats = []
    for ai, arrow in enumerate(A.arrows):
        t1, s1 = m1.dims[arrow.target], m1.dims[arrow.source]
        t2, s2 = m2.dims[arrow.target], m2.dims[arrow.source]
        rows = [
            tuple(m1.maps[ai][i]) + (0,) * s2 for i in range(t1)
        ] + [
            (0,) * s1 + tuple(m2.maps[ai][i]) for i in range(t2)
        ]
        mats.append(tuple(rows))
    return build_module(A, dims, mats)


class Submodule(Record):
    """Arrow-stable graded subspace of a module, bases in RREF per vertex.
    The dimension vector is computed once per instance, as the hash is."""

    _fields = ("module", "bases")

    def __init__(self, module, bases):
        vars(self).update(module=module, bases=bases)

    @functools.cached_property
    def dims(self):
        return tuple(len(b) for b in self.bases)

    @property
    def total_dim(self):
        return sum(self.dims)

    def sort_key(self):
        return tuple((len(b), b) for b in self.bases)


def generated_submodule(module, seeds):
    """Smallest submodule containing the seed vectors.

    seeds maps vertex index -> iterable of vectors at that vertex.
    """
    A = module.algebra
    p = A.p
    spans = [() for _ in range(A.n)]
    queue = []

    def insert(u, vec):
        rows = rref_join(spans[u], (vec,), p)
        if rows is not spans[u]:
            spans[u] = rows
            queue.append((u, vec))

    for u, vecs in seeds.items():
        for vec in vecs:
            insert(u, vec)
    while queue:
        u, vec = queue.pop()
        for ai, arrow in enumerate(A.arrows):
            if arrow.source == u:
                insert(arrow.target, mat_vec(module.maps[ai], vec, p))
    return Submodule(module, tuple(spans))


def submodule_contains(outer, inner):
    """inner <= outer as submodules of the same module.

    Reduces inner's basis vectors against outer's stored echelon form.
    """
    if outer.module != inner.module:
        raise ModuleDefinitionError("submodules of different modules")
    p = outer.module.algebra.p
    for rows, vecs in zip(outer.bases, inner.bases):
        if len(vecs) > len(rows):
            return False
        for vec in vecs:
            if not in_span(rows, vec, p):
                return False
    return True


def submodule_sum(a, b):
    """a + b, which is a itself (the same object) when b <= a.

    Each vertex basis of a is joined with b's basis there (rref_join).
    """
    if a.module != b.module:
        raise ModuleDefinitionError("submodules of different modules")
    p = a.module.algebra.p
    bases = tuple(rref_join(x, y, p) for x, y in zip(a.bases, b.bases))
    if bases == a.bases:
        return a
    return Submodule(a.module, bases)


def subquotient(module, lower, upper):
    """Present upper/lower as a standalone module, built afresh on each
    call; only the oracle's definition routes present one.

    Args:
        module: the ambient module.
        lower, upper: submodules of it with lower <= upper.

    Raises:
        ModuleDefinitionError: if the inclusion fails at some vertex.
    """
    A = module.algebra
    p = A.p
    if lower.module != module or upper.module != module:
        raise ModuleDefinitionError("submodules do not belong to the module")
    if not submodule_contains(upper, lower):
        raise ModuleDefinitionError("lower submodule is not contained in upper")

    # rref_fp drops the zero residues of upper's vectors in lower
    quot_bases = [
        rref_fp([reduce_vec(lo, vec, p) for vec in up], p)
        for lo, up in zip(lower.bases, upper.bases)
    ]

    def coords(u, vec):
        res = reduce_vec(lower.bases[u], vec, p)
        if not in_span(quot_bases[u], res, p):
            raise ModuleDefinitionError("vector escapes the subquotient basis")
        return [res[row.index(1)] for row in quot_bases[u]]

    dims = tuple(len(b) for b in quot_bases)
    mats = []
    for ai, arrow in enumerate(A.arrows):
        cols = []
        for vec in quot_bases[arrow.source]:
            img = mat_vec(module.maps[ai], vec, p)
            cols.append(coords(arrow.target, img))
        rows = tuple(
            tuple(col[i] for col in cols) for i in range(dims[arrow.target])
        )
        mats.append(rows)
    return build_module(A, dims, mats)
