"""Constructors and lattice operations that only the tests use.

Each cone builds a canonical cone through the public double description
entry points, so a test can state a cone by its generators or rebuild it
from its document.  The meet of two submodules and the F_p subspace helpers
it rests on serve as referees for the submodule lattice, and so does a
closure that sums Submodule objects.  A change of basis at every vertex
builds isomorphic modules with different matrix entries.
"""

from mtfan.errors import ModuleDefinitionError
from mtfan.fplinalg import mat_mul, projective_points, rref_fp
from mtfan.polyhedra import cone_from_hrep, vrep
from mtfan.quiver import (
    Submodule,
    build_module,
    generated_submodule,
    submodule_sum,
    submodule_zero,
)
from mtfan.serialize import parse_frac


def cone_from_generators(n, rays=(), lineality=()):
    """Canonical cone spanned by ray generators plus a lineality span: the
    dual cone's lineality and rays are its equations and facets."""
    eqs, facets = vrep(n, lineality, rays)
    return cone_from_hrep(n, eqs, facets)


def full_cone(n):
    return cone_from_hrep(n, (), ())


def cone_from_doc(doc, n):
    """Rebuild a canonical cone from its serialized H-representation."""
    eqs = [tuple(int(parse_frac(s)) for s in row) for row in doc["equalities"]]
    ineqs = [
        tuple(int(parse_frac(s)) for s in row) for row in doc["inequalities"]
    ]
    return cone_from_hrep(n, eqs, ineqs)


def span_fp(rows, p):
    """RREF basis of the row span over F_p (zero rows dropped)."""
    return rref_fp(rows, p)[0]


def intersect_spaces(a_rows, b_rows, ncols, p):
    """Basis of rowspace(a) intersect rowspace(b) by the Zassenhaus trick."""
    block = [tuple(r) + tuple(r) for r in a_rows]
    block += [tuple(r) + (0,) * ncols for r in b_rows]
    red, _ = rref_fp(block, p)
    out = [row[ncols:] for row in red if not any(row[:ncols])]
    return span_fp(out, p)


def submodule_intersection(a, b):
    if a.module != b.module:
        raise ModuleDefinitionError("submodules of different modules")
    p = a.module.algebra.p
    reduced = [
        rref_fp(intersect_spaces(x, y, d, p), p)
        for x, y, d in zip(a.bases, b.bases, a.module.dims)
    ]
    # intersections of arrow-stable families are arrow-stable
    return Submodule(
        a.module,
        tuple(rows for rows, _ in reduced),
        tuple(piv for _, piv in reduced),
    )


def closure_by_sums(module):
    """Every submodule, sorted by Submodule.sort_key: {0} and the distinct
    cyclic submodules G of one vector per projective line, closed breadth
    first under submodule_sum with each member of G."""
    p = module.algebra.p
    found = {}
    zero = submodule_zero(module)
    found[zero.bases] = zero
    gens = {}
    for u, d in enumerate(module.dims):
        for vec in projective_points(d, p):
            g = generated_submodule(module, {u: [vec]})
            gens.setdefault(g.bases, g)
    found.update(gens)
    gens = tuple(gens.values())
    frontier = gens
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                s = submodule_sum(a, g)
                if s.bases not in found:
                    found[s.bases] = s
                    fresh.append(s)
        frontier = fresh
    return tuple(sorted(found.values(), key=Submodule.sort_key))


def inverse_fp(mat, p):
    """Inverse of a square matrix over F_p by Gauss-Jordan, or None when it
    is singular."""
    d = len(mat)
    block = [
        tuple(row) + tuple(int(i == j) for j in range(d))
        for i, row in enumerate(mat)
    ]
    rows, pivots = rref_fp(block, p)
    if pivots[:d] != tuple(range(d)):
        return None
    return tuple(row[d:] for row in rows)


def change_of_basis(module, change):
    """The isomorphic module whose arrow a: u -> v carries g_v A_a g_u^-1,
    for an invertible matrix g_u at each vertex u (change[u])."""
    p = module.algebra.p
    inverses = [inverse_fp(g, p) for g in change]
    maps = [
        mat_mul(
            mat_mul(change[arrow.target], mat, module.dims[arrow.source], p),
            inverses[arrow.source],
            module.dims[arrow.source],
            p,
        )
        for arrow, mat in zip(module.algebra.arrows, module.maps)
    ]
    return build_module(module.algebra, module.dims, maps)
