"""Complete submodule lattices and Newton polytopes of modules.

Every submodule is the sum of the cyclic submodules generated by the
vectors of its bases, and a graded subspace contains a vector iff it
contains each vertex component, so the cyclic submodules generated by one
vector at one vertex generate the whole lattice under sums.  A vector and
its nonzero multiples generate the same submodule, so one vector per
projective line is enough: (p^d - 1)/(p - 1) of them at a vertex of
dimension d.  Enumeration keeps the distinct cyclic submodules G and closes
{0} and G under adding a member of G, breadth first, so the closure takes
at most S * |G| sums for a lattice of S submodules.

The lattice has far fewer distinct subspaces at each vertex than it has
submodules, so the closure interns them: each vertex keeps a table from id
to (RREF rows, pivots) and a dict from rows back to the id, and a submodule
in the closure is the tuple of its vertex space ids.  A sum of submodules is
a sum at each vertex, and each vertex memoizes the id of the sum of an
unordered pair of ids.  The first sum of a pair reduces the smaller space's
rows against the larger one's echelon form and row reduces only when a
residue survives; every later sum of that pair is a dict lookup.  So the
closure does one row reduction per distinct vertex-space pair, not one per
sum, and builds its Submodule objects once, at the end.
"""
from __future__ import annotations

import functools

from .errors import ResourceLimitError
from .fplinalg import projective_points, rref_join
from .polyhedra import convex_hull
from .quiver import Submodule, generated_submodule

DEFAULT_DIM_BOUND = 14
DEFAULT_MAX_SUBMODULES = 20000
# lattices memoized per (module, dim_bound, max_count); a default `verify` on
# any preset reads at most 13 of them and the `oracle` benchmark workload
# (seed 1) hits the memo 8,146 times for 6 misses
LATTICE_CACHE_SIZE = 256


def check_total_dim(total, p, dim_bound=DEFAULT_DIM_BOUND):
    """Raise ResourceLimitError when a total dimension exceeds the
    enumeration bound."""
    if total > dim_bound:
        raise ResourceLimitError(
            f"total dimension {total} exceeds the enumeration bound {dim_bound} "
            f"(p={p}: the sweep touches (p^d-1)/(p-1) vectors at a vertex of "
            "dimension d); raise dim_bound only if you accept the cost"
        )


@functools.lru_cache(maxsize=LATTICE_CACHE_SIZE)
def enumerate_submodules(
    module, dim_bound=DEFAULT_DIM_BOUND, max_count=DEFAULT_MAX_SUBMODULES
):
    """Every submodule of the module as a tuple, sorted by flattened basis
    data (Submodule.sort_key).

    Results are memoized under the module and both bounds, so a memoized
    lattice always comes from a call with the same bounds.

    Raises:
        ResourceLimitError: total dimension above dim_bound, a line sweep of
            more than 2^dim_bound - 1 vectors (the sweep of a p = 2 module
            at the dimension bound), or a lattice of more than max_count
            submodules (the set found only grows, so this does not depend on
            the order of discovery); the line sweep and the lattice itself
            blow up quickly, so failing loudly beats hanging.
    """
    p = module.algebra.p
    check_total_dim(module.total_dim, p, dim_bound)
    sweep = sum((p**d - 1) // (p - 1) for d in module.dims)
    if sweep > 2**dim_bound - 1:
        raise ResourceLimitError(
            f"the line sweep at p={p} touches {sweep} vectors, more than "
            f"2^{dim_bound} - 1, the sweep of a p=2 module at the dimension "
            "bound; raise dim_bound only if you accept the cost"
        )
    too_many = ResourceLimitError(
        f"more than {max_count} submodules; the lattice is too large "
        "to enumerate"
    )

    # vertex u's distinct subspaces: spaces[u][i] = (RREF rows, pivots) and
    # ids[u][rows] = i, with i = 0 the zero space; sums[u] memoizes the id of
    # the sum of spaces i and j under the unordered pair (min, max)
    spaces = [[((), ())] for _ in module.dims]
    ids = [{(): 0} for _ in module.dims]
    sums = [{} for _ in module.dims]

    def space_id(u, rows, pivots):
        i = ids[u].get(rows)
        if i is None:
            i = ids[u][rows] = len(spaces[u])
            spaces[u].append((rows, pivots))
        return i

    def space_sum(u, i, j):
        if i == j:
            return i
        pair = (i, j) if i < j else (j, i)
        k = sums[u].get(pair)
        if k is None:
            # join the smaller space to the larger one, so a containment
            # costs no row reduction
            if len(spaces[u][i][0]) < len(spaces[u][j][0]):
                i, j = j, i
            rows, piv = spaces[u][i]
            joined = rref_join(rows, piv, spaces[u][j][0], p)
            k = i if joined[0] is rows else space_id(u, *joined)
            sums[u][pair] = k
        return k

    # a submodule is the tuple of its vertex space ids
    found = set()

    def add(sub):
        found.add(sub)
        if len(found) > max_count:
            raise too_many

    vertices = range(module.algebra.n)
    add((0,) * len(vertices))
    gens = []
    for u, d in enumerate(module.dims):
        for vec in projective_points(d, p):
            g = generated_submodule(module, {u: [vec]})
            g = tuple(map(space_id, vertices, g.bases, g.pivots))
            # found holds only {0} and the generators so far, and g != 0
            if g not in found:
                add(g)
                gens.append(g)

    frontier = gens
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                s = tuple(map(space_sum, vertices, a, g))
                if s not in found:
                    add(s)
                    fresh.append(s)
        frontier = fresh

    subs = (
        Submodule(
            module,
            tuple(spaces[u][i][0] for u, i in enumerate(sub)),
            tuple(spaces[u][i][1] for u, i in enumerate(sub)),
        )
        for sub in found
    )
    return tuple(sorted(subs, key=Submodule.sort_key))


def submodule_dim_vectors(module):
    """Sorted distinct dimension vectors of all submodules."""
    return tuple(sorted({s.dims for s in enumerate_submodules(module)}))


def newton_polytope(module):
    """Convex hull of the submodule dimension vectors in R^n."""
    return convex_hull(submodule_dim_vectors(module), module.algebra.n)
