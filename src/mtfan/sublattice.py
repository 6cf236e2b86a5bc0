"""Complete submodule lattices and Newton polytopes of modules.

Every submodule is the sum of the cyclic submodules generated by the
vectors of its bases, and a graded subspace contains a vector iff it
contains each vertex component, so the cyclic submodules generated by one
vector at one vertex generate the whole lattice under sums.  A vector and
its nonzero multiples generate the same submodule, so one vector per
projective line is enough: (p^d - 1)/(p - 1) of them at a vertex of
dimension d.  Enumeration keeps the distinct cyclic submodules G and closes
{0} and G under adding a member of G, breadth first.  Each submodule found
is summed with each member of G once, so the closure takes at most S * |G|
sums for a lattice of S submodules.  The sums reduce against the pivots
that every Submodule stores, and a vertex basis is re-reduced only where
it grows.
"""
from __future__ import annotations

import functools

from .errors import ResourceLimitError
from .fplinalg import projective_points
from .polyhedra import convex_hull
from .quiver import (
    Submodule,
    generated_submodule,
    submodule_sum,
    submodule_zero,
)

DEFAULT_DIM_BOUND = 14
DEFAULT_MAX_SUBMODULES = 20000
# lattices memoized per (module, dim_bound, max_count); a default `verify` on
# any preset reads at most 13 of them and the `oracle` benchmark workload hits
# the memo 8,142 times for 6 misses
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

    # keyed by bases: equal bases mean equal submodules of this module
    found = {}

    def add(sub):
        found[sub.bases] = sub
        if len(found) > max_count:
            raise too_many

    add(submodule_zero(module))
    gens = {}
    for u, d in enumerate(module.dims):
        for vec in projective_points(d, p):
            g = generated_submodule(module, {u: [vec]})
            if g.bases not in gens:
                gens[g.bases] = g
                add(g)
    gens = tuple(gens.values())

    frontier = gens
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                s = submodule_sum(a, g)
                if s.bases not in found:
                    add(s)
                    fresh.append(s)
        frontier = fresh

    return tuple(sorted(found.values(), key=Submodule.sort_key))


def submodule_dim_vectors(module):
    """Sorted distinct dimension vectors of all submodules."""
    return tuple(sorted({s.dims for s in enumerate_submodules(module)}))


def newton_polytope(module):
    """Convex hull of the submodule dimension vectors in R^n."""
    return convex_hull(submodule_dim_vectors(module), module.algebra.n)
