"""Constructors and lattice operations that only the tests use.

Each cone builds a canonical cone through the public double description
entry points, so a test can state a cone by its generators or rebuild it
from its document.  The meet of two submodules and the F_p subspace helpers
it rests on serve as referees for the submodule lattice.
"""

from mtfan.errors import ModuleDefinitionError
from mtfan.fplinalg import rref_fp
from mtfan.polyhedra import cone_from_hrep, vrep
from mtfan.quiver import Submodule
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
