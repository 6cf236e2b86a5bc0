"""Cone constructors that only the tests use.

Each builds a canonical cone through the public double description entry
points, so a test can state a cone by its generators.
"""

from mtfan.polyhedra import cone_from_hrep, vrep


def cone_from_generators(n, rays=(), lineality=()):
    """Canonical cone spanned by ray generators plus a lineality span: the
    dual cone's lineality and rays are its equations and facets."""
    eqs, facets = vrep(n, lineality, rays)
    return cone_from_hrep(n, eqs, facets)


def full_cone(n):
    return cone_from_hrep(n, (), ())
