"""Seeded workload modules.

Each workload module is a direct sum of preset pieces.  The seed picks a
random change of basis at every vertex over F_p, which gives an isomorphic
module with different matrix entries: every output that depends only on the
isomorphism class (Newton polytope, fan, class data) is the same for every
seed, while the bits the program reads differ.
"""
from __future__ import annotations

import random

from mtfan.presets import preset_module
from mtfan.quiver import build_module, direct_sum, simple_module
from mtfan.serialize import algebra_doc

# workload module -> summands: preset names, or "S<i>" for the simple module
# at vertex i over the algebra of the first summand
PIECES = {
    "a2-P1^3": ("a2-P1", "a2-P1", "a2-P1"),
    "sq": ("square-lambda",),
    "nakayama2-121": ("nakayama2-121",),
    "sq+sq+S4": ("square-lambda", "square-lambda", "S4"),
}


def base_module(key):
    """The workload module in its block-diagonal preset basis."""
    first, *rest = PIECES[key]
    module = preset_module(first)
    for name in rest:
        if name.startswith("S"):
            part = simple_module(module.algebra, int(name[1:]))
        else:
            part = preset_module(name)
        module = direct_sum(module, part)
    return module


# The generator does its own F_p arithmetic rather than calling mtfan's
# kernels, so that optimizing those kernels cannot change the inputs.


def _mat_mul(a, b, p):
    return [
        [sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
        for row in a
    ]


def _inverse(mat, p):
    """Inverse over F_p by Gauss-Jordan, or None when singular."""
    d = len(mat)
    work = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(mat)]
    for c in range(d):
        pr = next((r for r in range(c, d) if work[r][c] % p), None)
        if pr is None:
            return None
        work[c], work[pr] = work[pr], work[c]
        inv = pow(work[c][c], -1, p)
        work[c] = [(x * inv) % p for x in work[c]]
        for r in range(d):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[c])]
    return [row[d:] for row in work]


def _random_gl(d, p, rng):
    while True:
        g = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        g_inv = _inverse(g, p)
        if g_inv is not None:
            return g, g_inv


def seeded_module(key, seed):
    """The workload module after a seeded change of basis at each vertex.

    Arrow a: u -> v carries A_a; the new map is g_v A_a g_u^-1.
    """
    module = base_module(key)
    A = module.algebra
    p = A.p
    rng = random.Random(f"{key}/{seed}")
    change = [_random_gl(d, p, rng) for d in module.dims]
    maps = []
    for arrow, mat in zip(A.arrows, module.maps):
        g_t = change[arrow.target][0]
        g_s_inv = change[arrow.source][1]
        if not mat or not mat[0]:
            maps.append(mat)
            continue
        maps.append(_mat_mul(_mat_mul(g_t, [list(r) for r in mat], p), g_s_inv, p))
    return build_module(A, module.dims, maps)


def module_doc(module):
    """Input document accepted by `mtfan --input` and module_from_doc."""
    A = module.algebra
    return {
        **algebra_doc(A),
        "module": {
            "dims": {v: d for v, d in zip(A.vertices, module.dims)},
            "maps": {
                a.name: [list(row) for row in mat]
                for a, mat in zip(A.arrows, module.maps)
            },
        },
    }
