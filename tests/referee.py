"""Constructors and lattice operations that only the tests use.

Each cone builds a canonical cone through the public double description
entry points, so a test can state a cone by its generators or rebuild it
from its document.  The meet of two submodules and the F_p subspace helpers
it rests on serve as referees for the submodule lattice, and so does a
closure that sums Submodule objects.  The torsion scans that test
containment of every pair of submodules at each functional, and take the
largest member as a sum, are the referee for the oracle's order table.  A change of basis at every vertex
builds isomorphic modules with different matrix entries, and the hypothesis
strategies at the end draw such pairs from the presets, their direct sums
and small Kronecker modules.
"""

from hypothesis import strategies as st

from mtfan.errors import ModuleDefinitionError
from mtfan.fplinalg import mat_mul, projective_points, rref_fp
from mtfan.polyhedra import cone_from_hrep, vrep
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import (
    Submodule,
    build_algebra,
    build_module,
    direct_sum,
    generated_submodule,
    simple_module,
    submodule_contains,
    submodule_sum,
    submodule_zero,
    subquotient,
)
from mtfan.serialize import parse_frac
from mtfan.stability import evaluate, is_semistable
from mtfan.sublattice import enumerate_submodules


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


def torsion_members(subs, vals, strict):
    """Submodules L with theta(L') < theta(L) (or <=) for all L' < L, by a
    containment test of every pair."""
    members = set()
    items = list(zip(subs, vals))
    for L, vL in items:
        ok = True
        for L2, v2 in items:
            if L2 == L or not submodule_contains(L, L2):
                continue
            if (v2 >= vL) if strict else (v2 > vL):
                ok = False
                break
        if ok:
            members.add(L)
    return members


def largest_member(members):
    """The sum of the members, which must be one of them."""
    total = None
    for s in members:
        total = s if total is None else submodule_sum(total, s)
    if total not in members:
        raise AssertionError("the sum of the members is not a member")
    return total


def torsion_filtration(theta, module):
    """(t, tbar) at an as_theta functional: the largest torsion and
    weak-torsion submodules, from the definitions at this functional."""
    subs = enumerate_submodules(module)
    vals = [evaluate(theta, s) for s in subs]
    return tuple(
        largest_member(torsion_members(subs, vals, strict))
        for strict in (True, False)
    )


def definition_t_set(theta, module):
    """Submodules L with t <= L and L/t semistable at an as_theta
    functional."""
    t, _ = torsion_filtration(theta, module)
    return frozenset(
        L
        for L in enumerate_submodules(module)
        if submodule_contains(L, t) and is_semistable(theta, subquotient(module, t, L))
    )


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


def kronecker_module(p, dims, a, b):
    """The Kronecker quiver 1 => 2 with maps a and b (dims[1] x dims[0])."""
    A = build_algebra(
        {
            "p": p,
            "vertices": ["1", "2"],
            "arrows": [
                {"name": "a", "from": "1", "to": "2"},
                {"name": "b", "from": "1", "to": "2"},
            ],
        }
    )
    return build_module(A, dims, {"a": a, "b": b})


@st.composite
def invertible_matrix(draw, d, p):
    """P L U: a permutation, a unit lower triangular and an upper triangular
    matrix with a nonzero diagonal; every invertible matrix has this form."""
    entry = st.integers(0, p - 1)
    perm = draw(st.permutations(range(d)))
    lower = [[int(i == j) for j in range(d)] for i in range(d)]
    upper = [[0] * d for _ in range(d)]
    for i in range(d):
        upper[i][i] = draw(st.integers(1, p - 1))
        for j in range(i):
            lower[i][j] = draw(entry)
            upper[j][i] = draw(entry)
    lu = [
        [sum(lower[i][k] * upper[k][j] for k in range(d)) % p for j in range(d)]
        for i in range(d)
    ]
    return [lu[perm[i]] for i in range(d)]


@st.composite
def preset_direct_sum(draw):
    """A preset plus up to two summands, each a preset or a simple module
    over its algebra, total dimension at most 8."""
    module = preset_module(draw(st.sampled_from(preset_names())))
    same_algebra = [
        preset_module(n)
        for n in preset_names()
        if preset_module(n).algebra == module.algebra
    ] + [simple_module(module.algebra, i) for i in range(1, module.algebra.n + 1)]
    for _ in range(draw(st.integers(0, 2))):
        part = draw(st.sampled_from(same_algebra))
        if module.total_dim + part.total_dim <= 8:
            module = direct_sum(module, part)
    return module


@st.composite
def random_kronecker_module(draw):
    p = draw(st.sampled_from([2, 3]))
    d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    a, b = (
        [[draw(st.integers(0, p - 1)) for _ in range(d1)] for _ in range(d2)]
        for _ in range(2)
    )
    return kronecker_module(p, (d1, d2), a, b)


@st.composite
def module_and_change_of_basis(draw):
    module = draw(st.one_of(preset_direct_sum(), random_kronecker_module()))
    p = module.algebra.p
    change = [draw(invertible_matrix(d, p)) for d in module.dims]
    return module, change_of_basis(module, change)
