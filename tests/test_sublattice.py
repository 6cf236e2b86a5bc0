"""Submodule enumeration checked against a brute-force oracle.

The oracle enumerates every graded subspace (product of subspaces, one per
vertex) and keeps the arrow-stable ones; enumerate_submodules must produce
exactly the same set of per-vertex spans.  On larger modules the referee is
referee.closure_by_sums, which must give the same tuple (bases and order), and a change of basis at every vertex must leave the lattice's size,
dimension vectors and Newton polytope alone.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import mtfan.sublattice
from mtfan.errors import ResourceLimitError
from mtfan.fplinalg import all_vectors, in_span, rref_fp
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import (
    build_algebra,
    build_module,
    direct_sum,
    simple_module,
    submodule_contains,
    submodule_sum,
)
from mtfan.sublattice import (
    enumerate_submodules,
    newton_polytope,
    submodule_dim_vectors,
)
from referee import (
    IRREDUCIBLE_LOOPS,
    any_module,
    change_of_basis,
    closure_by_sums,
    inverse_fp,
    kronecker_module,
    loop_module,
    module_and_change_of_basis,
    submodule_full,
    submodule_intersection,
    submodule_zero,
)


def all_subspaces(dim, p):
    """Canonical RREF bases of every subspace of F_p^dim."""
    vecs = [v for v in all_vectors(dim, p) if any(v)]
    out = {()}
    for r in range(1, dim + 1):
        for combo in combinations(vecs, r):
            out.add(rref_fp(combo, p))
    return sorted(out)


def brute_force_submodules(module):
    A = module.algebra
    p = A.p
    choices = [all_subspaces(d, p) for d in module.dims]
    found = set()
    for combo in product(*choices):
        stable = True
        for ai, arrow in enumerate(A.arrows):
            tgt_rows = rref_fp(combo[arrow.target], p)
            for vec in combo[arrow.source]:
                img = tuple(
                    sum(m * x for m, x in zip(row, vec)) % p
                    for row in module.maps[ai]
                )
                if not in_span(tgt_rows, img, p):
                    stable = False
                    break
            if not stable:
                break
        if stable:
            found.add(combo)
    return found


@pytest.mark.parametrize("name", preset_names())
def test_enumeration_matches_brute_force(name):
    module = preset_module(name)
    subs = enumerate_submodules(module)
    ours = {s.bases for s in subs}
    assert ours == brute_force_submodules(module)


def test_frozen_dim_vector_sets():
    expected = {
        "a2-P1": ((0, 0), (0, 1), (1, 1)),
        "a2-S1": ((0, 0), (1, 0)),
        "nakayama2-121": ((0, 0), (1, 0), (1, 1), (2, 1)),
        "square-lambda": (
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 1),
            (0, 1, 0, 1),
            (0, 1, 1, 1),
            (1, 1, 1, 1),
        ),
    }
    for name, vecs in expected.items():
        assert submodule_dim_vectors(preset_module(name)) == vecs


def test_submodule_counts():
    assert len(enumerate_submodules(preset_module("a2-P1"))) == 3
    assert len(enumerate_submodules(preset_module("a2-S1"))) == 2
    assert len(enumerate_submodules(preset_module("nakayama2-121"))) == 4
    assert len(enumerate_submodules(preset_module("square-lambda"))) == 6


def test_dimension_bound_raises():
    A = build_algebra(
        {
            "p": 2,
            "vertices": ["1", "2"],
            "arrows": [{"name": "a", "from": "1", "to": "2"}],
        }
    )
    big = build_module(A, (8, 7), {"a": None})
    with pytest.raises(ResourceLimitError):
        enumerate_submodules(big)


def test_line_sweep_bound_raises(monkeypatch):
    """A loop with an irreducible characteristic polynomial: the module has
    two submodules, but the sweep visits all p + 1 lines of F_p^2."""
    monkeypatch.setattr(mtfan.sublattice, "DIM_BOUND", 2)
    # x^2 - 2 at p = 3: a sweep of 4 lines, above 2^2 - 1
    irreducible = loop_module(3, [[0, 2], [1, 0]])
    with pytest.raises(ResourceLimitError, match="line sweep"):
        enumerate_submodules(irreducible)
    # x^2 + x + 1 at p = 2: a sweep of 3 lines, the cap itself
    assert len(enumerate_submodules(loop_module(2, [[0, 1], [1, 1]]))) == 2
    monkeypatch.undo()
    assert len(enumerate_submodules(irreducible)) == 2


def test_count_bound_raises(monkeypatch):
    A = build_algebra({"p": 3, "vertices": ["1"], "arrows": []})
    m = build_module(A, (2,), {})
    # 6 subspaces of F_3^2, so a cap of 5 trips
    monkeypatch.setattr(mtfan.sublattice, "MAX_SUBMODULES", 5)
    with pytest.raises(ResourceLimitError):
        enumerate_submodules(m)


@st.composite
def random_a2_module(draw):
    p = draw(st.sampled_from([2, 3]))
    d1 = draw(st.integers(0, 2))
    d2 = draw(st.integers(0, 2))
    entries = [
        [draw(st.integers(0, p - 1)) for _ in range(d1)] for _ in range(d2)
    ]
    A = build_algebra(
        {
            "p": p,
            "vertices": ["1", "2"],
            "arrows": [{"name": "a", "from": "1", "to": "2"}],
        }
    )
    return build_module(A, (d1, d2), {"a": entries})


@given(random_a2_module())
@settings(max_examples=40, deadline=None)
def test_lattice_closure_properties(module):
    subs = enumerate_submodules(module)
    members = set(subs)
    assert submodule_zero(module) in members
    assert submodule_full(module) in members
    items = list(members)
    for a in items:
        for b in items:
            assert submodule_sum(a, b) in members
            assert submodule_intersection(a, b) in members


@st.composite
def random_square_module(draw):
    """The commutative-square quiver without relations, dims <= 2."""
    p = draw(st.sampled_from([2, 3]))
    dims = [draw(st.integers(0, 2)) for _ in range(4)]
    arrows = [("a", 0, 1), ("b", 1, 3), ("c", 0, 2), ("d", 2, 3)]
    A = build_algebra(
        {
            "p": p,
            "vertices": ["1", "2", "3", "4"],
            "arrows": [
                {"name": a, "from": str(s + 1), "to": str(t + 1)}
                for a, s, t in arrows
            ],
        }
    )
    maps = {
        a: [[draw(st.integers(0, p - 1)) for _ in range(dims[s])] for _ in range(dims[t])]
        for a, s, t in arrows
    }
    return build_module(A, dims, maps)


@st.composite
def random_a2_module_with_a3_space(draw):
    """a2 with a three-dimensional space at one of its two vertices."""
    p = draw(st.sampled_from([2, 3]))
    small = draw(st.integers(0, 2))
    d1, d2 = (3, small) if draw(st.booleans()) else (small, 3)
    entries = [[draw(st.integers(0, p - 1)) for _ in range(d1)] for _ in range(d2)]
    A = build_algebra(
        {
            "p": p,
            "vertices": ["1", "2"],
            "arrows": [{"name": "a", "from": "1", "to": "2"}],
        }
    )
    return build_module(A, (d1, d2), {"a": entries})


@given(st.one_of(random_square_module(), random_a2_module_with_a3_space()))
@settings(max_examples=40, deadline=None)
def test_cyclic_closure_matches_brute_force_on_random_modules(module):
    subs = enumerate_submodules(module)
    assert {s.bases for s in subs} == brute_force_submodules(module)
    assert list(subs) == sorted(subs, key=lambda s: s.sort_key())


def _a2_p1_cubed():
    m = preset_module("a2-P1")
    return direct_sum(direct_sum(m, m), m)


def test_count_bound_is_exact_at_the_lattice_size(monkeypatch):
    module = _a2_p1_cubed()
    monkeypatch.setattr(mtfan.sublattice, "MAX_SUBMODULES", 65)
    with pytest.raises(ResourceLimitError):
        enumerate_submodules(module)
    monkeypatch.setattr(mtfan.sublattice, "MAX_SUBMODULES", 66)
    assert len(enumerate_submodules(module)) == 66


@pytest.mark.parametrize("name", preset_names() + ("a2-P1^3",))
def test_sums_against_the_stored_form(name):
    """Stored bases and sums are in RREF, and a + b is a itself when b <= a."""
    module = _a2_p1_cubed() if name == "a2-P1^3" else preset_module(name)
    p = module.algebra.p
    subs = enumerate_submodules(module)
    for s in subs:
        assert s.bases == tuple(rref_fp(b, p) for b in s.bases)
    for a in subs:
        for b in subs:
            total = submodule_sum(a, b)
            assert total.bases == tuple(rref_fp(x, p) for x in total.bases)
            if submodule_contains(a, b):
                assert total is a
            else:
                assert total != a and submodule_contains(total, a)


def regular_kronecker(k, p):
    """R_k: a = I_k and b = J_k(0), the nilpotent Jordan block."""
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    jordan = [[int(j == i + 1) for j in range(k)] for i in range(k)]
    return kronecker_module(p, (k, k), identity, jordan)


def seeded_change_of_basis(module, seed):
    """The module after a random invertible matrix at each vertex."""
    p = module.algebra.p
    rng = random.Random(seed)
    change = []
    for d in module.dims:
        while True:
            g = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
            if inverse_fp(g, p) is not None:
                break
        change.append(g)
    return change_of_basis(module, change)


def _sq_sq_s4():
    sq = preset_module("square-lambda")
    return direct_sum(direct_sum(sq, sq), simple_module(sq.algebra, 4))


# name -> (module, lattice size)
REFEREE_CASES = {
    "a2-P1^3": (_a2_p1_cubed, 66),
    "sq+sq+S4, seeded change of basis": (
        lambda: seeded_change_of_basis(_sq_sq_s4(), "sq+sq+S4/1"),
        196,
    ),
    "R_4 at p=2": (lambda: regular_kronecker(4, 2), 227),
}


@pytest.mark.parametrize("name", REFEREE_CASES)
def test_interned_closure_matches_the_referee_closure(name):
    """Same submodules, bases and order as the closure that sums Submodule
    objects."""
    build, size = REFEREE_CASES[name]
    module = build()
    ours = enumerate_submodules(module)
    theirs = closure_by_sums(module)
    assert len(ours) == size
    assert [s.bases for s in ours] == [s.bases for s in theirs]


@given(module_and_change_of_basis())
@settings(max_examples=50, deadline=None)
def test_change_of_basis_leaves_the_lattice_alone(pair):
    module, moved = pair
    subs, moved_subs = enumerate_submodules(module), enumerate_submodules(moved)
    assert len(subs) == len(moved_subs)
    assert sorted(s.dims for s in subs) == sorted(s.dims for s in moved_subs)
    assert newton_polytope(module) == newton_polytope(moved)


@given(module_and_change_of_basis(any_module()))
@example((IRREDUCIBLE_LOOPS[0],) * 2)
@example((IRREDUCIBLE_LOOPS[1],) * 2)
@seed(0x0C0F)
@settings(max_examples=40, deadline=None)
def test_the_lattice_runs_from_the_zero_submodule_to_the_module(pair):
    """The first member of a lattice is the zero submodule and the last is
    the module itself, with submodule_full's bases, so the oracle reads
    theta(M) and the quotient M/tbar off the lattice."""
    for module in pair:
        subs = enumerate_submodules(module)
        assert subs[0] == submodule_zero(module)
        assert subs[-1] == submodule_full(module)
