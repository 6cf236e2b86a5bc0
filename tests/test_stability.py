"""Semistability, canonical filtrations, t-sets and equivalence."""

import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mtfan.errors import InvariantError, ModuleDefinitionError
from mtfan.exact import as_theta
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import build_module, direct_sum, simple_module
from mtfan.serialize import module_from_doc
import mtfan.fplinalg
import mtfan.quiver
import mtfan.stability
from mtfan.stability import (
    _largest_member,
    _order,
    _semistable_above,
    _torsion_classes,
    canonical_sequences,
    evaluate,
    is_semistable,
    m_tf_equivalent_by_filtration,
    supp_factors,
    t_set,
)
from mtfan.sublattice import enumerate_submodules
from referee import (
    IRREDUCIBLE_LOOPS,
    any_module,
    count_calls,
    definition_t_set,
    in_class_closure,
    is_m_tf_equivalent,
    is_stable,
    module_and_change_of_basis,
    order_by_pairs,
    semistable_above_by_table,
    semistable_subobjects_by_submodules,
    submodule_full,
    supp_factors_by_quotients,
    torsion_filtration,
    torsion_members_by_table,
)


def filtration_dims(theta, module):
    cs = canonical_sequences(theta, module)
    return (
        tuple(cs.t.dims),
        tuple(cs.tbar.dims),
        cs.w.dims,
        tuple(a - b for a, b in zip(module.dims, cs.tbar.dims)),  # f = M/tbar
    )


def supp_multiset(theta, module):
    cs = canonical_sequences(theta, module)
    return tuple(sorted(d for _, d in supp_factors(theta, cs.w)))


# ---------------------------------------------------------------------------
# the seven classes of the length-two module on the one-arrow quiver


def test_class_table_interior_chambers():
    m = preset_module("a2-P1")
    # chamber around theta = (2, 1): everything is torsion
    assert filtration_dims((2, 1), m) == ((1, 1), (1, 1), (0, 0), (0, 0))
    # chamber around theta = (-2, 1): only the top stays torsion
    assert filtration_dims((-2, 1), m) == ((0, 1), (0, 1), (0, 0), (1, 0))
    # chamber around theta = (-1, -2): everything is free
    assert filtration_dims((-1, -2), m) == ((0, 0), (0, 0), (0, 0), (1, 1))


def test_class_table_rays_and_origin():
    m = preset_module("a2-P1")
    # ray through (0, 1): middle slice is the projective cover top
    assert filtration_dims((0, 1), m) == ((0, 1), (1, 1), (1, 0), (0, 0))
    assert supp_multiset((0, 1), m) == ((1, 0),)
    # ray through (-1, 0): middle slice is the socle
    assert filtration_dims((-1, 0), m) == ((0, 0), (0, 1), (0, 1), (1, 0))
    assert supp_multiset((-1, 0), m) == ((0, 1),)
    # ray through (1, -1): the module itself is stable
    assert filtration_dims((1, -1), m) == ((0, 0), (1, 1), (1, 1), (0, 0))
    assert supp_multiset((1, -1), m) == ((1, 1),)
    # origin: all submodules tie, support is the full composition series
    assert filtration_dims((0, 0), m) == ((0, 0), (1, 1), (1, 1), (0, 0))
    assert supp_multiset((0, 0), m) == ((0, 1), (1, 0))


def test_semistable_and_stable():
    m = preset_module("a2-P1")
    assert is_stable((1, -1), m)
    assert is_semistable((0, 0), m)
    assert not is_stable((0, 0), m)
    assert not is_semistable((2, 1), m)  # theta(M) != 0
    assert not is_semistable((-1, 0), m)  # theta(M) = -1


def test_stable_in_wall_interior_but_not_on_its_boundary():
    # On the four-vertex commuting square the module is semistable but not
    # stable on the boundary ray [S1]* - [S2]*: the submodule supported at
    # the sink has value 0.  Strict stability holds in the wall's interior.
    m = preset_module("square-lambda")
    boundary = (1, -1, 0, 0)
    interior = (1, 0, 0, -1)
    assert is_semistable(boundary, m)
    assert not is_stable(boundary, m)
    assert is_stable(interior, m)
    assert is_semistable(interior, m)
    assert not is_semistable((1, 1, 1, 1), m)


def test_zero_module_edge_cases():
    A = preset_module("a2-P1").algebra
    z = build_module(A, (0,) * A.n, [None] * len(A.arrows))
    assert is_semistable((1, 2), z)
    with pytest.raises(ModuleDefinitionError):
        is_stable((1, 2), z)


def test_supp_factors_are_stable_and_need_semistability():
    m = preset_module("a2-P1")
    with pytest.raises(ModuleDefinitionError):
        supp_factors((2, 1), m)
    factors = supp_factors((0, 0), m)
    assert tuple(sorted(d for _, d in factors)) == ((0, 1), (1, 0))
    for factor, d in factors:
        assert is_stable((0, 0), factor)
        assert factor.dims == d


def test_t_set_examples():
    m = preset_module("a2-P1")
    full_only = t_set((2, 1), m)
    assert {s.dims for s in full_only} == {(1, 1)}
    at_zero = t_set((0, 0), m)
    assert {s.dims for s in at_zero} == {(0, 0), (0, 1), (1, 1)}
    on_ray = t_set((0, 1), m)
    assert {s.dims for s in on_ray} == {(0, 1), (1, 1)}


def test_equivalence_and_closure():
    m = preset_module("a2-P1")
    assert is_m_tf_equivalent((2, 1), (1, 3), m)
    assert m_tf_equivalent_by_filtration((2, 1), (1, 3), m)
    assert not is_m_tf_equivalent((2, 1), (0, 1), m)
    assert not m_tf_equivalent_by_filtration((2, 1), (0, 1), m)
    # rational and integer representatives of the same ray agree
    assert is_m_tf_equivalent(
        (Fraction(1, 2), Fraction(-1, 2)), (3, -3), m
    )
    assert in_class_closure((0, 0), (1, -1), m)
    assert not in_class_closure((1, -1), (0, 0), m)
    assert in_class_closure((0, 1), (2, 1), m)


def test_evaluate_accepts_modules_submodules_and_vectors():
    m = preset_module("a2-P1")
    assert evaluate((2, 1), m) == 3
    assert evaluate((2, 1), (1, 1)) == 3
    assert evaluate((Fraction(1, 2), 0), (2, 0)) == 1
    # integer functionals stay in integer arithmetic
    assert type(evaluate((2, 1), m)) is int


def test_as_theta_makes_integral_coordinates_ints():
    t = as_theta((2, Fraction(4, 2), "3"), 3)
    assert t == (2, 2, 3)
    assert all(type(x) is int for x in t)
    half = as_theta((Fraction(1, 2), 0), 2)
    assert half == (Fraction(1, 2), 0)
    assert (type(half[0]), type(half[1])) == (Fraction, int)
    for wrong in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="expected 2"):
            as_theta(wrong, 2)


def test_int_and_fraction_functionals_cut_the_same_t_set():
    m = preset_module("a2-P1")
    assert t_set((Fraction(2), Fraction(1)), m) == t_set((2, 1), m)


theta2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(theta2, theta2)
@settings(max_examples=60, deadline=None)
def test_equivalence_routes_agree_on_a2(theta, eta):
    m = preset_module("a2-P1")
    assert is_m_tf_equivalent(theta, eta, m) == m_tf_equivalent_by_filtration(
        theta, eta, m
    )


@given(theta2, theta2)
@settings(max_examples=40, deadline=None)
def test_equivalence_routes_agree_on_nakayama(theta, eta):
    m = preset_module("nakayama2-121")
    assert is_m_tf_equivalent(theta, eta, m) == m_tf_equivalent_by_filtration(
        theta, eta, m
    )


@given(theta2)
@settings(max_examples=60, deadline=None)
def test_filtration_dims_are_additive(theta):
    m = preset_module("nakayama2-121")
    cs = canonical_sequences(theta, m)
    t, tbar = cs.t.dims, cs.tbar.dims
    assert all(a + b == c for a, b, c in zip(t, cs.w.dims, tbar))


def test_largest_member_of_a_corrupted_table_raises_invariant_error():
    A = preset_module("a2-P1").algebra
    module = direct_sum(simple_module(A, 1), simple_module(A, 2))
    subs = enumerate_submodules(module)
    # S1 and S2 without their sum: not the member set of any functional
    simples = {i for i, s in enumerate(subs) if s.total_dim == 1}
    assert len(simples) == 2
    with pytest.raises(InvariantError, match="not a member"):
        _largest_member(simples, _order(module, subs))


def test_an_unstable_factor_raises_invariant_error(monkeypatch):
    """Each factor of the chain is checked stable on its own lattice, by
    supp_factors and by the kernel behind canonical_sequences: at 0 on
    a2-P1, w is the whole module, with two simple factors."""
    monkeypatch.setattr(mtfan.stability, "_stable", lambda vals: False)
    for route in (supp_factors, canonical_sequences):
        with pytest.raises(InvariantError) as info:
            route((0, 0), preset_module("a2-P1"))
        assert str(info.value) == "a minimal semistable factor is not stable at (0, 0)"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda members, i, full: members - {i},
         "t or tbar is missing from the t-set at (-2, 1)"),
        (lambda members, i, full: members | {full},
         "a t-set member is not inside tbar at (-2, 1)"),
    ],
)
def test_a_corrupted_t_set_scan_raises_invariant_error(monkeypatch, corrupt, message):
    """The checks on the t-set guard its scan, not the order table: once w
    is semistable, theta(t) = theta(tbar) is the largest value, so the scan
    of any table keeps t and tbar and every member is weak torsion, inside
    tbar.  At (-2, 1) on a2-P1, t = tbar = S2 and the t-set is {S2}; a scan
    that drops t, or adds M, is caught."""
    m = preset_module("a2-P1")
    full = enumerate_submodules(m).index(submodule_full(m))
    real = mtfan.stability._semistable_above

    def corrupted(below, vals, i):
        return corrupt(real(below, vals, i), i, full)

    monkeypatch.setattr(mtfan.stability, "_semistable_above", corrupted)
    with pytest.raises(InvariantError) as info:
        canonical_sequences((-2, 1), m)
    assert str(info.value) == message


@st.composite
def module_and_theta(draw):
    """A preset or a random module of the referee (a direct sum of presets
    or a Kronecker module, after a change of basis), with a small integral
    functional, so that many submodules tie."""
    module = draw(
        st.one_of(
            st.sampled_from(preset_names()).map(preset_module),
            module_and_change_of_basis().map(lambda pair: pair[1]),
        )
    )
    theta = draw(st.tuples(*[st.integers(-2, 2)] * module.algebra.n))
    return module, as_theta(theta, module.algebra.n)


@given(module_and_theta())
@example((direct_sum(IRREDUCIBLE_LOOPS[0], IRREDUCIBLE_LOOPS[0]), (0,)))
@example((direct_sum(IRREDUCIBLE_LOOPS[0], IRREDUCIBLE_LOOPS[0]), (1,)))
@example((direct_sum(IRREDUCIBLE_LOOPS[0], IRREDUCIBLE_LOOPS[0]), (-1,)))
@example((direct_sum(IRREDUCIBLE_LOOPS[1], IRREDUCIBLE_LOOPS[1]), (0,)))
@example((direct_sum(IRREDUCIBLE_LOOPS[1], IRREDUCIBLE_LOOPS[1]), (1,)))
@example((direct_sum(IRREDUCIBLE_LOOPS[1], IRREDUCIBLE_LOOPS[1]), (-1,)))
@seed(0x0DE7)
@settings(max_examples=60, deadline=None)
def test_order_table_agrees_with_the_pairwise_torsion_scans(case):
    """t, tbar, the t-set, the semistable subobjects of w and the stable
    factors of w read off the order tables are those of the definitions:
    scans that test containment of every pair at the functional,
    semistability of each candidate on its own lattice, and one split and
    quotient at a time.  On w every zero-valued submodule is semistable, so
    the module's t-set is what tests the bound on the members below.  The
    examples are L + L for an irreducible loop L (7 members at p = 2, 12 at
    p = 3), whose members have total dimension 0, 2 or 4 but chains of
    length 0, 1 or 2: the largest member is the one with the longest row,
    and at theta = 0 the two stable factors are copies of L."""
    module, theta = case
    cs = canonical_sequences(theta, module)
    assert (cs.t, cs.tbar) == torsion_filtration(theta, module)
    assert t_set(theta, module) == definition_t_set(theta, module)
    assert sorted(d for _, d in supp_factors(theta, cs.w)) == sorted(
        d for _, d in supp_factors_by_quotients(theta, cs.w)
    )
    assert cs.w_semis == semistable_subobjects_by_submodules(theta, cs.w)
    assert cs.supp == tuple(
        sorted(d for _, d in supp_factors_by_quotients(theta, cs.w))
    )


@given(module_and_change_of_basis(any_module()))
@seed(0x07DE)
@settings(max_examples=60, deadline=None)
def test_order_table_is_the_table_of_pairwise_containment(pair):
    """The order table's bit masks, built one vertex at a time, are the
    table of submodule_contains on every pair of members, on a preset, a
    direct sum, a Kronecker module or a loop and on the same module after a
    change of basis."""
    for module in pair:
        assert _order(module, enumerate_submodules(module)) == tuple(
            sum(1 << j for j in row) for row in order_by_pairs(module)
        )


@given(
    module_and_change_of_basis(any_module()),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
)
@example((IRREDUCIBLE_LOOPS[0],) * 2, [1, 0, 0, 0])
@example((IRREDUCIBLE_LOOPS[1],) * 2, [-1, 0, 0, 0])
@seed(0x0C0F)
@settings(max_examples=40, deadline=None)
def test_row_scans_agree_with_the_pairwise_table_scans(pair, grid_point):
    """The strict and weak torsion members and the members semistable
    above each member, read off the order table's bit-mask rows, are those
    of scans over every row of the pairwise containment table, a set of
    indices a member: at theta = 0 and at a small grid point, on a module
    and on the same module after a change of basis.  On a loop's simple
    of dimension 2 the zero member is the only member strictly inside."""
    n = pair[0].algebra.n
    for module in pair:
        subs = enumerate_submodules(module)
        pairs = order_by_pairs(module)
        below = _order(module, subs)
        for theta in ((0,) * n, tuple(grid_point[:n])):
            vals = tuple(evaluate(theta, s) for s in subs)
            assert _torsion_classes(below, vals) == (
                torsion_members_by_table(pairs, vals, strict=True),
                torsion_members_by_table(pairs, vals, strict=False),
            )
            for i in range(len(subs)):
                assert _semistable_above(
                    below, vals, i
                ) == semistable_above_by_table(pairs, vals, i)


def test_order_table_decides_each_pair_of_vertex_spaces_once(monkeypatch):
    """On sq+sq+sq (2,060 submodules, 28 distinct spaces at each vertex)
    the table makes 3,368 in_span calls and no submodule_contains call,
    counted through every alias; a containment test of every pair of
    submodules, after a dimension prefilter, made 2,506,926 in_span and
    1,525,083 submodule_contains calls."""
    path = pathlib.Path(__file__).parent / "goldens" / "sq-sq-sq.input.json"
    module = module_from_doc(json.loads(path.read_text()))[1]
    subs = enumerate_submodules(module)
    calls = count_calls(
        monkeypatch, mtfan.fplinalg.in_span, mtfan.quiver.submodule_contains
    )
    assert len(_order(module, subs)) == 2060
    assert calls["submodule_contains"] == 0
    assert 0 < calls["in_span"] <= 5000


def test_value_only_questions_build_no_order_table(monkeypatch):
    """Semistability reads values alone, so is_semistable builds no
    table.  The filtration route builds one for the module and one
    for its middle slice w = tbar/t, whose semistable subobjects it reads
    off w's own table, and keeps them for one functional: at (1, 0, 0, -1)
    w is the whole module, so that is one table a functional, and at
    (-1, 0, 0, 0) w is a proper slice with a table of its own."""
    m = preset_module("square-lambda")
    calls = count_calls(monkeypatch, mtfan.stability._order)
    assert is_semistable((1, -1, 0, 0), m)
    assert calls["_order"] == 0
    assert m_tf_equivalent_by_filtration((1, 0, 0, -1), (2, 0, 0, -2), m)
    assert calls["_order"] == 2
    assert m_tf_equivalent_by_filtration((-1, 0, 0, 0), (-2, 0, 0, 0), m)
    assert calls["_order"] == 6
