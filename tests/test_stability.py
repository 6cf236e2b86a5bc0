"""Semistability, canonical filtrations, t-sets and equivalence."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mtfan.errors import InvariantError, ModuleDefinitionError
from mtfan.exact import as_theta
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import direct_sum, simple_module, zero_module
import mtfan.stability
from mtfan.stability import (
    THETA_CACHE_SIZE,
    _largest_member,
    _order,
    canonical_sequences,
    evaluate,
    in_class_closure,
    is_m_tf_equivalent,
    is_semistable,
    is_stable,
    m_tf_equivalent_by_filtration,
    supp_factors,
    t_set,
    wall_membership,
)
from mtfan.sublattice import enumerate_submodules
from referee import definition_t_set, module_and_change_of_basis, torsion_filtration


def filtration_dims(theta, module):
    cs = canonical_sequences(theta, module)
    return (
        tuple(cs.t.dims),
        tuple(cs.tbar.dims),
        cs.w.dims,
        cs.f.dims,
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
    assert wall_membership(boundary, m)
    assert wall_membership(interior, m)
    assert not wall_membership((1, 1, 1, 1), m)


def test_zero_module_edge_cases():
    z = zero_module(preset_module("a2-P1").algebra)
    assert is_semistable((1, 2), z)
    with pytest.raises(ModuleDefinitionError):
        is_stable((1, 2), z)
    with pytest.raises(ModuleDefinitionError):
        wall_membership((1, 2), z)


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


def test_int_and_fraction_functionals_share_a_memo_entry():
    m = preset_module("a2-P1")
    mtfan.stability._t_set.cache_clear()
    first = t_set((2, 1), m)
    assert t_set((Fraction(2), Fraction(1)), m) is first
    info = mtfan.stability._t_set.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
    w, f = cs.w.dims, cs.f.dims
    assert all(a + b == c for a, b, c in zip(t, w, tbar))
    assert all(a + b == c for a, b, c in zip(tbar, f, m.dims))


def test_largest_member_of_a_corrupted_table_raises_invariant_error():
    A = preset_module("a2-P1").algebra
    module = direct_sum(simple_module(A, 1), simple_module(A, 2))
    subs = enumerate_submodules(module)
    # S1 and S2 without their sum: not the member set of any functional
    simples = {i for i, s in enumerate(subs) if s.total_dim == 1}
    assert len(simples) == 2
    with pytest.raises(InvariantError, match="not a member"):
        _largest_member(simples, _order(module))


def test_theta_memos_stay_within_their_bound():
    module = preset_module("a2-S1")
    for k in range(THETA_CACHE_SIZE + 8):
        t_set((Fraction(k, THETA_CACHE_SIZE), -1), module)
    for memo in (mtfan.stability._t_set, mtfan.stability._canonical_sequences):
        assert 0 < memo.cache_info().currsize <= THETA_CACHE_SIZE


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
@seed(0x0DE7)
@settings(max_examples=60, deadline=None)
def test_order_table_agrees_with_the_pairwise_torsion_scans(case):
    """t, tbar and the t-set read off the order table are those of the
    scans that test containment of every pair at the functional."""
    module, theta = case
    cs = canonical_sequences(theta, module)
    assert (cs.t, cs.tbar) == torsion_filtration(theta, module)
    assert t_set(theta, module) == definition_t_set(theta, module)


def test_value_only_questions_build_no_order_table():
    """Semistability reads values alone: only the module whose filtration
    is asked for gets a table, not the submodules of its middle slice that
    the filtration route tests for semistability."""
    m = preset_module("square-lambda")
    mtfan.stability._order.cache_clear()
    assert is_semistable((1, -1, 0, 0), m)
    assert is_stable((1, 0, 0, -1), m)
    assert mtfan.stability._order.cache_info().currsize == 0
    mtfan.stability._canonical_sequences.cache_clear()
    assert m_tf_equivalent_by_filtration((1, 0, 0, -1), (2, 0, 0, -2), m)
    assert mtfan.stability._order.cache_info().currsize == 1
