"""Exact rational/integer linear algebra and the F_p kernel routines."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfan.exact import (
    dot,
    hnf,
    nullspace,
    primitive,
    rank,
    rref,
    subspace_canonical,
)
from mtfan.fplinalg import (
    all_vectors,
    in_span,
    mat_mul,
    rref_fp,
)
from referee import intersect_spaces, span_fp

F = Fraction


def test_rref_known_matrix():
    rows, pivots = rref([(1, 2, 3), (2, 4, 7), (0, 0, 1)])
    assert pivots == (0, 2)
    assert rows == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))


def test_rref_is_idempotent():
    rows, _ = rref([(2, 4), (1, 3)])
    again, _ = rref(rows)
    assert again == rows


def test_rank_and_nullspace():
    rows = [(1, 2, 3), (2, 4, 6)]
    assert rank(rows) == 1
    ns = nullspace(rows, 3)
    assert len(ns) == 2
    for v in ns:
        for r in rows:
            assert dot(r, v) == 0


def test_nullspace_of_nothing_is_everything():
    assert len(nullspace([], 3)) == 3
    assert nullspace([], 0) == ()


def test_primitive_clears_denominators_and_sign():
    assert primitive((F(1, 2), F(-3, 4))) == (2, -3)
    assert primitive((0, 0, 0)) == (0, 0, 0)
    assert primitive((-4, -6)) == (-2, -3)
    assert primitive((F(2), F(4))) == (1, 2)


def test_subspace_canonical_is_invariant_under_respanning():
    a = subspace_canonical([(1, 1, 0), (0, 1, 1)])
    b = subspace_canonical([(2, 3, 1), (1, 2, 1), (3, 5, 2)])
    assert a == b


def test_hnf_known():
    assert hnf([(2, 4), (3, 6)]) == ((1, 2),)
    assert hnf([(4, 0), (0, 6)]) == ((4, 0), (0, 6))
    # entries above a pivot are reduced into [0, pivot)
    assert hnf([(1, 5), (0, 3)]) == ((1, 2), (0, 3))


@st.composite
def small_matrix(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 4))
    entry = st.integers(-5, 5)
    return [
        tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows)
    ], ncols


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(data):
    rows, ncols = data
    assert rank(rows) + len(nullspace(rows, ncols)) == ncols


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rref_preserves_row_space(data):
    rows, ncols = data
    red, _ = rref(rows)
    assert subspace_canonical(rows) == subspace_canonical(red)


# ---------------------------------------------------------------------------
# F_p linear algebra


def test_rref_fp_mod2():
    rows, pivots = rref_fp([(1, 1, 0), (1, 0, 1)], 2)
    assert pivots == (0, 1)
    assert rows == ((1, 0, 1), (0, 1, 1))


def test_in_span_fp():
    rows, pivots = rref_fp([(1, 1, 0), (0, 1, 1)], 2)
    assert in_span(rows, pivots, (1, 0, 1), 2)
    assert not in_span(rows, pivots, (0, 0, 1), 2)


def test_sum_and_intersection_against_enumeration():
    p = 2
    a = span_fp([(1, 0, 0), (0, 1, 0)], p)
    b = span_fp([(0, 1, 1), (1, 1, 1)], p)

    def members(space):
        rows = list(space)
        out = set()
        for coeffs in all_vectors(len(rows), p):
            v = tuple(
                sum(c * r[i] for c, r in zip(coeffs, rows)) % p
                for i in range(3)
            )
            out.add(v)
        return out

    inter = intersect_spaces(a, b, 3, p)
    assert members(inter) == members(a) & members(b)
    total = span_fp(a + b, p)
    assert members(total) >= members(a) | members(b)
    assert len(members(total)) == p ** len(total)


def test_mat_mul_handles_zero_shapes():
    assert mat_mul((), ((1,),), 1, 2) == ()
    assert mat_mul(((),), (), 3, 2) == ((0, 0, 0),)
    assert mat_mul(((1, 2), (3, 4)), ((1, 0), (0, 1)), 2, 5) == (
        (1, 2),
        (3, 4),
    )


def test_all_vectors():
    assert set(all_vectors(2, 2)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all_vectors(0, 3) == ((),)
