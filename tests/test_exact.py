"""Exact rational/integer linear algebra and the F_p kernel routines."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mtfan.exact import (
    as_theta,
    dot,
    hnf,
    nullspace,
    primitive,
    rank,
    rref,
    theta_str,
)
from mtfan.fplinalg import (
    all_vectors,
    in_span,
    rref_fp,
    rref_join,
)
from mtfan.fan import build_mtf_fan
from mtfan.oracle import build_sample_set, verify_fan
from mtfan.polyhedra import validate_generalized_fan
from mtfan.presets import preset_module
from referee import intersect_spaces, nullspace_over_q, rref_over_q

F = Fraction


def _all_ints(rows):
    return all(type(x) is int for row in rows for x in row)


def _pivots(rows):
    """The column of each row's first nonzero entry."""
    return tuple(next(c for c, x in enumerate(row) if x) for row in rows)


def test_theta_str_prints_each_coordinate():
    theta = as_theta((Fraction(1, 2), -1, Fraction(4, 2)), 3)
    assert theta_str(theta) == "(1/2, -1, 2)"


def test_rref_known_matrix():
    rows = rref([(1, 2, 3), (2, 4, 7), (0, 0, 1)])
    assert _pivots(rows) == (0, 2)
    assert rows == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))
    # a non-unit pivot: each RREF row over Q, scaled primitive with a
    # positive pivot; (1, 0, -1/6) and (0, 1, 1/3) over Q
    assert rref([(2, 1, 0), (0, 3, 1)]) == ((6, 0, -1), (0, 3, 1))
    assert rref([(0, -2, 4), (0, 0, 0)]) == ((0, 1, -2),)
    for matrix in ([(2, 1, 0), (0, 3, 1)], [(F(1, 2), F(-2, 3), 1)]):
        assert _all_ints(rref(matrix))
        assert _all_ints(nullspace(matrix, 3))


def test_rref_is_idempotent():
    rows = rref([(2, 4), (1, 3)])
    assert rref(rows) == rows


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


def test_rref_is_invariant_under_respanning():
    a = rref([(1, 1, 0), (0, 1, 1)])
    b = rref([(2, 3, 1), (1, 2, 1), (3, 5, 2)])
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
    rows, _ = data
    assert rref(rref(rows)) == rref(rows)


@st.composite
def rational_matrix(draw):
    """Up to 4 x 4 with int and Fraction entries, empty matrices, zero rows
    and zero columns included."""
    ncols = draw(st.integers(0, 4))
    nrows = draw(st.integers(0, 4))
    entry = st.one_of(
        st.integers(-6, 6),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
    )
    rows = []
    for _ in range(nrows):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append((0,) * ncols)
        else:
            rows.append(tuple(draw(entry) for _ in range(ncols)))
    return rows, ncols


@seed(0xB4E1)
@given(rational_matrix())
@settings(max_examples=200, deadline=None)
def test_integer_kernels_agree_with_elimination_over_q(data):
    """rref is the RREF over Q with each row scaled primitive: each row's
    first nonzero entry is positive and sits at the pivot column over Q.
    The nullspace is the one over Q, each vector scaled primitive."""
    rows, ncols = data
    red_q, pivots_q = rref_over_q(rows)
    red = rref(rows)
    assert red == tuple(primitive(r) for r in red_q)
    assert _pivots(red) == pivots_q
    assert all(row[c] > 0 for row, c in zip(red, pivots_q))
    assert nullspace(rows, ncols) == tuple(
        primitive(v) for v in nullspace_over_q(rows, ncols)
    )
    assert _all_ints(red) and _all_ints(nullspace(rows, ncols))


def test_the_build_and_both_referees_make_no_fraction(monkeypatch):
    """Every input of the exact kernels under the build, the fan validator
    and the oracle on integer samples is an integer vector, so not one
    Fraction is constructed."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    module = preset_module("square-lambda")
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    mtf = build_mtf_fan(module)
    assert validate_generalized_fan(mtf.fan).ok
    samples = build_sample_set(mtf, bound=1)
    assert _all_ints(samples)
    assert verify_fan(mtf, samples=samples).ok
    assert made == []


# ---------------------------------------------------------------------------
# F_p linear algebra


def test_rref_fp_mod2():
    assert rref_fp([(1, 1, 0), (1, 0, 1)], 2) == ((1, 0, 1), (0, 1, 1))


def test_in_span_fp():
    rows = rref_fp([(1, 1, 0), (0, 1, 1)], 2)
    assert in_span(rows, (1, 0, 1), 2)
    assert not in_span(rows, (0, 0, 1), 2)


@st.composite
def fp_rows_and_vectors(draw):
    """(p, R, vecs): R is the RREF of random rows over F_p (zero rows and
    empty matrices included) and vecs a few more vectors of its width."""
    p = draw(st.sampled_from((2, 3, 5)))
    ncols = draw(st.integers(0, 5))
    vec = st.tuples(*[st.integers(0, p - 1)] * ncols)
    rows = draw(st.lists(vec, max_size=5))
    vecs = draw(st.lists(vec, max_size=3))
    return p, rref_fp(rows, p), tuple(vecs)


@seed(0xF9)
@given(fp_rows_and_vectors())
@settings(max_examples=300, deadline=None)
def test_fp_kernels_read_each_pivot_off_its_leading_one(data):
    p, rows, vecs = data
    pivots = []
    for row in rows:
        assert all(0 <= x < p for x in row)
        lead = next(c for c, x in enumerate(row) if x)
        assert row[lead] == 1
        pivots.append(lead)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert all(not other[c] for j, other in enumerate(rows) if j != i)
    for v in vecs:
        assert in_span(rows, v, p) == (len(rref_fp(rows + (v,), p)) == len(rows))
    joined = rref_join(rows, vecs, p)
    assert joined == rref_fp(rows + vecs, p)
    if all(in_span(rows, v, p) for v in vecs):
        assert joined is rows


def test_sum_and_intersection_against_enumeration():
    p = 2
    a = rref_fp([(1, 0, 0), (0, 1, 0)], p)
    b = rref_fp([(0, 1, 1), (1, 1, 1)], p)

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
    total = rref_fp(a + b, p)
    assert members(total) >= members(a) | members(b)
    assert len(members(total)) == p ** len(total)


def test_all_vectors():
    assert set(all_vectors(2, 2)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all_vectors(0, 3) == ((),)
