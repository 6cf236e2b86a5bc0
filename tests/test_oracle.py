"""Brute-force oracle agreement with the decorated fan."""

import gc
import itertools
import json
import pathlib
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import mtfan.fplinalg
import mtfan.oracle
import mtfan.polyhedra
import mtfan.quiver
import mtfan.stability
import mtfan.sublattice
from mtfan.exact import as_theta
from mtfan.fan import MTFFan, build_mtf_fan
from mtfan.oracle import (
    build_sample_set,
    verify_dim_formula,
    verify_fan,
    verify_point,
)
from mtfan.polyhedra import validate_generalized_fan
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import build_module, direct_sum
from mtfan.serialize import module_from_doc
from mtfan.stability import canonical_sequences, supp_factors, t_set, theta_str
from mtfan.sublattice import enumerate_submodules
from referee import (
    count_calls,
    preset_direct_sum,
    quotient_module,
    random_kronecker_module,
    verify_fan_by_records,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"


@pytest.mark.parametrize("name", preset_names())
def test_oracle_clean_on_presets(name):
    mtf = build_mtf_fan(preset_module(name))
    samples = build_sample_set(mtf, bound=2, seed=7)
    report = verify_fan(mtf, samples=samples)
    assert report.ok, report.failures
    assert report.checks >= len(samples)


def test_oracle_clean_on_zero_module():
    A = preset_module("a2-P1").algebra
    mtf = build_mtf_fan(build_module(A, (0,) * A.n, [None] * len(A.arrows)))
    assert len(mtf.cones) == 1
    report = verify_fan(mtf, build_sample_set(mtf))
    assert report.ok, report.failures


@pytest.mark.parametrize("name", preset_names())
def test_dim_formula(name):
    mtf = build_mtf_fan(preset_module(name))
    report = verify_dim_formula(mtf)
    assert report.ok, report.failures


def test_dim_formula_reports_wall_faces_with_a_wrong_support():
    """Blank the support of the ten fan cones that are faces of the
    square-lambda wall: each breaks dim + rank(supp) = n, and every proper
    wall face stops being the wall cut by its support span.  The wall
    faces are reported in ascending dimension."""
    mtf = build_mtf_fan(preset_module("square-lambda"))
    on_wall = (10, 21, 23, 25, 26, 33, 34, 35, 36, 38)
    assert on_wall == tuple(
        i for i, c in enumerate(mtf.cones) if c.is_face_of(mtf.wall)
    )
    classes = tuple(
        d._replace(supp_dims=()) if i in on_wall else d
        for i, d in enumerate(mtf.classes)
    )
    report = verify_dim_formula(
        MTFFan(mtf.module, mtf.lattice, mtf.newton, mtf.fan, classes)
    )
    dims = {10: 3, 21: 2, 23: 2, 25: 2, 26: 2, 33: 1, 34: 1, 35: 1, 36: 1, 38: 0}
    assert report.checks == 49
    assert report.failures == tuple(
        f"cone {i}: dim {dims[i]} + rank(supp) 0 != 4" for i in on_wall
    ) + tuple(
        f"wall face of dim {d} is not the wall cut by its support span"
        for d in (0, 1, 1, 1, 1, 2, 2, 2, 2)
    )


def _corrupted(name, field, index):
    """The fan of a preset with one cone's class data replaced: t by tbar,
    or the support by the single class (1, ..., 1)."""
    mtf = build_mtf_fan(preset_module(name))

    def corrupt(d):
        if field == "t":
            return d._replace(t=d.tbar)
        return d._replace(supp_dims=((1,) * mtf.n,))

    classes = tuple(
        corrupt(d) if i == index else d for i, d in enumerate(mtf.classes)
    )
    return MTFFan(mtf.module, mtf.lattice, mtf.newton, mtf.fan, classes)


def _support_failures(support, thetas):
    return tuple(
        f"theta {theta}: support () != cone support ({support},)"
        for theta in thetas
    )


BAD_FANS = {
    ("a2-P1", "t", 3): (
        78,
        ("theta (-1, 0): canonical filtration differs from the cone's",),
    ),
    ("a2-P1", "supp_dims", 0): (
        78,
        _support_failures(
            "(1, 1)",
            (
                "(-1, -1)",
                "(0, -1)",
                "(0, -2)",
                "(-1, -2)",
                "(1, -2)",
            ),
        ),
    ),
    ("square-lambda", "t", 27): (
        2411,
        ("theta (-1, 0, 0, 1): canonical filtration differs from the cone's",),
    ),
    ("square-lambda", "supp_dims", 5): (
        2411,
        _support_failures(
            "(1, 1, 1, 1)",
            (
                "(1, 0, 0, 0)",
                "(1, 0, 0, 1)",
                "(1, 0, 1, -1)",
                "(1, 0, 1, 0)",
                "(1, 0, 1, 1)",
                "(1, 1, 0, -1)",
                "(1, 1, 0, 0)",
                "(1, 1, 0, 1)",
                "(1, 1, 1, -1)",
                "(1, 1, 1, 0)",
                "(1, 1, 1, 1)",
                "(2, 0, 0, -1)",
                "(3, 2, 3, -1)",
                "(2, 0, -1, 0)",
                "(1, 2, 1, -2)",
            ),
        ),
    ),
}


@pytest.mark.parametrize("name,field,index", list(BAD_FANS))
def test_oracle_reports_corrupted_class_data(name, field, index):
    """verify_fan recomputes t and the support at every sample from the
    definitions, so a wrong entry in one cone's class data is reported at
    every sample located in that cone."""
    bad = _corrupted(name, field, index)
    report = verify_fan(bad, samples=build_sample_set(bad, bound=1))
    assert (report.checks, report.failures) == BAD_FANS[name, field, index]


def test_oracle_messages_print_rational_functionals():
    bad = _corrupted("a2-P1", "supp_dims", 0)
    samples = (as_theta((Fraction(-1, 2), -1), 2),)
    report = verify_fan(bad, samples=samples)
    assert report.checks == 1
    assert report.failures == (
        "theta (-1/2, -1): support () != cone support ((1, 1),)",
        "cones never sampled: [1, 2, 3, 4, 5, 6]",
    )


def test_oracle_reports_a_definition_t_set_off_the_lattice(monkeypatch):
    """The definition t-set at theta must be the set of submodules where
    theta is largest.  At 0 every submodule of a2-P1 is there, so a t-set
    cut down to {t} is reported at the first submodule it misses."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    assert len(t_set((0, 0), mtf.module)) == 3
    real = mtfan.oracle._classify

    def only_t(theta, lattice, slices):
        c = real(theta, lattice, slices)
        return c._replace(t_set=1 << c.t)

    monkeypatch.setattr(mtfan.oracle, "_classify", only_t)
    assert verify_point(mtf, (0, 0)).failures == (
        "t-set mismatch at submodule of class (0, 1)",
    )
    assert verify_point(mtf, (2, 1)).ok


def test_oracle_reports_a_t_that_is_not_the_face_minimum(monkeypatch):
    """At 0 the t-set of a2-P1 runs from t = 0 to tbar = M; a definition
    route that answers tbar for t misses the cone's t and the minimum of
    the Newton face.  In a maximal cone t = tbar, so nothing changes."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    real = mtfan.oracle._classify

    def t_is_tbar(theta, lattice, slices):
        c = real(theta, lattice, slices)
        return c._replace(t=c.tbar)

    monkeypatch.setattr(mtfan.oracle, "_classify", t_is_tbar)
    assert verify_point(mtf, (0, 0)).failures == (
        "canonical filtration differs from the cone's",
        "t/tbar are not the min/max of the located face",
    )
    assert verify_point(mtf, (2, 1)).ok


def test_oracle_reports_a_tbar_that_is_not_the_face_maximum(monkeypatch):
    """The same fault from above: a definition route that answers t for
    tbar at 0 misses the cone's tbar and the maximum of the Newton face."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    real = mtfan.oracle._classify

    def tbar_is_t(theta, lattice, slices):
        c = real(theta, lattice, slices)
        return c._replace(tbar=c.t)

    monkeypatch.setattr(mtfan.oracle, "_classify", tbar_is_t)
    assert verify_point(mtf, (0, 0)).failures == (
        "canonical filtration differs from the cone's",
        "t/tbar are not the min/max of the located face",
    )
    assert verify_point(mtf, (2, 1)).ok


def test_oracle_reports_a_wall_that_is_another_cone():
    """The wall of a2-P1 is cone 4, the ray through (1, -1).  A fan whose
    memoized wall is maximal cone 0, spanned by (-1, 0) and (1, -1), is
    caught at the witnesses of cone 0 and of its other ray, cone 3, where
    the module is not semistable."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    assert mtf.wall is mtf.cones[4]
    vars(mtf)["wall"] = mtf.cones[0]
    failures = [verify_point(mtf, c.relint_point()).failures for c in mtf.cones]
    disagree = ("wall membership disagrees with the wall cone",)
    assert failures == [disagree, (), (), disagree, (), (), ()]


def _witnesses(mtf):
    """One sample per cone, its witness, and the printed samples."""
    samples = tuple(c.relint_point() for c in mtf.cones)
    return samples, [theta_str(theta) for theta in samples]


def test_oracle_reports_filtration_keys_that_never_differ(monkeypatch):
    """With one sample per cone of a2-P1 every pair lies in two cones, so
    their t-sets differ; a filtration route that gives every functional
    the same key disagrees with the t-sets at each of the 21 pairs."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    samples, printed = _witnesses(mtf)
    monkeypatch.setattr(mtfan.oracle, "filtration_key", lambda cs: ())
    report = verify_fan(mtf, samples=samples)
    assert report.checks == 7 + 21
    assert report.failures == tuple(
        f"equivalence routes disagree at {a} vs {b}"
        for a, b in itertools.combinations(printed, 2)
    )


def test_oracle_reports_empty_t_sets(monkeypatch):
    """An empty definition t-set misses the first submodule of the cone's
    t-set at every sample, makes every pair equivalent although the
    filtration keys and the located cones differ, and puts every sample in
    the closure of every other.  Cones come in order of falling dimension,
    so no cone is a face of a later one; of the 21 pairs, the 9 whose later
    cone is not a face of the earlier one fail the closure check in that
    direction too."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    samples, printed = _witnesses(mtf)
    cones = mtf.cones
    back = [
        cones[j].is_face_of(cones[i])
        for i, j in itertools.combinations(range(len(cones)), 2)
    ]
    assert back.count(False) == 9
    real = mtfan.oracle._classify

    def empty_t_set(theta, lattice, slices):
        return real(theta, lattice, slices)._replace(t_set=0)

    monkeypatch.setattr(mtfan.oracle, "_classify", empty_t_set)
    report = verify_fan(mtf, samples=samples)
    missed = ("0, 0", "0, 1", "1, 1", "0, 0", "0, 0", "0, 1", "0, 0")
    expected = [
        f"theta {theta}: t-set mismatch at submodule of class ({dims})"
        for theta, dims in zip(printed, missed)
    ]
    for (a, b), face in zip(itertools.combinations(printed, 2), back):
        expected += [
            f"equivalence routes disagree at {a} vs {b}",
            f"equivalence({a}, {b}) = True, located cones differ",
            f"closure({a}, {b}) = True but face relation is False",
        ]
        if not face:
            expected.append(f"closure({b}, {a}) = True but face relation is False")
    assert report.checks == 7 + 21
    assert report.failures == tuple(expected)


def test_oracle_checks_the_face_relations_that_hold(monkeypatch):
    """Every proper face relation of square-lambda (236 between its 39
    cones) is checked against the closure of a class: with is_face_of
    recognising only a cone itself, the oracle reports that a sample of a
    face lies in the closure of the larger cone's class, the direction in
    which faces follow the cones they bound."""
    mtf = build_mtf_fan(preset_module("square-lambda"))
    samples = build_sample_set(mtf, bound=1, seed=0)
    monkeypatch.setattr(
        mtfan.polyhedra.Cone, "is_face_of", lambda self, other: self == other
    )
    report = verify_fan(mtf, samples=samples)
    closure = [m for m in report.failures if m.startswith("closure(")]
    assert closure and len(closure) == len(report.failures)
    assert all(m.endswith(" = True but face relation is False") for m in closure)


def test_dim_formula_reports_a_wall_face_missing_from_the_fan():
    """Put maximal cone 0 of square-lambda, with its class data, in place
    of cone 38, the origin: the origin is a face of the wall that the fan
    no longer has."""
    mtf = build_mtf_fan(preset_module("square-lambda"))
    cones, classes = list(mtf.cones), list(mtf.classes)
    assert mtf.cones[38].dim == 0 and mtf.cones[38].is_face_of(mtf.wall)
    cones[38], classes[38] = cones[0], classes[0]
    bad = MTFFan(
        mtf.module,
        mtf.lattice,
        mtf.newton,
        mtf.fan._replace(cones=tuple(cones)),
        tuple(classes),
    )
    report = verify_dim_formula(bad)
    assert (report.checks, report.failures) == (
        49,
        ("wall face of dim 0 is missing from the fan",),
    )


def test_verify_point_on_specific_functionals():
    mtf = build_mtf_fan(preset_module("a2-P1"))
    for theta in ((0, 0), (2, 1), (0, 1), (-1, 0), (1, -1), (-3, -5)):
        rep = verify_point(mtf, theta)
        assert rep.ok, rep.failures


def test_verify_point_values_the_lattice_once(monkeypatch):
    """The kernel values theta once on each lattice it reads, one dot
    product a row: M's, then w's (which decide that w is semistable and
    give its semistable subobjects and stable factors), f's and each stable
    factor's, whose last value is theta on the factor, so evaluate never
    runs.  canonical_sequences and verify_point are one kernel call each,
    and verify_fan values each sample's lattices once too; the filtration
    key is read off the kernel's answer."""
    rows = []
    real = mtfan.stability._values

    def size(x):
        return len(enumerate_submodules(x))

    def counting(theta, dims):
        vals = real(theta, dims)
        rows.append(len(vals))
        return vals

    monkeypatch.setattr(mtfan.stability, "_values", counting)
    calls = count_calls(monkeypatch, mtfan.stability.evaluate)

    for module in (
        preset_module("square-lambda"),
        direct_sum(preset_module("a2-P1"), preset_module("a2-P1")),
    ):
        mtf = build_mtf_fan(module)
        samples = build_sample_set(mtf, bound=1)
        every = []
        for theta in samples:
            cs = canonical_sequences(theta, module)
            factors = supp_factors(theta, cs.w)
            expected = [
                size(module),
                size(cs.w),
                size(quotient_module(module, cs.tbar)),
                *(size(x) for x, _ in factors),
            ]
            every += expected
            rows.clear()
            calls.clear()
            mtfan.oracle.filtration_key(canonical_sequences(theta, module))
            assert (rows, calls["evaluate"]) == (expected, 0), theta
            rows.clear()
            assert verify_point(mtf, theta).ok
            assert (rows, calls["evaluate"]) == (expected, 0), theta
        rows.clear()
        assert verify_fan(mtf, samples).ok
        assert (rows, calls["evaluate"]) == (every, 0)


@given(st.one_of(preset_direct_sum(), random_kronecker_module()))
@seed(0x0FA7)
@settings(max_examples=20, deadline=None)
def test_verify_is_clean_on_random_modules(module):
    """The whole verify, on direct sums of presets and Kronecker modules:
    the oracle over the grid [-1, 1]^n and the cone witnesses, the
    dimension formula and the fan validator."""
    mtf = build_mtf_fan(module)
    for report in (
        verify_fan(mtf, build_sample_set(mtf, bound=1)),
        verify_dim_formula(mtf),
        validate_generalized_fan(mtf.fan),
    ):
        assert report.ok, report


def test_sample_set_builds_no_cone(monkeypatch):
    """Facet witnesses are ray sums of face keys, not relative-interior
    points of facet cones built by double description."""
    mtf = build_mtf_fan(preset_module("square-lambda"))
    real = mtfan.polyhedra.cone_from_hrep
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mtfan.polyhedra, "cone_from_hrep", counting)
    build_sample_set(mtf, bound=1)
    assert calls == []


def test_sample_set_is_deterministic_and_covers_all_cones():
    mtf = build_mtf_fan(preset_module("nakayama2-121"))
    a = build_sample_set(mtf, bound=2, seed=11)
    b = build_sample_set(mtf, bound=2, seed=11)
    assert a == b
    located = {verify_point(mtf, t).cone_index for t in a}
    assert located == set(range(len(mtf.cones)))


def test_oracle_containment_tests_do_not_grow_with_the_functionals(monkeypatch):
    """The order table decides each pair of distinct vertex spaces once per
    module, and each subquotient, built once per pass, checks once that its
    lower submodule lies in its upper one, so verify_fan on nakayama2-121
    at --grid-bound 16 (1,097 functionals) makes 44 in_span and 13
    submodule_contains calls, counted through every alias; scans that test
    every pair of submodules at each functional made 26,033 containment
    tests."""
    mtf = build_mtf_fan(preset_module("nakayama2-121"))
    samples = build_sample_set(mtf, bound=16)
    calls = count_calls(
        monkeypatch, mtfan.fplinalg.in_span, mtfan.quiver.submodule_contains
    )
    report = verify_fan(mtf, samples=samples)
    assert report.ok, report.failures
    assert len(samples) == 1097
    assert calls["in_span"] <= 50
    assert calls["submodule_contains"] <= 25


def test_oracle_presents_only_the_slices_and_the_stable_factors(monkeypatch):
    """The t-set, the semistable subobjects of w and the stable factors are
    read off the module's own lattice and order table, so `verify
    --grid-bound 1` on the Kronecker module R_4 enumerates 7 lattices, the
    build's included, and presents 26 subquotients; presenting every
    candidate submodule and quotient as a module of its own took 192
    lattices and 755 subquotients."""
    path = pathlib.Path(__file__).parent / "goldens" / "kronecker-R4.input.json"
    calls = count_calls(
        monkeypatch, mtfan.quiver.subquotient, mtfan.sublattice.enumerate_submodules
    )
    mtf = build_mtf_fan(module_from_doc(json.loads(path.read_text()))[1])
    report = verify_fan(mtf, build_sample_set(mtf, bound=1))
    assert report.ok, report.failures
    assert verify_dim_formula(mtf).ok
    assert calls["enumerate_submodules"] <= 10
    assert calls["subquotient"] <= 40


@pytest.mark.parametrize(
    "path", sorted(GOLDENS.glob("*.input.json")), ids=lambda p: p.name.split(".")[0]
)
def test_the_pass_matches_the_record_referee_on_the_golden_inputs(path):
    """verify_fan compares lattice indices and bit masks; the record pass
    compares Submodules and frozensets of them.  Both give the same report,
    checks and failures in order, on every golden input at grid bound 1."""
    mtf = build_mtf_fan(module_from_doc(json.loads(path.read_text()))[1])
    samples = build_sample_set(mtf, bound=1)
    report = verify_fan(mtf, samples)
    assert report.ok, report.failures
    assert report == verify_fan_by_records(mtf, samples)


def test_the_pass_matches_the_record_referee_at_a_thousand_functionals():
    mtf = build_mtf_fan(preset_module("nakayama2-121"))
    samples = build_sample_set(mtf, bound=16)
    report = verify_fan(mtf, samples)
    assert report.ok and report.checks == 1421
    assert report == verify_fan_by_records(mtf, samples)


@given(random_kronecker_module())
@seed(0x0F11)
@settings(max_examples=10, deadline=None)
def test_the_pass_matches_the_record_referee_on_random_modules(module):
    mtf = build_mtf_fan(module)
    samples = build_sample_set(mtf, bound=1)
    assert verify_fan(mtf, samples) == verify_fan_by_records(mtf, samples)


def test_the_pass_matches_the_record_referee_on_broken_fans():
    """Failing reports agree too: a2-P1 with the class data of two maximal
    cones traded, and with a wall that is another cone."""
    mtf = build_mtf_fan(preset_module("a2-P1"))
    classes = list(mtf.classes)
    classes[0], classes[1] = classes[1], classes[0]
    swapped = MTFFan(mtf.module, mtf.lattice, mtf.newton, mtf.fan, tuple(classes))
    walled = build_mtf_fan(preset_module("a2-P1"))
    vars(walled)["wall"] = walled.cones[0]
    for bad in (swapped, walled):
        samples = build_sample_set(bad, bound=2)
        report = verify_fan(bad, samples)
        assert report.failures
        assert report == verify_fan_by_records(bad, samples)


def test_the_pass_presents_each_slice_once(monkeypatch):
    """verify_fan presents each (t, tbar) slice, the lattices of w and f and
    w's stable factors once per pass, and builds each subquotient, lattice
    and order table once, in a table keyed by value that it drops on
    return; M's lattice is the one the fan was built from.  So on
    nakayama2-121 it builds as many subquotients, order tables and lattices
    at grid bound 4 (89 samples) as at 16 (1,097): 13, 5 and 5, and on
    square-lambda at grid bound 1 (96 samples) 52, 13 and 12.  Memos on
    subquotient and the order table took 25 and 10 requests for the builds
    on nakayama2-121, and a pass that asked the memos at every sample made
    2,261, 2,194 and 5,557 requests at 16."""
    calls = count_calls(
        monkeypatch,
        mtfan.quiver.subquotient,
        mtfan.stability._order,
        mtfan.sublattice.enumerate_submodules,
    )

    def builds(mtf, bound):
        samples = build_sample_set(mtf, bound=bound)
        calls.clear()
        assert verify_fan(mtf, samples).ok
        return [calls[name] for name in ("subquotient", "_order", "enumerate_submodules")]

    mtf = build_mtf_fan(preset_module("nakayama2-121"))
    assert builds(mtf, 4) == builds(mtf, 16) == [13, 5, 5]
    assert builds(build_mtf_fan(preset_module("square-lambda")), 1) == [52, 13, 12]


def test_a_verified_fan_frees_its_lattice_with_its_last_reference():
    """The fan holds its lattice and a pass holds its table only while it
    runs, so once the fan goes, so do the submodules its class data names."""
    mtf = build_mtf_fan(preset_module("square-lambda"))
    assert verify_fan(mtf, build_sample_set(mtf, bound=1)).ok
    ref = weakref.ref(mtf.classes[0].t)
    del mtf
    gc.collect()
    assert ref() is None
