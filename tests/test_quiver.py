"""Bound quiver algebras, modules, submodules and subquotients."""

import inspect

import pytest

import mtfan.quiver
from mtfan.errors import AlgebraDefinitionError, ModuleDefinitionError
from mtfan.quiver import (
    Submodule,
    _is_prime,
    build_algebra,
    build_module,
    direct_sum,
    generated_submodule,
    simple_module,
    submodule_contains,
    submodule_sum,
    subquotient,
)
from mtfan.presets import preset_module
from referee import (
    quotient_module,
    submodule_full,
    submodule_intersection,
    submodule_zero,
)


def a2_spec():
    return {
        "p": 2,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
    }


def nakayama_spec():
    return {
        "p": 2,
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "a", "from": "1", "to": "2"},
            {"name": "b", "from": "2", "to": "1"},
        ],
        "relations": [
            [{"coeff": 1, "path": ["a", "b", "a"]}],
            [{"coeff": 1, "path": ["b", "a", "b"]}],
        ],
    }


# ---------------------------------------------------------------------------
# algebra construction


def test_build_algebra_basic():
    A = build_algebra(a2_spec())
    assert A.n == 2
    assert A.p == 2
    assert A.arrows[0].source == 0 and A.arrows[0].target == 1


def test_build_algebra_rejects_bad_prime():
    for p in (0, 1, 4, 6, -3):
        spec = a2_spec()
        spec["p"] = p
        with pytest.raises(AlgebraDefinitionError):
            build_algebra(spec)


def test_build_algebra_rejects_primes_from_2_to_the_31():
    assert build_algebra({**a2_spec(), "p": 2**31 - 1}).p == 2**31 - 1
    for p in (2**31 + 11, 10**18 + 9):
        with pytest.raises(AlgebraDefinitionError, match="below 2\\^31"):
            build_algebra({**a2_spec(), "p": p})


def test_large_primes_are_rejected_before_trial_division(monkeypatch):
    def refuse(p):
        raise AssertionError("trial division ran")

    monkeypatch.setattr(mtfan.quiver, "_is_prime", refuse)
    with pytest.raises(AlgebraDefinitionError):
        build_algebra({**a2_spec(), "p": 2**61 - 1})


def test_build_algebra_rejects_duplicates():
    spec = a2_spec()
    spec["vertices"] = ["1", "1"]
    with pytest.raises(AlgebraDefinitionError):
        build_algebra(spec)
    spec = a2_spec()
    spec["arrows"].append({"name": "a", "from": "2", "to": "1"})
    with pytest.raises(AlgebraDefinitionError):
        build_algebra(spec)


def test_build_algebra_rejects_dangling_arrow():
    spec = a2_spec()
    spec["arrows"][0]["to"] = "3"
    with pytest.raises(AlgebraDefinitionError):
        build_algebra(spec)


def test_build_algebra_rejects_bad_relations():
    spec = nakayama_spec()
    spec["relations"][0] = [{"coeff": 1, "path": ["a", "a"]}]  # 2 -> 2 vs 1 -> 2
    with pytest.raises(AlgebraDefinitionError):
        build_algebra(spec)

    spec = nakayama_spec()
    spec["relations"][0] = [{"coeff": 1, "path": ["a"]}]  # too short
    with pytest.raises(AlgebraDefinitionError):
        build_algebra(spec)

    spec = nakayama_spec()
    # terms of one relation must share endpoints
    spec["relations"] = [
        [{"coeff": 1, "path": ["a", "b"]}, {"coeff": 1, "path": ["b", "a"]}]
    ]
    with pytest.raises(AlgebraDefinitionError):
        build_algebra(spec)

    spec = nakayama_spec()
    spec["relations"][0][0]["coeff"] = 2  # zero mod p
    with pytest.raises(AlgebraDefinitionError):
        build_algebra(spec)


# ---------------------------------------------------------------------------
# module construction


def test_build_module_by_label_and_by_sequence():
    A = build_algebra(a2_spec())
    m1 = build_module(A, {"1": 1, "2": 1}, {"a": [[1]]})
    m2 = build_module(A, (1, 1), ([[1]],))
    assert m1 == m2
    assert m1.total_dim == 2


def test_build_module_none_map_means_zero():
    A = build_algebra(a2_spec())
    m = build_module(A, (1, 1), {"a": None})
    assert m.maps[0] == ((0,),)


def test_build_module_reduces_entries_mod_p():
    A = build_algebra(a2_spec())
    m = build_module(A, (1, 1), {"a": [[3]]})
    assert m.maps[0] == ((1,),)


def test_build_module_rejects_bad_shape():
    A = build_algebra(a2_spec())
    with pytest.raises(ModuleDefinitionError):
        build_module(A, (1, 1), {"a": [[1], [0]]})
    with pytest.raises(ModuleDefinitionError):
        build_module(A, (2, 1), {"a": [[1]]})
    with pytest.raises(ModuleDefinitionError):
        build_module(A, (1, -1), {"a": [[1]]})


@pytest.mark.parametrize("dim", [1.9, True, "1"])
def test_build_module_rejects_a_dimension_that_is_not_an_int(dim):
    A = build_algebra(a2_spec())
    with pytest.raises(ModuleDefinitionError, match="dimension must be an integer"):
        build_module(A, (dim, 1), {"a": [[1]]})
    with pytest.raises(ModuleDefinitionError, match="dimension must be an integer"):
        build_module(A, {"1": dim, "2": 1}, {"a": [[1]]})


@pytest.mark.parametrize("entry", [1.5, 1.0, True])
def test_build_module_rejects_a_matrix_entry_that_is_not_an_int(entry):
    A = build_algebra(a2_spec())
    with pytest.raises(ModuleDefinitionError, match="matrix entry must be an integer"):
        build_module(A, (1, 1), {"a": [[entry]]})


@pytest.mark.parametrize("coeff", [1.9, True])
def test_build_algebra_rejects_a_coefficient_that_is_not_an_int(coeff):
    spec = {**nakayama_spec(), "relations": [[{"coeff": coeff, "path": ["a", "b"]}]]}
    with pytest.raises(AlgebraDefinitionError, match="coefficient must be an integer"):
        build_algebra(spec)


def test_build_module_enforces_relations():
    A = build_algebra(nakayama_spec())
    # aba acts as a nonzero map on this choice, so it is rejected
    with pytest.raises(ModuleDefinitionError, match="relation a\\*b\\*a is not"):
        build_module(
            A, {"1": 1, "2": 1}, {"a": [[1]], "b": [[1]]}
        )
    # the preset satisfies both relations: its maps build it again
    m = preset_module("nakayama2-121")
    assert build_module(A, m.dims, m.maps) == m


def square_lambda_spec(relation):
    """square-lambda's quiver over F_3 bound by one relation."""
    spec = {
        "p": 3,
        "vertices": ["1", "2", "3", "4"],
        "arrows": [
            {"name": "a", "from": "1", "to": "2"},
            {"name": "b", "from": "2", "to": "4"},
            {"name": "c", "from": "1", "to": "3"},
            {"name": "d", "from": "3", "to": "4"},
        ],
    }
    return {**spec, "relations": [relation]}


def test_a_two_term_relation_sums_its_terms_with_their_coefficients():
    """square-lambda's maps (a = b = c = 1, d = 2 over F_3) send the source
    line along ab to 1 and along cd to 2: they satisfy a*b + c*d, where the
    images sum to 3 = 0, and violate a*b + 2*c*d, where they sum to 5 = 2."""
    m = preset_module("square-lambda")
    commuting = build_algebra(
        square_lambda_spec(
            [{"coeff": 1, "path": ["a", "b"]}, {"coeff": 1, "path": ["c", "d"]}]
        )
    )
    assert build_module(commuting, m.dims, m.maps).maps == m.maps
    twisted = build_algebra(
        square_lambda_spec(
            [{"coeff": 1, "path": ["a", "b"]}, {"coeff": 2, "path": ["c", "d"]}]
        )
    )
    with pytest.raises(
        ModuleDefinitionError,
        match=r"^relation a\*b \+ c\*d is not satisfied by the maps$",
    ):
        build_module(twisted, m.dims, m.maps)


def test_simple_and_zero_modules():
    A = build_algebra(a2_spec())
    s1 = simple_module(A, 1)
    s2 = simple_module(A, 2)
    assert s1.dims == (1, 0) and s2.dims == (0, 1)
    z = build_module(A, (0,) * A.n, [None] * len(A.arrows))
    assert z.dims == (0, 0) and z.is_zero()
    assert not s1.is_zero()


def test_direct_sum_dims_and_blocks():
    m = preset_module("a2-P1")
    s = simple_module(m.algebra, 1)
    d = direct_sum(m, s)
    assert d.dims == (2, 1)
    # the arrow map keeps the first block and kills the added simple
    assert d.maps[0] == ((1, 0),)


# ---------------------------------------------------------------------------
# submodules


def test_generated_submodule_closure():
    m = preset_module("a2-P1")
    whole = generated_submodule(m, {0: [(1,)]})
    assert whole.dims == (1, 1)  # the image of a generates at vertex 2
    top = generated_submodule(m, {1: [(1,)]})
    assert top.dims == (0, 1)


def test_submodule_lattice_operations():
    m = preset_module("nakayama2-121")
    z = submodule_zero(m)
    full = submodule_full(m)
    assert submodule_contains(full, z)
    assert submodule_sum(z, full) == full
    assert submodule_intersection(z, full) == z
    soc = generated_submodule(m, {0: [(0, 1)]})
    assert soc.dims == (1, 0)
    mid = generated_submodule(m, {1: [(1,)]})
    assert mid.dims == (1, 1)
    assert submodule_contains(mid, soc)
    assert submodule_sum(soc, mid) == mid
    assert submodule_intersection(soc, mid) == soc


def test_cached_hashes_follow_equality():
    # equal but distinct instances hash equal
    m, twin = preset_module("nakayama2-121"), preset_module("nakayama2-121")
    assert m is not twin and m == twin
    assert hash(m) == hash(twin) == hash((m.algebra, m.dims, m.maps))
    soc = generated_submodule(m, {0: [(0, 1)]})
    soc_twin = generated_submodule(twin, {0: [(0, 1)]})
    assert soc is not soc_twin and soc == soc_twin
    assert hash(soc) == hash(soc_twin) == hash((m, soc.bases))
    # a submodule that differs only in its bases hashes as its own value,
    # whichever of the two is hashed first
    mid = generated_submodule(m, {1: [(1,)]})
    hash(mid)
    other = Submodule(m, soc.bases)
    assert other == soc and other != mid
    assert hash(other) == hash(soc) == hash((m, soc.bases))
    assert hash(Submodule(mid.module, soc.bases)) == hash(soc)
    assert {mid, other, soc} == {mid, soc}
    # a submodule is its module and bases, and repr names both
    fields = tuple(inspect.signature(Submodule).parameters)
    assert fields == ("module", "bases")
    assert repr(other) == f"Submodule(module={m!r}, bases={soc.bases!r})"


def test_subquotient_and_quotient():
    m = preset_module("nakayama2-121")
    soc = generated_submodule(m, {0: [(0, 1)]})
    mid = generated_submodule(m, {1: [(1,)]})
    w = subquotient(m, soc, mid)
    assert w.dims == (0, 1)
    q = quotient_module(m, soc)
    assert q.dims == (1, 1)
    again = subquotient(m, submodule_zero(m), mid)
    assert again.dims == (1, 1)


def test_equal_subquotients_are_equal_modules():
    """Nothing is memoized: equal submodules built separately give equal
    modules, each presented afresh."""
    m = preset_module("nakayama2-121")
    soc = generated_submodule(m, {0: [(0, 1)]})
    mid = generated_submodule(m, {1: [(1,)]})
    soc2 = generated_submodule(m, {0: [(0, 1)]})
    mid2 = generated_submodule(m, {1: [(1,)]})
    assert (soc2, mid2) == (soc, mid) and soc2 is not soc and mid2 is not mid
    again, w = subquotient(m, soc2, mid2), subquotient(m, soc, mid)
    assert again == w and again is not w


def test_subquotient_requires_containment():
    m = preset_module("nakayama2-121")
    soc = generated_submodule(m, {0: [(0, 1)]})
    top = generated_submodule(m, {0: [(1, 0)]})
    # the check raises on every call
    for _ in range(2):
        with pytest.raises(ModuleDefinitionError):
            subquotient(m, top, soc)
