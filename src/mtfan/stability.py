"""Stability, torsion pairs and canonical filtrations for quiver modules.

A stability vector theta is a linear functional on dimension vectors.  A
module X is theta-semistable when theta(X) = 0 and theta(L) <= 0 for every
submodule L, and theta-stable when the inequality is strict for proper
nonzero L.  Four classes drive everything here, tested on submodules via
additivity of theta on short exact sequences:

  torsion:        theta(L') <  theta(L) for all proper submodules L' of L
  weak torsion:   theta(L') <= theta(L) for all submodules L' of L
  free:           theta(L') <  0 for all nonzero submodules L' of L
  weak free:      theta(L') <= 0 for all submodules L' of L

Each module has a largest torsion submodule t and a largest weak-torsion
submodule tbar; the canonical slices are w = tbar/t (semistable) and the
quotient f = M/tbar.

The scans that test containment (the torsion classes, the t-set's members
above t, the minimal semistable submodules of supp_factors) read one order
table per module: for each member of enumerate_submodules(module), the
indices of the members strictly inside it, each pair decided once by
submodule_contains.  A functional then only compares its values along the
table.  Semistability reads values alone, so it never builds a table.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InvariantError, ModuleDefinitionError
from .exact import as_theta
from .quiver import (
    Module,
    Submodule,
    quotient_module,
    submodule_as_module,
    submodule_contains,
    submodule_full,
    subquotient,
)
from .sublattice import LATTICE_CACHE_SIZE, enumerate_submodules

# canonical filtrations and t-sets memoized per (theta, module); a default
# `verify` on any preset reads at most 2,409 functionals (square-lambda), and
# on the `geometry` benchmark workload (seed 1) the t-set memo has 10,404
# hits for 96 misses
THETA_CACHE_SIZE = 4096
# order tables memoized per module, as many as the lattices they index: the
# module, its slices w and the quotients supp_factors splits them into.  A
# default `verify` builds at most 12 on a preset (square-lambda), 15 on the
# Kronecker module R_4 and 47 on sq+sq+S4; the `oracle` workload reads its 4
# tables 2,257 times
ORDER_CACHE_SIZE = LATTICE_CACHE_SIZE


def theta_str(theta):
    """theta for messages: each coordinate as str, e.g. (1/2, -1)."""
    return "(" + ", ".join(map(str, theta)) + ")"


def evaluate(theta, x):
    """theta applied to a dimension vector, Module or Submodule.

    theta must hold exact numbers (ints and Fractions), as as_theta returns;
    every caller in the package passes an as_theta vector.
    """
    if isinstance(x, (Module, Submodule)):
        x = x.dims
    if len(theta) != len(x):
        raise ValueError("length mismatch between theta and dimension vector")
    return sum(a * b for a, b in zip(theta, x))


def _sub_values(module, theta):
    subs = enumerate_submodules(module)
    return subs, [evaluate(theta, s) for s in subs]


def is_semistable(theta, module):
    """theta(X) = 0 and theta(L) <= 0 for every submodule L of X."""
    return _is_semistable(as_theta(theta, module.algebra.n), module)


def _is_semistable(theta, module):
    if evaluate(theta, module) != 0:
        return False
    return all(evaluate(theta, s) <= 0 for s in enumerate_submodules(module))


def is_stable(theta, module):
    """Semistable with theta(L) < 0 for every proper nonzero submodule."""
    if module.is_zero():
        raise ModuleDefinitionError("stability is undefined for the zero module")
    theta = as_theta(theta, module.algebra.n)
    if evaluate(theta, module) != 0:
        return False
    subs, vals = _sub_values(module, theta)
    full = submodule_full(module)
    for s, v in zip(subs, vals):
        if s.total_dim == 0 or s == full:
            continue
        if v >= 0:
            return False
    return True


@functools.lru_cache(maxsize=ORDER_CACHE_SIZE)
def _order(module):
    """below[i]: the indices of the members strictly inside member i of
    enumerate_submodules(module), as a frozenset.

    A submodule strictly inside L has a dimension vector at most L's in
    every coordinate and a smaller total, so only such pairs reach
    submodule_contains.
    """
    subs = enumerate_submodules(module)
    dims = [s.dims for s in subs]
    totals = [sum(d) for d in dims]

    def inside(i):
        return frozenset(
            j
            for j, inner in enumerate(subs)
            if totals[j] < totals[i]
            and all(a <= b for a, b in zip(dims[j], dims[i]))
            and submodule_contains(subs[i], inner)
        )

    return tuple(map(inside, range(len(subs))))


def _largest_member(members, below):
    """The member (an index) whose table row holds every other member.

    Some member contains all the others exactly when the sum of the members
    is a member, and then it is that sum.
    """
    for i in members:
        if len(below[i]) >= len(members) - 1 and members - below[i] == {i}:
            return i
    raise InvariantError("the sum of the members is not a member")


def _torsion_members(below, vals, strict):
    """Indices i with theta(L') < theta(L_i) (or <=) for all L' < L_i."""
    if strict:
        return {i for i, v in enumerate(vals) if all(vals[j] < v for j in below[i])}
    return {i for i, v in enumerate(vals) if all(vals[j] <= v for j in below[i])}


@dataclass(frozen=True)
class CanonicalSequenceData:
    """Canonical two-step filtration 0 <= t <= tbar <= M at a functional."""

    t: Submodule
    tbar: Submodule
    w: Module
    f: Module


def canonical_sequences(theta, module):
    """Largest torsion and weak-torsion submodules with their slices.

    Returns CanonicalSequenceData with t <= tbar, w = tbar/t theta-semistable
    and f = M/tbar theta-free; dimension vectors of t, w, f sum to the
    module's.
    """
    return _canonical_sequences(as_theta(theta, module.algebra.n), module)


@functools.lru_cache(maxsize=THETA_CACHE_SIZE)
def _canonical_sequences(theta, module):
    subs, vals = _sub_values(module, theta)
    below = _order(module)
    i = _largest_member(_torsion_members(below, vals, strict=True), below)
    k = _largest_member(_torsion_members(below, vals, strict=False), below)
    if i != k and i not in below[k]:
        raise InvariantError(f"t is not inside tbar at theta {theta_str(theta)}")
    t, tbar = subs[i], subs[k]
    w = subquotient(module, t, tbar)
    f = quotient_module(module, tbar)
    if not _is_semistable(theta, w):
        raise InvariantError(
            f"w = tbar/t is not semistable at theta {theta_str(theta)}"
        )
    if not all(
        a + b + c == d
        for a, b, c, d in zip(t.dims, w.dims, f.dims, module.dims)
    ):
        raise InvariantError("dimensions of t, w and f do not add up to M")
    # f lies in the free class: strictly negative on nonzero submodules
    fsubs, fvals = _sub_values(f, theta)
    if not all(v < 0 for s, v in zip(fsubs, fvals) if s.total_dim):
        raise InvariantError(f"f = M/tbar is not free at theta {theta_str(theta)}")
    return CanonicalSequenceData(t, tbar, w, f)


def supp_factors(theta, module):
    """Stable composition factors of a theta-semistable module.

    Splits off a minimal nonzero theta-semistable submodule (which is
    theta-stable), passes to the quotient and repeats.  Returns a tuple of
    (factor module, dimension vector); the dimension-vector multiset does
    not depend on the choices made.
    """
    theta = as_theta(theta, module.algebra.n)
    if not _is_semistable(theta, module):
        raise ModuleDefinitionError("supp factors need a semistable module")
    factors = []
    current = module
    while not current.is_zero():
        subs = enumerate_submodules(current)
        semis = {
            i
            for i, s in enumerate(subs)
            if s.total_dim
            and evaluate(theta, s) == 0
            and _is_semistable(theta, submodule_as_module(s))
        }
        below = _order(current)
        minimal = [subs[i] for i in semis if semis.isdisjoint(below[i])]
        chosen = min(minimal, key=Submodule.sort_key)
        factor = submodule_as_module(chosen)
        if not is_stable(theta, factor):
            raise InvariantError(
                "a minimal semistable factor is not stable at "
                f"{theta_str(theta)}"
            )
        factors.append((factor, factor.dims))
        current = quotient_module(current, chosen)
    return tuple(factors)


def t_set(theta, module):
    """Submodules L with t <= L and L/t theta-semistable.

    This is the interval of the submodule lattice that the stability
    functional cannot distinguish; it determines the equivalence class of
    theta relative to the module.
    """
    return _t_set(as_theta(theta, module.algebra.n), module)


@functools.lru_cache(maxsize=THETA_CACHE_SIZE)
def _t_set(theta, module):
    cs = _canonical_sequences(theta, module)
    subs = enumerate_submodules(module)
    below = _order(module)
    t, tbar = subs.index(cs.t), subs.index(cs.tbar)
    members = {
        i
        for i, L in enumerate(subs)
        if (i == t or t in below[i])
        and _is_semistable(theta, subquotient(module, cs.t, L))
    }
    if not (t in members and tbar in members):
        raise InvariantError(
            f"t or tbar is missing from the t-set at {theta_str(theta)}"
        )
    if members - below[tbar] != {tbar}:
        raise InvariantError(f"a t-set member is not inside tbar at {theta_str(theta)}")
    return frozenset(subs[i] for i in members)


def is_m_tf_equivalent(theta, eta, module):
    """Whether two functionals cut the same t-set on the module."""
    return t_set(theta, module) == t_set(eta, module)


def m_tf_equivalent_by_filtration(theta, eta, module):
    """Independent route to the same equivalence: equal canonical
    filtrations and equal sets of semistable subobjects of the middle slice.

    Used to cross-check is_m_tf_equivalent; the two must always agree.
    """
    theta = as_theta(theta, module.algebra.n)
    eta = as_theta(eta, module.algebra.n)
    ct = _canonical_sequences(theta, module)
    ce = _canonical_sequences(eta, module)
    if ct.t != ce.t or ct.tbar != ce.tbar:
        return False
    wsubs = enumerate_submodules(ct.w)

    def semis(vec):
        return frozenset(
            s
            for s in wsubs
            if evaluate(vec, s) == 0
            and _is_semistable(vec, submodule_as_module(s))
        )

    return semis(theta) == semis(eta)


def in_class_closure(theta, eta, module):
    """Whether theta lies in the closure of eta's equivalence class."""
    return t_set(eta, module) <= t_set(theta, module)


def wall_membership(theta, module):
    """Whether the module itself is theta-semistable (M nonzero)."""
    if module.is_zero():
        raise ModuleDefinitionError("wall membership needs a nonzero module")
    return is_semistable(theta, module)
