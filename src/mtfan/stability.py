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
quotient f = M/tbar.  The t-set (the submodules L above t with L/t
semistable), w's semistable subobjects and stable factors come with them:
one kernel, _classify, computes them at a functional on lattice indices.

The submodules of L/K are the members between K and L of the module's own
lattice, so the scans (the torsion classes, the t-set, a chain of stable
factors) read one order table per module: for each member of the module's
lattice, a bit mask of the members strictly inside it.  A submodule is a
graded subspace, so the table compares the members one vertex at a time,
each pair of distinct spaces at a vertex once.  Each scan is its
definition read off the rows: a member is weak torsion when its row misses
the members valued above it, and a member above t is in the t-set when it
is valued theta(t) and its row misses the members above t valued higher.
On a semistable w the semistable subobjects are its nonzero members valued
0, so they need no scan.
Each lattice is valued once, one dot product a row.  Only w, f and the
stable factors are presented as modules, each checked on its own lattice;
semistability builds no order table.  Nothing is memoized: each lattice
(MTFFan.lattice, when the caller has it), order table and subquotient is
built once per table, a dict keyed by value that the caller keeps and drops.
"""
from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import NamedTuple

from .errors import InvariantError, ModuleDefinitionError
from .exact import as_theta, theta_str
from .fplinalg import in_span
from .quiver import Module, Submodule, subquotient
from .sublattice import enumerate_submodules


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


def _values(theta, dims):
    """theta, an as_theta vector, on each dimension vector: one dot product
    a row, with none of evaluate's checks."""
    return tuple([sum(map(mul, theta, d)) for d in dims])


def is_semistable(theta, module):
    """theta(X) = 0 and theta(L) <= 0 for every submodule L of X."""
    theta = as_theta(theta, module.algebra.n)
    vals = _values(theta, [s.dims for s in enumerate_submodules(module)])
    return evaluate(theta, module) == 0 and max(vals) <= 0


def _stable(vals):
    # theta on a lattice, from the zero submodule up to the module itself
    return vals[-1] == 0 and all(v < 0 for v in vals[1:-1])


def _order(module, subs):
    """The order table of subs, the module's lattice: below[i] is a bit mask
    of the members strictly inside member i, bit j for member j.

    L' <= L exactly when L'_u <= L_u at every vertex u, so at each vertex
    the members' distinct spaces are interned with a bit mask of the members
    having each, and in_span decides each pair of spaces once.  A row is the
    AND over the vertices of the masks of the spaces inside the member's,
    with the member's own bit cleared.
    """
    p = module.algebra.p
    below = [(1 << len(subs)) - 1] * len(subs)
    for u in range(module.algebra.n):
        spaces = {}
        for i, s in enumerate(subs):
            spaces.setdefault(s.bases[u], []).append(i)
        masks = {space: sum(1 << i for i in idx) for space, idx in spaces.items()}
        for rows, idx in spaces.items():
            inside = 0
            for inner, mask in masks.items():
                if all(in_span(rows, v, p) for v in inner):
                    inside |= mask
            for i in idx:
                below[i] &= inside
    return tuple(row ^ 1 << i for i, row in enumerate(below))


def _largest_member(members, below):
    """The member (an index) whose table row holds every other member.

    Some member contains all the others exactly when the sum of the members
    is a member, and then it is that sum, the one with the longest row.
    """
    i = max(members, key=lambda j: below[j].bit_count())
    inside = below[i] | 1 << i
    if not all(inside >> j & 1 for j in members):
        raise InvariantError("the sum of the members is not a member")
    return i


def _torsion_classes(below, vals):
    """The indices i with theta(L') < theta(L_i), and those with
    theta(L') <= theta(L_i), for all L' < L_i: the strict and the weak
    torsion members.

    Member i is weak torsion when its row misses every member valued above
    theta(L_i), and strict torsion when it also misses every member valued
    theta(L_i): two masks per distinct value, from the top value down.
    """
    at = {}
    for i, v in enumerate(vals):
        at[v] = at.get(v, 0) | 1 << i
    above, upto = {}, {}  # the members valued above v, and at least v
    members = 0
    for v in sorted(at, reverse=True):
        above[v] = members
        members |= at[v]
        upto[v] = members
    weak = {i for i, v in enumerate(vals) if not below[i] & above[v]}
    strict = {i for i in weak if not below[i] & upto[vals[i]]}
    return strict, weak


class CanonicalSequenceData(NamedTuple):
    """Canonical two-step filtration 0 <= t <= tbar <= M at a functional,
    the t-set it cuts, and the values it was read from: vals[i] is theta
    on member i of enumerate_submodules(M).  w_semis indexes the nonzero
    semistable subobjects of w in enumerate_submodules(w); supp sorts the
    dimension vectors of w's stable factors."""

    t: Submodule
    tbar: Submodule
    w: Module
    t_set: frozenset
    vals: tuple
    w_semis: frozenset
    supp: tuple


# _classify's answer: CanonicalSequenceData on indices of M's lattice, no w
_Classes = namedtuple("_Classes", "t tbar vals t_set w_semis supp")


def _members(module, table, subs=None):
    """The module's lattice (subs if given) and the members' classes."""
    if module not in table:
        subs = subs or enumerate_submodules(module)
        table[module] = subs, tuple(s.dims for s in subs)
    return table[module]


def _lattice(module, table, subs=None):
    """The module, its lattice, the members' classes and its order table."""
    if (module, _order) not in table:
        subs, dims = _members(module, table, subs)
        table[module, _order] = module, subs, dims, _order(module, subs)
    return table[module, _order]


def _present(module, lower, upper, table):
    """subquotient(module, lower, upper) and its lattice's classes."""
    key = module, lower, upper
    if key not in table:
        x = subquotient(module, lower, upper)
        table[key] = x, _members(x, table)[1]
    return table[key]


def _slice(module, subs, i, k, table):
    """What members i <= k give at every functional: _lattice(w) for
    w = L_k/L_i, the classes of the lattice of f = M/L_k (M is the last
    member), and whether L_i, w and f add up to M."""
    t, tbar = subs[i], subs[k]
    w = _present(module, t, tbar, table)[0]
    f, fdims = _present(module, tbar, subs[-1], table)
    adds = all(a + b + c == d for a, b, c, d in zip(t.dims, w.dims, f.dims, module.dims))
    return _lattice(w, table), fdims, adds


def canonical_sequences(theta, module):
    """Largest torsion and weak-torsion submodules with their slices.

    Returns CanonicalSequenceData with t <= tbar and w = tbar/t
    theta-semistable, after checking that f = M/tbar is theta-free and that
    the dimension vectors of t, w, f sum to the module's.  Its t_set is the
    t-set of theta, which lies between t and tbar.  One _classify call.
    """
    theta = as_theta(theta, module.algebra.n)
    table = {}
    lattice = _lattice(module, table)
    return _record(lattice, _classify(theta, lattice, table), table)


def _record(lattice, c, table):
    """The CanonicalSequenceData of _classify's answer c on lattice, table."""
    module, subs = lattice[:2]
    t, tbar = subs[c.t], subs[c.tbar]
    t_set = frozenset(s for j, s in enumerate(subs) if c.t_set >> j & 1)
    w = _present(module, t, tbar, table)[0]
    return CanonicalSequenceData(t, tbar, w, t_set, c.vals, c.w_semis, c.supp)


def _classify(theta, lattice, table, vals=None):
    """canonical_sequences of an as_theta functional on lattice =
    _lattice(M, table), as _Classes; vals, when given, are theta on M's
    lattice.  The table keeps each slice under its pair (t, tbar); a caller
    that keeps it presents each slice once."""
    module, subs, dims, below = lattice
    vals = _values(theta, dims) if vals is None else vals
    strict, weak = _torsion_classes(below, vals)
    i = _largest_member(strict, below)
    k = _largest_member(weak, below)
    inside = below[k] | 1 << k
    if not inside >> i & 1:
        raise InvariantError(f"t is not inside tbar at theta {theta_str(theta)}")
    s = table.get((i, k)) or table.setdefault((i, k), _slice(module, subs, i, k, table))
    wlattice, fdims, adds = s
    wvals = _values(theta, wlattice[2])
    if wvals[-1] != 0 or max(wvals) > 0:
        raise InvariantError(
            f"w = tbar/t is not semistable at theta {theta_str(theta)}"
        )
    if not adds:
        raise InvariantError("dimensions of t, w and f do not add up to M")
    # f lies in the free class: strictly negative on nonzero submodules
    if not all(v < 0 for v in _values(theta, fdims)[1:]):
        raise InvariantError(f"f = M/tbar is not free at theta {theta_str(theta)}")
    t_set = sum(1 << j for j in _semistable_above(below, vals, i))
    if not t_set >> i & t_set >> k & 1:
        raise InvariantError(
            f"t or tbar is missing from the t-set at {theta_str(theta)}"
        )
    if t_set & ~inside:
        raise InvariantError(f"a t-set member is not inside tbar at {theta_str(theta)}")
    w_semis, supp = _stable_factors(theta, wlattice, wvals, table)
    return _Classes(i, k, vals, t_set, w_semis, tuple(sorted([x.dims for x in supp])))


def _semistable_above(below, vals, i):
    """Indices j of the members L_j containing L_i with L_j/L_i semistable:
    theta(L_j) = theta(L_i), and theta is at most theta(L_i) on every member
    between them (the submodules of L_j/L_i).

    Of the members whose row holds i, j is kept when it is valued theta(L_i)
    and its row misses those valued above theta(L_i).
    """
    v = vals[i]
    up = [j for j, row in enumerate(below) if row >> i & 1]
    high = sum(1 << j for j in up if vals[j] > v)
    return {i} | {j for j in up if vals[j] == v and not below[j] & high}


def supp_factors(theta, module):
    """Stable composition factors of a theta-semistable module, as a tuple
    of (factor module, dimension vector); the dimension-vector multiset
    does not depend on the chain."""
    theta = as_theta(theta, module.algebra.n)
    table = {}
    lattice = _lattice(module, table)
    vals = _values(theta, lattice[2])
    if vals[-1] != 0 or max(vals) > 0:
        raise ModuleDefinitionError("supp factors need a semistable module")
    _, factors = _stable_factors(theta, lattice, vals, table)
    return tuple((x, x.dims) for x in factors)


def _stable_factors(theta, lattice, vals, table):
    """The nonzero semistable subobjects (indices) of a semistable module,
    where vals are theta on lattice = _lattice(module, table), and the
    factors of one maximal chain 0 = L_0 < ... < L_r = M through them (the
    zero-valued submodules), taken by total dimension so each L_{m+1}/L_m
    is stable: checked on its own lattice."""
    module, subs, _, below = lattice
    # on a semistable module theta is at most 0 everywhere, so every
    # zero-valued member is semistable
    semis = frozenset(j for j, v in enumerate(vals) if j and v == 0)
    chain = [0]  # the zero submodule
    for j in sorted(semis, key=lambda j: (subs[j].total_dim, j)):
        if below[j] >> chain[-1] & 1:
            chain.append(j)
    out = []
    for a, b in zip(chain, chain[1:]):
        x, dims = _present(module, subs[a], subs[b], table)
        if not _stable(_values(theta, dims)):
            raise InvariantError(
                f"a minimal semistable factor is not stable at {theta_str(theta)}"
            )
        out.append(x)
    return semis, out


def t_set(theta, module):
    """Submodules L with t <= L and L/t theta-semistable.

    This is the interval of the submodule lattice that the stability
    functional cannot distinguish; it determines the equivalence class of
    theta relative to the module.
    """
    return canonical_sequences(theta, module).t_set


def filtration_key(cs):
    """A functional's class by the filtration route, stored in its canonical
    sequences cs: t, tbar and the semistable subobjects of w.  Keys on one
    module are equal exactly when the functionals are equivalent; equal t
    and tbar give equal w, so the subobject indices are comparable."""
    return cs.t, cs.tbar, cs.w_semis


def m_tf_equivalent_by_filtration(theta, eta, module):
    """Independent route to the same equivalence: equal canonical
    filtrations and equal sets of semistable subobjects of the middle slice.

    It must agree with comparing the two functionals' t-sets.
    """
    ct = canonical_sequences(theta, module)
    ce = canonical_sequences(eta, module)
    return filtration_key(ct) == filtration_key(ce)
