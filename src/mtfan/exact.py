"""Exact linear algebra over the rationals and the integers.

Row echelon forms, nullspaces, primitive integer vectors and the Hermite
normal form of an integer lattice.  A rational subspace has one canonical
form, subspace_canonical: its RREF rows scaled primitive.  Vectors are
tuples of ints/Fractions; nothing here touches floating point, so every
predicate downstream stays exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def number(x):
    """x as an exact number: an int where it is integral, a Fraction
    otherwise."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def as_theta(theta, n):
    """theta as a tuple of n exact coordinates: an int where the coordinate
    is an integer, a Fraction otherwise.  Equal ints and Fractions hash
    alike, so memo keys do not depend on which form a caller passed."""
    t = tuple(number(x) for x in theta)
    if len(t) != n:
        raise ValueError(f"stability vector of length {len(t)}, expected {n}")
    return t


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def rref(rows):
    """Reduced row echelon form over Q.

    Returns (rows, pivot_columns) with zero rows dropped; the result is the
    unique canonical basis of the row space.
    """
    work = [[Fraction(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, n):
    """Basis of {x in Q^n : r.x = 0 for every row r}."""
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def primitive(vec):
    """Scale a rational vector to the primitive integer vector with the same
    direction (the zero vector stays zero)."""
    den = 1
    for x in vec:
        den = lcm(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return tuple(0 for _ in vec)
    return tuple(x // g for x in ints)


def subspace_canonical(rows):
    """Canonical integer basis of a rational subspace: RREF rows scaled
    primitive.  Equal subspaces give identical outputs."""
    red, _ = rref(rows)
    return tuple(primitive(r) for r in red)


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix, zero rows dropped.

    Pivots positive, entries above a pivot reduced into [0, pivot).  Canonical
    for the lattice generated by the rows.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    work = [list(r) for r in rows]
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if work[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(work[i][c]))
            if i0 != r:
                work[r], work[i0] = work[i0], work[r]
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            stable = True
            for i in range(r + 1, m):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        stable = False
            if stable:
                break
        if r < m and work[r][c] != 0:
            for i in range(r):
                q = work[i][c] // work[r][c]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
            r += 1
            if r == m:
                break
    return tuple(tuple(row) for row in work if any(row))
