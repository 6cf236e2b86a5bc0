"""Exact linear algebra over the rationals, in integer arithmetic.

Row echelon forms, nullspaces, primitive integer vectors and the Hermite
normal form of an integer lattice.  The kernels are fraction-free: a row
with Fraction entries is scaled to ints by the lcm of its denominators on
entry, elimination cross-multiplies, and every row, basis vector and
canonical form they return holds ints.  A Fraction appears only where a
caller passes one (number and as_theta keep a non-integral coordinate as
a Fraction).  A rational subspace is its rref rows, the RREF rows scaled
primitive, which are unique; a row's pivot is its first nonzero entry,
which is positive.  Nothing here touches floating point, so every
predicate downstream stays exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def number(x):
    """x as an exact number: an int where it is integral, a Fraction
    otherwise."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def as_theta(theta, n):
    """theta as a tuple of n exact coordinates: an int where the coordinate
    is an integer, a Fraction otherwise, so integral functionals are
    valued in integer arithmetic whichever form a caller passed."""
    t = tuple(number(x) for x in theta)
    if len(t) != n:
        raise ValueError(f"stability vector of length {len(t)}, expected {n}")
    return t


def theta_str(theta):
    """theta for messages: each coordinate as str, e.g. (1/2, -1)."""
    return "(" + ", ".join(map(str, theta)) + ")"


def dot(u, v):
    return sum(map(mul, u, v))


def _integer_row(row):
    """The row scaled to ints by the lcm of its denominators: an int row
    comes back as a list of the same ints."""
    if all(type(x) is int for x in row):
        return list(row)
    qs = [Fraction(x) for x in row]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs]


def _primitive_row(row):
    """An int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(rows):
    """Reduced row echelon form, fraction-free.

    Returns the rows with zero rows dropped: each row is the RREF row over Q
    scaled to a primitive integer vector with a positive pivot, its first
    nonzero entry, so equal row spaces give identical outputs.  Gauss-Jordan
    elimination by cross-multiplication, each updated row made primitive at
    once, keeps every entry an int.
    """
    work = [_integer_row(r) for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        row = _primitive_row(work[r])
        if row[c] < 0:
            row = [-x for x in row]
        work[r] = row
        pv = row[c]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = _primitive_row(
                    [pv * a - f * b for a, b in zip(work[i], row)]
                )
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def rank(rows):
    return len(rref(rows))


def nullspace(rows, n):
    """Basis of {x in Q^n : r.x = 0 for every row r}: one primitive integer
    vector per free column f, positive at f and zero at the other free
    columns."""
    red = rref(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in red]
    pivset = set(pivots)
    scale = lcm(*(row[p] for row, p in zip(red, pivots)))
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [0] * n
        v[f] = scale
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(primitive(v))
    return tuple(basis)


def primitive(vec):
    """Scale a rational vector to the primitive integer vector with the same
    direction (the zero vector stays zero)."""
    return tuple(_primitive_row(_integer_row(vec)))


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
