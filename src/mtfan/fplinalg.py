"""Dense linear algebra over a prime field F_p.

Matrices are tuples of row tuples with entries in [0, p); a matrix with no
rows is (), and no kernel here takes a column count.
"""
from __future__ import annotations

from itertools import product


def rref_fp(rows, p):
    """Reduced row echelon form over F_p: the nonzero rows, each scaled so
    its first nonzero entry, its pivot, is 1."""
    work = [[x % p for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def reduce_vec(rrows, vec, p):
    """Residue of vec after elimination against an RREF basis.

    A row's pivot is its leading 1, as in every stored basis, each an
    rref_fp result."""
    v = [x % p for x in vec]
    for row in rrows:
        c = row.index(1)
        if v[c]:
            f = v[c]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


def in_span(rrows, vec, p):
    return not any(reduce_vec(rrows, vec, p))


def rref_join(rrows, vecs, p):
    """RREF rows of the span of an RREF basis and more vectors: the basis
    is row reduced with the vectors' residues against it, and when none
    survives the given rows come back unchanged (the same object)."""
    residues = tuple(
        r for r in (reduce_vec(rrows, v, p) for v in vecs) if any(r)
    )
    if not residues:
        return rrows
    return rref_fp(rrows + residues, p)


def mat_vec(rows, vec, p):
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in rows)


def all_vectors(dim, p):
    """All vectors of F_p^dim in lexicographic order."""
    return tuple(product(range(p), repeat=dim))


def projective_points(dim, p):
    """One vector per line of F_p^dim, in lexicographic order.

    These are the vectors whose first nonzero entry is 1; there are
    (p^dim - 1)/(p - 1) of them.
    """
    return tuple(
        (0,) * lead + (1,) + tail
        for lead in reversed(range(dim))
        for tail in all_vectors(dim - lead - 1, p)
    )
