"""Exact rational linear algebra on plain Python lists.

Scalar convention used across the package: exact values are ``int`` or
``fractions.Fraction`` (arithmetic never rounds, comparisons are literal);
approximate values are ``float`` (comparisons take a caller-supplied
tolerance).  Mixing the two families in one container is not supported.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

DEFAULT_TOLERANCE = 1e-9

# 2^31 - 1: residues stay below 2^31, so a product of two fits in int64
CERTIFICATE_PRIME = 2_147_483_647


class VerificationError(Exception):
    """A computed result failed its own check: an internal fault, not bad
    input, so it is deliberately not a ValueError."""


def is_exact(value) -> bool:
    """True for int/Fraction scalars, False for floats."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def values_equal(a, b, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Literal equality for exact scalars, |a-b| <= tolerance otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= tolerance


def rref(matrix):
    """Reduced row echelon form over Fraction.

    Returns (rows, pivot_columns); the input is not modified.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(lead, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        pv = rows[lead][col]
        rows[lead] = [x / pv for x in rows[lead]]
        for r in range(len(rows)):
            if r != lead and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows, pivots


def matrix_rank_exact(matrix) -> int:
    return len(rref(matrix)[1])


def matrix_rank_float(matrix, tolerance: float) -> int:
    """Numerical rank: the number of singular values above ``tolerance``."""
    arr = np.asarray(matrix, dtype=float)
    if arr.size == 0:
        return 0
    return int(np.linalg.matrix_rank(arr, tol=tolerance))


def matrix_rank_mod_p(matrix) -> int:
    """Rank over GF(p), p = ``CERTIFICATE_PRIME``, of an integer matrix whose
    entries fit in int64.

    Reducing mod p can only lose rank, so the result is a lower bound on
    ``matrix_rank_exact``: full rank mod p proves full rank.  p is below
    2^31, so products of residues fit in int64.
    """
    p = CERTIFICATE_PRIME
    m = np.array(matrix, dtype=np.int64, ndmin=2) % p
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        nonzero = np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        row = m[rank, col:] * pow(int(m[rank, col]), -1, p) % p
        below = m[rank + 1:, col:]
        below -= np.outer(below[:, 0], row)
        below %= p
        rank += 1
        if rank == nrows:
            break
    return rank


def nullspace(matrix, ncols: int | None = None):
    """Basis of the right nullspace of an exact matrix, as Fraction vectors."""
    if not matrix:
        n = ncols or 0
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    n = ncols if ncols is not None else len(matrix[0])
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -rows[r][free]
        basis.append(vec)
    return basis


def mat_mult(a, b):
    nb = len(b)
    ncols = len(b[0]) if nb else 0
    return [
        [sum(row[k] * b[k][j] for k in range(nb)) for j in range(ncols)]
        for row in a
    ]
