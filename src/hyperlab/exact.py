"""Exact rational linear algebra.

Scalar convention used across the package: exact values are ``int`` or
``fractions.Fraction`` (arithmetic never rounds, comparisons are literal);
approximate values are ``float`` (comparisons take a caller-supplied
tolerance).  Mixing the two families in one container is not supported.

``rref`` is certified modular elimination: it reduces the matrix, rows
scaled to integers, mod a prime p < 2^31 in int64, lifts each entry by
rational reconstruction (Wang 1981; Monagan, ISSAC 2004), and accepts the
lift only if the matrix exactly annihilates the nullspace basis the lifted
form gives.  Those n - rank_p vectors then lie in the nullspace, whose
dimension is at most n - rank_p (reduction mod p only loses rank), so they
span it; the lifted rows span its orthogonal complement, the row space, and
a reduced form of the row space is unique.  A failed lift or check tries
the next prime, then fraction-free elimination (Bareiss 1968, Math. Comp.
22), exact by construction.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import numpy as np

DEFAULT_TOLERANCE = 1e-9

# 2^31 - 1 and the next prime below it: residues stay below 2^31, so a
# product of two fits in int64
CERTIFICATE_PRIME = 2_147_483_647
CERTIFICATE_PRIMES = (CERTIFICATE_PRIME, 2_147_483_629)
# an integer product runs in int64 only when inner length * max|a| * max|b|
# is below this, so no partial sum can overflow
INT64_PRODUCT_BOUND = 1 << 62


class VerificationError(Exception):
    """A computed result failed its own check: an internal fault, not bad
    input, so it is deliberately not a ValueError."""


class NumberTooLarge(ValueError):
    """Numeric text whose decimal exponent passes the interpreter's digit
    limit for int text."""


# the exponent of numeric text in the grammar ``Fraction`` reads
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def bounded_fraction(value) -> Fraction:
    """``Fraction(value)``, but text whose decimal exponent has a magnitude
    over ``sys.get_int_max_str_digits()`` raises NumberTooLarge first:
    ``Fraction("1e999999999")`` would build a billion-digit power of ten."""
    match = _EXPONENT.search(value) if isinstance(value, str) else None
    limit = sys.get_int_max_str_digits()
    if match and limit:
        digits = match[1].replace("_", "").lstrip("+-0")
        # compare lengths first: int() of more digits than the limit fails
        if len(digits) > len(str(limit)) or digits and int(digits) > limit:
            raise NumberTooLarge(f"{value[:40]!r}: decimal exponent over {limit}")
    return Fraction(value)


def is_exact(value) -> bool:
    """True for int/Fraction scalars, False for floats."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def integer_vector(values) -> list:
    """The exact vector times the lcm of its denominators, as ints."""
    if {*map(type, values)} <= {int}:
        return list(values)
    fractions = [x if type(x) is Fraction else Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in fractions))
    return [x.numerator * (scale // x.denominator) for x in fractions]


def integer_basis(vectors: list, n: int) -> np.ndarray:
    """The exact length-n vectors, each scaled to integers, as array rows:
    int64, or Python ints (dtype object) when an entry does not fit."""
    rows = [integer_vector(v) for v in vectors]
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), n)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), n)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for integer arrays, never wrapped: in int64 when inner length *
    max|a| * max|b| < 2^62 (``INT64_PRODUCT_BOUND``, checked with Python
    ints), in Python ints otherwise."""
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if a.shape[1] * int(np.abs(a).max()) * int(np.abs(b).max()) < INT64_PRODUCT_BOUND:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)


def echelon_mod_p(m: np.ndarray, p: int = CERTIFICATE_PRIME,
                  reduced: bool = True) -> tuple:
    """Row echelon form mod p of the int64 residue array ``m``, in place:
    pivot rows scaled to 1 and moved up in pivot order, each pivot column
    cleared below the pivot and, when ``reduced``, above it too.

    Returns the pivot columns and the input index of each pivot row; those
    input rows are independent mod p and span every row.
    """
    order = np.arange(m.shape[0])
    pivots = []
    for col in range(m.shape[1]):
        r = len(pivots)
        nonzero = m[:, col].nonzero()[0]
        k = nonzero.searchsorted(r)
        if k == nonzero.size:
            continue
        i = int(nonzero[k])
        if i != r:  # row r is zero in this column
            m[[r, i]] = m[[i, r]]
            order[[r, i]] = order[[i, r]]
        targets = nonzero[nonzero != i] if reduced else nonzero[k + 1:]
        m[r, col:] = m[r, col:] * pow(int(m[r, col]), -1, p) % p
        m[targets, col:] = (m[targets, col:] - m[targets, col, None] * m[r, col:]) % p
        pivots.append(col)
    return pivots, order[:len(pivots)]


def _lift(residues: np.ndarray, p: int):
    """Each residue u as the a/b = u mod p with |a|, b <= sqrt(p/2), from the
    extended Euclidean algorithm on (p, u) stopped at the first remainder
    within the bound (Wang 1981); None when one has no such lift."""
    bound, lifted = math.isqrt(p // 2), {}
    for u in set(residues.ravel().tolist()):
        r0, r1, s0, s1 = p, u, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound or math.gcd(r1, s1) != 1:
            return None
        lifted[u] = Fraction(r1, s1)
    return [[lifted[u] for u in row] for row in residues.tolist()]


def _bareiss_rref(rows: list, ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968): each division
    by the previous pivot is exact, so entries stay integers until the
    pivot rows are normalised at the end."""
    m = [list(row) for row in rows]
    pivots, previous = [], 1
    for col in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        pivot = m[r][col]
        for k in range(len(m)):
            if k != r:
                f = m[k][col]
                m[k] = [(pivot * x - f * y) // previous for x, y in zip(m[k], m[r])]
        previous = pivot
        pivots.append(col)
    return [[Fraction(x, m[r][c]) for x in m[r]] for r, c in enumerate(pivots)], pivots


def rref(matrix):
    """Reduced row echelon form over the rationals, certified as the module
    docstring describes.

    Returns (rows, pivot_columns): one row per input row, the zero rows
    last, every entry a Fraction; the input is not modified.
    """
    rows = [integer_vector(row) for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    ints = integer_basis(rows, ncols)
    for p in CERTIFICATE_PRIMES:
        residues = (ints % p).astype(np.int64)
        pivots, _ = echelon_mod_p(residues, p)
        reduced = _lift(residues[:len(pivots)], p)
        if reduced is not None and not exact_matmul(
                ints, integer_basis(_basis(reduced, pivots, ncols), ncols).T).any():
            break
    else:
        reduced, pivots = _bareiss_rref(rows, ncols)
    return reduced + [[Fraction(0)] * ncols for _ in rows[len(pivots):]], pivots


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
    entries fit in int64: a lower bound on ``matrix_rank_exact``, so full
    rank mod p proves full rank."""
    m = np.array(matrix, dtype=np.int64, ndmin=2) % CERTIFICATE_PRIME
    return len(echelon_mod_p(m, reduced=False)[0])


def _basis(rows: list, pivots: list, n: int) -> list:
    """The nullspace basis of a reduced form: one vector per free column,
    1 there and 0 at the other free columns."""
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, pcol in zip(rows, pivots):
            vec[pcol] = -row[free]
        basis.append(vec)
    return basis


def nullspace(matrix, ncols: int | None = None):
    """Basis of the right nullspace of an exact matrix, as Fraction vectors."""
    if not matrix:
        return _basis([], [], ncols or 0)
    return _basis(*rref(matrix), len(matrix[0]) if ncols is None else ncols)


# slabbed checks (float commutativity, centre and nucleus constraints) keep
# each array near this many entries (8 MB of float64)
SLAB_ENTRIES = 1 << 20


def certified_nullspace(slabs, dim: int) -> list:
    """``nullspace`` of every constraint row, the columns of the integer
    (dim, rows) arrays that ``slabs`` yields, as Fraction vectors.

    One pass, starting from the whole space as basis: each slab is checked
    exactly against the current basis.  The rows that fail go through a
    running reduced echelon mod p; those that add a pivot are kept (at most
    dim, independent) and the basis becomes the ``nullspace`` of the kept
    rows, checked again on the slab.  The basis only shrinks, so earlier
    slabs stay satisfied: at the end every row annihilates the basis, which
    spans the nullspace of some of the rows, so it is the ``nullspace`` of
    all of them.  Failing rows that add no pivot mod p (dependent on the
    kept rows mod p though not over Q) raise ``VerificationError``.
    """
    p = CERTIFICATE_PRIME
    echelon = np.zeros((0, dim), dtype=np.int64)
    kept, basis = [], nullspace([], dim)
    vectors = integer_basis(basis, dim)
    for slab in slabs:
        slab = slab[:, slab.any(axis=0)]
        while (failing := exact_matmul(vectors, slab).any(axis=0)).any():
            rows = slab[:, failing].T
            stacked = np.vstack([echelon, (rows % p).astype(np.int64)])
            pivots, order = echelon_mod_p(stacked, p)
            new = order[order >= len(echelon)] - len(echelon)
            if not new.size:
                raise VerificationError("failing constraint rows add no pivot mod p")
            kept.extend(rows[new].tolist())
            echelon = stacked[:len(pivots)]
            basis = nullspace(kept, dim)
            vectors = integer_basis(basis, dim)
    return basis
