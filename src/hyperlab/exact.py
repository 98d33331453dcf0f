"""Exact rational linear algebra.

Scalar convention used across the package, and owned by this module: a
scalar (``is_scalar``) is exact, an ``int`` or ``fractions.Fraction``
(arithmetic never rounds, comparisons are literal), or approximate, a
``float`` (comparisons take a caller-supplied tolerance).  Mixing the two
families in one container is not supported.  Every number read from input
goes through ``parse_number``, and every exact value a container stores
through ``exact_value``: an int when integral, so integer arithmetic never
builds a Fraction, and a Fraction otherwise.

``rref`` is certified modular elimination: it reduces the matrix, rows
scaled to integers, mod a prime p < 2^31 in int64, lifts each entry by
rational reconstruction (Wang 1981; Monagan, ISSAC 2004), and accepts the
lift only if the matrix exactly annihilates the nullspace basis the lifted
form gives.  Those n - rank_p vectors then lie in the nullspace, whose
dimension is at most n - rank_p (reduction mod p only loses rank), so they
span it; the lifted rows span its orthogonal complement, the row space, and
a reduced form of the row space is unique.  A failed lift or check falls
back to the fraction-free pass of ``integer_determinant`` (Bareiss 1968,
Math. Comp. 22) and integer back-substitution (Nakos et al. 1997, SIGSAM
Bull. 31), not to a second prime, whose lift bound is the same.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import numpy as np

DEFAULT_TOLERANCE = 1e-9

# 2^31 - 1: residues stay below 2^31, so a product of two fits in int64
CERTIFICATE_PRIME = 2_147_483_647
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


def parse_number(value) -> int | Fraction:
    """The exact value of an input number: numeric text, a JSON int or a
    finite JSON float (its exact binary value), as an int when integral and
    a Fraction otherwise.  Anything else raises ValueError: booleans,
    non-finite values, text that names no finite number, null, lists.

    Text whose decimal exponent has a magnitude over
    ``sys.get_int_max_str_digits()`` raises NumberTooLarge first:
    ``Fraction("1e999999999")`` would build a billion-digit power of ten."""
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        limit = sys.get_int_max_str_digits()
        if match and limit:
            digits = match[1].replace("_", "").lstrip("+-0")
            # compare lengths first: int() of more digits than the limit fails
            if len(digits) > len(str(limit)) or digits and int(digits) > limit:
                raise NumberTooLarge(f"{value[:40]!r}: decimal exponent over {limit}")
    # math.isfinite would overflow on a long int, so it sees only floats
    elif type(value) is not int and not (type(value) is float and math.isfinite(value)):
        raise ValueError(f"{value!r:.40} is not a finite number or numeric text")
    try:
        number = Fraction(value)
    except (ValueError, ZeroDivisionError):
        # only text gets here; Fraction's own message would echo all of it
        raise ValueError(f"{value[:40]!r} names no finite number") from None
    return exact_value(number)


def exact_value(value) -> int | Fraction:
    """The exact value to store for a scalar: an int when it is integral,
    else its exact Fraction (a float's exact binary value).  A bool or a
    non-scalar raises TypeError; a non-finite float raises as ``Fraction``
    does."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if not is_scalar(value):
            raise TypeError(f"{value!r:.40} is not an int, Fraction or float")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def is_scalar(value) -> bool:
    """True for the package's scalars: an int (not a bool), a float or a
    Fraction.  int and float are tested first: Fraction's metaclass is
    ABCMeta, so an isinstance test against it is slow for every other
    type."""
    if isinstance(value, (int, float)):
        return not isinstance(value, bool)
    return isinstance(value, Fraction)


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


def _echelon(rows: list, ncols: int) -> tuple:
    """Forward fraction-free elimination: each step moves the first row
    nonzero in the next column up, a shift of sign (-1)^i, and replaces each
    row below by its 2 x 2 minors with it over the previous pivot, exactly,
    as each entry is a minor of the permuted rows.  Returns the pivot rows,
    each from its pivot column on, those columns and the sign times the last
    pivot (1 if none), the determinant of square nonsingular rows."""
    m = [list(row) for row in rows]
    echelon, pivots, sign, previous = [], [], 1, 1
    for col in range(ncols):
        i = next((i for i, row in enumerate(m) if row[0]), None)
        if i is None:
            m = [row[1:] for row in m]
            continue
        sign *= (-1) ** i
        pivot, *rest = top = m.pop(i)
        m = [[(pivot * x - r[0] * y) // previous for x, y in zip(r[1:], rest)] for r in m]
        echelon.append(top)
        pivots.append(col)
        previous = pivot
    return echelon, pivots, sign * previous


def integer_determinant(matrix) -> int:
    """Determinant of a square integer matrix by ``_echelon``, 1 when 0 x 0."""
    _, pivots, det = _echelon(matrix, len(matrix))
    return det if len(pivots) == len(matrix) else 0


def _bareiss_rref(rows: list, ncols: int) -> tuple:
    """The nonzero reduced rows, as Fractions, and the pivot columns.  With
    E_i, p_i, c_i the pivot rows, pivots and columns of ``_echelon``, D its
    +-det B (B: the input's pivot rows P on the pivot columns), from the last
    up D R_i = (D E_i - sum_{j>i} E_i[c_j] D R_j) / p_i, exact as D R = +-adj(B) P."""
    echelon, pivots, delta = _echelon(rows, ncols)
    scaled = []  # D R_j of the later pivot rows, last first, each from c_j on
    for row, col in zip(reversed(echelon), reversed(pivots)):
        acc = [delta * x for x in row]
        for later, tail in zip(reversed(pivots), scaled):
            if f := row[later - col]:
                acc[later - col:] = [a - f * y for a, y in zip(acc[later - col:], tail)]
        scaled.append([a // row[0] for a in acc])
    return [[Fraction(0)] * col + [Fraction(x, delta) for x in tail]
            for col, tail in zip(pivots, reversed(scaled))], pivots


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
    residues = (ints % CERTIFICATE_PRIME).astype(np.int64)
    pivots, _ = echelon_mod_p(residues)
    reduced = _lift(residues[:len(pivots)], CERTIFICATE_PRIME)
    if reduced is None or exact_matmul(
            ints, integer_basis(_basis(reduced, pivots, ncols), ncols).T).any():
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


def blocks(count: int, entries: int, budget: int | None = None) -> list:
    """Consecutive slices of 0..count-1 of max(1, budget // entries) items
    each, the one block size of every blocked array check: ``entries``
    per item keep a block within ``budget`` entries, or to one item.  The
    budget is ``SLAB_ENTRIES`` as it reads at the call unless given."""
    size = max(1, (SLAB_ENTRIES if budget is None else budget) // max(1, entries))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


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
