"""Finitely generated abelian groups: Smith normal form and the derived
functor bookkeeping (Hom, Ext, tensor), plus cyclic-group homology and the
sphere homology / Euler characteristic lookup tables.

A group is stored in canonical form: free rank plus the invariant-factor
chain d1 | d2 | ... | ds with every di >= 2, so isomorphism testing is
plain equality.  The chain comes from gcd/lcm swaps (Z/a + Z/b is
Z/gcd(a, b) + Z/lcm(a, b)), never from factoring.  All matrix work uses
Python's arbitrary-precision ints.

``smith_normal_form`` certifies its answer exactly, by one of two routes
chosen from the input alone.  Both check that D is diagonal and that its
diagonal is a divisibility chain.

- M square with det M != 0: det M comes first, from forward-only
  fraction-free elimination (``exact.integer_determinant``) of the input
  M, not of U or V, whose entries can run to hundreds of digits.  No
  inverse is carried.  Then (U * M) * V = D and |d1 * ... * dn| = |det M|
  are checked.  det U * det M * det V = d1 * ... * dn, so |det U * det V|
  = 1 with both determinants integers, hence U and V are unimodular.
- Otherwise (M rectangular or singular, where det M says nothing about
  det U * det V): U^-1 and V^-1 are carried through the elementary
  operations applied to U and V, and U * U^-1 = I and V^-1 * V = I are
  checked.  All four are integer matrices, so det U * det U^-1 = 1 with
  both determinants integers, hence det U = +-1 and U is unimodular;
  likewise V.  Last, U * M = D * V^-1, which with V^-1 * V = I gives
  U * M * V = D.  D is diagonal, so the right side only scales rows of
  V^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import mul

from .exact import VerificationError, integer_determinant


class InfiniteGroup(ValueError):
    pass


def _invariant_factors(divisors) -> tuple:
    """The chain c1 | c2 | ... (each >= 2) of the direct sum of Z/d over the
    positive ``divisors``, with no factoring.

    Each Z/d is inserted from the top of the chain: Z/c + Z/d is
    Z/lcm(c, d) + Z/gcd(c, d), and the gcd moves down.  The chain is kept as
    ascending runs [value, count]; a value the moving divisor divides stays
    as it is, so each insertion costs one step per run, not per entry.
    """
    runs: list[list[int]] = []

    def add(k, value):  # one more entry of value, at run index k
        if k < len(runs) and runs[k][0] == value:
            runs[k][1] += 1
        else:
            runs.insert(k, [value, 1])

    for d in divisors:
        k = len(runs) - 1
        while d > 1 and k >= 0:
            c, count = runs[k]
            if c % d:
                g = gcd(c, d)
                if count == 1:
                    del runs[k]
                    add(k, c // g * d)
                else:
                    runs[k][1] -= 1
                    add(k + 1, c // g * d)
                d = g
            k -= 1
        if d > 1:
            add(0, d)
    return tuple(c for c, count in runs for _ in range(count))


@dataclass(frozen=True)
class FGAbelianGroup:
    """rank copies of Z plus the torsion chain d1 | d2 | ... | ds."""

    rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain broken: {a} does not divide {b}")

    @classmethod
    def from_divisors(cls, *divisors: int) -> "FGAbelianGroup":
        """Normalize an arbitrary direct sum of cyclic groups Z/d (d = 0
        meaning Z) into canonical form.

        >>> print(FGAbelianGroup.from_divisors(15))
        Z15
        >>> FGAbelianGroup.from_divisors(15) == FGAbelianGroup.from_divisors(3, 5)
        True
        >>> print(FGAbelianGroup.from_divisors(0, 30, 4))
        Z + Z2 + Z60
        """
        divisors = [abs(int(d)) for d in divisors]
        return cls(divisors.count(0), _invariant_factors(d for d in divisors if d))

    # -- basic structure ------------------------------------------------------

    def is_finite(self) -> bool:
        return self.rank == 0

    def order(self) -> int:
        if not self.is_finite():
            raise InfiniteGroup("group has free rank > 0")
        return prod(self.torsion) if self.torsion else 1

    def direct_sum(self, *others: "FGAbelianGroup") -> "FGAbelianGroup":
        divisors = [0] * self.rank + list(self.torsion)
        for g in others:
            divisors += [0] * g.rank + list(g.torsion)
        return FGAbelianGroup.from_divisors(*divisors)

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FGAbelianGroup":
        """Reads ``{"rank": r, "torsion": [d1, ...]}``: r a nonnegative int
        and the d_i ints, normalized as ``from_divisors`` does; anything
        else raises ValueError."""
        rank, torsion = data.get("rank"), data.get("torsion")
        if type(rank) is not int or rank < 0:
            raise ValueError(f"rank must be a nonnegative integer: {rank!r:.40}")
        if not isinstance(torsion, list) or any(type(d) is not int for d in torsion):
            raise ValueError("torsion must be a list of integers")
        finite = cls.from_divisors(*torsion)
        return cls(rank + finite.rank, finite.torsion)


TRIVIAL = FGAbelianGroup()
Z = FGAbelianGroup(rank=1)


def cyclic(n: int) -> FGAbelianGroup:
    return FGAbelianGroup.from_divisors(n)


# summands a parsed group may have: Hom, Ext and tensor of two such groups
# have up to MAX_SUMMANDS^2 of them
MAX_SUMMANDS = 100


def parse_group(text: str) -> FGAbelianGroup:
    """Parse compact names like 'Z28+Z2', 'Z^2+Z4', 'Z', '0'.  Exponents
    must be nonnegative and the summands at most ``MAX_SUMMANDS``, checked
    before any divisor list is built.

    >>> print(parse_group("Z^2+Z4"))
    Z + Z + Z4
    """
    text = text.strip()
    if text in ("0", "1", "trivial"):
        return TRIVIAL
    terms = []
    for part in text.replace(" ", "").split("+"):
        base, caret, power = part.partition("^")
        count = int(power) if caret else 1
        if count < 0:
            raise ValueError(f"negative exponent in group summand {part!r}")
        if base == "Z":
            terms.append((0, count))
        elif base.startswith("Z"):
            terms.append((int(base[1:]), count))
        else:
            raise ValueError(f"cannot parse group summand {part!r}")
    if sum(count for _, count in terms) > MAX_SUMMANDS:
        raise ValueError(f"at most {MAX_SUMMANDS} cyclic summands are accepted")
    return FGAbelianGroup.from_divisors(*(d for d, count in terms for _ in range(count)))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

# Rows and columns smith_normal_form accepts.  The transforms U and V grow
# with the size: a 40x40 matrix with entries in [-9, 9] gets entries of
# about 1200 digits and takes well under a second; at 60x60 they pass the
# 4300 digits Python will print.
SNF_MAX_DIM = 40


def _check_matrix(matrix) -> None:
    """Refuse, before any elimination, anything but a list of equal-length
    rows of ints (no bools) with at most ``SNF_MAX_DIM`` rows and columns."""
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ValueError("matrix must be a list of rows")
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("matrix rows must all have the same length")
    if len(matrix) > SNF_MAX_DIM or (matrix and len(matrix[0]) > SNF_MAX_DIM):
        raise ValueError(f"matrix is {len(matrix)}x{len(matrix[0])}; at most "
                         f"{SNF_MAX_DIM} rows and {SNF_MAX_DIM} columns are accepted")
    if any(isinstance(x, bool) or not isinstance(x, int) for row in matrix for x in row):
        raise ValueError("matrix entries must be integers")


def _identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """U * M * V = D with d1 | d2 | ... and U, V unimodular.

    Returns (factors, U, V, D); ``factors`` is the full diagonal of D
    including zeros.  The matrix is checked first (``_check_matrix``).  The
    result is certified before returning, by det M when M is square with
    det M != 0 (``_verify_snf_by_det``) and otherwise by U^-1 and V^-1,
    carried through the same elementary operations (``_verify_snf``).
    """
    _check_matrix(matrix)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    det = integer_determinant(matrix) if m == n else 0
    carry = det == 0  # only the inverse certificate reads U^-1 and V^-1
    a = [list(row) for row in matrix]
    u = _identity(m)
    u_inv_t = _identity(m)  # columns of U^-1
    v_t = _identity(n)  # columns of V
    v_inv = _identity(n)
    # the matrices whose rows move with the rows, or the columns, of M
    row_mats = (a, u, u_inv_t) if carry else (a, u)
    col_mats = (v_t, v_inv) if carry else (v_t,)

    # When carried, each operation on U or V is paired with its inverse on
    # U^-1 or V^-1: E U has inverse U^-1 E^-1, V E has inverse E^-1 V^-1.
    def row_op(i, j, k):  # row_i -= k * row_j
        a[i] = [x - k * y for x, y in zip(a[i], a[j])]
        u[i] = [x - k * y for x, y in zip(u[i], u[j])]
        if carry:
            u_inv_t[j] = [x + k * y for x, y in zip(u_inv_t[j], u_inv_t[i])]

    def col_op(i, j, k, rows):  # col_i -= k * col_j; rows: those with row[j] != 0
        for row in rows:
            row[i] -= k * row[j]
        v_t[i] = [x - k * y for x, y in zip(v_t[i], v_t[j])]
        if carry:
            v_inv[j] = [x + k * y for x, y in zip(v_inv[j], v_inv[i])]

    def swap_rows(i, j):
        for mat in row_mats:
            mat[i], mat[j] = mat[j], mat[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for mat in col_mats:
            mat[i], mat[j] = mat[j], mat[i]

    def negate_row(i):
        for mat in row_mats:
            mat[i] = [-x for x in mat[i]]

    t = 0
    while t < min(m, n):
        # find a pivot of least absolute value in the remaining block, the
        # first one in row-major order; nothing beats an entry of absolute value 1
        pivot, least = None, None
        for i in range(t, m):
            rest = a[i][t:]
            low = min(map(abs, filter(None, rest)), default=None)
            if low is not None and (least is None or low < least):
                least = low
                pivot = (i, t + next(j for j, x in enumerate(rest) if abs(x) == low))
                if low == 1:
                    break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        p = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // p)
                if a[i][t] != 0:
                    dirty = True
        # column operations leave column t alone, so the rows they touch are fixed
        rows = [row for row in a if row[t]]
        for j in range(t + 1, n):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // p, rows)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # force divisibility: a[t][t] must divide every later entry
        if p != 1:
            offender = next(
                (i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1:])), None
            )
            if offender is not None:
                row_op(t, offender, -1)  # adds the offending row, creating smaller remainders
                continue
        t += 1

    factors = [a[i][i] for i in range(min(m, n))]
    v = [list(row) for row in zip(*v_t)]
    if carry:
        u_inv = [list(row) for row in zip(*u_inv_t)]
        _verify_snf(matrix, factors, u, u_inv, v, v_inv, a)
    else:
        _verify_snf_by_det(matrix, det, factors, u, v, a)
    return factors, u, v, a


def _is_identity(rows, cols) -> bool:
    """rows * cols == I, where ``cols`` holds the columns of the right factor."""
    return all(
        sum(map(mul, row, col)) == (i == j)
        for i, row in enumerate(rows)
        for j, col in enumerate(cols)
    )


def _verify_diagonal(matrix, factors, d) -> None:
    """D is diagonal, ``factors`` is its diagonal, and the factors form a
    divisibility chain with any zeros last."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(d[i][j] != 0 for i in range(m) for j in range(n) if i != j):
        raise VerificationError("D not diagonal")
    if factors != [d[i][i] for i in range(min(m, n))]:
        raise VerificationError("factors are not the diagonal of D")
    for x, y in zip(factors, factors[1:]):
        if x != 0 and y % x != 0:
            raise VerificationError("divisibility chain broken")
        if x == 0 and y != 0:
            raise VerificationError("zero factor precedes nonzero")


def _product(left, right):
    """left * right for integer matrices given as lists of rows."""
    columns = [list(col) for col in zip(*right)]
    return [[sum(map(mul, row, col)) for col in columns] for row in left]


def _verify_snf_by_det(matrix, det, factors, u, v, d) -> None:
    """Certify U * M * V = D for a square M with ``det`` = det M != 0: D is
    diagonal with a divisibility chain, (U * M) * V = D, and |prod d_i| =
    |det M| (see the module docstring)."""
    _verify_diagonal(matrix, factors, d)
    if _product(_product(u, matrix), v) != d:
        raise VerificationError("U*M*V does not equal D")
    if abs(prod(factors)) != abs(det):
        raise VerificationError("product of the factors is not +-det M")


def _verify_snf(matrix, factors, u, u_inv, v, v_inv, d) -> None:
    """Certify U * M * V = D with U, V unimodular, D diagonal and the
    factors a divisibility chain, from U * M = D * V^-1, U * U^-1 = I and
    V^-1 * V = I (see the module docstring)."""
    _verify_diagonal(matrix, factors, d)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    um = _product(u, matrix)
    # D is diagonal, so D * V^-1 scales row i of V^-1 by d_i
    dv = [[f * x for x in row] for f, row in zip(factors, v_inv)]
    dv += [[0] * n] * (m - len(dv))
    if um != dv:
        raise VerificationError("U*M does not equal D*V^-1")
    if not _is_identity(u, [list(col) for col in zip(*u_inv)]):
        raise VerificationError("U*U^-1 is not the identity")
    if not _is_identity(v_inv, [list(col) for col in zip(*v)]):
        raise VerificationError("V^-1*V is not the identity")


def decompose(presentation) -> FGAbelianGroup:
    """Cokernel of a presentation: rows are relations among the column
    generators, so the group is Z^cols modulo the row span.  The matrix
    rules are ``smith_normal_form``'s."""
    factors, *_ = smith_normal_form(presentation)
    ncols = len(presentation[0]) if presentation else 0
    nonzero = [f for f in factors if f != 0]
    rank = ncols - len(nonzero)
    return FGAbelianGroup.from_divisors(*([0] * rank), *nonzero)


def iso_check(g: FGAbelianGroup, h: FGAbelianGroup) -> bool:
    """Canonical forms are unique, so isomorphism is equality."""
    return g == h


# ---------------------------------------------------------------------------
# Hom, Ext, tensor
# ---------------------------------------------------------------------------

def _cyclic_blocks(g: FGAbelianGroup) -> list[int]:
    """0 stands for Z; positive entries are finite cyclic orders."""
    return [0] * g.rank + list(g.torsion)


def _pairwise(g: FGAbelianGroup, h: FGAbelianGroup, rule) -> FGAbelianGroup:
    """The direct sum of Z/rule(a, b) over the pairs of a cyclic block a of
    g and b of h, a value of 0 meaning Z and 1 the trivial group: Hom, Ext
    and tensor are additive in both arguments, so each is this sum for its
    rule on cyclic groups."""
    blocks = _cyclic_blocks(h)
    return FGAbelianGroup.from_divisors(
        *(rule(a, b) for a in _cyclic_blocks(g) for b in blocks))


def hom(g: FGAbelianGroup, h: FGAbelianGroup) -> FGAbelianGroup:
    """Hom(Zm, Zn) = Z_gcd, Hom(Z, G) = G, Hom(Zm, Z) = 0; additive.

    >>> print(hom(cyclic(28), cyclic(2)))
    Z2
    >>> print(hom(cyclic(10), Z))
    0
    """
    return _pairwise(g, h, lambda a, b: 1 if a and not b else gcd(a, b))


def ext(g: FGAbelianGroup, h: FGAbelianGroup) -> FGAbelianGroup:
    """Ext(Z, G) = 0, Ext(Zm, Z) = Zm, Ext(Zm, Zn) = Z_gcd; additive.

    Equivalently Ext(Zm, H) = H/mH from the length-one free resolution of
    Zm (multiplication by m followed by the quotient map).

    >>> print(ext(cyclic(28), cyclic(2)))
    Z2
    >>> print(ext(Z, cyclic(7)))
    0
    >>> print(ext(cyclic(12), cyclic(18)))
    Z6
    """
    return _pairwise(g, h, lambda a, b: gcd(a, b) if a else 1)


def tensor(g: FGAbelianGroup, h: FGAbelianGroup) -> FGAbelianGroup:
    """Zm (x) Zn = Z_gcd, Z (x) G = G; additive."""
    return _pairwise(g, h, gcd)


# ---------------------------------------------------------------------------
# homology lookups
# ---------------------------------------------------------------------------

def cyclic_homology(order: int, degree: int) -> FGAbelianGroup:
    """Integral homology of the cyclic group of the given order:
    Z in degree 0, Z/order in odd degrees, trivial in positive even ones."""
    if order < 1 or degree < 0:
        raise ValueError("order >= 1 and degree >= 0 required")
    if degree == 0:
        return Z
    if degree % 2 == 1:
        return cyclic(order)
    return TRIVIAL


def sphere_homology(n: int, p: int) -> FGAbelianGroup:
    """Integral homology of the n-sphere; Z + Z in degree 0 when n = 0."""
    if n < 0 or p < 0:
        raise ValueError("n >= 0 and p >= 0 required")
    if n == 0:
        return FGAbelianGroup(rank=2) if p == 0 else TRIVIAL
    return Z if p in (0, n) else TRIVIAL


def euler_characteristic(n: int) -> int:
    """1 + (-1)^n: zero for odd n, two for even n."""
    if n < 0:
        raise ValueError("n >= 0 required")
    return 1 + (-1) ** n


# ---------------------------------------------------------------------------
# extension counting
# ---------------------------------------------------------------------------

def aut_is_trivial(g: FGAbelianGroup) -> bool:
    """Only the trivial group and Z2 have trivial automorphism groups:
    anything with an element of order > 2 admits negation, and (Z2)^k for
    k >= 2 admits coordinate swaps."""
    if not g.is_finite():
        return False
    return g.order() <= 2


@dataclass
class ExtensionReport:
    base: FGAbelianGroup
    fiber: FGAbelianGroup
    ext_group: FGAbelianGroup
    ext_order: int
    aut_fiber_trivial: bool
    direct_sum_order: int | None

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "fiber": self.fiber.to_json_dict(),
            "ext_group": self.ext_group.to_json_dict(),
            "ext_order": self.ext_order,
            "aut_fiber_trivial": self.aut_fiber_trivial,
            "direct_sum_order": self.direct_sum_order,
        }


def extension_count(base: FGAbelianGroup, fiber: FGAbelianGroup) -> ExtensionReport:
    """|Ext(base, fiber)| for finite groups; when the fiber has no
    nontrivial automorphisms the total order is forced to
    |base| * |fiber|."""
    if not base.is_finite() or not fiber.is_finite():
        raise InfiniteGroup("extension counting needs finite base and fiber")
    e = ext(base, fiber)
    trivial_aut = aut_is_trivial(fiber)
    return ExtensionReport(
        base=base,
        fiber=fiber,
        ext_group=e,
        ext_order=e.order(),
        aut_fiber_trivial=trivial_aut,
        direct_sum_order=base.order() * fiber.order() if trivial_aut else None,
    )
