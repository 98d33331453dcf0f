"""Cayley-Dickson doubling algebras over exact rationals (or floats).

The level-r algebra lives on coefficient vectors of length 2**r indexed by
basis units e_0 ... e_{2^r - 1}, with e_0 the two-sided unit.  The product
doubles the level-(r-1) product:

    (a1, a2)(b1, b2) = (a1*b1 - conj(b2)*a2,  b2*a1 + a2*conj(b1))

where an element splits into first/second coefficient halves and
conj(a) = (conj(a1), -a2).  Levels 0..4 are the reals, complexes,
quaternions, octonions and sedenions; zero divisors first appear at
level 4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .exact import (
    CERTIFICATE_PRIME,
    DEFAULT_TOLERANCE,
    INT64_PRODUCT_BOUND,
    SLAB_ENTRIES,
    VerificationError,
    integer_vector,
    is_exact,
    is_scalar,
    matrix_rank_exact,
    matrix_rank_float,
    matrix_rank_mod_p,
    parse_number,
)

DEFAULT_MAX_LEVEL = 8

# the dense gamma array has dim^3 entries: 27.6 MB of JSON at level 7 and
# 219 MB, with 1.5 GB of peak memory to encode it, at level 8
DENSE_MAX_LEVEL = 7

# cd_multiply runs int products as int64 matvecs from this level on; below
# it structure_multiply is faster than numpy's per-call overhead
VECTOR_MIN_LEVEL = 4


class LevelMismatch(ValueError):
    """Operands live at different doubling levels."""


class AlgebraMismatch(ValueError):
    """Operands or samples belong to different algebras."""


class LevelTooLarge(ValueError):
    """Requested level exceeds the configured cap."""


class NormZero(ZeroDivisionError):
    """Quadratic inverse of an element with vanishing norm."""


class InvalidConjugation(ValueError):
    """Doubling seed violates the conjugation axioms."""


def check_level(r) -> None:
    """The one level rule: an int in 0..DEFAULT_MAX_LEVEL; a huge r never builds 2 ** r."""
    if type(r) is not int or r < 0:
        raise LevelTooLarge(f"level must be an integer in 0..{DEFAULT_MAX_LEVEL}: {r!r:.40}")
    if r > DEFAULT_MAX_LEVEL:
        dim = 2 ** r if r < 64 else f"2^{r}"
        raise LevelTooLarge(f"level {r} exceeds cap {DEFAULT_MAX_LEVEL} (dim {dim})")


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicationTable:
    """Structure constants of the level-r algebra.

    Each basis product is e_p e_q = sign[p][q] * e_{p XOR q} with sign
    +-1, so the sign table is the whole table: the full gamma^k_{pq} array
    has one nonzero entry per (p, q), at k = p ^ q.  Row and column 0 act
    as the identity.  The forms the products read are built on first use.
    """

    level: int
    sign: tuple

    @property
    def dim(self) -> int:
        return 1 << self.level

    def product(self, p: int, q: int) -> tuple[int, int]:
        """(k, s) with e_p e_q = s * e_k."""
        return p ^ q, self.sign[p][q]

    @cached_property
    def products(self):
        """The sparse table ``structure_multiply`` reads: products[p][q] is
        ((p ^ q, sign[p][q]),), one shared tuple per index and sign."""
        units = {s: [((k, s),) for k in range(self.dim)] for s in (1, -1)}
        return [[units[s][p ^ q] for q, s in enumerate(row)]
                for p, row in enumerate(self.sign)]

    @cached_property
    def signs(self) -> np.ndarray:
        """The sign table as an int64 array."""
        return np.array(self.sign, dtype=np.int64)

    @cached_property
    def _gather(self):
        """cols[k][j] = k ^ j, and per side the sign of the e_k term of
        a_{k^j} in a e_j ("left": sign[k^j][j]) or e_j a ("right")."""
        j = np.arange(self.dim)
        cols = j[:, None] ^ j
        return cols, {"left": self.signs[cols, j], "right": self.signs[j, cols]}

    def operator(self, coeffs, side: str = "left"):
        """Matrices of x -> a x ("left") or x -> x a ("right") for the
        coefficient array ``coeffs`` (any leading axes and dtype): entry
        [..., k, j] is a_{k^j} times the side's sign, one XOR gather."""
        cols, signs = self._gather
        return coeffs.take(cols, axis=-1) * signs[side]

    def dense_gamma(self):
        """gamma[p][q][k], the e_k coefficient of e_p e_q, as nested lists;
        refused above ``DENSE_MAX_LEVEL`` before any list is built."""
        if self.level > DENSE_MAX_LEVEL:
            raise LevelTooLarge(f"dense gamma capped at level {DENSE_MAX_LEVEL}, "
                                f"got {self.level}")
        n = self.dim
        out = [[[0] * n for _ in range(n)] for _ in range(n)]
        for p in range(n):
            for q in range(n):
                out[p][q][p ^ q] = self.sign[p][q]
        return out

    def to_json_dict(self) -> dict:
        return {"kind": "cayley_dickson", "level": self.level}


@lru_cache(maxsize=None)
def _table(r: int) -> MultiplicationTable:
    """The one cached level-r table, any r >= 0 (unchecked).

    The doubling formula sends the product of two basis units to +-e_{p ^ q}
    at every level, so only the signs need the recursion; conj(e_k) = -e_k
    except for k = 0."""
    if r == 0:
        return MultiplicationTable(level=0, sign=((1,),))
    prev = _table(r - 1).sign
    h = len(prev)
    conj = (1,) + (-1,) * (h - 1)
    # e_p e_q for p < h: q < h keeps the level-(r-1) sign, q = h + qq is
    # e_qq e_p in the second half
    top = [row + tuple(prev[qq][p] for qq in range(h)) for p, row in enumerate(prev)]
    # p = h + pp: e_pp conj(e_q) for q < h, -conj(e_qq) e_pp for q = h + qq
    bottom = [tuple(conj[q] * prev[pp][q] for q in range(h))
              + tuple(-conj[qq] * prev[qq][pp] for qq in range(h)) for pp in range(h)]
    return MultiplicationTable(level=r, sign=tuple(top + bottom))


def structure_constants(r: int) -> MultiplicationTable:
    """Full multiplication table at level r (at most ``DEFAULT_MAX_LEVEL``),
    generated by the doubling recursion; one cached instance per level."""
    check_level(r)
    return _table(r)


def dimensions_agree(mult, vectors) -> bool:
    """True when ``mult`` is an n x n table of length-n vectors, n =
    len(mult), and each of ``vectors`` has length n."""
    n = len(mult)
    return all(len(vec) == n for vec in vectors) and all(
        len(row) == n and all(len(vec) == n for vec in row) for row in mult)


def sparse_products(mult):
    """Sparse form of a dense table: ``products[p][q]`` is the tuple of
    nonzero ``(k, coefficient)`` pairs of the basis product b_p b_q."""
    return [
        [tuple((k, g) for k, g in enumerate(vec) if g != 0) for vec in row]
        for row in mult
    ]


def structure_multiply(products, x, y, out):
    """Add the product x y to ``out`` and return it, driven by the sparse
    structure constants ``products`` (see ``sparse_products``).

    The one product kernel of every finite algebra.  It needs only +, *
    and != 0 of the coefficients, so polynomial entries work as well as
    Fractions.
    """
    y_terms = [(q, cy) for q, cy in enumerate(y) if cy != 0]
    for p, cx in enumerate(x):
        if cx == 0:
            continue
        row = products[p]
        for q, cy in y_terms:
            c = cx * cy
            for k, g in row[q]:
                out[k] = out[k] + c * g
    return out


def structure_multiply_rows(level: int, x, y):
    """Row-wise products x[n] y[n] of two (rows, 2^level) float arrays,
    bit for bit the floats ``structure_multiply`` gives for the same rows
    as lists of Python floats, a coefficient that no term reaches being
    +0.0 here and the int 0 there.

    For fixed k, q = p ^ k, so ``structure_multiply`` gives coefficient k
    the sum of x_p y_{p^k} sign[p][p^k] over the p with both factors
    nonzero, added in ascending p to the int 0.  Here each term is one
    elementwise product (read through the ``_gather`` of the table: its
    ``cols`` is p ^ k and its "right" signs transposed are sign[p][p^k]),
    a term with a zero factor is +0.0, and the sum is one in-place add per
    p onto +0.0: never matmul or a reduction, whose order of summation is
    unspecified.  A sum that starts at +0.0 is never -0.0 in round to
    nearest, so adding +0.0 changes it nowhere, and 0 * inf, which would be
    NaN, never forms.  For the same reason only the p with x_p nonzero in
    some row take part, so sparse rows cost little.  Rows run in blocks
    whose terms hold at most ``SLAB_ENTRIES`` entries.
    """
    cols, signs = _table(level)._gather
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rows, dim = x.shape
    active = np.flatnonzero((x != 0).any(axis=0))
    x = x[:, active]
    # [i, k] = p_i ^ k and sign[p_i][p_i ^ k] for the active p_i
    cols = cols[active]
    sign = signs["right"].T[active]
    out = np.zeros((rows, dim))
    block = max(1, SLAB_ENTRIES // max(1, len(active) * dim))
    # overflow and inf - inf are quiet in Python float arithmetic too
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, rows, block):
            xb = x[lo:lo + block]
            yk = y[lo:lo + block].take(cols, axis=-1)
            both = (xb != 0)[:, :, None] & (yk != 0)
            yk *= sign
            terms = np.multiply(xb[:, :, None], yk, out=np.zeros_like(yk), where=both)
            acc = out[lo:lo + block]
            for i in range(len(active)):
                acc += terms[:, i]
    return out


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _element(level: int, coeffs: list) -> "CDElement":
    """Wrap coefficients that arithmetic built from already validated ones,
    skipping the per-coefficient check of the public constructor."""
    el = object.__new__(CDElement)
    el.level = level
    el.coeffs = coeffs
    return el


class CDElement:
    """A number in the level-r doubling algebra, as a coefficient vector.

    Exact elements carry int/Fraction coefficients and compare literally;
    float-valued elements compare through ``isclose``.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not is_scalar(c):
                raise TypeError(f"unsupported coefficient {c!r}")
        if len(coeffs) != 1 << level:
            raise ValueError(
                f"level {level} needs {1 << level} coefficients, got {len(coeffs)}"
            )
        self.level = level
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "CDElement":
        return cls(level, [0] * (1 << level))

    @classmethod
    def one(cls, level: int) -> "CDElement":
        coeffs = [0] * (1 << level)
        coeffs[0] = 1
        return cls(level, coeffs)

    @classmethod
    def basis(cls, level: int, k: int, scale=1) -> "CDElement":
        coeffs = [0] * (1 << level)
        coeffs[k] = scale
        return cls(level, coeffs)

    # -- structure -----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _require_same_level(self, other: "CDElement") -> None:
        if self.level != other.level:
            raise LevelMismatch(f"levels differ: {self.level} vs {other.level}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CDElement):
            return NotImplemented
        self._require_same_level(other)
        return _element(self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, CDElement):
            return NotImplemented
        self._require_same_level(other)
        return _element(self.level, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return _element(self.level, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, CDElement):
            return cd_multiply(self, other)
        if is_scalar(other):
            return _element(self.level, [a * other for a in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if is_scalar(other):
            return _element(self.level, [other * a for a in self.coeffs])
        return NotImplemented

    def __truediv__(self, scalar):
        if is_scalar(scalar):
            if is_exact(scalar):
                return _element(self.level, [Fraction(a) / scalar for a in self.coeffs])
            return _element(self.level, [a / scalar for a in self.coeffs])
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, CDElement):
            return NotImplemented
        return self.level == other.level and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.level, tuple(self.coeffs)))

    def isclose(self, other: "CDElement", tolerance: float = DEFAULT_TOLERANCE) -> bool:
        self._require_same_level(other)
        return all(abs(a - b) <= tolerance for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            unit = "e0" if k == 0 else f"e{k}"
            if c == 1:
                parts.append(unit)
            elif c == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{c}*{unit}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"CDElement(r={self.level}: {body})"

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"level": self.level, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CDElement":
        """The element format's one reader: ``{"level": r, "coeffs": [...]}``
        with r an int in 0..DEFAULT_MAX_LEVEL and 2**r coefficients, each
        read by ``exact.parse_number``.  Integral values load as ints, so
        integer points take the int64 product path, and the rest as
        Fractions; anything else, "inf" and "nan" among it, raises
        ValueError."""
        level, coeffs = data.get("level"), data.get("coeffs")
        check_level(level)
        if not isinstance(coeffs, list):
            raise ValueError("coeffs must be a list")
        return cls(level, [parse_number(c) for c in coeffs])


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _int64_product_fits(x, y) -> bool:
    """Both vectors hold only ints and dim * max|x| * max|y| < 2^62, computed
    exactly with Python ints: then no partial sum of the product overflows."""
    if {*map(type, x), *map(type, y)} != {int}:
        return False
    return len(x) * max(map(abs, x)) * max(map(abs, y)) < INT64_PRODUCT_BOUND


def cd_multiply(a: CDElement, b: CDElement) -> CDElement:
    """Product at the common level: e_p e_q = sign[p][q] * e_{p XOR q}.

    From level ``VECTOR_MIN_LEVEL`` on, when both operands hold only ints and
    dim * max|a| * max|b| < 2^62 (``INT64_PRODUCT_BOUND``), the product is one
    int64 gather-and-matvec (``MultiplicationTable.operator``), exact
    because no partial sum can overflow.  Everything else, at any level,
    runs ``structure_multiply`` on the table's ``products``: a +-1 sign
    commutes exactly with an IEEE product and terms add in (p, q) order, so
    floats are bit-identical to the sign-table loop.
    """
    a._require_same_level(b)
    level = a.level
    table = _table(level)
    if level >= VECTOR_MIN_LEVEL and _int64_product_fits(a.coeffs, b.coeffs):
        # ab is the right-multiplication matrix of b applied to a
        right = table.operator(np.array(b.coeffs, dtype=np.int64), "right")
        return _element(level, (right @ np.array(a.coeffs, dtype=np.int64)).tolist())
    return _element(level, structure_multiply(table.products, a.coeffs, b.coeffs,
                                              [0] * table.dim))


def _conj_vec(v):
    return [v[0]] + [-c for c in v[1:]]


def _double(mul, conj, gamma, x, y):
    """The one statement of the doubling formula: split x = (a, b) and
    y = (c, d) into halves and return

        (a, b)(c, d) = (a c + gamma * conj(d) b,  d a + b conj(c))

    given the product ``mul`` and conjugation ``conj`` of the halves."""
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    pairs = zip(mul(a, c), mul(conj(d), b))
    if type(gamma) is int and gamma == -1:
        # u + (-1) * v is u - v, signed zeros too; another -1 (a float, a
        # Fraction) could change the type of an integer v, so it multiplies
        first = [u - v for u, v in pairs]
    else:
        first = [u + gamma * v for u, v in pairs]
    second = [u + v for u, v in zip(mul(d, a), mul(b, conj(c)))]
    return first + second


def _mul_vec_recursive(x, y):
    if len(x) == 1:
        return [x[0] * y[0]]
    return _double(_mul_vec_recursive, _conj_vec, -1, x, y)


def cd_multiply_recursive(a: CDElement, b: CDElement) -> CDElement:
    """Same product computed by direct divide-and-conquer on the halves.

    Independent of the table path; kept as a cross-implementation oracle.
    """
    a._require_same_level(b)
    return _element(a.level, _mul_vec_recursive(a.coeffs, b.coeffs))


def conjugate(a: CDElement) -> CDElement:
    """Fix e_0, negate every imaginary coefficient; an involution."""
    return _element(a.level, _conj_vec(a.coeffs))


def trace(a: CDElement):
    """T(u) = u + conj(u), returned as the scalar 2*u^0."""
    return 2 * a.coeffs[0]


def norm_sq(a: CDElement):
    """N(u) = u*conj(u) = sum of squared coefficients (exact when exact)."""
    return sum(c * c for c in a.coeffs)


def inverse_quadratic(a: CDElement) -> CDElement:
    """conj(a)/N(a).  Two-sided inverse by power-associativity; note this
    does not make left-multiplication by ``a`` invertible at level >= 4
    (see is_operator_invertible)."""
    n = norm_sq(a)
    if n == 0:
        raise NormZero("element has zero norm")
    return conjugate(a) / n


def is_operator_invertible(
    a: CDElement,
    tolerance: float = DEFAULT_TOLERANCE,
    sides: tuple = ("left", "right"),
) -> tuple:
    """Full-rank tests of the multiplication operators x -> a*x ("left")
    and x -> x*a ("right"), one bool per entry of ``sides``.

    Separates "nonzero norm" from "cancellable": zero divisors at level 4
    have nonzero norm but rank-deficient multiplication operators.

    Both matrices are one gather of the coefficients through the table
    (``MultiplicationTable.operator``): entry [k][j] of the left one is the
    e_k coefficient of a e_j, which only the term of e_{k^j} reaches.
    Exact elements are scaled to integers (by the lcm of their
    denominators, which keeps the rank) and eliminated mod
    ``exact.CERTIFICATE_PRIME`` = 2^31 - 1 in int64; full rank mod p
    certifies full rank.  Only a matrix that is rank-deficient mod p goes
    to ``matrix_rank_exact``, whose reduced form is certified (the matrix
    exactly annihilates the lifted nullspace basis, see ``exact``), so zero
    divisors are always decided exactly.  The zero element, whose operators
    are zero, needs neither.  Float elements count the singular values
    above ``tolerance``.

    A zero divisor is eliminated twice, mod p and in ``rref``; the two
    steps stay as they are cheapest for invertible elements (shared 2-core
    x86-64 VM): 2.8 ms at level 6 and 70 ms at level 8, against 3.8 and
    109 ms for one reduced elimination and 7.4 and 129 ms for ``rref``
    alone.  Only zero divisors would gain, by about a quarter at level 6.
    """
    dim = 1 << a.level
    if a.is_zero():
        return (False,) * len(sides)
    table = _table(a.level)
    if not a.is_exact:
        coeffs = np.array(a.coeffs, dtype=float)
        return tuple(matrix_rank_float(table.operator(coeffs, side), tolerance) == dim
                     for side in sides)
    ints = np.array(integer_vector(a.coeffs), dtype=object)
    residues = (ints % CERTIFICATE_PRIME).astype(np.int64)
    return tuple(
        matrix_rank_mod_p(table.operator(residues, side)) == dim
        or matrix_rank_exact(table.operator(ints, side).tolist()) == dim
        for side in sides
    )


def associator(a: CDElement, b: CDElement, c: CDElement) -> CDElement:
    """[a,b,c] = (ab)c - a(bc)."""
    if not (a.level == b.level == c.level):
        raise LevelMismatch("associator needs equal levels")
    return cd_multiply(cd_multiply(a, b), c) - cd_multiply(a, cd_multiply(b, c))


def commutator(a: CDElement, b: CDElement) -> CDElement:
    """ab - ba."""
    if a.level != b.level:
        raise LevelMismatch("commutator needs equal levels")
    return cd_multiply(a, b) - cd_multiply(b, a)


# ---------------------------------------------------------------------------
# identity battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExhaustiveBasis:
    """Check identities on every tuple of basis units."""

    def describe(self) -> dict:
        return {"mode": "exhaustive-basis"}


# random samples have integer entries in -SAMPLE_BOUND..SAMPLE_BOUND
SAMPLE_BOUND = 3
# samples a RandomSample may draw; README.md gives the measured cost at the cap
MAX_SAMPLE_COUNT = 1000


@dataclass(frozen=True)
class RandomSample:
    """Check identities on ``count`` (1..``MAX_SAMPLE_COUNT``) seeded random
    coefficient vectors with integer entries in -3..3."""

    count: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.count <= MAX_SAMPLE_COUNT:
            raise ValueError(f"count must lie in 1..{MAX_SAMPLE_COUNT}, got {self.count}")

    def describe(self) -> dict:
        return {"mode": "random-sample", "count": self.count, "seed": self.seed}


@dataclass
class IdentityVerdict:
    name: str
    passed: bool
    witness: tuple | None
    checked: int

    def to_json_dict(self) -> dict:
        out = {"identity": self.name, "passed": self.passed, "checked": self.checked}
        if self.witness is not None:
            out["witness"] = [w.to_json_dict() for w in self.witness]
        return out


@dataclass
class PropertyReport:
    level: int
    mode: ExhaustiveBasis | RandomSample
    verdicts: dict

    def passed(self, name: str) -> bool:
        return self.verdicts[name].passed

    def witness(self, name: str):
        return self.verdicts[name].witness

    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            **self.mode.describe(),
            "identities": [v.to_json_dict() for v in self.verdicts.values()],
        }


# Each identity takes a batch form (``_MonomialBatch`` or ``_DenseBatch``)
# and one batch per operand, and returns one bool per sample.  ``degree`` is
# the largest number of sample entries multiplied into one coefficient
# (a norm squares its argument), which bounds every int64 value formed.

def _associative(m, a, b, c):
    return m.eq(m.mul(m.mul(a, b), c), m.mul(a, m.mul(b, c)))


def _left_alternative(m, a, b):
    return m.eq(m.mul(m.mul(a, a), b), m.mul(a, m.mul(a, b)))


def _right_alternative(m, a, b):
    return m.eq(m.mul(m.mul(a, b), b), m.mul(a, m.mul(b, b)))


def _flexible(m, a, b):
    return m.eq(m.mul(a, m.mul(b, a)), m.mul(m.mul(a, b), a))


def _moufang_a(m, a, x, y):
    return m.eq(m.mul(a, m.mul(x, m.mul(a, y))), m.mul(m.mul(m.mul(a, x), a), y))


def _moufang_b(m, a, x, y):
    return m.eq(m.mul(m.mul(m.mul(x, a), y), a), m.mul(x, m.mul(m.mul(a, y), a)))


def _moufang_c(m, a, x, y):
    return m.eq(m.mul(m.mul(a, x), m.mul(y, a)), m.mul(m.mul(a, m.mul(x, y)), a))


def _power_associative(m, z):
    """z^n z^(total-n) == z^total for 1 <= n < total <= 6, with z^k built
    as z^(k-1) z."""
    powers = [None, z]
    for _ in range(5):
        powers.append(m.mul(powers[-1], z))
    ok = True
    for total in range(2, 7):
        for n in range(1, total):
            ok = ok & m.eq(m.mul(powers[n], powers[total - n]), powers[total])
    return ok


def _norm_multiplicative(m, a, b):
    return m.norm(m.mul(a, b)) == m.norm(a) * m.norm(b)


_IDENTITIES = [
    # (name, arity, degree, check)
    ("associative", 3, 3, _associative),
    ("left_alternative", 2, 3, _left_alternative),
    ("right_alternative", 2, 3, _right_alternative),
    ("flexible", 2, 3, _flexible),
    ("moufang_a", 3, 4, _moufang_a),
    ("moufang_b", 3, 4, _moufang_b),
    ("moufang_c", 3, 4, _moufang_c),
    ("power_associative", 1, 6, _power_associative),
    ("norm_multiplicative", 2, 4, _norm_multiplicative),
]


def zero_divisor_probe(level: int) -> tuple[CDElement, CDElement] | None:
    """The canonical annihilating pair (e3+e10, e6-e15), present from level 4."""
    if level < 4:
        return None
    a = CDElement.basis(level, 3) + CDElement.basis(level, 10)
    b = CDElement.basis(level, 6) - CDElement.basis(level, 15)
    return a, b


class _MonomialBatch:
    """Exhaustive mode: signed basis units s e_i as (index, sign) int64
    arrays, so a product is one XOR and one sign lookup,
    (s e_i)(t e_j) = s t sign[i][j] e_{i^j}, and every norm is 1.  Tuples
    are numbered in ``itertools.product`` order over the basis; slabs run
    from 2^10 to 2^16 tuples."""

    entry = 1
    first, cap = 1 << 10, 1 << 16

    def __init__(self, r: int):
        self.r = r
        self.signs = _table(r).signs

    def total(self, arity: int) -> int:
        return 1 << (self.r * arity)

    def _indices(self, t, arity: int):
        """Basis indices of the tuple numbered t (an int or an array)."""
        mask = (1 << self.r) - 1
        return [(t >> (self.r * (arity - 1 - j))) & mask for j in range(arity)]

    def slab(self, arity: int, start: int, stop: int):
        t = np.arange(start, stop)
        ones = np.ones_like(t)
        return [(idx, ones) for idx in self._indices(t, arity)]

    def witness(self, arity: int, pos: int) -> tuple:
        return tuple(CDElement.basis(self.r, k) for k in self._indices(pos, arity))

    def mul(self, a, b):
        (ia, sa), (ib, sb) = a, b
        return ia ^ ib, sa * sb * self.signs[ia, ib]

    @staticmethod
    def eq(a, b):
        return (a[0] == b[0]) & (a[1] == b[1])

    @staticmethod
    def norm(a):
        return np.ones_like(a[1])


class _DenseBatch:
    """Random-sample mode: samples as (N, dim) int64 coefficient rows, with
    (ab)_k = sum_q left[k][q] a_{k^q} b_q, the left operators of a
    (``MultiplicationTable.operator``) applied to b.  Slabs start near
    N dim^2 = 2^10 and stop growing at N dim^2 = 2^14: beyond that the
    batched gather misses the cache and is slower than one matvec per
    sample, which a slab of one sample uses."""

    entry = SAMPLE_BOUND

    def __init__(self, r: int, mode: RandomSample):
        self.r = r
        self.table = _table(r)
        self.first = max(1, (1 << 10) >> (2 * r))
        self.cap = max(1, (1 << 14) >> (2 * r))
        self.mode = mode
        self.probe = zero_divisor_probe(r)
        # arity -> (generator, (arity, total, dim) tuple array, tuples drawn)
        self.drawn = {}

    def total(self, arity: int) -> int:
        return self.mode.count + (arity == 2 and self.probe is not None)

    def _tuples(self, arity: int, stop: int):
        """The arity's tuple array, drawn up to ``stop``: the probe pair
        first for arity 2, then tuples of ``arity`` vectors of ``dim`` draws
        of randint(-3, 3) from Random(seed * 7919 + arity).  Every identity
        of one arity reads the same stream, so it is drawn once, into one
        array, and only as far as a slab has reached."""
        dim = 1 << self.r
        if arity not in self.drawn:
            total = self.total(arity)
            tuples = np.empty((arity, total, dim), dtype=np.int64)
            head = total - self.mode.count
            if head:
                tuples[:, 0] = [x.coeffs for x in self.probe]
            self.drawn[arity] = (random.Random(self.mode.seed * 7919 + arity), tuples, head)
        rng, tuples, drawn = self.drawn[arity]
        if stop > drawn:
            new = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
                   for _ in range((stop - drawn) * arity * dim)]
            tuples[:, drawn:stop] = np.array(new, dtype=np.int64).reshape(
                stop - drawn, arity, dim).transpose(1, 0, 2)
            self.drawn[arity] = (rng, tuples, stop)
        return tuples

    def slab(self, arity: int, start: int, stop: int):
        return list(self._tuples(arity, stop)[:, start:stop])

    def witness(self, arity: int, pos: int) -> tuple:
        return tuple(_element(self.r, row.tolist()) for row in self.drawn[arity][1][:, pos])

    def mul(self, a, b):
        if len(a) == 1:
            return (self.table.operator(a[0]) @ b[0])[None]
        return (self.table.operator(a) @ b[:, :, None])[:, :, 0]

    @staticmethod
    def eq(a, b):
        return (a == b).all(axis=1)

    @staticmethod
    def norm(a):
        return (a * a).sum(axis=1)


def identity_battery(
    r: int,
    mode: ExhaustiveBasis | RandomSample = ExhaustiveBasis(),
) -> PropertyReport:
    """Verdicts for the standard identity ladder at level r.

    Each identity is checked on whole slabs of sample tuples at once, one
    array product per ``*``, in one of two batch forms: signed basis units
    as (index, sign) arrays in exhaustive mode (``_MonomialBatch``), and
    (N, dim) integer rows in random-sample mode (``_DenseBatch``).  Slabs
    double in size up to a cap, and random tuples are drawn only up to the
    end of the slab being checked.  The witness is the first failing tuple
    in loop order: ``itertools.product`` order over the basis, or the
    seeded sample order with the canonical zero-divisor pair probed first
    for two-operand identities, so failing identities report a stable
    witness that re-checks against ``CDElement`` arithmetic.  ``checked``
    counts the tuples up to and including it.

    Every value is exact in int64: entries are at most ``entry`` in size
    (1 for basis units, 3 for samples), so an identity of degree D forms
    no value beyond entry^D * dim^(D-1), which must lie below
    ``INT64_PRODUCT_BOUND`` (``VerificationError`` otherwise).
    """
    check_level(r)
    batch = _MonomialBatch(r) if isinstance(mode, ExhaustiveBasis) else _DenseBatch(r, mode)
    verdicts = {}
    for name, arity, degree, check in _IDENTITIES:
        if batch.entry ** degree << (r * (degree - 1)) >= INT64_PRODUCT_BOUND:
            raise VerificationError(f"{name} may overflow int64 at level {r}")
        total = batch.total(arity)
        start, size, witness = 0, batch.first, None
        while start < total and witness is None:
            stop = min(total, start + size)
            ok = check(batch, *batch.slab(arity, start, stop))
            if not ok.all():
                start += int(ok.argmin())
                witness = batch.witness(arity, start)
            else:
                start, size = stop, min(2 * size, batch.cap)
        checked = total if witness is None else start + 1
        verdicts[name] = IdentityVerdict(name, witness is None, witness, checked)
    return PropertyReport(level=r, mode=mode, verdicts=verdicts)


# ---------------------------------------------------------------------------
# zero divisors
# ---------------------------------------------------------------------------

def find_zero_divisors(r: int) -> list[tuple[CDElement, CDElement]]:
    """All ordered pairs (a, b) of two-term signed elements with ab = 0, in
    deterministic order.  Empty below level 4.

    The candidates are every s_i e_i + s_j e_j with 1 <= i < j and signs
    +-1, ordered by (i, j, s_i, s_j); pairs come in that order of a, then
    of b.  For b = t_k e_k + t_l e_l the four terms of ab sit at the
    indices i^k, i^l, j^k and j^l.  i^k differs from i^l and from j^k, so
    it can cancel only against j^l: ab = 0 forces i^k == j^l, i.e.
    l = k^i^j (and then i^l == j^k).  For each a and k the partner l is
    therefore fixed, which makes the search O(K*dim) over the K
    candidates rather than O(K^2).  With A..D = sign[i][k], sign[j][l],
    sign[i][l], sign[j][k], ab = 0 exactly when

        s_i t_k A + s_j t_l B == 0  and  s_i t_l C + s_j t_k D == 0,

    that is when AB == CD and t_l = -s_i s_j t_k AB: one t_l per t_k.  At
    level 4 the pairs use de Marrais's "42 assessors", 42 distinct index
    pairs (arXiv math/0011260; see also Moreno, arXiv q-alg/9710013).
    Pairs share their element objects.
    """
    sgn = structure_constants(r).sign
    dim = 1 << r
    elements = {}

    def element(i, si, j, sj):
        key = (i, si, j, sj)
        if key not in elements:
            coeffs = [0] * dim
            coeffs[i] = si
            coeffs[j] = sj
            elements[key] = _element(r, coeffs)
        return elements[key]

    pairs = []
    for i in range(1, dim):
        for j in range(i + 1, dim):
            # (k, l, AB) for every index pair of a b that can annihilate
            partners = []
            for k in range(1, dim):
                l = k ^ i ^ j
                sign_ab = sgn[i][k] * sgn[j][l]
                if l > k and sign_ab == sgn[i][l] * sgn[j][k]:
                    partners.append((k, l, sign_ab))
            for si in (1, -1):
                for sj in (1, -1):
                    a = element(i, si, j, sj)
                    for k, l, sign_ab in partners:
                        for tk in (1, -1):
                            b = element(k, tk, l, -si * sj * tk * sign_ab)
                            pairs.append((a, b))
    return pairs


# ---------------------------------------------------------------------------
# Cayley extension (generic doubling with a conjugation)
# ---------------------------------------------------------------------------

class ConjugatedAlgebra:
    """Finite unital algebra with a conjugation, given by dense tables.

    ``mult[p][q]`` is the coefficient vector of the basis product b_p b_q
    and ``conj[p]`` the vector of the conjugate of b_p.  The unit is always
    the first basis vector.  Entries may be Fractions or polynomials, so
    the doubling below can run with symbolic parameters.  Construction
    checks the table shapes (``dimensions_agree``) and then the conjugation
    axioms (``validate``).
    """

    def __init__(self, mult, conj):
        # the unit is the first basis vector, so there must be one
        if not mult or not dimensions_agree(mult, [conj, *conj]):
            raise InvalidConjugation("mult/conj dimensions are inconsistent or zero")
        self.dim = len(mult)
        self.mult = [[list(vec) for vec in row] for row in mult]
        self.products = sparse_products(self.mult)
        self.conj = [list(vec) for vec in conj]
        self.validate()

    # vector helpers -------------------------------------------------------

    def _zero_vec(self):
        # one shared zero: the coefficients are immutable
        return [0 * self.mult[0][0][0]] * self.dim

    def unit_vector(self):
        vec = self._zero_vec()
        vec[0] = vec[0] + 1
        return vec

    def multiply(self, x, y):
        return structure_multiply(self.products, x, y, self._zero_vec())

    def conjugate_vector(self, x):
        out = self._zero_vec()
        for p, cx in enumerate(x):
            if cx == 0:
                continue
            for k in range(self.dim):
                if self.conj[p][k] != 0:
                    out[k] = out[k] + cx * self.conj[p][k]
        return out

    def _scalar_part(self, vec, what: str):
        for k in range(1, self.dim):
            if vec[k] != 0:
                raise InvalidConjugation(f"{what} is not a multiple of the unit")
        return vec[0]

    def trace_of(self, x):
        """T(u) = u + conj(u), as a scalar."""
        s = [a + b for a, b in zip(x, self.conjugate_vector(x))]
        return self._scalar_part(s, "u + conj(u)")

    def norm_of(self, x):
        """N(u) = u * conj(u), as a scalar."""
        n = self.multiply(x, self.conjugate_vector(x))
        return self._scalar_part(n, "u * conj(u)")

    # axioms ----------------------------------------------------------------

    def validate(self) -> None:
        """Conjugation axioms: involution fixing the unit, an
        anti-endomorphism, with u + conj(u) and u*conj(u) scalar."""
        unit = self.unit_vector()
        basis, conj = [], []
        for p in range(self.dim):
            e_p = self._zero_vec()
            e_p[p] = e_p[p] + 1
            if any(a != b for a, b in zip(self.multiply(unit, e_p), e_p)):
                raise InvalidConjugation("first basis vector is not a left unit")
            if any(a != b for a, b in zip(self.multiply(e_p, unit), e_p)):
                raise InvalidConjugation("first basis vector is not a right unit")
            c_p = self.conjugate_vector(e_p)
            if any(a != b for a, b in zip(self.conjugate_vector(c_p), e_p)):
                raise InvalidConjugation("conjugation is not an involution")
            basis.append(e_p)
            conj.append(c_p)
        if any(a != b for a, b in zip(self.conjugate_vector(unit), unit)):
            raise InvalidConjugation("conjugation moves the unit")
        for e_p, c_p in zip(basis, conj):
            self._scalar_part([a + b for a, b in zip(e_p, c_p)], "u + conj(u)")
        for e_p, c_p in zip(basis, conj):
            for e_q, c_q in zip(basis, conj):
                # polarized form of u*conj(u) scalar
                uv = self.multiply(e_p, c_q)
                vu = self.multiply(e_q, c_p)
                self._scalar_part(
                    [a + b for a, b in zip(uv, vu)],
                    "u*conj(v) + v*conj(u)",
                )
                lhs = self.conjugate_vector(self.multiply(e_p, e_q))
                if any(a != b for a, b in zip(lhs, self.multiply(c_q, c_p))):
                    raise InvalidConjugation("conjugation is not an anti-endomorphism")

    # conversions -------------------------------------------------------------

    def as_table(self) -> MultiplicationTable:
        """Convert to a +-1 sign table; only valid when every basis product
        b_p b_q is +-b_{p XOR q}, the form every doubling level has."""
        n = self.dim
        level = n.bit_length() - 1
        if 1 << level != n:
            raise ValueError("dimension is not a power of two")
        sgn = [[0] * n for _ in range(n)]
        for p in range(n):
            for q in range(n):
                nz = [(k, c) for k, c in enumerate(self.mult[p][q]) if c != 0]
                if len(nz) != 1 or nz[0][1] not in (1, -1):
                    raise ValueError("table entry is not a signed basis vector")
                if nz[0][0] != p ^ q:
                    raise ValueError(f"product of basis {p} and {q} is not "
                                     f"indexed by {p} XOR {q}")
                sgn[p][q] = int(nz[0][1])
        return MultiplicationTable(level=level, sign=tuple(map(tuple, sgn)))


def quadratic_algebra(alpha, beta) -> ConjugatedAlgebra:
    """Two-dimensional algebra on (e, i) with i^2 = alpha*e + beta*i and
    conjugation u -> T(u)e - u; parameters may be rational or symbolic."""
    zero = 0 * alpha
    one = zero + 1
    mult = [
        [[one, zero], [zero, one]],
        [[zero, one], [alpha, beta]],
    ]
    conj = [
        [one, zero],
        [beta, zero - 1],
    ]
    return ConjugatedAlgebra(mult=mult, conj=conj)


def cayley_extension(base: ConjugatedAlgebra, gamma) -> ConjugatedAlgebra:
    """Double (E, s) by gamma: on E x E the product is

        (x, y)(x', y') = (x x' + gamma * conj(y') y,  y conj(x') + y' x)

    with conjugation (x, y) -> (conj(x), -y).  gamma = -1 applied to the
    level-r table reproduces the level-(r+1) table.
    """
    n = base.dim
    zero = 0 * gamma
    units = [[zero] * p + [zero + 1] + [zero] * (2 * n - 1 - p) for p in range(2 * n)]
    mult = [[_double(base.multiply, base.conjugate_vector, gamma, e_p, e_q) for e_q in units]
            for e_p in units]
    conj = [base.conjugate_vector(e_p[:n]) + [zero - c for c in e_p[n:]] for e_p in units]
    return ConjugatedAlgebra(mult=mult, conj=conj)


def quaternion_type_algebra(alpha, beta, gamma) -> ConjugatedAlgebra:
    """The 4-dimensional doubling of the type-(alpha, beta) quadratic
    algebra by gamma, on the basis (e, i, j, k)."""
    return cayley_extension(quadratic_algebra(alpha, beta), gamma)


# ---------------------------------------------------------------------------
# quaternions as complex matrices
# ---------------------------------------------------------------------------

def quaternion_to_complex_matrix(q: CDElement):
    """Ring homomorphism sending a + b*e1 + c*e2 + d*e3 to
    [[a+bi, c+di], [-c+di, a-bi]]; the images of -i*e3, -i*e2, -i*e1 are
    the three standard 2x2 spin matrices."""
    if q.level != 2:
        raise LevelMismatch("expected a level-2 element")
    a, b, c, d = (complex(float(x), 0.0) for x in q.coeffs)
    i = 1j
    return [
        [a + b * i, c + d * i],
        [-c + d * i, a - b * i],
    ]
