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
from functools import lru_cache

import numpy as np

from .exact import (
    CERTIFICATE_PRIME,
    DEFAULT_TOLERANCE,
    INT64_PRODUCT_BOUND,
    VerificationError,
    integer_vector,
    is_exact,
    matrix_rank_exact,
    matrix_rank_float,
    matrix_rank_mod_p,
)

DEFAULT_MAX_LEVEL = 8

# cd_multiply runs int products as int64 matvecs from this level on; below
# it the Python loop is faster than numpy's per-call overhead
VECTOR_MIN_LEVEL = 4


class LevelMismatch(ValueError):
    """Operands live at different doubling levels."""


class LevelTooLarge(ValueError):
    """Requested level exceeds the configured cap."""


class NormZero(ZeroDivisionError):
    """Quadratic inverse of an element with vanishing norm."""


class InvalidConjugation(ValueError):
    """Doubling seed violates the conjugation axioms."""


def _check_level(r: int) -> None:
    if r < 0:
        raise LevelTooLarge(f"level must be nonnegative, got {r}")
    if r > DEFAULT_MAX_LEVEL:
        raise LevelTooLarge(f"level {r} exceeds cap {DEFAULT_MAX_LEVEL} (dim {2 ** r})")


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis_tables(r: int):
    """The sign table: e_p e_q = sign[p][q] * e_{p ^ q}.

    The doubling formula sends the product of two basis units to +-e_{p ^ q}
    at every level, so only the signs need the recursion; conj(e_k) = -e_k
    except for k = 0."""
    if r == 0:
        return ((1,),)
    prev = _basis_tables(r - 1)
    h = len(prev)
    conj = (1,) + (-1,) * (h - 1)
    # e_p e_q for p < h: q < h keeps the level-(r-1) sign, q = h + qq is
    # e_qq e_p in the second half
    top = [row + tuple(prev[qq][p] for qq in range(h)) for p, row in enumerate(prev)]
    # p = h + pp: e_pp conj(e_q) for q < h, -conj(e_qq) e_pp for q = h + qq
    bottom = [tuple(conj[q] * prev[pp][q] for q in range(h))
              + tuple(-conj[qq] * prev[qq][pp] for qq in range(h)) for pp in range(h)]
    return tuple(top + bottom)


@dataclass(frozen=True)
class MultiplicationTable:
    """Structure constants of the level-r algebra.

    Each basis product is e_p e_q = sign[p][q] * e_{p XOR q} with sign
    +-1, so the sign table is the whole table: the full gamma^k_{pq} array
    has one nonzero entry per (p, q), at k = p ^ q.  Row and column 0 act
    as the identity.
    """

    level: int
    sign: tuple

    @property
    def dim(self) -> int:
        return 1 << self.level

    def product(self, p: int, q: int) -> tuple[int, int]:
        """(k, s) with e_p e_q = s * e_k."""
        return p ^ q, self.sign[p][q]

    def dense_gamma(self):
        n = self.dim
        out = [[[0] * n for _ in range(n)] for _ in range(n)]
        for p in range(n):
            for q in range(n):
                out[p][q][p ^ q] = self.sign[p][q]
        return out

    def to_json_dict(self) -> dict:
        return {"kind": "cayley_dickson", "level": self.level}


def structure_constants(r: int) -> MultiplicationTable:
    """Full multiplication table at level r (at most ``DEFAULT_MAX_LEVEL``),
    generated by the doubling recursion and cached."""
    _check_level(r)
    return MultiplicationTable(level=r, sign=_basis_tables(r))


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


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _coerce_coeff(x):
    # int and float first: an isinstance test against Fraction, an abstract
    # base class, is slow for every other type
    if isinstance(x, (int, float)):
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        return x
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"unsupported coefficient {x!r}")


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
        coeffs = [_coerce_coeff(c) for c in coeffs]
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
        if isinstance(other, (int, Fraction, float)) and not isinstance(other, bool):
            return _element(self.level, [a * other for a in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, float)) and not isinstance(other, bool):
            return _element(self.level, [other * a for a in self.coeffs])
        return NotImplemented

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction, float)) and not isinstance(scalar, bool):
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

    # -- derived quantities ----------------------------------------------------

    def conjugate(self) -> "CDElement":
        return conjugate(self)

    def trace(self):
        return trace(self)

    def norm_sq(self):
        return norm_sq(self)

    def inverse(self) -> "CDElement":
        return inverse_quadratic(self)

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
        """Integral text ("3", "-1") loads as an int, so integer points take
        the int64 product path; other exact text loads as a Fraction, the
        rest ("inf", "nan") as a float."""
        coeffs = []
        for text in data["coeffs"]:
            try:
                value = Fraction(text)
            except ValueError:
                coeffs.append(float(text))
                continue
            coeffs.append(value.numerator if value.denominator == 1 else value)
        return cls(int(data["level"]), coeffs)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _xor_tables(r: int):
    """int64 arrays (cols, left, right) with cols[k][j] = k ^ j, such that
    a[cols] * left and a[cols] * right are the matrices of x -> a x and
    x -> x a: left[k][j] is the sign of e_{k^j} e_j, right[k][j] that of
    e_j e_{k^j}."""
    j = np.arange(1 << r)
    cols = j[:, None] ^ j[None, :]
    sgn = np.array(_basis_tables(r), dtype=np.int64)
    return cols, sgn[cols, j[None, :]], sgn[j[None, :], cols]


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
    int64 gather-and-matvec, exact because no partial sum can overflow.
    Everything else (Fractions, floats, larger ints) runs the Python loop,
    whose summation order keeps float results bit-identical.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: {a.level} vs {b.level}")
    level = a.level
    if level >= VECTOR_MIN_LEVEL and _int64_product_fits(a.coeffs, b.coeffs):
        # ab is the right-multiplication matrix of b applied to a
        cols, _, right = _xor_tables(level)
        y = np.array(b.coeffs, dtype=np.int64)
        out = (y[cols] * right) @ np.array(a.coeffs, dtype=np.int64)
        return _element(level, out.tolist())
    sgn = _basis_tables(level)
    out = [0] * (1 << level)
    for p, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        row_sgn = sgn[p]
        for q, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            out[p ^ q] += row_sgn[q] * ca * cb
    return _element(level, out)


def _conj_vec(v):
    return [v[0]] + [-c for c in v[1:]]


def _mul_vec_recursive(x, y):
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    h = n // 2
    a1, a2 = x[:h], x[h:]
    b1, b2 = y[:h], y[h:]
    left = [
        u - v
        for u, v in zip(_mul_vec_recursive(a1, b1), _mul_vec_recursive(_conj_vec(b2), a2))
    ]
    right = [
        u + v
        for u, v in zip(_mul_vec_recursive(b2, a1), _mul_vec_recursive(a2, _conj_vec(b1)))
    ]
    return left + right


def cd_multiply_recursive(a: CDElement, b: CDElement) -> CDElement:
    """Same product computed by direct divide-and-conquer on the halves.

    Independent of the table path; kept as a cross-implementation oracle.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: {a.level} vs {b.level}")
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

    Both matrices are one gather of the coefficients through the
    ``_xor_tables``: entry [k][j] of the left one is the e_k coefficient of
    a e_j, which only the term of e_{k^j} reaches.  Exact elements are
    scaled to integers (by the lcm of their denominators, which keeps the
    rank) and eliminated mod ``exact.CERTIFICATE_PRIME`` = 2^31 - 1 in
    int64; full rank mod p certifies full rank.  Only a matrix that is
    rank-deficient mod p goes to ``matrix_rank_exact``, whose reduced form
    is certified (the matrix exactly annihilates the lifted nullspace
    basis, see ``exact``), so zero divisors are always decided exactly.
    The zero element, whose operators are zero, needs neither.  Float
    elements count the singular values above ``tolerance``.
    """
    dim = 1 << a.level
    if a.is_zero():
        return (False,) * len(sides)
    cols, left, right = _xor_tables(a.level)
    signs = {"left": left, "right": right}
    if not a.is_exact:
        coeffs = np.array(a.coeffs, dtype=float)
        return tuple(matrix_rank_float(coeffs[cols] * signs[side], tolerance) == dim
                     for side in sides)
    ints = np.array(integer_vector(a.coeffs), dtype=object)
    residues = (ints % CERTIFICATE_PRIME).astype(np.int64)
    return tuple(
        matrix_rank_mod_p(residues[cols] * signs[side]) == dim
        or matrix_rank_exact((ints[cols] * signs[side]).tolist()) == dim
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


@dataclass(frozen=True)
class RandomSample:
    """Check identities on seeded random coefficient vectors with integer
    entries in -3..3."""

    count: int = 200
    seed: int = 0

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
        # left[i ^ j][j] = sign[i][j]
        _, self.left, _ = _xor_tables(r)

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
        k = ia ^ ib
        return k, sa * sb * self.left[k, ib]

    @staticmethod
    def eq(a, b):
        return (a[0] == b[0]) & (a[1] == b[1])

    @staticmethod
    def norm(a):
        return np.ones_like(a[1])


class _DenseBatch:
    """Random-sample mode: samples as (N, dim) int64 coefficient rows, with
    (ab)_k = sum_q left[k][q] a_{k^q} b_q read from the ``_xor_tables``
    gather.  Slabs start near N dim^2 = 2^10 and stop growing at
    N dim^2 = 2^14: beyond that the batched gather misses the cache and is
    slower than one matvec per sample, which a slab of one sample uses."""

    entry = SAMPLE_BOUND

    def __init__(self, r: int, mode: RandomSample):
        self.r = r
        self.cols, self.left, _ = _xor_tables(r)
        self.first = max(1, (1 << 10) >> (2 * r))
        self.cap = max(1, (1 << 14) >> (2 * r))
        self.mode = mode
        self.probe = zero_divisor_probe(r)
        # arity -> (generator, drawn tuples as an (arity, n, dim) array)
        self.drawn = {}

    def total(self, arity: int) -> int:
        return self.mode.count + (arity == 2 and self.probe is not None)

    def _tuples(self, arity: int, stop: int):
        """The first ``stop`` tuples of the arity's sample stream: the probe
        pair first for arity 2, then tuples of ``arity`` vectors of ``dim``
        draws of randint(-3, 3) from Random(seed * 7919 + arity).  Every
        identity of one arity reads the same stream, so it is drawn once,
        and only as far as a slab has reached."""
        dim = 1 << self.r
        if arity not in self.drawn:
            head = [[x.coeffs for x in self.probe]] if arity == 2 and self.probe else []
            rows = np.array(head, dtype=np.int64).reshape(-1, arity, dim)
            self.drawn[arity] = (random.Random(self.mode.seed * 7919 + arity),
                                 rows.transpose(1, 0, 2))
        rng, tuples = self.drawn[arity]
        missing = stop - tuples.shape[1]
        if missing > 0:
            new = np.array([rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
                            for _ in range(missing * arity * dim)], dtype=np.int64)
            tuples = np.concatenate(
                [tuples, new.reshape(missing, arity, dim).transpose(1, 0, 2)], axis=1)
            self.drawn[arity] = (rng, tuples)
        return tuples

    def slab(self, arity: int, start: int, stop: int):
        return list(self._tuples(arity, stop)[:, start:stop])

    def witness(self, arity: int, pos: int) -> tuple:
        return tuple(_element(self.r, row.tolist()) for row in self.drawn[arity][1][:, pos])

    def mul(self, a, b):
        if len(a) == 1:
            return ((a[0][self.cols] * self.left) @ b[0])[None]
        return (a.take(self.cols, axis=1) * self.left @ b[:, :, None])[:, :, 0]

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
    _check_level(r)
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
    _check_level(r)
    dim = 1 << r
    sgn = _basis_tables(r)
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
    checks the conjugation axioms (``validate``).
    """

    def __init__(self, mult, conj):
        self.dim = len(mult)
        self.mult = [[list(vec) for vec in row] for row in mult]
        self.products = sparse_products(self.mult)
        self.conj = [list(vec) for vec in conj]
        self.validate()

    # vector helpers -------------------------------------------------------

    def _zero_vec(self):
        return [0 * self.mult[0][0][0] for _ in range(self.dim)]

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
        n = self.dim
        unit = self.unit_vector()
        for p in range(n):
            e_p = [0 * unit[0]] * n
            e_p = list(e_p)
            e_p[p] = e_p[p] + 1
            if any(a != b for a, b in zip(self.multiply(unit, e_p), e_p)):
                raise InvalidConjugation("first basis vector is not a left unit")
            if any(a != b for a, b in zip(self.multiply(e_p, unit), e_p)):
                raise InvalidConjugation("first basis vector is not a right unit")
            twice = self.conjugate_vector(self.conjugate_vector(e_p))
            if any(a != b for a, b in zip(twice, e_p)):
                raise InvalidConjugation("conjugation is not an involution")
        if any(a != b for a, b in zip(self.conjugate_vector(unit), unit)):
            raise InvalidConjugation("conjugation moves the unit")
        basis = []
        for p in range(n):
            vec = self._zero_vec()
            vec[p] = vec[p] + 1
            basis.append(vec)
        for p in range(n):
            self.trace_of(basis[p])  # raises if not scalar
        for p in range(n):
            for q in range(n):
                # polarized form of u*conj(u) scalar
                uv = self.multiply(basis[p], self.conjugate_vector(basis[q]))
                vu = self.multiply(basis[q], self.conjugate_vector(basis[p]))
                self._scalar_part(
                    [a + b for a, b in zip(uv, vu)],
                    "u*conj(v) + v*conj(u)",
                )
                lhs = self.conjugate_vector(self.multiply(basis[p], basis[q]))
                rhs = self.multiply(
                    self.conjugate_vector(basis[q]), self.conjugate_vector(basis[p])
                )
                if any(a != b for a, b in zip(lhs, rhs)):
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

    def pad(first=None, second=None):
        vec = [zero] * (2 * n)
        if first is not None:
            for k, c in enumerate(first):
                vec[k] = vec[k] + c
        if second is not None:
            for k, c in enumerate(second):
                vec[n + k] = vec[n + k] + c
        return vec

    basis = []
    for p in range(n):
        vec = [zero] * n
        vec[p] = vec[p] + 1
        basis.append(vec)

    mult = [[None] * (2 * n) for _ in range(2 * n)]
    for p in range(2 * n):
        for q in range(2 * n):
            if p < n and q < n:
                mult[p][q] = pad(first=base.mult[p][q])
            elif p < n:
                qq = q - n
                mult[p][q] = pad(second=base.multiply(basis[qq], basis[p]))
            elif q < n:
                pp = p - n
                mult[p][q] = pad(
                    second=base.multiply(basis[pp], base.conjugate_vector(basis[q]))
                )
            else:
                pp, qq = p - n, q - n
                prod = base.multiply(base.conjugate_vector(basis[qq]), basis[pp])
                mult[p][q] = pad(first=[gamma * c for c in prod])

    conj = []
    for p in range(n):
        conj.append(pad(first=base.conj[p]))
    for p in range(n):
        vec = [zero] * n
        vec[p] = vec[p] - 1
        conj.append(pad(second=vec))

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
