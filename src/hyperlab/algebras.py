"""Finite structure-constant algebras and their doubling-algebra tensor
products.

Every algebra here is stored as sparse structure constants: for each basis
pair (p, q), the nonzero ``(k, coefficient)`` pairs of b_p b_q.  One kernel,
``structure_multiply``, turns that table into products, for the shipped
base algebras, for their tensor products B (x) A_r with a level-r doubling
algebra (basis b_i (x) e_p, ordered p-major) and for the conjugated
algebras of the Cayley extension.  Centre, nucleus, classic limit and the
two canonical factor embeddings are computed exactly over the rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cayley_dickson import (
    AlgebraMismatch,
    CDElement,
    LevelMismatch,
    dimensions_agree,
    sparse_products,
    structure_constants,
    structure_multiply,
)
from .exact import (
    INT64_PRODUCT_BOUND,
    VerificationError,
    blocks,
    certified_nullspace,
    exact_value,
    integer_basis,
    parse_number,
)


class InvalidAlgebra(ValueError):
    pass


class DimTooLarge(ValueError):
    pass


class NoFunctional(ValueError):
    """Classic limit requested but the base carries no functional."""


DEFAULT_NUCLEUS_CAP = 64
# the centre reads the dense integer structure tensor: dim^3 int64 entries,
# 16 MB at dim 128
DEFAULT_CENTRE_CAP = 128
# verify_embeddings does about cd_dim^2 * dim coefficient operations, on ints
# for the shipped bases: 0.3 s for real (x) A_6 (2^18), 0.1 s for mat2 (x) A_5
# (2^17); mat2 (x) A_6 (2^20), which the cap refuses, took 0.4 s
DEFAULT_EMBEDDING_CAP = 1 << 18


def _exact_vec(values):
    """``exact.exact_value`` of each value; a list of plain ints is its own
    answer, so it is copied without a call per entry."""
    values = list(values)
    return values if {*map(type, values)} <= {int} else list(map(exact_value, values))


class StructureAlgebra:
    """Unital algebra from an n x n x n structure-constant array.

    gamma[p][q][k] is the e_k coefficient of b_p b_q; only its nonzero
    entries are kept, in ``products``.  The unit vector is verified to be a
    two-sided identity at construction; associativity is established by
    checking all basis triples.
    """

    def __init__(self, gamma, unit, name: str = "", classic_limit=None):
        self.dim = len(gamma)
        gamma = [[_exact_vec(vec) for vec in row] for row in gamma]
        self.unit = _exact_vec(unit)
        self.name = name or f"algebra(dim={self.dim})"
        self.classic_limit_functional = (
            _exact_vec(classic_limit) if classic_limit is not None else None
        )
        if not dimensions_agree(gamma, [self.unit]):
            raise InvalidAlgebra("gamma/unit dimensions are inconsistent")
        self.products = sparse_products(gamma)
        self._check_unit()
        self.associative = self.basis_associative()
        if self.classic_limit_functional is not None:
            value = sum(
                c * u for c, u in zip(self.classic_limit_functional, self.unit)
            )
            if value != 1:
                raise InvalidAlgebra("classic-limit functional must be 1 on the unit")

    def zero_vector(self):
        return [0] * self.dim

    def basis_vector(self, i: int):
        vec = self.zero_vector()
        vec[i] = 1
        return vec

    def unit_vector(self):
        return list(self.unit)

    def multiply(self, x, y):
        return structure_multiply(self.products, x, y, self.zero_vector())

    def basis_product(self, n: int, m: int):
        return self.multiply(self.basis_vector(n), self.basis_vector(m))

    @property
    def gamma(self):
        """The dense array gamma[p][q][k], derived from the sparse table."""
        return [
            [self.basis_product(p, q) for q in range(self.dim)]
            for p in range(self.dim)
        ]

    def _check_unit(self) -> None:
        for i in range(self.dim):
            b = self.basis_vector(i)
            if self.multiply(self.unit, b) != b or self.multiply(b, self.unit) != b:
                raise InvalidAlgebra("unit vector is not a two-sided identity")

    @cached_property
    def integer_tensor(self):
        """The structure constants times the lcm of their denominators (which
        moves no nullspace), as the dense tensor T[p, q, k] and as the terms
        of each basis product padded to one width, idx[p, q, s] and
        val[p, q, s] (val 0 pads).  int64 while an associator entry, at most
        2 * width * max|T|^2, stays below 2^62; Python ints beyond."""
        dim, terms = self.dim, [t for row in self.products for t in row]
        scale = math.lcm(*(g.denominator for t in terms for _, g in t))
        width = max(map(len, terms)) or 1
        padded = [list(t) + [(0, 0)] * (width - len(t)) for t in terms]
        idx = np.array([[k for k, _ in t] for t in padded])
        val = integer_basis([[int(g * scale) for _, g in t] for t in padded], width)
        if 2 * width * int(np.abs(val).max()) ** 2 >= INT64_PRODUCT_BOUND:
            val = val.astype(object)
        dense = np.zeros((dim * dim, dim), dtype=val.dtype)
        np.add.at(dense, (np.arange(dim * dim)[:, None], idx), val)  # pads add 0
        shape = (dim, dim, width)
        return dense.reshape(dim, dim, dim), idx.reshape(shape), val.reshape(shape)

    def associators(self, a, b, c):
        """The scaled associators (e_a e_b) e_c - e_a (e_b e_c) for index
        arrays a, b, c broadcast together; the last axis holds the output
        coordinate."""
        dense, idx, val = self.integer_tensor
        a, b, c = map(np.asarray, (a, b, c))  # array indices: gathers copy
        out = 0
        for s in range(idx.shape[2]):
            term = dense[idx[a, b, s], c]
            term *= val[a, b, s, None]
            inner = dense[a, idx[b, c, s]]
            inner *= val[b, c, s, None]
            term -= inner
            out = out + term if s else term
        return out

    def basis_associative(self) -> bool:
        """True when (b_p b_q) b_r == b_p (b_q b_r) for every basis triple:
        associator slabs per first index p, stopping at the first nonzero."""
        r = np.arange(self.dim)
        return not any(self.associators(p, r[q, None], r).any()
                       for p in range(self.dim) for q in blocks(self.dim, self.dim ** 2))

    def to_json_dict(self) -> dict:
        return {
            "kind": "structure_constants",
            "dim": self.dim,
            "unit": [str(u) for u in self.unit],
            "gamma": [
                [[str(g) for g in vec] for vec in row] for row in self.gamma
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StructureAlgebra":
        """Reads ``to_json_dict``'s ``gamma``, a list of rows of coefficient
        lists, and its ``unit`` list, each number by ``exact.parse_number``;
        any other shape raises InvalidAlgebra."""
        gamma, unit = data.get("gamma"), data.get("unit")
        if not isinstance(gamma, list) or not all(
                isinstance(row, list) and all(isinstance(vec, list) for vec in row)
                for row in gamma):
            raise InvalidAlgebra("gamma must be a list of rows of coefficient lists")
        if not isinstance(unit, list):
            raise InvalidAlgebra("unit must be a list of coefficients")
        gamma = [[[parse_number(g) for g in vec] for vec in row] for row in gamma]
        return cls(gamma, [parse_number(u) for u in unit])

    def __repr__(self):
        return f"StructureAlgebra({self.name}, dim={self.dim})"


# -- shipped base algebras ----------------------------------------------------

def real_algebra() -> StructureAlgebra:
    return StructureAlgebra([[[1]]], [1], name="R", classic_limit=[1])


def complex_algebra() -> StructureAlgebra:
    """C as a 2-dimensional structure algebra on (1, i)."""
    gamma = [
        [[1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
    ]
    return StructureAlgebra(gamma, [1, 0], name="C", classic_limit=[1, 0])


def matrix2_algebra() -> StructureAlgebra:
    """M_2(R) on the matrix units (E11, E12, E21, E22)."""
    dim = 4

    def unit_index(i, j):
        return 2 * i + j

    gamma = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    # E_ij E_km = delta_jk E_im
                    if j == k:
                        gamma[unit_index(i, j)][unit_index(k, m)][unit_index(i, m)] = 1
    unit = [1, 0, 0, 1]
    half = Fraction(1, 2)
    return StructureAlgebra(gamma, unit, name="M2(R)",
                            classic_limit=[half, 0, 0, half])


def upper_triangular2_algebra() -> StructureAlgebra:
    """Upper-triangular 2x2 matrices on (E11, E12, E22); noncommutative and
    not semisimple."""
    names = [(0, 0), (0, 1), (1, 1)]
    index = {pair: n for n, pair in enumerate(names)}
    dim = 3
    gamma = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a, (i, j) in enumerate(names):
        for b, (k, m) in enumerate(names):
            if j == k and (i, m) in index:
                gamma[a][b][index[(i, m)]] = 1
    unit = [1, 0, 1]
    half = Fraction(1, 2)
    return StructureAlgebra(gamma, unit, name="UT2(R)",
                            classic_limit=[half, 0, half])


BASE_ALGEBRAS = {
    "real": real_algebra,
    "complex": complex_algebra,
    "mat2": matrix2_algebra,
    "upper2": upper_triangular2_algebra,
}


# ---------------------------------------------------------------------------
# tensor with a doubling algebra
# ---------------------------------------------------------------------------

class TensorAlgebra(StructureAlgebra):
    """B (x) A_r on the basis b_i (x) e_p with index p * dim(B) + i.

    The sparse table is built on first use, as the Kronecker combination of
    B's table with the level-r doubling table: (b_i (x) e_p)(b_j (x) e_q) is
    s * (b_i b_j) (x) e_k for e_p e_q = s * e_k.  Products then run through
    the shared kernel.  Associativity holds exactly when B is associative
    and r <= 2; the flag is re-verified on basis triples for dimensions up
    to 32, which builds the table at construction.
    """

    def __init__(self, base: StructureAlgebra, level: int):
        table = structure_constants(level)
        self.base = base
        self.level = level
        self.cd_dim = table.dim
        self.dim = base.dim * self.cd_dim
        self.name = f"{base.name} (x) A_{level}"
        self.classic_limit_functional = None
        self.unit = self.zero_vector()
        for i, c in enumerate(base.unit):
            self.unit[self.tensor_index(i, 0)] = c
        self.associative = base.associative and level <= 2
        if self.dim <= 32 and self.basis_associative() != self.associative:
            raise InvalidAlgebra("associativity flag disagrees with basis check")

    @cached_property
    def products(self):
        """The sparse table, built on first use: ops that never multiply
        (such as the classic limit) do not pay its dim^2 entries."""
        nb, cd = self.base.dim, range(self.cd_dim)
        sign = structure_constants(self.level).sign
        # shifted[s][i][j][k]: the terms of s * (b_i b_j) (x) e_k, shared
        # by every (p, q) with e_p e_q = s * e_k, k = p ^ q
        shifted = {
            s: [[[tuple((k * nb + kb, s * g) for kb, g in self.base.products[i][j])
                  for k in cd] for j in range(nb)] for i in range(nb)]
            for s in (1, -1)
        }
        return [
            [shifted[sign[p][q]][i][j][p ^ q]
             for q in cd for j in range(nb)]
            for p in cd for i in range(nb)
        ]

    def tensor_index(self, i: int, p: int) -> int:
        return p * self.base.dim + i

    def to_json_dict(self) -> dict:
        # basis_order records the fixed (b_i (x) e_p) -> p * dim(B) + i layout
        return {"B": self.base.to_json_dict(), "level": self.level,
                "basis_order": "cd-major"}

    def __repr__(self):
        return f"TensorAlgebra({self.base.name} (x) A_{self.level}, dim={self.dim})"


def tensor_algebra(base: StructureAlgebra, level: int) -> TensorAlgebra:
    return TensorAlgebra(base, level)


@dataclass
class TensorElement:
    """A vector in a TensorAlgebra; length matches the algebra dimension."""

    algebra: TensorAlgebra
    coeffs: list = field(default_factory=list)

    def __post_init__(self):
        self.coeffs = _exact_vec(self.coeffs)
        if len(self.coeffs) != self.algebra.dim:
            raise AlgebraMismatch(
                f"expected {self.algebra.dim} coefficients, got {len(self.coeffs)}"
            )

    def _require_same(self, other: "TensorElement"):
        if self.algebra is not other.algebra:
            if (self.algebra.level != other.algebra.level
                    or self.algebra.base is not other.algebra.base):
                raise AlgebraMismatch("elements live in different algebras")

    def __add__(self, other):
        self._require_same(other)
        return TensorElement(
            self.algebra, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._require_same(other)
        return TensorElement(
            self.algebra, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return TensorElement(self.algebra, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return qh_multiply(self, other)
        return TensorElement(self.algebra, [a * other for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json_dict(self) -> dict:
        return {
            "B": self.algebra.base.name,
            "level": self.algebra.level,
            "coeffs": [str(c) for c in self.coeffs],
        }


def qh_multiply(x: TensorElement, y: TensorElement) -> TensorElement:
    x._require_same(y)
    return TensorElement(x.algebra, x.algebra.multiply(x.coeffs, y.coeffs))


def pure_tensor(algebra: TensorAlgebra, b_coeffs, cd: CDElement) -> TensorElement:
    """b (x) a for a base vector b and a doubling-algebra element a."""
    if cd.level != algebra.level:
        raise LevelMismatch("doubling level differs from the algebra")
    b_coeffs = _exact_vec(b_coeffs)
    vec = algebra.zero_vector()
    for p, ca in enumerate(cd.coeffs):
        if ca == 0:
            continue
        for i, cb in enumerate(b_coeffs):
            if cb == 0:
                continue
            vec[algebra.tensor_index(i, p)] += cb * ca
    return TensorElement(algebra, vec)


# ---------------------------------------------------------------------------
# centre, nucleus, classic limit, embeddings
# ---------------------------------------------------------------------------

def centre(algebra) -> list:
    """Basis of {x : xb = bx for every b}, the nullspace of all commutator
    operators, one dim x dim slab per basis element b; each returned vector
    is also re-verified to commute through ``multiply``."""
    dim = algebra.dim
    if dim > DEFAULT_CENTRE_CAP:
        raise DimTooLarge(f"centre capped at dimension {DEFAULT_CENTRE_CAP}, got {dim}")
    dense = algebra.integer_tensor[0]
    # [n, k]: (e_n e_j - e_j e_n)_k, the commutator rows of e_j
    basis = certified_nullspace((dense[:, j, :] - dense[j] for j in range(dim)), dim)
    for vec in basis:
        for j in range(dim):
            ej = algebra.basis_vector(j)
            if algebra.multiply(vec, ej) != algebra.multiply(ej, vec):
                raise VerificationError("centre vector fails to commute")
    return basis


def nucleus(algebra) -> list:
    """Basis of {a : [a,b,c] = [b,a,c] = [b,c,a] = 0 for all basis b, c}.

    The 3 dim^3 constraint rows come as slabs, per b and placement of the
    unknown, over every output coordinate and a block of c
    (``exact.blocks``, dim^2 entries per c), so memory stays bounded by
    dim^3 entries although there are 3 dim^4 coefficients.  Refuses
    dimensions above ``DEFAULT_NUCLEUS_CAP`` before reading any table.
    """
    dim = algebra.dim
    if dim > DEFAULT_NUCLEUS_CAP:
        raise DimTooLarge(f"nucleus capped at dimension {DEFAULT_NUCLEUS_CAP}, got {dim}")
    unknown = np.arange(dim)[:, None]
    assoc = algebra.associators

    def slabs():
        for b in range(dim):
            for block in blocks(dim, dim ** 2):
                c = unknown[block].T
                # [n, (c, output coordinate)]
                yield assoc(unknown, b, c).reshape(dim, -1)
                yield assoc(b, unknown, c).reshape(dim, -1)
                yield assoc(b, c, unknown).reshape(dim, -1)

    return certified_nullspace(slabs(), dim)


def classic_limit(x: TensorElement):
    """c_B (x) (half the doubling trace): linear, unital, scalar-valued."""
    c_b = x.algebra.base.classic_limit_functional
    if c_b is None:
        raise NoFunctional(f"{x.algebra.base.name} has no classic-limit functional")
    total = 0
    for i, cf in enumerate(c_b):
        if cf != 0:
            total += cf * x.coeffs[x.algebra.tensor_index(i, 0)]
    return total


def embed_factors(algebra: TensorAlgebra):
    """(embed_base, embed_cd): the unital homomorphisms b -> b (x) 1 and
    a -> e_B (x) a whose images generate the tensor algebra."""

    def embed_base(b_coeffs) -> TensorElement:
        return pure_tensor(algebra, b_coeffs, CDElement.one(algebra.level))

    def embed_cd(a: CDElement) -> TensorElement:
        return pure_tensor(algebra, algebra.base.unit, a)

    return embed_base, embed_cd


def verify_embeddings(algebra: TensorAlgebra) -> dict:
    """Check both embeddings are unital homomorphisms on basis products and
    that they commute elementwise.  Refuses cd_dim^2 * dim above
    ``DEFAULT_EMBEDDING_CAP`` before any product."""
    work = algebra.cd_dim ** 2 * algebra.dim
    if work > DEFAULT_EMBEDDING_CAP:
        raise DimTooLarge(f"embedding check capped at cd_dim^2 * dim = "
                          f"{DEFAULT_EMBEDDING_CAP}, got {work}")
    embed_base, embed_cd = embed_factors(algebra)
    nb = algebra.base.dim
    report = {"base_homomorphism": True, "cd_homomorphism": True,
              "unital": True, "factors_commute": True}
    unit = TensorElement(algebra, algebra.unit_vector())
    if embed_base(algebra.base.unit) != unit or embed_cd(CDElement.one(algebra.level)) != unit:
        report["unital"] = False
    for i in range(nb):
        for j in range(nb):
            bi = algebra.base.basis_vector(i)
            bj = algebra.base.basis_vector(j)
            lhs = qh_multiply(embed_base(bi), embed_base(bj))
            rhs = embed_base(algebra.base.multiply(bi, bj))
            if lhs != rhs:
                report["base_homomorphism"] = False
    for p in range(algebra.cd_dim):
        for q in range(algebra.cd_dim):
            ep = CDElement.basis(algebra.level, p)
            eq = CDElement.basis(algebra.level, q)
            lhs = qh_multiply(embed_cd(ep), embed_cd(eq))
            rhs = embed_cd(ep * eq)
            if lhs != rhs:
                report["cd_homomorphism"] = False
    for i in range(nb):
        for p in range(algebra.cd_dim):
            b = embed_base(algebra.base.basis_vector(i))
            a = embed_cd(CDElement.basis(algebra.level, p))
            if qh_multiply(b, a) != qh_multiply(a, b):
                report["factors_commute"] = False
            if qh_multiply(b, a) != pure_tensor(
                algebra, algebra.base.basis_vector(i), CDElement.basis(algebra.level, p)
            ):
                report["base_homomorphism"] = False
    return report
