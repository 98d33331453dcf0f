"""Sparse multivariate polynomials with exact rational coefficients.

Variables are plain strings and commute formally; a monomial is a sorted
tuple of (name, exponent) pairs, which gives every polynomial a canonical
form so that ``==`` is a real equality test.  Evaluation substitutes values
for variables one monomial at a time; the factors of a monomial are
multiplied left-to-right in the supplied variable order, so the same formal
polynomial can be evaluated in a noncommutative algebra with a definite
product order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import bounded_fraction

_RATIONAL = (int, Fraction)

# the highest degree of a term read from JSON: evaluation multiplies once per
# unit of degree, so this bounds the number of products, not their cost,
# which grows with the size of the values (README.md gives measured costs)
MAX_TERM_DEGREE = 100


def _as_coeff(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, _RATIONAL):
        raise TypeError(f"polynomial coefficients must be rational, got {value!r}")
    return Fraction(value)


class Poly:
    """Immutable polynomial: mapping from monomials to nonzero Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[tuple(sorted(mono))] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({(): _as_coeff(value)})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def coerce(cls, value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return cls.constant(value)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Poly, *_RATIONAL)):
            return NotImplemented
        other = Poly.coerce(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Poly, *_RATIONAL)):
            return NotImplemented
        return self + (-Poly.coerce(other))

    def __rsub__(self, other):
        return Poly.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (Poly, *_RATIONAL)):
            return NotImplemented
        other = Poly.coerce(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                powers = dict(m1)
                for name, exp in m2:
                    powers[name] = powers.get(name, 0) + exp
                mono = tuple(sorted(powers.items()))
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, _RATIONAL) and not isinstance(other, bool):
            other = Poly.coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def variables(self) -> set[str]:
        return {name for mono in self.terms for name, _ in mono}

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exp for _, exp in mono) for mono in self.terms)

    # -- calculus and substitution ------------------------------------------

    def diff(self, name: str) -> "Poly":
        """Formal partial derivative; ordinary commutative power rule."""
        terms = {}
        for mono, coeff in self.terms.items():
            powers = dict(mono)
            exp = powers.get(name, 0)
            if exp == 0:
                continue
            if exp == 1:
                del powers[name]
            else:
                powers[name] = exp - 1
            new_mono = tuple(sorted(powers.items()))
            terms[new_mono] = terms.get(new_mono, Fraction(0)) + coeff * exp
        return Poly(terms)

    def subs(self, assignment: dict) -> "Poly":
        """Substitute rationals or polynomials for some variables."""
        result = Poly()
        for mono, coeff in self.terms.items():
            term = Poly.constant(coeff)
            for name, exp in mono:
                if name in assignment:
                    term = term * Poly.coerce(assignment[name]) ** exp
                else:
                    term = term * Poly.variable(name) ** exp
            result = result + term
        return result

    def evaluate(self, env: dict, one=None, var_order=None):
        """Evaluate with values from ``env``.

        Values may live in any algebra supporting ``+`` between themselves
        and ``*`` by Fraction scalars.  Each monomial's factors multiply
        left-to-right following ``var_order`` (canonical sorted order when
        omitted); ``one`` supplies the multiplicative identity used for the
        constant term when the values are not plain numbers.
        """
        if one is None:
            one = Fraction(1)
        order = {name: i for i, name in enumerate(var_order)} if var_order else None
        total = None
        for mono, coeff in self.terms.items():
            factors = sorted(mono, key=lambda p: order[p[0]]) if order else mono
            value = None
            for name, exp in factors:
                v = env[name]
                for _ in range(exp):
                    value = v if value is None else value * v
            term = coeff * one if value is None else coeff * value
            total = term if total is None else total + term
        if total is None:
            total = 0 * one
        return total

    # -- presentation and serialization -------------------------------------

    def sorted_terms(self, var_order=None):
        def mono_key(mono):
            if var_order is None:
                return mono
            order = {name: i for i, name in enumerate(var_order)}
            return tuple((order.get(n, len(order)), -e) for n, e in mono)

        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    def to_str(self, var_order=None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms(var_order):
            factors = []
            for name, exp in mono:
                factors.append(name if exp == 1 else f"{name}^{exp}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.to_str()})"

    def to_json_dict(self) -> list:
        return [
            {"coeff": str(coeff), "powers": {n: e for n, e in mono}}
            for mono, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json_dict(cls, data) -> "Poly":
        """Terms as ``to_json_dict`` writes them: a rational ``coeff`` (an
        int, finite float or string) and ``powers``, names to ints >= 0
        that sum to at most MAX_TERM_DEGREE."""
        if not isinstance(data, list) or not all(
                isinstance(item, dict) and isinstance(item.get("powers"), dict)
                for item in data):
            raise ValueError('a polynomial must be a list of {"coeff", "powers"} terms')
        terms = {}
        for item in data:
            powers, coeff = item["powers"], item.get("coeff")
            if not all(type(e) is int and e >= 0 for e in powers.values()) or not (
                    type(coeff) in (int, str) or type(coeff) is float and math.isfinite(coeff)):
                raise ValueError(f"term {item!r} needs a finite coeff and powers >= 0")
            if sum(powers.values()) > MAX_TERM_DEGREE:
                raise ValueError(f"a term of degree {sum(powers.values())} is over the "
                                 f"cap of {MAX_TERM_DEGREE}")
            mono = tuple(sorted(powers.items()))
            terms[mono] = terms.get(mono, Fraction(0)) + bounded_fraction(coeff)
        return cls(terms)


def poly_matrix_determinant(matrix) -> Poly:
    """Determinant of a square matrix of polynomials, cofactor expansion."""
    n = len(matrix)
    if n == 0:
        return Poly.constant(1)
    if n == 1:
        return Poly.coerce(matrix[0][0])
    if n == 2:
        a, b = Poly.coerce(matrix[0][0]), Poly.coerce(matrix[0][1])
        c, d = Poly.coerce(matrix[1][0]), Poly.coerce(matrix[1][1])
        return a * d - b * c
    total = Poly()
    for j in range(n):
        entry = Poly.coerce(matrix[0][j])
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        cofactor = entry * poly_matrix_determinant(minor)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total
