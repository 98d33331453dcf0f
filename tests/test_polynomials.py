import random
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.cayley_dickson import CDElement
from hyperlab.polynomials import MAX_TERM_DEGREE, Poly, poly_matrix_determinant


def random_poly(rng, names=("x", "y", "z"), terms=4):
    p = Poly()
    for _ in range(terms):
        mono = Poly.constant(Fraction(rng.randint(-4, 4)))
        for name in names:
            mono = mono * Poly.variable(name) ** rng.randint(0, 3)
        p = p + mono
    return p


def test_canonical_equality():
    x, y = Poly.variable("x"), Poly.variable("y")
    assert x * y == y * x
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert x - x == 0
    assert Poly.constant(3) == 3


def test_derivative_power_rule():
    x = Poly.variable("x")
    p = x ** 4 + 2 * x ** 2 - 7
    assert p.diff("x") == 4 * x ** 3 + 4 * x
    assert p.diff("y") == 0


def test_derivative_linearity_and_leibniz():
    rng = random.Random(0)
    for _ in range(25):
        p = random_poly(rng)
        q = random_poly(rng)
        for name in ("x", "y"):
            assert (p + q).diff(name) == p.diff(name) + q.diff(name)
            assert (p * q).diff(name) == p.diff(name) * q + p * q.diff(name)


def test_mixed_partials_commute():
    rng = random.Random(1)
    for _ in range(25):
        p = random_poly(rng)
        assert p.diff("x").diff("y") == p.diff("y").diff("x")


def test_substitution():
    x, y = Poly.variable("x"), Poly.variable("y")
    p = x ** 2 * y - y
    assert p.subs({"x": 3}) == 8 * y
    assert p.subs({"x": y}) == y ** 3 - y


def test_scalar_evaluation():
    x, y = Poly.variable("x"), Poly.variable("y")
    p = 2 * x * y ** 2 - x + 1
    value = p.evaluate({"x": Fraction(3), "y": Fraction(1, 2)})
    assert value == Fraction(2 * 3, 4) - 3 + 1


def test_noncommutative_evaluation_order():
    # x*y evaluated with quaternion values multiplies in the given order
    x, y = Poly.variable("x"), Poly.variable("y")
    p = x * y
    i = CDElement.basis(2, 1)
    j = CDElement.basis(2, 2)
    k = CDElement.basis(2, 3)
    one = CDElement.one(2)
    env = {"x": i, "y": j}
    assert p.evaluate(env, one=one, var_order=("x", "y")) == k
    assert p.evaluate(env, one=one, var_order=("y", "x")) == -k


def test_constant_term_uses_one():
    p = Poly.constant(Fraction(5))
    one = CDElement.one(3)
    assert p.evaluate({}, one=one) == 5 * one


@pytest.mark.parametrize("coeff, value", [
    (10 ** 400, 0.5),
    (Fraction(10 ** 400, 3), 0.5),
    (10 ** 400, CDElement(1, [0.5, 0])),
])
def test_evaluation_past_the_float_range_is_a_value_error(coeff, value):
    p = coeff * Poly.variable("x")
    with pytest.raises(ValueError, match="evaluation leaves the float range"):
        p.evaluate({"x": value}, one=CDElement.one(1) if isinstance(value, CDElement) else None)


def test_determinant_two_by_two():
    a, b, c, d = (Poly.variable(n) for n in "abcd")
    det = poly_matrix_determinant([[a, b], [c, d]])
    assert det == a * d - b * c


def test_determinant_rank_one_matrix():
    x, y = Poly.variable("x"), Poly.variable("y")
    matrix = [[x, y], [2 * x, 2 * y]]
    assert poly_matrix_determinant(matrix) == 0


def test_determinant_three_by_three_vs_permanent_expansion():
    rng = random.Random(2)
    entries = [[random_poly(rng, names=("x",), terms=2) for _ in range(3)]
               for _ in range(3)]
    det = poly_matrix_determinant(entries)
    # Sarrus
    e = entries
    expected = (
        e[0][0] * e[1][1] * e[2][2] + e[0][1] * e[1][2] * e[2][0]
        + e[0][2] * e[1][0] * e[2][1] - e[0][2] * e[1][1] * e[2][0]
        - e[0][0] * e[1][2] * e[2][1] - e[0][1] * e[1][0] * e[2][2]
    )
    assert det == expected


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Poly.variable("x") ** -1


def test_json_roundtrip():
    x, y = Poly.variable("x"), Poly.variable("y")
    p = Fraction(3, 7) * x ** 2 * y - 5 * y + 2
    assert Poly.from_json_dict(p.to_json_dict()) == p


@pytest.mark.parametrize("data", [
    5,
    [5],
    [{"coeff": "1"}],
    [{"coeff": "1", "powers": 3}],
    [{"coeff": "1", "powers": {"x": -1}}],
    [{"coeff": "1", "powers": {"x": "2"}}],
    [{"coeff": "1", "powers": {"x": True}}],
    [{"coeff": None, "powers": {"x": 1}}],
    [{"coeff": True, "powers": {"x": 1}}],
    [{"coeff": float("inf"), "powers": {"x": 1}}],
    [{"coeff": [1], "powers": {"x": 1}}],
    # evaluation multiplies once per unit of a term's degree
    [{"coeff": "1", "powers": {"x": MAX_TERM_DEGREE + 1}}],
    [{"coeff": "1", "powers": {"x": MAX_TERM_DEGREE, "y": 1}}],
    [{"coeff": "1", "powers": {"x": 10 ** 9}}],
    # Fraction would build the power of ten in full
    [{"coeff": "1e999999999", "powers": {"x": 1}}],
    [{"coeff": "1e-999999999", "powers": {"x": 1}}],
])
def test_malformed_json_is_a_value_error(data):
    with pytest.raises(ValueError):
        Poly.from_json_dict(data)


def test_json_coefficients():
    data = [{"coeff": "-3/2", "powers": {"x": 2}}, {"coeff": 4, "powers": {}},
            {"coeff": 0.5, "powers": {"x": 2}}]
    assert Poly.from_json_dict(data) == 4 - Poly.variable("x") ** 2


def test_term_degree_cap_is_inclusive():
    data = [{"coeff": "1", "powers": {"x": MAX_TERM_DEGREE - 1, "y": 1}}]
    assert Poly.from_json_dict(data).degree() == MAX_TERM_DEGREE


# ints (some past 64 bits), integral Fractions and non-integral Fractions
exact_scalars = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.integers(-9, 9).map(Fraction),
    st.fractions(max_denominator=12),
)
monomials = st.dictionaries(st.sampled_from("xyz"), st.integers(1, 3), max_size=3).map(
    lambda powers: tuple(sorted(powers.items())))
terms = st.dictionaries(monomials, exact_scalars, max_size=4)


@settings(max_examples=80, deadline=None)
@given(f=terms, g=terms, env=st.fixed_dictionaries({n: exact_scalars for n in "xyz"}))
def test_arithmetic_matches_fraction_oracle(f, g, env):
    p, q = Poly(f), Poly(g)
    F, G = oracles.poly_terms(f), oracles.poly_terms(g)
    results = [(p, F), (p + q, oracles.poly_add(F, G)), (p * q, oracles.poly_mul(F, G)),
               *((p.diff(n), oracles.poly_diff(F, n)) for n in "xyz")]
    for poly, expected in results:
        assert poly.terms == expected
        assert oracles.stored_exactly(poly.terms.values())
    assert p.evaluate(env) == oracles.poly_evaluate(F, env)


@pytest.mark.parametrize("terms", [{(): True}, {(("x", 1),): 2.5}],
                         ids=["bool", "float"])
def test_inexact_coefficients_are_refused(terms):
    with pytest.raises(TypeError):
        Poly(terms)
