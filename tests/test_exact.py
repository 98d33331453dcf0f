"""The certified exact kernel against the Fraction oracle and sympy."""

import sys
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import exact
from hyperlab.cayley_dickson import structure_constants
from hyperlab.exact import (
    CERTIFICATE_PRIME,
    NumberTooLarge,
    exact_matmul,
    integer_basis,
    integer_determinant,
    is_scalar,
    matrix_rank_exact,
    matrix_rank_mod_p,
    nullspace,
    parse_number,
    rref,
)

SMALL = st.integers(-9, 9)
RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# entries whose reduced forms overflow every lift, so Bareiss answers
HUGE = st.integers(-10**30, 10**30)


@st.composite
def matrices(draw, entries=st.one_of(SMALL, RATIONAL), max_cols=6, max_rows=6):
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=max_rows))
    if len(rows) >= 2 and draw(st.booleans()):
        # a combination of two rows: rank-deficient matrices are common
        s, t = draw(SMALL), draw(SMALL)
        rows.append([s * x + t * y for x, y in zip(rows[0], rows[1])])
    return rows


def fractions_only(rows):
    return all(type(x) is Fraction for row in rows for x in row)


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(matrices(st.one_of(SMALL, RATIONAL, HUGE)))
    def test_rref_matches_fraction_elimination(self, matrix):
        rows, pivots = rref(matrix)
        expected_rows, expected_pivots = oracles.rref(matrix)
        assert (rows, pivots) == (expected_rows, expected_pivots)
        assert fractions_only(rows)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.integers(0, 2))
    def test_nullspace_matches_oracle(self, matrix, extra):
        ncols = (len(matrix[0]) if matrix else 0) + (0 if matrix else extra)
        assert nullspace(matrix, ncols) == oracles.nullspace(matrix, ncols)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(matrices(st.one_of(SMALL, HUGE)),
                     matrices(st.one_of(SMALL, HUGE), max_cols=4, max_rows=12),
                     matrices(st.one_of(SMALL, HUGE), max_cols=12, max_rows=3)),
           st.lists(st.integers(0, 12), max_size=3))
    def test_bareiss_matches_oracle(self, matrix, zero_rows):
        ncols = len(matrix[0]) if matrix else 0
        for i in zero_rows:
            matrix.insert(min(i, len(matrix)), [0] * ncols)
        rows, pivots = exact._bareiss_rref(matrix, ncols)
        expected, expected_pivots = oracles.rref(matrix)
        assert pivots == expected_pivots
        assert rows == expected[:len(pivots)]

    def test_bareiss_on_a_zero_divisor_operator(self):
        # the left operator of the level-6 zero divisor e3 + e10, 64 x 64 of
        # rank 48
        a = np.zeros(64, dtype=np.int64)
        a[[3, 10]] = 1
        matrix = structure_constants(6).operator(a).tolist()
        rows, pivots = exact._bareiss_rref(matrix, 64)
        expected, expected_pivots = oracles.rref(matrix)
        assert len(pivots) == 48
        assert (rows, pivots) == (expected[:48], expected_pivots)

    def test_input_is_not_modified(self):
        matrix = [[2, 4], [Fraction(1, 3), 5]]
        rref(matrix)
        assert matrix == [[2, 4], [Fraction(1, 3), 5]]


class TestSympy:
    @settings(max_examples=100, deadline=None)
    @given(matrices(max_cols=5))
    def test_rank_rref_and_nullspace(self, matrix):
        sympy = pytest.importorskip("sympy")
        if not matrix or not matrix[0]:
            return
        m = sympy.Matrix(matrix)
        reduced, pivots = m.rref()
        rows, ours = rref(matrix)
        assert matrix_rank_exact(matrix) == m.rank()
        assert list(ours) == list(pivots)
        assert [[sympy.Rational(x.numerator, x.denominator) for x in row]
                for row in rows] == reduced.tolist()
        assert [[sympy.Rational(x.numerator, x.denominator) for x in vec]
                for vec in nullspace(matrix)] == [list(v) for v in m.nullspace()]


@st.composite
def square_matrices(draw, entries=st.one_of(SMALL, HUGE), max_size=7):
    """Square integer matrices from 0 x 0 up; about half of those with two
    or more rows have one row a combination of two others, so they are
    singular."""
    n = draw(st.integers(0, max_size))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        s, t = draw(SMALL), draw(SMALL)
        i = draw(st.integers(2, n - 1))
        rows[i] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
    return rows


class TestDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_matches_fraction_elimination(self, matrix):
        assert integer_determinant(matrix) == oracles.det(matrix)

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(SMALL, max_size=6))
    def test_matches_sympy(self, matrix):
        sympy = pytest.importorskip("sympy")
        n = len(matrix)
        assert integer_determinant(matrix) == sympy.Matrix(n, n, sum(matrix, [])).det()

    @pytest.mark.parametrize("matrix, det", [
        ([], 1),
        ([[0]], 0),
        ([[-7]], -7),
        ([[0, 1], [1, 0]], -1),  # the pivot row moves up
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
        ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 1),
        ([[1, 2], [2, 4]], 0),
        ([[1, 2, 3], [0, 0, 4], [0, 0, 5]], 0),  # no pivot in a later column
    ])
    def test_small_cases(self, matrix, det):
        assert integer_determinant(matrix) == det
        assert integer_determinant(matrix) == oracles.det(matrix)

    def test_input_is_not_modified(self):
        matrix = [[0, 2], [3, 4]]
        assert integer_determinant(matrix) == -6
        assert matrix == [[0, 2], [3, 4]]


class TestCertificate:
    def test_lift_beyond_one_prime_falls_back_to_bareiss(self, monkeypatch):
        # 1/65537 has a denominator past sqrt(p/2) ~ 32768
        calls = {"lift": [], "bareiss": 0}
        lift, bareiss = exact._lift, exact._bareiss_rref

        def spy_lift(residues, p):
            result = lift(residues, p)
            calls["lift"].append((p, result))
            return result

        def spy_bareiss(rows, ncols):
            calls["bareiss"] += 1
            return bareiss(rows, ncols)

        monkeypatch.setattr(exact, "_lift", spy_lift)
        monkeypatch.setattr(exact, "_bareiss_rref", spy_bareiss)
        assert rref([[65537, 1]]) == ([[Fraction(1), Fraction(1, 65537)]], [0])
        # no lift in bound for the one prime, so Bareiss answers
        assert calls["lift"] == [(CERTIFICATE_PRIME, None)]
        assert calls["bareiss"] == 1

    def test_failed_check_retries_every_prime(self, monkeypatch):
        # a check that always fails: the one prime is tried, then Bareiss
        # answers, and the answer is still the exact one
        primes = []
        echelon = exact.echelon_mod_p

        def spy_echelon(m, p=CERTIFICATE_PRIME, reduced=True):
            primes.append(p)
            return echelon(m, p, reduced)

        monkeypatch.setattr(exact, "echelon_mod_p", spy_echelon)
        monkeypatch.setattr(exact, "exact_matmul",
                            lambda a, b: np.ones((a.shape[0], b.shape[1]), dtype=np.int64))
        matrix = [[1, 2, 3], [2, 4, 7], [Fraction(1, 2), 1, 0]]
        assert rref(matrix) == oracles.rref(matrix)
        assert primes == [CERTIFICATE_PRIME]

    def test_wrong_lift_is_never_returned(self, monkeypatch):
        # the prime's lift is corrupted; the check rejects it and Bareiss
        # answers
        lift, seen, bareiss = exact._lift, [], exact._bareiss_rref
        calls = []

        def corrupt(residues, p):
            rows = lift(residues, p)
            rows[0][-1] += 1
            seen.append(p)
            return rows

        def spy_bareiss(rows, ncols):
            calls.append(len(rows))
            return bareiss(rows, ncols)

        monkeypatch.setattr(exact, "_lift", corrupt)
        monkeypatch.setattr(exact, "_bareiss_rref", spy_bareiss)
        matrix = [[1, 2, 3], [4, 5, 6]]
        assert rref(matrix) == oracles.rref(matrix)
        assert seen == [CERTIFICATE_PRIME]
        assert calls == [2]

    @pytest.mark.parametrize("entry", [
        # each vanishes mod the prime, so Bareiss decides it
        CERTIFICATE_PRIME,
        CERTIFICATE_PRIME * 2_147_483_629,
    ])
    def test_prime_multiples_are_decided_exactly(self, entry):
        assert rref([[entry, 0], [0, 0]]) == ([[1, 0], [0, 0]], [0])
        assert matrix_rank_exact([[entry]]) == 1
        assert nullspace([[entry, entry]]) == [[-1, 1]]

    def test_rank_mod_p_is_a_lower_bound(self):
        assert matrix_rank_mod_p([[CERTIFICATE_PRIME, 1], [0, 1]]) == 1
        assert matrix_rank_exact([[CERTIFICATE_PRIME, 1], [0, 1]]) == 2


class TestExactMatmul:
    def test_float_path_is_exact(self):
        a = np.array([[2**25, 3], [-(2**25), 1]], dtype=np.int64)
        b = np.array([[2**25 + 1], [7]], dtype=np.int64)
        assert exact_matmul(a, b).dtype == np.int64
        assert exact_matmul(a, b).tolist() == [[2**50 + 2**25 + 21], [-(2**50) - 2**25 + 7]]

    def test_large_entries_use_python_ints(self):
        a = integer_basis([[2**40, 1], [3, 2**70]], 2)
        assert a.dtype == object
        b = np.array([[2**40 + 1], [-1]], dtype=np.int64)
        assert exact_matmul(a, b).tolist() == [[2**80 + 2**40 - 1], [3 * 2**40 + 3 - 2**70]]

    def test_empty_operands(self):
        assert exact_matmul(np.zeros((2, 0), dtype=np.int64),
                            np.zeros((0, 3), dtype=np.int64)).shape == (2, 3)


class TestBoundedFraction:
    """``parse_number`` reads text as ``Fraction`` does, within a bound on
    the decimal exponent."""

    @pytest.mark.parametrize("value, expected", [
        ("1e5", 100000), ("-1.5E-3", Fraction(-3, 2000)), (" 3/4 ", Fraction(3, 4)),
        ("1_0e1_0", 10 ** 11), (7, 7), (0.5, Fraction(1, 2)),
    ])
    def test_reads_what_fraction_reads(self, value, expected):
        assert parse_number(value) == expected

    def test_exponent_at_the_limit_is_read(self):
        assert parse_number("1e4300") == 10 ** 4300
        assert parse_number("1e-4300") == Fraction(1, 10 ** 4300)

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1e999999999", "-2E-999999999",
                                      "1e" + "9" * 5000, "1e+0_004_301"])
    def test_refuses_an_exponent_past_the_digit_limit(self, text):
        # Fraction itself would build the power of ten: "1e999999999" hangs
        with pytest.raises(NumberTooLarge, match="decimal exponent over 4300"):
            parse_number(text)

    def test_follows_the_interpreter_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert parse_number("1e4301") == 10 ** 4301
            with pytest.raises(NumberTooLarge):
                parse_number("1e5001")
        finally:
            sys.set_int_max_str_digits(limit)


class TestParseNumber:
    @pytest.mark.parametrize("value, expected", [
        ("3", 3), ("6/2", 3), ("2.0", 2), ("-0", 0), (3, 3), (2.0, 2), (10 ** 400, 10 ** 400),
        ("-1/2", Fraction(-1, 2)), ("0.25", Fraction(1, 4)), (0.5, Fraction(1, 2)),
        # a float keeps its exact binary value
        (0.1, Fraction(3602879701896397, 2 ** 55)),
    ])
    def test_integral_values_are_ints(self, value, expected):
        number = parse_number(value)
        assert number == expected
        assert type(number) is type(expected)

    @pytest.mark.parametrize("value", [
        True, False, None, [1], {"a": 1}, float("inf"), float("-inf"), float("nan"),
        "inf", "nan", "Infinity", "abc", "", "1/0", Fraction(1, 2), np.int64(1),
    ])
    def test_refuses_everything_else(self, value):
        with pytest.raises(ValueError):
            parse_number(value)


@pytest.mark.parametrize("value, scalar", [
    (1, True), (-2.5, True), (Fraction(1, 3), True), (np.float64(0.5), True),
    (10 ** 400, True), (True, False), (None, False), ("1", False), (np.int64(1), False),
])
def test_is_scalar(value, scalar):
    assert is_scalar(value) is scalar


class TestBlocks:
    @given(st.integers(0, 70), st.integers(0, 50), st.integers(0, 200))
    def test_consecutive_blocks_of_the_budget(self, count, entries, budget):
        slices = exact.blocks(count, entries, budget)
        size = max(1, budget // max(1, entries))
        assert [list(range(count))[s] for s in slices] == \
            [list(range(lo, min(lo + size, count))) for lo in range(0, count, size)]

    def test_default_budget_is_read_at_the_call(self, monkeypatch):
        assert exact.blocks(5, 1) == [slice(0, exact.SLAB_ENTRIES)]
        monkeypatch.setattr(exact, "SLAB_ENTRIES", 2)
        assert exact.blocks(5, 1) == [slice(0, 2), slice(2, 4), slice(4, 6)]
        assert exact.blocks(5, 3) == [slice(k, k + 1) for k in range(5)]
        assert exact.blocks(5, 1, 5) == [slice(0, 5)]
