"""The certified exact kernel against the Fraction oracle and sympy."""

import sys
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import exact
from hyperlab.exact import (
    CERTIFICATE_PRIME,
    CERTIFICATE_PRIMES,
    NumberTooLarge,
    bounded_fraction,
    exact_matmul,
    integer_basis,
    matrix_rank_exact,
    matrix_rank_mod_p,
    nullspace,
    rref,
)

SMALL = st.integers(-9, 9)
RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# entries whose reduced forms overflow every lift, so Bareiss answers
HUGE = st.integers(-10**30, 10**30)


@st.composite
def matrices(draw, entries=st.one_of(SMALL, RATIONAL), max_cols=6):
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=6))
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

    @settings(max_examples=200, deadline=None)
    @given(matrices(st.one_of(SMALL, HUGE)))
    def test_bareiss_matches_oracle(self, matrix):
        ncols = len(matrix[0]) if matrix else 0
        rows, pivots = exact._bareiss_rref(matrix, ncols)
        expected, expected_pivots = oracles.rref(matrix)
        assert pivots == expected_pivots
        assert rows == expected[:len(pivots)]

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
        # no lift in bound for the first prime; the second gives a wrong
        # small rational (-32767/32750), which the exact check rejects
        assert calls["lift"] == [
            (CERTIFICATE_PRIMES[0], None),
            (CERTIFICATE_PRIMES[1], [[Fraction(1), Fraction(-32767, 32750)]]),
        ]
        assert calls["bareiss"] == 1

    def test_failed_check_retries_every_prime(self, monkeypatch):
        # a check that always fails: every prime is tried, then Bareiss
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
        assert primes == list(CERTIFICATE_PRIMES)

    def test_wrong_lift_is_never_returned(self, monkeypatch):
        # the first prime's lift is corrupted; the check rejects it
        lift, seen = exact._lift, []

        def corrupt_first(residues, p):
            rows = lift(residues, p)
            if not seen:
                rows[0][-1] += 1
            seen.append(p)
            return rows

        monkeypatch.setattr(exact, "_lift", corrupt_first)
        matrix = [[1, 2, 3], [4, 5, 6]]
        assert rref(matrix) == oracles.rref(matrix)
        assert seen == list(CERTIFICATE_PRIMES)

    @pytest.mark.parametrize("entry", [
        CERTIFICATE_PRIME,  # vanishes mod the first prime only
        CERTIFICATE_PRIMES[0] * CERTIFICATE_PRIMES[1],  # mod both: Bareiss
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
    @pytest.mark.parametrize("value, expected", [
        ("1e5", 100000), ("-1.5E-3", Fraction(-3, 2000)), (" 3/4 ", Fraction(3, 4)),
        ("1_0e1_0", 10 ** 11), (7, 7), (0.5, Fraction(1, 2)),
    ])
    def test_reads_what_fraction_reads(self, value, expected):
        assert bounded_fraction(value) == expected

    def test_exponent_at_the_limit_is_read(self):
        assert bounded_fraction("1e4300") == 10 ** 4300
        assert bounded_fraction("1e-4300") == Fraction(1, 10 ** 4300)

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1e999999999", "-2E-999999999",
                                      "1e" + "9" * 5000, "1e+0_004_301"])
    def test_refuses_an_exponent_past_the_digit_limit(self, text):
        # Fraction itself would build the power of ten: "1e999999999" hangs
        with pytest.raises(NumberTooLarge, match="decimal exponent over 4300"):
            bounded_fraction(text)

    def test_follows_the_interpreter_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert bounded_fraction("1e4301") == 10 ** 4301
            with pytest.raises(NumberTooLarge):
                bounded_fraction("1e5001")
        finally:
            sys.set_int_max_str_digits(limit)
