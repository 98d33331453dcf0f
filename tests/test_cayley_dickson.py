import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.cayley_dickson import (
    INT64_PRODUCT_BOUND,
    VECTOR_MIN_LEVEL,
    CDElement,
    ConjugatedAlgebra,
    ExhaustiveBasis,
    InvalidConjugation,
    LevelMismatch,
    LevelTooLarge,
    NormZero,
    RandomSample,
    associator,
    cayley_extension,
    cd_multiply,
    cd_multiply_recursive,
    commutator,
    conjugate,
    find_zero_divisors,
    identity_battery,
    inverse_quadratic,
    is_operator_invertible,
    norm_sq,
    quadratic_algebra,
    quaternion_to_complex_matrix,
    quaternion_type_algebra,
    structure_constants,
    structure_multiply_rows,
    trace,
)
from hyperlab import cayley_dickson, exact
from hyperlab.cayley_dickson import (
    _DenseBatch,
    _int64_product_fits,
    _MonomialBatch,
    _power_associative,
    _SampleStream,
)
from hyperlab.exact import CERTIFICATE_PRIME, VerificationError, matrix_rank_mod_p


def e(r, k, scale=1):
    return CDElement.basis(r, k, scale)


def rational_element(r, rng):
    return CDElement(
        r, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(1 << r)]
    )


SCALARS = {
    "int": st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40)),
    "fraction": st.fractions(min_value=-5, max_value=5, max_denominator=7),
    # dyadic floats: every partial sum is exact, so any summation order agrees
    "dyadic-float": st.integers(-64, 64).map(lambda n: n / 8),
}


@st.composite
def element_pair(draw, kind):
    level = draw(st.integers(0, 7))
    vec = st.lists(SCALARS[kind], min_size=1 << level, max_size=1 << level)
    return CDElement(level, draw(vec)), CDElement(level, draw(vec))


def exact_invertible(a):
    # the Fraction oracle, independent of the certified modular kernel
    dim = 1 << a.level
    return (len(oracles.rref(oracles.left_multiplication_matrix(a))[1]) == dim,
            len(oracles.rref(oracles.right_multiplication_matrix(a))[1]) == dim)


class TestMultiplication:
    def test_unit_law_all_levels(self):
        rng = random.Random(0)
        for r in range(0, 5):
            one = CDElement.one(r)
            x = rational_element(r, rng)
            assert cd_multiply(one, x) == x
            assert cd_multiply(x, one) == x

    def test_octonion_basis_products(self):
        # e1 e2 = e3 and e2 e4 = e6 in the 8-dimensional algebra
        assert cd_multiply(e(3, 1), e(3, 2)) == e(3, 3)
        assert cd_multiply(e(3, 2), e(3, 4)) == e(3, 6)

    def test_sedenion_annihilating_pair(self):
        a = e(4, 3) + e(4, 10)
        b = e(4, 6) - e(4, 15)
        assert cd_multiply(a, b).is_zero()

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            cd_multiply(e(2, 1), e(3, 1))

    def test_recursion_agrees_with_table(self):
        # two independent implementations of the same product
        rng = random.Random(11)
        for r in range(0, 7):
            for _ in range(8):
                x = CDElement(r, [rng.randint(-3, 3) for _ in range(1 << r)])
                y = CDElement(r, [rng.randint(-3, 3) for _ in range(1 << r)])
                assert cd_multiply(x, y) == cd_multiply_recursive(x, y)

    @pytest.mark.parametrize("kind", sorted(SCALARS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_kernel_agrees_with_recursion(self, kind, data):
        a, b = data.draw(element_pair(kind))
        product = cd_multiply(a, b)
        assert product == cd_multiply_recursive(a, b)
        assert list(map(type, product.coeffs)) == list(
            map(type, oracles.table_loop_product(a, b)))

    @pytest.mark.parametrize("magnitude, vectorised", [(2 ** 20, True),
                                                        (2 ** 40, False)])
    def test_int64_bound_both_sides(self, magnitude, vectorised):
        # level 6: 64 * (2^20)^2 = 2^46 takes int64, 64 * (2^40)^2 = 2^86
        # would overflow it and must stay on Python ints
        assert VECTOR_MIN_LEVEL <= 6
        rng = random.Random(magnitude)
        for _ in range(6):
            a, b = (CDElement(6, [magnitude] + [rng.randint(-magnitude, magnitude)
                                                for _ in range(63)]) for _ in range(2))
            assert _int64_product_fits(a.coeffs, b.coeffs) == vectorised
            assert cd_multiply(a, b) == cd_multiply_recursive(a, b)

    @pytest.mark.parametrize("level, nonzeros, gathered", [
        (4, 2, False), (4, 3, True), (6, 8, False), (6, 9, True),
        (8, 32, False), (8, 33, True), (8, 256, True)])
    def test_int_products_route_by_nonzero_counts(self, monkeypatch, level, nonzeros,
                                                  gathered):
        # the gather once nonzeros^2 exceeds dim^2 / GATHER_TERM_RATIO
        assert cayley_dickson.GATHER_TERM_RATIO == 64
        calls = []
        kernel = cayley_dickson.structure_multiply
        monkeypatch.setattr(cayley_dickson, "structure_multiply",
                            lambda *args: calls.append(1) or kernel(*args))
        rng = random.Random(level * nonzeros)
        a, b = (CDElement(level, [0] * (1 << level)) for _ in range(2))
        for x in (a, b):
            for k in rng.sample(range(1 << level), nonzeros):
                x.coeffs[k] = rng.choice([-3, -2, -1, 1, 2, 3])
        assert cd_multiply(a, b) == cd_multiply_recursive(a, b)
        assert calls == ([] if gathered else [1])

    def test_int64_bound_is_strict(self):
        # dim * max|a| * max|b| equal to 2^62 stays on Python ints
        assert INT64_PRODUCT_BOUND == 2 ** 62
        below = [2 ** 28 - 1] * 64
        at = [-(2 ** 28)] * 64
        assert _int64_product_fits(below, at)
        assert not _int64_product_fits(at, at)
        assert not _int64_product_fits([1.0] * 64, [1] * 64)
        assert not _int64_product_fits([Fraction(1)] * 64, [1] * 64)

    @pytest.mark.parametrize("level", range(0, 8))
    def test_float_products_bit_identical_to_table_loop(self, level):
        # sparse and dense operands; signed zeros, infinities and values
        # whose products overflow must land exactly where the loop puts them
        rng = random.Random(level)
        special = [0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324]

        def draw(density):
            if rng.random() >= density:
                return rng.choice([0.0, -0.0])
            return rng.choice(special) if rng.random() < 0.2 else rng.uniform(-3, 3)

        for density in (0.2, 0.5, 0.8, 1.0):
            a, b = (CDElement(level, [draw(density) for _ in range(1 << level)])
                    for _ in range(2))
            expected = oracles.table_loop_product(a, b)
            assert list(map(repr, cd_multiply(a, b).coeffs)) == list(map(repr, expected))

    @pytest.mark.parametrize("level", range(0, 7))
    @pytest.mark.parametrize("slab", [1, exact.SLAB_ENTRIES])
    def test_row_products_bit_identical_to_the_table_loop(self, level, slab, monkeypatch):
        # every coefficient as the loop leaves it, as a float: +0.0 where
        # no term arrives and the loop keeps the int 0; rows of zeros,
        # infinities and NaN among them, in blocks of one row or one block
        rng = random.Random(100 + level)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
        dim = 1 << level

        def draw(density):
            if rng.random() >= density:
                return rng.choice([0.0, -0.0])
            return rng.choice(special) if rng.random() < 0.2 else rng.uniform(-3, 3)

        pairs = [[[draw(density) for _ in range(dim)] for _ in range(2)]
                 for density in (0.0, 0.2, 0.5, 0.8, 1.0) for _ in range(4)]
        monkeypatch.setattr(exact, "SLAB_ENTRIES", slab)
        values = structure_multiply_rows(level, [x for x, _ in pairs], [y for _, y in pairs])
        for (x, y), row in zip(pairs, values.tolist()):
            expected = oracles.table_loop_product(CDElement(level, x), CDElement(level, y))
            assert list(map(repr, row)) == [repr(float(c)) for c in expected]

    @pytest.mark.parametrize("level", range(1, 6))
    def test_recursive_float_product_bit_identical_to_the_gamma_formula(self, level):
        # the recursive product subtracts where the doubling formula reads
        # u + gamma * v with gamma = -1; signed zeros must land the same
        def by_formula(x, y):
            if len(x) == 1:
                return [x[0] * y[0]]
            h = len(x) // 2
            a, b, c, d = x[:h], x[h:], y[:h], y[h:]

            def conj(v):
                return [v[0]] + [-t for t in v[1:]]

            first = [u + -1 * v for u, v in zip(by_formula(a, c), by_formula(conj(d), b))]
            return first + [u + v for u, v in zip(by_formula(d, a), by_formula(b, conj(c)))]

        rng = random.Random(level)
        special = [0.0, -0.0, math.inf, 1e308, -1e308, 5e-324]
        for _ in range(20):
            a, b = ([rng.choice(special) if rng.random() < 0.6 else rng.uniform(-3, 3)
                     for _ in range(1 << level)] for _ in range(2))
            product = cd_multiply_recursive(CDElement(level, a), CDElement(level, b))
            assert list(map(repr, product.coeffs)) == list(map(repr, by_formula(a, b)))

    @pytest.mark.parametrize("gamma", [-1.0, Fraction(-1)])
    def test_doubling_by_a_non_int_minus_one_multiplies(self, gamma):
        # gamma * v makes the integer zeros of the base's products take
        # gamma's type, as u - v would not
        doubled = cayley_extension(quadratic_algebra(-1, 0), gamma)
        assert [type(x) for x in doubled.mult[1][1]] == [type(gamma)] * 2 + [int] * 2

    def test_products_above_the_level_cap(self):
        # the cap guards the level-taking functions, not elements built
        # directly: level 9 runs the int64 gather and the kernel (about 128
        # nonzeros each, enough for the gather)
        rng = random.Random(9)
        ints = [CDElement(9, [rng.randint(-3, 3) if rng.random() < 0.3 else 0
                              for _ in range(512)]) for _ in range(2)]
        fracs = [CDElement(9, [Fraction(c, 3) if c else 0 for c in x.coeffs])
                 for x in ints]
        for a, b in (ints, fracs):
            assert cd_multiply(a, b) == cd_multiply_recursive(a, b)

    def test_bilinearity(self):
        rng = random.Random(5)
        a, b, c = (rational_element(3, rng) for _ in range(3))
        s = Fraction(3, 2)
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (s * a) * b == s * (a * b)


class TestConjugationTraceNorm:
    def test_conjugate_unit_and_basis(self):
        assert conjugate(CDElement.one(3)) == CDElement.one(3)
        assert conjugate(e(3, 5)) == -e(3, 5)

    def test_involution(self):
        rng = random.Random(2)
        x = rational_element(4, rng)
        assert conjugate(conjugate(x)) == x

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                    min_size=8, max_size=8),
           st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                    min_size=8, max_size=8))
    def test_conjugation_antihomomorphism(self, xs, ys):
        u = CDElement(3, xs)
        v = CDElement(3, ys)
        assert conjugate(u * v) == conjugate(v) * conjugate(u)

    def test_trace_and_norm_values(self):
        assert norm_sq(CDElement.one(3)) == 1
        assert norm_sq(e(4, 3) + e(4, 10)) == 2
        assert trace(e(3, 0, 3) + e(3, 2, 5)) == 6
        x = e(3, 0, 3) + e(3, 2, 5)
        assert trace(conjugate(x)) == trace(x)
        assert norm_sq(conjugate(x)) == norm_sq(x)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                    min_size=16, max_size=16))
    def test_quadraticity(self, xs):
        # x^2 - T(x) x + N(x) = 0 at the zero-divisor level too
        x = CDElement(4, xs)
        lhs = x * x - trace(x) * x + norm_sq(x) * CDElement.one(4)
        assert lhs.is_zero()


class TestInverse:
    def test_basic_inverses(self):
        assert inverse_quadratic(CDElement.one(3)) == CDElement.one(3)
        assert inverse_quadratic(e(3, 1)) == -e(3, 1)

    def test_zero_divisor_has_quadratic_inverse_but_singular_operator(self):
        a = e(4, 3) + e(4, 10)
        inv = inverse_quadratic(a)
        assert inv == (-e(4, 3) - e(4, 10)) / 2
        assert a * inv == CDElement.one(4)
        assert inv * a == CDElement.one(4)
        assert is_operator_invertible(a) == (False, False)

    def test_norm_zero_raises(self):
        with pytest.raises(NormZero):
            inverse_quadratic(CDElement.zero(3))

    def test_operator_invertibility_matches_norm_up_to_octonions(self):
        rng = random.Random(7)
        for r in range(0, 4):
            for _ in range(10):
                x = CDElement(r, [rng.randint(-2, 2) for _ in range(1 << r)])
                expected = norm_sq(x) != 0
                assert is_operator_invertible(x) == (expected, expected)

    def test_zero_element(self):
        assert is_operator_invertible(CDElement.zero(4)) == (False, False)
        assert is_operator_invertible(e(3, 1)) == (True, True)

    def test_sides_select_operators(self):
        a = e(4, 3) + e(4, 10)
        assert is_operator_invertible(a, sides=("left",)) == (False,)
        assert is_operator_invertible(e(4, 1), sides=("right", "left")) == (True, True)

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_zero_divisors_agree_with_exact_rank(self, level):
        pairs = find_zero_divisors(4)[::500]
        assert len(pairs) >= 3
        for a, b in pairs:
            for x in (a, b):
                lifted = CDElement(level, x.coeffs + [0] * ((1 << level) - 16))
                assert is_operator_invertible(lifted) == exact_invertible(lifted)
                assert is_operator_invertible(lifted) == (False, False)
        # zero divisors outside the sedenion block, as the d'Alembert scans use
        top = (1 << level) - 16
        x = e(level, top + 3) + e(level, top + 10, -1)
        assert is_operator_invertible(x) == exact_invertible(x)

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_random_elements_agree_with_exact_rank(self, level):
        # a unit part and three imaginary terms, as the d'Alembert scans use:
        # sparse enough for the Fraction oracle at level 6
        rng = random.Random(level)
        for _ in range(3):
            coeffs = [0] * (1 << level)
            coeffs[0] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            for k in rng.sample(range(1, 1 << level), 3):
                coeffs[k] = rng.choice([-3, -2, -1, 1, 2, 3])
            x = CDElement(level, coeffs)
            assert is_operator_invertible(x) == exact_invertible(x) == (True, True)

    @pytest.mark.parametrize("level", [0, 4, 6])
    def test_certificate_prime_multiple_falls_back_to_exact(self, level):
        # p * e0 is singular mod p, so only the exact fallback can answer
        x = CDElement(level, [CERTIFICATE_PRIME] + [0] * ((1 << level) - 1))
        assert matrix_rank_mod_p(oracles.left_multiplication_matrix(x)) == 0
        assert is_operator_invertible(x) == exact_invertible(x) == (True, True)
        y = x + e(level, level and 3, CERTIFICATE_PRIME)
        assert is_operator_invertible(y) == exact_invertible(y)

    def test_fraction_scaling_keeps_rank(self):
        # denominators are cleared before reducing mod p
        x = CDElement(4, [Fraction(1, CERTIFICATE_PRIME)] + [Fraction(1, 3)] * 15)
        assert is_operator_invertible(x) == exact_invertible(x)


class TestAssociatorCommutator:
    def test_quaternions_associate(self):
        assert associator(e(2, 1), e(2, 2), e(2, 3)).is_zero()

    def test_octonion_associator_value(self):
        assert associator(e(3, 1), e(3, 2), e(3, 4)) == e(3, 7, 2)

    def test_alternating_on_octonion_basis(self):
        basis = [e(3, k) for k in range(8)]
        for a in basis:
            for b in basis:
                assert associator(a, a, b).is_zero()
                assert associator(a, b, b).is_zero()

    def test_totally_skew_on_basis_triples(self):
        basis = [e(3, k) for k in range(8)]
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    base = associator(basis[i], basis[j], basis[k])
                    assert associator(basis[j], basis[i], basis[k]) == -base
                    assert associator(basis[i], basis[k], basis[j]) == -base

    def test_commutator(self):
        assert commutator(e(2, 1), e(2, 2)) == e(2, 3, 2)
        assert commutator(e(2, 1), e(2, 1)).is_zero()


class TestStructureConstants:
    def test_complex_table(self):
        t = structure_constants(1)
        assert t.product(1, 1) == (0, -1)
        assert t.product(0, 1) == (1, 1)

    def test_rows_and_columns_zero_are_identity(self):
        for r in (2, 3, 4):
            t = structure_constants(r)
            for k in range(t.dim):
                assert t.product(0, k) == (k, 1)
                assert t.product(k, 0) == (k, 1)

    def test_anticommutativity_and_squares_at_level_4(self):
        t = structure_constants(4)
        for i in range(1, 16):
            assert t.product(i, i) == (0, -1)
            for j in range(1, 16):
                if i != j:
                    ki, si = t.product(i, j)
                    kj, sj = t.product(j, i)
                    assert ki == kj and si == -sj

    def test_one_cached_table_per_level(self):
        assert structure_constants(4) is structure_constants(4)
        assert structure_constants(4).products is structure_constants(4).products

    def test_level_cap(self):
        with pytest.raises(LevelTooLarge):
            structure_constants(9)
        with pytest.raises(LevelTooLarge):
            structure_constants(-1)

    def test_sign_table_matches_recursion(self):
        # e_p e_q = sign[p][q] e_{p ^ q} for every basis pair, against the
        # recursive product, which reads no table: e_p x for x = sum of
        # (q + 1) e_q has coefficient (q + 1) sign[p][q] at p ^ q
        for r in range(0, 8):
            t = structure_constants(r)
            x = CDElement(r, [q + 1 for q in range(t.dim)])
            for p in range(t.dim):
                expected = [0] * t.dim
                for q in range(t.dim):
                    expected[p ^ q] = (q + 1) * t.sign[p][q]
                assert cd_multiply_recursive(e(r, p), x).coeffs == expected

    def test_dense_gamma_sparsity(self):
        t = structure_constants(2)
        gamma = t.dense_gamma()
        for p in range(4):
            for q in range(4):
                nonzero = [(k, v) for k, v in enumerate(gamma[p][q]) if v]
                assert len(nonzero) == 1
                assert nonzero[0][1] in (1, -1)


class TestIdentityBattery:
    def test_level2_exhaustive_all_pass(self):
        report = identity_battery(2, ExhaustiveBasis())
        assert report.all_passed()

    def test_level3_exhaustive(self):
        report = identity_battery(3, ExhaustiveBasis())
        assert not report.passed("associative")
        assert report.witness("associative") == (e(3, 1), e(3, 2), e(3, 4))
        for name in ("left_alternative", "right_alternative", "flexible",
                     "moufang_a", "moufang_b", "moufang_c",
                     "power_associative", "norm_multiplicative"):
            assert report.passed(name), name

    def test_level4_random(self):
        report = identity_battery(4, RandomSample(count=300, seed=1))
        assert report.passed("flexible")
        assert report.passed("power_associative")
        assert not report.passed("left_alternative")
        assert not report.passed("norm_multiplicative")
        a, b = report.witness("norm_multiplicative")
        # the probe pair is deterministic and recomputable
        assert a == e(4, 3) + e(4, 10)
        assert b == e(4, 6) - e(4, 15)
        assert norm_sq(a * b) == 0
        assert norm_sq(a) * norm_sq(b) == 4

    def test_witnesses_recheck(self):
        report = identity_battery(4, RandomSample(count=50, seed=3))
        for name, verdict in report.verdicts.items():
            if verdict.witness is None:
                continue
            if name == "associative":
                a, b, c = verdict.witness
                assert (a * b) * c != a * (b * c)
            elif name == "left_alternative":
                a, b = verdict.witness
                assert (a * a) * b != a * (a * b)

    def test_seed_determinism(self):
        r1 = identity_battery(4, RandomSample(count=40, seed=9))
        r2 = identity_battery(4, RandomSample(count=40, seed=9))
        assert r1.to_json_dict() == r2.to_json_dict()


def _same_json(report, expected):
    return json.dumps(report.to_json_dict()) == json.dumps(expected.to_json_dict())


class TestBatteryMatchesLoopOracle:
    """The slab battery against the per-sample ``CDElement`` loop: same
    samples, witnesses and ``checked`` counts, byte for byte."""

    @pytest.mark.parametrize("r", range(6))
    def test_exhaustive(self, r):
        assert _same_json(identity_battery(r), oracles.identity_battery(r))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 9, 20])
    @pytest.mark.parametrize("r", range(7))
    def test_random_sample(self, r, count, seed):
        mode = RandomSample(count=count, seed=seed)
        assert _same_json(identity_battery(r, mode), oracles.identity_battery(r, mode))

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("r", range(3))
    def test_random_sample_at_the_count_cap(self, r, seed):
        mode = RandomSample(count=1000, seed=seed)
        assert _same_json(identity_battery(r, mode), oracles.identity_battery(r, mode))

    # (level, first slab, cap, identity, witness position in its slab): the
    # known exhaustive witnesses, associative at tuple 84 of level 3 and 292
    # of level 4, moufang_b at 300 of level 4, moved onto slab edges
    @pytest.mark.parametrize("r, first, cap, name, edge", [
        (3, 84, 1 << 16, "associative", "first"),
        (3, 1, 2, "associative", "last"),
        (4, 4, 4, "associative", "first"),
        (4, 1, 2, "associative", "last"),
        (4, 100, 100, "moufang_b", "first"),
        (4, 1, 2, "moufang_b", "last"),
    ])
    def test_witness_on_the_edge_of_a_later_slab(
            self, monkeypatch, r, first, cap, name, edge):
        monkeypatch.setattr(_MonomialBatch, "first", first)
        monkeypatch.setattr(_MonomialBatch, "cap", cap)
        report = identity_battery(r)
        pos = report.verdicts[name].checked - 1
        start, size = 0, first
        while start + size <= pos:
            start, size = start + size, min(2 * size, cap)
        assert start > 0
        assert pos == (start if edge == "first" else start + size - 1)
        assert _same_json(report, oracles.identity_battery(r))

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_sample_tuples_fill_one_array(self, arity):
        # a level-8 slab holds one tuple; each slab draws into the array
        # allocated for all of the arity's tuples, not a longer copy
        batch = _DenseBatch(8, RandomSample(count=6, seed=1))
        assert batch.cap == 1
        batch.slab(arity, 0, 1)
        tuples = batch.drawn[arity][1]
        assert tuples.shape == (arity, batch.total(arity), 256)
        for start in range(1, batch.total(arity)):
            batch.slab(arity, start, start + 1)
            assert batch.drawn[arity][1] is tuples

    def test_overflow_bound_is_a_verification_error(self, monkeypatch):
        # the deepest check, z^6 at level 2, reaches 3^6 * 4^5 = 746,496
        monkeypatch.setattr(cayley_dickson, "INT64_PRODUCT_BOUND", 746_496)
        with pytest.raises(VerificationError):
            identity_battery(2, RandomSample(count=1, seed=0))
        monkeypatch.setattr(cayley_dickson, "INT64_PRODUCT_BOUND", 746_497)
        identity_battery(2, RandomSample(count=1, seed=0))


def _randint_loop(seed, n):
    rng = random.Random(seed)
    return [rng.randint(-3, 3) for _ in range(n)]


def _first_rejection(seed):
    """The number of values the randint loop returns before it reads its
    first rejected 32-bit word (top three bits 7)."""
    rng, accepted = random.Random(seed), 0
    while rng.getrandbits(32) >> 29 != 7:
        accepted += 1
    return accepted


class TestSampleStream:
    """The bulk reader against one ``randint(-3, 3)`` call per value."""

    SPLITS = [1, 7, 100, 3, 5000]

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32, 2 ** 64 + 3, 10 ** 30, -1, -987654321,
                                      5 * 7919 + 1, 5 * 7919 + 2, 31 * 7919 + 3])
    def test_uneven_splits_read_the_randint_stream(self, seed):
        stream = _SampleStream(seed)
        values = np.concatenate([stream.take(n) for n in self.SPLITS])
        assert values.dtype == np.int64
        assert values.tolist() == _randint_loop(seed, sum(self.SPLITS))

    @pytest.mark.parametrize("seed", [0, 7, -3])
    def test_a_split_next_to_a_rejected_word(self, seed):
        # a split ends where the loop next reads a rejected word, and the
        # following one starts after it; ``k + 1`` ends a split right
        # after that rejection
        k = _first_rejection(seed)
        for splits in ([k, 50], [k + 1, 50], [1] * (k + 2)):
            stream = _SampleStream(seed)
            values = np.concatenate([stream.take(n) for n in splits])
            assert values.tolist() == _randint_loop(seed, sum(splits))

    def test_every_value_of_a_long_run(self):
        stream = _SampleStream(11)
        for _ in range(40):
            stream.take(3)
        assert stream.take(20_000).tolist() == _randint_loop(11, 20_120)[120:]


class TestDenseBatchOperators:
    def test_powers_build_five_operators(self):
        batch = _DenseBatch(4, RandomSample(count=6, seed=0))
        (z,) = batch.slab(1, 0, 4)
        assert _power_associative(batch, z).all()
        assert sorted(side for _, side in batch.operators) == ["left"] * 4 + ["right"]

    def test_buffers_are_kept_across_slabs(self):
        # a level-8 slab holds one sample; the second slab writes its
        # operators into the first slab's buffers
        batch = _DenseBatch(8, RandomSample(count=2, seed=4))
        _power_associative(batch, *batch.slab(1, 0, 1))
        buffers = list(batch.buffers)
        assert len(buffers) == 5
        _power_associative(batch, *batch.slab(1, 1, 2))
        assert all(x is y for x, y in zip(batch.buffers, buffers, strict=True))

    def test_products_match_cd_multiply(self):
        batch = _DenseBatch(3, RandomSample(count=8, seed=2))
        a, b, c = batch.slab(3, 0, 8)
        rows = {"ab": batch.mul(a, b), "(ab)c": batch.mul(batch.mul(a, b), c),
                "a(bc)": batch.mul(a, batch.mul(b, c)), "bb": batch.mul(b, b)}
        for n in range(8):
            x, y, w = (CDElement(3, v[n].tolist()) for v in (a, b, c))
            assert rows["ab"][n].tolist() == (x * y).coeffs
            assert rows["(ab)c"][n].tolist() == ((x * y) * w).coeffs
            assert rows["a(bc)"][n].tolist() == (x * (y * w)).coeffs
            assert rows["bb"][n].tolist() == (y * y).coeffs


class TestSharedWitnesses:
    @pytest.mark.parametrize("r", [4, 6, 8])
    def test_failures_on_one_tuple_share_its_dicts(self, r):
        report = identity_battery(r, RandomSample(count=1, seed=5))
        witnesses = [v["witness"] for v in report.to_json_dict()["identities"]
                     if "witness" in v]
        dicts = [d for w in witnesses for d in w]
        assert len(witnesses) == 7
        assert (len(dicts), len({id(d) for d in dicts})) == (18, 5)
        assert _same_json(report, oracles.identity_battery(r, RandomSample(count=1, seed=5)))


class TestHurwitz:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_norm_multiplicative_up_to_octonions(self, r):
        rng = random.Random(100 + r)
        for _ in range(200):
            a = rational_element(r, rng)
            b = rational_element(r, rng)
            assert norm_sq(a * b) == norm_sq(a) * norm_sq(b)


def zero_divisors_oracle(r):
    """The O(K^2) search: every ordered pair of two-term signed candidates
    s_i e_i + s_j e_j (1 <= i < j, ordered by (i, j, s_i, s_j)), the
    product summed term by term from the structure constants."""
    table = structure_constants(r)
    dim = table.dim
    keys = [(i, si, j, sj)
            for i in range(1, dim) for j in range(i + 1, dim)
            for si in (1, -1) for sj in (1, -1)]

    def prod_is_zero(a, b):
        acc = [0] * dim
        for p, sp in ((a[0], a[1]), (a[2], a[3])):
            for q, sq in ((b[0], b[1]), (b[2], b[3])):
                acc[p ^ q] += sp * sq * table.sign[p][q]
        return not any(acc)

    def build(key):
        i, si, j, sj = key
        return CDElement.basis(r, i, si) + CDElement.basis(r, j, sj)

    return [(build(a), build(b)) for a in keys for b in keys if prod_is_zero(a, b)]


def index_pairs(pairs):
    return {tuple(k for k, c in enumerate(x.coeffs) if c) for pair in pairs for x in pair}


class TestZeroDivisors:
    @pytest.mark.parametrize("level", range(6))
    def test_ordered_pairs_equal_the_quadratic_oracle(self, level):
        assert find_zero_divisors(level) == zero_divisors_oracle(level)

    @pytest.mark.parametrize("level, assessors", [(4, 42), (5, 294)])
    def test_distinct_index_pairs(self, level, assessors):
        # de Marrais's "42 assessors" at level 4
        assert len(index_pairs(find_zero_divisors(level))) == assessors

    def test_level4_pairs_vanish_under_the_recursive_product(self):
        pairs = find_zero_divisors(4)
        assert len(pairs) == 1344
        for a, b in pairs:
            assert cd_multiply_recursive(a, b).is_zero()

    def test_pairs_hold_ints(self):
        for a, b in find_zero_divisors(5)[::97]:
            assert {type(c) for c in a.coeffs + b.coeffs} == {int}

    def test_empty_below_level_4(self):
        assert find_zero_divisors(2) == []
        assert find_zero_divisors(3) == []

    def test_level4_contains_canonical_pair(self):
        pairs = find_zero_divisors(4)
        a = e(4, 3) + e(4, 10)
        b = e(4, 6) - e(4, 15)
        assert (a, b) in [(p, q) for p, q in pairs]
        # every reported pair annihilates and is built from nonzero factors
        for p, q in pairs:
            assert not p.is_zero() and not q.is_zero()
            assert (p * q).is_zero()

    def test_deterministic_order(self):
        assert find_zero_divisors(4) == find_zero_divisors(4)


class TestCayleyExtension:
    def test_hamiltonian_quaternions(self):
        H = cayley_extension(quadratic_algebra(Fraction(-1), Fraction(0)),
                             Fraction(-1))
        i = [0, 1, 0, 0]
        j = [0, 0, 1, 0]
        k = [0, 0, 0, 1]
        assert H.multiply(i, j) == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
        assert H.multiply(j, i) == [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)]
        assert H.multiply(i, i)[0] == -1
        assert H.as_table().sign == structure_constants(2).sign

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    def test_doubling_reproduces_next_level(self, r):
        doubled = cayley_extension(oracles.conjugated_from_level(r), Fraction(-1))
        table = doubled.as_table()
        expected = structure_constants(r + 1)
        assert table.sign == expected.sign

    def test_iterated_doubling_from_reals(self):
        one = Fraction(1)
        algebra = ConjugatedAlgebra(mult=[[[one]]], conj=[[one]])
        for r in range(1, 6):
            algebra = cayley_extension(algebra, Fraction(-1))
            table = algebra.as_table()
            expected = structure_constants(r)
            assert table.sign == expected.sign

    def test_as_table_needs_the_xor_index(self):
        # i^2 = +i: every entry is a signed basis vector, but e_1 e_1 lands
        # on e_1, not on e_{1 XOR 1} = e_0
        algebra = quadratic_algebra(Fraction(0), Fraction(1))
        with pytest.raises(ValueError, match="XOR"):
            algebra.as_table()

    def test_type_111_trace(self):
        F = cayley_extension(quadratic_algebra(Fraction(1), Fraction(1)), Fraction(1))
        u = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]  # e + i
        assert F.trace_of(u) == 3  # 2*1 + 1*1

    def test_invalid_conjugation_rejected(self):
        base = quadratic_algebra(Fraction(-1), Fraction(0))
        base.conj[1] = [Fraction(0), Fraction(1)]  # identity map: u*conj(u) not scalar
        with pytest.raises(InvalidConjugation):
            cayley_extension(base, Fraction(-1))

    # (alpha, beta, gamma) of a quaternion-type algebra and the gamma' that
    # doubles it to dimension 8; no gamma' is -1
    OCTONION_TYPES = [
        (Fraction(-1), Fraction(0), Fraction(-1), Fraction(2)),
        (Fraction(1), Fraction(1), Fraction(1), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(-1, 2), Fraction(3), Fraction(-5, 2)),
        (Fraction(-3), Fraction(2), Fraction(1, 2), Fraction(1)),
        (Fraction(1, 4), Fraction(0), Fraction(-2), Fraction(-3)),
        (Fraction(5), Fraction(-1, 3), Fraction(-3, 4), Fraction(3, 4)),
    ]

    @staticmethod
    def _norm_multiplicative(algebra, rng):
        x, y = ([Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(algebra.dim)]
                for _ in range(2))
        return algebra.norm_of(algebra.multiply(x, y)) == algebra.norm_of(x) * algebra.norm_of(y)

    @pytest.mark.parametrize("alpha, beta, gamma, gamma2", OCTONION_TYPES)
    def test_octonion_type_norm_is_multiplicative(self, alpha, beta, gamma, gamma2):
        # the double of an associative quaternion-type algebra is alternative,
        # so N(uv) = N(u)N(v) for every gamma'.  A swapped operand in the
        # formula goes unseen over a commutative base (dimension 4) but breaks
        # this; the double of the double is not multiplicative, which shows
        # that the check can fail
        rng = random.Random(8)
        octonions = cayley_extension(quaternion_type_algebra(alpha, beta, gamma), gamma2)
        assert all(self._norm_multiplicative(octonions, rng) for _ in range(30))
        sedenions = cayley_extension(octonions, gamma2)
        assert not all(self._norm_multiplicative(sedenions, rng) for _ in range(10))


def _conjugated_tables(dim, products, conj):
    """Dense ``mult`` and ``conj`` of a ConjugatedAlgebra from sparse ones:
    ``products[p, q]`` and ``conj[p]`` map a basis index to its coefficient.
    A product b_p b_q left out is the other factor when p or q is 0, and
    zero otherwise."""
    def dense(terms):
        vec = [Fraction(0)] * dim
        for k, c in terms.items():
            vec[k] = Fraction(c)
        return vec
    mult = [[dense(products.get((p, q), {p + q: 1} if 0 in (p, q) else {}))
             for q in range(dim)] for p in range(dim)]
    return mult, [dense(conj[p]) for p in range(dim)]


def _broken_axioms(mult, conj):
    """The axioms ``ConjugatedAlgebra.validate`` checks that the tables
    break, each evaluated directly on the dense tables."""
    n = len(mult)

    def times(x, y):
        return [sum(x[p] * y[q] * mult[p][q][k] for p in range(n) for q in range(n))
                for k in range(n)]

    def bar(x):
        return [sum(x[p] * conj[p][k] for p in range(n)) for k in range(n)]

    def scalar(x):
        return not any(x[1:])

    basis = [[int(k == p) for k in range(n)] for p in range(n)]
    pairs = [(u, v) for u in basis for v in basis]
    holds = {
        "left unit": all(times(basis[0], u) == u for u in basis),
        "right unit": all(times(u, basis[0]) == u for u in basis),
        "involution": all(bar(bar(u)) == u for u in basis),
        "fixes the unit": bar(basis[0]) == basis[0],
        "trace scalar": all(scalar([a + b for a, b in zip(u, bar(u))]) for u in basis),
        "polar form scalar": all(
            scalar([a + b for a, b in zip(times(u, bar(v)), times(v, bar(u)))])
            for u, v in pairs),
        "anti-endomorphism": all(bar(times(u, v)) == times(bar(v), bar(u))
                                 for u, v in pairs),
    }
    return {name for name, ok in holds.items() if not ok}


_STANDARD_CONJ = {0: {0: 1}, 1: {1: -1}, 2: {2: -1}}

# One input per InvalidConjugation message of validate, in the order it
# checks them: (dimension, sparse products, sparse conjugation, the axioms the
# input breaks, the message).  Only the anti-endomorphism can be broken
# alone.  The axioms are not independent:
# - with the unit fixed, u + conj(u) scalar makes conj an involution;
# - the unit, an involution and an anti-endomorphism fix the unit
#   (conj(e) is then a two-sided unit), and with the unit fixed they make a
#   one-sided unit two-sided;
# - u conj(v) + v conj(u) at v = e is u + conj(u);
# - with an involutive anti-endomorphism, u conj(v) + v conj(u) is the
#   trace of u conj(v).
# So no single-axiom input reaches the left unit, right unit, involution,
# moves-the-unit, u + conj(u) or u*conj(v) + v*conj(u) message; each input
# below breaks the named axiom and one other.
_INVALID_CONJUGATIONS = [
    pytest.param(2, {(0, 1): {0: 1, 1: 1}, (1, 1): {0: -1}}, _STANDARD_CONJ,
                 {"left unit", "anti-endomorphism"},
                 "first basis vector is not a left unit", id="left unit"),
    pytest.param(2, {(1, 0): {0: 1, 1: 1}, (1, 1): {0: -1}}, _STANDARD_CONJ,
                 {"right unit", "anti-endomorphism"},
                 "first basis vector is not a right unit", id="right unit"),
    pytest.param(1, {}, {0: {}}, {"involution", "fixes the unit"},
                 "conjugation is not an involution", id="involution"),
    pytest.param(1, {}, {0: {0: -1}}, {"fixes the unit", "anti-endomorphism"},
                 "conjugation moves the unit", id="moves the unit"),
    pytest.param(2, {(1, 1): {0: -1}}, {0: {0: 1}, 1: {1: 1}},
                 {"trace scalar", "polar form scalar"},
                 "u + conj(u) is not a multiple of the unit", id="trace"),
    pytest.param(2, {(1, 1): {1: 1}}, _STANDARD_CONJ,
                 {"polar form scalar", "anti-endomorphism"},
                 "u*conj(v) + v*conj(u) is not a multiple of the unit", id="polar form"),
    pytest.param(3, {(1, 2): {0: 1}, (2, 1): {0: -1}}, _STANDARD_CONJ,
                 {"anti-endomorphism"},
                 "conjugation is not an anti-endomorphism", id="anti-endomorphism"),
]


class TestValidate:
    def test_complex_numbers_break_nothing(self):
        mult, conj = _conjugated_tables(2, {(1, 1): {0: -1}}, _STANDARD_CONJ)
        assert _broken_axioms(mult, conj) == set()
        assert ConjugatedAlgebra(mult, conj).norm_of([Fraction(3), Fraction(4)]) == 25

    @pytest.mark.parametrize("dim, products, conj, broken, message", _INVALID_CONJUGATIONS)
    def test_each_message(self, dim, products, conj, broken, message):
        mult, conj = _conjugated_tables(dim, products, conj)
        assert _broken_axioms(mult, conj) == broken
        with pytest.raises(InvalidConjugation, match=f"^{re.escape(message)}$"):
            ConjugatedAlgebra(mult, conj)

    @pytest.mark.parametrize("mult, conj", [
        ([[[1, 0]]], [[1]]),  # a product vector longer than the dimension
        ([[[1]]], [[1, 0]]),  # a conjugate longer than the dimension
        ([[[1]]], [[1], [0]]),  # more conjugates than basis vectors
        ([[[1]], [[0]]], [[1]]),  # two rows of one product each
        ([], []),  # no unit basis vector
    ])
    def test_table_shapes_checked(self, mult, conj):
        with pytest.raises(InvalidConjugation, match="dimensions are inconsistent"):
            ConjugatedAlgebra(mult, conj)


class TestPauli:
    def test_unit_maps_to_identity(self):
        m = quaternion_to_complex_matrix(CDElement.one(2))
        assert m == [[1 + 0j, 0j], [0j, 1 - 0j]]

    def test_i_image(self):
        m = quaternion_to_complex_matrix(e(2, 1))
        assert m == [[1j, 0j], [0j, -1j]]

    def test_homomorphism_on_random_quaternions(self):
        rng = random.Random(42)

        def matmul(a, b):
            return [
                [a[0][0] * b[0][0] + a[0][1] * b[1][0],
                 a[0][0] * b[0][1] + a[0][1] * b[1][1]],
                [a[1][0] * b[0][0] + a[1][1] * b[1][0],
                 a[1][0] * b[0][1] + a[1][1] * b[1][1]],
            ]

        for _ in range(25):
            p = CDElement(2, [rng.randint(-5, 5) for _ in range(4)])
            q = CDElement(2, [rng.randint(-5, 5) for _ in range(4)])
            lhs = quaternion_to_complex_matrix(p * q)
            rhs = matmul(quaternion_to_complex_matrix(p),
                         quaternion_to_complex_matrix(q))
            for i in range(2):
                for j in range(2):
                    assert abs(lhs[i][j] - rhs[i][j]) < 1e-12

    def test_spin_matrices_square_to_identity(self):
        for s in oracles.pauli_matrices():
            prod = [
                [s[0][0] * s[0][0] + s[0][1] * s[1][0],
                 s[0][0] * s[0][1] + s[0][1] * s[1][1]],
                [s[1][0] * s[0][0] + s[1][1] * s[1][0],
                 s[1][0] * s[0][1] + s[1][1] * s[1][1]],
            ]
            assert abs(prod[0][0] - 1) < 1e-12 and abs(prod[1][1] - 1) < 1e-12
            assert abs(prod[0][1]) < 1e-12 and abs(prod[1][0]) < 1e-12

    def test_level_checked(self):
        with pytest.raises(LevelMismatch):
            quaternion_to_complex_matrix(e(3, 1))


class TestSerialization:
    def test_element_roundtrip(self):
        x = CDElement(3, [Fraction(1, 2), 0, -3, Fraction(5, 7), 0, 0, 1, 0])
        back = CDElement.from_json_dict(x.to_json_dict())
        assert back == x

    def test_integral_text_loads_as_int(self):
        x = CDElement.from_json_dict(
            {"level": 3, "coeffs": ["3", "-1", "6/2", "2.0", "1/2", "0.25", 5, "0"]})
        assert x.coeffs == [3, -1, 3, 2, Fraction(1, 2), Fraction(1, 4), 5, 0]
        assert [type(c) for c in x.coeffs] == [int] * 4 + [Fraction] * 2 + [int, int]

    def test_loaded_integer_point_takes_the_int64_path(self, monkeypatch):
        from hyperlab import cayley_dickson as cd

        # text integers, nonzero in 51 and 55 of the 64 coefficients: dense
        # enough for the gather (sparse operands take structure_multiply)
        x = CDElement.from_json_dict({"level": 6, "coeffs": [str(k % 5 - 2) for k in range(64)]})
        y = CDElement.from_json_dict({"level": 6, "coeffs": [str(2 - k % 7) for k in range(64)]})
        real = cd.MultiplicationTable.operator
        calls = []

        def spy(table, coeffs, side="left"):
            calls.append((table.level, coeffs.dtype, side))
            return real(table, coeffs, side)

        monkeypatch.setattr(cd.MultiplicationTable, "operator", spy)
        product = x * y
        assert calls == [(6, np.int64, "right")]
        assert product == cd_multiply_recursive(x, y)

    def test_stock_constructors_check_only_the_callers_scale(self, monkeypatch):
        from hyperlab import cayley_dickson as cd

        checked = []
        real = cd.is_scalar
        monkeypatch.setattr(cd, "is_scalar", lambda c: checked.append(c) or real(c))
        built = [CDElement.zero(3), CDElement.one(3), CDElement.basis(3, 5),
                 CDElement.basis(3, -1, Fraction(1, 2)), CDElement.basis(2, 1, 0.5)]
        assert checked == [1, Fraction(1, 2), 0.5]
        monkeypatch.undo()
        assert [(x.level, x.coeffs) for x in built] == [
            (3, [0] * 8), (3, [1] + [0] * 7), (3, [0] * 5 + [1, 0, 0]),
            (3, [0] * 7 + [Fraction(1, 2)]), (2, [0, 0.5, 0, 0])]
        assert built == [CDElement(3, [0] * 8), CDElement(3, [1] + [0] * 7),
                         *(CDElement(x.level, x.coeffs) for x in built[2:])]

    @pytest.mark.parametrize("k, scale, error", [
        (8, 1, IndexError), (-9, 1, IndexError), (1.0, 1, TypeError),
        (1, True, TypeError), (1, "1", TypeError), (1, None, TypeError),
        # a bad k raises before the scale is looked at
        (8, "1", IndexError),
    ])
    def test_basis_rejects_bad_arguments(self, k, scale, error):
        with pytest.raises(error):
            CDElement.basis(3, k, scale)

    def test_constructor_rejects_bad_coefficients(self):
        with pytest.raises(TypeError):
            CDElement(1, [True, 0])
        with pytest.raises(TypeError):
            CDElement(1, ["1", 0])
        with pytest.raises(TypeError):
            CDElement(1, [None, 0])
        with pytest.raises(ValueError):
            CDElement(2, [1, 2, 3])
        with pytest.raises(ValueError):
            CDElement.from_json_dict({"level": 1, "coeffs": ["1", "x"]})

    @pytest.mark.parametrize("data", [
        {"level": 1, "coeffs": ["1", "inf"]}, {"level": 1, "coeffs": ["nan", "0"]},
        {"level": 1, "coeffs": [True, 0]}, {"level": 1, "coeffs": [None, 0]},
        {"level": 1, "coeffs": "10"}, {"level": 1}, {"level": 9, "coeffs": ["0"] * 512},
        {"level": -1, "coeffs": []}, {"level": True, "coeffs": ["1", "0"]},
        {"level": 1.0, "coeffs": ["1", "0"]}, {"level": 1, "coeffs": ["1"]},
    ])
    def test_reader_checks_level_and_coefficients(self, data):
        with pytest.raises(ValueError):
            CDElement.from_json_dict(data)

    def test_table_export(self):
        t = structure_constants(3)
        assert t.to_json_dict() == {"kind": "cayley_dickson", "level": 3}
