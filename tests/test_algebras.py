import random
import time
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import algebras, exact
from hyperlab.algebras import (
    BASE_ALGEBRAS,
    DEFAULT_CENTRE_CAP,
    DimTooLarge,
    InvalidAlgebra,
    NoFunctional,
    StructureAlgebra,
    TensorElement,
    centre,
    classic_limit,
    complex_algebra,
    embed_factors,
    matrix2_algebra,
    nucleus,
    pure_tensor,
    qh_multiply,
    real_algebra,
    tensor_algebra,
    upper_triangular2_algebra,
    verify_embeddings,
)
from hyperlab.cayley_dickson import (
    CDElement,
    cd_multiply,
    cd_multiply_recursive,
    structure_constants,
)
from hyperlab.exact import VerificationError


def multiply_via_regular_representation(x: TensorElement, y: TensorElement):
    """Oracle product through the Kronecker product of the left-regular
    representations; valid when the algebra is associative."""
    alg = x.algebra
    assert alg.associative
    nb, base = alg.base.dim, alg.base

    def rep(element: TensorElement):
        mat = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
        for n, c in enumerate(element.coeffs):
            if c == 0:
                continue
            i, p = n % nb, n // nb
            # column bcol of b_i's left-regular matrix is b_i b_bcol
            cols = [base.multiply(base.basis_vector(i), base.basis_vector(bcol))
                    for bcol in range(nb)]
            for q in range(alg.cd_dim):
                k, s = structure_constants(alg.level).product(p, q)
                for a in range(nb):
                    for bcol in range(nb):
                        if cols[bcol][a] != 0:
                            mat[k * nb + a][q * nb + bcol] += c * s * cols[bcol][a]
        return mat

    rx, ry, unit = rep(x), rep(y), alg.unit_vector()
    # (rep(x) rep(y)) applied to the unit
    ry_unit = [sum(r * u for r, u in zip(row, unit)) for row in ry]
    return TensorElement(alg, [sum(r * v for r, v in zip(row, ry_unit)) for row in rx])


def rescaled_constants(algebra, scales):
    """The structure constants and unit of the algebra on the basis
    f_i = scales[i] e_i: scales[p] scales[q] / scales[k] gamma[p][q][k],
    as Fractions."""
    d = [Fraction(x) for x in scales]
    gamma = [[[g * d[p] * d[q] / d[k] for k, g in enumerate(vec)]
              for q, vec in enumerate(row)] for p, row in enumerate(algebra.gamma)]
    return gamma, [u / d[k] for k, u in enumerate(algebra.unit)]


def rand_element(algebra, rng):
    return TensorElement(
        algebra, [Fraction(rng.randint(-3, 3)) for _ in range(algebra.dim)]
    )


class TestStructureAlgebra:
    def test_shipped_algebras_are_associative_and_unital(self):
        for name, factory in BASE_ALGEBRAS.items():
            algebra = factory()
            assert algebra.associative, name
            assert algebra.classic_limit_functional is not None

    def test_matrix_units(self):
        m2 = matrix2_algebra()
        e12 = m2.basis_vector(1)
        e21 = m2.basis_vector(2)
        assert m2.multiply(e12, e21) == m2.basis_vector(0)  # E12 E21 = E11
        assert m2.multiply(e12, e12) == m2.zero_vector()

    def test_upper_triangular_noncommutative(self):
        ut = upper_triangular2_algebra()
        a = ut.basis_vector(0)  # E11
        b = ut.basis_vector(1)  # E12
        assert ut.multiply(a, b) != ut.multiply(b, a)

    def test_bad_unit_rejected(self):
        gamma = [[[1]]]
        with pytest.raises(InvalidAlgebra):
            StructureAlgebra(gamma, [2])  # 2 is not an identity

    def test_json_roundtrip(self):
        m2 = matrix2_algebra()
        back = StructureAlgebra.from_json_dict(m2.to_json_dict())
        assert back.gamma == m2.gamma and back.unit == m2.unit


class TestTensorAlgebra:
    def test_real_base_reduces_to_plain_table(self):
        alg = tensor_algebra(real_algebra(), 3)
        table = structure_constants(3)
        for p in range(8):
            for q in range(8):
                vec = alg.basis_product(p, q)
                k, s = table.product(p, q)
                expected = [Fraction(0)] * 8
                expected[k] = Fraction(s)
                assert vec == expected

    def test_associativity_flag(self):
        assert tensor_algebra(matrix2_algebra(), 0).associative
        assert tensor_algebra(matrix2_algebra(), 2).associative
        assert not tensor_algebra(matrix2_algebra(), 3).associative
        assert not tensor_algebra(real_algebra(), 3).associative

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("base_name", sorted(BASE_ALGEBRAS))
    def test_pure_tensor_law(self, base_name, level):
        # (a (x) x)(b (x) y) = ab (x) xy on random pure tensors; the doubling
        # factor comes from the recursive product, independent of the table
        rng = random.Random(1)
        alg = tensor_algebra(BASE_ALGEBRAS[base_name](), level)
        nb, nc = alg.base.dim, alg.cd_dim
        for _ in range(20):
            a = [Fraction(rng.randint(-2, 2)) for _ in range(nb)]
            b = [Fraction(rng.randint(-2, 2)) for _ in range(nb)]
            x = CDElement(level, [rng.randint(-2, 2) for _ in range(nc)])
            y = CDElement(level, [rng.randint(-2, 2) for _ in range(nc)])
            lhs = qh_multiply(pure_tensor(alg, a, x), pure_tensor(alg, b, y))
            rhs = pure_tensor(alg, alg.base.multiply(a, b),
                              cd_multiply_recursive(x, y))
            assert lhs == rhs

    def test_real_base_multiplication_is_cd(self):
        alg = tensor_algebra(real_algebra(), 3)
        rng = random.Random(2)
        for _ in range(10):
            x = CDElement(3, [rng.randint(-3, 3) for _ in range(8)])
            y = CDElement(3, [rng.randint(-3, 3) for _ in range(8)])
            lhs = qh_multiply(pure_tensor(alg, [1], x), pure_tensor(alg, [1], y))
            assert lhs.coeffs == [Fraction(c) for c in cd_multiply(x, y).coeffs]

    def test_kronecker_oracle(self):
        alg = tensor_algebra(matrix2_algebra(), 2)
        rng = random.Random(3)
        for _ in range(10):
            x = rand_element(alg, rng)
            y = rand_element(alg, rng)
            assert qh_multiply(x, y) == multiply_via_regular_representation(x, y)

    def test_unit(self):
        alg = tensor_algebra(upper_triangular2_algebra(), 1)
        unit = TensorElement(alg, alg.unit_vector())
        rng = random.Random(4)
        x = rand_element(alg, rng)
        assert qh_multiply(unit, x) == x
        assert qh_multiply(x, unit) == x

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_real_tensor_is_flexible(self, level):
        # a(ba) = (ab)a survives the loss of associativity at every level
        alg = tensor_algebra(real_algebra(), level)
        rng = random.Random(level)
        for _ in range(25):
            a = rand_element(alg, rng)
            b = rand_element(alg, rng)
            assert qh_multiply(a, qh_multiply(b, a)) == \
                qh_multiply(qh_multiply(a, b), a)


class TestCentreNucleus:
    def test_complex_centre_is_everything(self):
        alg = tensor_algebra(real_algebra(), 1)
        assert len(centre(alg)) == 2

    def test_quaternion_centre_is_unit_line(self):
        alg = tensor_algebra(real_algebra(), 2)
        basis = centre(alg)
        assert len(basis) == 1

    def test_matrix_quaternion_centre(self):
        assert len(centre(tensor_algebra(matrix2_algebra(), 2))) == 1

    def test_structure_algebra_centre(self):
        assert len(centre(matrix2_algebra())) == 1
        assert len(centre(complex_algebra())) == 2

    def test_octonion_nucleus_is_unit_line(self):
        assert len(nucleus(tensor_algebra(real_algebra(), 3))) == 1

    def test_structure_algebra_nucleus(self):
        # plain associative algebras: the nucleus is the whole algebra
        assert len(nucleus(matrix2_algebra())) == 4
        assert len(nucleus(upper_triangular2_algebra())) == 3

    def test_associative_algebra_nucleus_is_everything(self):
        alg = tensor_algebra(matrix2_algebra(), 2)
        assert len(nucleus(alg)) == alg.dim

    def test_centre_contained_in_nucleus(self):
        from hyperlab.exact import matrix_rank_exact

        for base, level in [(real_algebra(), 3), (upper_triangular2_algebra(), 2),
                            (real_algebra(), 4)]:
            alg = tensor_algebra(base, level)
            c = centre(alg)
            n = nucleus(alg)
            combined = matrix_rank_exact(n + c)
            assert combined == len(n)  # adding centre vectors adds no rank

    def test_centre_commutative_and_closed(self):
        alg = tensor_algebra(matrix2_algebra(), 2)
        c = centre(alg)
        for u in c:
            for v in c:
                uv = alg.multiply(u, v)
                assert uv == alg.multiply(v, u)
                # closure: uv back in the span of the centre
                from hyperlab.exact import matrix_rank_exact

                assert matrix_rank_exact(c + [uv]) == len(c)

    def test_nucleus_cap(self):
        # dimension 128, over the default cap of 64: refused before any table
        alg = tensor_algebra(matrix2_algebra(), 5)
        with pytest.raises(DimTooLarge):
            nucleus(alg)
        assert "products" not in vars(alg) and "integer_tensor" not in vars(alg)

    def test_centre_cap_is_checked_before_any_table(self):
        alg = tensor_algebra(matrix2_algebra(), 6)
        assert alg.dim > DEFAULT_CENTRE_CAP
        with pytest.raises(DimTooLarge):
            centre(alg)
        assert "products" not in vars(alg) and "integer_tensor" not in vars(alg)

    @pytest.mark.parametrize("base_name", list(BASE_ALGEBRAS))
    @pytest.mark.parametrize("level", range(4))
    def test_slabs_match_the_loop_oracles(self, base_name, level):
        alg = tensor_algebra(BASE_ALGEBRAS[base_name](), level)
        assert centre(alg) == oracles.centre(alg)
        assert nucleus(alg) == oracles.nucleus(alg)

    @pytest.mark.parametrize("base_name", list(BASE_ALGEBRAS))
    @pytest.mark.parametrize("level", range(1, 4))
    def test_blocks_of_one_item_match_the_default_budget(self, base_name, level,
                                                          monkeypatch):
        # one c per nucleus slab and one q per associator array: 3 dim^2
        # slabs instead of 3 dim, and the same answers
        alg = tensor_algebra(BASE_ALGEBRAS[base_name](), level)
        expected = nucleus(alg), alg.basis_associative()
        counted = []

        def count_slabs(slabs, dim):
            slabs = list(slabs)
            counted.append(len(slabs))
            return exact.certified_nullspace(slabs, dim)

        monkeypatch.setattr(algebras, "certified_nullspace", count_slabs)
        monkeypatch.setattr(exact, "SLAB_ENTRIES", 1)
        assert (nucleus(alg), alg.basis_associative()) == expected
        assert counted == [3 * alg.dim ** 2]

    @pytest.mark.parametrize("algebra, scales", [
        (tensor_algebra(real_algebra(), 3), [1, 2, "1/3", 5, "-1/7", 2, 3, "1/2"]),
        (tensor_algebra(upper_triangular2_algebra(), 1), ["1/2", 3, 1, "2/5", 7, "-1/3"]),
        (matrix2_algebra(), [3, "1/2", "2/3", 1]),
        # constants up to 2^80: the integer tensor holds Python ints
        (tensor_algebra(complex_algebra(), 2), [1, 2**40, 1, 3, 2**-40, 1, 5, 1]),
    ])
    def test_rational_structure_constants(self, algebra, scales):
        alg = StructureAlgebra(*rescaled_constants(algebra, scales))
        assert alg.basis_associative() == algebra.associative
        assert centre(alg) == oracles.centre(alg)
        assert nucleus(alg) == oracles.nucleus(alg)
        huge = max(abs(Fraction(x)) for x in scales) > 2**20
        assert (alg.integer_tensor[0].dtype == object) == huge

    def test_failed_certificate_raises(self, monkeypatch):
        # a basis vector that misses a constraint row must not get through
        alg = tensor_algebra(real_algebra(), 3)

        def nullspace_with_extra(rows, dim):
            return oracles.nullspace(rows, dim) + [[Fraction(int(k == 1)) for k in range(dim)]]

        monkeypatch.setattr(exact, "nullspace", nullspace_with_extra)
        with pytest.raises(VerificationError):
            nucleus(alg)
        with pytest.raises(VerificationError):
            centre(alg)

    def test_mat2_a4_nucleus(self):
        # dim 64, the largest algebra under the default nucleus cap
        start = time.perf_counter()
        assert len(nucleus(tensor_algebra(matrix2_algebra(), 4))) == 4
        assert time.perf_counter() - start < 30


class TestClassicLimit:
    def test_unit_maps_to_one(self):
        for factory in BASE_ALGEBRAS.values():
            alg = tensor_algebra(factory(), 2)
            unit = TensorElement(alg, alg.unit_vector())
            assert classic_limit(unit) == 1

    def test_quaternion_components(self):
        alg = tensor_algebra(real_algebra(), 2)
        x = TensorElement(alg, [Fraction(q) for q in (9, 2, -3, 4)])
        assert classic_limit(x) == 9

    def test_linearity(self):
        alg = tensor_algebra(matrix2_algebra(), 1)
        rng = random.Random(8)
        for _ in range(10):
            x = rand_element(alg, rng)
            y = rand_element(alg, rng)
            assert classic_limit(x + y) == classic_limit(x) + classic_limit(y)

    def test_large_algebra_builds_its_table_on_first_product(self):
        # mat2 (x) A_8 has dim 1024: the classic limit needs no products
        alg = tensor_algebra(matrix2_algebra(), 8)
        assert "products" not in vars(alg)
        assert classic_limit(TensorElement(alg, alg.unit_vector())) == 1
        assert "products" not in vars(alg)
        x = alg.basis_vector(alg.tensor_index(1, 3))
        y = alg.basis_vector(alg.tensor_index(2, 5))
        # (b_1 (x) e_3)(b_2 (x) e_5) = (b_1 b_2) (x) e_3 e_5, e_3 e_5 = -e_6
        expected = alg.zero_vector()
        for k, g in alg.base.products[1][2]:
            expected[alg.tensor_index(k, 6)] = -g
        assert alg.multiply(x, y) == expected
        assert "products" in vars(alg)

    def test_missing_functional(self):
        bare = StructureAlgebra([[[1]]], [1])
        alg = tensor_algebra(bare, 1)
        x = TensorElement(alg, alg.unit_vector())
        with pytest.raises(NoFunctional):
            classic_limit(x)


class TestEmbeddings:
    @pytest.mark.parametrize("base_name", sorted(BASE_ALGEBRAS))
    def test_both_embeddings_are_homomorphisms(self, base_name):
        alg = tensor_algebra(BASE_ALGEBRAS[base_name](), 2)
        report = verify_embeddings(alg)
        assert all(report.values()), report

    def test_embeddings_cover_a_basis(self):
        alg = tensor_algebra(matrix2_algebra(), 1)
        embed_base, embed_cd = embed_factors(alg)
        products = []
        for i in range(4):
            for p in range(2):
                b = embed_base(alg.base.basis_vector(i))
                a = embed_cd(CDElement.basis(1, p))
                products.append(qh_multiply(b, a).coeffs)
        from hyperlab.exact import matrix_rank_exact

        assert matrix_rank_exact(products) == alg.dim


# ints (some past 64 bits), integral Fractions and non-integral Fractions;
# TensorElement also takes floats, at their exact binary values
exact_scalars = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.integers(-9, 9).map(Fraction),
    st.fractions(max_denominator=12),
)
tensor_scalars = st.one_of(exact_scalars, st.floats(allow_nan=False, allow_infinity=False))


def vectors(scalars, n):
    return st.lists(scalars, min_size=n, max_size=n)


class TestExactStorage:
    """Stored coefficients are ints exactly when integral, and products
    equal Fraction-only arithmetic."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_structure_products_match_fraction_oracle(self, data):
        base = BASE_ALGEBRAS[data.draw(st.sampled_from(sorted(BASE_ALGEBRAS)))]()
        scales = data.draw(vectors(exact_scalars.filter(bool), base.dim))
        gamma, unit = rescaled_constants(base, scales)
        alg = StructureAlgebra(gamma, unit)
        assert oracles.stored_exactly(
            [*alg.unit, *(g for row in alg.products for terms in row for _, g in terms)])
        elements = vectors(exact_scalars, alg.dim)
        x, y = data.draw(elements), data.draw(elements)
        assert alg.multiply(x, y) == oracles.structure_product(gamma, x, y)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_tensor_products_match_fraction_oracle(self, data):
        base = BASE_ALGEBRAS[data.draw(st.sampled_from(sorted(BASE_ALGEBRAS)))]()
        level = data.draw(st.integers(0, 2))
        alg = tensor_algebra(base, level)
        elements = vectors(tensor_scalars, alg.dim)
        x, y = data.draw(elements), data.draw(elements)
        b = data.draw(vectors(tensor_scalars, base.dim))
        a = data.draw(vectors(exact_scalars, alg.cd_dim))
        tx, ty = TensorElement(alg, x), TensorElement(alg, y)
        product, pure = qh_multiply(tx, ty), pure_tensor(alg, b, CDElement(level, a))
        assert tx.coeffs == [Fraction(c) for c in x]
        assert product.coeffs == oracles.structure_product(
            oracles.tensor_gamma(base.gamma, level), x, y)
        assert pure.coeffs == oracles.pure_tensor_coeffs(b, a)
        for element in (tx, ty, product, pure):
            assert oracles.stored_exactly(element.coeffs)

    @pytest.mark.parametrize("build", [
        lambda: StructureAlgebra([[[True]]], [True]),
        lambda: TensorElement(tensor_algebra(real_algebra(), 0), [True]),
        lambda: pure_tensor(tensor_algebra(real_algebra(), 0), [True], CDElement.one(0)),
    ], ids=["StructureAlgebra", "TensorElement", "pure_tensor"])
    def test_bool_coefficients_are_refused(self, build):
        with pytest.raises(TypeError):
            build()
