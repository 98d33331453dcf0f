from fractions import Fraction

from hyperlab.cayley_dickson import quaternion_type_algebra, structure_constants
from hyperlab.polynomials import Poly
from hyperlab.reference_tables import OCTONION_TABLE, SEDENION_TABLE, compare_with_reference

from oracles import (
    quaternion_type_conjugate,
    quaternion_type_norm,
    quaternion_type_products,
    quaternion_type_trace,
)


def test_generated_octonion_table_is_golden():
    assert compare_with_reference(structure_constants(3), OCTONION_TABLE) == []


def test_octonion_reference_self_consistency():
    # the embedded 8x8 table (cells are (sign, index)) is anti-commutative
    # off the diagonal with every imaginary square equal to -e0
    for i in range(1, 8):
        assert OCTONION_TABLE[i][i] == (-1, 0)
        for j in range(1, 8):
            if i != j:
                si, ki = OCTONION_TABLE[i][j]
                sj, kj = OCTONION_TABLE[j][i]
                assert ki == kj and si == -sj


def test_sedenion_diagnostic_finds_known_bad_cells():
    mismatches = compare_with_reference(structure_constants(4), SEDENION_TABLE)
    cells = {(m.row, m.col) for m in mismatches}
    # the recursion disagrees with the transcription in exactly these cells
    assert cells == {(2, 10), (5, 6), (6, 14), (10, 2), (12, 6), (13, 14)}


def test_sedenion_transcription_not_anticommutative():
    # some of the bad cells even break e_i e_j = -e_j e_i inside the
    # printed table itself, which is why the recursion is ground truth
    violations = []
    for i in range(1, 16):
        for j in range(1, 16):
            if i == j:
                continue
            si, ki = SEDENION_TABLE[i][j]
            sj, kj = SEDENION_TABLE[j][i]
            if (ki, si) != (kj, -sj):
                violations.append((i, j))
    assert violations
    assert set(violations) <= {(5, 6), (6, 5), (6, 14), (14, 6),
                               (12, 6), (6, 12), (13, 14), (14, 13)}


def _basis(n, k):
    vec = [Poly() for _ in range(n)]
    vec[k] = Poly.constant(1)
    return vec


class TestQuaternionTypeSymbolic:
    def setup_method(self):
        self.alpha = Poly.variable("alpha")
        self.beta = Poly.variable("beta")
        self.gamma = Poly.variable("gamma")
        self.F = quaternion_type_algebra(self.alpha, self.beta, self.gamma)

    def test_all_products_match(self):
        expected = quaternion_type_products()
        for (p, q), vec in expected.items():
            got = self.F.multiply(_basis(4, p), _basis(4, q))
            assert all(
                Poly.coerce(g) == Poly.coerce(v) for g, v in zip(got, vec)
            ), (p, q)

    def test_trace_norm_conjugate_formulas(self):
        rho, xi, eta, zeta = (Poly.variable(n) for n in ("rho", "xi", "eta", "zeta"))
        u = [rho, xi, eta, zeta]
        assert Poly.coerce(self.F.trace_of(u)) == quaternion_type_trace(rho, xi, eta, zeta)
        assert Poly.coerce(self.F.norm_of(u)) == quaternion_type_norm(rho, xi, eta, zeta)
        conj = self.F.conjugate_vector(u)
        expected = quaternion_type_conjugate(rho, xi, eta, zeta)
        assert all(Poly.coerce(a) == Poly.coerce(b) for a, b in zip(conj, expected))

    def test_beta_zero_special_case(self):
        alpha, gamma = Poly.variable("alpha"), Poly.variable("gamma")
        F0 = quaternion_type_algebra(alpha, 0 * alpha, gamma)
        expected = quaternion_type_products(alpha, 0 * alpha, gamma)
        for (p, q), vec in expected.items():
            got = F0.multiply(_basis(4, p), _basis(4, q))
            assert all(Poly.coerce(g) == Poly.coerce(v) for g, v in zip(got, vec))
        rho, xi, eta, zeta = (Poly.variable(n) for n in ("rho", "xi", "eta", "zeta"))
        assert Poly.coerce(F0.trace_of([rho, xi, eta, zeta])) == 2 * rho


def test_hamiltonian_type_is_level2_table():
    H = quaternion_type_algebra(Fraction(-1), Fraction(0), Fraction(-1))
    assert H.as_table().sign == structure_constants(2).sign
