import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import abelian
from hyperlab.abelian import (
    TRIVIAL,
    FGAbelianGroup,
    InfiniteGroup,
    Z,
    cyclic,
    cyclic_homology,
    decompose,
    euler_characteristic,
    ext,
    extension_count,
    hom,
    iso_check,
    parse_group,
    smith_normal_form,
    sphere_homology,
    tensor,
)

small_divisors = st.lists(st.integers(min_value=0, max_value=24), max_size=4)


class TestCanonicalForm:
    def test_divisibility_chain(self):
        g = FGAbelianGroup.from_divisors(2, 4, 8, 3, 9, 5, 0, 0)
        assert g.rank == 2
        assert g.torsion == (2, 12, 360)

    def test_unit_divisors_dropped(self):
        assert FGAbelianGroup.from_divisors(1, 1, 1) == TRIVIAL

    def test_crt_recombination(self):
        assert FGAbelianGroup.from_divisors(15) == FGAbelianGroup.from_divisors(3, 5)
        assert FGAbelianGroup.from_divisors(8) != FGAbelianGroup.from_divisors(4, 2)
        assert FGAbelianGroup.from_divisors(4, 2) != FGAbelianGroup.from_divisors(2, 2, 2)

    def test_coprime_split_sweep(self):
        for p in range(2, 13):
            for q in range(2, 13):
                split = cyclic(p).direct_sum(cyclic(q))
                assert iso_check(cyclic(p * q), split) == (gcd(p, q) == 1)

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))

    def test_order(self):
        assert cyclic(28).order() == 28
        assert TRIVIAL.order() == 1
        with pytest.raises(InfiniteGroup):
            Z.order()

    @settings(max_examples=80, deadline=None)
    @given(small_divisors)
    def test_from_divisors_is_canonical(self, divisors):
        g = FGAbelianGroup.from_divisors(*divisors)
        for a, b in zip(g.torsion, g.torsion[1:]):
            assert b % a == 0
        random.Random(0).shuffle(divisors)
        assert FGAbelianGroup.from_divisors(*divisors) == g

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0, 1, 2, 4, 8, 12, 36]),
                              st.integers(min_value=-5000, max_value=5000)),
                    max_size=10))
    def test_gcd_lcm_matches_factoring_oracle(self, divisors):
        g = FGAbelianGroup.from_divisors(*divisors)
        assert (g.rank, g.torsion) == oracles.invariant_factors(divisors)

    def test_large_prime_needs_no_factoring(self):
        p = 1000000000000000003
        assert FGAbelianGroup.from_divisors(p, 2, 0).torsion == (2 * p,)
        assert FGAbelianGroup.from_divisors(p * p, p, 2 * p).torsion == (p, p, 2 * p * p)


class TestSmithNormalForm:
    def test_already_diagonal(self):
        factors, *_ = smith_normal_form([[2, 0], [0, 4]])
        assert factors == [2, 4]

    def test_gcd_lcm_normalization(self):
        factors, *_ = smith_normal_form([[2, 0], [0, 3]])
        assert factors == [1, 6]

    def test_zero_matrix(self):
        factors, *_ = smith_normal_form([[0, 0, 0], [0, 0, 0]])
        assert factors == [0, 0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.integers())
    def test_random_matrices_verify(self, m, n, seed):
        # smith_normal_form re-checks U M V = D, diagonality, divisibility
        # and unimodularity internally before returning
        rng = random.Random(seed)
        matrix = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        factors, u, v, d = smith_normal_form(matrix)
        assert len(factors) == min(m, n)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=8),
           st.integers())
    # both certificates: det M != 0, then a singular square and a wide M
    @example(5, 5, 5, 0).via("the det M certificate")
    @example(5, 5, 3, 0).via("the inverse certificate, singular")
    @example(3, 6, 3, 0).via("the inverse certificate, rectangular")
    def test_matches_determinant_oracle(self, m, n, rank, seed):
        # a product of m x r and r x n factors has rank at most r; r = 0
        # gives the zero matrix
        rng = random.Random(seed)
        left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(m)]
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rank)]
        matrix = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                  if rank else [0] * n for row in left]
        assert smith_normal_form(matrix) == oracles.smith_normal_form(matrix)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.integers())
    def test_factors_match_sympy(self, m, n, seed):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(seed)
        matrix = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)]
        factors, *_ = smith_normal_form(matrix)
        d = sympy_snf(sympy.Matrix(matrix), domain=sympy.ZZ)
        assert factors == [abs(int(d[i, i])) for i in range(min(m, n))]

    def test_verification_survives_optimize_flag(self):
        # under python -O a bare assert would vanish; the check must not
        out = _verify_under_optimize([[2, 0], [0, 3]], "d[1][1] += 1")
        assert out.startswith("1 VerificationError"), out

    @pytest.mark.parametrize("tamper, message", [
        # U^-1 that is not U's inverse; U * M = D * V^-1 still holds
        ("u_inv[0][1] += 1", "U*U^-1 is not the identity"),
        # det U = 2 with D scaled to match, so U * M * V = D still holds
        ("u[2] = [2 * x for x in u[2]]; d[2][2] *= 2; factors[2] *= 2",
         "U*U^-1 is not the identity"),
        # V enters only V^-1 * V = I
        ("v[0][1] += 1", "V^-1*V is not the identity"),
        # D and its factors changed together, so only U * M = D * V^-1 sees it
        ("d[2][2] += factors[1]; factors[2] = d[2][2]", "U*M does not equal D*V^-1"),
    ])
    def test_tampered_certificate_rejected(self, tamper, message):
        matrix = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        out = _verify_under_optimize(matrix, tamper)
        assert out == f"1 VerificationError {message}\n", out

    @pytest.mark.parametrize("tamper, message", [
        # det U = 2 with D scaled to match, so U * M * V = D still holds
        ("u[2] = [2 * x for x in u[2]]; d[2][2] *= 2; factors[2] *= 2",
         "product of the factors is not +-det M"),
        ("v[0][1] += 1", "U*M*V does not equal D"),
        # the divisibility chain still holds
        ("d[2][2] += factors[1]; factors[2] = d[2][2]", "U*M*V does not equal D"),
        ("d[0][1] = 1", "D not diagonal"),
    ])
    def test_tampered_det_certificate_rejected(self, tamper, message):
        matrix = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]  # det M = -144
        out = _verify_under_optimize(matrix, tamper, by_det=True)
        assert out == f"1 VerificationError {message}\n", out

    @pytest.mark.parametrize("matrix, expected", [
        ([], ([], [], [], [])),
        ([[]], ([], [[1]], [], [[]])),
        ([[0]], ([0], [[1]], [[1]], [[0]])),
        ([[1, 2], [2, 4]],
         ([1, 0], [[1, 0], [-2, 1]], [[1, -2], [0, 1]], [[1, 0], [0, 0]])),
        ([[2, 4, 4, -1, 3], [-6, 6, 12, 0, 5], [10, -4, -16, 7, -2]],
         ([1, 1, 6], [[-1, 0, 0], [0, 1, 0], [-7, 5, -1]],
          [[0, 0, 0, 1, 0], [0, 1, -5, -39, 28], [0, 0, 0, 0, 1],
           [1, 1, -2, -10, 8], [0, -1, 6, 48, -36]],
          [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 6, 0, 0]])),
    ])
    def test_edge_cases_pinned(self, matrix, expected):
        assert smith_normal_form(matrix) == expected

    @pytest.mark.parametrize("matrix, route", [
        ([], "det"),
        ([[-3]], "det"),
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], "det"),
        ([[0]], "inverse"),
        ([[1, 2], [2, 4]], "inverse"),
        ([[]], "inverse"),
        ([[1, 2, 3]], "inverse"),
        ([[1], [2], [3]], "inverse"),
        ([[2, 4, 4, -1, 3], [-6, 6, 12, 0, 5], [10, -4, -16, 7, -2]], "inverse"),
    ])
    def test_certificate_route(self, monkeypatch, matrix, route):
        # a square M with det M != 0 never reaches the inverse certificate;
        # singular and rectangular ones always do
        calls = []

        def spy(name, label):
            real = getattr(abelian, name)

            def verify(*args):
                calls.append(label)
                return real(*args)
            monkeypatch.setattr(abelian, name, verify)

        spy("_verify_snf", "inverse")
        spy("_verify_snf_by_det", "det")
        smith_normal_form(matrix)
        assert calls == [route]

    def test_decompose_cokernel(self):
        assert decompose([[2, 0], [0, 3]]) == cyclic(6)
        # rows are relations among column generators
        assert decompose([[0, 0, 0], [0, 0, 0]]) == FGAbelianGroup(rank=3)
        assert decompose([[28]]) == cyclic(28)


def _inverse(mat):
    """Exact inverse of a unimodular matrix from the Fraction oracle."""
    n = len(mat)
    rows, _ = oracles.rref([row + [int(i == j) for j in range(n)]
                            for i, row in enumerate(mat)])
    return [[int(x) for x in row[n:]] for row in rows]


def _verify_under_optimize(matrix, tamper, by_det=False):
    """Run ``_verify_snf`` (``_verify_snf_by_det`` when ``by_det``) under
    python -O on the SNF of ``matrix`` with its inverses (its determinant),
    after the statement ``tamper``; return what it printed."""
    import hyperlab

    factors, u, v, d = smith_normal_form(matrix)
    verify = ("_verify_snf_by_det(m, det, factors, u, v, d)" if by_det
              else "_verify_snf(m, factors, u, u_inv, v, v_inv, d)")
    script = (
        "import sys\n"
        "from hyperlab.abelian import _verify_snf, _verify_snf_by_det\n"
        "from hyperlab.exact import VerificationError\n"
        f"m, factors, u, v, d = {(matrix, factors, u, v, d)!r}\n"
        f"u_inv, v_inv = {(_inverse(u), _inverse(v))!r}\n"
        f"det = {oracles.det(matrix) if by_det else None}\n"
        f"{verify}\n"
        f"{tamper}\n"
        "try:\n"
        f"    {verify}\n"
        "except VerificationError as exc:\n"
        "    print(sys.flags.optimize, 'VerificationError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hyperlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestHomExtTensor:
    def test_headline_values(self):
        assert ext(cyclic(28), cyclic(2)) == cyclic(2)
        assert hom(cyclic(28), cyclic(2)) == cyclic(2)
        assert ext(Z, FGAbelianGroup.from_divisors(4, 6)) == TRIVIAL

    def test_ext_as_quotient(self):
        # Ext(Z28, H) = H/28H, computed through an SNF presentation
        ups = FGAbelianGroup.from_divisors(4, 6)
        assert oracles.quotient_by_multiple(ups, 28) == FGAbelianGroup.from_divisors(4, 2)
        assert ext(cyclic(28), ups) == FGAbelianGroup.from_divisors(4, 2)

    def test_free_module_rules(self):
        g = FGAbelianGroup.from_divisors(0, 6)
        assert hom(Z, g) == g
        assert tensor(Z, g) == g
        assert ext(Z, g) == TRIVIAL
        assert hom(cyclic(6), Z) == TRIVIAL
        assert ext(cyclic(6), Z) == cyclic(6)

    def test_gcd_sweep_vs_brute_force(self):
        for m in range(1, 13):
            for n in range(1, 13):
                e = ext(cyclic(m), cyclic(n))
                h = hom(cyclic(m), cyclic(n))
                assert e.order() == gcd(m, n)
                assert e.order() == oracles.ext_order_brute(m, n)
                assert h.order() == oracles.count_homs_brute(m, n)

    @settings(max_examples=50, deadline=None)
    @given(small_divisors, small_divisors, small_divisors)
    def test_additivity_in_each_argument(self, da, db, dc):
        a = FGAbelianGroup.from_divisors(*da)
        b = FGAbelianGroup.from_divisors(*db)
        c = FGAbelianGroup.from_divisors(*dc)
        for fn in (hom, ext, tensor):
            assert fn(a.direct_sum(b), c) == fn(a, c).direct_sum(fn(b, c))
            assert fn(a, b.direct_sum(c)) == fn(a, b).direct_sum(fn(a, c))

    def test_iso_check_is_equivalence(self):
        groups = [cyclic(n) for n in (2, 3, 4, 6)] + [
            FGAbelianGroup.from_divisors(2, 3),
            FGAbelianGroup.from_divisors(2, 2),
            Z,
        ]
        for g in groups:
            assert iso_check(g, g)
            for h in groups:
                assert iso_check(g, h) == iso_check(h, g)
                for k in groups:
                    if iso_check(g, h) and iso_check(h, k):
                        assert iso_check(g, k)


class TestHomologyTables:
    def test_cyclic_homology(self):
        assert cyclic_homology(28, 0) == Z
        assert cyclic_homology(28, 1) == cyclic(28)
        assert cyclic_homology(28, 2) == TRIVIAL
        assert cyclic_homology(28, 3) == cyclic(28)
        assert cyclic_homology(1, 5) == TRIVIAL
        for i in (1, 2, 7):
            assert cyclic_homology(i, 0) == Z

    def test_sphere_homology(self):
        assert sphere_homology(7, 7) == Z
        assert sphere_homology(7, 0) == Z
        assert sphere_homology(7, 3) == TRIVIAL
        assert sphere_homology(0, 0) == FGAbelianGroup(rank=2)
        assert sphere_homology(0, 1) == TRIVIAL

    def test_euler_characteristic(self):
        assert euler_characteristic(4) == 2
        assert euler_characteristic(7) == 0
        for n in range(0, 10):
            chi = sum(
                (-1) ** p * (sphere_homology(n, p).rank)
                for p in range(n + 1)
            )
            assert chi == euler_characteristic(n)

    def test_second_cohomology_via_universal_coefficients(self):
        # H^2(Z28; M) = Hom(H2, M) + Ext(H1, M), H1 and H2 from the table
        h1, h2 = cyclic_homology(28, 1), cyclic_homology(28, 2)
        for m, expected in ((cyclic(2), cyclic(2)),
                            (FGAbelianGroup.from_divisors(4, 6), FGAbelianGroup.from_divisors(4, 2))):
            assert hom(h2, m).direct_sum(ext(h1, m)) == expected


class TestExtensionCount:
    def test_headline_count(self):
        rep = extension_count(cyclic(28), cyclic(2))
        assert rep.ext_order == 2
        assert rep.aut_fiber_trivial
        assert rep.direct_sum_order == 56

    def test_infinite_rejected(self):
        with pytest.raises(InfiniteGroup):
            extension_count(Z, cyclic(2))
        with pytest.raises(InfiniteGroup):
            extension_count(cyclic(2), Z)

    def test_order_four_extensions(self):
        rep = extension_count(cyclic(2), cyclic(2))
        assert rep.ext_order == 2
        # the two middle groups realizing them: Z4 (with 2Z4 = Z2 and
        # Z4 / Z2 = Z2) and the split sum Z2 + Z2
        z4 = cyclic(4)
        assert decompose([[2]]) == cyclic(2)          # Z4 / (subgroup of order 2)
        assert iso_check(z4, decompose([[4]]))
        middles = oracles.abelian_groups_of_order(4)
        assert set(middles) == {z4, FGAbelianGroup.from_divisors(2, 2)}

    def test_nontrivial_aut_skips_forced_order(self):
        rep = extension_count(cyclic(2), cyclic(3))
        assert not rep.aut_fiber_trivial
        assert rep.direct_sum_order is None


class TestGroupsOfOrder:
    def test_counts_match_partition_products(self):
        assert len(oracles.abelian_groups_of_order(1)) == 1
        assert len(oracles.abelian_groups_of_order(4)) == 2
        assert len(oracles.abelian_groups_of_order(8)) == 3
        assert len(oracles.abelian_groups_of_order(12)) == 2
        assert len(oracles.abelian_groups_of_order(16)) == 5
        assert len(oracles.abelian_groups_of_order(36)) == 4

    def test_all_have_requested_order(self):
        for g in oracles.abelian_groups_of_order(24):
            assert g.order() == 24


def test_module_doctests():
    import doctest

    import hyperlab.abelian

    results = doctest.testmod(hyperlab.abelian)
    assert results.attempted > 0 and results.failed == 0


class TestParsingAndJson:
    def test_parse(self):
        assert parse_group("Z28+Z2") == FGAbelianGroup.from_divisors(28, 2)
        assert parse_group("Z^2+Z4") == FGAbelianGroup.from_divisors(0, 0, 4)
        assert parse_group("Z") == Z
        assert parse_group("0") == TRIVIAL

    def test_json_roundtrip(self):
        g = FGAbelianGroup.from_divisors(0, 28, 2)
        assert FGAbelianGroup.from_json_dict(g.to_json_dict()) == g

    def test_str(self):
        assert str(FGAbelianGroup.from_divisors(28, 2)) == "Z2 + Z28"
        assert str(TRIVIAL) == "0"
