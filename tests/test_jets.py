import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperlab import jets
from hyperlab.cayley_dickson import CDElement, norm_sq
from hyperlab.jets import (
    MAX_JET_VARIABLES,
    MAX_MINOR_PRODUCTS,
    AlgebraMismatch,
    InvalidSystem,
    JetCoordinateSystem,
    OffVariety,
    PDESystem,
    builtin_system,
    builtin_systems,
    classify_point,
    formal_jacobian,
    jet_dimensions,
    load_point,
    minor_determinants,
    scan_points,
)
from hyperlab.polynomials import Poly

from oracles import numeric_jacobian_rank, residual_at_point

v = Poly.variable


@pytest.fixture(scope="module")
def systems():
    return builtin_systems()


class TestCoordinates:
    def test_first_order_ordering(self, systems):
        assert systems["r1"].coords.variables == (
            "x", "y", "u1", "u2", "u1_x", "u1_y", "u2_x", "u2_y"
        )

    def test_dalembert_ordering(self, systems):
        assert systems["dalembert"].coords.variables == (
            "x", "y", "u", "u_x", "u_y", "u_xx", "u_xy", "u_yy"
        )

    def test_full_mode_lists_ordered_pairs(self):
        coords = JetCoordinateSystem(("x", "y"), ("u",), order=2, symmetric=False)
        assert coords.variables == (
            "x", "y", "u", "u_x", "u_y", "u_xx", "u_xy", "u_yx", "u_yy"
        )

    def test_unknown_variable_rejected(self):
        coords = JetCoordinateSystem(("x",), ("u",), order=1)
        with pytest.raises(ValueError):
            PDESystem("bad", coords, [v("u_y")])

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_variable_count_is_the_sum_of_jet_dimensions(self, symmetric):
        mode = "symmetric" if symmetric else "full"
        for m, n, k in itertools.product(range(1, 4), range(1, 3), range(5)):
            coords = JetCoordinateSystem(tuple("xyz"[:m]), tuple(f"u{i}" for i in range(n)),
                                         k, symmetric)
            assert len(coords.variables) == sum(jet_dimensions(m, n, k, mode))

    def test_variables_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            JetCoordinateSystem(("x",), ("u",), 1, True, ("u", "x"))
        coords = JetCoordinateSystem(("x",), ("u",), 1)
        assert coords == JetCoordinateSystem(("x",), ("u",), 1)
        assert coords.variables == ("x", "u", "u_x")

    @pytest.mark.parametrize("independents, order, symmetric", [
        (("x", "y"), 40, False),  # 2^41 + 1 names
        (("x", "y"), 10 ** 12, True),  # refused before jet_dimensions loops
        (("x", "y"), 89, True),  # 4,097 names
        (tuple("abcd"), 6, False),
    ])
    def test_variable_cap(self, independents, order, symmetric):
        with pytest.raises(InvalidSystem, match="exceed the cap"):
            JetCoordinateSystem(independents, ("u",), order, symmetric)

    def test_variable_cap_is_inclusive(self):
        coords = JetCoordinateSystem(tuple(f"x{i}" for i in range(MAX_JET_VARIABLES - 1)),
                                     ("u",), 0)
        assert len(coords.variables) == MAX_JET_VARIABLES

    @pytest.mark.parametrize("order", [-1, 1.0, True, "2", None])
    def test_order_must_be_a_natural_number(self, order):
        with pytest.raises(InvalidSystem, match="order"):
            JetCoordinateSystem(("x",), ("u",), order)

    @pytest.mark.parametrize("independents, dependents, order, symmetric, repeated", [
        (("x",), ("x",), 1, True, "x"),
        (("x",), ("u", "u_x"), 1, True, "u_x"),
        (("x", "x"), ("u",), 0, True, "x"),
        # u_xx is the order-1 derivative by "xx" and the order-2 one by "x"
        (("x", "xx"), ("u",), 2, True, "u_xx"),
        (("x", "y"), ("u", "u_x"), 2, False, "u_x"),
    ])
    def test_repeated_variable_names(self, independents, dependents, order,
                                     symmetric, repeated):
        with pytest.raises(InvalidSystem, match=f"jet variable '{repeated}' is repeated"):
            JetCoordinateSystem(independents, dependents, order, symmetric)

    def test_minor_cap(self):
        # 2 x 317 entries: C(317, 2) = 50,086 minors of two products each
        row = [Poly.constant(1)] * 317
        with pytest.raises(InvalidSystem, match="cofactor products"):
            minor_determinants([row, row], 2)
        assert MAX_MINOR_PRODUCTS < 50_086 * 2
        assert len(minor_determinants([row[:316], row[:316]], 2)) == 49_770
        with pytest.raises(ValueError, match="minor size must lie in 0..2"):
            minor_determinants([row, row], 3)

    def test_json_roundtrip(self, systems):
        for system in systems.values():
            back = PDESystem.from_json_dict(system.to_json_dict())
            assert back.coords.variables == system.coords.variables
            assert back.equations == system.equations


class TestJetDimensions:
    def test_table_values(self):
        assert jet_dimensions(2, 2, 1) == (4, 4)
        assert jet_dimensions(2, 2, 1, "symmetric") == (4, 4)
        assert jet_dimensions(2, 2, 2, "full") == (4, 4, 8)
        assert jet_dimensions(2, 2, 2, "symmetric") == (4, 4, 6)

    def test_three_dependents(self):
        assert jet_dimensions(2, 3, 1)[:2] == (5, 6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            jet_dimensions(0, 1, 1)
        with pytest.raises(ValueError):
            jet_dimensions(2, 2, 2, "diagonal")


class TestJacobian:
    def test_r1_matches_displayed_matrix(self, systems):
        jac = formal_jacobian(systems["r1"])
        u1x, u1y = v("u1_x"), v("u1_y")
        u2x, u2y = v("u2_x"), v("u2_y")
        zero = Poly()
        assert jac[0] == [zero, zero, zero, zero,
                          2 * u1x * (2 * u1x ** 2 - 1), zero, zero, 4 * u2y ** 3]
        assert jac[1] == [zero, zero, zero, zero,
                          zero, 6 * u1y ** 5 - u2x, 6 * u2x ** 5 - u1y, zero]

    def test_dalembert_matches_displayed_row(self, systems):
        jac = formal_jacobian(systems["dalembert"])
        zero = Poly()
        assert jac == [[zero, zero, v("u_xy"), -v("u_y"), -v("u_x"),
                        zero, v("u"), zero]]

    def test_constant_equation_gives_zero_row(self):
        coords = JetCoordinateSystem(("x", "y"), ("u",), order=1)
        system = PDESystem("const", coords, [Poly.constant(3)])
        assert all(entry.is_zero() for entry in formal_jacobian(system)[0])


class TestMinors:
    def test_r1_four_nonzero_minors(self, systems):
        jac = formal_jacobian(systems["r1"])
        minors = [(pos, det) for pos, det in minor_determinants(jac, 2)
                  if not det.is_zero()]
        u1x, u1y = v("u1_x"), v("u1_y")
        u2x, u2y = v("u2_x"), v("u2_y")
        factor = 2 * u1x * (2 * u1x ** 2 - 1)
        expected = [
            factor * (6 * u1y ** 5 - u2x),
            factor * (6 * u2x ** 5 - u1y),
            -(6 * u1y ** 5 - u2x) * (4 * u2y ** 3),
            -(6 * u2x ** 5 - u1y) * (4 * u2y ** 3),
        ]
        assert [det for _, det in minors] == expected

    def test_one_by_one_minors_are_entries(self, systems):
        jac = formal_jacobian(systems["dalembert"])
        assert [det for _, det in minor_determinants(jac, 1)] == list(jac[0])

    def test_rank_one_symbolic_matrix_has_zero_minors(self):
        coords = JetCoordinateSystem(("x", "y"), ("u1", "u2"), order=1)
        p = v("u1_x") * v("u2_y")
        system = PDESystem("rank1", coords, [p, 3 * p])
        jac = formal_jacobian(system)
        assert all(det.is_zero() for _, det in minor_determinants(jac, 2))

    def test_size_guard(self, systems):
        jac = formal_jacobian(systems["r1"])
        with pytest.raises(ValueError):
            minor_determinants(jac, 3)


class TestClassification:
    def test_zero_derivative_locus_is_singular(self, systems):
        rng = random.Random(0)
        for _ in range(5):
            point = {
                "x": Fraction(rng.randint(-5, 5)),
                "y": Fraction(rng.randint(-5, 5)),
                "u1": Fraction(rng.randint(-5, 5)),
                "u2": Fraction(rng.randint(-5, 5)),
            }
            cls = classify_point(systems["r1"], point, 2)
            assert not cls.regular

    def test_derived_regular_point(self, systems):
        q = 2 ** -0.25
        point = {"u1_x": 1.0, "u2_y": 0.0, "u2_x": q, "u1_y": q}
        cls = classify_point(systems["r1"], point, 2)
        assert cls.regular
        det1 = next(m for m in cls.minors if m.cols == (4, 5))
        assert abs(det1.value - 4 * q) < 1e-12

    def test_off_variety_reported(self, systems):
        with pytest.raises(OffVariety) as exc:
            classify_point(systems["r1"], {"u1_x": 1.0, "u2_y": 1.0}, 2)
        assert exc.value.residuals

    def test_sedenion_zero_divisor_point_singular(self, systems):
        u = CDElement.basis(4, 3) + CDElement.basis(4, 10)
        assert norm_sq(u) == 2
        cls = classify_point(systems["dalembert"], {"u": u}, 1)
        assert not cls.regular

    def test_invertible_sedenion_point_regular(self, systems):
        u = CDElement.one(4) + CDElement.basis(4, 7)
        cls = classify_point(systems["dalembert"], {"u": u}, 1)
        assert cls.regular

    def test_tolerance_reaches_float_operator_rank(self, systems):
        # a float point 1e-6 away from the zero divisor e3 + e10: its left
        # operator has six singular values of 1e-6
        coeffs = [0.0] * 16
        coeffs[0], coeffs[3], coeffs[10] = 1e-6, 1.0, 1.0
        point = {"u": CDElement(4, coeffs)}
        tight = classify_point(systems["dalembert"], point, 1, tolerance=1e-9)
        loose = classify_point(systems["dalembert"], point, 1, tolerance=1e-3)
        assert (tight.label, loose.label) == ("Regular", "Singular")

    def test_mixed_levels_rejected(self, systems):
        with pytest.raises(AlgebraMismatch):
            classify_point(
                systems["dalembert"],
                {"u": CDElement.one(4), "u_x": CDElement.one(3)},
                1,
            )

    def test_one_algebra_mismatch_class(self):
        # a handler for the jets error also catches a tensor-element mismatch
        from hyperlab import algebras, cayley_dickson, grid

        assert AlgebraMismatch is algebras.AlgebraMismatch
        assert AlgebraMismatch is grid.AlgebraMismatch is cayley_dickson.AlgebraMismatch
        real = algebras.tensor_algebra(algebras.real_algebra(), 1)
        with pytest.raises(AlgebraMismatch):
            algebras.TensorElement(real, [1])

    def test_matches_numeric_rank_oracle_on_random_points(self, systems):
        # random on-variety real points of the first system: classification
        # by operator-invertible minors == full numeric Jacobian rank
        r1 = systems["r1"]
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            u1x = rng.uniform(-1, 1)
            u2y = (u1x ** 2 - u1x ** 4) ** 0.25
            u2x = rng.uniform(-1.2, 1.2)
            roots = np.roots([1, 0, 0, 0, 0, -u2x, u2x ** 6])
            real = [r.real for r in roots if abs(r.imag) < 1e-10]
            if not real:
                continue
            u1y = rng.choice(real)
            point = {"u1_x": u1x, "u2_y": u2y, "u2_x": u2x, "u1_y": u1y}
            if max(abs(val) for val in residual_at_point(r1, point)) > 1e-9:
                continue
            cls = classify_point(r1, point, 2, tolerance=1e-7)
            rank = numeric_jacobian_rank(r1, point, tolerance=1e-7)
            assert cls.regular == (rank == 2), point
            checked += 1


class TestScan:
    # off the variety, on it at exact and float values, off it again
    POINTS = [{"u1_x": 1.0, "u2_y": 1.0}, {"u1": "3", "x": "1/2", "u1_x": -1},
              {"u1_x": 1.0}, {"u2_x": "1/2"}]

    def test_minors_are_computed_once_per_scan(self, monkeypatch):
        calls = []
        for name in ("formal_jacobian", "minor_determinants"):
            def counted(*args, _name=name, _original=getattr(jets, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(jets, name, counted)
        entries = scan_points(builtin_systems()["r1"], self.POINTS, 2)
        assert sorted(calls) == ["formal_jacobian", "minor_determinants"]
        assert [entry["satisfied"] for entry in entries] == [False, True, True, False]
        # each point classified on its own system
        expected = []
        for raw in self.POINTS:
            try:
                cls = classify_point(builtin_systems()["r1"], load_point(raw), 2)
                expected.append({"point": raw, "satisfied": True, **cls.to_json_dict()})
            except OffVariety as exc:
                expected.append({"point": raw, "satisfied": False,
                                 "classification": "OffVariety",
                                 "residuals": {k: str(v) for k, v in exc.residuals.items()}})
        assert json.dumps(entries, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_no_minors_when_no_point_satisfies_the_system(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("minors computed")

        monkeypatch.setattr(jets, "formal_jacobian", refuse)
        entries = scan_points(builtin_systems()["r1"], self.POINTS[::3], 2)
        assert [entry["classification"] for entry in entries] == ["OffVariety"] * 2
        with pytest.raises(RuntimeError, match="minors computed"):
            scan_points(builtin_systems()["r1"], self.POINTS, 2)

    def test_nonzero_minors_are_kept_per_size(self):
        r1 = builtin_systems()["r1"]
        assert r1.nonzero_minors(2) is r1.nonzero_minors(2)
        assert [(key, det) for key, det in minor_determinants(formal_jacobian(r1), 2)
                if not det.is_zero()] == r1.nonzero_minors(2)
        assert len(r1.nonzero_minors(1)) == 4


class TestBuiltinSystems:
    @pytest.mark.parametrize("name", sorted(jets.BUILTIN_SYSTEMS))
    def test_one_system_is_built_alone(self, name, monkeypatch):
        expected = builtin_systems()[name].to_json_dict()
        build = jets.BUILTIN_SYSTEMS[name]
        for other in jets.BUILTIN_SYSTEMS:
            monkeypatch.setitem(jets.BUILTIN_SYSTEMS, other, None)
        monkeypatch.setitem(jets.BUILTIN_SYSTEMS, name, build)
        assert builtin_system(name).to_json_dict() == expected

    def test_each_call_builds_a_fresh_system(self):
        assert sorted(builtin_systems()) == sorted(jets.BUILTIN_SYSTEMS)
        first, second = builtin_system("r1"), builtin_system("r1")
        assert first is not second and first.nonzero_minors(2) is not second.nonzero_minors(2)
        assert builtin_systems()["r1"] is not builtin_systems()["r1"]
        with pytest.raises(KeyError):
            builtin_system("nonesuch")

    def test_equation_counts(self, systems):
        assert len(systems["r1"].equations) == 2
        assert len(systems["s1"].equations) == 2
        assert len(systems["t1"].equations) == 3
        assert len(systems["heat"].equations) == 1
        assert len(systems["dalembert"].equations) == 1

    def test_t1_coordinates(self, systems):
        coords = systems["t1"].coords
        assert len(coords.independents) + len(coords.dependents) == 5
        assert len(coords.variables) == 11  # 5 + 6 first-order

    def test_dalembert_is_order_two_with_eight_variables(self, systems):
        coords = systems["dalembert"].coords
        assert coords.order == 2
        assert len(coords.variables) == 8

    def test_t1_third_equation_structure(self, systems):
        r3 = systems["t1"].equations[2]
        assert r3 == v("u3") ** 3 + v("u3_y") ** 3 + v("u2_x") * v("u3_y")
