import math
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import cayley_dickson, grid
from hyperlab.cayley_dickson import CDElement, LevelTooLarge
from hyperlab.grid import (
    GridField,
    ResolutionTooSmall,
    UnstableStep,
    cos_sin_dalembert_check,
    heat_decoupling_check,
    heat_evolve,
    residual,
    separable_dalembert_check,
    single_mode_decay_factor,
)
from hyperlab.jets import PDESystem, builtin_systems

from oracles import dalembert_pair_loop, dalembert_pair_residuals, max_abs


@pytest.fixture(scope="module")
def systems():
    return builtin_systems()


class TestHeatEvolve:
    def test_componentwise_decoupling_bitwise(self):
        rng = np.random.default_rng(42)
        nodes, dim = 64, 16
        h = 1.0 / nodes
        dt = h * h / 2
        field = GridField(rng.standard_normal((nodes, dim)), h, level=4)
        full = heat_evolve(field, dt, 100)
        for k in range(dim):
            part = heat_evolve(field.component(k), dt, 100)
            assert np.array_equal(full.values[:, k], part.values[:, 0])

    def test_constant_field_is_bitwise_fixed_point(self):
        field = GridField(np.full((32, 8), 1.37), 1.0 / 32, level=3)
        evolved = heat_evolve(field, (1.0 / 32) ** 2 / 2, 25)
        assert np.array_equal(evolved.values, field.values)

    def test_unstable_step_rejected(self):
        field = GridField(np.zeros((16, 2)), 1.0 / 16, level=1)
        with pytest.raises(UnstableStep):
            heat_evolve(field, (1.0 / 16) ** 2, 1)

    def test_single_mode_decay_matches_scheme_symbol(self):
        nodes = 64
        h = 1.0 / nodes
        dt = h * h / 2
        x = np.arange(nodes) / nodes
        values = np.zeros((nodes, 16))
        values[:, 5] = np.sin(2 * np.pi * x)
        field = GridField(values, h, level=4)
        evolved = heat_evolve(field, dt, 1)
        mode = values[:, 5]
        factor = float(evolved.values[:, 5] @ mode / (mode @ mode))
        assert abs(factor - single_mode_decay_factor(nodes, dt)) < 1e-12
        other = [k for k in range(16) if k != 5]
        assert np.all(evolved.values[:, other] == 0.0)

    def test_exact_mean_conservation(self):
        # with Fractions the periodic scheme conserves each component sum exactly
        rng = random.Random(3)
        values = np.empty((12, 4), dtype=object)
        for i in range(12):
            for k in range(4):
                values[i, k] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        h = Fraction(1, 12)
        field = GridField(values, h, level=2)
        evolved = heat_evolve(field, Fraction(1, 300), 9)
        for k in range(4):
            assert sum(evolved.values[:, k]) == sum(values[:, k])

    def test_element_accessor(self):
        field = GridField(np.array([[1.0, 2.0], [3.0, 4.0]]), 0.5, level=1)
        assert field.element(1) == CDElement(1, [3.0, 4.0])


class TestResidual:
    def test_constant_field_zero(self, systems):
        one = CDElement.one(2)
        grid = [[3 * one for _ in range(5)] for _ in range(5)]
        out = residual(systems["heat"], {"u": grid}, (Fraction(1, 4), Fraction(1, 4)))
        assert all(value.is_zero() for row in out[0] for value in row)

    def test_linear_profile_zero(self, systems):
        # u(t, x) = x * q: both u_xx and u_t vanish on the stencil
        q = CDElement(2, [Fraction(1), Fraction(2), Fraction(-1), Fraction(3)])
        h = Fraction(1, 8)
        grid = [[(j * h) * q for j in range(6)] for i in range(6)]
        out = residual(systems["heat"], {"u": grid}, (h, h))
        assert all(value.is_zero() for row in out[0] for value in row)

    def test_product_data_scalar_case(self, systems):
        n = 9
        h = 1.0 / n
        grid = [
            [CDElement(3, [math.sin(1 + i * h) * math.cos(j * h)] + [0.0] * 7)
             for j in range(n)]
            for i in range(n)
        ]
        out = residual(systems["dalembert"], {"u": grid}, (h, h))
        assert max_abs(out[0]) < 1e-12

    def test_base_coordinates_have_exact_zeros_off_the_unit(self):
        # the residual of -x on float elements: its coefficient off the unit
        # is an exact zero, not -0.0
        system = PDESystem.from_json_dict({
            "coordinates": {"independents": ["x", "y"], "dependents": ["u"], "order": 1},
            "equations": [[{"coeff": -1, "powers": {"x": 1}}]]})
        grid = [[CDElement(1, [0.5, 0.0]) for _ in range(3)] for _ in range(3)]
        (value,), = residual(system, {"u": grid}, (0.5, 0.5))[0]
        assert [str(c) for c in value.coeffs] == ["-0.5", "0"]

    def test_too_small_grid(self, systems):
        one = CDElement.one(2)
        grid = [[one, one], [one, one]]
        with pytest.raises(ResolutionTooSmall):
            residual(systems["heat"], {"u": grid}, (1, 1))

    def test_first_order_system_residual(self, systems):
        # constant dependents satisfy r1 iff the constants are on the variety
        zero = Fraction(0)
        grid1 = [[zero for _ in range(4)] for _ in range(4)]
        out = residual(systems["r1"], {"u1": grid1, "u2": grid1},
                       (Fraction(1, 4), Fraction(1, 4)))
        assert all(value == 0 for eq in out for row in eq for value in row)


class TestSeparable:
    def ts(self):
        return list(np.linspace(0.0, 1.0, 6))

    def scalar_pair(self, fn, dfn):
        vals = [CDElement(3, [fn(t)] + [0.0] * 7) for t in self.ts()]
        ders = [CDElement(3, [dfn(t)] + [0.0] * 7) for t in self.ts()]
        return vals, ders

    def line_pair(self, axis, freq=1.0):
        def build(t):
            coeffs = [math.cos(freq * t)] + [0.0] * 7
            coeffs[axis] = math.sin(freq * t)
            d = [-freq * math.sin(freq * t)] + [0.0] * 7
            d[axis] = freq * math.cos(freq * t)
            return CDElement(3, coeffs), CDElement(3, d)

        pairs = [build(t) for t in self.ts()]
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def test_scalar_factors_vanish_exactly(self):
        f, fp = self.scalar_pair(math.cos, lambda t: -math.sin(t))
        g, gp = self.scalar_pair(math.exp, math.exp)
        report = separable_dalembert_check(f, g, fp, gp)
        assert report.max_residual == 0.0
        assert report.commutative_subalgebra
        assert report.witness is None

    def test_single_complex_line_vanishes(self):
        f, fp = self.line_pair(1, freq=1.0)
        g, gp = self.line_pair(1, freq=2.0)
        report = separable_dalembert_check(f, g, fp, gp)
        assert report.max_residual < 1e-9
        assert report.commutative_subalgebra

    def test_mixed_lines_produce_witness(self):
        f, fp = self.line_pair(1)
        g, gp = self.line_pair(2)
        report = separable_dalembert_check(f, g, fp, gp)
        assert report.max_residual > 1e-3
        assert not report.commutative_subalgebra
        assert report.witness is not None
        i, j, value = report.witness
        # recheck the witness from raw samples
        u = f[i] * g[j]
        recomputed = u * (fp[i] * gp[j]) - (fp[i] * g[j]) * (f[i] * gp[j])
        assert recomputed.isclose(value, 1e-12)

    def test_mixed_levels_rejected(self):
        f = [CDElement.one(3)]
        g = [CDElement.one(4)]
        from hyperlab.jets import AlgebraMismatch

        with pytest.raises(AlgebraMismatch):
            separable_dalembert_check(f, g, f, g)

    @pytest.mark.parametrize("counts, got", [
        ((2, 0, 2, 0), "got 2 f values, 2 f derivatives, 0 g values, 0 g derivatives"),
        ((2, 1, 1, 1), "got 2 f values, 1 f derivatives, 1 g values, 1 g derivatives"),
        ((0, 0, 0, 0), "got 0 f values, 0 f derivatives, 0 g values, 0 g derivatives"),
    ])
    @pytest.mark.parametrize("coeffs", [[0.5, 1.0, 0.0, 0.0], [Fraction(1, 2), 1, 0, 0]])
    def test_ragged_or_empty_samples_refused_before_any_product(
            self, counts, got, coeffs, monkeypatch):
        # zip would truncate them: (2, 0, 2, 0) reported a vanishing
        # residual on no node, and (2, 1, 1, 1) checked one node
        def product(*args):
            raise AssertionError("a product ran")

        monkeypatch.setattr(cayley_dickson, "cd_multiply", product)
        monkeypatch.setattr(grid, "structure_multiply_rows", product)
        a = CDElement(2, coeffs)
        f, g, fp, gp = ([a] * n for n in counts)
        with pytest.raises(ValueError, match=got):
            separable_dalembert_check(f, g, fp, gp)

    @pytest.mark.parametrize("kind", ["float", "mixed"])
    def test_level_of_inexact_samples_checked_before_any_product(self, kind, monkeypatch):
        # the float diagnosis stops above the cap: dense level-9 float
        # samples had formed every residual first
        def product(*args):
            raise AssertionError("a product ran")

        monkeypatch.setattr(cayley_dickson, "cd_multiply", product)
        monkeypatch.setattr(grid, "structure_multiply_rows", product)
        rng = random.Random(9)
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(512)]
        if kind == "mixed":
            coeffs[1::2] = [1] * 256
        f = [CDElement(9, coeffs)] * 4
        with pytest.raises(LevelTooLarge, match="level 9 exceeds cap 8"):
            separable_dalembert_check(f, f, f, f)

    def test_exact_samples_above_the_cap_still_check(self):
        a, b = CDElement.basis(9, 3), CDElement.basis(9, 300)
        report = separable_dalembert_check([a], [b], [b], [a])
        assert report.nodes_checked == 1
        assert not report.commutative_subalgebra


# coefficients whose products underflow (5e-324, 1e-200, -1e-170) or
# whose residual products overflow (1e150), and signed zeros
EXTREMES = [0.0, -0.0, 5e-324, 1e-200, -1e-170, 1e150, -1e150]


@st.composite
def float_dalembert_samples(draw):
    """(f, g, f', g') of Python floats, levels 0-5 and 1-4 nodes a side,
    sparse or dense, some with infinities and NaN."""
    level = draw(st.integers(0, 5))
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7, 0.95]))
    extremes = draw(st.sampled_from([0.0, 0.2, 0.6]))
    non_finite = draw(st.sampled_from([0.0, 0.0, 0.02, 0.2]))

    def coeff():
        if rng.random() < zeros:
            return rng.choice([0.0, -0.0])
        if rng.random() < non_finite:
            return rng.choice([math.inf, -math.inf, math.nan])
        if rng.random() < extremes:
            return rng.choice(EXTREMES)
        return rng.uniform(-2.0, 2.0)

    def elements(n):
        return [CDElement(level, [coeff() for _ in range(1 << level)]) for _ in range(n)]

    return elements(n1), elements(n2), elements(n1), elements(n2)


def assert_loop_report(report, samples, tolerance):
    """The report carries the per-pair loop's residual and witness, to the
    repr of every float: an int 0 where the loop leaves one prints "0"."""
    worst, witness = dalembert_pair_loop(*samples, tolerance)
    assert repr(report.max_residual) == repr(worst)
    assert report.nodes_checked == len(samples[0]) * len(samples[1])
    assert (report.witness is None) == (witness is None)
    if witness is not None:
        assert report.witness[:2] == witness[:2]
        assert list(map(repr, report.witness[2].coeffs)) == list(map(repr, witness[2].coeffs))


@contextmanager
def slab_entries(entries):
    """Set ``SLAB_ENTRIES`` of grid and of the row kernel; hypothesis
    tests cannot take the function-scoped monkeypatch."""
    saved = grid.SLAB_ENTRIES
    grid.SLAB_ENTRIES = cayley_dickson.SLAB_ENTRIES = entries
    try:
        yield
    finally:
        grid.SLAB_ENTRIES = cayley_dickson.SLAB_ENTRIES = saved


def counted_element_products(monkeypatch):
    """The list that gains one entry per ``cd_multiply`` call from now on."""
    calls = []

    def counted(a, b, product=cayley_dickson.cd_multiply):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(cayley_dickson, "cd_multiply", counted)
    return calls


def random_samples(kind):
    """(f, g, f', g') of three level-2 elements each: Fractions, floats
    with int odd coefficients, or floats with one NaN or -inf."""
    rng = random.Random(kind)

    def coeff(k):
        if kind == "fraction":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if kind == "mixed" and k % 2:
            return rng.randint(-3, 3)
        return rng.uniform(-2.0, 2.0)

    samples = [[CDElement(2, [coeff(k) for k in range(4)]) for _ in range(3)]
               for _ in range(4)]
    if kind in ("nan", "inf"):
        coeffs = list(samples[1][2].coeffs)
        coeffs[3] = math.nan if kind == "nan" else -math.inf
        samples[1][2] = CDElement(2, coeffs)
    return samples


class TestBatchedResidual:
    @settings(max_examples=200, deadline=None)
    @given(float_dalembert_samples(), st.sampled_from([0, 1e-9, 0.5]), st.booleans())
    def test_equals_the_pair_loop(self, samples, tolerance, one_row_blocks):
        # one node pair per block of rows, and one product row per block
        with slab_entries(1 if one_row_blocks else grid.SLAB_ENTRIES):
            report = separable_dalembert_check(*samples, tolerance=tolerance)
        assert_loop_report(report, samples, tolerance)

    @settings(max_examples=200, deadline=None)
    @given(float_dalembert_samples(), st.booleans())
    def test_every_norm_equals_the_pair_loop(self, samples, one_row_blocks):
        with slab_entries(1 if one_row_blocks else grid.SLAB_ENTRIES):
            norms = grid._batched_residual_norms(samples[0][0].level, *samples)
        assert list(map(repr, norms)) == \
            [repr(mag) for *_, mag in dalembert_pair_residuals(*samples)]

    @pytest.mark.parametrize("level, nodes, f_axis, g_axis", [(3, 5, 2, 5), (3, 4, 6, 6),
                                                              (0, 3, 1, 1), (6, 2, 9, 40)])
    def test_float_samples_make_no_element_product(
            self, level, nodes, f_axis, g_axis, monkeypatch):
        # none for the residuals: the six of the loop are for the witness
        calls = counted_element_products(monkeypatch)
        report = cos_sin_dalembert_check(level, nodes, f_axis, g_axis)
        assert (report.witness is None) == (f_axis == g_axis)
        assert len(calls) == (0 if report.witness is None else 6)
        assert report.nodes_checked == nodes * nodes

    @pytest.mark.parametrize("kind", ["fraction", "mixed"])
    def test_other_samples_take_the_pair_loop(self, kind, monkeypatch):
        def product(*args):
            raise AssertionError("the batched product ran")

        monkeypatch.setattr(grid, "structure_multiply_rows", product)
        samples = random_samples(kind)
        report = separable_dalembert_check(*samples, tolerance=1e-9)
        assert_loop_report(report, samples, 1e-9)

    @pytest.mark.parametrize("kind", ["nan", "inf"])
    def test_non_finite_floats_take_the_batched_route(self, kind, monkeypatch):
        batched = []

        def product(*args, kernel=grid.structure_multiply_rows):
            batched.append(1)
            return kernel(*args)

        monkeypatch.setattr(grid, "structure_multiply_rows", product)
        calls = counted_element_products(monkeypatch)
        samples = random_samples(kind)
        report = separable_dalembert_check(*samples, tolerance=1e-9)
        assert len(batched) == 2
        assert report.witness is not None and len(calls) == 6
        assert_loop_report(report, samples, 1e-9)

    def test_level_5_at_64_nodes_runs_in_blocks(self):
        # 16,384 product rows of 32 coefficients: dense samples take all 32
        # terms per coefficient, 128 MiB of terms in one array
        rng = random.Random(5)
        dense = [[CDElement(5, [rng.uniform(-1.0, 1.0) for _ in range(32)])
                  for _ in range(64)] for _ in range(4)]
        tracemalloc.start()
        try:
            cos_sin_dalembert_check(5, 64, 3, 5)
            cos_sin_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = separable_dalembert_check(*dense)
            dense_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.nodes_checked == 64 * 64 and report.witness is not None
        assert max(cos_sin_peak, dense_peak) < 48 * 2 ** 20


def commute_associate_oracle(values, tolerance):
    """The n^3 loop: ab against ba for every pair and (ab)c against a(bc)
    for every triple of samples, exact products compared literally and
    the others coefficientwise within ``tolerance``."""
    def same(x, y):
        if x.is_exact and y.is_exact:
            return x == y
        return x.isclose(y, tolerance)

    for a in values:
        for b in values:
            if not same(a * b, b * a):
                return False
    for a in values:
        for b in values:
            ab = a * b
            for c in values:
                if not same(ab * c, a * (b * c)):
                    return False
    return True


def subalgebra_support(draw, level, kind):
    """Basis indices of a complex, quaternion or octonion subalgebra
    spanned by basis units, or of the whole algebra."""
    dim = 1 << level
    units = st.integers(1, dim - 1)
    if kind == "complex" and level >= 1:
        return [0, draw(units)]
    if kind == "quaternion" and level >= 2:
        i = draw(units)
        j = draw(units.filter(lambda j: j != i))
        return [0, i, j, i ^ j]
    if kind == "octonion" and level >= 3:
        i = draw(units)
        j = draw(units.filter(lambda j: j != i))
        k = draw(units.filter(lambda k: k not in (i, j, i ^ j)))
        return sorted({0, i, j, i ^ j, k, i ^ k, j ^ k, i ^ j ^ k})
    return list(range(dim))


@st.composite
def sample_sets(draw, kinds=("exact", "float", "mixed")):
    """Samples on a subalgebra, either free or on the complex line
    {x + y u} through one element u of it.  Coefficients are dyadic, so
    float products round nowhere and both checks see the same values."""
    level = draw(st.integers(0, 4))
    dim = 1 << level
    support = subalgebra_support(
        draw, level, draw(st.sampled_from(["complex", "quaternion", "octonion", "generic"])))
    dyadic = st.integers(-6, 6).map(lambda n: Fraction(n, 4))

    def point():
        coeffs = [Fraction(0)] * dim
        for k in support:
            coeffs[k] = draw(dyadic)
        return CDElement(level, coeffs)

    count = draw(st.integers(1, 6))
    if draw(st.booleans()):
        u = point()
        one = CDElement.one(level)
        values = [draw(dyadic) * one + draw(dyadic) * u for _ in range(count)]
    else:
        values = [point() for _ in range(count)]
    kind = draw(st.sampled_from(kinds))
    floats = [draw(st.booleans()) if kind == "mixed" else kind == "float"
              for _ in values]
    return [CDElement(x.level, [float(c) for c in x.coeffs]) if f else x
            for x, f in zip(values, floats)]


def cli_samples(level, axis, nodes):
    """The samples ``pde dalembert`` feeds the check: f = cos t + sin t e_axis."""
    out = []
    for t in np.linspace(0.0, 1.0, nodes):
        for value in ((math.cos(t), math.sin(t)), (-math.sin(t), math.cos(t))):
            coeffs = [value[0]] + [0.0] * ((1 << level) - 1)
            coeffs[axis] = value[1]
            out.append(CDElement(level, coeffs))
    return out


class TestActionChecks:
    """The ``pde heat`` and ``pde dalembert`` runs, and their input checks."""

    def test_heat_payload(self):
        out = heat_decoupling_check(2, 8, 3, seed=1)
        assert out["componentwise_decoupling"] is True
        assert out["dt"] == 1 / 128
        assert (out["nodes"], out["steps"], out["level"], len(out["final_mean"])) == (8, 3, 2, 4)

    def test_heat_builds_no_table(self, monkeypatch):
        # heat multiplies nothing, so checking its level builds no sign table
        built = []
        monkeypatch.setattr(cayley_dickson, "_table", built.append)
        assert heat_decoupling_check(8, 4, 1)["componentwise_decoupling"] is True
        assert built == []

    @pytest.mark.parametrize("args, error", [
        ((2, 0, 3), "nodes must lie in 1..1024, got 0"),
        ((9, 2, 3), "level 9 exceeds cap 8"),
        ((2, 8, 1001), "steps must lie in 0..1000, got 1001"),
        ((2, 8, 3, float("nan")), "dt must be positive, got nan"),
    ])
    def test_heat_checks_before_any_work(self, args, error, monkeypatch):
        monkeypatch.setattr(grid, "heat_evolve", None)
        # LevelTooLarge is a ValueError
        with pytest.raises(ValueError, match=error):
            heat_decoupling_check(*args)

    @pytest.mark.parametrize("level, f_axis, g_axis, nodes", [(3, 2, 5, 4), (2, 0, 1, 3)])
    def test_dalembert_samples_are_the_cos_sin_lines(
            self, level, f_axis, g_axis, nodes, monkeypatch):
        seen = []
        monkeypatch.setattr(grid, "separable_dalembert_check",
                            lambda *args, **kwargs: seen.append((args, kwargs)))
        cos_sin_dalembert_check(level, nodes, f_axis, g_axis, tolerance=0.5)
        (f, g, df, dg), kwargs = seen[0]
        assert kwargs == {"tolerance": 0.5}
        assert [x for pair in zip(f, df) for x in pair] == cli_samples(level, f_axis, nodes)
        assert [x for pair in zip(g, dg) for x in pair] == cli_samples(level, g_axis, nodes)

    @pytest.mark.parametrize("args, error", [
        ((2, 65, 1, 2), "nodes must lie in 1..64, got 65"),
        ((9, 2, 1, 2), "level 9 exceeds cap 8"),
        ((2, 4, 1, -2), "f_axis and g_axis must be >= 0"),
    ])
    def test_dalembert_checks_before_any_sample(self, args, error, monkeypatch):
        monkeypatch.setattr(grid, "CDElement", None)
        with pytest.raises(ValueError, match=error):
            cos_sin_dalembert_check(*args)


class TestCommutativeSubalgebra:
    @settings(max_examples=300, deadline=None)
    @given(sample_sets())
    def test_verdict_equals_the_loop_oracle(self, values):
        assert grid._values_commute_associate(values, 1e-9) == \
            commute_associate_oracle(values, 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(sample_sets(kinds=("float", "mixed")))
    def test_blocks_of_one_row_equal_the_oracle(self, values):
        with slab_entries(1):
            assert grid._values_commute_associate(values, 1e-9) == \
                commute_associate_oracle(values, 1e-9)

    @pytest.mark.parametrize("slab_entries", [1, grid.SLAB_ENTRIES])
    def test_offending_samples_in_the_last_block(self, slab_entries, monkeypatch):
        # with one-row blocks only the last two rows hold the noncommuting
        # pair, and only the last holds the zero divisor's associator
        monkeypatch.setattr(grid, "SLAB_ENTRIES", slab_entries)
        one = CDElement.one(4)
        a = CDElement.basis(4, 3) + CDElement.basis(4, 10)
        b = CDElement.basis(4, 6) - CDElement.basis(4, 15)
        floats = [CDElement(4, [float(c) for c in x.coeffs])
                  for x in (one, 2 * one, a, CDElement.basis(4, 5), b)]
        assert grid._values_commute_associate(floats[:3], 1e-9)
        assert not grid._values_commute_associate(floats[:4], 1e-9)
        assert not grid._values_commute_associate(floats[:3] + floats[4:], 1e-9)

    @pytest.mark.parametrize("level, f_axis, g_axis, nodes", [
        (3, 3, 3, 5), (3, 2, 5, 4), (3, 0, 7, 4), (4, 9, 9, 4), (4, 3, 12, 3),
        (2, 1, 1, 6),
    ])
    def test_cli_samples_equal_the_oracle(self, level, f_axis, g_axis, nodes):
        values = cli_samples(level, f_axis, nodes) + cli_samples(level, g_axis, nodes)
        verdict = grid._values_commute_associate(values, 1e-9)
        assert verdict == commute_associate_oracle(values, 1e-9)
        assert verdict == (f_axis == g_axis or 0 in (f_axis, g_axis))

    def test_exact_commutator_of_one_trillionth_is_noncommutative(self):
        tiny = Fraction(1, 2 * 10 ** 12)
        a = CDElement.basis(3, 1)
        b = CDElement.one(3) + CDElement.basis(3, 2, tiny)
        assert a * b - b * a == CDElement.basis(3, 3, Fraction(1, 10 ** 12))
        report = separable_dalembert_check([a], [b], [a], [b])
        assert not report.commutative_subalgebra
        # as floats the same samples commute within the tolerance
        fa, fb = (CDElement(3, [float(c) for c in x.coeffs]) for x in (a, b))
        assert separable_dalembert_check([fa], [fb], [fa], [fb]).commutative_subalgebra

    def test_float_tolerance_is_the_largest_coefficient_deviation(self):
        # ab - ba = 2 * 2^-20 e3: commutative exactly when tolerance >= 2^-19
        a = CDElement(3, [0.0, 1.0] + [0.0] * 6)
        b = CDElement(3, [1.0, 0.0, 2.0 ** -20] + [0.0] * 5)
        assert grid._values_commute_associate([a, b], 2.0 ** -19)
        assert not grid._values_commute_associate([a, b], 2.0 ** -19 * 0.99)

    @pytest.mark.parametrize("exact", [True, False])
    def test_commuting_zero_divisors_fail_on_the_associator(self, exact):
        # (e3+e10)(e6-e15) = 0 = (e6-e15)(e3+e10), but (aa)b = -2b != 0 = a(ab)
        a = CDElement.basis(4, 3) + CDElement.basis(4, 10)
        b = CDElement.basis(4, 6) - CDElement.basis(4, 15)
        if not exact:
            a, b = (CDElement(4, [float(c) for c in x.coeffs]) for x in (a, b))
        assert a * b == b * a
        assert not grid._values_commute_associate([a, b], 1e-9)
        assert not commute_associate_oracle([a, b], 1e-9)

    def test_nan_sample_fails(self):
        a = CDElement(2, [float("nan"), 0.0, 0.0, 0.0])
        assert not grid._values_commute_associate([a], 1e-9)
        assert not commute_associate_oracle([a], 1e-9)

    def test_no_samples_commute(self):
        assert grid._values_commute_associate([], 1e-9)
