"""Algebra-valued finite-difference grids.

A field stores one coefficient vector per node, so an array of shape
(*grid, dim); the heat stepper is the explicit Euler scheme on a uniform
periodic line and is real-linear, which makes evolving the algebra-valued
field literally the same float operations as evolving each of the dim real
component fields.  Residual evaluation plugs central differences into the
differential polynomials of a system, with monomials multiplied in the
written order inside the coefficient algebra.

The separable d'Alembert check forms u u_xy - u_x u_y at every node pair.
On float samples the norms run as whole arrays, two row-wise products
(``cayley_dickson.structure_multiply_rows``) for all pairs at once, bit
for bit the floats of the six ``CDElement`` products per pair that exact
and mixed samples take, and that form the witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cayley_dickson import (
    AlgebraMismatch,
    CDElement,
    check_level,
    structure_constants,
    structure_multiply_rows,
)
from .exact import DEFAULT_TOLERANCE, SLAB_ENTRIES, integer_vector, rref
from .jets import PDESystem


# caps checked before any work; README.md gives the measured cost at each
MAX_NODES = {"heat": 1024, "dalembert": 64}
MAX_STEPS = 1000


class UnstableStep(ValueError):
    """Explicit step exceeds the h^2/2 stability bound."""


class ResolutionTooSmall(ValueError):
    pass


@dataclass
class GridField:
    """Uniform periodic grid of algebra values.

    ``values`` has shape (*grid_shape, dim); dtype float64 for approximate
    runs or object (Fractions) for exact ones.  ``level`` records the
    doubling level when the components are Cayley-Dickson coefficients.
    """

    values: np.ndarray
    spacing: object
    level: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim < 2:
            raise ValueError("values must have shape (*grid, dim)")
        if self.level is not None and self.values.shape[-1] != 1 << self.level:
            raise AlgebraMismatch("component count does not match the level")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def nodes(self) -> int:
        return self.values.shape[0]

    def component(self, k: int) -> "GridField":
        return GridField(self.values[..., k:k + 1], self.spacing, level=None)

    def element(self, *node) -> CDElement:
        if self.level is None:
            raise AlgebraMismatch("field has no doubling level")
        return CDElement(self.level, list(self.values[node]))

    def to_json_dict(self) -> dict:
        return {
            "spacing": str(self.spacing),
            "level": self.level,
            "shape": list(self.values.shape[:-1]),
            "components": [
                [str(c) for c in node]
                for node in self.values.reshape(-1, self.dim)
            ],
        }


def heat_evolve(field: GridField, dt, steps: int) -> GridField:
    """Explicit Euler for u_t = u_xx on the periodic line:
    u <- u + (dt/h^2) (u_{j+1} - 2 u_j + u_{j-1}), applied componentwise.

    Rejects dt > h^2/2.  Because every operation is an elementwise array
    operation, the evolution of the full field and of any single component
    slice perform identical floating-point work, so they agree bitwise.
    """
    h = field.spacing
    if dt > h * h / 2:
        raise UnstableStep(f"dt={dt} exceeds h^2/2={h * h / 2}")
    scale = dt / (h * h)
    vals = field.values
    for _ in range(steps):
        lap = np.roll(vals, -1, axis=0) - 2 * vals + np.roll(vals, 1, axis=0)
        vals = vals + scale * lap
    return GridField(vals, field.spacing, level=field.level)


def single_mode_decay_factor(nodes: int, dt: float) -> float:
    """Amplification of one discrete Fourier mode sin(2 pi x) per step."""
    h = 1.0 / nodes
    return 1.0 - 4.0 * dt * np.sin(np.pi * h) ** 2 / h ** 2


def _bounded(value: int, name: str, low: int, high: int) -> None:
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in {low}..{high}, got {value}")


def heat_decoupling_check(level: int, nodes: int, steps: int, dt=None,
                          seed: int = 0) -> dict:
    """The ``pde heat`` payload: ``steps`` steps of ``dt`` (default h^2/2)
    on a seeded standard-normal field of ``nodes`` values, and whether each
    component evolves bitwise as it does alone.  Checks the inputs first."""
    _bounded(nodes, "nodes", 1, MAX_NODES["heat"])
    # LevelTooLarge beyond DEFAULT_MAX_LEVEL, before any sample is built
    check_level(level)
    _bounded(steps, "steps", 0, MAX_STEPS)
    if dt is not None and not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dim = 1 << level
    h = 1.0 / nodes
    dt = dt if dt is not None else h * h / 2
    field = GridField(np.random.default_rng(seed).standard_normal((nodes, dim)), h,
                      level=level)
    evolved = heat_evolve(field, dt, steps)
    decoupled = all(np.array_equal(heat_evolve(field.component(k), dt, steps).values[:, 0],
                                   evolved.values[:, k]) for k in range(dim))
    return {"nodes": nodes, "steps": steps, "dt": dt, "level": level,
            "componentwise_decoupling": decoupled,
            "mode_decay_factor": single_mode_decay_factor(nodes, dt),
            "final_mean": [float(m) for m in evolved.values.mean(axis=0)]}


# ---------------------------------------------------------------------------
# residuals on 2-d grids
# ---------------------------------------------------------------------------

def _as_object_grid(values):
    arr = np.empty((len(values), len(values[0])), dtype=object)
    for i, row in enumerate(values):
        for j, v in enumerate(row):
            arr[i, j] = v
    return arr


def residual(system: PDESystem, fields: dict, spacings):
    """Central-difference residual of each equation at every interior node.

    ``fields`` maps each dependent name to a 2-d array (nested lists are
    fine) of scalars or algebra elements indexed along the system's two
    independents, node (0, 0) at the origin; ``spacings`` gives the step per
    independent.  Returns one interior-shaped nested list per equation.
    Monomials evaluate left-to-right in the coordinate order, so
    noncommutative coefficients multiply exactly as written.
    """
    coords = system.coords
    if len(coords.independents) != 2:
        raise ValueError("grid residuals support two independents")
    if coords.order > 2:
        raise ValueError("residuals support order <= 2")
    grids = {name: _as_object_grid(fields[name]) for name in coords.dependents}
    shapes = {g.shape for g in grids.values()}
    if len(shapes) != 1:
        raise AlgebraMismatch("dependent grids have different shapes")
    (n1, n2), = shapes
    margin = 1
    if n1 < 2 * margin + 1 or n2 < 2 * margin + 1:
        raise ResolutionTooSmall("need at least 3 nodes per axis")
    h1, h2 = spacings
    x_name, y_name = coords.independents

    sample = next(iter(grids.values()))[0, 0]
    algebra_valued = isinstance(sample, CDElement)
    one = CDElement.one(sample.level) if algebra_valued else Fraction(1)

    def embed(value):
        # base coordinates enter as multiples of the unit, with exact zeros
        # off it, so that mixed monomials stay inside the algebra
        return CDElement.basis(sample.level, 0, value) if algebra_valued else value * one

    def env_at(i, j):
        env = {x_name: embed(i * h1), y_name: embed(j * h2)}
        for dep, g in grids.items():
            u = g[i, j]
            env[dep] = u
            if coords.order >= 1:
                env[f"{dep}_{x_name}"] = (g[i + 1, j] - g[i - 1, j]) / (2 * h1)
                env[f"{dep}_{y_name}"] = (g[i, j + 1] - g[i, j - 1]) / (2 * h2)
            if coords.order >= 2:
                names = {
                    coords.derivative_name(dep, x_name, x_name):
                        (g[i + 1, j] - 2 * u + g[i - 1, j]) / (h1 * h1),
                    coords.derivative_name(dep, y_name, y_name):
                        (g[i, j + 1] - 2 * u + g[i, j - 1]) / (h2 * h2),
                    coords.derivative_name(dep, x_name, y_name):
                        (g[i + 1, j + 1] - g[i + 1, j - 1]
                         - g[i - 1, j + 1] + g[i - 1, j - 1]) / (4 * h1 * h2),
                }
                if not coords.symmetric:
                    names[f"{dep}_{y_name}{x_name}"] = names[
                        coords.derivative_name(dep, x_name, y_name)
                    ]
                env.update(names)
        return env

    order = coords.variables
    out = []
    for eq in system.equations:
        rows = []
        for i in range(margin, n1 - margin):
            row = []
            for j in range(margin, n2 - margin):
                row.append(eq.evaluate(env_at(i, j), one=one, var_order=order))
            rows.append(row)
        out.append(rows)
    return out


# ---------------------------------------------------------------------------
# separable-solution check for the product equation
# ---------------------------------------------------------------------------

@dataclass
class SeparableReport:
    max_residual: float
    witness: tuple | None
    commutative_subalgebra: bool
    nodes_checked: int

    def to_json_dict(self) -> dict:
        out = {
            "max_residual": self.max_residual,
            "commutative_subalgebra": self.commutative_subalgebra,
            "nodes_checked": self.nodes_checked,
        }
        if self.witness is not None:
            i, j, value = self.witness
            out["witness"] = {"i": i, "j": j, "value": value.to_json_dict()}
        return out


def _float_commute_associate(values, tolerance: float) -> bool:
    """Is the largest per-coefficient deviation of ab from ba over all
    sample pairs, and of (ab)c from a(bc) over all triples, within
    tolerance?

    The products run as whole arrays: the commutators of one block of
    first arguments at once, then for each a the associators of one block
    of b with every c.  Blocks hold as many samples as keep each array
    near ``SLAB_ENTRIES`` entries, so small inputs make one block.  Stops
    at the first failing array.
    """
    table = structure_constants(values[0].level)
    v = np.array([x.coeffs for x in values], dtype=float)
    m, dim = v.shape
    block = max(1, SLAB_ENTRIES // (dim * max(m, dim)))

    def times_samples(mats, out=None):
        # [(k, b), c] = (mats[b] @ c)_k for every sample c, as one 2-d
        # matrix product
        return np.matmul(mats.transpose(1, 0, 2).reshape(-1, dim), v.T, out=out)

    def within(deviation) -> bool:
        # in place; NaN fails, as it fails isclose
        np.abs(deviation, out=deviation)
        return bool(deviation.max() <= tolerance)

    blocks = [v[lo:lo + block] for lo in range(0, m, block)]
    # overflow and inf - inf are quiet in Python float arithmetic too
    with np.errstate(over="ignore", invalid="ignore"):
        for va in blocks:
            # [(k, a), b] = (ab)_k - (ba)_k
            if not within(times_samples(table.operator(va))
                          - times_samples(table.operator(va, "right"))):
                return False
        for vb in blocks:
            n = len(vb)
            # [j, (b, c)] = (bc)_j, so that one matrix product gives a(bc)
            bc = times_samples(table.operator(vb)).reshape(dim, n * m)
            # reused for every a: fresh arrays of this size cost page faults
            # that took longer than the products
            abc = np.empty((dim, n * m))
            a_bc = np.empty((dim, n * m))
            for a in v:
                la = table.operator(a)
                # [(k, b), c] = ((ab)c)_k, ab being row b of vb @ la.T
                times_samples(table.operator(vb @ la.T), out=abc.reshape(dim * n, m))
                np.matmul(la, bc, out=a_bc)
                if not within(np.subtract(abc, a_bc, out=abc)):
                    return False
    return True


def _exact_commute_associate(values) -> bool:
    """Exact check on a basis of the span of the samples: commutator and
    associator are multilinear, so they vanish on the samples exactly when
    they vanish on the basis.  The rref rows are scaled to integers, which
    changes no verdict."""
    if not values:
        return True
    level = values[0].level
    rows, pivots = rref([x.coeffs for x in values])
    basis = [CDElement(level, integer_vector(row)) for row in rows[:len(pivots)]]
    for a, b in itertools.combinations(basis, 2):
        if a * b != b * a:
            return False
    for a in basis:
        for b in basis:
            ab = a * b
            for c in basis:
                if ab * c != a * (b * c):
                    return False
    return True


def _values_commute_associate(values, tolerance: float) -> bool:
    """Do the samples lie in one commutative associative subalgebra?

    Exact samples get an exact verdict.  When any sample is a float, every
    sample also takes part in the float check against ``tolerance``."""
    exact = [x for x in values if x.is_exact]
    if len(exact) < len(values) and not _float_commute_associate(values, tolerance):
        return False
    return _exact_commute_associate(exact)


def _largest(mags, tolerance: float):
    """The per-pair loop's verdict on the residual norms ``mags`` in
    row-major order: the largest one (0.0 when none is positive; NaN never
    counts) and, when it exceeds the tolerance, the index of its first
    occurrence, else None."""
    worst, hit = 0.0, None
    for n, mag in enumerate(mags):
        if mag > worst:
            worst = mag
            if mag > tolerance:
                hit = n
    return worst, hit


def _pair_residuals(f_values, g_values, f_derivs, g_derivs):
    """R at every node pair, in row-major order, from six ``CDElement``
    products each: the path of exact and mixed samples, and of the one
    witness pair."""
    out = []
    for f, fp in zip(f_values, f_derivs):
        for g, gp in zip(g_values, g_derivs):
            u = f * g
            u_x = fp * g
            u_y = f * gp
            u_xy = fp * gp
            out.append(u * u_xy - u_x * u_y)
    return out


def _batched_residual_norms(level: int, f_values, g_values, f_derivs, g_derivs):
    """The norms of R at every node pair, in row-major order, from two
    ``structure_multiply_rows`` calls per block of f rows, [f g, f' g,
    f g', f' g'] and then [u u_xy, u_x u_y]; a block's products hold at
    most ``SLAB_ENTRIES`` entries.

    Every step repeats a float operation of the per-pair loop, so the
    norms are bit for bit those of ``_pair_residuals``: a coefficient that
    the loop leaves as the int 0 is +0.0 here, which the subtraction treats
    alike, as Python does; the squares are summed in coefficient order from
    +0.0 as ``sum`` adds them, and the square root is Python's ``** 0.5``
    of each sum."""
    f, fp, g, gp = (np.array([x.coeffs for x in values], dtype=float)
                    for values in (f_values, f_derivs, g_values, g_derivs))
    n2, dim = g.shape
    step = max(1, SLAB_ENTRIES // (4 * n2 * dim))
    sums = []
    for lo in range(0, len(f), step):
        fb, fpb = f[lo:lo + step], fp[lo:lo + step]
        shape = (4, len(fb), n2, dim)
        left = np.broadcast_to(np.stack([fb, fpb, fb, fpb])[:, :, None], shape)
        right = np.broadcast_to(np.stack([g, g, gp, gp])[:, None], shape)
        u, u_x, u_y, u_xy = structure_multiply_rows(
            level, left.reshape(-1, dim), right.reshape(-1, dim)).reshape(4, -1, dim)
        a, b = structure_multiply_rows(
            level, np.concatenate([u, u_x]), np.concatenate([u_xy, u_y])).reshape(2, -1, dim)
        with np.errstate(over="ignore", invalid="ignore"):
            squares = np.square(a - b)
            total = squares[:, 0] + 0.0
            for k in range(1, dim):
                total += squares[:, k]
        sums += total.tolist()
    return [s ** 0.5 for s in sums]


def separable_dalembert_check(
    f_values, g_values, f_derivs, g_derivs, tolerance: float = DEFAULT_TOLERANCE
) -> SeparableReport:
    """Evaluate R = u u_xy - u_x u_y for the product ansatz u = f(x) g(y).

    ``f_values``/``f_derivs`` sample an algebra-valued f and its derivative
    on a 1-d grid (analytic derivatives or central differences, caller's
    choice), likewise for g; each list of values needs one derivative per
    value and at least one value, else ValueError before any product.
    R vanishes identically whenever all sampled values and derivatives lie
    in one commutative associative subalgebra; the report carries the
    commutativity diagnosis and, as witness, the first node pair in
    row-major order with the largest residual when that residual's
    euclidean norm exceeds the tolerance.

    When every sample coefficient is a Python float, the residual norms
    come from ``_batched_residual_norms``, bit for bit those of the six
    ``CDElement`` products per pair that exact and mixed samples take; the
    witness is always those six products at its pair.  Samples that are
    not all exact get ``check_level`` before any product.

    The diagnosis is exact when every sample is exact (int/Fraction): it
    checks commutators and associators on an exact basis of the samples'
    span.  Otherwise it compares against the tolerance the largest
    per-coefficient deviation |(ab - ba)_k| over all sample pairs and
    |((ab)c - a(bc))_k| over all sample triples; exact samples among
    floats are also checked exactly among themselves.
    """
    sizes = tuple(map(len, (f_values, f_derivs, g_values, g_derivs)))
    if not sizes[0] or not sizes[2] or sizes[0] != sizes[1] or sizes[2] != sizes[3]:
        raise ValueError("need as many derivatives as values, and at least one value, "
                         "for f and for g; got {} f values, {} f derivatives, "
                         "{} g values, {} g derivatives".format(*sizes))
    samples = [*f_values, *g_values, *f_derivs, *g_derivs]
    levels = {v.level for v in samples}
    if len(levels) != 1:
        raise AlgebraMismatch("samples mix algebra levels")
    level, = levels
    if not all(x.is_exact for x in samples):
        check_level(level)
    if all(type(c) is float for x in samples for c in x.coeffs):
        mags = _batched_residual_norms(level, f_values, g_values, f_derivs, g_derivs)
    else:
        mags = [float(sum(float(c) * float(c) for c in r.coeffs)) ** 0.5
                for r in _pair_residuals(f_values, g_values, f_derivs, g_derivs)]
    worst, hit = _largest(mags, tolerance)
    witness = None
    if hit is not None:
        i, j = divmod(hit, sizes[2])
        r, = _pair_residuals(f_values[i:i + 1], g_values[j:j + 1],
                             f_derivs[i:i + 1], g_derivs[j:j + 1])
        witness = (i, j, r)
    return SeparableReport(
        max_residual=worst,
        witness=witness,
        commutative_subalgebra=_values_commute_associate(samples, tolerance),
        nodes_checked=len(mags),
    )


def cos_sin_dalembert_check(level: int, nodes: int, f_axis: int, g_axis: int,
                            tolerance: float = DEFAULT_TOLERANCE) -> SeparableReport:
    """``separable_dalembert_check`` of cos t + sin t e_axis for the f and
    g axes (real past 2^level - 1) and their derivatives at ``nodes`` points
    of [0, 1].  Checks the inputs before any sample is built."""
    _bounded(nodes, "nodes", 1, MAX_NODES["dalembert"])
    # LevelTooLarge beyond DEFAULT_MAX_LEVEL
    check_level(level)
    if min(f_axis, g_axis) < 0:
        raise ValueError("f_axis and g_axis must be >= 0")
    dim = 1 << level

    def sample(axis):
        vals, ders = [], []
        for t in np.linspace(0.0, 1.0, nodes):
            coeffs, dcoeffs = [0.0] * dim, [0.0] * dim
            coeffs[0], dcoeffs[0] = math.cos(t), -math.sin(t)
            if axis < dim:
                coeffs[axis], dcoeffs[axis] = math.sin(t), math.cos(t)
            vals.append(CDElement(level, coeffs))
            ders.append(CDElement(level, dcoeffs))
        return vals, ders

    f_vals, f_der = sample(f_axis)
    g_vals, g_der = sample(g_axis)
    return separable_dalembert_check(f_vals, g_vals, f_der, g_der, tolerance=tolerance)
