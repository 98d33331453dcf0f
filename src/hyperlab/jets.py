"""Differential-polynomial systems in jet coordinates.

Jet variables are central (formally commuting) symbols with rational
coefficients, so formal Jacobians and minor determinants follow ordinary
commutative calculus; noncommutativity enters only when a polynomial is
evaluated at algebra-valued points, where each monomial multiplies out
left-to-right in the coordinate order.  A point on the zero set is
classified Regular when some minor of the Jacobian evaluates to an element
whose left-multiplication operator is invertible, Singular otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, factorial

from .cayley_dickson import AlgebraMismatch, CDElement, check_level, is_operator_invertible
from .exact import DEFAULT_TOLERANCE, is_exact, is_scalar, parse_number
from .polynomials import Poly, poly_matrix_determinant


# work caps, checked before the work starts (README.md gives their cost)
MAX_JET_VARIABLES = 4096
MAX_MINOR_PRODUCTS = 100_000


class InvalidSystem(ValueError):
    """A system, coordinate or equation file of the wrong shape or size."""


class OffVariety(ValueError):
    """Point fails the system's equations; carries per-equation residuals."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JetCoordinateSystem:
    """Ordered jet variables: base coordinates, dependents, derivatives.

    Order-1 derivatives are listed dependent-major (u1_x, u1_y, u2_x, ...).
    At order >= 2 the ``symmetric`` flag selects symmetrized multi-indices
    (u_xx, u_xy, u_yy) versus full ordered tensors (u_xx, u_xy, u_yx,
    u_yy); the ordering is total and serialized with every artifact.
    ``variables`` is derived from the other fields, and more than
    MAX_JET_VARIABLES of them are refused before any name is built, as is
    a name that repeats an earlier one (dependents ("u", "u_x") at order 1).
    """

    independents: tuple
    dependents: tuple
    order: int
    symmetric: bool = True
    variables: tuple = field(init=False)

    def __post_init__(self):
        if type(self.order) is not int or self.order < 0:
            raise InvalidSystem("order must be an integer >= 0")
        m, n = len(self.independents), len(self.dependents)
        if not (m and n):
            count = m + n  # no derivatives without both
        elif self.order > MAX_JET_VARIABLES:
            count = m + n + self.order  # a lower bound: each order adds some
        else:
            count = sum(jet_dimensions(m, n, self.order,
                                       "symmetric" if self.symmetric else "full"))
        if count > MAX_JET_VARIABLES:
            raise InvalidSystem(
                f"{count} jet variables exceed the cap of {MAX_JET_VARIABLES}")
        variables = self._build_variables()
        if len(set(variables)) < len(variables):
            repeated = next(v for i, v in enumerate(variables) if v in variables[:i])
            raise InvalidSystem(f"jet variable {repeated!r} is repeated")
        object.__setattr__(self, "variables", variables)

    def _build_variables(self) -> tuple:
        names = list(self.independents) + list(self.dependents)
        for k in range(1, self.order + 1):
            for dep in self.dependents:
                if self.symmetric:
                    combos = itertools.combinations_with_replacement(
                        self.independents, k
                    )
                else:
                    combos = itertools.product(self.independents, repeat=k)
                for combo in combos:
                    names.append(f"{dep}_{''.join(combo)}")
        return tuple(names)

    def derivative_name(self, dep: str, *inds: str) -> str:
        inds = tuple(sorted(inds)) if self.symmetric else inds
        return f"{dep}_{''.join(inds)}"

    def to_json_dict(self) -> dict:
        return {
            "independents": list(self.independents),
            "dependents": list(self.dependents),
            "order": self.order,
            "symmetric": self.symmetric,
            "variables": list(self.variables),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JetCoordinateSystem":
        names = [data.get(key) if isinstance(data, dict) else None
                 for key in ("independents", "dependents")]
        if not all(isinstance(v, list) and all(isinstance(x, str) for x in v)
                   for v in names):
            raise InvalidSystem("coordinates need independents and dependents "
                                "as lists of names")
        if type(data.get("symmetric", True)) is not bool:
            raise InvalidSystem("symmetric must be true or false")
        return cls(tuple(names[0]), tuple(names[1]), data.get("order"),
                   data.get("symmetric", True))


def jet_dimensions(m: int, n: int, k: int, mode: str = "full") -> tuple:
    """Per-order fiber dimensions: (m + n) base/dependent coordinates, then
    n * m^j derivative coordinates at order j in full mode or
    n * C(m + j - 1, j) in symmetric mode."""
    if m < 1 or n < 1 or k < 0:
        raise ValueError("need m, n >= 1 and k >= 0")
    if mode not in ("full", "symmetric"):
        raise ValueError("mode must be 'full' or 'symmetric'")
    dims = [m + n]
    for j in range(1, k + 1):
        dims.append(n * (m ** j if mode == "full" else comb(m + j - 1, j)))
    return tuple(dims)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

@dataclass
class PDESystem:
    """Named list of differential polynomials over one coordinate system.

    ``level`` optionally pins the coefficient algebra (a doubling level);
    when set, algebra-valued points are checked against it.  Nonzero
    minors are kept once computed: do not change the equations after that.
    """

    name: str
    coords: JetCoordinateSystem
    equations: list
    level: int | None = None
    _minors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.level is not None:
            check_level(self.level)
        known = set(self.coords.variables)
        for eq in self.equations:
            missing = eq.variables() - known
            if missing:
                raise ValueError(f"unknown jet variables {sorted(missing)}")

    def to_json_dict(self) -> dict:
        algebra = (
            {"kind": "cayley_dickson", "level": self.level}
            if self.level is not None else None
        )
        return {
            "name": self.name,
            "coordinates": self.coords.to_json_dict(),
            "equations": [eq.to_json_dict() for eq in self.equations],
            "algebra": algebra,
        }

    def nonzero_minors(self, size: int) -> list:
        """The ((rows, cols), determinant) of each ``size`` x ``size``
        minor of the formal Jacobian whose determinant is not the zero
        polynomial, computed on the first call for each size."""
        if size not in self._minors:
            self._minors[size] = [
                (key, det) for key, det in minor_determinants(formal_jacobian(self), size)
                if not det.is_zero()
            ]
        return self._minors[size]

    @classmethod
    def from_json_dict(cls, data: dict) -> "PDESystem":
        algebra = data.get("algebra") or {}
        if not isinstance(algebra, dict):
            raise InvalidSystem('algebra must be null or {"level": integer}')
        if not isinstance(data.get("equations"), list):
            raise InvalidSystem("equations must be a list of polynomials")
        return cls(
            name=data.get("name", "system"),
            coords=JetCoordinateSystem.from_json_dict(data.get("coordinates")),
            equations=[Poly.from_json_dict(e) for e in data["equations"]],
            level=algebra.get("level"),
        )


def _v(name: str) -> Poly:
    return Poly.variable(name)


# the stock first-order singular systems plus the heat and product
# (separable d'Alembert) equations, transcribed with their coordinate
# orderings; one builder each, so that a caller builds only what it names

def _r1() -> PDESystem:
    u1x, u1y, u2x, u2y = map(_v, ("u1_x", "u1_y", "u2_x", "u2_y"))
    return PDESystem(
        "r1", JetCoordinateSystem(("x", "y"), ("u1", "u2"), order=1),
        [u1x ** 4 + u2y ** 4 - u1x ** 2,
         u2x ** 6 + u1y ** 6 - u2x * u1y],
    )


def _s1() -> PDESystem:
    u1x, u1y, u2x, u2y = map(_v, ("u1_x", "u1_y", "u2_x", "u2_y"))
    return PDESystem(
        "s1", JetCoordinateSystem(("x", "y"), ("u1", "u2"), order=1),
        [u1x ** 4 + u2y ** 4 - u1x ** 3 + u2y ** 2,
         u2x ** 4 + u1y ** 4 - u2x ** 2 * u1y - u2x * u1y ** 2],
    )


def _t1() -> PDESystem:
    u1, u2, u3 = _v("u1"), _v("u2"), _v("u3")
    u3y = _v("u3_y")
    return PDESystem(
        "t1", JetCoordinateSystem(("x", "y"), ("u1", "u2", "u3"), order=1),
        [u1 ** 2 - _v("u1_x") * _v("u2_y") ** 2,
         u2 ** 2 - _v("u2_x") ** 2 - _v("u1_y") ** 2,
         u3 ** 3 + u3y ** 3 + _v("u2_x") * u3y],
    )


def _heat() -> PDESystem:
    return PDESystem(
        "heat", JetCoordinateSystem(("t", "x"), ("u",), order=2, symmetric=True),
        [_v("u_xx") - _v("u_t")],
    )


def _dalembert() -> PDESystem:
    return PDESystem(
        "dalembert", JetCoordinateSystem(("x", "y"), ("u",), order=2, symmetric=True),
        [_v("u") * _v("u_xy") - _v("u_x") * _v("u_y")],
    )


BUILTIN_SYSTEMS = {
    "r1": _r1,
    "s1": _s1,
    "t1": _t1,
    "heat": _heat,
    "dalembert": _dalembert,
}


def builtin_system(name: str) -> PDESystem:
    """A fresh copy of the stock system ``name``, one of BUILTIN_SYSTEMS,
    built alone (the others are not built); KeyError for any other name.
    Each call returns a new system with no minors computed yet."""
    return BUILTIN_SYSTEMS[name]()


def builtin_systems() -> dict:
    """A fresh copy of every stock system, by name."""
    return {name: build() for name, build in BUILTIN_SYSTEMS.items()}


# ---------------------------------------------------------------------------
# Jacobian and minors
# ---------------------------------------------------------------------------

def formal_jacobian(system: PDESystem):
    """Matrix of formal partials: entry (i, j) differentiates equation i by
    jet variable j, in the system's coordinate order."""
    return [
        [eq.diff(name) for name in system.coords.variables]
        for eq in system.equations
    ]


def minor_determinants(jacobian, size: int):
    """Determinants of every size x size minor as formal polynomials, in
    lexicographic (row combination, column combination) order.

    The cofactor expansions take at most C(rows, size) * C(cols, size) *
    size! products; past MAX_MINOR_PRODUCTS the call is refused first."""
    nrows = len(jacobian)
    ncols = len(jacobian[0]) if nrows else 0
    if not 0 <= size <= min(nrows, ncols):
        raise ValueError(f"minor size must lie in 0..{min(nrows, ncols)}")
    minors = comb(nrows, size) * comb(ncols, size)
    if minors * factorial(size) > MAX_MINOR_PRODUCTS:
        raise InvalidSystem(
            f"{minors} minors of size {size} take up to {minors * factorial(size)} "
            f"cofactor products, over the cap of {MAX_MINOR_PRODUCTS}")
    out = []
    for rows in itertools.combinations(range(nrows), size):
        for cols in itertools.combinations(range(ncols), size):
            block = [[jacobian[r][c] for c in cols] for r in rows]
            out.append(((rows, cols), poly_matrix_determinant(block)))
    return out


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------

def _value_invertible(value, tolerance: float) -> bool:
    """Whether a scalar or algebra value is invertible (for an element: its
    left-multiplication operator)."""
    if is_scalar(value):
        return value != 0 if is_exact(value) else abs(value) > tolerance
    if isinstance(value, CDElement):
        (left,) = is_operator_invertible(value, tolerance, sides=("left",))
        return left
    raise AlgebraMismatch(f"unsupported point value {value!r}")


def _value_is_zero(value, tolerance: float) -> bool:
    if is_scalar(value):
        return value == 0 if is_exact(value) else abs(value) <= tolerance
    if isinstance(value, CDElement):
        if value.is_exact:
            return value.is_zero()
        return all(abs(c) <= tolerance for c in value.coeffs)
    raise AlgebraMismatch(f"unsupported point value {value!r}")


@dataclass
class MinorDiagnostic:
    rows: tuple
    cols: tuple
    value: object
    invertible: bool

    def to_json_dict(self) -> dict:
        if isinstance(self.value, CDElement):
            value = self.value.to_json_dict()
        else:
            value = str(self.value)
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "value": value,
            "invertible": self.invertible,
        }


@dataclass
class PointClassification:
    regular: bool
    minors: list

    @property
    def label(self) -> str:
        return "Regular" if self.regular else "Singular"

    def to_json_dict(self) -> dict:
        return {
            "classification": self.label,
            "minor_diagnostics": [m.to_json_dict() for m in self.minors],
        }


def _fill_point(system: PDESystem, point: dict):
    """Each jet variable's value (zero where the point names none) and the
    unit; if the point holds an element, a scalar becomes its multiple of
    the unit, with exact zeros off the unit."""
    known = set(system.coords.variables)
    for name in point:
        if name not in known:
            raise ValueError(f"{name!r:.40} is not a jet variable of the system")
    levels = {value.level for value in point.values() if isinstance(value, CDElement)}
    if len(levels) > 1:
        raise AlgebraMismatch("point mixes algebra levels")
    level = levels.pop() if levels else None
    if level is not None and system.level is not None and level != system.level:
        raise AlgebraMismatch(
            f"point lives at level {level} but the system is pinned to "
            f"level {system.level}"
        )
    one = CDElement.one(level) if level is not None else 1
    env = {name: point.get(name, 0 * one) for name in system.coords.variables}
    if level is not None:
        env = {name: CDElement.basis(level, 0, value) if is_scalar(value) else value
               for name, value in env.items()}
    return env, one


def classify_point(
    system: PDESystem,
    point: dict,
    minor_size: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> PointClassification:
    """Regular iff some minor determinant of the formal Jacobian evaluates,
    at the point, to a value with an invertible left-multiplication
    operator.  The point must satisfy the equations first (OffVariety
    otherwise; exact points exactly, float points within the tolerance).
    A float algebra value's operator is invertible when all its singular
    values exceed the tolerance.  The minors come from
    ``system.nonzero_minors``, computed once per system and size.
    """
    env, one = _fill_point(system, point)
    order = system.coords.variables

    residuals = {}
    for i, eq in enumerate(system.equations):
        value = eq.evaluate(env, one=one, var_order=order)
        if not _value_is_zero(value, tolerance):
            residuals[f"equation_{i}"] = value
    if residuals:
        raise OffVariety("point does not satisfy the system", residuals)

    if minor_size is None:
        minor_size = len(system.equations)
    diagnostics = []
    regular = False
    for (rows, cols), det in system.nonzero_minors(minor_size):
        value = det.evaluate(env, one=one, var_order=order)
        invertible = _value_invertible(value, tolerance)
        diagnostics.append(MinorDiagnostic(rows, cols, value, invertible))
        regular = regular or invertible
    return PointClassification(regular=regular, minors=diagnostics)


def load_point(raw) -> dict:
    """A scan point: each value an algebra element ``{"level", "coeffs"}``,
    exact numeric text, or a JSON number, read as a float."""
    if not isinstance(raw, dict):
        raise ValueError(f"a point must be a JSON object, got {raw!r:.40}")
    point = {}
    for name, value in raw.items():
        if isinstance(value, dict):
            point[name] = CDElement.from_json_dict(value)
        elif isinstance(value, str):
            point[name] = parse_number(value)
        else:
            try:
                point[name] = float(parse_number(value))
            except OverflowError:
                raise ValueError(
                    f"{name:.40}: a JSON number outside the float range") from None
    return point


def scan_points(system: PDESystem, raw_points: list, minor_size: int | None = None,
                tolerance: float = DEFAULT_TOLERANCE) -> list:
    """One entry per raw point, read by ``load_point``: the ``point`` as
    given, whether it is ``satisfied``, then ``classify_point``'s
    classification, or "OffVariety" and the residuals as text.  The
    minors are computed at the first point that satisfies the system."""
    results = []
    for raw in raw_points:
        point = load_point(raw)
        try:
            cls = classify_point(system, point, minor_size, tolerance=tolerance)
            results.append({"point": raw, "satisfied": True, **cls.to_json_dict()})
        except OffVariety as exc:
            results.append({"point": raw, "satisfied": False, "classification": "OffVariety",
                            "residuals": {k: str(v) for k, v in exc.residuals.items()}})
    return results
