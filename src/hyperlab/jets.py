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
from fractions import Fraction
from math import comb, factorial

from .cayley_dickson import AlgebraMismatch, CDElement, is_operator_invertible
from .exact import DEFAULT_TOLERANCE, is_exact
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
    MAX_JET_VARIABLES of them are refused before any name is built.
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
        object.__setattr__(self, "variables", self._build_variables())

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

    def index(self, name: str) -> int:
        return self.variables.index(name)

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
    when set, algebra-valued points are checked against it.
    """

    name: str
    coords: JetCoordinateSystem
    equations: list
    level: int | None = None

    def __post_init__(self):
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "PDESystem":
        algebra = data.get("algebra") or {}
        if not isinstance(algebra, dict) or type(algebra.get("level")) not in (int, type(None)):
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


def builtin_systems() -> dict:
    """The stock first-order singular systems plus the heat and product
    (separable d'Alembert) equations, transcribed with their coordinate
    orderings."""
    systems = {}

    c1 = JetCoordinateSystem(("x", "y"), ("u1", "u2"), order=1)
    u1x, u1y = _v("u1_x"), _v("u1_y")
    u2x, u2y = _v("u2_x"), _v("u2_y")
    systems["r1"] = PDESystem(
        "r1", c1,
        [u1x ** 4 + u2y ** 4 - u1x ** 2,
         u2x ** 6 + u1y ** 6 - u2x * u1y],
    )
    systems["s1"] = PDESystem(
        "s1", c1,
        [u1x ** 4 + u2y ** 4 - u1x ** 3 + u2y ** 2,
         u2x ** 4 + u1y ** 4 - u2x ** 2 * u1y - u2x * u1y ** 2],
    )

    c2 = JetCoordinateSystem(("x", "y"), ("u1", "u2", "u3"), order=1)
    u1, u2, u3 = _v("u1"), _v("u2"), _v("u3")
    u3y = _v("u3_y")
    systems["t1"] = PDESystem(
        "t1", c2,
        [u1 ** 2 - _v("u1_x") * _v("u2_y") ** 2,
         u2 ** 2 - _v("u2_x") ** 2 - _v("u1_y") ** 2,
         u3 ** 3 + u3y ** 3 + _v("u2_x") * u3y],
    )

    heat_coords = JetCoordinateSystem(("t", "x"), ("u",), order=2, symmetric=True)
    systems["heat"] = PDESystem(
        "heat", heat_coords, [_v("u_xx") - _v("u_t")]
    )

    d_coords = JetCoordinateSystem(("x", "y"), ("u",), order=2, symmetric=True)
    systems["dalembert"] = PDESystem(
        "dalembert", d_coords,
        [_v("u") * _v("u_xy") - _v("u_x") * _v("u_y")],
    )
    return systems


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

def _is_scalar(value) -> bool:
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


def _value_invertible(value, tolerance: float) -> bool:
    """Whether a scalar or algebra value is invertible (for an element: its
    left-multiplication operator)."""
    if _is_scalar(value):
        return value != 0 if is_exact(value) else abs(value) > tolerance
    if isinstance(value, CDElement):
        (left,) = is_operator_invertible(value, tolerance, sides=("left",))
        return left
    raise AlgebraMismatch(f"unsupported point value {value!r}")


def _value_is_zero(value, tolerance: float) -> bool:
    if _is_scalar(value):
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
    """Complete a partial assignment with zeros and check levels agree."""
    env = {}
    level = None
    for value in point.values():
        if isinstance(value, CDElement):
            level = value.level if level is None else level
            if value.level != level:
                raise AlgebraMismatch("point mixes algebra levels")
    if level is not None and system.level is not None and level != system.level:
        raise AlgebraMismatch(
            f"point lives at level {level} but the system is pinned to "
            f"level {system.level}"
        )
    for name in system.coords.variables:
        if name in point:
            env[name] = point[name]
        else:
            env[name] = CDElement.zero(level) if level is not None else Fraction(0)
    one = CDElement.one(level) if level is not None else Fraction(1)
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
    values exceed the tolerance.
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
    jac = formal_jacobian(system)
    diagnostics = []
    regular = False
    for (rows, cols), det in minor_determinants(jac, minor_size):
        if det.is_zero():
            continue
        value = det.evaluate(env, one=one, var_order=order)
        invertible = _value_invertible(value, tolerance)
        diagnostics.append(MinorDiagnostic(rows, cols, value, invertible))
        regular = regular or invertible
    return PointClassification(regular=regular, minors=diagnostics)
