"""Command-line front end.

Every subcommand builds a JSON-serializable payload and an exit code:
0 on success, 1 when a verification the command performs fails (the
payload then carries machine-readable witnesses), 2 on usage or input
errors.  ``--json`` prints the raw payload; the default rendering is a
short text summary of the same data.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import abelian as ab
from . import algebras as qa
from . import grid as gridmod
from . import heyting as hey
from . import jets
from . import reference_tables as ref
from .cayley_dickson import (
    DEFAULT_MAX_LEVEL,
    CDElement,
    ExhaustiveBasis,
    RandomSample,
    find_zero_divisors,
    identity_battery,
    structure_constants,
)
from .exact import bounded_fraction


@dataclass
class CommandResult:
    code: int
    payload: dict

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True)


class InputError(ValueError):
    pass


def _load_json(path: str, kind: type):
    """The JSON value in ``path``, which must be a ``kind``: dict or list."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, kind):
        raise InputError(f"{path} must hold a JSON {'object' if kind is dict else 'list'}")
    return data


def _numbers(values, what: str) -> list:
    """``values`` if it lists finite numbers (not booleans) or strings (text
    that is no number is a ValueError later)."""
    if not isinstance(values, list) or not all(
            isinstance(v, str) or type(v) in (int, float) and math.isfinite(v)
            for v in values):
        raise InputError(f"{what} must be a list of finite numbers or numeric strings")
    return values


def _bounded(value: int, flag: str, low: int, high: int) -> None:
    if not low <= value <= high:
        raise InputError(f"{flag} must lie in {low}..{high}, got {value}")


def _tolerance(text: str) -> float:
    """The argparse type of ``--tolerance``: a finite float >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


# caps checked before any work; README.md gives the measured cost at each
MAX_SAMPLE_COUNT = 1000
MAX_NODES = {"heat": 1024, "dalembert": 64}
MAX_STEPS = 1000


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_table(args) -> CommandResult:
    table = structure_constants(args.level)
    payload = {"table": table.to_json_dict(), "dim": table.dim}
    code = 0
    if args.compare:
        reference = ref.reference_table_for_level(args.level)
        if reference is None:
            raise InputError(f"no embedded reference table for level {args.level}")
        mismatches = ref.compare_with_reference(table, reference)
        cells = [m.to_json_dict() for m in mismatches]
        if args.level >= 4:
            # the sedenion transcription is advisory; report, don't fail
            payload["diagnostics"] = {"mismatched_cells": cells}
        else:
            payload["mismatches"] = cells
            if cells:
                code = 1
    if args.dense:
        payload["table"] = {
            "kind": "structure_constants",
            "dim": table.dim,
            "unit": [1] + [0] * (table.dim - 1),
            "gamma": table.dense_gamma(),
        }
    return CommandResult(code, payload)


def _cmd_props(args) -> CommandResult:
    if args.mode == "exhaustive-basis":
        mode = ExhaustiveBasis()
    else:
        _bounded(args.count, "--count", 1, MAX_SAMPLE_COUNT)
        mode = RandomSample(count=args.count, seed=args.seed)
    report = identity_battery(args.level, mode)
    return CommandResult(0, report.to_json_dict())


def _cmd_zerodiv(args) -> CommandResult:
    pairs = find_zero_divisors(args.level)
    # the pairs share their elements, so the payload shares their dicts:
    # at level 4 that takes about 3 MB off the peak memory
    dicts = {id(x): x.to_json_dict() for pair in pairs for x in pair}
    payload = {
        "level": args.level,
        "count": len(pairs),
        "pairs": [{"a": dicts[id(a)], "b": dicts[id(b)]} for a, b in pairs],
    }
    return CommandResult(0, payload)


def _base_algebra(name: str) -> qa.StructureAlgebra:
    try:
        return qa.BASE_ALGEBRAS[name]()
    except KeyError:
        raise InputError(
            f"unknown base algebra {name!r}; choose from {sorted(qa.BASE_ALGEBRAS)}"
        )


def _cmd_qalg(args) -> CommandResult:
    base = _base_algebra(args.base)
    algebra = qa.tensor_algebra(base, args.level)
    payload = {
        "algebra": algebra.to_json_dict(),
        "dim": algebra.dim,
        "associative": algebra.associative,
    }
    code = 0
    if args.op == "tensor":
        payload["embeddings"] = qa.verify_embeddings(algebra)
        if not all(payload["embeddings"].values()):
            code = 1
    elif args.op == "centre":
        basis = qa.centre(algebra)
        payload["centre_dimension"] = len(basis)
        payload["centre_basis"] = [[str(c) for c in vec] for vec in basis]
    elif args.op == "nucleus":
        basis = qa.nucleus(algebra)
        payload["nucleus_dimension"] = len(basis)
        payload["nucleus_basis"] = [[str(c) for c in vec] for vec in basis]
    elif args.op == "classic-limit":
        if args.input:
            data = _load_json(args.input, dict)
            coeffs = [bounded_fraction(c) for c in _numbers(data.get("coeffs"), "coeffs")]
        else:
            coeffs = algebra.unit_vector()
        element = qa.TensorElement(algebra, coeffs)
        payload["classic_limit"] = str(qa.classic_limit(element))
    return CommandResult(code, payload)


def _heyting_from_args(args) -> hey.HeytingAlgebra:
    if args.chain is not None:
        return hey.heyting_from_chain(args.chain)
    data = _load_json(args.input, dict)
    if "opens" in data:
        return hey.heyting_from_topology(hey.FiniteTopology.from_json_dict(data))
    if "le" in data:
        poset = hey.FinitePoset.from_json_dict(data)
        return hey.heyting_from_poset_upsets(poset, args.direction)
    if "meet" in data and "impl" in data:
        return hey.HeytingAlgebra.from_json_dict(data)
    if "meet" in data:
        return hey.heyting_from_lattice(data["meet"], data["join"])
    raise InputError("input file is not a topology, poset, or lattice")


def _cmd_heyting(args) -> CommandResult:
    try:
        algebra = _heyting_from_args(args)
    except hey.NotHeyting as exc:
        return CommandResult(
            1, {"accepted": False, "reason": str(exc), "witness": list(exc.witness)}
        )
    payload = {"accepted": True, "size": algebra.n, "labels": algebra.labels}
    code = 0
    if args.action == "build":
        payload["algebra"] = algebra.to_json_dict()
        payload["classification"] = hey.classify_elements(algebra).to_json_dict()
    elif args.action == "laws":
        report = hey.law_report(algebra)
        payload["laws"] = report.to_json_dict()
        if not (report.all_mandatory_pass() and report.seven_agree):
            code = 1
    elif args.action == "quotient":
        members = [int(x) for x in args.filter.split(",")] if args.filter else []
        if any(not 0 <= m < algebra.n for m in members):
            raise InputError(f"--filter indices must lie in 0..{algebra.n - 1}")
        filt = hey.filter_generate(algebra, members)
        quotient, projection = hey.quotient_by_filter(algebra, filt)
        payload["filter"] = sorted(filt.members)
        payload["quotient"] = quotient.to_json_dict()
        payload["projection"] = projection
    return CommandResult(code, payload)


# Rows and columns `abelian snf` and `decompose` accept.  The transforms U
# and V grow with the size: a 40x40 matrix with entries in [-9, 9] gets
# entries of about 1200 digits and takes well under a second; at 60x60 they
# pass the 4300 digits Python will print.
SNF_MAX_DIM = 40


def _parse_matrix(args):
    if args.input is not None:
        matrix = _load_json(args.input, list)
    else:
        matrix = json.loads(args.matrix)
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise InputError("matrix must be a JSON list of rows")
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise InputError("matrix rows must all have the same length")
    if len(matrix) > SNF_MAX_DIM or (matrix and len(matrix[0]) > SNF_MAX_DIM):
        raise InputError(f"matrix is {len(matrix)}x{len(matrix[0])}; at most "
                         f"{SNF_MAX_DIM} rows and {SNF_MAX_DIM} columns are accepted")
    if any(isinstance(x, bool) or not isinstance(x, int) for row in matrix for x in row):
        raise InputError("matrix entries must be integers")
    return matrix


def _check_printable(*matrices):
    """Reject integers longer than the interpreter will print, which would
    otherwise fail only when the payload is serialized."""
    limit = sys.get_int_max_str_digits()
    bound = 10 ** limit
    if limit and any(abs(x) >= bound for mat in matrices for row in mat for x in row):
        raise InputError(f"SNF entries exceed {limit} decimal digits")


def _cmd_abelian(args) -> CommandResult:
    if args.action == "snf":
        matrix = _parse_matrix(args)
        factors, u, v, d = ab.smith_normal_form(matrix)
        _check_printable(u, v, d)
        return CommandResult(0, {"factors": factors, "U": u, "V": v, "D": d})
    if args.action == "decompose":
        matrix = _parse_matrix(args)
        group = ab.decompose(matrix)
        return CommandResult(0, {"group": group.to_json_dict(), "name": str(group)})
    if args.action in ("hom", "ext", "tensor"):
        g = ab.parse_group(args.g)
        h = ab.parse_group(args.h)
        fn = {"hom": ab.hom, "ext": ab.ext, "tensor": ab.tensor}[args.action]
        result = fn(g, h)
        return CommandResult(
            0, {"g": str(g), "h": str(h), args.action: result.to_json_dict(),
                "name": str(result)}
        )
    if args.action == "homology":
        group = ab.cyclic_homology(args.order, args.degree)
        return CommandResult(
            0, {"order": args.order, "degree": args.degree,
                "group": group.to_json_dict(), "name": str(group)}
        )
    if args.action == "sphere":
        group = ab.sphere_homology(args.n, args.p)
        return CommandResult(
            0, {"n": args.n, "p": args.p, "group": group.to_json_dict(),
                "name": str(group),
                "euler_characteristic": ab.euler_characteristic(args.n)}
        )
    # extension-count
    base = ab.parse_group(args.base)
    fiber = ab.parse_group(args.fiber)
    report = ab.extension_count(base, fiber)
    return CommandResult(0, report.to_json_dict())


def _load_point(raw) -> dict:
    """A scan point: each value an algebra element ``{"level", "coeffs"}``,
    an exact number as a string, or a float."""
    if not isinstance(raw, dict):
        raise InputError(f"a point must be a JSON object, got {raw!r}")
    point = {}
    for name, value in raw.items():
        if isinstance(value, dict):
            if type(value.get("level")) is not int or value["level"] > DEFAULT_MAX_LEVEL:
                raise InputError(f"{name}: level must be an integer up to {DEFAULT_MAX_LEVEL}")
            _numbers(value.get("coeffs"), f"{name}: coeffs")
            point[name] = CDElement.from_json_dict(value)
        elif isinstance(value, str):
            point[name] = bounded_fraction(value)
        elif type(value) in (int, float):
            point[name] = float(value)
        else:
            raise InputError(f"{name}: {value!r} is not a number or an element")
    return point


def _pde_system(args) -> jets.PDESystem:
    if args.input is not None:
        return jets.PDESystem.from_json_dict(_load_json(args.input, dict))
    name = "r1" if args.system is None else args.system
    systems = jets.builtin_systems()
    if name not in systems:
        raise InputError(f"unknown system {name!r}; builtins: {sorted(systems)}")
    return systems[name]


def _cmd_pde(args) -> CommandResult:
    if args.action in ("heat", "dalembert"):
        _bounded(args.nodes, "--nodes", 1, MAX_NODES[args.action])
        # LevelTooLarge beyond DEFAULT_MAX_LEVEL, before any sample is built
        structure_constants(args.level)
    else:
        system = _pde_system(args)
    if args.action == "jacobian":
        jac = jets.formal_jacobian(system)
        order = system.coords.variables
        return CommandResult(0, {
            "system": system.name,
            "variables": list(order),
            "jacobian": [[entry.to_str(order) for entry in row] for row in jac],
        })
    if args.action == "minors":
        jac = jets.formal_jacobian(system)
        order = system.coords.variables
        minors = jets.minor_determinants(jac, args.size)
        return CommandResult(0, {
            "system": system.name,
            "size": args.size,
            "minors": [
                {"rows": list(rows), "cols": list(cols), "det": det.to_str(order)}
                for (rows, cols), det in minors
            ],
            "nonzero": sum(1 for _, det in minors if not det.is_zero()),
        })
    if args.action == "scan":
        raw_points = _load_json(args.points, list)
        results = []
        code = 0
        for raw in raw_points:
            point = _load_point(raw)
            try:
                cls = jets.classify_point(
                    system, point, args.minor_size, tolerance=args.tolerance
                )
                results.append({"point": raw, "satisfied": True,
                                **cls.to_json_dict()})
            except jets.OffVariety as exc:
                code = 1
                results.append({
                    "point": raw,
                    "satisfied": False,
                    "classification": "OffVariety",
                    "residuals": {k: str(v) for k, v in exc.residuals.items()},
                })
        return CommandResult(code, {"system": system.name, "scan": results})
    if args.action == "heat":
        import numpy as np

        _bounded(args.steps, "--steps", 0, MAX_STEPS)
        if args.dt is not None and not args.dt > 0:
            raise InputError(f"--dt must be positive, got {args.dt}")
        rng = np.random.default_rng(args.seed)
        dim = 1 << args.level
        values = rng.standard_normal((args.nodes, dim))
        h = 1.0 / args.nodes
        dt = args.dt if args.dt is not None else h * h / 2
        field = gridmod.GridField(values, h, level=args.level)
        evolved = gridmod.heat_evolve(field, dt, args.steps)
        decoupled = all(
            np.array_equal(
                gridmod.heat_evolve(field.component(k), dt, args.steps).values[:, 0],
                evolved.values[:, k],
            )
            for k in range(dim)
        )
        payload = {
            "nodes": args.nodes, "steps": args.steps, "dt": dt,
            "level": args.level,
            "componentwise_decoupling": decoupled,
            "mode_decay_factor": gridmod.single_mode_decay_factor(args.nodes, dt),
            "final_mean": [float(m) for m in evolved.values.mean(axis=0)],
        }
        return CommandResult(0 if decoupled else 1, payload)
    # dalembert
    import numpy as np

    if min(args.f_axis, args.g_axis) < 0:
        raise InputError("--f-axis and --g-axis must be >= 0")
    ts = list(np.linspace(0.0, 1.0, args.nodes))

    def sample(axis):
        vals, ders = [], []
        for t in ts:
            coeffs = [math.cos(t)] + [0.0] * ((1 << args.level) - 1)
            dcoeffs = [-math.sin(t)] + [0.0] * ((1 << args.level) - 1)
            if axis < (1 << args.level):
                coeffs[axis] = math.sin(t)
                dcoeffs[axis] = math.cos(t)
            vals.append(CDElement(args.level, coeffs))
            ders.append(CDElement(args.level, dcoeffs))
        return vals, ders

    f_vals, f_der = sample(args.f_axis)
    g_vals, g_der = sample(args.g_axis)
    report = gridmod.separable_dalembert_check(
        f_vals, g_vals, f_der, g_der, tolerance=args.tolerance
    )
    return CommandResult(0, {
        "level": args.level,
        "f_axis": args.f_axis,
        "g_axis": args.g_axis,
        **report.to_json_dict(),
    })


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they answer exit 2 with argparse's
    message in the JSON error; the usage line still goes to stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyperlab",
        description="doubling algebras, Heyting algebras, abelian groups, "
                    "and singular differential-polynomial systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parsers, name, help):
        p = parsers.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="emit raw JSON")
        return p

    def actions(command, help, names):
        """One parser per action of ``command``, each declaring only the
        flags its handler reads; flags follow the action."""
        parsers = sub.add_parser(command, help=help).add_subparsers(
            dest="action", required=True)
        return {name: leaf(parsers, name, None) for name in names}

    def flag_or_input(p, flag, input_help, required=True, **kwargs):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument(flag, **kwargs)
        group.add_argument("--input", help=input_help)

    p = leaf(sub, "table", "structure constants of a doubling level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--compare", action="store_true",
                   help="compare against the embedded reference table")
    p.add_argument("--dense", action="store_true",
                   help="emit the dense gamma array")

    p = leaf(sub, "props", "identity battery")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive-basis", "random-sample"],
                   default="exhaustive-basis")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = leaf(sub, "zerodiv", "two-term signed zero-divisor search")
    p.add_argument("--level", type=int, required=True)

    p = leaf(sub, "qalg", "tensor-product algebras")
    p.add_argument("--base", default="real",
                   help=f"one of {sorted(qa.BASE_ALGEBRAS)}")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--op", choices=["tensor", "centre", "nucleus", "classic-limit"],
                   default="tensor")
    p.add_argument("--input", help="element file for classic-limit")

    heyting = actions("heyting", "finite Heyting algebras", ["build", "laws", "quotient"])
    for p in heyting.values():
        flag_or_input(p, "--chain", "topology/poset/lattice JSON file", type=int,
                      help="n-element chain")
        p.add_argument("--direction", choices=["up", "down"], default="up",
                       help="up-sets or down-sets of a poset file")
    heyting["quotient"].add_argument("--filter", help="comma-separated generator indices")

    abelian = actions("abelian", "finitely generated abelian groups", [
        "snf", "decompose", "hom", "ext", "tensor", "homology", "sphere",
        "extension-count",
    ])
    for name in ("snf", "decompose"):
        flag_or_input(abelian[name], "--matrix", "matrix JSON file",
                      help="JSON rows, e.g. '[[2,0],[0,3]]'")
    for name in ("hom", "ext", "tensor"):
        abelian[name].add_argument("--g", required=True, help="group, e.g. Z28 or Z^2+Z4")
        abelian[name].add_argument("--h", required=True, help="group")
    p = abelian["homology"]
    p.add_argument("--order", type=int, required=True, help="cyclic group order")
    p.add_argument("--degree", type=int, required=True, help="homology degree")
    p = abelian["sphere"]
    p.add_argument("--n", type=int, required=True, help="sphere dimension")
    p.add_argument("--p", type=int, default=0, help="homology degree")
    p = abelian["extension-count"]
    p.add_argument("--base", required=True, help="group")
    p.add_argument("--fiber", required=True, help="group")

    pde = actions("pde", "differential-polynomial systems",
                  ["jacobian", "minors", "scan", "heat", "dalembert"])
    for name in ("jacobian", "minors", "scan"):
        flag_or_input(pde[name], "--system", "system JSON file", required=False,
                      help="builtin system (default r1)")
    pde["minors"].add_argument("--size", type=int, default=2, help="minor size")
    p = pde["scan"]
    p.add_argument("--points", required=True, help="JSON file with an array of points")
    p.add_argument("--minor-size", type=int, dest="minor_size",
                   help="default: the number of equations")
    for name in ("heat", "dalembert"):
        pde[name].add_argument("--nodes", type=int, default=64)
        pde[name].add_argument("--level", type=int, default=4)
    p = pde["heat"]
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, help="default: 1 / (2 nodes^2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=_tolerance, default=1e-9, help=(
        "checked to be finite and >= 0, otherwise unused (the decoupling check is "
        "exact); perfbench sends one with every heat request"))
    p = pde["dalembert"]
    p.add_argument("--f-axis", type=int, default=1, dest="f_axis")
    p.add_argument("--g-axis", type=int, default=2, dest="g_axis")
    for name in ("scan", "dalembert"):
        pde[name].add_argument("--tolerance", type=_tolerance, default=1e-9)
    return parser


_HANDLERS = {
    "table": _cmd_table,
    "props": _cmd_props,
    "zerodiv": _cmd_zerodiv,
    "qalg": _cmd_qalg,
    "heyting": _cmd_heyting,
    "abelian": _cmd_abelian,
    "pde": _cmd_pde,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  Parsing leaves it
    unchanged: each call fills a fresh namespace, and every default is
    immutable (a number, a string, False or None)."""
    return build_parser()


def run(argv) -> CommandResult:
    """Parse ``argv`` and dispatch; safe to call repeatedly in one
    process."""
    try:
        args = _parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        # argparse has printed the help for --help (usage errors raise
        # InputError)
        return CommandResult(2, {"error": "usage"}) if exc.code else CommandResult(0, {})
    except InputError as exc:
        return CommandResult(2, {"error": str(exc)})
    except (ValueError, KeyError, OSError) as exc:
        return CommandResult(2, {"error": f"{type(exc).__name__}: {exc}"})


def _render_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value:
                print(f"{pad}{key}:")
                _render_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        display = payload if len(payload) <= 12 else payload[:12]
        for item in display:
            if isinstance(item, (dict, list)):
                _render_text(item, indent + 1)
                print()
            else:
                print(f"{pad}- {item}")
        if len(payload) > 12:
            print(f"{pad}... ({len(payload) - 12} more)")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    result = run(argv)
    try:
        # the --help payload is empty: argparse has printed the help
        if result.payload and ("--json" in argv or result.code == 2):
            print(result.to_json())
        else:
            _render_text(result.payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return result.code


if __name__ == "__main__":
    raise SystemExit(main())
