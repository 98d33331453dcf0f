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
from dataclasses import dataclass, field

from . import abelian as ab
from . import algebras as qa
from . import grid as gridmod
from . import heyting as hey
from . import jets
from . import reference_tables as ref
from .cayley_dickson import (
    ExhaustiveBasis,
    RandomSample,
    find_zero_divisors,
    identity_battery,
    structure_constants,
)
from .exact import DEFAULT_TOLERANCE, parse_number


@dataclass
class CommandResult:
    """An exit code, its payload and, from ``run``, the payload's JSON text."""

    code: int
    payload: dict
    text: str = field(default="", repr=False, compare=False)

    def to_json(self) -> str:
        return self.text


class InputError(ValueError):
    pass


def _decode(text: str, source: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc


def _load_json(path: str, kind: type):
    """The JSON value in ``path``, which must be a ``kind``: dict or list."""
    try:
        with open(path) as fh:
            data = _decode(fh.read(), path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, kind):
        raise InputError(f"{path} must hold a JSON {'object' if kind is dict else 'list'}")
    return data


def _tolerance(text: str) -> float:
    """The argparse type of ``--tolerance``: a finite float >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


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
    # --count and --seed are read only in random-sample mode, and take
    # RandomSample's defaults when omitted
    given = {k: v for k in ("count", "seed") if (v := getattr(args, k)) is not None}
    if args.mode == "random-sample":
        mode = RandomSample(**given)
    elif given:
        raise InputError(f"only --mode random-sample reads --{' and --'.join(given)}")
    else:
        mode = ExhaustiveBasis()
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


@functools.cache
def _base_algebra(name: str) -> qa.StructureAlgebra:
    """The process's one copy of each base algebra, built and checked on
    first use.  No operation changes a base algebra; the tensor algebras
    built on it are not kept (one at dimension 128 holds a 16 MB integer
    tensor once ``centre`` has run)."""
    if name in qa.BASE_ALGEBRAS:
        return qa.BASE_ALGEBRAS[name]()
    raise InputError(f"unknown base algebra {name!r}; choose from {sorted(qa.BASE_ALGEBRAS)}")


def _cmd_qalg(args) -> CommandResult:
    if args.input is not None and args.op != "classic-limit":
        raise InputError("only --op classic-limit reads --input")
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
            coeffs = _load_json(args.input, dict).get("coeffs")
            if not isinstance(coeffs, list):
                raise InputError("coeffs must be a list")
            coeffs = [parse_number(c) for c in coeffs]
        else:
            coeffs = algebra.unit_vector()
        element = qa.TensorElement(algebra, coeffs)
        payload["classic_limit"] = str(qa.classic_limit(element))
    return CommandResult(code, payload)


def _heyting_from_args(args) -> hey.HeytingAlgebra:
    data = None if args.chain is not None else _load_json(args.input, dict)
    is_poset = data is not None and "opens" not in data and "le" in data
    if args.direction is not None and not is_poset:
        raise InputError("only a poset file reads --direction")
    if data is None:
        return hey.heyting_from_chain(args.chain)
    if "opens" in data:
        return hey.heyting_from_topology(hey.FiniteTopology.from_json_dict(data))
    if is_poset:
        poset = hey.FinitePoset.from_json_dict(data)
        return hey.heyting_from_poset_upsets(poset, args.direction or "up")
    if "meet" in data and "impl" in data:
        return hey.HeytingAlgebra.from_json_dict(data)
    if "meet" in data:
        return hey.heyting_from_lattice(data["meet"], data.get("join"))
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
        filt = hey.filter_generate(algebra, members)
        quotient, projection = hey.quotient_by_filter(algebra, filt)
        payload["filter"] = sorted(filt.members)
        payload["quotient"] = quotient.to_json_dict()
        payload["projection"] = projection
    return CommandResult(code, payload)


def _cmd_abelian(args) -> CommandResult:
    if args.action in ("snf", "decompose"):
        # the library checks the matrix
        matrix = (_decode(args.matrix, "--matrix") if args.input is None
                  else _load_json(args.input, list))
        if args.action == "decompose":
            group = ab.decompose(matrix)
            return CommandResult(0, {"group": group.to_json_dict(), "name": str(group)})
        factors, u, v, d = ab.smith_normal_form(matrix)
        return CommandResult(0, {"factors": factors, "U": u, "V": v, "D": d})
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


@functools.cache
def _stock_system(name: str) -> jets.PDESystem:
    """The process's one copy of each stock system, built on first use, so
    that the nonzero minors a scan computes serve every later scan.  No
    command changes a system."""
    if name in jets.BUILTIN_SYSTEMS:
        return jets.builtin_system(name)
    raise InputError(f"unknown system {name!r}; builtins: {sorted(jets.BUILTIN_SYSTEMS)}")


def _pde_system(args) -> jets.PDESystem:
    if args.input is not None:
        return jets.PDESystem.from_json_dict(_load_json(args.input, dict))
    return _stock_system("r1" if args.system is None else args.system)


def _cmd_pde(args) -> CommandResult:
    if args.action == "heat":
        payload = gridmod.heat_decoupling_check(args.level, args.nodes, args.steps,
                                                args.dt, args.seed)
        return CommandResult(0 if payload["componentwise_decoupling"] else 1, payload)
    if args.action == "dalembert":
        report = gridmod.cos_sin_dalembert_check(args.level, args.nodes, args.f_axis,
                                                 args.g_axis, tolerance=args.tolerance)
        return CommandResult(0, {"level": args.level, "f_axis": args.f_axis,
                                 "g_axis": args.g_axis, **report.to_json_dict()})
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
    # scan
    results = jets.scan_points(system, _load_json(args.points, list), args.minor_size,
                               tolerance=args.tolerance)
    code = 0 if all(entry["satisfied"] for entry in results) else 1
    return CommandResult(code, {"system": system.name, "scan": results})


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they answer exit 2 with argparse's
    message in the JSON error; the usage line still goes to stderr.  A leaf
    parser names the arguments it leaves unread itself, with its own prog
    and usage line, where argparse would hand them up to the top level."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self._subparsers is None:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


# command -> (help, its actions or None); a leaf is a command without
# actions or one action of a command, and reads the flags ``_declare`` gives it
_COMMANDS = {
    "table": ("structure constants of a doubling level", None),
    "props": ("identity battery", None),
    "zerodiv": ("two-term signed zero-divisor search", None),
    "qalg": ("tensor-product algebras", None),
    "heyting": ("finite Heyting algebras", ("build", "laws", "quotient")),
    "abelian": ("finitely generated abelian groups", (
        "snf", "decompose", "hom", "ext", "tensor", "homology", "sphere",
        "extension-count")),
    "pde": ("differential-polynomial systems",
            ("jacobian", "minors", "scan", "heat", "dalembert")),
}


def _flag_or_input(p, flag, input_help, required=True, **kwargs):
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument(flag, **kwargs)
    group.add_argument("--input", help=input_help)


def _declare(p, command, action):
    """Add to ``p`` the flags of one leaf (``action`` is None for a command
    without actions): only the flags its handler reads."""
    p.add_argument("--json", action="store_true", help="emit raw JSON")
    if command in ("table", "props", "zerodiv"):
        p.add_argument("--level", type=int, required=True)
    if command == "table":
        p.add_argument("--compare", action="store_true",
                       help="compare against the embedded reference table")
        p.add_argument("--dense", action="store_true",
                       help="emit the dense gamma array")
    elif command == "props":
        p.add_argument("--mode", choices=["exhaustive-basis", "random-sample"],
                       default="exhaustive-basis")
        p.add_argument("--count", type=int, help="random-sample mode only (default 200)")
        p.add_argument("--seed", type=int, help="random-sample mode only (default 0)")
    elif command == "qalg":
        p.add_argument("--base", default="real",
                       help=f"one of {sorted(qa.BASE_ALGEBRAS)}")
        p.add_argument("--level", type=int, default=0)
        p.add_argument("--op", choices=["tensor", "centre", "nucleus", "classic-limit"],
                       default="tensor")
        p.add_argument("--input", help="element file for classic-limit")
    elif command == "heyting":
        _flag_or_input(p, "--chain", "topology/poset/lattice JSON file", type=int,
                       help="n-element chain")
        p.add_argument("--direction", choices=["up", "down"],
                       help="up-sets or down-sets of a poset file (default up)")
        if action == "quotient":
            p.add_argument("--filter", help="comma-separated generator indices")
    elif command == "abelian":
        if action in ("snf", "decompose"):
            _flag_or_input(p, "--matrix", "matrix JSON file",
                           help="JSON rows, e.g. '[[2,0],[0,3]]'")
        elif action in ("hom", "ext", "tensor"):
            p.add_argument("--g", required=True, help="group, e.g. Z28 or Z^2+Z4")
            p.add_argument("--h", required=True, help="group")
        elif action == "homology":
            p.add_argument("--order", type=int, required=True, help="cyclic group order")
            p.add_argument("--degree", type=int, required=True, help="homology degree")
        elif action == "sphere":
            p.add_argument("--n", type=int, required=True, help="sphere dimension")
            p.add_argument("--p", type=int, default=0, help="homology degree")
        else:  # extension-count
            p.add_argument("--base", required=True, help="group")
            p.add_argument("--fiber", required=True, help="group")
    elif action in ("jacobian", "minors", "scan"):
        _flag_or_input(p, "--system", "system JSON file", required=False,
                       help="builtin system (default r1)")
        if action == "minors":
            p.add_argument("--size", type=int, default=2, help="minor size")
        elif action == "scan":
            p.add_argument("--points", required=True,
                           help="JSON file with an array of points")
            p.add_argument("--minor-size", type=int, dest="minor_size",
                           help="default: the number of equations")
    elif action in ("heat", "dalembert"):
        p.add_argument("--nodes", type=int, default=64)
        p.add_argument("--level", type=int, default=4)
        if action == "heat":
            p.add_argument("--steps", type=int, default=100)
            p.add_argument("--dt", type=float, help="default: 1 / (2 nodes^2)")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE, help=(
                "checked to be finite and >= 0, otherwise unused (the decoupling check "
                "is exact); perfbench sends one with every heat request"))
        else:
            p.add_argument("--f-axis", type=int, default=1, dest="f_axis")
            p.add_argument("--g-axis", type=int, default=2, dest="g_axis")
    if action in ("scan", "dalembert"):
        p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: ``hyperlab``, its commands, their actions, and the
    leaves ``_declare`` fills; flags follow the action."""
    parser = _Parser(
        prog="hyperlab",
        description="doubling algebras, Heyting algebras, abelian groups, "
                    "and singular differential-polynomial systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, actions) in _COMMANDS.items():
        p = sub.add_parser(command, help=help)
        if actions is None:
            _declare(p, command, None)
            continue
        parsers = p.add_subparsers(dest="action", required=True)
        for action in actions:
            _declare(parsers.add_parser(action, help=None), command, action)
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
    """The process's one tree, built on first use, for the argv that no leaf
    parser owns (``_parse``)."""
    return build_parser()


@functools.cache
def _leaf(command: str, action: str | None) -> argparse.ArgumentParser:
    """The process's one parser of a leaf, built on first use, as the tree
    builds it: the same prog, such as "hyperlab pde dalembert", and flags.
    Parsing leaves it unchanged: each call fills a fresh namespace, and
    every default is immutable (a number, a string, False or None)."""
    prog = f"hyperlab {command}" if action is None else f"hyperlab {command} {action}"
    p = _Parser(prog=prog)
    _declare(p, command, action)
    return p


def _parse(argv) -> argparse.Namespace:
    """The namespace ``build_parser()`` gives ``argv``.  Where argv starts
    with a command and, for heyting, abelian and pde, one of its actions,
    the tree hands the rest to that leaf, into a fresh namespace, and adds
    only ``command`` and ``action``; so the leaf's own parser reads it
    alone.  Anything else goes to the tree: empty argv, --help, an unknown
    command or action, or a flag before the action."""
    if argv and argv[0] in _COMMANDS:
        command = argv[0]
        actions = _COMMANDS[command][1]
        if actions is None:
            return _leaf(command, None).parse_args(
                argv[1:], argparse.Namespace(command=command))
        if len(argv) > 1 and argv[1] in actions:
            return _leaf(command, argv[1]).parse_args(
                argv[2:], argparse.Namespace(command=command, action=argv[1]))
    return _parser().parse_args(argv)


_ESCAPE = json.encoder.encode_basestring_ascii
_WORDS = {None: "null", True: "true", False: "false"}
# the element types of a list that is one join of its reprs: exactly int
# (not bool) or exactly str
_INT, _STR = {int}, {str}


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is None or key is True or key is False:
        return _WORDS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _to_json(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, errors
    included, without json's generators: each container is one join (of
    the elements' texts at once for a list of exact ints or exact strs), and
    a dict the payload holds in several places (zerodiv's elements) is
    written once per depth.  Every dict met is the payload's, alive for the call, so
    its id cannot be reused while the memo holds it."""
    memo = {}

    def encode(o, pad):
        # ``pad`` is the newline and indentation of the line that holds o
        kind = type(o)
        if kind is str:
            return _ESCAPE(o)
        if kind is int:
            return int.__repr__(o)
        if kind is not dict and kind is not list:
            if isinstance(o, str):
                return _ESCAPE(o)
            if o is None or o is True or o is False:
                return _WORDS[o]
            if isinstance(o, int):
                return int.__repr__(o)
            if isinstance(o, float):
                return _float_text(o)
            if not isinstance(o, (list, tuple, dict)):
                raise TypeError(f"Object of type {o.__class__.__name__} "
                                f"is not JSON serializable")
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        inner = pad + "  "
        sep = "," + inner
        if not isinstance(o, dict):
            first = type(o[0])
            if first is int and set(map(type, o)) == _INT:
                body = sep.join(map(int.__repr__, o))
            elif first is str and set(map(type, o)) == _STR:
                body = sep.join(map(_ESCAPE, o))
            else:
                body = sep.join([encode(v, inner) for v in o])
            return "[" + inner + body + pad + "]"
        key = (id(o), len(pad))
        text = memo.get(key)
        if text is None:
            text = memo[key] = "{" + inner + sep.join([
                _ESCAPE(_key_text(k)) + ": " + encode(v, inner)
                for k, v in sorted(o.items())]) + pad + "}"
        return text

    return encode(obj, "\n")


def _encode(code: int, payload: dict) -> CommandResult:
    return CommandResult(code, payload, _to_json(payload))


def run(argv) -> CommandResult:
    """Parse ``argv`` with the one leaf parser it names (the whole tree only
    where it names none), dispatch and encode the payload once; safe to call
    repeatedly.  Exit 2 answers a usage error, an InputError, or a reader's
    ValueError or OSError, the encoding's included (an integer longer than
    ``sys.get_int_max_str_digits()``); anything else is a fault and raises."""
    try:
        args = _parse(argv)
        result = _HANDLERS[args.command](args)
        return _encode(result.code, result.payload)
    except SystemExit as exc:
        # argparse has printed the help for --help (usage errors raise
        # InputError)
        return _encode(2, {"error": "usage"}) if exc.code else _encode(0, {})
    except InputError as exc:
        return _encode(2, {"error": str(exc)})
    except (ValueError, OSError) as exc:
        return _encode(2, {"error": f"{type(exc).__name__}: {exc}"})


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
