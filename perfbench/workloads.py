"""Seeded request lists for the four benchmark workloads.

Each workload is a list of kinds.  A kind is a pool of requests that cost
about the same, and the number of them a pass draws.  The workload seed
picks which members of each pool are drawn and shuffles the order, so two
seeds send different inputs while each kind's cost, and with it every
percentile, stays put.  The pools are finite, so ``fingerprints.json`` can
hold the expected answer of every request any seed can produce.

Why each workload exists, which layers it stresses and which it bypasses
is recorded in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FILE = "{file}"  # argv placeholder for the request's input file


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``argv`` excludes ``--json``, which every call gets.

    ``file`` is the text of the request's input file, written before timing
    and named in ``argv`` by the ``{file}`` placeholder.  Floats in the
    payload are compared within ``tolerance``, which the request also passes
    to the program.  ``oracle`` names an independent cross-check (see
    checks.py).
    """

    kind: str
    argv: tuple
    file: str | None = None
    tolerance: float | None = None
    oracle: str | None = None

    @property
    def key(self) -> str:
        """Identity of the request: argv and file content, not file path."""
        text = json.dumps([list(self.argv), self.file])
        return hashlib.sha256(text.encode()).hexdigest()[:20]

    def command(self, path: str | None) -> list:
        argv = [path if a == FILE else a for a in self.argv]
        return argv + ["--json"]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _cd(level: int, coeffs: dict) -> dict:
    out = ["0"] * (1 << level)
    for k, c in coeffs.items():
        out[k] = str(c)
    return {"level": level, "coeffs": out}


# ---------------------------------------------------------------------------
# generated inputs (fixed by their pool index, never by the workload seed)
# ---------------------------------------------------------------------------

def _matrix(n: int, index: int) -> list:
    rng = random.Random(f"matrix:{n}:{index}")
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


# Poset shapes as cover pairs on points 0..n-1.  The number of up-sets fixes
# the algebra size, so each shape keeps one cost; the pool index relabels
# the points and reorders the file.
POSET_SHAPES = {
    "antichain5": (5, []),
    "fork7": (7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6)]),
    "zigzag7": (7, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5)]),
    "crown6": (6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)]),
}


def _poset(shape: str, index: int) -> dict:
    n, covers = POSET_SHAPES[shape]
    rng = random.Random(f"poset:{shape}:{index}")
    names = [f"{c}{rng.randint(0, 99)}"
             for c in rng.sample("abcdefghjkmnpqrstuvwxyz", n)]
    pairs = [[names[a], names[b]] for a, b in covers]
    rng.shuffle(names)
    rng.shuffle(pairs)
    return {"elements": names, "le": pairs}


def _lattice(which: str, index: int) -> dict:
    """N5 or M3 as meet/join tables under a seeded relabelling of 0..4."""
    if which == "N5":
        leq = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    else:
        leq = {(0, i) for i in range(1, 5)} | {(i, 4) for i in range(1, 4)}
    leq |= {(i, i) for i in range(5)}
    perm = list(range(5))
    random.Random(f"lattice:{which}:{index}").shuffle(perm)

    def meet_join(a, b):
        lower = [c for c in range(5) if (c, a) in leq and (c, b) in leq]
        upper = [c for c in range(5) if (a, c) in leq and (b, c) in leq]
        m = next(c for c in lower if all((d, c) in leq for d in lower))
        j = next(c for c in upper if all((c, d) in leq for d in upper))
        return m, j

    meet = [[0] * 5 for _ in range(5)]
    join = [[0] * 5 for _ in range(5)]
    for a in range(5):
        for b in range(5):
            m, j = meet_join(a, b)
            meet[perm[a]][perm[b]] = perm[m]
            join[perm[a]][perm[b]] = perm[j]
    return {"meet": meet, "join": join}


def _dalembert_point(level: int, index: int, zero_divisor: bool) -> list:
    """Integer algebra points for the d'Alembert system (u only, so every
    point lies on the variety).  Zero-divisor points are e_i + e_j with
    i ^ j = 9 inside the sedenion block, like e3 + e10."""
    rng = random.Random(f"dalembert:{level}:{index}:{zero_divisor}")
    dim = 1 << level
    if zero_divisor:
        i = rng.choice([1, 2, 3, 4, 5, 6, 7])
        top = rng.randrange(0, dim // 16) * 16
        coeffs = {top + i: 1, top + (i ^ 9): rng.choice([1, -1])}
    else:
        coeffs = {0: rng.randint(1, 5)}
        for k in rng.sample(range(1, dim), 3):
            coeffs[k] = rng.choice([-3, -2, -1, 1, 2, 3])
    return [{"u": _cd(level, coeffs)}]


def _r1_points(index: int) -> list:
    """Points on r1: exact zero-derivative points (Singular) and the real
    Regular family u1_x = 1, u2_x = u1_y = 2^(-1/4)."""
    rng = random.Random(f"r1:{index}")
    exact = {
        name: str(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        for name in ("x", "y", "u1", "u2")
    }
    q = 2 ** -0.25
    regular = {"x": rng.uniform(-2, 2), "u1_x": 1.0, "u2_y": 0.0,
               "u2_x": q, "u1_y": q}
    return [exact, regular]


def _t1_points(index: int) -> list:
    rng = random.Random(f"t1:{index}")
    return [{name: str(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
             for name in ("x", "y")}]


# ---------------------------------------------------------------------------
# request builders
# ---------------------------------------------------------------------------

def _req(kind, *argv, file=None, tolerance=None, oracle=None) -> Request:
    argv = tuple(str(a) for a in argv)
    if tolerance is not None:
        argv += ("--tolerance", repr(tolerance))
    return Request(kind, argv, file, tolerance, oracle)


def _props_sample(level, count, seeds):
    return [_req(f"props-L{level}-sample", "props", "--level", level,
                 "--mode", "random-sample", "--count", count, "--seed", s)
            for s in seeds]


def _snf(n, indices):
    return [_req(f"snf-{n}", "abelian", "snf", "--input", FILE,
                 file=_dump(_matrix(n, i)), oracle="snf") for i in indices]


def algebra_exact():
    """Cayley-Dickson products and exact elimination; no Heyting or SNF.

    The kinds are sized so that p50 falls inside the props-L4 requests and
    p90 inside the props-L6 ones, whatever the seed.  The qalg kinds draw
    every member, so their cost does not depend on the seed."""
    def scan(kind, levels, zero_divisor):
        return [_req(kind, "pde", "scan", "--system", "dalembert",
                     "--points", FILE, "--minor-size", 1,
                     file=_dump(_dalembert_point(lv, i, zd)))
                for lv in levels for i in range(8) for zd in zero_divisor]

    def qalg(kind, specs):
        return [_req(kind, "qalg", "--base", b, "--level", lv, "--op", op)
                for b, lv, op in specs]

    nucleus = qalg("qalg-nucleus", [("upper2", 2, "nucleus"),
                                    ("complex", 2, "nucleus"),
                                    ("real", 3, "nucleus")])
    centre = qalg("qalg-centre", [("complex", 3, "centre"), ("real", 4, "centre")])
    small = qalg("qalg-small", [(b, lv, op) for b, lv in (("real", 1), ("real", 2),
                                                          ("complex", 1))
                                for op in ("centre", "nucleus")])
    return [
        (nucleus, len(nucleus)),
        (centre, len(centre)),
        (scan("scan-L6-generic", (6,), (False,)), 2),
        (scan("scan-L6-zero-divisor", (6,), (True,)), 2),
        (_props_sample(6, 4, range(32)), 10),
        (_props_sample(5, 6, range(32)), 8),
        ([_req("props-exhaustive", "props", "--level", 3)], 2),
        (_props_sample(4, 6, range(32)), 36),
        (scan("scan-L4", (4,), (False, True)), 14),
        (small, 24),
    ]


def search():
    """Brute-force quantifiers and large payloads.

    The counts put p50 inside the d'Alembert witness requests and p90
    inside the n=3 commuting ones, whatever the seed."""
    def dalembert(kind, nodes, f_axis, g_axis):
        return _req(kind, "pde", "dalembert", "--level", 3, "--nodes", nodes,
                    "--f-axis", f_axis, "--g-axis", g_axis, tolerance=1e-9)

    axes = range(1, 8)
    return [
        ([_req("zerodiv-L4", "zerodiv", "--level", 4, oracle="zerodiv")], 1),
        # equal axes: commutative samples, so the n^3 triple check runs fully
        ([dalembert("dalembert-commuting", 5, a, a) for a in axes], 2),
        ([dalembert("dalembert-small", 3, a, a) for a in axes], 12),
        # unequal axes leave a witness and stop at the first failing pair
        ([dalembert("dalembert-witness", 6, a, b)
          for a in axes for b in axes if a != b], 53),
        ([_req("zerodiv-small", "zerodiv", "--level", lv, oracle="zerodiv")
          for lv in range(4)], 16),
        ([_req("heat", "pde", "heat", "--nodes", 32, "--steps", 10,
               "--level", lv, "--seed", s, tolerance=1e-9)
          for lv in (1, 2) for s in range(16)], 16),
    ]


def finite_structures():
    """Heyting algebras, abelian groups and polynomial Jacobians; no
    Cayley-Dickson products.

    Each poset shape and action is its own kind with a fixed count, because
    the shapes differ in cost.  The counts put p50 inside the crown6
    requests and p90 inside the zigzag7 ones, whatever the seed."""
    def heyting(shape, action):
        reqs = []
        for i in range(4):
            extra = ("--filter", 1 + i) if action == "quotient" else ()
            reqs.append(_req(f"heyting-{action}-{shape}", "heyting", action,
                             "--input", FILE, *extra,
                             file=_dump(_poset(shape, i)), oracle="upsets"))
        return reqs

    counts = {"fork7": (1, 1, 1), "antichain5": (1, 1, 1),
              "zigzag7": (4, 4, 4), "crown6": (10, 10, 10)}
    posets = [(heyting(shape, action), n)
              for shape, per_action in counts.items()
              for action, n in zip(("build", "laws", "quotient"), per_action)]
    chains = [_req("chain", "heyting", action, "--chain", n)
              for n in (24, 32) for action in ("build", "laws")]
    chains += [_req("chain", "heyting", "quotient", "--chain", 32,
                    "--filter", f) for f in (5, 10, 20, 30)]
    lattices = [_req("lattice", "heyting", "build", "--input", FILE,
                     file=_dump(_lattice(w, i)))
                for w in ("N5", "M3") for i in range(8)]
    groups = ["Z4", "Z6", "Z12", "Z2+Z2", "Z^2", "Z^2+Z4", "Z8+Z3", "Z18"]
    small = [_req("abelian-small", "abelian", op, "--g", g, "--h", h)
             for op in ("hom", "ext", "tensor") for g in groups[:4]
             for h in groups[4:]]
    small += [_req("abelian-small", "abelian", "homology", "--order", o,
                   "--degree", d) for o in (2, 6, 12) for d in (1, 2, 3)]
    small += [_req("abelian-small", "abelian", "sphere", "--n", n, "--p", p)
              for n in (2, 4) for p in (0, 1, 2)]
    small += [_req("abelian-small", "abelian", "extension-count",
                   "--base", b, "--fiber", f)
              for b in ("Z4", "Z2+Z2", "Z6") for f in ("Z2", "Z3")]
    pde = [_req("pde-formal", "pde", action, "--system", s)
           for s in ("r1", "s1", "t1") for action in ("jacobian", "minors")]
    pde += [_req("pde-formal", "pde", "scan", "--system", "r1", "--points",
                 FILE, "--minor-size", 2, file=_dump(_r1_points(i)),
                 tolerance=1e-9) for i in range(8)]
    pde += [_req("pde-formal", "pde", "scan", "--system", "t1", "--points",
                 FILE, file=_dump(_t1_points(i)), tolerance=1e-9)
            for i in range(8)]
    decompose = [_req("decompose", "abelian", "decompose", "--input", FILE,
                      file=_dump(_matrix(6, i))) for i in range(8)]
    return posets + [
        (chains, 6),
        (lattices, 6),
        (_snf(30, range(8)), 2),
        (_snf(20, range(8)), 6),
        (_snf(10, range(16)), 8),
        (decompose, 6),
        (small, 16),
        (pde, 8),
    ]


def cli_small():
    """Tiny calls where the fixed per-call cost (parsing, dispatch, payload
    assembly) dominates.  p90 falls inside the props-L2 requests."""
    tables = [_req("table", "table", "--level", lv, *flag)
              for lv in range(5) for flag in ((), ("--compare",), ("--dense",))]
    props = [_req("props", "props", "--level", lv) for lv in range(3)]
    props += [_req("props", "props", "--level", lv, "--mode", "random-sample",
                   "--count", 20, "--seed", s)
              for lv in range(2) for s in range(16)]
    props_l2 = [_req("props-L2-sample", "props", "--level", 2, "--mode",
                     "random-sample", "--count", 20, "--seed", s)
                for s in range(16)]
    qalg = [("real", lv) for lv in range(3)] + [("complex", 0), ("complex", 1),
                                                ("upper2", 0), ("mat2", 0)]
    qalg = [_req("qalg", "qalg", "--base", b, "--level", lv, "--op", op)
            for b, lv in qalg for op in ("tensor", "centre", "classic-limit")]
    # the dimension-8 and -16 algebras cost several times more; all of them
    # are drawn, so their number does not move p90 from seed to seed
    qalg_big = [_req("qalg-big", "qalg", "--base", b, "--level", lv, "--op", op)
                for b, lv in (("complex", 2), ("mat2", 1), ("upper2", 1))
                for op in ("tensor", "centre", "classic-limit")]
    chains = [_req("chain", "heyting", action, "--chain", n)
              for n in (2, 3, 4) for action in ("build", "laws")]
    chains += [_req("chain", "heyting", "quotient", "--chain", n,
                    "--filter", f) for n in (2, 3, 4) for f in range(n)]
    snf = []
    for i in range(32):
        m = _matrix(2, i)
        snf.append(_req("snf-2", "abelian", "snf", "--matrix", json.dumps(m),
                        oracle="snf"))
    # malformed input whose documented answer today is exit 2 with a JSON
    # error; inputs that crash today are listed in README.md instead
    malformed = [_req("malformed", "qalg", "--base", b)
                 for b in ("quux", "octonion", "mat3", "Real")]
    malformed += [_req("malformed", "table", "--level", lv)
                  for lv in (9, 10, 12, 20)]
    return [
        (tables, 40),
        (props, 20),
        (props_l2, 20),
        (qalg, 41),
        (qalg_big, len(qalg_big)),
        (chains, 40),
        (snf, 30),
        (malformed, 20),
    ]


WORKLOADS = {
    "algebra-exact": algebra_exact,
    "search": search,
    "finite-structures": finite_structures,
    "cli-small": cli_small,
}


def pool(workload: str) -> list:
    """Every request any seed of ``workload`` can draw, without repeats."""
    seen = {}
    for variants, _count in WORKLOADS[workload]():
        for r in variants:
            seen.setdefault(r.key, r)
    return list(seen.values())


def make_requests(workload: str, seed: int) -> list:
    """The pass's request list: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for variants, count in WORKLOADS[workload]():
        if count <= len(variants):
            out += rng.sample(variants, count)
        else:
            out += [rng.choice(variants) for _ in range(count)]
    rng.shuffle(out)
    return out


def materialize(requests: list, directory: Path, root: Path) -> list:
    """Write each request's input file under ``directory`` and return the
    argv lists, with paths relative to ``root``, the program's cwd."""
    directory.mkdir(parents=True, exist_ok=True)
    commands = []
    for n, r in enumerate(requests):
        path = None
        if r.file is not None:
            target = directory / f"r{n:03d}.json"
            target.write_text(r.file)
            path = os.path.relpath(target, root)
        commands.append(r.command(path))
    return commands
