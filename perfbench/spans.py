"""Spans around the program's public functions, recorded from outside it.

``install`` wraps each function in TARGETS and rebinds the wrapper under
every module-level name that held the original, because modules bind some
names at import (``algebras`` imports ``nullspace`` and ``rref`` from
``exact``).  A span records its name, start, end, parent span and request.
Functions called hundreds of thousands of times per request (the product
kernels) are leaves: their calls are summed into one span per parent,
with a call count and the busy time, so memory stays bounded.

``layer_metrics`` turns a pass's spans into the per-layer table.  A span's
self time is its duration less the time its child spans cover; the
``.calls`` and work counters of a name count the outermost spans of that
name only, so a constructor that delegates to another counts once.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

PACKAGE = "hyperlab"


def _digits(matrix) -> int:
    big = max((abs(x) for row in matrix for x in row), default=0)
    return len(str(big))


def _candidates(level: int) -> int:
    """Two-term signed candidates at ``level``: 4 * C(2^level - 1, 2)."""
    return 4 * math.comb((1 << level) - 1, 2)


def _zerodiv_work(args, kwargs, result):
    k = _candidates(args[0])
    return {"pairs": len(result), "ordered_candidate_pairs": k * k}


# (module, attribute, span name, leaf, work counter of (args, kwargs, result))
TARGETS = [
    ("cli", "run", "cli.run", False, None),
    ("cli", "CommandResult.to_json", "cli.to_json", False,
     lambda a, k, r: {"bytes": len(r)}),
    ("cayley_dickson", "cd_multiply", "cayley_dickson.cd_multiply", True, None),
    ("cayley_dickson", "identity_battery", "cayley_dickson.identity_battery",
     False, lambda a, k, r: {"checked": sum(v.checked for v in r.verdicts.values())}),
    ("cayley_dickson", "find_zero_divisors", "cayley_dickson.find_zero_divisors",
     False, _zerodiv_work),
    ("cayley_dickson", "is_operator_invertible",
     "cayley_dickson.is_operator_invertible", False, None),
    ("exact", "rref", "exact.rref", False,
     lambda a, k, r: {"cells": len(a[0]) * (len(a[0][0]) if a[0] else 0)}),
    ("exact", "nullspace", "exact.nullspace", False, None),
    ("algebras", "StructureAlgebra.multiply", "algebras.multiply", True, None),
    ("algebras", "TensorAlgebra.multiply", "algebras.multiply", True, None),
    ("algebras", "tensor_algebra", "algebras.tensor_algebra", False, None),
    ("algebras", "centre", "algebras.centre", False, None),
    ("algebras", "nucleus", "algebras.nucleus", False, None),
    *[("heyting", name, "heyting.construct", False,
       lambda a, k, r: {"elements": r.n})
      for name in ("heyting_from_chain", "heyting_from_poset_upsets",
                   "heyting_from_topology", "heyting_from_lattice")],
    ("heyting", "law_report", "heyting.law_report", False, None),
    ("heyting", "classify_elements", "heyting.classify_elements", False, None),
    ("heyting", "quotient_by_filter", "heyting.quotient_by_filter", False, None),
    ("abelian", "smith_normal_form", "abelian.smith_normal_form", False,
     lambda a, k, r: {"max_digits": max(_digits(r[1]), _digits(r[2]))}),
    ("abelian", "extension_count", "abelian.extension_count", False, None),
    ("jets", "formal_jacobian", "jets.formal_jacobian", False, None),
    ("jets", "minor_determinants", "jets.minor_determinants", False, None),
    ("jets", "classify_point", "jets.classify_point", False, None),
    ("grid", "separable_dalembert_check", "grid.separable_dalembert_check",
     False, None),
    ("grid", "heat_evolve", "grid.heat_evolve", False, None),
]

# The published per-layer table: (span name, statistic).  Statistics are
# "calls", "self_s", or a work counter; "hit_ratio" is pairs divided by
# the K^2 ordered candidate pairs; "max_digits" is a maximum, not a sum.
PER_LAYER = [
    ("cli.run", "calls"), ("cli.run", "self_s"),
    ("cli.to_json", "self_s"), ("cli.to_json", "bytes"),
    ("cayley_dickson.cd_multiply", "calls"), ("cayley_dickson.cd_multiply", "self_s"),
    ("cayley_dickson.identity_battery", "self_s"),
    ("cayley_dickson.identity_battery", "checked"),
    ("cayley_dickson.find_zero_divisors", "self_s"),
    ("cayley_dickson.find_zero_divisors", "pairs"),
    ("cayley_dickson.find_zero_divisors", "hit_ratio"),
    ("cayley_dickson.is_operator_invertible", "calls"),
    ("cayley_dickson.is_operator_invertible", "self_s"),
    ("exact.rref", "calls"), ("exact.rref", "self_s"), ("exact.rref", "cells"),
    ("exact.nullspace", "self_s"),
    ("algebras.multiply", "calls"), ("algebras.multiply", "self_s"),
    ("algebras.tensor_algebra", "self_s"),
    ("algebras.centre", "self_s"), ("algebras.nucleus", "self_s"),
    ("heyting.construct", "calls"), ("heyting.construct", "self_s"),
    ("heyting.construct", "elements"),
    ("heyting.law_report", "self_s"), ("heyting.classify_elements", "self_s"),
    ("heyting.quotient_by_filter", "self_s"),
    ("abelian.smith_normal_form", "calls"), ("abelian.smith_normal_form", "self_s"),
    ("abelian.smith_normal_form", "max_digits"),
    ("abelian.extension_count", "self_s"),
    ("jets.formal_jacobian", "self_s"), ("jets.minor_determinants", "self_s"),
    ("jets.classify_point", "self_s"),
    ("grid.separable_dalembert_check", "self_s"), ("grid.heat_evolve", "self_s"),
]


class Tracer:
    """Keeps spans in memory; ``write`` appends them to a file as JSON lines."""

    def __init__(self):
        # [id, name, request, parent, start, end, calls, busy or None, work]
        self.records = []
        self.stack = []
        self.leaves = {}
        self.in_leaf = False
        self.request = None
        self.origin = time.perf_counter()

    def span(self, name, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_leaf:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            rec = [len(self.records), name, self.request, parent, 0.0, 0.0, 1,
                   None, None]
            self.records.append(rec)
            self.stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self.stack.pop()
            if work is not None:
                rec[8] = work(args, kwargs, result)
            return result
        return wrapper

    def leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_leaf:
                return fn(*args, **kwargs)
            self.in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.in_leaf = False
                parent = self.stack[-1] if self.stack else None
                key = (self.request, parent, name)
                index = self.leaves.get(key)
                if index is None:
                    self.leaves[key] = len(self.records)
                    self.records.append([len(self.records), name, self.request,
                                         parent, start, end, 1, end - start, None])
                else:
                    rec = self.records[index]
                    rec[5] = end
                    rec[6] += 1
                    rec[7] += end - start
        return wrapper

    def write(self, path, pass_index: int) -> None:
        keys = ("id", "name", "request", "parent", "start", "end", "calls",
                "busy", "work")
        with open(path, "a") as fh:
            for rec in self.records:
                row = dict(zip(keys, rec))
                row["start"] -= self.origin
                row["end"] -= self.origin
                row["pass"] = pass_index
                fh.write(json.dumps(row) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it wherever the package binds it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for module_name, attr, name, leaf, work in TARGETS:
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        owner, _, member = attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        original = getattr(holder, member)
        wrapped = tracer.leaf(name, original) if leaf else tracer.span(name, original, work)
        if owner:
            setattr(holder, member, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def read_spans(path) -> dict:
    """Spans of a spans file, grouped by pass."""
    passes = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            passes[row["pass"]].append(row)
    return dict(passes)


def duration(row) -> float:
    return row["busy"] if row["busy"] is not None else row["end"] - row["start"]


def layer_metrics(rows: list) -> dict:
    """Per-layer metrics of one pass; every PER_LAYER entry is present."""
    by_id = {r["id"]: r for r in rows}
    covered = defaultdict(float)
    for r in rows:
        if r["parent"] is not None:
            covered[r["parent"]] += duration(r)
    stats = defaultdict(lambda: defaultdict(float))
    for r in rows:
        s = stats[r["name"]]
        s["self_s"] += duration(r) - covered[r["id"]]
        parent = by_id.get(r["parent"])
        if parent is not None and parent["name"] == r["name"]:
            continue
        s["calls"] += r["calls"]
        for key, value in (r["work"] or {}).items():
            s[key] = max(s[key], value) if key == "max_digits" else s[key] + value
    zd = stats["cayley_dickson.find_zero_divisors"]
    if zd["ordered_candidate_pairs"]:
        zd["hit_ratio"] = zd["pairs"] / zd["ordered_candidate_pairs"]
    out = {}
    for name, stat in PER_LAYER:
        value = stats[name][stat]
        out[f"{name}.{stat}"] = value if stat in ("self_s", "hit_ratio") else int(value)
    out["trace.self_total_s"] = sum(s["self_s"] for s in stats.values())
    return out
