"""hyperlab benchmark: time to a verdict over seeded CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from its ``src/``.
One client sends one request at a time (a closed loop) from a single
process.  Each pass of the workload's request list runs in a fresh
interpreter (runpass.py), because every CLI user pays the imports and the
cold caches; passes repeat until S seconds are used.  Input files are
written before timing starts, under ``.perfbench/``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: ``setup_s`` (median time from a fresh interpreter to
the verdict of ``table --level 0 --json``), ``wall_s`` (the sweep time of
the request list, each request counted at its median over the run's
passes), ``request_s.p50`` and ``request_s.p90`` (percentiles over the list
of those medians) and ``peak_rss_mb`` (median peak resident memory of a
pass's process).  Every time is scaled to a reference CPU speed by speed
probes run beside it (speed.py; README.md says why).  ``fail_ratio`` is
printed above it; the JSON carries it as ``failed`` / ``attempted``.  With
``--trace 1`` untraced and traced passes alternate, the spans go to
``.perfbench/<workload>-<seed>/spans.jsonl`` and the JSON holds the
per-layer metrics derived from that file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from checks import compare, fingerprint  # noqa: E402
from speed import probe, scaled  # noqa: E402
from workloads import WORKLOADS, Request, make_requests, materialize  # noqa: E402

SETUP = Request("setup", ("table", "--level", "0"))
SETUP_STARTS = 9
RUN_LIMIT_S = 170  # the whole run must end within 180 s
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "from hyperlab.cli import run\n"
    "result = run(sys.argv[1:])\n"
    "sys.stdout.write(result.to_json())\n"
    "raise SystemExit(result.code)\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "request_s.p50": "s",
                    "request_s.p90": "s", "peak_rss_mb": "MB"}
WORK_UNITS = {"calls": "count", "self_s": "s", "bytes": "B", "checked": "count",
              "pairs": "count", "hit_ratio": "ratio", "cells": "count",
              "elements": "count", "max_digits": "digits"}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def load_fingerprints() -> dict:
    return json.loads((HERE / "fingerprints.json").read_text())


def oracle_input(req: Request):
    if req.oracle == "upsets":
        return json.loads(req.file)
    if req.oracle == "snf":
        if req.file is not None:
            return json.loads(req.file)
        return json.loads(req.argv[req.argv.index("--matrix") + 1])
    return None


def build_plan(requests: list, commands: list, fingerprints: dict, seed: int) -> dict:
    items = []
    for req, argv in zip(requests, commands):
        expected = fingerprints.get(req.key)
        if expected is None:
            raise BenchError(f"no fingerprint for {req.kind} request {req.argv}")
        items.append({"argv": argv, "tolerance": req.tolerance,
                      "oracle": req.oracle, "oracle_input": oracle_input(req),
                      "expected": expected})
    return {"seed": seed, "requests": items}


def measure_setup(root: Path, expected: dict, deadline: float) -> list:
    """Times of fresh starts answering ``table --level 0``, scaled by speed
    probes run right before and after each; the first start (which may
    compile bytecode) is not counted."""
    times = []
    for n in range(SETUP_STARTS + 1):
        before = probe()
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *SETUP.command(None)],
                                  cwd=root, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("a set-up start did not finish within the run limit")
        elapsed = scaled(time.perf_counter() - start, before, probe())
        try:
            got = fingerprint(proc.returncode, proc.stdout, json.loads(proc.stdout), False)
        except json.JSONDecodeError:
            raise BenchError(f"set-up start gave no verdict: {proc.stderr[-500:]}")
        reason = compare(got, expected, None)
        if reason:
            raise BenchError(f"set-up verdict wrong: {reason}")
        if n:
            times.append(elapsed)
    return times


def run_pass(root: Path, work: Path, index: int, traced: bool, deadline: float) -> dict:
    result_path = work / f"pass{index}.json"
    argv = [sys.executable, str(HERE / "runpass.py"), str(work / "plan.json"),
            str(result_path)]
    if traced:
        argv += [str(work / "spans.jsonl"), str(index)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish within the run limit")
    if proc.returncode != 0:
        raise BenchError(f"pass {index} failed: {proc.stderr[-2000:]}")
    out = json.loads(result_path.read_text())
    out["traced"] = traced
    out["wall_s"] = sum(out["times"])
    out["scaled"] = [scaled(t, *p) for t, p in zip(out["times"], out["probes"])]
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "hyperlab" / "cli.py").is_file():
        raise BenchError(f"no program at {root / 'src' / 'hyperlab'}; "
                         "run from the root of a checkout")
    fingerprints = load_fingerprints()
    requests = make_requests(workload, seed)
    if not requests:
        raise BenchError(f"workload {workload} has no requests")
    work = root / ".perfbench" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    commands = materialize(requests, work, root)
    plan = build_plan(requests, commands, fingerprints, seed)
    (work / "plan.json").write_text(json.dumps(plan))

    setup = [] if trace else measure_setup(root, fingerprints[SETUP.key], deadline)
    start = time.monotonic()
    passes, longest = [], 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        began_pass = time.monotonic()
        passes.append(run_pass(root, work, len(passes), traced, deadline))
        longest = max(longest, time.monotonic() - began_pass)
        enough = not trace or len(passes) >= 2
        if enough and time.monotonic() - start + longest > seconds:
            break
    return summarize(workload, seed, requests, passes, setup, work, trace)


def _request_times(passes: list, count: int) -> list:
    """Each request's median scaled time over ``passes``."""
    return [statistics.median(p["scaled"][i] for p in passes) for i in range(count)]


def summarize(workload, seed, requests, passes, setup, work, trace) -> dict:
    attempted = sum(len(p["times"]) for p in passes)
    failures = [(requests[i], e) for p in passes for i, e in enumerate(p["errors"]) if e]
    if attempted == 0:
        raise BenchError("no request was checked")
    plain = [p for p in passes if not p["traced"]]
    per_request = _request_times(plain, len(requests))
    report = {"workload": workload, "seed": seed, "passes": len(passes),
              "requests_per_pass": len(requests), "attempted": attempted,
              "failed": len(failures), "failures": failures[:5]}
    if not trace:
        report["metrics"] = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_request),
            "request_s.p50": statistics.median(per_request),
            "request_s.p90": statistics.quantiles(per_request, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        return report
    traced = [p for p in passes if p["traced"]]
    by_pass = spans.read_spans(work / "spans.jsonl")
    layers = []
    for index, p in enumerate(passes):
        if p["traced"]:
            metrics = spans.layer_metrics(by_pass.get(index, []))
            metrics["trace.unattributed_s"] = p["wall_s"] - metrics.pop("trace.self_total_s")
            layers.append(metrics)
    report["metrics"] = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    traced_wall = sum(_request_times(traced, len(requests)))
    report["metrics"]["trace.overhead_s"] = traced_wall - sum(per_request)
    report["metrics"]["trace.wall_s"] = traced_wall
    return report


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return WORK_UNITS.get(name.rsplit(".", 1)[1], "s")


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['passes']} passes of {report['requests_per_pass']} requests "
          f"(the sample count of each percentile), one client, closed loop")
    for name, value in report["metrics"].items():
        print(f"  {name:48s} {value:14.6f} {unit_of(name)}")
    ratio = report["failed"] / report["attempted"]
    print(f"  {'fail_ratio':48s} {ratio:14.6f} ratio   "
          f"({report['failed']} of {report['attempted']} attempted)")
    for req, error in report["failures"]:
        print(f"  failed: {' '.join(req.argv)}: {error}", file=sys.stderr)


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in report["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    if args.workload != "all":
        print(result_line(reports[0]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
