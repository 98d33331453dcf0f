"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/runpass.py PLAN RESULT [SPANS PASS_INDEX]

Runs from the root of a checkout and imports the program from its
``src/``.  Each request is timed from ``hyperlab.cli.run(argv)`` until the
string of ``CommandResult.to_json()`` is ready, which is what ``main`` does
minus printing.  A speed probe (speed.py) runs right before and right
after each request.  The answer is checked after the clock stops.  With SPANS,
the public functions are wrapped (spans.py) and the pass's spans are
appended to that file when the pass ends.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

import checks
import spans
from speed import probe


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import hyperlab.cli as cli
    from hyperlab import cayley_dickson

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not the checkout's program")
    return cli, cayley_dickson


def _verify(req: dict, result, text: str, rng, cd) -> str | None:
    got = checks.fingerprint(result.code, text, result.payload,
                             req["tolerance"] is not None)
    reason = checks.compare(got, req["expected"], req["tolerance"])
    if reason is not None or result.code != 0:
        return reason
    oracle = req["oracle"]
    if oracle == "zerodiv":
        return checks.check_zerodiv(result.payload, rng, cd)
    if oracle == "snf":
        return checks.check_snf(result.payload, req["oracle_input"],
                                req["expected"]["sympy_factors"])
    if oracle == "upsets":
        return checks.check_upsets(result.payload, req["oracle_input"])
    return None


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    plan = json.loads(Path(plan_path).read_text())
    cli, cd = _import_program(Path.cwd())
    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        spans.install(tracer)
    rng = random.Random(plan["seed"])
    times, errors, probes = [], [], []
    for n, req in enumerate(plan["requests"]):
        if tracer:
            tracer.request = n
        before = probe()
        start = time.perf_counter()
        try:
            result = cli.run(req["argv"])
            text = result.to_json()
        except Exception as exc:  # a crash is a failed request, not a failed pass
            result, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        probes.append([before, probe()])
        if result is not None:
            error = _verify(req, result, text, rng, cd)
            del result, text  # so the next request's peak memory does not include this answer
        errors.append(error)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.write(spans_path, int(argv[3]))
    Path(result_path).write_text(json.dumps(
        {"times": times, "probes": probes, "errors": errors,
         "peak_rss_mb": peak_kib / 1024}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
