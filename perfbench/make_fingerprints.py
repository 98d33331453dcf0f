"""Regenerate fingerprints.json: the expected answer of every request any
seed of any workload can draw.

    python3 perfbench/make_fingerprints.py

Run from the root of a checkout whose answers are trusted.  Every request
is run once in this process; the independent checks of checks.py run on
each answer, with SNF factors taken from sympy, so a wrong answer stops
the regeneration instead of becoming the reference.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
from run import SETUP, oracle_input  # noqa: E402
from workloads import WORKLOADS, pool  # noqa: E402


def sympy_factors(matrix) -> list:
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    d = smith_normal_form(Matrix(matrix), domain=ZZ)
    return [abs(int(d[i, i])) for i in range(min(d.shape))]


def main() -> int:
    from hyperlab import cayley_dickson as cd
    from hyperlab.cli import run

    requests = {SETUP.key: SETUP}
    for workload in WORKLOADS:
        for req in pool(workload):
            requests.setdefault(req.key, req)
    work = Path.cwd() / ".perfbench" / "fingerprints"
    work.mkdir(parents=True, exist_ok=True)
    out = {}
    for n, (key, req) in enumerate(sorted(requests.items())):
        path = None
        if req.file is not None:
            path = work / "input.json"
            path.write_text(req.file)
        result = run(req.command(str(path) if path else None))
        text = result.to_json()
        entry = checks.fingerprint(result.code, text, result.payload,
                                   req.tolerance is not None)
        reason = None
        if req.oracle == "snf":
            entry["sympy_factors"] = sympy_factors(oracle_input(req))
            reason = checks.check_snf(result.payload, oracle_input(req),
                                      entry["sympy_factors"])
        elif req.oracle == "zerodiv":
            reason = checks.check_zerodiv(result.payload, random.Random(0), cd)
        elif req.oracle == "upsets":
            reason = checks.check_upsets(result.payload, oracle_input(req))
        if reason:
            raise SystemExit(f"{req.kind} {req.argv}: {reason}")
        out[key] = entry
        print(f"{n + 1}/{len(requests)} {req.kind} code={result.code}",
              file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(out[k], sort_keys=True)}"
             for k in sorted(out)]
    (HERE / "fingerprints.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
