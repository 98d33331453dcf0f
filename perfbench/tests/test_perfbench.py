"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, make_requests, materialize, pool  # noqa: E402


def _materialized(tmp_path: Path, workload: str, seed: int):
    requests = make_requests(workload, seed)
    commands = materialize(requests, tmp_path / ".perfbench" / "w", tmp_path)
    files = {p.name: p.read_bytes()
             for p in sorted((tmp_path / ".perfbench" / "w").iterdir())}
    return commands, files


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_identical_argv_and_files(tmp_path, workload):
    first = _materialized(tmp_path / "a", workload, 7)
    second = _materialized(tmp_path / "b", workload, 7)
    other = _materialized(tmp_path / "c", workload, 8)
    assert first == second
    assert first != other


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_request_has_a_fingerprint_and_enough_samples(workload):
    fingerprints = run.load_fingerprints()
    assert all(r.key in fingerprints for r in pool(workload))
    assert run.SETUP.key in fingerprints
    # at least ten requests lie beyond p90
    assert len(make_requests(workload, 0)) >= 100


def _small_plan(tmp_path: Path, count: int = 4) -> tuple:
    requests = make_requests("cli-small", 3)[:count]
    commands = materialize(requests, tmp_path, ROOT)
    plan = run.build_plan(requests, commands, run.load_fingerprints(), 3)
    return requests, plan


def _run_pass(tmp_path: Path, plan: dict, traced: bool = False) -> dict:
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    return run.run_pass(ROOT, tmp_path, 0, traced, deadline=time.monotonic() + 170)


def test_corrupted_fingerprint_is_a_failure(tmp_path):
    requests, plan = _small_plan(tmp_path)
    plan["requests"][1]["expected"] = dict(plan["requests"][1]["expected"],
                                           sha="0" * 64)
    out = _run_pass(tmp_path, plan)
    assert out["errors"][1] == "payload hash differs"
    assert [e for i, e in enumerate(out["errors"]) if i != 1] == [None] * 3
    report = run.summarize("cli-small", 3, requests, [out], [0.1], tmp_path, False)
    assert report["failed"] == 1
    assert json.loads(run.result_line(report))["correct"] is False


def test_times_are_scaled_by_the_probes_around_them(tmp_path):
    # a request timed during a spell at half the reference speed counts half
    slow = 2 * speed.REFERENCE_S
    assert speed.scaled(0.5, slow, slow) == pytest.approx(0.25)
    assert speed.scaled(0.5, speed.REFERENCE_S, speed.REFERENCE_S) == pytest.approx(0.5)
    _, plan = _small_plan(tmp_path)
    out = _run_pass(tmp_path, plan)
    assert len(out["probes"]) == len(out["times"]) == len(out["scaled"]) == 4
    assert all(before > 0 and after > 0 for before, after in out["probes"])


def test_float_outside_tolerance_is_a_failure():
    expected = {"code": 0, "sha": "x", "floats": [1.0, 2.0]}
    assert checks.compare(dict(expected, floats=[1.0, 2.0 + 1e-12]), expected, 1e-9) is None
    assert "differs" in checks.compare(dict(expected, floats=[1.0, 2.1]), expected, 1e-9)


def test_zero_checked_requests_is_an_error(tmp_path, monkeypatch):
    empty = {"times": [], "errors": [], "traced": False, "wall_s": 0.0,
             "peak_rss_mb": 1.0}
    with pytest.raises(run.BenchError):
        run.summarize("cli-small", 0, [], [empty], [0.1], tmp_path, False)
    monkeypatch.setattr(run, "make_requests", lambda workload, seed: [])
    monkeypatch.chdir(ROOT)
    with pytest.raises(run.BenchError, match="no requests"):
        run.run_workload("cli-small", 0, 1, False)


def test_no_program_means_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "cli-small", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_oracles_reject_wrong_answers():
    sys.path.insert(0, str(ROOT / "src"))
    from hyperlab import cayley_dickson as cd

    a = cd.CDElement.basis(4, 3) + cd.CDElement.basis(4, 10)
    b = cd.CDElement.basis(4, 6) - cd.CDElement.basis(4, 15)
    pair = {"a": a.to_json_dict(), "b": b.to_json_dict()}
    bad = {"a": a.to_json_dict(), "b": a.to_json_dict()}
    rng = __import__("random").Random(0)
    payload = {"level": 4, "count": 1, "pairs": [pair]}
    assert "distinct index pairs" in checks.check_zerodiv(payload, rng, cd)
    assert checks.count_upsets({"elements": list("abc"), "le": []}) == 8
    assert checks.count_upsets({"elements": list("abc"),
                                "le": [["a", "b"], ["b", "c"]]}) == 4
    snf = {"factors": [1, 2], "U": [[1, 0], [0, 1]], "V": [[1, 0], [0, 1]],
           "D": [[1, 0], [0, 2]]}
    assert checks.check_snf(snf, [[1, 0], [0, 2]], [1, 2]) is None
    assert checks.check_snf(snf, [[1, 0], [0, 3]], [1, 3]) == "U*M*V != D"
    assert "sympy" in checks.check_snf(snf, [[1, 0], [0, 2]], [1, 4])
    payload = {"level": 4, "count": 1, "pairs": [bad]}
    assert checks.check_zerodiv(payload, rng, cd) is not None


def test_trace_self_times_add_up(tmp_path):
    nucleus = ("qalg", "--base", "real", "--level", "3", "--op", "nucleus")
    requests = [next(r for r in pool("algebra-exact") if r.argv == nucleus),
                next(r for r in pool("algebra-exact") if r.kind == "qalg-small")]
    commands = materialize(requests, tmp_path, ROOT)
    plan = run.build_plan(requests, commands, run.load_fingerprints(), 0)
    out = _run_pass(tmp_path, plan, traced=True)
    assert out["errors"] == [None, None]
    rows = spans.read_spans(tmp_path / "spans.jsonl")[0]
    by_id = {r["id"]: r for r in rows}

    def chain(row):
        names = []
        while row is not None:
            names.append(row["name"])
            row = by_id.get(row["parent"])
        return names[::-1]

    rref = [r for r in rows if r["name"] == "exact.rref"]
    assert ["cli.run", "algebras.nucleus", "exact.nullspace", "exact.rref"] in map(chain, rref)
    metrics = spans.layer_metrics(rows)
    assert metrics["cli.run.calls"] == 2
    assert metrics["algebras.multiply.calls"] > 0
    assert abs(out["wall_s"] - metrics["trace.self_total_s"]) < 0.05 * out["wall_s"]


def test_layer_metrics_self_time_and_calls():
    rows = [
        {"id": 0, "name": "cli.run", "parent": None, "start": 0.0, "end": 10.0,
         "calls": 1, "busy": None, "work": None},
        {"id": 1, "name": "heyting.construct", "parent": 0, "start": 1.0,
         "end": 5.0, "calls": 1, "busy": None, "work": {"elements": 8}},
        {"id": 2, "name": "heyting.construct", "parent": 1, "start": 2.0,
         "end": 4.0, "calls": 1, "busy": None, "work": {"elements": 8}},
        {"id": 3, "name": "algebras.multiply", "parent": 0, "start": 5.0,
         "end": 9.0, "calls": 40, "busy": 3.0, "work": None},
    ]
    m = spans.layer_metrics(rows)
    assert m["cli.run.self_s"] == pytest.approx(10 - 4 - 3)
    assert m["heyting.construct.self_s"] == pytest.approx(4)
    assert m["heyting.construct.calls"] == 1
    assert m["algebras.multiply.calls"] == 40
    assert m["trace.self_total_s"] == pytest.approx(10)
