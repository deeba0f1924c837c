"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


def _exact_counts(seed: int) -> dict:
    it = run.run_iteration("report_fixtures", seed, time.monotonic() + 300, trace=True)
    assert all(w.result for w in it.workers), [w.stderr for w in it.workers]
    metrics = run.layer_metrics(it)
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "share")}


def test_traced_counts_repeat_exactly():
    # report_fixtures reaches every traced layer; counts must not depend on
    # the process, only on the seed.
    first = _exact_counts(5)
    second = _exact_counts(5)
    assert first == second
    for name in ("fock.q_projection.calls", "kernel.eigvalsh.n3", "elementary.terms_out", "fock.dim"):
        assert first[name] > 0, name
    assert 0.0 < first["fock.q_projection.repeat_share"] < 1.0


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in run.per_layer_names()]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in run.per_layer_names()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def _worker(outcomes, returncode):
    result = {"outcomes": outcomes}
    return run.Worker(("cfg.json", None, "report-all"), result, 0.0, 1.0, returncode, "")


def test_gate_counts_each_disagreeing_outcome():
    reference = {"cfg.json": {"check:a#0": True, "check:b#0": False, "exit_code": 1, "fock.dim": 22}}
    same = dict(reference["cfg.json"])
    assert run.gate(_worker(same, 1), reference)[:2] == (4, 0)
    flipped = dict(same, **{"check:b#0": True, "exit_code": 0})
    assert run.gate(_worker(flipped, 0), reference)[:2] == (4, 2)
    missing = {k: v for k, v in same.items() if k != "check:a#0"}
    assert run.gate(_worker(missing, 1), reference)[:2] == (4, 1)
    # A worker whose process exit code contradicts its own report, or that
    # died without a report, fails every outcome.
    assert run.gate(_worker(same, 0), reference)[:2] == (4, 4)
    dead = run.Worker(("cfg.json", None, "report-all"), None, 0.0, 1.0, -9, "killed")
    assert run.gate(dead, reference)[:2] == (4, 4)
