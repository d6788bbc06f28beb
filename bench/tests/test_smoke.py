"""Smoke test of the benchmark at tiny sizes: outputs and metric names only.

Run with ``python -m pytest bench/tests -q`` from the repository root.
Timings are never asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("calls", "search.states_expanded", "search.steps", "io.trace_bytes")

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed=0, trace=0, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert report["failed_frac"] == 0
    return report, res


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_outputs_and_names_metrics(workload, seed):
    report, res = result(bench(workload, seed=seed))
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert report["seed"] == seed and report["passes"] == 1
    for key in ("python", "nproc", "git_sha", "src_sha256", "load_1min"):
        assert key in report
    if workload == "audit-fuzz":
        assert report["flip_us.p99"]["samples"] == res["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_counts(workload):
    first = [result(bench(workload, trace=1)) for _ in range(2)]
    (report, res), (_, again) = first
    metrics = res["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert report["missing"] == []
    assert "x_ranks_cache_info" in report
    assert metrics["bench.trace_overhead"]["value"] > 0
    for name, m in metrics.items():
        if name.endswith(".calls") or name in COUNTS:
            assert m["value"] == again["metrics"][name]["value"], name
    if workload == "exact-search":
        assert all(m["value"] == 0 for name, m in metrics.items()
                   if name.startswith("potentials.") and name.endswith(".calls"))
        assert metrics["search.states_expanded"]["value"] > 0
    else:
        assert metrics["search.successors.calls"]["value"] == 0


def test_wrong_output_fails_the_run(monkeypatch, capsys):
    good = workloads.WORKLOADS["exact-search"]

    def wrong_run(cf, inputs):
        out = good.run(cf, inputs)
        name, inst, f, f_trace, h, h_trace = out["singles"][0]
        out["singles"][0] = (name, inst, f + 1, f_trace, h, h_trace)
        return out

    monkeypatch.setitem(workloads.WORKLOADS, "exact-search",
                        workloads.Workload(good.setup, wrong_run, good.check))
    code = run.main(["--workload", "exact-search", "--seconds", "0", "--smoke"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert res["correct"] is False and res["failed"] >= 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
