import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"
STEP_COST = TOOL.with_name("step_cost.py")
TRACE_DIGEST = TOOL.with_name("trace_digest.py")
BUDGET_PROBE = TOOL.with_name("budget_probe.py")
AB_PASS = TOOL.with_name("ab_pass.py")
PACKAGE = TOOL.parents[1] / "src" / "crossflip"


def _sizes(*argv):
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, argv)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


def test_src_size_counts_code_lines_only(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    s = '''not a\n"
        "    docstring'''\n"
        "    return x  # trailing comment\n"
    )
    (tmp_path / "b.py").write_text("class C:\n    'doc'\n    y = (1,\n         2)\n")
    assert _sizes(tmp_path) == {"a.py": "4", "b.py": "3", "wc_l": "13",
                                "ast_code_lines": "7"}


def test_src_size_reports_the_package():
    """One line per module, in file-name order, whose AST code lines sum
    to the total, then the two totals."""
    sizes = _sizes()
    wc = sum(p.read_text().count("\n") for p in PACKAGE.glob("*.py"))
    assert int(sizes["wc_l"]) == wc
    assert 0 < int(sizes["ast_code_lines"]) < wc
    *modules, _wc, _total = sizes
    assert modules == sorted(p.name for p in PACKAGE.glob("*.py"))
    assert sum(int(sizes[name]) for name in modules) == int(sizes["ast_code_lines"])


def test_step_cost_prints_one_json_line():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, str(STEP_COST), "20", "--seed", "3",
         "--strategy", "adversary:max-damage"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    out = json.loads(line)
    assert out["n"] == 20 and out["strategy"] == "adversary:max-damage"
    assert out["steps"] > 0 and out["seconds"] > 0 and out["peak_rss_mb"] > 0
    assert out["ms_per_step"] == 1000 * out["seconds"] / out["steps"]
    # the run's time times the speed probe's positive, finite scale
    assert 0 < out["scaled_seconds"] < float("inf")
    # generation, shear and Instance, timed apart from the run
    assert out["gen_seconds"] > 0
    assert 0 < out["gen_scaled_seconds"] < float("inf")


def test_step_cost_stops_at_max_steps():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    runs = []
    for cap in ("3", "100000"):
        proc = subprocess.run(
            [sys.executable, str(STEP_COST), "20", "--seed", "3",
             "--strategy", "random:7", "--max-steps", cap],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0]["steps"] == 3 and runs[0]["complete"] is False
    assert runs[1]["steps"] > 3 and runs[1]["complete"] is True


def test_step_cost_refuses_a_set_it_cannot_shear():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, str(STEP_COST), "400", "--bbox", "0", "65536"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds" in proc.stderr


def test_budget_probe_prints_one_json_line():
    """A budgeted longest-run search at n = 20 outlasts a 0.2 s budget: the
    probe reports the limit hit, its states and certified bound, the time
    from the call to the raise and the peak resident set."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, str(BUDGET_PROBE), "20", "1", "f", "0.2", "--cap-mb", "512"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    out = json.loads(line)
    assert (out["n"], out["seed"], out["which"], out["budget"], out["cap_mb"]) == (
        20, 1, "f", 0.2, 512)
    assert out["outcome"] == "limit" and out["value"] is None
    assert out["states"] > 0 and out["best_bound"] >= 0
    assert 0.2 <= out["seconds"] < 10 and out["peak_rss_mb"] > 0


def test_trace_digest_matches_the_pinned_outputs():
    """The full digest, whose n = 40 and n = 100 strategy runs ``--small``
    leaves out: every output is what it was when the digest was pinned."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, str(TRACE_DIGEST)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "972b3b64590546a92f4092358f8ac76a0760ca2698d09ba2b569af369750d253\n")


def test_trace_digest_small_matches_the_pinned_outputs():
    """Every strategy, search and scenario output of ``--small`` is what it
    was when the digest was pinned: a change to any trace, its CSV, a search
    value or the extremal estimates changes the digest."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, str(TRACE_DIGEST), "--small"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "817a3e77db82021155a9ee64ad5f057fee07891d6e4cd4b62bfeb6e9871bdc5c\n")


def test_ab_pass_prints_one_json_line():
    """The in-process A/B of two source trees on a benchmark workload, with
    the package's own tree on both sides and smoke-size inputs: three pairs
    of checked passes, both medians, the median paired ratio with its
    bootstrap 95% interval and the count of pairs the change won, in one
    JSON line and well under 5 s."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(AB_PASS), str(PACKAGE.parent), str(PACKAGE.parent),
         "audit-fuzz", "--pairs", "3", "--smoke"],
        capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    out = json.loads(line)
    assert (out["workload"], out["pairs"], out["failures"]) == ("audit-fuzz", 3, [])
    assert out["parent_median_s"] > 0 and out["change_median_s"] > 0
    assert 0 < out["median_ratio"] < float("inf") and 0 <= out["faster"] <= 3
    low, high = out["ratio_ci95"]
    assert 0 < low <= out["median_ratio"] <= high < float("inf")
    assert out["parent_iqr_s"] >= 0
    assert elapsed < 5


def test_ab_pass_bootstrap_interval_is_seeded_and_holds_the_median():
    """The bootstrap interval of the median paired ratio is the same on
    every call, lies within the ratios and holds their median, and is one
    point when every ratio is."""
    spec = importlib.util.spec_from_file_location("ab_pass", AB_PASS)
    ab_pass = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_pass)
    ratios = [0.91, 0.85, 1.02, 0.88, 0.95, 0.9, 1.1, 0.87]
    low, high = ab_pass.bootstrap_ci95(ratios)
    assert [low, high] == ab_pass.bootstrap_ci95(ratios)
    assert min(ratios) <= low <= statistics.median(ratios) <= high <= max(ratios)
    assert low < high
    assert ab_pass.bootstrap_ci95([0.9] * 5) == [0.9, 0.9]
