import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossflip
from crossflip.cli import main
from crossflip.io import load_instance, read_trace


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def rev5(tmp_path):
    path = tmp_path / "rev5.json"
    assert run_cli("gen", "two-line", "--perm", "4,3,2,1,0", "-o", path) == 0
    return path


@pytest.fixture
def convex4(tmp_path):
    path = tmp_path / "cv4.json"
    assert run_cli("gen", "convex", "--n", 4, "-o", path) == 0
    return path


def test_gen_writes_loadable_instance(rev5):
    inst = load_instance(rev5)
    assert inst.provenance == "two-line(perm=[4, 3, 2, 1, 0])"
    assert inst.n == 5


def test_gen_random_matches_golden(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen", "random", "--n", 3, "--seed", 7,
                   "--bbox", "0,100", "-o", out) == 0
    assert load_instance(out) == load_instance("tests/data/random_n3_seed7.json")


def test_gen_rejects_bad_params(tmp_path):
    assert run_cli("gen", "two-line", "--perm", "0,0,1",
                   "-o", tmp_path / "x.json") == 2
    assert run_cli("gen", "random", "--n", 3, "--seed", 1,
                   "--bbox", "0,1", "-o", tmp_path / "y.json") == 2


def test_run_bubble_summary_and_exit(rev5, tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run_cli("run", rev5, "--strategy", "bubble", "-o", out)
    assert code == 0
    captured = capsys.readouterr().out
    assert "steps=10" in captured and "final_crossings=0" in captured
    rows = read_trace(out)
    assert len(rows) == 11


def test_run_greedy_on_convex(convex4, tmp_path, capsys):
    assert run_cli("run", convex4, "--strategy", "greedy-x",
                   "-o", tmp_path / "t.csv") == 0
    assert "final_crossings=0" in capsys.readouterr().out


def test_run_adversary_rows_keep_decrement(rev5, tmp_path):
    out = tmp_path / "adv.csv"
    assert run_cli("run", rev5, "--strategy", "adversary:random",
                   "-o", out) == 0
    rows = read_trace(out)
    for prev, row in zip(rows, rows[1:]):
        assert row.phi_k_after - prev.phi_k_after <= -2


def test_run_exit_codes(convex4, rev5, tmp_path):
    # bubble needs a two-line instance
    assert run_cli("run", convex4, "--strategy", "bubble",
                   "-o", tmp_path / "a.csv") == 3
    # step cap leaves crossings behind
    assert run_cli("run", rev5, "--strategy", "bubble", "--max-steps", 1,
                   "-o", tmp_path / "b.csv") == 4
    # unreadable instance
    assert run_cli("run", tmp_path / "missing.json", "--strategy", "bubble",
                   "-o", tmp_path / "c.csv") == 2


def test_run_shear_enables_greedy(tmp_path):
    # the square has duplicate x-coordinates
    square = tmp_path / "square.json"
    square.write_text(json.dumps({
        "points": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "matching": [[0, 2], [1, 3]],
        "provenance": "square", "notes": "",
    }))
    assert run_cli("run", square, "--strategy", "greedy-x",
                   "-o", tmp_path / "s.csv") == 3
    assert run_cli("run", square, "--strategy", "greedy-x", "--shear",
                   "-o", tmp_path / "s.csv") == 0


def test_search_convex_h(convex4, tmp_path):
    report = tmp_path / "r.json"
    assert run_cli("search", convex4, "--which", "h", "-o", report) == 0
    doc = json.loads(report.read_text())
    assert doc["h"] == 3
    assert not doc["limits_hit"]
    assert "f" not in doc
    rows = read_trace(doc["witness_trace"]["h"])
    assert len(rows) == 4


def test_search_both_square(tmp_path):
    square = tmp_path / "square.json"
    square.write_text(json.dumps({
        "points": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "matching": [[0, 2], [1, 3]],
        "provenance": "square", "notes": "",
    }))
    report = tmp_path / "r.json"
    assert run_cli("search", square, "--which", "both", "-o", report) == 0
    doc = json.loads(report.read_text())
    assert doc["f"] == 1 and doc["h"] == 1


def test_search_limits_hit(tmp_path, rev5):
    report = tmp_path / "r.json"
    assert run_cli("search", rev5, "--which", "f", "--max-states", 2,
                   "-o", report) == 4
    doc = json.loads(report.read_text())
    assert doc["limits_hit"] is True
    assert doc["states_expanded"] >= 2


def test_search_extremal(tmp_path):
    inst = tmp_path / "r2.json"
    assert run_cli("gen", "random", "--n", 2, "--seed", 3,
                   "--bbox", "0,100", "-o", inst) == 0
    report = tmp_path / "r.json"
    assert run_cli("search", inst, "--which", "f", "--extremal",
                   "-o", report) == 0
    doc = json.loads(report.read_text())
    assert doc["g_hat"] <= 8 and doc["k_hat"] <= 2
    assert "g_hat" in doc["witness_trace"]


def test_audit_json(convex4, tmp_path, capsys):
    assert run_cli("audit", convex4, "--crossing", 0) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["audits"]) == 2
    for audit in doc["audits"]:
        assert audit["delta_phi_l"] <= -4
    out = tmp_path / "a.json"
    assert run_cli("audit", convex4, "--choice", "A", "--detail",
                   "-o", out) == 0
    doc = json.loads(out.read_text())
    assert all(a["choice"] == "A" for a in doc["audits"])
    assert all("lines" in a for a in doc["audits"])


DATA = Path(__file__).parent / "data"


def test_audit_detail_output_is_pinned(tmp_path, capsys):
    """Every line of ``audit --detail``, in order, as the per-line loop
    before the bitmask kernel printed it."""
    doc = json.loads((DATA / "random_n3_seed7.json").read_text())
    doc["matching"] = [[0, 1], [2, 4], [3, 5]]
    inst = tmp_path / "n3_seed7_crossing.json"
    inst.write_text(json.dumps(doc))
    assert run_cli("audit", inst, "--detail") == 0
    golden = json.loads((DATA / "audit_n3_seed7_detail.json").read_text())
    golden["instance"] = str(inst)
    assert capsys.readouterr().out == json.dumps(golden, indent=2) + "\n"


def test_audit_rejects_string_index_with_exit_2(tmp_path):
    doc = json.loads((DATA / "random_n3_seed7.json").read_text())
    doc["matching"][0] = ["0", 1]
    inst = tmp_path / "string_index.json"
    inst.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(crossflip.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from crossflip.cli import main; sys.exit(main(sys.argv[1:]))",
         "audit", str(inst)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "integers" in proc.stderr


def test_render_truncated_trace_row_exits_2(tmp_path):
    inst = tmp_path / "rev3.json"
    assert run_cli("gen", "two-line", "--perm", "2,1,0", "-o", inst) == 0
    trace = tmp_path / "bad.csv"
    trace.write_text(",".join(crossflip.io.TRACE_COLUMNS) + "\n1,0-1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(crossflip.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from crossflip.cli import main; sys.exit(main(sys.argv[1:]))",
         "render", str(inst), "--trace", str(trace), "--frame", "0",
         "-o", str(tmp_path / "f.svg")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "invalid trace" in proc.stderr


def test_audit_needs_crossings(tmp_path):
    inst = tmp_path / "id3.json"
    assert run_cli("gen", "two-line", "--perm", "0,1,2", "-o", inst) == 0
    assert run_cli("audit", inst) == 2


def test_render_instance_and_frames(convex4, tmp_path):
    svg = tmp_path / "cv.svg"
    assert run_cli("render", convex4, "-o", svg) == 0
    assert svg.read_text().startswith("<svg")
    trace = tmp_path / "t.csv"
    assert run_cli("run", convex4, "--strategy", "greedy-x", "-o", trace) == 0
    frames_dir = tmp_path / "frames"
    assert run_cli("render", convex4, "--trace", trace,
                   "--out-dir", frames_dir) == 0
    assert len(list(frames_dir.glob("frame_*.svg"))) == 4
    one = tmp_path / "one.svg"
    assert run_cli("render", convex4, "--trace", trace, "--frame", 1,
                   "-o", one) == 0
    assert one.exists()
    assert run_cli("render", convex4, "--trace", trace, "--frame", 99,
                   "-o", one) == 2


def test_render_bad_instance(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run_cli("render", bad, "-o", tmp_path / "x.svg") == 2


def test_sweep_families(tmp_path):
    out_dir = tmp_path / "sw"
    assert run_cli("sweep", "--family", "two-line", "--n-min", 2, "--n-max", 4,
                   "--out-dir", out_dir) == 0
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["bubble_steps"]) for r in rows] == [1, 3, 6]
    for row in rows:
        n = int(row["n"])
        assert int(row["bubble_steps"]) == n * (n - 1) // 2
        assert int(row["f"]) >= int(row["bubble_steps"])

    assert run_cli("sweep", "--family", "convex", "--n-min", 2, "--n-max", 5,
                   "--out-dir", out_dir) == 0
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["h"]) for r in rows] == [1, 2, 3, 4]

    assert run_cli("sweep", "--family", "random", "--n-min", 2, "--n-max", 3,
                   "--seeds", "0,1", "--out-dir", out_dir) == 0
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        n = int(row["n"])
        assert row["error"] == ""
        assert int(row["g_hat"]) <= n**3
        assert int(row["k_hat"]) <= (n * n + 1) // 2


BROKEN_SWEEP_ROW = """
import sys
import crossflip
import crossflip.cli as cli


def broken_row(*args):
    raise getattr(crossflip, sys.argv[1])("corrupted state")


cli._sweep_row = broken_row
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("error", ["PotentialInvariantError", "FlipGraphCycleError"])
def test_sweep_invariant_errors_are_fatal(tmp_path, error):
    env = dict(os.environ, PYTHONPATH=str(Path(crossflip.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN_SWEEP_ROW, error, "sweep", "--family",
         "convex", "--n-min", "2", "--n-max", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode != 0
    assert error in proc.stderr
    assert not (tmp_path / "sweep.csv").exists()


def _cli_process(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(crossflip.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from crossflip.cli import main; sys.exit(main(sys.argv[1:]))",
         *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("command", ["search", "sweep"])
@pytest.mark.parametrize("flag,value", [("--max-states", 0), ("--max-depth", 0),
                                        ("--time-budget", -1)])
def test_nonpositive_limit_flag_exits_2(rev5, tmp_path, command, flag, value):
    if command == "search":
        argv = ["search", rev5, "-o", tmp_path / "r.json"]
    else:
        argv = ["sweep", "--family", "convex", "--n-min", 2, "--n-max", 2,
                "--out-dir", tmp_path / "sw"]
    proc = _cli_process(*argv, flag, value)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "search limits" in proc.stderr


def _tampered_trace(tmp_path, edit):
    """A bubble trace of rev3 written by ``run``, with ``edit`` applied to
    its rows (the header and step 0 are rows[0] and rows[1])."""
    inst = tmp_path / "rev3.json"
    assert run_cli("gen", "two-line", "--perm", "2,1,0", "-o", inst) == 0
    trace = tmp_path / "t.csv"
    assert run_cli("run", inst, "--strategy", "bubble", "-o", trace) == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(trace, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return inst, trace


def _stale_second_flip(rows):
    # step 2 repeats the crossing step 1 has already removed
    rows[3][1:] = rows[2][1:]


def _other_choice_same_segments(rows):
    # step 1 records its reconnection under the other choice
    col = rows[0].index("choice")
    rows[2][col] = "A" if rows[2][col] == "B" else "B"


@pytest.mark.parametrize("edit,bad_record", [(_stale_second_flip, 1),
                                             (_other_choice_same_segments, 0)])
@pytest.mark.parametrize("mode", ["frames", "frame"])
def test_render_invalid_trace_exits_2_before_any_frame(tmp_path, edit,
                                                       bad_record, mode):
    inst, trace = _tampered_trace(tmp_path, edit)
    out = tmp_path / "frames"
    if mode == "frames":
        proc = _cli_process("render", inst, "--trace", trace, "--out-dir", out)
    else:
        proc = _cli_process("render", inst, "--trace", trace, "--frame", 0,
                            "-o", out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"invalid trace: step {bad_record}:" in proc.stderr
    assert not out.exists()


def test_search_states_expanded_sums_every_search(tmp_path, rev5):
    """The report counts the f, h and extremal searches together, and a
    limit hit adds the partial count of the call that hit it."""
    inst_path = tmp_path / "r4.json"
    assert run_cli("gen", "random", "--n", 4, "--seed", 3, "-o", inst_path) == 0
    inst = load_instance(inst_path)
    stats_f, stats_h = {}, {}
    crossflip.longest_flip_sequence(inst, stats_out=stats_f)
    crossflip.shortest_flip_sequence(inst, stats_out=stats_h)
    est = crossflip.extremal_estimates(inst.points, cap=4)
    want = (stats_f["states_expanded"] + stats_h["states_expanded"]
            + est.states_expanded)
    report = tmp_path / "r4.report.json"
    assert run_cli("search", inst_path, "--which", "both", "--extremal",
                   "--enum-cap", 4, "-o", report) == 0
    assert json.loads(report.read_text())["states_expanded"] == want == 110

    inst = load_instance(rev5)
    limits = crossflip.SearchLimits(max_states=500)
    crossflip.shortest_flip_sequence(inst, limits, stats_out=stats_h)
    with pytest.raises(crossflip.SearchLimitsExceeded) as hit:
        crossflip.extremal_estimates(inst.points, limits)
    want = stats_h["states_expanded"] + hit.value.states_expanded
    report = tmp_path / "rev5.report.json"
    assert run_cli("search", rev5, "--which", "h", "--extremal",
                   "--max-states", 500, "-o", report) == 4
    doc = json.loads(report.read_text())
    assert doc["limits_hit"] and doc["states_expanded"] == want == 522
