"""Benchmark for crossflip: one workload per run, in a fresh process.

    python3 bench/run.py --workload exact-search --seed 0 --seconds 35 --trace 0

The package is imported from ``src/`` of the same checkout and nowhere
else; the run exits 2 when it is absent.

Set-up imports ``crossflip`` from a clean module table and builds the
workload's fixed inputs from the seed. It is done ten times up front and
again before every timed pass, and ``setup_s`` is the median. A warm-up pass
on small inputs from a seed stream disjoint from the timed one follows. Then
timed passes repeat while the next one is predicted to end within
``--seconds``; ``wall_s`` is the median pass time. Each pass runs on a fresh
import, so it pays the per-instance cache fills a user pays on a new
instance. Every reported time is scaled to a reference machine speed
(``speed.py``); the report line keeps the unscaled medians.

With ``--trace 1`` one more set-up and one more pass run under span tracing,
and the per-layer metrics replace the end-to-end ones.

Every pass's outputs are checked. The last line of stdout is the result
object; the line before it is a report with run metadata and the figures
that are not gated metrics. A wrong output makes the exit code 1; an
invariant error from the library (PotentialInvariantError,
FlipGraphCycleError, SearchLimitsExceeded) aborts the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer
from speed import SpeedProbe
from workloads import WORKLOADS, Seeds

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "geometry.orient.calls": "count",
    "geometry.segments_properly_cross.calls": "count",
    "geometry.validate_general_position.s": "s",
    "geometry.shear_to_distinct_x.s": "s",
    "matching.find_crossings.calls": "count",
    "matching.find_crossings.s": "s",
    "matching.is_noncrossing.calls": "count",
    "matching.is_noncrossing.s": "s",
    "matching.apply_flip.calls": "count",
    "matching.apply_flip.s": "s",
    "matching.flip.calls": "count",
    "matching.flip.s": "s",
    "matching.crossings_after_flip.s": "s",
    "matching.total_length.calls": "count",
    "matching.total_length.s": "s",
    "matching.replay.s": "s",
    "potentials.decrement_audit.calls": "count",
    "potentials.decrement_audit.s": "s",
    "potentials.phi_lines.calls": "count",
    "potentials.phi_lines.s": "s",
    "potentials.phi_vertical.calls": "count",
    "potentials.phi_vertical.s": "s",
    "generators.gen_random.calls": "count",
    "generators.gen_random.s": "s",
    "generators.Instance.s": "s",
    "generators.gen_two_line.s": "s",
    "generators.gen_convex.s": "s",
    "search.longest_flip_sequence.s": "s",
    "search.shortest_flip_sequence.s": "s",
    "search.extremal_estimates.s": "s",
    "search.successors.calls": "count",
    "search.successors.s": "s",
    "search.states_expanded": "count",
    "search.run_strategy.s": "s",
    "search.steps": "count",
    "io.write_trace.s": "s",
    "io.read_trace.s": "s",
    "io.trace_bytes": "bytes",
    "bench.trace_overhead": "ratio",
}

def drop_crossflip() -> None:
    """Forget every crossflip module and collect the objects that used them,
    so that re-imports neither leak nor find warm caches."""
    for key in [k for k in sys.modules if k == "crossflip" or k.startswith("crossflip.")]:
        del sys.modules[key]
    gc.collect()


def load_crossflip():
    """Import crossflip from the checkout's src/."""
    cf = importlib.import_module("crossflip")
    importlib.import_module("crossflip.io")
    if not Path(cf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"crossflip imported from {cf.__file__}, not {SRC}")
    return cf


def load_1min() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the package sources, which identifies the code measured
    also where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "crossflip").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def percentile_us(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1] * 1e6


def per_layer_metrics(tracer: Tracer, traced_out: dict, overhead: float) -> dict:
    spans = tracer.summary()
    values = {}
    for name in PER_LAYER:
        if name in traced_out:  # counters a pass reports itself
            values[name] = traced_out[name]
        elif name == "bench.trace_overhead":
            values[name] = overhead
        else:
            wrapped, field = name.rsplit(".", 1)
            values[name] = spans.get(wrapped, {}).get(field, 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time to measure, from the first timed set-up; 0 runs one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)

    if not (SRC / "crossflip" / "__init__.py").is_file():
        print(f"error: no crossflip package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = load_1min()
    workload = WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"

    def fresh_setup(stream="timed", size=size):
        drop_crossflip()
        t0 = perf_counter()
        cf = load_crossflip()
        inputs = workload.setup(cf, Seeds(args.workload, args.seed, stream), size, OUT)
        return (t0, perf_counter()), cf, inputs

    failures = []
    attempted = 0

    def check(cf, inputs, out, thorough):
        nonlocal attempted
        attempted += out["ops"]
        failures.extend(out["failures"])
        failures.extend(workload.check(cf, inputs, out, thorough))

    with SpeedProbe() as speed:
        setups = [fresh_setup()[0] for _ in range(SETUP_REPEATS)]
        _, cf, warm = fresh_setup("warmup", "smoke")
        workload.run(cf, warm)
        del warm

        # Each pass gets a fresh import, so its caches start empty, and a
        # fresh set-up sample, so setup_s spans the same stretch of time as
        # wall_s. A pass starts only when it is predicted to end within
        # --seconds of the first one's set-up.
        passes = []  # (start, end, ops, flip latency percentiles in us)
        deadline = perf_counter() + args.seconds
        while not passes or perf_counter() + passes[-1][1] - passes[-1][0] <= deadline:
            span, cf, inputs = fresh_setup()
            setups.append(span)
            t0 = perf_counter()
            out = workload.run(cf, inputs)
            t1 = perf_counter()
            check(cf, inputs, out, thorough=not passes)
            pcts = [percentile_us(out["latency"], q) for q in (50, 99)] if "latency" in out else None
            passes.append((t0, t1, out["ops"], pcts))
            del cf, inputs, out

        if args.trace:
            # One traced set-up and one traced pass; checks run untraced after.
            drop_crossflip()
            cf = load_crossflip()
            tracer = Tracer()
            tracer.install()
            try:
                inputs = tracer.call("bench.setup", workload.setup, cf,
                                     Seeds(args.workload, args.seed, "timed"), size, OUT)
                t0 = perf_counter()
                traced_out = tracer.call("bench.pass", workload.run, cf, inputs)
                t1 = perf_counter()
            finally:
                tracer.uninstall()
            x_ranks = cf.potentials.x_ranks.cache_info()._asdict()
            check(cf, inputs, traced_out, thorough=False)
            traced_wall = (t1 - t0) * speed.scale(t0, t1)

    # Every time below is scaled to the reference machine speed (speed.py).
    scales = [speed.scale(t0, t1) for t0, t1, _, _ in passes]
    walls = [(t1 - t0) * k for (t0, t1, _, _), k in zip(passes, scales)]
    wall_s = statistics.median(walls)
    setup_s = statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in setups)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "passes": len(passes),
        "wall_s_per_pass": walls,
        "speed_scale_per_pass": scales,
        "measured": {
            "setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
            "wall_s": statistics.median(t1 - t0 for t0, t1, _, _ in passes),
        },
    }
    # The median over passes of each pass's percentiles: a pass has
    # thousands of flips, so its p99 has ten or more samples beyond it.
    flips = [(p[3], k) for p, k in zip(passes, scales) if p[3] is not None]
    for i, q in enumerate((50, 99) if flips else ()):
        report[f"flip_us.p{q}"] = {"value": statistics.median(pc[i] * k for pc, k in flips),
                                   "unit": "us", "samples": sum(p[2] for p in passes)}

    if args.trace:
        report["x_ranks_cache_info"] = x_ranks
        report["missing"] = tracer.missing
        report["spans"] = len(tracer.span_name)
        tracer.write(OUT / f"spans.{args.workload}.bin")
        values = per_layer_metrics(tracer, traced_out, traced_wall / wall_s)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        for name in tracer.missing:
            print(f"warning: {name} not found; its metrics read 0", file=sys.stderr)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ops_per_s": statistics.median(p[2] / w for p, w in zip(passes, walls)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    failed = min(len(failures), attempted)
    report["failed_frac"] = failed / attempted
    report["failures"] = failures[:20]
    report["load_1min"] = {"start": load_start, "end": load_1min()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if failures:
        print(f"error: {len(failures)} wrong outputs, first: {failures[0]}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
