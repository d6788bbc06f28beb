"""Per-step cost of one strategy run, without a profiler.

    python tools/step_cost.py N [--seed S] [--bbox LO HI] [--strategy SPEC]
                                [--max-steps K]

draws ``gen_random(N, seed=S, bbox=(LO, HI))``, shears it to distinct x when
x repeats, runs the strategy (default ``greedy-x``) to the end, or for at
most K steps, and prints one JSON line: ``steps``, ``complete`` (whether the
run ended without crossings), ``seconds`` (the run alone), ``scaled_seconds``
(the same time scaled to the reference machine speed of the benchmark's
speed probe, ``bench/speed.py``, so that runs on a shared machine compare),
``ms_per_step`` (unscaled), ``gen_seconds`` and ``gen_scaled_seconds`` (the
generation, the shear and the ``Instance`` before the run, timed under the
same probe) and ``peak_rss_mb`` (the process's peak resident set). Needs
the ``crossflip`` package importable, e.g. with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from crossflip import (
    CoordinateOverflowError,
    Instance,
    gen_random,
    parse_strategy,
    run_strategy,
    shear_to_distinct_x,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from speed import SpeedProbe  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bbox", type=int, nargs=2, default=(0, 512), metavar=("LO", "HI"))
    ap.add_argument("--strategy", default="greedy-x")
    ap.add_argument("--max-steps", type=int, default=None, metavar="K")
    args = ap.parse_args(argv)
    strategy = parse_strategy(args.strategy)
    with SpeedProbe() as speed:
        gen_start = time.perf_counter()
        raw = gen_random(args.n, seed=args.seed, bbox=tuple(args.bbox))
        try:
            ps = shear_to_distinct_x(raw.points)
        except CoordinateOverflowError as exc:
            print(f"step_cost: {exc}", file=sys.stderr)
            return 2
        inst = Instance(ps, raw.matching, raw.provenance)
        start = time.perf_counter()
        trace = run_strategy(inst, strategy, max_steps=args.max_steps)
        end = time.perf_counter()
    seconds = end - start
    gen_seconds = start - gen_start
    steps = len(trace)
    print(json.dumps({
        "n": args.n, "seed": args.seed, "bbox": list(args.bbox),
        "strategy": args.strategy, "steps": steps, "complete": trace.complete,
        "seconds": seconds,
        "scaled_seconds": seconds * speed.scale(start, end),
        "ms_per_step": 1000 * seconds / steps if steps else None,
        "gen_seconds": gen_seconds,
        "gen_scaled_seconds": gen_seconds * speed.scale(gen_start, start),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
