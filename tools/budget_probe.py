"""How a budgeted exact search stops, or what a finished one costs, without a profiler.

    python tools/budget_probe.py N SEED {f,h,extremal} BUDGET
                                 [--family {random,rev}] [--cap-mb M]

caps this process's address space at M MB (default 1024) with
``resource.setrlimit(RLIMIT_AS)``, builds the instance, ``gen_random(N,
seed=SEED)`` or, with ``--family rev``, ``gen_two_line(reverse_perm(N))``
(rev takes no seed: pass 0), and runs one exact search on it with
``SearchLimits(time_budget=BUDGET)``: ``longest_flip_sequence`` for f,
``shortest_flip_sequence`` for h, and for extremal ``extremal_estimates``
over every matching of the point set (its enumeration cap set to N). It
prints one JSON line: ``outcome`` (``limit`` when the search raised
``SearchLimitsExceeded``, ``done`` when it finished, ``MemoryError`` when
it ran out of the capped memory), ``seconds`` from the call to its end,
``states`` (states
expanded), ``best_bound`` (the certified bound of a limit hit), ``value``
(f or h, or [g_hat, k_hat], of a finished search) and ``peak_rss_mb`` (the
process's peak resident set). It exits 1 on a ``MemoryError``, 2 on a bad
argument, else 0. Run it once per process, so that the peak and the cap are
the search's own. Needs the ``crossflip`` package importable, e.g. with
``PYTHONPATH=src``.

    python tools/budget_probe.py 8 0 f 120 --family rev
    python tools/budget_probe.py 8 0 extremal 120

time f(rev8) and the enumeration of every matching of ``gen_random(8,
seed=0)``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from crossflip import (SearchLimits, SearchLimitsExceeded, gen_random, gen_two_line,
                       reverse_perm)
from crossflip.search import (extremal_estimates, longest_flip_sequence,
                              shortest_flip_sequence)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int)
    ap.add_argument("seed", type=int)
    ap.add_argument("which", choices=("f", "h", "extremal"))
    ap.add_argument("budget", type=float)
    ap.add_argument("--family", choices=("random", "rev"), default="random")
    ap.add_argument("--cap-mb", type=int, default=1024)
    args = ap.parse_args(argv)
    if args.family == "rev" and args.seed:
        ap.error("the rev family takes no seed: pass 0")
    cap = args.cap_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    if args.family == "rev":
        inst = gen_two_line(reverse_perm(args.n))
    else:
        inst = gen_random(args.n, seed=args.seed)
    limits = SearchLimits(time_budget=args.budget)
    stats = {}
    out = {"outcome": "done", "states": None, "best_bound": None, "value": None}
    start = time.perf_counter()
    try:
        if args.which == "extremal":
            est = extremal_estimates(inst.points, limits, cap=args.n)
            out.update(value=[est.g_hat, est.k_hat], states=est.states_expanded)
        else:
            run = longest_flip_sequence if args.which == "f" else shortest_flip_sequence
            out["value"] = run(inst, limits, stats)[0]
            out["states"] = stats["states_expanded"]
    except SearchLimitsExceeded as exc:
        out.update(outcome="limit", states=exc.states_expanded,
                   best_bound=exc.best_bound)
    except MemoryError:
        out.update(outcome="MemoryError", states=stats.get("states_expanded"))
    seconds = time.perf_counter() - start
    print(json.dumps({
        "n": args.n, "seed": args.seed, "which": args.which, "family": args.family,
        "budget": args.budget, "cap_mb": args.cap_mb, **out,
        "seconds": seconds,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 1 if out["outcome"] == "MemoryError" else 0


if __name__ == "__main__":
    sys.exit(main())
