"""How a budgeted exact search stops at large n, without a profiler.

    python tools/budget_probe.py N SEED {f,h} BUDGET [--cap-mb M]

caps this process's address space at M MB (default 1024) with
``resource.setrlimit(RLIMIT_AS)``, draws ``gen_random(N, seed=SEED)`` and
runs one exact search on it with ``SearchLimits(time_budget=BUDGET)``:
``longest_flip_sequence`` for f, ``shortest_flip_sequence`` for h. It prints
one JSON line: ``outcome`` (``limit`` when the search raised
``SearchLimitsExceeded``, ``done`` when it finished, ``MemoryError`` when it
ran out of the capped memory), ``seconds`` from the call to its end,
``states`` (states expanded), ``best_bound`` (the certified bound of a
limit hit), ``value`` (f or h of a finished search) and ``peak_rss_mb``
(the process's peak resident set). It exits 1 on a ``MemoryError``, else 0.
Run it once per process, so that the peak and the cap are the search's
own. Needs the ``crossflip`` package importable, e.g. with
``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from crossflip import SearchLimits, SearchLimitsExceeded, gen_random
from crossflip.search import longest_flip_sequence, shortest_flip_sequence


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int)
    ap.add_argument("seed", type=int)
    ap.add_argument("which", choices=("f", "h"))
    ap.add_argument("budget", type=float)
    ap.add_argument("--cap-mb", type=int, default=1024)
    args = ap.parse_args(argv)
    cap = args.cap_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    inst = gen_random(args.n, seed=args.seed)
    run = longest_flip_sequence if args.which == "f" else shortest_flip_sequence
    stats = {}
    out = {"outcome": "done", "states": None, "best_bound": None, "value": None}
    start = time.perf_counter()
    try:
        out["value"] = run(inst, SearchLimits(time_budget=args.budget), stats)[0]
        out["states"] = stats["states_expanded"]
    except SearchLimitsExceeded as exc:
        out.update(outcome="limit", states=exc.states_expanded,
                   best_bound=exc.best_bound)
    except MemoryError:
        out.update(outcome="MemoryError", states=stats.get("states_expanded"))
    seconds = time.perf_counter() - start
    print(json.dumps({
        "n": args.n, "seed": args.seed, "which": args.which,
        "budget": args.budget, "cap_mb": args.cap_mb, **out,
        "seconds": seconds,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 1 if out["outcome"] == "MemoryError" else 0


if __name__ == "__main__":
    sys.exit(main())
