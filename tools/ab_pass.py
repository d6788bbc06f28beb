"""In-process A/B timing of two crossflip source trees on one benchmark
workload.

    python tools/ab_pass.py PARENT_SRC CHANGE_SRC WORKLOAD [--pairs N]
                            [--seed S] [--smoke]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``crossflip`` package. Both are loaded into this one process, under the
package names ``ab_parent`` and ``ab_change``, so the two sides share the
interpreter, the machine's load and its clock speed. WORKLOAD is a
workload of ``bench/workloads.py``; its set-up and its timed pass are used
as they are, with the inputs of seed S (default 0) from the "timed" stream.

Each pair times one pass of each side, parent first in even pairs and
change first in odd ones. Every pass runs on a fresh load of its tree, so
it fills the per-point-set caches as a new process does, and its outputs
are checked after timing stops. The output is one JSON line:
``parent_median_s`` and ``change_median_s`` (median pass times),
``median_ratio`` (the median over pairs of change / parent),
``ratio_ci95`` (a bootstrap 95% interval of that median: the 2.5th and
97.5th percentiles of the medians of 2000 resamples of the pairs' ratios,
drawn with replacement from a generator seeded with 0), ``faster`` (the
pairs in which the change was faster), ``parent_iqr_s`` (the interquartile
range of the parent's passes) and ``failures`` (wrong outputs on either
side). The exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS, Seeds  # noqa: E402


def load_tree(src: Path, name: str):
    """The ``crossflip`` package under ``src``, freshly loaded as package
    ``name``: earlier loads under that name are dropped first."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    gc.collect()
    package = src / "crossflip"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".io")
    return module


def timed_pass(src: Path, name: str, workload_name: str, seed: int, size: str,
               out_dir: str) -> tuple[float, list[str]]:
    """One pass of the workload on a fresh load of the tree: its time and
    the failures of its outputs."""
    workload = WORKLOADS[workload_name]
    cf = load_tree(src, name)
    inputs = workload.setup(cf, Seeds(workload_name, seed, "timed"), size,
                            Path(out_dir) / name)
    t0 = perf_counter()
    out = workload.run(cf, inputs)
    elapsed = perf_counter() - t0
    return elapsed, out["failures"] + workload.check(cf, inputs, out, False)


def bootstrap_ci95(ratios: list[float]) -> list[float]:
    """A seeded bootstrap 95% interval of the median of ``ratios``: the
    2.5th and 97.5th percentiles of the medians of 2000 resamples of them,
    each drawn with replacement from a generator seeded with 0."""
    rng = random.Random(0)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios)))
               for _ in range(2000)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return [cuts[0], cuts[-1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, metavar="PARENT_SRC")
    ap.add_argument("change", type=Path, metavar="CHANGE_SRC")
    ap.add_argument("workload", choices=sorted(WORKLOADS), metavar="WORKLOAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="the workload's smoke-size inputs")
    args = ap.parse_args(argv)
    size = "smoke" if args.smoke else "full"
    sides = (("ab_parent", args.parent), ("ab_change", args.change))
    times = {name: [] for name, _ in sides}
    failures = []
    with tempfile.TemporaryDirectory() as out_dir:
        for k in range(args.pairs):
            for name, src in sides if k % 2 == 0 else sides[::-1]:
                elapsed, bad = timed_pass(src, name, args.workload, args.seed,
                                          size, out_dir)
                times[name].append(elapsed)
                failures += [f"{name}: {msg}" for msg in bad]
    parent, change = times["ab_parent"], times["ab_change"]
    ratios = [c / p for p, c in zip(parent, change)]
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [0, 0, 0]
    print(json.dumps({
        "workload": args.workload,
        "pairs": args.pairs,
        "parent_median_s": statistics.median(parent),
        "change_median_s": statistics.median(change),
        "median_ratio": statistics.median(ratios),
        "ratio_ci95": bootstrap_ci95(ratios),
        "faster": sum(r < 1 for r in ratios),
        "parent_iqr_s": quartiles[2] - quartiles[0],
        "failures": failures[:20],
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
