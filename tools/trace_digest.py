"""One SHA-256 over the outputs of the strategy, search and scenario paths.

    python tools/trace_digest.py [--small]

runs a fixed set of strategy runs, exact searches and scripted traces and
prints the SHA-256 of the repr and the trace CSV of each, in a fixed order:

- on sheared ``gen_random`` sets with n in {10, 40, 100} over fixed seeds:
  greedy-x, the three adversaries, and ``first`` and ``random`` with each
  fixed-choice regime (none, A, B), plus two runs stopped by a step cap,
  and at n = 40 greedy-x and max-damage runs tracking the line potential;
- bubble on the reversed two-line instances rev2 .. rev8;
- exact f and h witnesses and runs tracking the line potential on small
  sets, one ``extremal_estimates`` result and the scripted scenario trace.

Two versions of the package print the same digest exactly when all these
outputs are equal, so a refactor that claims to keep every output shows it
with one line. ``--small`` keeps the n = 10 sets and rev2 .. rev5, for a
check of a second or two. Needs the ``crossflip`` package importable, e.g.
with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from crossflip import (
    FlipChoice,
    Instance,
    extremal_estimates,
    gen_random,
    gen_two_line,
    longest_flip_sequence,
    parse_strategy,
    reverse_perm,
    run_strategy,
    shear_to_distinct_x,
    shortest_flip_sequence,
)
from crossflip.io import write_trace
from crossflip.scenarios import reappearing_segment_instance, reappearing_segment_trace

STRATEGIES = [(text, None) for text in (
    "greedy-x", "adversary:random:3", "adversary:first", "adversary:max-damage")]
STRATEGIES += [(text, choice) for text in ("first", "random:7")
               for choice in (None, *FlipChoice)]
SEEDS = range(1, 6)


def _sheared(n: int, seed: int) -> Instance:
    raw = gen_random(n, seed=seed, bbox=(0, 512))
    return Instance(shear_to_distinct_x(raw.points), raw.matching,
                    raw.provenance + "+shear")


def outputs(small: bool):
    """(label, instance, trace or None, value) for every output, in order."""
    for n in (10,) if small else (10, 40, 100):
        for seed in SEEDS:
            inst = _sheared(n, seed)
            for text, choice in STRATEGIES:
                trace = run_strategy(inst, parse_strategy(text),
                                     restrict_choice=choice)
                yield f"{inst.provenance} {text} {choice}", inst, trace, None
            for text in ("greedy-x", "adversary:max-damage"):
                trace = run_strategy(inst, parse_strategy(text), max_steps=3)
                yield f"{inst.provenance} {text} max_steps=3", inst, trace, None
                if n == 40:
                    trace = run_strategy(inst, parse_strategy(text),
                                         with_phi_lines=True)
                    yield f"{inst.provenance} {text} phi_lines", inst, trace, None
    for n in range(2, 6 if small else 9):
        inst = gen_two_line(reverse_perm(n))
        yield inst.provenance, inst, run_strategy(inst, parse_strategy("bubble")), None
    for n, seed in ((3, 1), (4, 2), (4, 5)):
        inst = _sheared(n, seed)
        for solve in (longest_flip_sequence, shortest_flip_sequence):
            value, trace = solve(inst)
            yield f"{inst.provenance} {solve.__name__}", inst, trace, value
        for text in ("greedy-x", "random:5"):
            trace = run_strategy(inst, parse_strategy(text), with_phi_lines=True)
            yield f"{inst.provenance} {text} phi_lines", inst, trace, None
    inst = gen_random(4, seed=3)
    est = extremal_estimates(inst.points, instance_id=inst.provenance)
    yield "extremal_estimates", None, None, est
    for trace in (est.g_witness, est.k_witness):
        yield "extremal witness", Instance(inst.points, trace.initial,
                                           inst.provenance), trace, None
    yield ("reappearing segment", reappearing_segment_instance(),
           reappearing_segment_trace(), None)


def digest(small: bool) -> str:
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "trace.csv"
        for label, inst, trace, value in outputs(small):
            sha.update(f"{label}\n{value!r}\n{trace!r}\n".encode())
            if trace is not None:
                write_trace(inst, trace, csv_path)
                sha.update(csv_path.read_bytes())
    return sha.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--small", action="store_true",
                    help="n = 10 sets and rev2 .. rev5 only")
    print(digest(ap.parse_args(argv).small))
    return 0


if __name__ == "__main__":
    sys.exit(main())
