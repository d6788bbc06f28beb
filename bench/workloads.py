"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a ``Workload`` of three functions:

- ``setup(cf, seeds, size, out_dir)`` builds the fixed inputs; its cost is
  part of ``setup_s``. ``seeds`` is a ``Seeds`` stream drawn from the
  workload seed, and ``size`` is "full" or "smoke".
- ``run(cf, inputs)`` is one timed pass. It returns a dict with ``ops``
  (operations done), ``failures`` (one message per operation whose result
  is wrong) and, under their metric names, the per-layer counters that the
  pass's own outputs give.
- ``check(cf, inputs, out, thorough)`` re-checks a pass's outputs after
  timing stops and returns failure messages. ``thorough`` adds the costly
  cold cross-checks; the runner asks for them on the first pass only.

``cf`` is the imported ``crossflip`` package. Every library call looks its
name up through it at call time, so the traced run's wrappers see the call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


class Seeds:
    """Deterministic input stream for one workload seed.

    Generator seeds are even in the "timed" stream and odd in the "warmup"
    stream, so a warm-up never builds a point set that is later timed and
    never fills a per-point-set cache for one.
    """

    def __init__(self, workload: str, seed: int, stream: str):
        self.rng = random.Random(f"{workload}/{seed}/{stream}")
        self.parity = 1 if stream == "warmup" else 0

    def gen_seed(self) -> int:
        return 2 * self.rng.getrandbits(31) + self.parity


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable


def _trace_failures(cf, ps, start, value, trace, what: str) -> list[str]:
    """A witness trace must start at ``start``, have ``value`` flips, end
    without crossings and replay to its own final matching."""
    bad = []
    if len(trace) != value:
        bad.append(f"{what}: witness has {len(trace)} flips, value is {value}")
    if not trace.complete:
        bad.append(f"{what}: witness ends with crossings")
    if trace.initial != start:
        bad.append(f"{what}: witness starts elsewhere")
    if cf.replay(ps, trace.initial, trace.records) != trace.final:
        bad.append(f"{what}: witness does not replay to its final matching")
    return bad


# --- exact-search -----------------------------------------------------------
# Cold single-instance DFS (f) and BFS (h) on the two worst-case families,
# then the enumeration path (shared longest-run memo plus one BFS per
# matching) over seeded random point sets. The random sets have n = 5: one
# n = 6 set costs 5 to 13 s depending on its seed, so a pass over one or two
# of them cannot be steady from seed to seed, while twelve n = 5 sets
# average the per-set spread out in about the same pass time.

EXACT_SIZES = {
    "full": {"n_family": 6, "n_random": 5, "sets": 12, "samples": 2},
    "smoke": {"n_family": 4, "n_random": 4, "sets": 2, "samples": 2},
}


def exact_setup(cf, seeds, size, out_dir):
    p = EXACT_SIZES[size]
    n = p["n_family"]
    return {
        "families": (
            ("rev", cf.gen_two_line(cf.reverse_perm(n))),
            ("convex", cf.gen_convex(n)),
        ),
        "sets": [
            cf.gen_random(p["n_random"], seed=seeds.gen_seed()).points
            for _ in range(p["sets"])
        ],
        "samples": p["samples"],
        "sample_seed": seeds.rng.getrandbits(64),
    }


def exact_run(cf, inp):
    states = 0
    singles = []
    for name, inst in inp["families"]:
        st_f, st_h = {}, {}
        f, f_trace = cf.longest_flip_sequence(inst, stats_out=st_f)
        h, h_trace = cf.shortest_flip_sequence(inst, stats_out=st_h)
        states += st_f["states_expanded"] + st_h["states_expanded"]
        singles.append((name, inst, f, f_trace, h, h_trace))
    estimates = []
    for ps in inp["sets"]:
        est = cf.extremal_estimates(ps, collect_per_matching=True)
        states += est.states_expanded
        estimates.append(est)
    return {
        "ops": len(singles) + sum(e.matchings_enumerated for e in estimates),
        "failures": [],
        "singles": singles,
        "estimates": estimates,
        "search.states_expanded": states,
    }


def exact_check(cf, inp, out, thorough):
    bad = []
    for name, inst, f, f_trace, h, h_trace in out["singles"]:
        n = inst.n
        if name == "rev" and f != n * (n - 1) // 2:
            bad.append(f"f(rev{n}) = {f}, expected C({n},2)")
        if name == "convex" and h != n - 1:
            bad.append(f"h(convex{n}) = {h}, expected {n - 1}")
        if h > f:
            bad.append(f"{name}{n}: h = {h} > f = {f}")
        ps, start = inst.points, inst.matching
        bad += _trace_failures(cf, ps, start, f, f_trace, f"f({name}{n})")
        bad += _trace_failures(cf, ps, start, h, h_trace, f"h({name}{n})")

    rng = random.Random(inp["sample_seed"])
    for k, (ps, est) in enumerate(zip(inp["sets"], out["estimates"])):
        n = ps.n
        what = f"set {k}"
        per = est.per_matching
        if est.matchings_enumerated != math.prod(range(2 * n - 1, 0, -2)):
            bad.append(f"{what}: {est.matchings_enumerated} matchings enumerated")
        if len(per) != est.matchings_enumerated:
            bad.append(f"{what}: {len(per)} per-matching results")
        if max(fh[0] for fh in per.values()) != est.g_hat:
            bad.append(f"{what}: g_hat is not the largest f")
        if max(fh[1] for fh in per.values()) != est.k_hat:
            bad.append(f"{what}: k_hat is not the largest h")
        if any(h > f for f, h in per.values()):
            bad.append(f"{what}: some matching has h > f")
        if est.g_hat > cf.phi_lines_bound(n) // 4:
            bad.append(f"{what}: g_hat {est.g_hat} above the cubic cap")
        bad += _trace_failures(cf, ps, est.g_argmax, est.g_hat, est.g_witness,
                               f"{what} g_hat")
        bad += _trace_failures(cf, ps, est.k_argmax, est.k_hat, est.k_witness,
                               f"{what} k_hat")
        if thorough:
            for pairs in rng.sample(sorted(per), inp["samples"]):
                inst = cf.Instance(ps, cf.Matching(pairs), "sample")
                cold, _ = cf.longest_flip_sequence(inst)
                if cold != per[pairs][0]:
                    bad.append(f"{what}: enumerated f {per[pairs][0]} != "
                               f"cold f {cold} for {pairs}")
    return bad


# --- audit-fuzz -------------------------------------------------------------
# The acceptance corpus recipe: n uniform in [2, 10], random points in
# [0, 512]^2 sheared to distinct x, three random start matchings per point
# set, random crossing and random choice until non-crossing. Every flip is
# audited with phi_L tracked incrementally; phi_lines recounts it at every
# start and at every 512th flip. The pass stops after a fixed flip count, so
# every seed does the same number of operations.

AUDIT_SIZES = {"full": 6000, "smoke": 300}
RESTARTS = 3
SPOT_CHECK_EVERY = 512


def audit_setup(cf, seeds, size, out_dir):
    return {
        "flips": AUDIT_SIZES[size],
        "corpus_seed": seeds.rng.getrandbits(64),
        "gen_seed": seeds.gen_seed(),
    }


def audit_run(cf, inp):
    rng = random.Random(inp["corpus_seed"])
    choices = (cf.FlipChoice.RECONNECT_A, cf.FlipChoice.RECONNECT_B)
    target = inp["flips"]
    gen_seed = inp["gen_seed"]
    failures = []
    latency = []
    flips = 0
    while flips < target:
        n = rng.randint(2, 10)
        inst = cf.gen_random(n, seed=gen_seed, bbox=(0, 512))
        gen_seed += 2
        ps = cf.shear_to_distinct_x(inst.points)
        bound = cf.phi_lines_bound(n)
        for _restart in range(RESTARTS):
            order = list(range(2 * n))
            rng.shuffle(order)
            m = cf.Matching.from_pairs(
                [(order[2 * i], order[2 * i + 1]) for i in range(n)]
            )
            phi_l = cf.phi_lines(ps, m)
            if phi_l > bound:
                failures.append(f"phi_L {phi_l} > 4n^3 at a start")
            crossings = cf.find_crossings(ps, m)
            while crossings and flips < target:
                crossing = rng.choice(crossings)
                choice = rng.choice(choices)
                t0 = perf_counter()
                m2, rec = cf.flip(ps, m, crossing, choice)
                crossings = cf.crossings_after_flip(
                    ps, m2, crossings, crossing, rec.added
                )
                audit = cf.decrement_audit(ps, m, crossing, choice,
                                           phi_l_before=phi_l)
                latency.append(perf_counter() - t0)
                flips += 1
                phi_l = audit.phi_l_after
                if (
                    audit.delta_phi_l > -4
                    or audit.delta_phi_k is None
                    or audit.delta_phi_k > 0
                    or audit.added != rec.added
                    or phi_l > bound
                ):
                    failures.append(f"flip {flips}: audit {audit.to_json_dict()}")
                if flips % SPOT_CHECK_EVERY == 0:
                    recount = cf.phi_lines(ps, m2)
                    if recount != phi_l:
                        failures.append(
                            f"flip {flips}: tracked phi_L {phi_l} != recount {recount}"
                        )
                m = m2
    return {"ops": flips, "failures": failures, "latency": latency}


def audit_check(cf, inp, out, thorough):
    if out["ops"] != inp["flips"]:
        return [f"{out['ops']} flips audited, expected {inp['flips']}"]
    return []


# --- greedy-large -----------------------------------------------------------
# Generation and validation at n = 100 are O(n^3); each strategy step
# recounts phi_K in O(n^2). The default bbox makes repeated x-coordinates
# certain, so the shear and the re-validation of the sheared Instance are on
# the path. Both traces go through a CSV round trip and replay. Run lengths
# differ from seed to seed, so a pass takes three instances to average that
# spread down.

GREEDY_SIZES = {"full": {"n": 100, "instances": 3}, "smoke": {"n": 20, "instances": 1}}
GREEDY_STRATEGIES = ("greedy-x", "adversary:max-damage")


def greedy_setup(cf, seeds, size, out_dir):
    p = GREEDY_SIZES[size]
    return {"n": p["n"], "gen_seeds": [seeds.gen_seed() for _ in range(p["instances"])],
            "out_dir": Path(out_dir)}


def greedy_run(cf, inp):
    runs = []
    trace_bytes = 0
    inp["out_dir"].mkdir(parents=True, exist_ok=True)
    for gen_seed in inp["gen_seeds"]:
        raw = cf.gen_random(inp["n"], seed=gen_seed)
        ps = cf.shear_to_distinct_x(raw.points)
        inst = cf.Instance(ps, raw.matching, raw.provenance)
        for spec in GREEDY_STRATEGIES:
            trace = cf.run_strategy(inst, cf.parse_strategy(spec))
            path = inp["out_dir"] / f"greedy-large.{spec.replace(':', '.')}.csv"
            cf.io.write_trace(inst, trace, path)
            rows = cf.io.read_trace(path)
            replayed = cf.replay(ps, inst.matching, cf.io.records_from_rows(rows))
            trace_bytes += path.stat().st_size
            runs.append((inst, spec, trace, len(rows), replayed))
    steps = sum(len(trace) for _inst, _spec, trace, _rows, _final in runs)
    return {"ops": steps, "failures": [], "runs": runs,
            "search.steps": steps, "io.trace_bytes": trace_bytes}


def greedy_check(cf, inp, out, thorough):
    bad = []
    for inst, spec, trace, rows, replayed in out["runs"]:
        ps = inst.points
        phi_k_start = cf.phi_vertical(ps, inst.matching)
        if not trace.complete or not cf.is_noncrossing(ps, trace.final):
            bad.append(f"{spec}: final matching has crossings")
        if len(trace) > phi_k_start // 2:
            bad.append(f"{spec}: {len(trace)} steps > phi_K(start)/2 = "
                       f"{phi_k_start // 2}")
        if trace.records and trace.records[0].phi_k_before != phi_k_start:
            bad.append(f"{spec}: first phi_K differs from a recount")
        for i, rec in enumerate(trace.records):
            if rec.phi_k_after > rec.phi_k_before - 2:
                bad.append(f"{spec} step {i}: phi_K {rec.phi_k_before} -> "
                           f"{rec.phi_k_after}, a drop below 2")
        if rows != len(trace) + 1:
            bad.append(f"{spec}: CSV has {rows} rows for {len(trace)} steps")
        if replayed != trace.final:
            bad.append(f"{spec}: CSV round trip does not replay to trace.final")
    return bad


WORKLOADS = {
    "exact-search": Workload(exact_setup, exact_run, exact_check),
    "audit-fuzz": Workload(audit_setup, audit_run, audit_check),
    "greedy-large": Workload(greedy_setup, greedy_run, greedy_check),
}
