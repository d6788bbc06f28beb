"""Acceptance gate: one test per criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. The fuzz-based criteria share one deterministic corpus: random
instances with n in [2, 10], sheared to distinct x, several random start
matchings each, flipped at uniformly random crossings with uniformly random
choices until non-crossing.
"""

import math
import random
import time

import pytest

from crossflip import (
    FlipChoice,
    Instance,
    Matching,
    SearchLimits,
    SearchLimitsExceeded,
    Strategy,
    apply_flip,
    crossings_after_flip,
    decrement_audit,
    find_crossings,
    flip,
    gen_convex,
    gen_random,
    gen_two_line,
    is_noncrossing,
    phi_lines,
    phi_lines_bound,
    replay,
    reverse_perm,
    run_strategy,
    segments_properly_cross,
    shear_to_distinct_x,
    trace_from_moves,
)
from crossflip.scenarios import (
    REAPPEARING_SEGMENT,
    crossing_surge_instance,
    crossing_surge_move,
    reappearing_segment_instance,
    reappearing_segment_trace,
)
from crossflip.search import (
    enumerate_all_matchings,
    extremal_estimates,
    longest_flip_sequence,
    shortest_flip_sequence,
)

from oracles import naive_f, naive_h

FUZZ_TARGET = 100_000
CORPUS_SEED = 0xC0FFEE
RESTARTS_PER_INSTANCE = 3
SPOT_CHECK_EVERY = 512


def fuzz_corpus(target=FUZZ_TARGET):
    """Deterministic stream of fuzz events.

    Yields ("start", ps, matching) at every fresh start matching and
    ("flip", ps, m, crossing, choice, m2, record, crossings_after) per flip.
    Criteria 1 to 4 share one walk of it, the ``fuzz_stats`` fixture.
    """
    rng = random.Random(CORPUS_SEED)
    gen_seed = 0
    flips = 0
    while flips < target:
        n = rng.randint(2, 10)
        inst = gen_random(n, seed=gen_seed, bbox=(0, 512))
        gen_seed += 1
        ps = shear_to_distinct_x(inst.points)
        for _restart in range(RESTARTS_PER_INSTANCE):
            order = list(range(2 * n))
            rng.shuffle(order)
            m = Matching.from_pairs(
                [(order[2 * i], order[2 * i + 1]) for i in range(n)]
            )
            yield ("start", ps, m)
            crossings = find_crossings(ps, m)
            while crossings and flips < target:
                crossing = rng.choice(crossings)
                choice = rng.choice(
                    (FlipChoice.RECONNECT_A, FlipChoice.RECONNECT_B)
                )
                m2, rec = flip(ps, m, crossing, choice)
                crossings = crossings_after_flip(
                    ps, m2, crossings, crossing, rec.added
                )
                flips += 1
                yield ("flip", ps, m, crossing, choice, m2, rec, len(crossings))
                m = m2


@pytest.fixture(scope="module")
def fuzz_stats():
    """One pass over the shared corpus for criteria 1 to 4: each flip gets
    criterion 1's soundness checks and an audit for criteria 2, 3 and 4.

    decrement_audit raises PotentialInvariantError if any single perturbed
    line gains intersections, so finishing the pass is itself the per-line
    half of criterion 2. ``elapsed`` times the whole pass.
    """
    started = time.perf_counter()
    stats = {
        "flips": 0,
        "max_delta_l": -10**9,
        "max_delta_k": -10**9,
        "phi_l_bound_ok": True,
    }
    phi_l_now = None
    n = None
    for event in fuzz_corpus():
        if event[0] == "start":
            _, ps, m = event
            n = ps.n
            phi_l_now = phi_lines(ps, m)
            stats["phi_l_bound_ok"] &= phi_l_now <= phi_lines_bound(n)
            continue
        _, ps, m, crossing, choice, m2, rec, after_count = event
        endpoints = sorted(i for pair in m2.pairs for i in pair)
        assert endpoints == list(range(2 * m2.size))
        assert not segments_properly_cross(ps, rec.added[0], rec.added[1])
        assert rec.length_after < rec.length_before * (1 + 1e-9)
        audit = decrement_audit(
            ps, m, crossing, choice, phi_l_before=phi_l_now
        )
        assert audit.delta_phi_l <= -4, (
            f"flip {stats['flips']}: delta_phi_l = {audit.delta_phi_l}"
        )
        assert audit.delta_phi_k is not None
        stats["max_delta_l"] = max(stats["max_delta_l"], audit.delta_phi_l)
        stats["max_delta_k"] = max(stats["max_delta_k"], audit.delta_phi_k)
        phi_l_now = audit.phi_l_after
        stats["phi_l_bound_ok"] &= phi_l_now <= phi_lines_bound(n)
        stats["flips"] += 1
        if stats["flips"] % SPOT_CHECK_EVERY == 0:
            assert after_count == len(find_crossings(ps, m2))
            assert phi_l_now == phi_lines(ps, m2)
    stats["elapsed"] = time.perf_counter() - started
    return stats


def test_c01_flip_soundness_fuzz(fuzz_stats):
    """Criterion 1: 1e5 random flips keep perfect matchings, non-crossing
    reconnections, and strictly decreasing length, in under 60 s (the
    shared pass, audits included)."""
    flips, elapsed = fuzz_stats["flips"], fuzz_stats["elapsed"]
    print(f"criterion 1: {flips} flips sound in {elapsed:.1f}s")
    assert flips >= 100_000
    assert elapsed < 60.0


def test_c02_phi_lines_decrement(fuzz_stats):
    """Criterion 2: every fuzz flip drops the line potential by >= 4 and no
    single perturbed line gains intersections (exact integers)."""
    assert fuzz_stats["flips"] >= 100_000
    assert fuzz_stats["max_delta_l"] <= -4
    print(
        f"criterion 2: {fuzz_stats['flips']} audited flips, "
        f"max delta_phi_l = {fuzz_stats['max_delta_l']}"
    )


def test_c03_phi_lines_bound(fuzz_stats):
    """Criterion 3: phi_lines <= 4n^3 for every matching of 20 enumerated
    n<=4 point sets and at every fuzz state."""
    assert fuzz_stats["phi_l_bound_ok"]
    sets_checked = 0
    for seed in range(18):
        inst = gen_random(4, seed=1000 + seed, bbox=(0, 400))
        count = 0
        for m in enumerate_all_matchings(inst.points, cap=4):
            assert phi_lines(inst.points, m) <= phi_lines_bound(4)
            count += 1
        assert count == 105
        sets_checked += 1
    for ps in (gen_convex(4).points, gen_two_line(reverse_perm(4)).points):
        for m in enumerate_all_matchings(ps, cap=4):
            assert phi_lines(ps, m) <= phi_lines_bound(4)
        sets_checked += 1
    print(f"criterion 3: bound holds on {sets_checked} exhaustive point sets + fuzz")


def test_c04_phi_vertical_decrement(fuzz_stats):
    """Criterion 4: arbitrary flips never raise the vertical potential, and
    every x-greedy step (chosen or adversary-imposed) drops it by >= 2."""
    assert fuzz_stats["max_delta_k"] <= 0
    greedy_steps = 0
    rng = random.Random(4242)
    for run in range(120):
        raw = gen_random(rng.randint(2, 10), seed=5000 + run, bbox=(0, 512))
        inst = Instance(
            shear_to_distinct_x(raw.points), raw.matching, raw.provenance
        )
        if run % 4 == 0:
            strategy = Strategy("greedy-x")
        else:
            kinds = ("random", "first", "max-damage")
            strategy = Strategy(
                "adversary", seed=run, adversary=kinds[run % 3]
            )
        trace = run_strategy(inst, strategy)
        assert trace.complete
        for rec in trace.records:
            assert rec.phi_k_after - rec.phi_k_before <= -2
            greedy_steps += 1
    print(
        f"criterion 4: max arbitrary delta_phi_k = "
        f"{fuzz_stats['max_delta_k']}, {greedy_steps} greedy/adversary "
        f"steps all <= -2"
    )


def test_c05_bubble_sort_lower_bound():
    """Criterion 5: bubble runs on the reversed permutation finish in exactly
    C(n, 2) flips for n = 2..8, in under 5 s."""
    started = time.perf_counter()
    for n in range(2, 9):
        inst = gen_two_line(reverse_perm(n))
        trace = run_strategy(inst, Strategy("bubble"))
        want = n * (n - 1) // 2
        assert trace.complete and len(trace) == want, (n, len(trace))
        assert is_noncrossing(inst.points, trace.final)
    elapsed = time.perf_counter() - started
    print(f"criterion 5: bubble = C(n,2) for n=2..8 in {elapsed:.2f}s")
    assert elapsed < 5.0


def test_c06_convex_shortest_runs():
    """Criterion 6: the convex family needs exactly n - 1 flips at best,
    exact by BFS for n = 2..5 and for n = 6 within the state cap."""
    started = time.perf_counter()
    for n in range(2, 6):
        h, _ = shortest_flip_sequence(gen_convex(n))
        assert h == n - 1, (n, h)
    limit_hit = False
    try:
        h6, _ = shortest_flip_sequence(
            gen_convex(6), SearchLimits(max_states=10_000_000, time_budget=110)
        )
        assert h6 == 5
    except SearchLimitsExceeded as exc:
        limit_hit = True
        print(f"criterion 6: n=6 limit-hit after {exc.states_expanded} states")
    elapsed = time.perf_counter() - started
    print(f"criterion 6: h = n-1 verified in {elapsed:.1f}s (limit_hit={limit_hit})")
    assert elapsed < 120.0


def test_c07_extremal_bounds_tiny_scale():
    """Criterion 7: over >= 10 point sets with n = 4, the maxima over all 105
    matchings satisfy g_hat <= n^3 and k_hat <= ceil(n^2/2), and the shortest
    run never beats the longest."""
    started = time.perf_counter()
    point_sets = [
        gen_random(4, seed=2000 + k, bbox=(0, 450)).points for k in range(10)
    ]
    point_sets.append(gen_convex(4).points)
    point_sets.append(gen_two_line(reverse_perm(4)).points)
    for ps in point_sets:
        est = extremal_estimates(ps, cap=4, collect_per_matching=True)
        assert est.matchings_enumerated == 105
        assert est.g_hat <= 4**3
        assert est.k_hat <= math.ceil(4 * 4 / 2)
        for f_val, h_val in est.per_matching.values():
            assert h_val <= f_val
    elapsed = time.perf_counter() - started
    print(
        f"criterion 7: {len(point_sets)} point sets x 105 matchings in "
        f"{elapsed:.1f}s"
    )
    assert elapsed < 600.0


def test_c08_reappearing_segment_script():
    """Criterion 8: the scripted three-flip run removes segment (2,3) at step
    1 and restores it at step 3, ending non-crossing."""
    inst = reappearing_segment_instance()
    trace = reappearing_segment_trace()
    assert len(trace) == 3 and trace.complete
    m = inst.matching
    presence = [REAPPEARING_SEGMENT in m.pairs]
    for rec in trace.records:
        m = apply_flip(inst.points, m, rec.crossing, rec.choice)
        presence.append(REAPPEARING_SEGMENT in m.pairs)
    assert presence == [True, False, False, True]
    assert is_noncrossing(inst.points, m)
    assert replay(inst.points, inst.matching, trace.records) == trace.final
    print("criterion 8: segment (2,3) leaves at step 1 and returns at step 3")


def test_c09_crossing_surge_pinned():
    """Criterion 9: the pinned instance has one crossing whose flip yields
    three crossings."""
    inst = crossing_surge_instance()
    crossing, choice = crossing_surge_move()
    assert len(find_crossings(inst.points, inst.matching)) == 1
    trace = trace_from_moves(inst.provenance, inst.points, inst.matching,
                             [(crossing, choice)])
    rec, = trace.records
    assert rec.crossings_after == 3
    print("criterion 9: pinned flip raises crossings 1 -> 3")


def test_c10_dag_and_termination():
    """Criterion 10: no DFS over any enumerated n<=4 flip graph detects a
    cycle, and 1000 unrestricted random runs on n<=6 instances terminate
    within the potential-derived cap."""
    # whole-graph DFS with on-stack revisit detection, per point set
    for seed in range(14):
        ps = gen_random(3 + seed % 2, seed=3000 + seed, bbox=(0, 400)).points
        extremal_estimates(ps, cap=4)
    for ps in (
        gen_convex(3).points,
        gen_convex(4).points,
        gen_two_line(reverse_perm(3)).points,
        gen_two_line(reverse_perm(4)).points,
        reappearing_segment_instance().points,
        gen_random(2, seed=77, bbox=(0, 100)).points,
    ):
        extremal_estimates(ps, cap=4)

    rng = random.Random(1010)
    runs = 0
    for k in range(1000):
        inst = gen_random(rng.randint(2, 6), seed=7000 + k, bbox=(0, 500))
        cap = phi_lines(inst.points, inst.matching) // 4
        trace = run_strategy(
            inst, Strategy("random", seed=k), max_steps=cap + 1
        )
        assert trace.complete, f"run {k} exceeded the potential cap {cap}"
        runs += 1
    print(f"criterion 10: 20 flip graphs acyclic, {runs} random runs terminated")


def test_c11_oracle_equivalence():
    """Criterion 11: memoized longest and BFS shortest agree with a bare
    unmemoized recursion on every matching of 5 point sets for n = 2 and 3."""
    checked = 0
    for n in (2, 3):
        for seed in range(5):
            ps = gen_random(n, seed=4000 + seed, bbox=(0, 300)).points
            for m in enumerate_all_matchings(ps, cap=3):
                inst = Instance(ps, m, f"oracle(n={n}, seed={seed})")
                assert longest_flip_sequence(inst)[0] == naive_f(ps, m)
                assert shortest_flip_sequence(inst)[0] == naive_h(ps, m)
                checked += 1
    print(f"criterion 11: oracle agreement on {checked} matchings")
