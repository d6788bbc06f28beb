import dataclasses
import gc
import itertools
import math
import random
import re
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflip import (
    FlipChoice,
    FlipError,
    Instance,
    Matching,
    PointSet,
    SearchLimits,
    SearchLimitsExceeded,
    Strategy,
    StrategyNotApplicableError,
    find_crossings,
    flip,
    gen_convex,
    gen_random,
    gen_two_line,
    inversion_count,
    is_noncrossing,
    parse_strategy,
    phi_lines,
    phi_vertical,
    replay,
    reverse_perm,
    run_strategy,
    seg,
    shear_to_distinct_x,
    trace_from_moves,
    two_line_permutation,
)
from crossflip import geometry, potentials, search
from crossflip.geometry import COORD_LIMIT
from crossflip.matching import replay_states
from crossflip.scenarios import (
    crossing_surge_instance,
    crossing_surge_move,
    reappearing_segment_instance,
    reappearing_segment_trace,
)
from crossflip.search import (
    EnumerationCapExceeded,
    FlipGraphCycleError,
    enumerate_all_matchings,
    extremal_estimates,
    greedy_choice,
    longest_flip_sequence,
    shortest_flip_sequence,
    successors,
)

from oracles import (
    naive_f,
    naive_h,
    reference_choice_yielding,
    reference_crossing_row,
    reference_longest,
    reference_matchings,
    reference_shortest,
    reference_side_mask_rows,
    reference_stack_matchings,
    reference_successors,
)

SQUARE_INST = Instance(
    PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)]),
    Matching.from_pairs([(0, 2), (1, 3)]),
    "square-diagonals",
)


def test_successor_count_is_twice_crossings():
    for seed in range(10):
        inst = gen_random(4, seed=seed, bbox=(0, 200))
        succ = successors(inst.points, inst.matching)
        assert len(succ) == 2 * len(find_crossings(inst.points, inst.matching))


def test_noncrossing_start_gives_zero_and_empty_witness():
    inst = gen_two_line((0, 1, 2))
    f, tf = longest_flip_sequence(inst)
    h, th = shortest_flip_sequence(inst)
    assert (f, h) == (0, 0)
    assert len(tf) == len(th) == 0


def test_square_f_and_h_are_one():
    assert longest_flip_sequence(SQUARE_INST)[0] == 1
    assert shortest_flip_sequence(SQUARE_INST)[0] == 1


def test_two_line_reverse_f_at_least_binomial():
    inst = gen_two_line(reverse_perm(3))
    f, trace = longest_flip_sequence(inst)
    assert f >= 3
    assert f == naive_f(inst.points, inst.matching)
    assert replay(inst.points, trace.initial, trace.records) == trace.final
    assert is_noncrossing(inst.points, trace.final)
    assert len(trace) == f


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_convex_shortest_run_is_n_minus_one(n):
    h, trace = shortest_flip_sequence(gen_convex(n))
    assert h == n - 1
    assert trace.complete


def test_convex_every_first_flip_splits_cleanly():
    # after any first flip the two halves untangle independently, so the
    # remaining shortest run is n - 2 regardless of the flip taken
    inst = gen_convex(5)
    for _crossing, _choice, child in successors(inst.points, inst.matching):
        child_inst = Instance(inst.points, child, "convex-child")
        assert shortest_flip_sequence(child_inst)[0] == 5 - 2


def test_memoized_values_match_naive_oracle():
    for seed in (0, 1, 2):
        inst = gen_random(3, seed=seed, bbox=(0, 150))
        for m in enumerate_all_matchings(inst.points, cap=3):
            start = Instance(inst.points, m, "oracle")
            assert longest_flip_sequence(start)[0] == naive_f(inst.points, m)
            assert shortest_flip_sequence(start)[0] == naive_h(inst.points, m)


def test_sandwich_and_potential_cap():
    for seed in range(6):
        inst = gen_random(3, seed=100 + seed, bbox=(0, 200))
        f, _ = longest_flip_sequence(inst)
        h, _ = shortest_flip_sequence(inst)
        assert h <= f
        assert (h == 0) == (f == 0) == is_noncrossing(inst.points, inst.matching)
        assert f <= phi_lines(inst.points, inst.matching) // 4


def test_enumeration_counts_and_order():
    """Counts, sorted order, the recursive reference's order and the kernel
    keys of the int walk."""
    for n, expected in ((1, 1), (2, 3), (3, 15), (4, 105), (5, 945)):
        inst = gen_random(n, seed=5, bbox=(0, 300))
        seen = [m.pairs for m in enumerate_all_matchings(inst.points, cap=5)]
        assert len(seen) == expected
        assert seen == sorted(seen)
        assert len(set(seen)) == expected
        assert seen == list(reference_matchings(2 * n))
        graph = search._FlipGraph(inst.points)
        assert [(graph.encode(Matching(p)), p) for p in seen] == list(
            search._matchings(inst.points, cap=5))


def test_matchings_walk_equals_the_stack_walk():
    """The walk that emits its last two levels directly gives the keys, the
    pairs and the order of the stack walk with one entry per leaf that it
    replaced, and the public enumeration those of the recursive reference,
    for n = 1 to 6 (10,395 matchings at n = 6)."""
    for n in range(1, 7):
        ps = gen_random(n, seed=5, bbox=(0, 300)).points
        assert list(search._matchings(ps, cap=6)) == list(
            reference_stack_matchings(2 * n))
        assert [m.pairs for m in enumerate_all_matchings(ps, cap=6)] == list(
            reference_matchings(2 * n))


def test_enumeration_cap():
    inst = gen_random(6, seed=0, bbox=(0, 300))
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_all_matchings(inst.points, cap=5))


def test_extremal_estimates_n2():
    inst = gen_random(2, seed=3, bbox=(0, 100))
    est = extremal_estimates(inst.points, cap=2)
    assert est.matchings_enumerated == 3
    assert est.g_hat <= 2 and est.k_hat <= 1
    assert replay(inst.points, est.g_witness.initial, est.g_witness.records) \
        == est.g_witness.final


def test_search_limits_exceeded_reports_progress():
    inst = gen_random(5, seed=9, bbox=(0, 400))
    assert not is_noncrossing(inst.points, inst.matching)
    with pytest.raises(SearchLimitsExceeded) as info:
        longest_flip_sequence(inst, SearchLimits(max_states=3))
    assert info.value.states_expanded >= 3
    assert info.value.best_bound is not None
    with pytest.raises(SearchLimitsExceeded):
        shortest_flip_sequence(inst, SearchLimits(max_states=2))


@pytest.mark.parametrize("field", ["max_states", "max_depth", "time_budget"])
@pytest.mark.parametrize("value", [0, -1, float("nan")])
def test_search_limits_refuse_values_that_are_not_positive(field, value):
    # a NaN time budget once passed the "<= 0" test and was never enforced
    with pytest.raises(ValueError, match="must be positive"):
        SearchLimits(**{field: value})


@pytest.mark.parametrize("field, value, what", [
    ("max_states", True, "an int"), ("max_states", 2.0, "an int"),
    ("max_states", math.inf, "an int"), ("max_depth", 2.5, "an int"),
    ("max_depth", False, "an int"), ("max_depth", "5", "an int"),
    ("time_budget", True, "a real number"), ("time_budget", "5", "a real number"),
    ("time_budget", None, "a real number"), ("time_budget", 1j, "a real number"),
])
def test_search_limits_refuse_values_of_the_wrong_type(field, value, what):
    """A cap is an int and a budget a real number, a bool being neither: a
    bool, float or string cap and a bool, string or complex budget are
    refused with a ValueError that names the field, not coerced or left to
    a TypeError at the first comparison."""
    with pytest.raises(ValueError, match=f"^{field} must be positive and {what}, got "):
        SearchLimits(**{field: value})


def test_search_limits_keep_int_and_infinite_budgets():
    # the CLI's --time-budget is a float, so inf stays a budget
    assert SearchLimits(time_budget=math.inf).time_budget == math.inf
    assert SearchLimits(max_states=3, max_depth=2, time_budget=5).time_budget == 5
    with pytest.raises(
            ValueError, match="^max_depth must be positive and an int, got 0$"):
        SearchLimits(max_depth=0)


class FakeClock:
    """Stands in for the ``time`` module of ``crossflip.search``: every read
    of the clock advances it by one second."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def test_extremal_deadline_is_one_per_call(monkeypatch):
    # 105 start matchings: with a fresh deadline per start no start reads
    # the clock 150 times, but the one deadline of the call runs out
    ps = gen_random(4, seed=34, bbox=(0, 400)).points
    monkeypatch.setattr(search, "time", FakeClock())
    with pytest.raises(SearchLimitsExceeded, match="time budget"):
        extremal_estimates(ps, SearchLimits(time_budget=150), cap=4)


def test_deadline_checked_between_pushes(monkeypatch):
    # rev5 reaches 945 states: a clock read only per pushed state stays
    # under 1000 reads, but resuming a state over its memoized successors
    # reads the clock as well
    inst = gen_two_line(reverse_perm(5))
    monkeypatch.setattr(search, "time", FakeClock())
    with pytest.raises(SearchLimitsExceeded, match="time budget"):
        longest_flip_sequence(inst, SearchLimits(time_budget=1000))


def _pair_test_clock_readings(monkeypatch, clock):
    """The clock reading at every ``crossed_by_either`` call, the batch
    crossing test, wherever a crossflip module looks the name up."""
    readings = []
    real = geometry.crossed_by_either

    def counted(*args):
        readings.append(clock.now)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "crossflip"
                and getattr(module, "crossed_by_either", None) is real):
            monkeypatch.setattr(module, "crossed_by_either", counted)
    return readings


def test_large_kernel_reads_the_clock_before_each_start_row(monkeypatch):
    """At n = 60 building the kernel and the start frame makes no pair test,
    and a call over its budget stops at the first clock read past its
    deadline, with no state expanded. The DFS reads the deadline, the top
    of ``solve``, then the clock before each of the start's crossing rows;
    the BFS reads the deadline, then the clock before each row. A deadline
    between two rows stops with the rows before it built, and the bound is
    the one each search certifies at its start: 0 for the DFS, 1 for the
    BFS."""
    inst = gen_random(60, seed=1)
    clock = FakeClock()
    monkeypatch.setattr(search, "time", clock)
    readings = _pair_test_clock_readings(monkeypatch, clock)
    rows = []
    real = geometry._SegmentLanes.crossers

    def counted(self, a, b):
        rows.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(geometry._SegmentLanes, "crossers", counted)
    for run, budget, now, built, bound in (
            (longest_flip_sequence, 1.5, 3, 0, 0),
            (longest_flip_sequence, 4.5, 6, 3, 0),
            (shortest_flip_sequence, 3.5, 5, 3, 1)):
        clock.now = 0.0
        rows.clear()
        with pytest.raises(SearchLimitsExceeded, match="time budget") as info:
            run(inst, SearchLimits(time_budget=budget))
        assert clock.now == now and len(rows) == built
        assert (info.value.states_expanded, info.value.best_bound) == (0, bound)
    # only the non-crossing check before the search tests pairs
    assert readings and set(readings) == {0.0}


def test_dropped_flip_graph_is_freed_by_reference_counting():
    """The kernel's memo holds ints and tuples, no reference back to the
    kernel: with the cycle collector off, a dropped kernel is freed at once,
    its crossing rows and reconnection masks with it."""
    inst = gen_random(8, seed=1)
    gc.disable()
    try:
        graph = search._FlipGraph(inst.points)
        assert list(graph.children(graph.encode(inst.matching))) and graph
        dropped = weakref.ref(graph)
        del graph
        assert dropped() is None
    finally:
        gc.enable()


def test_state_cap_hit_reports_the_deepest_push():
    """A state pushed at edge distance d from its start ends a run of d
    flips, so a longest-run limit hit certifies f >= d for the deepest push,
    finished or not. At n = 60 a cap of 100 states stops the first descent
    99 flips deep, before any state has finished: ``best_bound`` read 0
    there, for one start and for an enumeration whose first start is the
    canonical matching. The BFS bound is the deepest complete level, as
    before."""
    inst = gen_random(60, seed=1)
    limits = SearchLimits(max_states=100)
    for run, bound in ((lambda: longest_flip_sequence(inst, limits), 99),
                       (lambda: extremal_estimates(inst.points, limits, cap=60), 99),
                       (lambda: shortest_flip_sequence(inst, limits), 1)):
        with pytest.raises(SearchLimitsExceeded, match="state cap 100") as info:
            run()
        assert (info.value.states_expanded, info.value.best_bound) == (100, bound)


def test_depth_cap_is_the_same_for_dfs_and_bfs():
    # a state at edge distance d is generated only when d < max_depth
    inst = gen_convex(5)
    f, h = longest_flip_sequence(inst)[0], shortest_flip_sequence(inst)[0]
    assert h == 4
    assert longest_flip_sequence(inst, SearchLimits(max_depth=f + 1))[0] == f
    assert shortest_flip_sequence(inst, SearchLimits(max_depth=h + 1))[0] == h
    with pytest.raises(SearchLimitsExceeded):
        longest_flip_sequence(inst, SearchLimits(max_depth=f))
    for depth in (1, h):
        with pytest.raises(SearchLimitsExceeded, match="depth cap") as info:
            shortest_flip_sequence(inst, SearchLimits(max_depth=depth))
        assert info.value.best_bound == depth


def test_bfs_limit_bound_is_certified(monkeypatch):
    inst = gen_convex(5)
    h = 4
    limits = [SearchLimits(max_states=k) for k in (1, 2, 7, 10, 30, 50, 65)]
    limits += [SearchLimits(max_depth=d) for d in (1, 2, 3, 4)]
    bounds = []
    for lim in limits:
        with pytest.raises(SearchLimitsExceeded) as info:
            shortest_flip_sequence(inst, lim)
        bounds.append(info.value.best_bound)
    monkeypatch.setattr(search, "time", FakeClock())
    with pytest.raises(SearchLimitsExceeded, match="time budget") as info:
        shortest_flip_sequence(inst, SearchLimits(time_budget=10))
    bounds.append(info.value.best_bound)
    assert all(1 <= b <= h for b in bounds)
    assert max(bounds) == h


def test_bfs_passes_each_generated_state_through_one_gate(monkeypatch):
    """The BFS reads the clock once per generated state, in the gate
    ``_Search.admit`` that the start and every newly discovered state pass,
    plus once for the deadline and once before each crossing row it builds.
    It lists successors only for the states it expands, each once, never
    for a discovered state it does not expand: not for the non-crossing
    matching it stops at on ``gen_convex(5)``, and at n = 60 only for the
    start, when the budget runs out in the first level."""
    clock = FakeClock()
    monkeypatch.setattr(search, "time", clock)
    rows, listed = [], []
    real_row, real_children = geometry._SegmentLanes.crossers, search._FlipGraph.children

    def counted_row(self, a, b):
        rows.append((a, b))
        return real_row(self, a, b)

    def counted_children(self, key):
        listed.append(key)
        return real_children(self, key)

    monkeypatch.setattr(geometry._SegmentLanes, "crossers", counted_row)
    monkeypatch.setattr(search._FlipGraph, "children", counted_children)
    inst = gen_convex(5)
    graph = search._FlipGraph(inst.points)
    start = graph.encode(inst.matching)
    stats = {}
    h, trace = shortest_flip_sequence(inst, SearchLimits(time_budget=10**9), stats)
    states = stats["states_expanded"]
    assert h == 4 and clock.now == 1 + states + len(rows)
    assert listed[0] == start and len(set(listed)) == len(listed) < states
    assert graph.encode(trace.final) not in listed

    inst = gen_random(60, seed=1)
    clock.now = 0.0
    rows.clear()
    listed.clear()
    with pytest.raises(SearchLimitsExceeded, match="time budget") as info:
        shortest_flip_sequence(inst, SearchLimits(time_budget=400))
    states = info.value.states_expanded
    # the last read, past the deadline, is a gate's or a row's
    assert clock.now == 402 == 2 + states + len(rows)
    assert info.value.best_bound == 1 and states > 1
    assert listed == [search._FlipGraph(inst.points).encode(inst.matching)]


def test_on_stack_revisit_is_fatal(monkeypatch):
    """An edge to an on-stack matching raises, naming that matching's
    pairs, decoded from its kernel key: the square's start ((0, 2), (1, 3))
    for an edge back to it, and its first child ((0, 1), (2, 3)) for a
    self-loop on every state, which the DFS meets there first."""
    real = search._FlipGraph.children
    start = search._FlipGraph(SQUARE_INST.points).encode(SQUARE_INST.matching)
    for back, pairs in ((start, [(0, 2), (1, 3)]), (None, [(0, 1), (2, 3)])):
        monkeypatch.setattr(search._FlipGraph, "children",
                            lambda self, key: itertools.chain(real(self, key),
                                                              [back or key]))
        with pytest.raises(FlipGraphCycleError, match=re.escape(f"stack: {pairs}")):
            longest_flip_sequence(SQUARE_INST)


def test_back_edge_after_other_successors_is_fatal(monkeypatch):
    """A back edge that a frame yields after its real successors, so only
    once the frame has taken up and solved each of them and resumed, still
    raises, naming the on-stack matching it leads to: here the start, from
    its first child on rev4."""
    inst = gen_two_line(reverse_perm(4))
    real = search._FlipGraph.children
    graph = search._FlipGraph(inst.points)
    start = graph.encode(inst.matching)
    first = next(real(graph, start))
    late = list(real(graph, first))
    assert late

    def children(self, key):
        return itertools.chain(real(self, key), [start] if key == first else [])

    monkeypatch.setattr(search._FlipGraph, "children", children)
    dfs = search._Search(inst.points, None)
    with pytest.raises(FlipGraphCycleError,
                       match=re.escape(f"stack: {list(inst.matching.pairs)}")):
        dfs.longest_moves(start)
    assert first not in dfs.memo and all(child in dfs.memo for child in late)


def test_dfs_frames_generate_successors_lazily(monkeypatch):
    """A DFS frame builds a successor, and the crossing rows and
    reconnection masks it reads, only when it takes that successor up. At
    n = 60, when the budget runs out, the kernel holds at most one
    reconnection entry (a key with two bits) per state expanded: frames
    that held their full successor lists had built 1,007 at the same 230
    states."""
    monkeypatch.setattr(search, "time", FakeClock())
    inst = gen_random(60, seed=1)
    dfs = search._Search(inst.points, SearchLimits(time_budget=400))
    with pytest.raises(SearchLimitsExceeded, match="time budget") as info:
        dfs.longest_moves(dfs.graph.encode(inst.matching))
    states = info.value.states_expanded
    assert (states, info.value.best_bound) == (230, 122)
    assert sum(1 for key in dfs.graph if key & key - 1) <= states


def test_search_limits_validated():
    with pytest.raises(ValueError):
        SearchLimits(max_states=0)


# --- strategies ------------------------------------------------------------


def test_bubble_reverse_terminates_in_inversion_count():
    inst = gen_two_line(reverse_perm(5))
    trace = run_strategy(inst, Strategy("bubble"))
    assert trace.complete and len(trace) == 10
    assert is_noncrossing(inst.points, trace.final)


def test_bubble_refuses_other_instances():
    with pytest.raises(StrategyNotApplicableError):
        run_strategy(gen_convex(3), Strategy("bubble"))
    # two-line points obey the inversion law, so this refusal comes from the
    # move itself: segment (0, 2) joins two bottom points and (1, 4) crosses it
    same_row = Instance(gen_two_line(reverse_perm(3)).points,
                        Matching.from_pairs([(0, 2), (1, 4), (3, 5)]), "same-row")
    assert find_crossings(same_row.points, same_row.matching)
    with pytest.raises(StrategyNotApplicableError, match="within one row"):
        run_strategy(same_row, Strategy("bubble"))


def test_bubble_is_gated_on_geometry_not_provenance():
    inst = dataclasses.replace(gen_two_line(reverse_perm(4)), provenance="loaded")
    trace = run_strategy(inst, Strategy("bubble"))
    assert trace.complete and len(trace) == 6


@pytest.mark.parametrize("seed", [13, 15, 31, 33, 36])
def test_bubble_refuses_random_points_labelled_two_line(seed):
    inst = dataclasses.replace(gen_random(3, seed=seed), provenance="two-line")
    with pytest.raises(StrategyNotApplicableError, match="inversion law"):
        run_strategy(inst, Strategy("bubble"))


def test_greedy_needs_distinct_x():
    with pytest.raises(StrategyNotApplicableError):
        run_strategy(SQUARE_INST, Strategy("greedy-x"))


def test_greedy_steps_bounded_by_half_potential():
    for seed in range(8):
        raw = gen_random(6, seed=seed, bbox=(0, 500))
        ps = shear_to_distinct_x(raw.points)
        inst = Instance(ps, raw.matching, raw.provenance)
        cap = phi_vertical(ps, inst.matching) // 2
        trace = run_strategy(inst, Strategy("greedy-x"))
        assert trace.complete and len(trace) <= cap
        for rec in trace.records:
            assert rec.phi_k_after - rec.phi_k_before <= -2


@pytest.mark.parametrize("kind", ["random", "first", "max-damage"])
def test_adversary_runs_keep_greedy_decrement(kind):
    raw = gen_random(5, seed=17, bbox=(0, 500))
    inst = Instance(shear_to_distinct_x(raw.points), raw.matching, raw.provenance)
    trace = run_strategy(inst, Strategy("adversary", seed=1, adversary=kind))
    assert trace.complete
    for rec in trace.records:
        assert rec.phi_k_after - rec.phi_k_before <= -2


def test_greedy_choice_pairs_by_x():
    inst = gen_two_line(reverse_perm(2))
    crossing = find_crossings(inst.points, inst.matching)[0]
    choice = greedy_choice(inst.points, crossing)
    m2, rec = __import__("crossflip").flip(
        inst.points, inst.matching, crossing, choice
    )
    ranks = sorted(inst.points[i].x for s in rec.added for i in s)
    (a, b), (c, d) = rec.added
    assert {inst.points[a].x, inst.points[b].x} == set(ranks[:2])
    assert {inst.points[c].x, inst.points[d].x} == set(ranks[2:])


def test_random_strategy_reproducible_and_replayable():
    inst = gen_random(5, seed=23, bbox=(0, 300))
    t1 = run_strategy(inst, Strategy("random", seed=4))
    t2 = run_strategy(inst, Strategy("random", seed=4))
    assert t1 == t2
    assert replay(inst.points, t1.initial, t1.records) == t1.final


def test_step_cap_marks_trace_incomplete():
    inst = gen_two_line(reverse_perm(4))
    trace = run_strategy(inst, Strategy("bubble"), max_steps=2)
    assert not trace.complete and len(trace) == 2


@pytest.mark.parametrize("cap", [2.5, 2.0, -1, math.nan, math.inf, True, "3"])
def test_step_cap_refuses_values_that_are_not_counts(cap):
    """A step cap is None or an int >= 0: a float is not rounded up, and a
    negative or NaN cap does not silently stop the run at once."""
    inst = gen_two_line(reverse_perm(4))
    with pytest.raises(ValueError, match="max_steps .* not None or an int >= 0"):
        run_strategy(inst, Strategy("bubble"), max_steps=cap)


def test_restrict_choice_only_for_free_strategies():
    inst = gen_two_line(reverse_perm(3))
    trace = run_strategy(
        inst, Strategy("first"), restrict_choice=FlipChoice.RECONNECT_B
    )
    assert all(rec.choice is FlipChoice.RECONNECT_B for rec in trace.records)
    with pytest.raises(StrategyNotApplicableError):
        run_strategy(
            inst, Strategy("greedy-x"), restrict_choice=FlipChoice.RECONNECT_A
        )


def test_parse_strategy():
    assert parse_strategy("greedy-x") == Strategy("greedy-x")
    assert parse_strategy("random:9") == Strategy("random", seed=9)
    assert parse_strategy("adversary:max-damage") == Strategy(
        "adversary", adversary="max-damage"
    )
    assert parse_strategy("adversary:random:5") == Strategy(
        "adversary", seed=5, adversary="random"
    )
    with pytest.raises(ValueError):
        parse_strategy("snake")
    with pytest.raises(ValueError):
        parse_strategy("adversary")
    assert parse_strategy("adversary:first:2") == Strategy(
        "adversary", seed=2, adversary="first")
    # fields outside the grammar: seeds on kinds that take none, extra fields
    for text in ("greedy-x:3:4", "greedy-x:3", "bubble:1", "first:-1",
                 "random:1:2", "adversary:random:5:6", "adversary:first:1:2",
                 "snake:1", "bubble:", "random:", "random:x",
                 "adversary:random:"):
        with pytest.raises(ValueError, match="malformed strategy"):
            parse_strategy(text)


@pytest.mark.parametrize("kind", ["greedy-x", "bubble", "first"])
def test_strategy_rejects_a_seed_on_kinds_that_take_none(kind):
    for seed in (7, -1):
        with pytest.raises(ValueError, match=f"strategy '{kind}' takes no seed"):
            Strategy(kind, seed=seed)
    assert Strategy(kind, seed=0) == Strategy(kind)


def test_unrestricted_random_runs_terminate_within_potential_cap():
    rng = random.Random(99)
    for seed in range(20):
        inst = gen_random(rng.randint(2, 6), seed=seed, bbox=(0, 400))
        cap = phi_lines(inst.points, inst.matching) // 4
        trace = run_strategy(inst, Strategy("random", seed=seed), max_steps=cap + 1)
        assert trace.complete and len(trace) <= cap


# --- the int kernel against the Matching-based reference search -----------

KERNEL_SETS = [(2, 31), (3, 32), (3, 33), (4, 34), (4, 35), (5, 36)]


def _assert_searches_match_reference(inst):
    ps, start, pid = inst.points, inst.matching, inst.provenance
    f, f_trace = longest_flip_sequence(inst)
    h, h_trace = shortest_flip_sequence(inst)
    ref_f, f_moves = reference_longest(ps, start)
    h_moves = reference_shortest(ps, start)
    assert (f, h) == (ref_f, len(h_moves))
    assert f_trace == trace_from_moves(pid, ps, start, f_moves)
    assert h_trace == trace_from_moves(pid, ps, start, h_moves)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_family_searches_match_reference(n):
    _assert_searches_match_reference(gen_two_line(reverse_perm(n)))
    _assert_searches_match_reference(gen_convex(n))


@pytest.mark.parametrize("n,seed", [c for c in KERNEL_SETS if c[0] <= 4])
def test_every_start_matches_reference(n, seed):
    ps = gen_random(n, seed=seed, bbox=(0, 400)).points
    for m in enumerate_all_matchings(ps, cap=4):
        _assert_searches_match_reference(Instance(ps, m, "kernel-check"))


@pytest.mark.parametrize("n,seed", KERNEL_SETS)
def test_extremal_matches_reference(n, seed):
    ps = gen_random(n, seed=seed, bbox=(0, 400)).points
    est = extremal_estimates(ps, cap=5, collect_per_matching=True)
    memo: dict = {}
    per = {
        m.pairs: (reference_longest(ps, m, memo)[0], len(reference_shortest(ps, m)))
        for m in enumerate_all_matchings(ps, cap=5)
    }
    assert est.per_matching == per
    assert list(est.per_matching) == list(per)
    g_hat = max(f for f, _h in per.values())
    k_hat = max(h for _f, h in per.values())
    assert (est.g_hat, est.k_hat) == (g_hat, k_hat)
    # the argmaxes are the first matchings in enumeration order
    assert est.g_argmax.pairs == next(p for p, fh in per.items() if fh[0] == g_hat)
    assert est.k_argmax.pairs == next(p for p, fh in per.items() if fh[1] == k_hat)
    g_moves = reference_longest(ps, est.g_argmax, memo)[1]
    k_moves = reference_shortest(ps, est.k_argmax)
    assert est.g_witness == trace_from_moves("enumeration", ps, est.g_argmax, g_moves)
    assert est.k_witness == trace_from_moves("enumeration", ps, est.k_argmax, k_moves)


def _any_point_sets(coords, max_size):
    """Even-sized point lists, repeated points allowed."""
    return st.lists(st.tuples(coords, coords), min_size=2,
                    max_size=max_size).map(
        lambda pts: PointSet.from_coords(pts[: len(pts) // 2 * 2]))


# coordinates at the budget's edges give lane determinants up to 2**43
_EDGE = st.one_of(
    st.sampled_from([-COORD_LIMIT, -COORD_LIMIT + 1, 0, COORD_LIMIT - 1,
                     COORD_LIMIT]),
    st.integers(-COORD_LIMIT, COORD_LIMIT))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_any_point_sets(st.integers(0, 6), 16),  # 7x7 grid
                 _any_point_sets(st.integers(-10**4, 10**4), 16),
                 _any_point_sets(_EDGE, 16)))
def test_kernel_rows_and_masks_match_pair_tests(ps):
    """The crossing rows and the reconnection masks, built on first use,
    against the per-pair loop and the up-front build from transposed
    side-mask columns that they replaced, on random sets, on 7x7-grid
    sets (repeated x, collinear triples, repeated points) and on sets at
    the coordinate budget's edges, where the rows' lane determinants reach
    the bias bound."""
    graph = search._FlipGraph(ps)
    for k, up_front in enumerate(reference_side_mask_rows(ps)):
        row, masks = reference_crossing_row(ps, k)
        assert graph[1 << k] == row == up_front
        for pair, both in masks.items():
            assert graph[pair] == both


@st.composite
def _matched_point_sets(draw, coords):
    """An even-sized point list, repeated points allowed, with a perfect
    matching drawn on it."""
    ps = draw(_any_point_sets(coords, 16))
    labels = draw(st.permutations(range(len(ps))))
    return ps, Matching.from_pairs(zip(labels[0::2], labels[1::2]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matched_point_sets(st.integers(0, 6)),  # 7x7 grid
                 _matched_point_sets(st.integers(-10**4, 10**4)),
                 _matched_point_sets(_EDGE)))
def test_successors_match_reference(ps_m):
    """``successors``, read off the kernel, against the ``find_crossings``
    and ``apply_flip`` body it replaced, in value and order: random sets,
    7x7-grid sets (repeated x, collinear triples, repeated points) and sets
    at the coordinate budget's edges."""
    ps, m = ps_m
    assert successors(ps, m) == reference_successors(ps, m)


def _bubble_perms():
    rng = random.Random(21)
    yield from (reverse_perm(n) for n in range(2, 9))
    for _ in range(40):
        perm = list(range(rng.randint(2, 12)))
        rng.shuffle(perm)
        yield tuple(perm)


@pytest.mark.parametrize("perm", list(_bubble_perms()))
def test_bubble_choice_matches_reference(perm):
    """At every step of bubble, the first adjacent inversion i is flipped,
    and the choice read off its ``crossing_quad`` is the one whose
    reconnection pairs i with the top point of i + 1, found among both
    reconnections by the search it replaced."""
    inst = gen_two_line(perm)
    ps, n = inst.points, inst.n
    trace = run_strategy(inst, Strategy("bubble"))
    assert trace.complete and len(trace) == inversion_count(perm)
    for m, rec in zip(replay_states(ps, trace.initial, trace.records), trace.records):
        pi = two_line_permutation(m, n)
        i = next(i for i in range(n - 1) if pi[i] > pi[i + 1])
        assert rec.crossing == ((i, n + pi[i]), (i + 1, n + pi[i + 1]))
        target = (seg(i, n + pi[i + 1]), seg(i + 1, n + pi[i]))
        assert rec.choice is reference_choice_yielding(ps, rec.crossing, target)


def test_kernel_builds_only_the_entries_a_state_reads():
    """A new kernel holds no entry; the successors of the start add exactly
    its n segments' rows and one reconnection entry per crossing, each
    equal to the per-pair loop's."""
    inst = gen_random(60, seed=1)
    graph = search._FlipGraph(inst.points)
    assert len(graph) == 0
    start = graph.encode(inst.matching)
    list(graph.children(start))
    ids = [graph.segs.index(s) for s in inst.matching.pairs]
    crossings = find_crossings(inst.points, inst.matching)
    pairs = {graph.encode(Matching(crossing)) for crossing in crossings}
    assert set(graph) == {1 << k for k in ids} | pairs
    for k in ids:
        row, masks = reference_crossing_row(inst.points, k)
        assert graph[1 << k] == row
        assert all(graph[pair] == masks[pair] for pair in pairs & masks.keys())


def test_exact_search_never_builds_side_masks(monkeypatch):
    """Longest and shortest runs and the extremal enumeration read their
    crossing rows off the segment-lane table alone: they run, with the
    same values, while the perturbed-line side masks,
    ``potentials._line_masks``, raise."""
    inst, ps = gen_two_line(reverse_perm(4)), gen_random(4, seed=5).points

    def values():
        est = extremal_estimates(ps)
        return (longest_flip_sequence(inst), shortest_flip_sequence(inst),
                est.g_hat, est.k_hat, est.g_witness, est.k_witness)

    want = values()

    def refuse(ps):
        raise AssertionError("_line_masks called")

    monkeypatch.setattr(potentials, "_line_masks", refuse)
    assert values() == want


def _assert_counts_are_recounts(ps, trace):
    states = replay_states(ps, trace.initial, trace.records)
    assert [rec.crossings_after for rec in trace.records] == [
        len(find_crossings(ps, m)) for m in states[1:]]
    assert trace.complete == is_noncrossing(ps, trace.final)


def test_trace_crossing_counts_are_recounts():
    """``trace_from_moves`` patches its crossing list per flip; every
    ``crossings_after`` and ``complete`` equals a recount, on the scenario
    traces and on exact-search witnesses (and their prefixes) for n <= 5."""
    surge = crossing_surge_instance()
    traces = [
        (reappearing_segment_instance().points, reappearing_segment_trace()),
        (surge.points, trace_from_moves(surge.provenance, surge.points,
                                        surge.matching, [crossing_surge_move()])),
    ]
    insts = [gen_two_line(reverse_perm(5)), gen_convex(5)]
    insts += [gen_random(n, seed=seed, bbox=(0, 400))
              for n, seed in KERNEL_SETS]
    for inst in insts:
        traces.append((inst.points, longest_flip_sequence(inst)[1]))
        traces.append((inst.points, shortest_flip_sequence(inst)[1]))
        est = extremal_estimates(inst.points, cap=5)
        traces += [(inst.points, est.g_witness), (inst.points, est.k_witness)]
    assert not traces[1][1].complete
    for ps, trace in traces:
        _assert_counts_are_recounts(ps, trace)
        moves = [(rec.crossing, rec.choice) for rec in trace.records]
        for k in range(len(moves)):
            prefix = trace_from_moves(trace.instance_id, ps, trace.initial,
                                      moves[:k])
            assert not prefix.complete
            _assert_counts_are_recounts(ps, prefix)


def test_one_run_loop_keeps_scripted_and_capped_stops():
    """Scripted traces and strategy runs share one run loop, which keeps
    their two ways of stopping: a scripted move made once the matching is
    non-crossing raises FlipError (a script is not cut short), as does a
    scripted pair that does not cross or is not in the matching, and a step
    cap of 0 stops a strategy run before its first pick."""
    inst = reappearing_segment_instance()
    trace = reappearing_segment_trace()
    assert trace.complete
    moves = [(rec.crossing, rec.choice) for rec in trace.records]
    with pytest.raises(FlipError, match="not part of the matching"):
        trace_from_moves(inst.provenance, inst.points, inst.matching,
                         moves + moves[-1:])
    # a pair that does not cross, and one whose second segment is not in
    # the matching, raise as the stateless ``flip`` does, message included
    start = gen_two_line((1, 0, 2))
    ps, m = start.points, start.matching
    for move in ((((0, 4), (2, 5)), FlipChoice.RECONNECT_A),
                 (((0, 4), (1, 2)), FlipChoice.RECONNECT_B)):
        with pytest.raises(FlipError) as stateless:
            flip(ps, m, *move)
        with pytest.raises(FlipError) as scripted:
            trace_from_moves(start.provenance, ps, m, [move])
        assert str(scripted.value) == str(stateless.value)
    for text in ("greedy-x", "adversary:max-damage", "random:3", "bubble"):
        start = gen_two_line(reverse_perm(4))
        capped = run_strategy(start, parse_strategy(text), max_steps=0)
        assert (capped.records, capped.final, capped.complete) == (
            (), start.matching, False)
