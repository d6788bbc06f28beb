"""Strategy runs against the rules the one x-order and the one Delta phi_K
replaced: the phi_vertical a run tracks from four endpoints per step equals
a recount of every visited matching, max-damage imposes the first crossing
of least middle gap, which is also the pick of the per-run key dict that its
ranked live keys replaced, those keys hold each live crossing once, ranked
by its drop in phi_vertical, a step makes one pair test and no scalar batch
crossing test, and ``greedy_choice`` agrees with the raw-x sort. The length
a run carries from step to step equals a recount, and its records and trace
CSV equal those of one plain ``flip`` per step."""

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflip import (
    FlipChoice,
    FlipTrace,
    GenerationError,
    Instance,
    Matching,
    PointSet,
    StrategyNotApplicableError,
    apply_flip,
    crossings_after_flip,
    find_crossings,
    flip,
    gen_random,
    gen_two_line,
    parse_strategy,
    phi_lines,
    phi_vertical,
    reverse_perm,
    run_strategy,
    shear_to_distinct_x,
    total_length,
    trace_from_moves,
)
from crossflip.generators import inversion_law_violation
from crossflip.io import write_trace
from crossflip import geometry, search
from crossflip.potentials import phi_vertical_delta, x_ranks
from crossflip.search import greedy_choice

from oracles import (
    _gap_ranks,
    reference_greedy_choice,
    reference_greedy_pairs,
    reference_max_damage_pick,
    reference_middle_gap,
)

X_GREEDY = ["greedy-x", "adversary:random:3", "adversary:first",
            "adversary:max-damage"]
FREE = [("first", None), ("first", FlipChoice.RECONNECT_A),
        ("first", FlipChoice.RECONNECT_B), ("random:7", None),
        ("random:7", FlipChoice.RECONNECT_A),
        ("random:7", FlipChoice.RECONNECT_B)]


def _sheared(n: int, seed: int) -> Instance:
    raw = gen_random(n, seed=seed, bbox=(0, 512))
    return Instance(shear_to_distinct_x(raw.points), raw.matching,
                    raw.provenance + "+shear")


_SEEDS = random.Random(4105)
SMALL = [_sheared(n, _SEEDS.randrange(10**6)) for n in range(2, 13)
         for _ in range(2)]


TWO_LINE = [gen_two_line(reverse_perm(n)) for n in range(2, 7)] + [
    gen_two_line(random.Random(s).sample(range(6), 6)) for s in range(3)
]


def _runs(inst: Instance, with_phi_lines: bool):
    for text in X_GREEDY:
        yield text, run_strategy(inst, parse_strategy(text),
                                 with_phi_lines=with_phi_lines)
    for text, restrict in FREE:
        yield text, run_strategy(inst, parse_strategy(text),
                                 with_phi_lines=with_phi_lines,
                                 restrict_choice=restrict)


def _states(ps: PointSet, trace) -> list[Matching]:
    states = [trace.initial]
    for rec in trace.records:
        states.append(apply_flip(ps, states[-1], rec.crossing, rec.choice))
    return states


def _assert_potentials_recounted(inst: Instance, trace, with_phi_lines: bool):
    ps = inst.points
    states = _states(ps, trace)
    assert states[-1] == trace.final
    # one recount per state, read as one record's after and the next's before
    phi_k = [phi_vertical(ps, m) for m in states]
    phi_l = [phi_lines(ps, m) if with_phi_lines else None for m in states]
    for k, rec in enumerate(trace.records):
        assert (rec.phi_k_before, rec.phi_k_after) == (phi_k[k], phi_k[k + 1])
        assert (rec.phi_l_before, rec.phi_l_after) == (phi_l[k], phi_l[k + 1])


def _plain_flips(ps: PointSet, trace) -> FlipTrace:
    """The trace rebuilt from one ``flip`` per step, which sums the length
    before and after each flip afresh; the fields ``flip`` leaves unset are
    copied from the run."""
    m, records = trace.initial, []
    for rec in trace.records:
        m, plain = flip(ps, m, rec.crossing, rec.choice)
        records.append(dataclasses.replace(
            plain, crossings_after=rec.crossings_after,
            phi_l_before=rec.phi_l_before, phi_l_after=rec.phi_l_after,
            phi_k_before=rec.phi_k_before, phi_k_after=rec.phi_k_after))
    return FlipTrace(trace.instance_id, trace.initial, tuple(records), m,
                     trace.complete)


def _assert_lengths_chain(inst: Instance, trace, tmp_path):
    """Each record's length_before is the previous length_after, both equal
    a ``total_length`` recount exactly, ``trace_from_moves`` on the same
    moves gives the same records, and the trace CSV equals the one written
    from plain ``flip`` calls."""
    ps = inst.points
    states = _states(ps, trace)
    length = total_length(ps, trace.initial)
    for k, rec in enumerate(trace.records):
        assert rec.length_before == length == total_length(ps, states[k])
        length = rec.length_after
        assert length == total_length(ps, states[k + 1])
    moved = trace_from_moves(trace.instance_id, ps, trace.initial,
                             [(rec.crossing, rec.choice) for rec in trace.records])
    unphi = dict.fromkeys(
        ("phi_l_before", "phi_l_after", "phi_k_before", "phi_k_after"))
    assert moved.records == tuple(
        dataclasses.replace(rec, **unphi) for rec in trace.records)
    assert (moved.final, moved.complete) == (trace.final, trace.complete)
    plain = _plain_flips(ps, trace)
    assert plain == trace
    write_trace(inst, trace, tmp_path / "run.csv")
    write_trace(inst, plain, tmp_path / "plain.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def _assert_x_greedy_moves(inst: Instance, trace, max_damage: bool,
                           recount_crossings: bool):
    """Every response is the raw-x greedy choice; under max-damage every
    imposed crossing is the first of least reference middle gap, and the
    pick of the per-run key dict."""
    ps = inst.points
    rank = _gap_ranks(ps)
    ranks, keys = x_ranks(ps), {}
    states = _states(ps, trace)
    crossings = find_crossings(ps, states[0])
    for k, rec in enumerate(trace.records):
        if max_damage:
            best = min(crossings, key=lambda c: reference_middle_gap(ps, c, rank))
            assert rec.crossing == best
            assert rec.crossing == reference_max_damage_pick(ranks, crossings, keys)
        assert rec.choice is reference_greedy_choice(ps, rec.crossing)
        if recount_crossings:
            crossings = find_crossings(ps, states[k + 1])
        else:
            crossings = crossings_after_flip(ps, states[k + 1], crossings,
                                             rec.crossing, rec.added)
        assert len(crossings) == rec.crossings_after


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: i.provenance)
def test_small_runs_track_potentials_and_greedy_moves(inst, tmp_path):
    for text, trace in _runs(inst, with_phi_lines=True):
        assert trace.complete
        _assert_potentials_recounted(inst, trace, with_phi_lines=True)
        _assert_lengths_chain(inst, trace, tmp_path)
        if text in X_GREEDY:
            _assert_x_greedy_moves(inst, trace, text == "adversary:max-damage",
                                   recount_crossings=True)


def test_n100_runs_track_potentials_and_greedy_moves(tmp_path):
    """At n = 100 the per-state recount of phi_lines pins the
    ``phi_lines_delta`` every run tracks it by."""
    inst = _sheared(100, 4106)
    for text, trace in _runs(inst, with_phi_lines=True):
        assert trace.complete
        _assert_potentials_recounted(inst, trace, with_phi_lines=True)
        _assert_lengths_chain(inst, trace, tmp_path)
        if text in X_GREEDY:
            _assert_x_greedy_moves(inst, trace, text == "adversary:max-damage",
                                   recount_crossings=False)


@pytest.mark.parametrize("inst", TWO_LINE, ids=lambda i: i.provenance)
def test_bubble_tracks_potentials(inst, tmp_path):
    for with_phi_lines in (False, True):
        trace = run_strategy(inst, parse_strategy("bubble"),
                             with_phi_lines=with_phi_lines)
        assert trace.complete
        _assert_potentials_recounted(inst, trace, with_phi_lines)
        _assert_lengths_chain(inst, trace, tmp_path)


def test_bubble_reuses_the_generators_inversion_law_check():
    inversion_law_violation.cache_clear()
    inst = gen_two_line(reverse_perm(9))
    trace = run_strategy(inst, parse_strategy("bubble"))
    assert len(trace) == 36
    info = inversion_law_violation.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_max_damage_takes_the_first_of_tied_crossings():
    """Two congruent crossings, one translate of the other: their keys tie,
    and the canonically first crossing (on the right, points 0-3) is
    imposed first, as ``max`` takes it."""
    right = [(40, 0), (49, 8), (41, 7), (48, 1)]
    left = [(x - 30, y + 2) for x, y in right]
    inst = Instance(PointSet.from_coords(right + left),
                    Matching.from_pairs([(0, 1), (2, 3), (4, 5), (6, 7)]),
                    "tie")
    ps = inst.points
    first, second = find_crossings(ps, inst.matching)
    assert first == ((0, 1), (2, 3)) and second == ((4, 5), (6, 7))
    ranks = x_ranks(ps)
    keys = [phi_vertical_delta(ranks, c, reference_greedy_pairs(ranks, c))
            for c in (first, second)]
    assert keys[0] == keys[1]
    trace = run_strategy(inst, parse_strategy("adversary:max-damage"))
    assert [rec.crossing for rec in trace.records] == [first, second]


def test_max_damage_ranked_keys_hold_each_live_crossing_once_by_drop(
        monkeypatch):
    """Max-damage orders the live index by rank: after every step's pick
    the index's rows list each live crossing once, ``live[k]`` in canonical
    order; its heap holds one distinct live key per live crossing, each
    key's rank is the drop in phi_vertical of the crossing's x-greedy
    response, and the ranked first, the first by (rank, crossing), is the
    pick and the per-run key dict's."""
    inst = _sheared(60, 4107)
    ps = inst.points
    ranks, keys = x_ranks(ps), {}
    quad = len(ps) ** 4
    real = search._pick
    picks = []

    def pick(*args):
        out = real(*args)
        live = args[2]
        crossings = find_crossings(ps, Matching.from_pairs(live.pairs))
        assert len(live) == len(crossings)
        assert [live[k] for k in range(len(live))] == crossings
        ranked = sorted(divmod(k, quad) for k in set(live.heap)
                        if all(s in live for s in live.crossing(k)))
        assert sorted(live.crossing(k) for _, k in ranked) == crossings
        for rank, key in ranked:
            c = live.crossing(key)
            greedy = reference_greedy_pairs(ranks, c)
            assert rank == -phi_vertical_delta(ranks, c, greedy)
        assert out[0] == live.first() == live.crossing(ranked[0][1])
        assert out[0] == reference_max_damage_pick(ranks, crossings, keys)
        picks.append(out[0])
        return out

    monkeypatch.setattr(search, "_pick", pick)
    trace = run_strategy(inst, parse_strategy("adversary:max-damage"))
    assert trace.complete and len(picks) == len(trace) > 100
    _assert_x_greedy_moves(inst, trace, max_damage=True, recount_crossings=False)


def _calls_of(monkeypatch, name: str) -> list:
    """The argument tuples of every call of ``geometry.<name>``, wherever
    a crossflip module looks the name up."""
    real = getattr(geometry, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module_name, module in list(sys.modules.items()):
        if (module_name.split(".")[0] == "crossflip"
                and getattr(module, name, None) is real):
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("text", ["greedy-x", "adversary:max-damage"])
def test_strategy_steps_make_one_pair_test_each(monkeypatch, text):
    """A step's only pair test, a ``proper_crossing_quad`` call, is the
    flip's own liveness check, and ``segments_properly_cross`` is never
    called: the crossings it gains come from one lane test per added
    segment, and the ones it loses from the per-segment index."""
    inst = _sheared(60, 4108)
    calls = _calls_of(monkeypatch, "proper_crossing_quad")
    pair_tests = _calls_of(monkeypatch, "segments_properly_cross")
    trace = run_strategy(inst, parse_strategy(text))
    assert trace.complete and len(trace) > 50
    assert len(calls) == len(trace) and pair_tests == []


@pytest.mark.parametrize("text, steps", [
    ("greedy-x", 37), ("adversary:max-damage", 53), ("first", 44),
    ("adversary:first", None), ("adversary:random:5", None)])
def test_strategy_steps_compute_one_quad_each(monkeypatch, text, steps):
    """A step's only quad is the one ``proper_crossing_quad`` call of the
    run loop's one checked step, and ``crossing_quad`` is never called: an
    x-greedy pick reads its choice off that quad, not off one of its own."""
    inst = _sheared(30, 3)
    calls = _calls_of(monkeypatch, "proper_crossing_quad")
    quads = _calls_of(monkeypatch, "crossing_quad")
    trace = run_strategy(inst, parse_strategy(text))
    assert trace.complete and len(calls) == len(trace) and quads == []
    assert steps is None or len(trace) == steps
    if text != "first":
        _assert_x_greedy_moves(inst, trace, text == "adversary:max-damage",
                               recount_crossings=False)


def test_strategy_runs_make_no_scalar_batch_crossing_test(monkeypatch):
    """Strategy runs and scripted traces find crossings on the lanes of
    their ``_LiveCrossings`` index alone, its build included:
    ``geometry.crossed_by_either``, the scalar batch test, is never called."""
    inst = _sheared(40, 4109)
    calls = _calls_of(monkeypatch, "crossed_by_either")
    traces = [run_strategy(inst, parse_strategy(text)) for text in X_GREEDY]
    traces += [run_strategy(inst, parse_strategy(text), restrict_choice=restrict)
               for text, restrict in FREE]
    moved = trace_from_moves(inst.provenance, inst.points, inst.matching,
                             [(r.crossing, r.choice) for r in traces[0].records])
    assert all(t.complete and len(t) > 10 for t in traces) and moved.complete
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 10**6),
    hi=st.sampled_from([16, 64, 512]),
    order=st.randoms(use_true_random=False),
)
def test_greedy_choice_matches_raw_x_sort(n, seed, hi, order):
    try:
        raw = gen_random(n, seed=seed, bbox=(0, hi))
    except GenerationError:
        return  # too many points for the box: no instance to check
    ps = shear_to_distinct_x(raw.points)
    labels = list(range(2 * n))
    order.shuffle(labels)
    m = Matching.from_pairs(
        [(labels[2 * i], labels[2 * i + 1]) for i in range(n)]
    )
    for crossing in find_crossings(ps, m):
        assert greedy_choice(ps, crossing) is reference_greedy_choice(ps, crossing)


def test_greedy_choice_refuses_any_repeated_x():
    """The four endpoints have distinct x, but two other points share one:
    phi_vertical is undefined on the set, so the x-greedy choice is refused
    (the raw-x sort accepted it)."""
    ps = PointSet.from_coords([(0, 0), (4, 1), (3, 4), (1, 3), (10, 0), (10, 7)])
    crossing = ((0, 2), (1, 3))
    assert find_crossings(ps, Matching.from_pairs([(0, 2), (1, 3), (4, 5)])) == [
        crossing
    ]
    reference_greedy_choice(ps, crossing)
    with pytest.raises(StrategyNotApplicableError):
        greedy_choice(ps, crossing)
