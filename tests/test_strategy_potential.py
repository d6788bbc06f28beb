"""Strategy runs against the rules the one x-order and the one Delta phi_K
replaced: the phi_vertical a run tracks from four endpoints per step equals
a recount of every visited matching, max-damage imposes the first crossing
of least middle gap, and ``greedy_choice`` agrees with the raw-x sort."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflip import (
    FlipChoice,
    GenerationError,
    Instance,
    Matching,
    PointSet,
    StrategyNotApplicableError,
    apply_flip,
    crossings_after_flip,
    find_crossings,
    gen_random,
    gen_two_line,
    parse_strategy,
    phi_lines,
    phi_vertical,
    reverse_perm,
    run_strategy,
    shear_to_distinct_x,
)
from crossflip.search import greedy_choice

from oracles import _gap_ranks, reference_greedy_choice, reference_middle_gap

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
    for k, rec in enumerate(trace.records):
        assert rec.phi_k_before == phi_vertical(ps, states[k])
        assert rec.phi_k_after == phi_vertical(ps, states[k + 1])
        if with_phi_lines:
            assert rec.phi_l_before == phi_lines(ps, states[k])
            assert rec.phi_l_after == phi_lines(ps, states[k + 1])
        else:
            assert rec.phi_l_before is None and rec.phi_l_after is None


def _assert_x_greedy_moves(inst: Instance, trace, max_damage: bool,
                           recount_crossings: bool):
    """Every response is the raw-x greedy choice; under max-damage every
    imposed crossing is the first of least reference middle gap."""
    ps = inst.points
    rank = _gap_ranks(ps)
    states = _states(ps, trace)
    crossings = find_crossings(ps, states[0])
    for k, rec in enumerate(trace.records):
        if max_damage:
            best = min(crossings, key=lambda c: reference_middle_gap(ps, c, rank))
            assert rec.crossing == best
        assert rec.choice is reference_greedy_choice(ps, rec.crossing)
        if recount_crossings:
            crossings = find_crossings(ps, states[k + 1])
        else:
            crossings = crossings_after_flip(ps, states[k + 1], crossings,
                                             rec.crossing, rec.added)
        assert len(crossings) == rec.crossings_after


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: i.provenance)
def test_small_runs_track_potentials_and_greedy_moves(inst):
    for text, trace in _runs(inst, with_phi_lines=True):
        assert trace.complete
        _assert_potentials_recounted(inst, trace, with_phi_lines=True)
        if text in X_GREEDY:
            _assert_x_greedy_moves(inst, trace, text == "adversary:max-damage",
                                   recount_crossings=True)


def test_n100_runs_track_potentials_and_greedy_moves():
    inst = _sheared(100, 4106)
    for text, trace in _runs(inst, with_phi_lines=False):
        assert trace.complete
        _assert_potentials_recounted(inst, trace, with_phi_lines=False)
        if text in X_GREEDY:
            _assert_x_greedy_moves(inst, trace, text == "adversary:max-damage",
                                   recount_crossings=False)


@pytest.mark.parametrize("inst", TWO_LINE, ids=lambda i: i.provenance)
def test_bubble_tracks_potentials(inst):
    for with_phi_lines in (False, True):
        trace = run_strategy(inst, parse_strategy("bubble"),
                             with_phi_lines=with_phi_lines)
        assert trace.complete
        _assert_potentials_recounted(inst, trace, with_phi_lines)


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
