import dataclasses
import math
import random
from bisect import insort
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossflip import (
    FlipChoice,
    FlipError,
    Matching,
    PointSet,
    ReplayError,
    Strategy,
    apply_flip,
    crossings_after_flip,
    decrement_audit,
    find_crossings,
    flip,
    gen_random,
    gen_two_line,
    is_noncrossing,
    phi_lines,
    replay,
    run_strategy,
    seg,
    segments_properly_cross,
    shear_to_distinct_x,
    total_length,
    trace_from_moves,
)
from crossflip import matching
from crossflip.geometry import COORD_LIMIT, crossed_by_either, crossing_quad
from crossflip.matching import (
    _LiveCrossings,
    check_live,
    crossing_count,
    quad_reconnections,
    replay_states,
)
from crossflip.scenarios import (
    REAPPEARING_SEGMENT,
    reappearing_segment_instance,
    reappearing_segment_moves,
    reappearing_segment_trace,
)

import oracles
from oracles import (
    CHOICES,
    crossing_count_brute,
    crossing_pair,
    reference_crossed_by,
    reference_ccw_quad_order,
    reference_choice_yielding,
    reference_crossings_after_flip,
    reference_find_crossings,
    reference_keyed_crossings,
    reference_live_crossings,
    reference_point_lane_crossers,
    reference_reconnection_pairs,
    reference_replay_states,
    reference_sorted_ints,
    reference_total_length,
)

SQUARE = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
DIAGONALS = Matching.from_pairs([(0, 2), (1, 3)])


def test_canonical_form():
    m = Matching.from_pairs([(3, 1), (2, 0)])
    assert m.pairs == ((0, 2), (1, 3))


def test_imperfect_matchings_rejected():
    with pytest.raises(ValueError):
        Matching.from_pairs([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Matching.from_pairs([(0, 1), (3, 4)])


@pytest.mark.parametrize("pairs", [
    [(0.0, 1.0)],
    [(0, 2), (1, 3.0)],
    [(0, 2), (True, 3)],
    [("0", 1)],
])
def test_from_pairs_refuses_indices_that_are_not_ints(pairs):
    """A float, string or bool index is refused with the offending pair
    named, not compared and sorted as if it were a point index."""
    with pytest.raises(ValueError, match=r"pair \(.*\) has an index that is not"):
        Matching.from_pairs(pairs)


def test_canonicalization_injective_up_to_n4():
    # every distinct pairing of 8 points keeps a distinct canonical form
    seen = set()
    count = 0

    def pairings(avail):
        if not avail:
            yield []
            return
        first = avail[0]
        for i in range(1, len(avail)):
            for rest in pairings(avail[1:i] + avail[i + 1:]):
                yield [(avail[i], first)] + rest

    for raw in pairings(list(range(8))):
        seen.add(Matching.from_pairs(raw).pairs)
        count += 1
    assert count == 105 and len(seen) == 105


def test_find_crossings_fig_six():
    inst = reappearing_segment_instance()
    crossings = find_crossings(inst.points, inst.matching)
    assert len(crossings) == 3  # all three pairs cross
    assert crossings == sorted(crossings)


def test_find_crossings_empty_and_two_line():
    inst = reappearing_segment_instance()
    final = Matching.from_pairs([(0, 1), (2, 3), (4, 5)])
    assert find_crossings(inst.points, final) == []
    rev2 = gen_two_line((1, 0))
    assert len(find_crossings(rev2.points, rev2.matching)) == 1


def test_square_flip_choice_a_gives_sides():
    crossing = find_crossings(SQUARE, DIAGONALS)[0]
    m2, rec = flip(SQUARE, DIAGONALS, crossing, FlipChoice.RECONNECT_A)
    assert m2.pairs == ((0, 1), (2, 3))
    assert rec.length_before == pytest.approx(4 * math.sqrt(2))
    assert rec.length_after == pytest.approx(4.0)


def test_fig_six_flip_choices():
    inst = reappearing_segment_instance()
    crossing = (seg(1, 4), seg(2, 3))
    b = reference_choice_yielding(inst.points, crossing, (seg(1, 2), seg(3, 4)))
    m2 = apply_flip(inst.points, inst.matching, crossing, b)
    assert m2.pairs == ((0, 5), (1, 2), (3, 4))
    other = (
        FlipChoice.RECONNECT_A if b is FlipChoice.RECONNECT_B
        else FlipChoice.RECONNECT_B
    )
    added = quad_reconnections(crossing_quad(inst.points, crossing))[
        other is FlipChoice.RECONNECT_B]
    assert added == (seg(1, 3), seg(2, 4))
    assert not inst.points[added[0][0]] == inst.points[added[1][0]]
    from crossflip import segments_properly_cross
    assert not segments_properly_cross(inst.points, *added)


def test_flip_rejects_stale_and_noncrossing_pairs():
    with pytest.raises(FlipError, match="not part"):
        flip(SQUARE, DIAGONALS, (seg(0, 1), seg(2, 3)), FlipChoice.RECONNECT_A)
    sides = Matching.from_pairs([(0, 1), (2, 3)])
    with pytest.raises(FlipError, match="do not cross"):
        flip(SQUARE, sides, (seg(0, 1), seg(2, 3)), FlipChoice.RECONNECT_A)


def test_total_length():
    ps = PointSet.from_coords([(0, 0), (3, 4)])
    assert total_length(ps, Matching.from_pairs([(0, 1)])) == 5.0
    assert total_length(SQUARE, DIAGONALS) == pytest.approx(4 * math.sqrt(2))


def test_is_noncrossing():
    inst = reappearing_segment_instance()
    assert not is_noncrossing(inst.points, inst.matching)
    assert is_noncrossing(inst.points, Matching.from_pairs([(0, 1), (2, 3), (4, 5)]))
    single = PointSet.from_coords([(0, 0), (1, 1)])
    assert is_noncrossing(single, Matching.from_pairs([(0, 1)]))


def test_replay_empty_is_identity():
    assert replay(SQUARE, DIAGONALS, []) == DIAGONALS


def test_replay_scripted_run_tracks_reappearing_segment():
    inst = reappearing_segment_instance()
    trace = reappearing_segment_trace()
    assert replay(inst.points, inst.matching, trace.records) == trace.final
    m = inst.matching
    presence = [REAPPEARING_SEGMENT in m.pairs]
    for rec in trace.records:
        m = apply_flip(inst.points, m, rec.crossing, rec.choice)
        presence.append(REAPPEARING_SEGMENT in m.pairs)
    assert presence == [True, False, False, True]
    assert is_noncrossing(inst.points, m)


def test_replay_reports_failing_step():
    inst = reappearing_segment_instance()
    moves = reappearing_segment_moves()
    trace = trace_from_moves(
        inst.provenance, inst.points, inst.matching, moves
    )
    # drop the first record: the second one is now stale
    with pytest.raises(ReplayError, match="step 0"):
        replay(inst.points, inst.matching, trace.records[1:])


@pytest.mark.parametrize("segment", [
    (4, 1), (1, 6), (-1, 4), (1.0, 4), (1, 4.0), (True, 4), ("1", 4), [1, 4],
    (1, 4, 0)], ids=["reversed", "past-the-end", "negative", "float-low",
                     "float-high", "bool", "string", "list", "triple"])
@pytest.mark.parametrize("position", [0, 1])
def test_scripted_move_off_the_matching_raises_flip_error(segment, position):
    """A scripted move naming segment (1, 4) of the reappearing-segment
    script in any other form than the sorted tuple of two int point
    indices the matching holds is refused by the run index with the stale
    crossing's FlipError, not read as (1, 4) nor failing on an index."""
    inst = reappearing_segment_instance()
    (first, second), choice = reappearing_segment_moves()[0]
    assert first == (1, 4)
    crossing = (segment, second) if position == 0 else (second, segment)
    with pytest.raises(FlipError) as info:
        trace_from_moves(inst.provenance, inst.points, inst.matching,
                         [(crossing, choice)])
    assert str(info.value) == f"crossing {crossing} is not part of the matching"


@pytest.mark.parametrize("crossing", [
    ((0, 7), (True, 9)), ((False, 7), (1, 9)), ((0, 7), (1.0, 9)),
    ((0, 7.0), (1, 9))], ids=["bool-second", "bool-first", "float-low",
                               "float-high"])
@pytest.mark.parametrize("path", ["flip", "apply_flip", "decrement_audit", "replay"])
def test_stateless_flip_paths_refuse_a_non_int_endpoint(crossing, path):
    """The one crossing of sheared ``gen_random(6, seed=3, bbox=(0, 200))``
    is ((0, 7), (1, 9)). Named with a bool or a float endpoint, it is not
    part of the matching on every stateless flip path, as in a run: ``flip``
    once returned a ``Matching`` holding (0, True), and a float endpoint
    raised TypeError."""
    from crossflip import FlipRecord

    raw = gen_random(6, seed=3, bbox=(0, 200))
    ps, m = shear_to_distinct_x(raw.points), raw.matching
    assert find_crossings(ps, m) == [((0, 7), (1, 9))]
    choice = FlipChoice.RECONNECT_A
    text = f"crossing {crossing} is not part of the matching"
    if path == "replay":
        added = flip(ps, m, ((0, 7), (1, 9)), choice)[1].added
        with pytest.raises(ReplayError) as info:
            replay(ps, m, [FlipRecord(crossing, choice, added, 0.0, 0.0)])
        assert str(info.value) == f"step 0: {text}"
        return
    step = {"flip": flip, "apply_flip": apply_flip,
            "decrement_audit": decrement_audit}[path]
    with pytest.raises(FlipError) as info:
        step(ps, m, crossing, choice)
    assert str(info.value) == text


def test_scripted_move_on_a_removed_segment_raises_flip_error():
    """A scripted move repeated after its flip names two removed segments:
    the run index refuses it as stale."""
    inst = reappearing_segment_instance()
    move = reappearing_segment_moves()[0]
    with pytest.raises(FlipError) as info:
        trace_from_moves(inst.provenance, inst.points, inst.matching, [move, move])
    assert str(info.value) == f"crossing {move[0]} is not part of the matching"


def _outcome(replayer, *args):
    try:
        return replayer(*args)
    except ReplayError as exc:
        return ("ReplayError", exc.step, str(exc))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8),
       st.sampled_from(["none", "drop", "swap", "choice", "added", "crossing"]),
       st.integers(0, 1000), st.integers(0, 1000))
def test_replay_on_a_set_matches_the_stateless_flip(seed, n, edit, i, j):
    """``replay`` and ``replay_states`` on a set of pairs give the states of
    a replay by the stateless flip, and raise at the same step with the same
    message when a step is stale (a record dropped or moved), does not
    cross, or records another reconnection than its choice makes."""
    inst = gen_random(n, seed=seed, bbox=(0, 256))
    ps, m = inst.points, inst.matching
    trace = run_strategy(inst, Strategy("random", seed=seed))
    records = list(trace.records)
    if records and edit != "none":
        i %= len(records)
        j %= len(records)
        rec = records[i]
        if edit == "drop":
            del records[i]
        elif edit == "swap":
            records[i], records[j] = records[j], rec
        elif edit == "choice":  # the other choice, its segments kept
            other = [c for c in FlipChoice if c is not rec.choice][0]
            records[i] = dataclasses.replace(rec, choice=other)
        elif edit == "added":  # the other choice's segments
            both = quad_reconnections(crossing_quad(ps, rec.crossing))
            other = [a for a in both if a != rec.added][0]
            records[i] = dataclasses.replace(rec, added=other)
        else:  # two segments of the start: stale, non-crossing or live
            e1, e2 = m.pairs[i % n], m.pairs[j % n]
            records[i] = dataclasses.replace(rec, crossing=(min(e1, e2), max(e1, e2)))
    want = _outcome(reference_replay_states, ps, m, records)
    assert _outcome(replay_states, ps, m, records) == want
    final = want[-1] if isinstance(want, list) else want
    assert _outcome(replay, ps, m, records) == final
    if edit in ("choice", "added") and records:
        assert want[:2] == ("ReplayError", i)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 7))
def test_random_flips_stay_sound(seed, n):
    """Any flip of any live crossing keeps a perfect matching, adds a
    non-crossing pair, and strictly shortens the matching."""
    inst = gen_random(n, seed=seed, bbox=(0, 256))
    ps, m = inst.points, inst.matching
    rng = random.Random(seed)
    crossings = find_crossings(ps, m)
    while crossings:
        crossing = rng.choice(crossings)
        choice = rng.choice(list(FlipChoice))
        m2, rec = flip(ps, m, crossing, choice)
        from crossflip import segments_properly_cross
        assert not segments_properly_cross(ps, *rec.added)
        assert rec.length_after < rec.length_before * (1 + 1e-9)
        patched = crossings_after_flip(ps, m2, crossings, crossing, rec.added)
        assert patched == find_crossings(ps, m2)
        m, crossings = m2, patched


def test_trace_round_trip_through_random_strategy():
    from crossflip import Strategy, run_strategy

    inst = gen_random(5, seed=11, bbox=(0, 300))
    trace = run_strategy(inst, Strategy("random", seed=3))
    assert trace.complete
    assert replay(inst.points, trace.initial, trace.records) == trace.final
    assert is_noncrossing(inst.points, trace.final)


def test_two_line_crossings_match_inversions_small():
    # points are shared across all permutation matchings of the same n
    for n in range(2, 6):
        ps = gen_two_line(tuple(range(n))).points
        for pi in permutations(range(n)):
            m = Matching.from_pairs([(i, n + pi[i]) for i in range(n)])
            inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if pi[i] > pi[j]
            )
            assert len(find_crossings(ps, m)) == inv


def _point_sets(coords, max_size=10, unique=True):
    return st.lists(st.tuples(coords, coords), min_size=4, max_size=max_size,
                    unique=unique).map(
        lambda pts: PointSet.from_coords(pts[: len(pts) // 2 * 2]))


_budget = st.one_of(st.sampled_from([-COORD_LIMIT, COORD_LIMIT]),
                   st.integers(-COORD_LIMIT, COORD_LIMIT))


def _sheared(n: int, seed: int) -> PointSet:
    return shear_to_distinct_x(gen_random(n, seed=seed, bbox=(0, 64)).points)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_point_sets(_budget, 40, unique=False),
                 st.builds(_sheared, st.integers(2, 12), st.integers(0, 10**4))),
       st.randoms(use_true_random=False))
def test_total_length_is_the_hypot_loop_bit_for_bit(ps, rng):
    """The C-level sum against the ``math.hypot`` loop it replaced, by
    ``repr``: random matchings on sets up to the coordinate budget, where a
    segment can be 2**21 * sqrt(2) long, and on sheared sets."""
    labels = list(range(len(ps)))
    rng.shuffle(labels)
    m = Matching.from_pairs(zip(labels[0::2], labels[1::2]))
    assert repr(total_length(ps, m)) == repr(reference_total_length(ps, m))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_point_sets(st.integers(0, 6)),  # 7x7 grid, degenerate
                 _point_sets(st.integers(-10**4, 10**4))))
def test_reconnections_match_ccw_sort_reference(ps):
    """The one orientation test against the comparator sort it replaced,
    on every properly crossing pair of segments, given in either order with
    endpoints in either order."""
    segments = list(combinations(range(len(ps)), 2))
    for s, t in combinations(segments, 2):
        if set(s) & set(t) or not segments_properly_cross(ps, s, t):
            continue
        want = tuple(reference_reconnection_pairs(ps, (s, t), c) for c in CHOICES)
        quad = reference_ccw_quad_order(ps, (*s, *t))
        for e1, e2 in ((s, t), (t, s)):
            for f1 in (e1, e1[::-1]):
                for f2 in (e2, e2[::-1]):
                    assert crossing_quad(ps, (f1, f2)) == quad
                    assert quad_reconnections(crossing_quad(ps, (f1, f2))) == want
        crossing = (s, t)
        for choice, added in zip(CHOICES, want):
            assert quad_reconnections(crossing_quad(ps, crossing))[
                choice is FlipChoice.RECONNECT_B] == added
            assert reference_choice_yielding(ps, crossing, added) is choice
            assert reference_choice_yielding(ps, crossing, added[::-1]) is choice
        with pytest.raises(ValueError, match="is not a reconnection"):
            reference_choice_yielding(ps, crossing, crossing)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_point_sets(st.integers(0, 6), 24),  # 7x7 grid, degenerate
                 _point_sets(st.integers(-10**4, 10**4), 24)),
       st.randoms(use_true_random=False))
def test_crossing_lists_match_full_pair_tests_along_flip_walks(ps, rng):
    """The side-vector prefilter against the full pair tests it replaced:
    equal lists in equal order at the start and after every flip of a random
    walk, on random sets and on 7x7-grid sets (repeated x, collinear
    triples)."""
    labels = list(range(len(ps)))
    rng.shuffle(labels)
    m = Matching.from_pairs(zip(labels[0::2], labels[1::2]))
    crossings = reference_find_crossings(ps, m)
    assert find_crossings(ps, m) == crossings
    while crossings:
        crossing = rng.choice(crossings)
        m, rec = flip(ps, m, crossing, rng.choice(CHOICES))
        want = reference_crossings_after_flip(ps, m, crossings, crossing, rec.added)
        assert crossings_after_flip(ps, m, crossings, crossing, rec.added) == want
        assert find_crossings(ps, m) == want
        crossings = want


def _assert_batch_test_matches_pair_tests(ps, s, u, segments):
    """The batch test of s and u against the pair tests, on segments
    disjoint from s: the crossings in the order of the crossing segment,
    s's before u's."""
    want = [t for t in segments if segments_properly_cross(ps, s, t)]
    assert reference_crossed_by(ps, s, segments) == want
    assert crossed_by_either(ps, s, u, segments) == [
        crossing_pair(x, t) for t in segments for x in (s, u)
        if not set(x) & set(t) and segments_properly_cross(ps, x, t)]


# coordinates at the budget's edges give lane determinants up to 2**43
_EDGE = st.one_of(
    st.sampled_from([-COORD_LIMIT, -COORD_LIMIT + 1, 0, COORD_LIMIT - 1,
                     COORD_LIMIT]),
    st.integers(-COORD_LIMIT, COORD_LIMIT))
_CORNERS = [(-COORD_LIMIT, -COORD_LIMIT), (COORD_LIMIT, COORD_LIMIT),
            (COORD_LIMIT, -COORD_LIMIT), (-COORD_LIMIT, COORD_LIMIT)]


def _tied_rank(a, b, c, d):
    """A rank of a crossing's four endpoints with many ties."""
    return (a + b + c + d) % 3


def _signed_rank(a, b, c, d):
    """A rank of a crossing's four endpoints that goes below zero."""
    return d - a - c


def _bits(row: int) -> list[int]:
    """The positions of the set bits of ``row``, ascending."""
    return [k for k in range(row.bit_length()) if row >> k & 1]


def _heap_crossings(live) -> list:
    """The distinct keys of a ranked index's heap whose two segments are
    both live, ascending, as (rank, crossing) pairs."""
    quad = len(live.mate) ** 4
    return [(key // quad, live.crossing(key)) for key in sorted(set(live.heap))
            if all(s in live for s in live.crossing(key))]


_INDEX_SETS = st.one_of(_point_sets(st.integers(0, 6), 24),  # 7x7 grid, degenerate
                        _point_sets(st.integers(0, 6), 24, unique=False),  # repeats
                        _point_sets(st.integers(-10**4, 10**4), 24),
                        _point_sets(_EDGE, 24))


@settings(max_examples=100, deadline=None)
@given(_INDEX_SETS,
       st.randoms(use_true_random=False),
       st.sampled_from([1, 1.5, 3, matching._HEAP_SLACK]),
       st.sampled_from([None, _tied_rank, _signed_rank]))
@example(PointSet.from_coords(_CORNERS), random.Random(0), 1, None)
@example(PointSet.from_coords(
    _CORNERS + [(0, -COORD_LIMIT), (0, COORD_LIMIT), (-COORD_LIMIT, 1),
                (COORD_LIMIT, -1)]), random.Random(1), 1, _signed_rank)
def test_live_crossing_index_matches_full_pair_tests_along_flip_walks(
        ps, rng, slack, rank):
    """The bitset index of live crossings against full pair tests and
    against the tuple list it replaced, at the start and after every flip
    of a random walk, on random sets, on 7x7-grid sets (repeated x,
    collinear triples, repeated points) and on sets at the coordinate
    budget's edges: ``live[k]`` runs through the reference list in order;
    with a rank function the heap's live keys decode to the reference list
    sorted by rank (ties in canonical order) and to each crossing's rank,
    and ``first()`` is the first of them; each segment's rows hold exactly
    the lower endpoints of the segments crossing it, ``up`` the higher and
    ``down`` the lower, each bit mirrored in the partner's other row, and
    an upper endpoint's rows are empty; after a flip the removed crossing
    is gone and the added segments' rows hold the crossings the reference
    gains, and the run length equals ``total_length`` bit for bit. A tiny
    heap slack makes the heap rebuild, and after every flip it holds at
    most ``slack`` keys per live crossing. ``crossed_by_either`` agrees
    with ``segments_properly_cross`` pair by pair."""
    labels = list(range(len(ps)))
    rng.shuffle(labels)
    m = Matching.from_pairs(zip(labels[0::2], labels[1::2]))
    segments = list(combinations(range(len(ps)), 2))
    for k, s in enumerate(m.pairs):  # every segment of the set disjoint from s
        _assert_batch_test_matches_pair_tests(
            ps, s, m.pairs[k - 1], [t for t in segments if not set(s) & set(t)])
    with mock.patch.object(matching, "_HEAP_SLACK", slack):
        live = _LiveCrossings(ps, m, rank)
    reference = reference_live_crossings(ps, m)
    while True:
        crossings = reference_find_crossings(ps, m)
        assert crossings == reference.sorted
        assert [live[k] for k in range(len(live))] == crossings
        assert len(live) == len(crossings)
        with pytest.raises(IndexError):
            live[len(live)]
        if rank:
            ranked = sorted((rank(*s, *t), (s, t)) for s, t in crossings)
            assert _heap_crossings(live) == ranked
            assert len(live.heap) <= slack * len(live) or not live.heap
        if crossings:
            assert live.first() == (ranked[0][1] if rank else crossings[0])
        assert live.length().hex() == total_length(ps, m).hex()
        for a, b in m.pairs:
            assert live.mate[a] == b and live.mate[b] == a
            assert _bits(live.up[a]) == sorted(
                t[0] for s, t in crossings if s[0] == a)
            assert _bits(live.down[a]) == sorted(
                s[0] for s, t in crossings if t[0] == a)
            assert all(live.down[c] >> a & 1 for c in _bits(live.up[a]))
            assert not live.up[b] and not live.down[b]
            _assert_batch_test_matches_pair_tests(
                ps, (a, b), m.pairs[-1], [t for t in m.pairs if t != (a, b)])
        if not crossings:
            break
        crossing = rng.choice(crossings)
        m, rec = flip(ps, m, crossing, rng.choice(CHOICES))
        live.flip(crossing, rec.added)
        assert crossing not in [live[k] for k in range(len(live))]
        gained = sorted({crossing_pair((a, b), (c, live.mate[c]))
                         for a, b in rec.added
                         for c in _bits(live.up[a] | live.down[a])})
        assert gained == sorted(reference.flip(m, crossing, rec.added))
        assert gained == [c for c in reference_find_crossings(ps, m)
                          if set(c) & set(rec.added)]


@settings(max_examples=100, deadline=None)
@given(_INDEX_SETS,
       st.randoms(use_true_random=False),
       st.sampled_from([1, 1.5, 3, matching._HEAP_SLACK]),
       st.sampled_from([None, _tied_rank, _signed_rank]))
@example(PointSet.from_coords(_CORNERS), random.Random(0), 1, _tied_rank)
def test_bitset_index_matches_the_sorted_key_index_along_flip_walks(
        ps, rng, slack, rank):
    """The bitset rows and ranked heap of ``_LiveCrossings`` against the
    sorted int keys they replaced (``reference_keyed_crossings``), unranked
    and ranked, at the start and after every flip of a random walk on the
    sets of the index test above: the same length, ``live[k]`` the k-th
    canonical crossing for every k, the same canonical first crossing, the
    same first crossing by rank, the same seeded draw (``rng.choice(live)``
    against ``rng.choice(keys)`` of the unranked keys) and the same
    ``length()``, bit for bit. A tiny heap slack forces heap rebuilds."""
    labels = list(range(len(ps)))
    rng.shuffle(labels)
    m = Matching.from_pairs(zip(labels[0::2], labels[1::2]))
    with mock.patch.object(matching, "_HEAP_SLACK", slack):
        live = _LiveCrossings(ps, m, rank)
    plain = reference_keyed_crossings(ps, m)
    ranked = reference_keyed_crossings(ps, m, rank)
    seed = rng.getrandbits(32)
    while True:
        assert len(live) == len(plain) == len(ranked)
        assert [live[k] for k in range(len(live))] == [
            plain.crossing(key) for key in plain.keys]
        assert live.length().hex() == plain.length().hex() == ranked.length().hex()
        if not live:
            break
        assert live[0] == plain.crossing(plain.keys[0])
        assert live.first() == ranked.crossing(ranked.keys[0])
        assert random.Random(seed).choice(live) == plain.crossing(
            random.Random(seed).choice(plain.keys))
        crossing = rng.choice([live[k] for k in range(len(live))])
        added = quad_reconnections(crossing_quad(ps, crossing))[rng.random() < 0.5]
        for index in (live, plain, ranked):
            index.flip(crossing, added)
        seed += 1


def _flip_error_text(ps, pairs, crossing) -> str:
    with pytest.raises(FlipError) as info:
        check_live(ps, pairs, crossing)
    return str(info.value)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_point_sets(st.integers(0, 6)),  # 7x7 grid, degenerate
                 _point_sets(st.integers(-10**4, 10**4)),
                 _point_sets(_EDGE)),
       st.randoms(use_true_random=False))
@example(PointSet.from_coords(_CORNERS), random.Random(0))
def test_check_live_returns_the_crossing_quad(ps, rng):
    """The one checked flip step against its two parts, for pairs given as
    the matching's tuple (``flip``, ``decrement_audit``), as a list (the
    run index's slots) and as a set (replay's): every live crossing of a
    drawn matching gets its ``crossing_quad``, and a stale crossing, a
    non-crossing pair of the matching and a segment paired with itself
    raise FlipError with one text for all three containers."""
    labels = list(range(len(ps)))
    rng.shuffle(labels)
    m = Matching.from_pairs(zip(labels[0::2], labels[1::2]))
    containers = (m.pairs, list(m.pairs), set(m.pairs))
    crossings = reference_find_crossings(ps, m)
    for crossing in crossings:
        quad = crossing_quad(ps, crossing)
        assert [check_live(ps, pairs, crossing) for pairs in containers] == [quad] * 3
    s = m.pairs[0]
    stale = [(s, t) for t in combinations(range(len(ps)), 2)
             if t not in m.pairs and not set(s) & set(t)]
    quiet = [c for c in combinations(m.pairs, 2) if c not in crossings]
    for bad in stale + quiet + [(t, t) for t in m.pairs]:
        texts = {_flip_error_text(ps, pairs, bad) for pairs in containers}
        stale_text = f"crossing {bad} is not part of the matching"
        assert texts == {stale_text if bad in stale else
                         f"segments {bad[0]} and {bad[1]} do not cross"}


@settings(max_examples=100, deadline=None)
@given(st.one_of(_point_sets(st.integers(0, 6), 24),  # 7x7 grid, degenerate
                 _point_sets(st.integers(0, 6), 24, unique=False),  # repeats
                 _point_sets(st.integers(-10**4, 10**4), 24),
                 _point_sets(_EDGE, 24)),
       st.randoms(use_true_random=False))
@example(PointSet.from_coords(_CORNERS), random.Random(0))
@example(PointSet.from_coords(
    _CORNERS + [(0, -COORD_LIMIT), (0, COORD_LIMIT), (-COORD_LIMIT, 1),
                (COORD_LIMIT, -1)]), random.Random(1))
def test_slot_lanes_match_point_lanes_along_flip_walks(ps, rng):
    """The crossers of every live segment by the n slot lanes of
    ``_LiveCrossings`` against the 2n point lanes they replaced, at the
    start and after every flip of a random walk, on the sets of the index
    test above, whose determinants reach 2**43: the same segments, in slot
    order, with slot k holding ``pairs[k]``, ``slot`` mapping each lower
    endpoint back to its slot, ``mate`` each endpoint to its partner, and
    the segment's two crossing rows holding exactly those segments' lower
    endpoints."""
    labels = list(range(len(ps)))
    rng.shuffle(labels)
    m = Matching.from_pairs(zip(labels[0::2], labels[1::2]))
    live = _LiveCrossings(ps, m)
    assert live.pairs == list(m.pairs)  # canonical order at the start
    while True:
        assert sorted(live.pairs) == list(m.pairs)
        assert all(live.slot[a] == k for k, (a, _) in enumerate(live.pairs))
        partner = dict(m.pairs)
        assert all(live.mate[a] == b and live.mate[b] == a for a, b in m.pairs)
        for s in m.pairs:
            got = list(live._crossers(*s))
            assert got == sorted(got, key=live.pairs.index)
            lows = reference_point_lane_crossers(ps, m, s)
            assert sorted(got) == [(r, partner[r]) for r in lows]
            assert _bits(live.up[s[0]] | live.down[s[0]]) == lows
        crossings = find_crossings(ps, m)
        if not crossings:
            break
        crossing = rng.choice(crossings)
        m, rec = flip(ps, m, crossing, rng.choice(CHOICES))
        live.flip(crossing, rec.added)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_point_sets(st.integers(0, 6), 24),  # 7x7 grid, degenerate
                 _point_sets(st.integers(0, 6), 24, unique=False),  # repeats
                 _point_sets(_EDGE, 24)),
       st.randoms(use_true_random=False))
@example(PointSet.from_coords(_CORNERS), random.Random(0))
@example(PointSet.from_coords(
    _CORNERS + [(0, -COORD_LIMIT), (0, COORD_LIMIT), (-COORD_LIMIT, 1),
                (COORD_LIMIT, -1)]), random.Random(1))
def test_crossing_count_matches_the_pair_loop(ps, rng):
    """``crossing_count``, the halved sum of every segment's crossers on
    one lane table, against the pair loop of ``crossing_count_brute``, at
    the start and after every flip of a random walk, on 7x7-grid sets
    (repeated x, collinear triples, repeated points) and on sets at the
    coordinate budget's edges, whose determinants reach 2**43."""
    labels = list(range(len(ps)))
    rng.shuffle(labels)
    m = Matching.from_pairs(zip(labels[0::2], labels[1::2]))
    while True:
        assert crossing_count(ps, m) == crossing_count_brute(ps, m)
        crossings = find_crossings(ps, m)
        if not crossings:
            break
        m, _ = flip(ps, m, rng.choice(crossings), rng.choice(CHOICES))


def test_crossing_count_is_remembered_per_point_set(monkeypatch):
    """A run's index leaves its start's crossing count on the start
    matching, for the run's point set, so ``crossing_count`` of the trace's
    initial matching, which ``write_trace`` writes in row 0, builds no lane
    table; an equal point set that is another object is counted afresh,
    once."""
    from crossflip import Instance, parse_strategy

    raw = gen_random(30, seed=4)
    inst = Instance(shear_to_distinct_x(raw.points), raw.matching, raw.provenance)
    trace = run_strategy(inst, parse_strategy("greedy-x"))
    assert trace.initial is inst.matching
    real, built = matching._SegmentLanes, []
    monkeypatch.setattr(matching, "_SegmentLanes",
                        lambda *args: built.append(args) or real(*args))
    want = crossing_count_brute(inst.points, inst.matching)
    assert crossing_count(inst.points, trace.initial) == want and built == []
    twin = PointSet(inst.points.points)
    assert crossing_count(twin, trace.initial) == want and len(built) == 1
    assert crossing_count(twin, trace.initial) == want and len(built) == 1


@pytest.mark.parametrize("load", [1, 2, 3])
def test_sorted_ints_split_and_merge_blocks_like_a_sorted_list(
        monkeypatch, load):
    """The blocked sorted list of the key-index oracle: random inserts and
    deletes against a plain sorted list, with tiny block loads: length,
    iteration, every index, and the block bounds."""
    monkeypatch.setattr(oracles, "SORTED_INTS_LOAD", load)
    rng = random.Random(load)
    want = sorted(rng.sample(range(1000), 40))
    got = reference_sorted_ints(list(want))
    counts = []
    for step in range(600):
        if want and (step // 150 % 2 or rng.random() < 0.4):
            value = rng.choice(want)
            want.remove(value)
            got.remove(value)
        else:
            value = rng.choice([v for v in range(1000) if v not in want])
            insort(want, value)
            got.add(value)
        assert len(got) == len(want) and list(got) == want
        assert [got[k] for k in range(len(want))] == want
        assert all(0 < len(b) <= 2 * load for b in got.blocks)
        # a block cut to load / 2 is merged, so only the last may be short
        assert all(len(b) > load >> 1 for b in got.blocks[:-1])
        assert got.maxes == [b[-1] for b in got.blocks]
        counts.append(len(got.blocks))
    assert any(b > a for a, b in zip(counts, counts[1:]))  # splits
    assert any(b < a for a, b in zip(counts, counts[1:]))  # merges
    with pytest.raises(IndexError):
        got[len(want)]


def _fuzz_flips(seed: int, flips: int):
    """(ps, m, crossing, choice, phi_l) for each flip of the acceptance fuzz
    recipe from ``seed``: n uniform in [2, 10], a sheared ``gen_random`` set
    in [0, 512]^2, three random starts per set and random crossings and
    choices until non-crossing, with phi_L tracked by the audits. Each flip
    is made by ``flip`` and audited after it, so the audit finds the quad
    the flip left on m, and the next flip the length it left on m2."""
    rng = random.Random(seed)
    done = 0
    while done < flips:
        n = rng.randint(2, 10)
        ps = shear_to_distinct_x(gen_random(n, seed=rng.getrandbits(32),
                                            bbox=(0, 512)).points)
        for _ in range(3):
            order = list(range(2 * n))
            rng.shuffle(order)
            m = Matching.from_pairs(zip(order[0::2], order[1::2]))
            phi_l = phi_lines(ps, m)
            crossings = find_crossings(ps, m)
            while crossings and done < flips:
                crossing, choice = rng.choice(crossings), rng.choice(CHOICES)
                m2, rec = flip(ps, m, crossing, choice)
                audit = decrement_audit(ps, m, crossing, choice, phi_l_before=phi_l)
                yield ps, m, crossing, choice, phi_l, m2, rec, audit
                crossings = crossings_after_flip(ps, m2, crossings, crossing, rec.added)
                phi_l, m = audit.phi_l_after, m2
                done += 1


def test_remembered_flips_and_audits_equal_cold_calls():
    """Along a seeded run of the fuzz recipe, where each flip's audit reuses
    the quad the flip left on its matching and each flip the length the
    one before left: every successor, record and audit equals the one from
    cold calls on fresh, equal but not identical point sets, matchings and
    crossings, which find nothing remembered, and the successor and record
    equal the replaced flip's, both lengths summed in full."""
    count = 0
    for ps, m, crossing, choice, phi_l, m2, rec, audit in _fuzz_flips(27, 1500):
        cold_ps = PointSet(tuple(ps.points))
        cold_crossing = tuple(tuple(s) for s in crossing)
        assert cold_ps is not ps and cold_crossing is not crossing
        cold = flip(cold_ps, Matching(m.pairs), cold_crossing, choice)
        assert (m2, rec) == cold == oracles.reference_flip(ps, m, crossing, choice)
        assert (rec.length_before.hex(), rec.length_after.hex()) == (
            cold[1].length_before.hex(), cold[1].length_after.hex())
        assert audit == decrement_audit(cold_ps, Matching(m.pairs), cold_crossing,
                                        choice, phi_l_before=phi_l)
        count += 1
    assert count == 1500


def test_one_matching_audited_under_two_point_sets():
    """One matching flipped and audited in turn under a point set and its
    mirror image, whose quads run the other way round, and under the set
    scaled by 2, whose lengths double: each call gets its own set's length,
    quad and audit, as a cold call does, however the calls interleave."""
    raw = gen_random(6, seed=3, bbox=(0, 200))
    ps = shear_to_distinct_x(raw.points)
    mirror = shear_to_distinct_x(PointSet.from_coords((-x, y) for x, y in ps))
    double = PointSet.from_coords((2 * x, 2 * y) for x, y in ps)
    m = raw.matching
    crossing = find_crossings(ps, m)[0]
    assert crossing in find_crossings(mirror, m) and crossing in find_crossings(double, m)
    sets = (ps, mirror, double, mirror, ps, double, ps)
    for choice in CHOICES:
        for here in sets:
            cold = PointSet(tuple(here.points))
            assert flip(here, m, crossing, choice) == flip(
                cold, Matching(m.pairs), crossing, choice)
            assert decrement_audit(here, m, crossing, choice) == decrement_audit(
                cold, Matching(m.pairs), crossing, choice)
            assert total_length(here, m) == total_length(cold, Matching(m.pairs))
    assert total_length(double, m) == 2 * total_length(ps, m)
    assert (check_live(ps, m, crossing)[1], check_live(mirror, m, crossing)[3]) == (
        check_live(mirror, m, crossing)[3], check_live(ps, m, crossing)[1])


def test_remembered_quad_is_matched_by_identity():
    """A matching remembers the quad of the crossing object it last passed,
    and only of a tuple: an equal crossing with a bool endpoint is still
    refused after its int twin passed, and a list crossing that passed is
    checked again after it is changed in place."""
    raw = gen_random(6, seed=3, bbox=(0, 200))
    ps, m = shear_to_distinct_x(raw.points), raw.matching
    choice = FlipChoice.RECONNECT_A
    crossing = ((0, 7), (1, 9))
    flip(ps, m, crossing, choice)
    decrement_audit(ps, m, crossing, choice)
    twin = ((0, 7), (True, 9))
    assert twin == crossing
    for step in (flip, apply_flip):
        with pytest.raises(FlipError, match="not part of the matching"):
            step(ps, m, twin, choice)
    as_list = [(0, 7), (1, 9)]
    flip(ps, m, as_list, choice)
    as_list[1] = (2, 3)
    with pytest.raises(FlipError, match="do not cross"):
        decrement_audit(ps, m, as_list, choice)


def test_private_record_constructor_builds_the_dataclass_record():
    """``_record`` fills a record's instance dict at once: the record
    equals, hashes and reprs as the dataclass ``__init__``'s, and still
    refuses assignment; an audit, which holds a dict, equals and reprs as
    its ``__init__``'s."""
    from crossflip import DecrementAudit, FlipRecord, LineType
    from crossflip.matching import _record

    values = (((0, 7), (1, 9)), FlipChoice.RECONNECT_B, ((0, 1), (7, 9)),
              2.5, 1.5, 3, 40, 36, 12, 10)
    for given in (values, values[:5] + (None,) * 5):
        fast, slow = _record(FlipRecord, *given), FlipRecord(*given)
        assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
        assert vars(fast) == vars(slow)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.length_after = 0.0
    counts = dict.fromkeys(LineType, 1)
    given = (((0, 7), (1, 9)), FlipChoice.RECONNECT_A, ((0, 1), (7, 9)),
             counts, -4, 40, 36, 0, 12, 12, None)
    fast, slow = _record(DecrementAudit, *given), DecrementAudit(*given)
    assert fast == slow and repr(fast) == repr(slow)
    assert fast.to_json_dict() == slow.to_json_dict()
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.delta_phi_l = 0
