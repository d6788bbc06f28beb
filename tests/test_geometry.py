import gc
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossflip import (
    COORD_LIMIT,
    CoordinateOverflowError,
    Point,
    PointSet,
    orient,
    seg,
    segments_properly_cross,
    shear_to_distinct_x,
    validate_general_position,
)
from crossflip import geometry, potentials
from crossflip.geometry import first_collinear_pair, slope_keys
from crossflip.potentials import x_ranks

from oracles import (
    direction,
    reference_ccw_quad_order,
    reference_crossed_by_either,
    reference_first_collinear_pair,
    reference_lane_columns,
    reference_general_position,
    reference_segment_lanes,
    reference_segments_properly_cross,
    reference_line_masks,
    reference_top_bits,
)

SQUARE = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
# the six-point set behind the reappearing-segment script, scaled to integers
FIG_SIX = PointSet.from_coords(
    [(0, 8), (10, 0), (10, 20), (20, 0), (20, 20), (30, 8)]
)

coords = st.integers(min_value=-1000, max_value=1000)
points = st.builds(Point, coords, coords)


def test_orient_canonical_triples():
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orient(Point(0, 0), Point(1, 1), Point(2, 2)) == 0
    assert orient(Point(0, 0), Point(1, 0), Point(1, -1)) == -1


@given(points, points, points)
def test_orient_antisymmetric_under_swaps(p, q, r):
    assert orient(p, q, r) == -orient(q, p, r)
    assert orient(p, q, r) == -orient(p, r, q)


def test_square_diagonals_cross_sides_do_not():
    assert segments_properly_cross(SQUARE, seg(0, 2), seg(1, 3))
    assert not segments_properly_cross(SQUARE, seg(0, 1), seg(2, 3))
    assert not segments_properly_cross(SQUARE, seg(1, 2), seg(0, 3))


def test_fig_six_known_crossing():
    assert segments_properly_cross(FIG_SIX, seg(1, 4), seg(2, 3))


def test_shared_endpoint_rejected():
    with pytest.raises(ValueError, match="share an endpoint"):
        segments_properly_cross(SQUARE, seg(0, 1), seg(1, 2))


def test_crossing_predicate_symmetric():
    for s, t in [(seg(0, 2), seg(1, 3)), (seg(0, 1), seg(2, 3))]:
        assert segments_properly_cross(SQUARE, s, t) == segments_properly_cross(
            SQUARE, t, s
        )


def test_general_position_fig_six_ok():
    assert validate_general_position(FIG_SIX) is None


def test_general_position_reports_first_collinear_triple():
    ps = PointSet.from_coords([(0, 0), (1, 1), (2, 2), (5, 0)])
    assert validate_general_position(ps) == (0, 1, 2)


def test_general_position_reports_duplicate_before_triples():
    ps = PointSet.from_coords([(0, 0), (0, 0), (1, 2), (3, 4)])
    assert validate_general_position(ps) == (0, 1)


def test_pointset_rejects_odd_size_and_overflow():
    with pytest.raises(ValueError):
        PointSet.from_coords([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(CoordinateOverflowError):
        PointSet.from_coords([(0, 0), (COORD_LIMIT + 1, 0)])


@pytest.mark.parametrize("build", [
    lambda: PointSet.from_coords([(0.5, "1"), (2.9, 3)]),
    lambda: PointSet.from_coords([(0, 0), (2.0, 3)]),
    lambda: PointSet.from_coords([(0, 0), (True, 3)]),
    lambda: PointSet.from_coords([(0, "1"), (2, 3)]),
    lambda: PointSet((Point(0.5, 1), Point(2, 3))),
    lambda: PointSet((Point(0, 0), Point(2, 3.0))),
], ids=["floats-and-string", "float", "bool", "string", "float-point",
        "float-point-y"])
def test_pointset_refuses_coordinates_that_are_not_ints(build):
    """A float, string or bool coordinate is refused with the offending
    point named, not converted by ``int()`` or let through to the exact
    predicates."""
    with pytest.raises(ValueError, match=r"point \d+ = .* not an int"):
        build()


@pytest.mark.parametrize("points, message", [
    (((0, 0), (1, 1)), r"point 0 = \(0, 0\) is not a Point"),
    ((Point(0, 0), [1, 1]), r"point 1 = \[1, 1\] is not a Point"),
    ([Point(0, 0), Point(1, 1)], "points are a list, not a tuple"),
], ids=["plain-tuples", "list-entry", "list-container"])
def test_pointset_refuses_entries_that_are_not_points(points, message):
    """A plain tuple entry or a list container is refused with a
    ValueError naming it, not an AttributeError or a failed hash."""
    with pytest.raises(ValueError, match=message):
        PointSet(points)


def test_equal_point_sets_hit_the_same_cache_entries():
    """The hash and ``has_distinct_x`` are computed once per set: the hash
    is that of the points, equality still compares the points, and an equal
    but distinct set hits every per-set cache its twin filled."""
    coords = [(0, 8), (10, 0), (10, 20), (20, 0), (20, 20), (30, 8)]
    twin_a, twin_b = PointSet.from_coords(coords), PointSet.from_coords(coords)
    assert twin_a is not twin_b and twin_a == twin_b
    assert hash(twin_a) == hash(twin_b) == hash(twin_a.points)
    assert twin_a != PointSet.from_coords(coords[::-1])
    assert not twin_a.has_distinct_x()
    ps = shear_to_distinct_x(twin_a)
    assert ps.has_distinct_x() and hash(ps) == hash(ps.points)
    twin = PointSet(tuple(ps.points))
    assert twin is not ps and twin == ps
    for cached in (x_ranks, potentials._line_masks):
        value = cached(ps)
        before = cached.cache_info()
        assert cached(twin) is value
        after = cached.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_shear_identity_when_x_distinct():
    ps = PointSet.from_coords([(0, 0), (1, 5), (3, 1), (4, 2)])
    assert shear_to_distinct_x(ps) is ps


def test_shear_frozen_example():
    ps = PointSet.from_coords([(0, 0), (0, 5), (3, 1), (4, 2)])
    sheared = shear_to_distinct_x(ps)
    assert [(p.x, p.y) for p in sheared] == [(0, 0), (5, 5), (34, 1), (46, 2)]
    # orientation signs survive, by hand-checking every triple
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert orient(ps[i], ps[j], ps[k]) == orient(
                    sheared[i], sheared[j], sheared[k]
                )


def test_shear_preserves_crossing_structure():
    sheared = shear_to_distinct_x(FIG_SIX)
    assert sheared.has_distinct_x()
    idx = range(len(FIG_SIX))
    for a in idx:
        for b in idx:
            for c in idx:
                for d in idx:
                    if len({a, b, c, d}) < 4 or a >= b or c >= d or (a, b) >= (c, d):
                        continue
                    assert segments_properly_cross(
                        FIG_SIX, (a, b), (c, d)
                    ) == segments_properly_cross(sheared, (a, b), (c, d))


def test_shear_overflow_rejected():
    big = COORD_LIMIT // 2
    ps = PointSet.from_coords([(big, big), (big, -big), (0, 0), (1, 7)])
    with pytest.raises(CoordinateOverflowError):
        shear_to_distinct_x(ps)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-500, max_value=500),
            st.integers(min_value=-500, max_value=500),
        ),
        min_size=4, max_size=8, unique=True,
    ).filter(lambda pts: len(pts) % 2 == 0),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-20, max_value=20),
)
def test_positive_determinant_maps_preserve_orientation(raw, scale, shear):
    """Any map (x, y) -> (scale*x + shear*y, y) with scale > 0 keeps every
    orientation sign."""
    ps = PointSet.from_coords(raw)
    mapped = PointSet.from_coords(
        [(scale * p.x + shear * p.y, p.y) for p in ps]
    )
    m = len(ps)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                assert orient(ps[i], ps[j], ps[k]) == orient(
                    mapped[i], mapped[j], mapped[k]
                )


# a small grid makes repeated x, collinear triples and repeated points common
grid = st.integers(min_value=-3, max_value=3)
small_sets = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.builds(Point, grid, grid), min_size=2 * n,
                       max_size=2 * n)
)


@settings(max_examples=200)
@given(small_sets)
@example([Point(0, 0), Point(1, 1), Point(2, 2), Point(0, 5)])
@example([Point(1, 0), Point(1, 2), Point(1, 2), Point(3, 1)])
def test_side_masks_agree_with_orient(pts):
    """Each point's perturbed-line mask (``potentials._line_masks``) holds
    PLUS bit k when orient(p_a, p_b, p) > 0 and MINUS bit K + k when it is
    >= 0, for the k-th of the K anchor pairs, on 7x7-grid sets."""
    ps = PointSet(tuple(pts))
    masks = potentials._line_masks(ps)
    anchors = [(a, b) for a in range(len(pts)) for b in range(a + 1, len(pts))]
    K = len(anchors)
    for r, p in enumerate(pts):
        assert masks[r] >> 2 * K == 0
        for k, (a, b) in enumerate(anchors):
            sign = orient(pts[a], pts[b], p)
            plus, minus = masks[r] >> k & 1, masks[r] >> K + k & 1
            assert (plus, minus) == (sign > 0, sign >= 0)
        # every anchor pair holding r puts r on its line: MINUS bit, no PLUS
        assert all(masks[r] >> K + k & 1 and not masks[r] >> k & 1
                   for k, pair in enumerate(anchors) if r in pair)


def _sets_of(coordinate):
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(st.builds(Point, coordinate, coordinate),
                           min_size=2 * n, max_size=2 * n)
    )


# coordinates at the budget's edges give determinants up to 2**43, the
# largest a 48-bit lane has to hold
edge = st.one_of(
    st.sampled_from([-COORD_LIMIT, -COORD_LIMIT + 1, 0, COORD_LIMIT - 1,
                     COORD_LIMIT]),
    st.integers(min_value=-COORD_LIMIT, max_value=COORD_LIMIT),
)


@settings(max_examples=400)
@given(st.one_of(_sets_of(coords), small_sets, _sets_of(edge)))
@example([Point(-COORD_LIMIT, -COORD_LIMIT), Point(COORD_LIMIT, COORD_LIMIT),
          Point(COORD_LIMIT, -COORD_LIMIT), Point(-COORD_LIMIT, COORD_LIMIT)])
@example([Point(COORD_LIMIT, COORD_LIMIT)] * 4)
def test_side_masks_match_reference_loop(pts):
    """The perturbed-line masks read off the packed lanes
    (``potentials._line_masks``) against those built from the
    per-(anchor, point) loop, bit for bit: random sets, 7x7-grid sets with
    repeated points and collinear triples, and sets at the coordinate
    budget's edges."""
    ps = PointSet(tuple(pts))
    assert potentials._line_masks(ps) == reference_line_masks(ps)


@pytest.mark.parametrize("n", range(1, 9))
def test_certified_sets_read_their_masks_off_one_readout(n):
    """On sets certified to be in general position, the random and convex
    generators' and their shears, ``_line_masks`` adds a point's own anchor
    pairs to its PLUS bits for its MINUS bits instead of a second readout:
    the masks are still those of the per-(anchor, point) loop, bit for bit.
    A sheared set of the 64 x 64 box has determinants far from the
    coordinate budget's, and the convex set is degenerate nowhere."""
    from crossflip import gen_convex, gen_random

    raw = gen_random(n, seed=n, bbox=(0, 64)).points
    for ps in (raw, shear_to_distinct_x(raw), gen_convex(n).points):
        assert ps._certified
        assert potentials._line_masks(ps) == reference_line_masks(ps)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_sets_of(coords), small_sets, _sets_of(edge)))
@example([Point(COORD_LIMIT, COORD_LIMIT)] * 4)
def test_lane_columns_match_one_row_per_segment(pts):
    """The five int columns of a ``_SegmentLanes`` table, packed column by
    column in C, against those summed lane by lane from one row of values
    per segment, bit for bit: every segment of the set with its endpoints
    in either order, on the sets of the mask test above; and a table of the
    segments in reverse whose lanes ``move`` one at a time to them holds
    the same columns."""
    ps = PointSet(tuple(pts))
    segments = list(combinations(range(len(ps)), 2))
    for segs in (segments, [s[::-1] for s in segments]):
        want = reference_lane_columns(ps, segs)
        assert _columns(geometry._SegmentLanes(ps, segs)) == want
        table = geometry._SegmentLanes(ps, segs[::-1])
        for k, s in enumerate(segs):
            table.move([k], [segs[-1 - k]], [s])
        assert _columns(table) == want


def _columns(table) -> list[int]:
    return [table.ax, table.ay, table.dx, table.dy, table.q]


def _lane_values(lanes: int, count: int, width: int) -> list[int]:
    """The ``count`` lanes of ``width`` bits, each less the table's bias."""
    mask = (1 << width) - 1
    return [(lanes >> width * k & mask) - (mask >> 1) for k in range(count)]


#: the four corners of the coordinate budget, whose determinants reach 2**43
_CORNERS = [Point(-COORD_LIMIT, -COORD_LIMIT), Point(COORD_LIMIT, COORD_LIMIT),
            Point(COORD_LIMIT, -COORD_LIMIT), Point(-COORD_LIMIT, COORD_LIMIT)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_sets_of(coords), small_sets, _sets_of(edge)))
@example(_CORNERS)
@example(_CORNERS + [Point(0, -COORD_LIMIT), Point(0, COORD_LIMIT),
                     Point(-COORD_LIMIT, 1), Point(COORD_LIMIT, -1)])
@example([Point(COORD_LIMIT, COORD_LIMIT)] * 4)
def test_lane_table_matches_the_64_bit_oracle(pts):
    """The 48-bit table against the 64-bit table it replaced, on every
    segment of the set, with its endpoints in either order: each point's
    ``sides`` holds the same determinants lane by lane, and ``_top_bits``
    reads the same signs off them, with and without ``ones`` added; each
    segment's ``straddle`` test sets the same lanes' top bits,
    ``crossers`` gives the same bits, and ``crossing_flags`` spells them
    out from any start lane. Random, 7x7-grid (collinear and repeated
    points) and budget-edge sets, and the budget's corners, where |d|
    reaches 2**43."""
    ps = PointSet(tuple(pts))
    segments = list(combinations(range(len(ps)), 2))
    segs = segments + [s[::-1] for s in segments]
    table = geometry._SegmentLanes(ps, segs)
    oracle = reference_segment_lanes(ps, segs)
    count = len(segs)
    for x, y in zip(table.xs, table.ys):
        got, want = table.sides(x, y), oracle.sides(x, y)
        assert _lane_values(got, count, 48) == _lane_values(want, count, 64)
        for shift in (0, 1):
            assert (geometry._top_bits(got + shift * table.ones, count)
                    == reference_top_bits(want + shift * oracle.ones, count))
    for a, b in segs:
        bits = oracle.crossers(a, b)
        assert geometry._top_bits(table.straddle(a, b), count) == bits
        assert table.crossers(a, b) == bits
        start = (a * b) % count
        assert table.crossing_flags(a, b, start) == bytes(
            bits >> k & 1 for k in range(start, count))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_sets_of(coords), small_sets, _sets_of(edge)),
       st.randoms(use_true_random=False))
@example(_CORNERS, random.Random(0))
def test_moved_lane_table_equals_a_fresh_one(pts, rng):
    """A table after a random sequence of ``move`` calls, each putting new
    segments in one or two distinct lanes, has the columns of a table built
    afresh from the segments its lanes then hold."""
    ps = PointSet(tuple(pts))
    segments = list(combinations(range(len(ps)), 2))
    held = [rng.choice(segments) for _ in range(rng.randint(1, 8))]
    table = geometry._SegmentLanes(ps, held)
    for _ in range(12):
        slots = rng.sample(range(len(held)), min(len(held), rng.randint(1, 2)))
        new = [rng.choice(segments)[::rng.choice((1, -1))] for _ in slots]
        table.move(slots, [held[k] for k in slots], new)
        for k, s in zip(slots, new):
            held[k] = s
        assert _columns(table) == _columns(geometry._SegmentLanes(ps, held))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_sets_of(coords), small_sets, _sets_of(edge)),
       st.randoms(use_true_random=False))
@example([Point(0, 0), Point(2, 2), Point(1, 1), Point(1, 3)], None)  # touching
def test_crossed_by_either_is_a_pass_per_segment(pts, rng):
    """One pass for two segments against a reference pass for each: the
    same crossings, each as its two segments, the lower first, in the
    order of the crossing segment. The two are disjoint segments of the
    set, drawn at random, and the segments they meet are all of the set's,
    so every kind of degenerate pair comes up on the 7x7 grid."""
    ps = PointSet(tuple(pts))
    segments = list(combinations(range(len(ps)), 2))
    pairs = [(s, u) for s, u in product(segments, repeat=2) if not set(s) & set(u)]
    for s, u in pairs if rng is None else rng.sample(pairs, min(len(pairs), 6)):
        assert (geometry.crossed_by_either(ps, s, u, segments)
                == reference_crossed_by_either(ps, s, u, segments))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_sets_of(coords), small_sets, _sets_of(edge)))
@example([Point(-COORD_LIMIT, -COORD_LIMIT), Point(COORD_LIMIT, COORD_LIMIT),
          Point(COORD_LIMIT, -COORD_LIMIT), Point(-COORD_LIMIT, COORD_LIMIT)])
@example([Point(0, 0), Point(2, 2), Point(1, 1), Point(1, 3)])  # touching
def test_segments_properly_cross_matches_four_orient_reference(pts):
    """The inline determinants against the four ``orient`` calls they
    replaced, on every ordered pair of segments with endpoints in either
    order: random sets, 7x7-grid sets (repeated x and points, collinear
    triples) and sets at the coordinate budget's edges. A pair sharing an
    endpoint raises ValueError in both."""
    ps = PointSet(tuple(pts))
    segments = list(combinations(range(len(ps)), 2))
    for s, t in product(segments, repeat=2):
        if set(s) & set(t):
            for test in (segments_properly_cross,
                         reference_segments_properly_cross):
                with pytest.raises(ValueError, match="share an endpoint"):
                    test(ps, s, t[::-1])
            continue
        want = reference_segments_properly_cross(ps, s, t)
        assert segments_properly_cross(ps, s, t) is want
        assert segments_properly_cross(ps, s[::-1], t) is want


@settings(max_examples=150, deadline=None)
@given(st.one_of(_sets_of(coords), small_sets, _sets_of(edge)))
@example(_CORNERS)
@example([Point(0, 0), Point(2, 2), Point(1, 1), Point(1, 3)])  # touching
def test_proper_crossing_quad_is_the_pair_test_and_the_ccw_quad(pts):
    """``proper_crossing_quad`` against the four-``orient`` pair test and
    the comparator sort of the quad: None exactly when the two segments do
    not properly cross, equal segments and those sharing an endpoint
    included, and otherwise the four endpoints in ccw order from the
    lowest, for the segments in either order with their endpoints in
    either order, on the sets of the pair test above."""
    ps = PointSet(tuple(pts))
    segments = list(combinations(range(len(ps)), 2))
    for s, t in product(segments, repeat=2):
        crosses = not set(s) & set(t) and reference_segments_properly_cross(ps, s, t)
        want = reference_ccw_quad_order(ps, (*s, *t)) if crosses else None
        for u, v in ((s, t), (t[::-1], s), (s[::-1], t[::-1])):
            assert geometry.proper_crossing_quad(ps, u, v) == want


def test_certification_survives_the_collection_of_an_equal_set(monkeypatch):
    """Certification marks the set object itself: a certified set stays
    certified after an equal certified set is collected, and its validation
    scans nothing."""
    from crossflip import gen_convex

    a = gen_convex(3).points
    b = gen_convex(3).points
    assert a == b and a is not b
    del a
    gc.collect()
    assert b._certified
    scans = []
    monkeypatch.setattr(geometry, "first_collinear_pair",
                        lambda *args: scans.append(args))
    assert validate_general_position(b) is None and scans == []


def test_uncertified_sets_are_scanned_and_their_shears_stay_uncertified():
    degenerate = PointSet.from_coords([(0, 0), (1, 1), (2, 2), (0, 5)])
    sheared = shear_to_distinct_x(degenerate)
    assert sheared != degenerate
    for ps in (degenerate, sheared):
        assert not ps._certified
        assert validate_general_position(ps) == (0, 1, 2)
        assert reference_general_position(ps) == (0, 1, 2)
    # in general position but never certified: the shear certifies nothing,
    # until a scan of the set passes
    plain = PointSet.from_coords([(0, 0), (0, 3), (2, 1), (5, 4)])
    assert not shear_to_distinct_x(plain)._certified
    assert validate_general_position(plain) is None
    assert plain._certified and shear_to_distinct_x(plain)._certified


@settings(max_examples=300)
@given(small_sets)
# duplicate pairs (1, 2) and (0, 3): the lexicographically first is (0, 3)
@example([Point(0, 0), Point(1, 1), Point(1, 1), Point(0, 0)])
# triples (0, 1, 4) and (0, 2, 3) through point 0, found in the other order
@example([Point(0, 0), Point(1, 0), Point(0, 1), Point(0, 2), Point(2, 0),
          Point(3, 3)])
@example([Point(0, 0), Point(1, 1), Point(2, 2), Point(0, 5)])
def test_general_position_matches_triple_loop(pts):
    ps = PointSet(tuple(pts))
    assert validate_general_position(ps) == reference_general_position(ps)


@st.composite
def fans(draw):
    """A point p and others (none equal to p) around it: drawn in a small
    box, where many are collinear with p and some lie straight above or
    below it, or with coordinates up to +-COORD_LIMIT, so that |dx| reaches
    2 * COORD_LIMIT, or as multiples of a few wide directions from p."""
    span = draw(st.sampled_from([2, 30, COORD_LIMIT]))
    coord = st.integers(-span, span) | st.sampled_from([-COORD_LIMIT, 0, COORD_LIMIT])
    p = Point(draw(coord), draw(coord))
    wide = st.integers(-COORD_LIMIT, COORD_LIMIT)
    steps = draw(st.lists(st.tuples(wide, wide), min_size=1, max_size=3))
    along = st.builds(lambda d, t: Point(p.x + t * d[0], p.y + t * d[1]),
                      st.sampled_from(steps), st.integers(-2, 2))
    others = draw(st.lists(st.builds(Point, coord, coord) | along, max_size=12))
    return p, [q for q in others if q != p]


@settings(max_examples=400)
@given(fans())
# |dx| up to 2 * COORD_LIMIT, with the two slopes closest to each other
@example((Point(-COORD_LIMIT, -COORD_LIMIT),
          [Point(COORD_LIMIT, COORD_LIMIT - 1), Point(COORD_LIMIT - 1, COORD_LIMIT - 2),
           Point(-COORD_LIMIT, COORD_LIMIT), Point(-COORD_LIMIT, 0)]))
@example((Point(3, -7), [Point(3, 5), Point(-1, -7), Point(3, -COORD_LIMIT),
                         Point(5, -7)]))
def test_slope_keys_are_equal_exactly_when_directions_are(fan):
    """Two points' slope keys from p are equal exactly when their reduced
    directions from p are, that is, when orient(p, q, r) == 0; vertical
    pairs, negative coordinates and |dx| up to 2 * COORD_LIMIT included.
    So the first repeat of the keys is the direction oracle's pair."""
    p, others = fan
    keys = slope_keys(p, others)
    dirs = [direction(p, q) for q in others]
    for j in range(len(others)):
        assert (keys[j] is None) == (others[j].x == p.x)
        for k in range(j + 1, len(others)):
            assert (keys[j] == keys[k]) == (dirs[j] == dirs[k]) \
                == (orient(p, others[j], others[k]) == 0)
    assert first_collinear_pair(p, others) == reference_first_collinear_pair(p, others)
