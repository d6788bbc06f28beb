from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossflip import (
    FlipChoice,
    GenerationError,
    Instance,
    Matching,
    PointSet,
    find_crossings,
    gen_convex,
    gen_random,
    gen_two_line,
    identity_perm,
    inversion_count,
    is_noncrossing,
    longest_flip_sequence,
    orient,
    phi_lines,
    reverse_perm,
    shear_to_distinct_x,
    shortest_flip_sequence,
    two_line_permutation,
    validate_general_position,
)
from crossflip import geometry
from crossflip.geometry import first_collinear_pair

from oracles import (
    reference_general_position,
    reference_random_instance,
    reference_slope_key_sampler,
)


def test_identity_is_noncrossing():
    inst = gen_two_line(identity_perm(3))
    assert is_noncrossing(inst.points, inst.matching)


def test_reverse_crosses_every_pair():
    inst = gen_two_line(reverse_perm(3))
    assert len(find_crossings(inst.points, inst.matching)) == 3


def test_three_cycle_has_two_crossings():
    # the cycle sending 0->1->2->0 has exactly two inversions
    inst = gen_two_line((1, 2, 0))
    assert len(find_crossings(inst.points, inst.matching)) == 2
    assert inversion_count((1, 2, 0)) == 2


def test_two_line_crossings_equal_inversions_exhaustive():
    for n in range(1, 7):
        ps = gen_two_line(identity_perm(n)).points
        for pi in permutations(range(n)):
            m = Matching.from_pairs([(i, n + pi[i]) for i in range(n)])
            assert len(find_crossings(ps, m)) == inversion_count(pi)


def test_two_line_shape():
    inst = gen_two_line(reverse_perm(4))
    ps = inst.points
    assert validate_general_position(ps) is None
    assert ps.has_distinct_x()
    n = 4
    # bottom row first in increasing x, then top row in increasing x
    assert all(ps[i].x < ps[i + 1].x for i in range(n - 1))
    assert all(ps[n + i].x < ps[n + i + 1].x for i in range(n - 1))
    assert all(ps[i].y < ps[n + j].y for i in range(n) for j in range(n))
    assert two_line_permutation(inst.matching, n) == [3, 2, 1, 0]


def test_two_line_rejects_non_permutations():
    with pytest.raises(ValueError):
        gen_two_line((0, 0, 1))


@pytest.mark.parametrize("perm", [[1.0, 0.0], [True, False], [1, "0"]],
                         ids=["floats", "bools", "string"])
def test_two_line_refuses_entries_that_are_not_ints(perm):
    """A float, bool or string entry is refused with the entry named, not
    converted by ``int()`` into rev2."""
    with pytest.raises(ValueError, match=r"permutation entry .* not an int"):
        gen_two_line(perm)


def test_two_line_deterministic():
    assert gen_two_line((2, 0, 1)) == gen_two_line((2, 0, 1))


def test_convex_single_segment():
    inst = gen_convex(1)
    assert inst.matching.size == 1
    assert is_noncrossing(inst.points, inst.matching)


@pytest.mark.parametrize("n", range(2, 9))
def test_convex_initial_crossing_count(n):
    # the long chord is crossed by each of the n-1 nested chords and the
    # nested chords avoid each other
    inst = gen_convex(n)
    crossings = find_crossings(inst.points, inst.matching)
    assert len(crossings) == n - 1
    spine = (0, n)
    assert all(spine in c for c in crossings)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12, 700, 1024])
def test_convex_points_strictly_convex_ccw(n):
    ps = gen_convex(n).points
    m = len(ps)
    assert validate_general_position(ps) is None
    assert ps.has_distinct_x()
    if m > 2:
        for k in range(m):
            assert orient(ps[k], ps[(k + 1) % m], ps[(k + 2) % m]) > 0


def test_convex_deterministic():
    assert gen_convex(5) == gen_convex(5)


#: What orientation decides on gen_convex(n), the same for any 2n points in
#: convex position labelled counterclockwise: n -> (crossings, f and h, DFS
#: states, BFS states, phi_L, the witness of both searches as crossings
#: flipped, every choice A)
CONVEX_PINS = {
    2: (
        [((0, 2), (1, 3))],
        1, 3, 2, 12,
        [((0, 2), (1, 3))],
    ),
    3: (
        [((0, 3), (1, 5)), ((0, 3), (2, 4))],
        2, 9, 6, 44,
        [((0, 3), (1, 5)), ((2, 4), (3, 5))],
    ),
    4: (
        [((0, 4), (1, 7)), ((0, 4), (2, 6)), ((0, 4), (3, 5))],
        3, 27, 20, 104,
        [((0, 4), (1, 7)), ((2, 6), (4, 7)), ((2, 4), (3, 5))],
    ),
    5: (
        [
            ((0, 5), (1, 9)), ((0, 5), (2, 8)), ((0, 5), (3, 7)),
            ((0, 5), (4, 6)),
        ],
        4, 81, 66, 200,
        [
            ((0, 5), (1, 9)), ((2, 8), (5, 9)), ((2, 5), (3, 7)),
            ((4, 6), (5, 7)),
        ],
    ),
    6: (
        [
            ((0, 6), (1, 11)), ((0, 6), (2, 10)), ((0, 6), (3, 9)),
            ((0, 6), (4, 8)), ((0, 6), (5, 7)),
        ],
        5, 243, 212, 340,
        [
            ((0, 6), (1, 11)), ((2, 10), (6, 11)), ((2, 6), (3, 9)),
            ((4, 8), (6, 9)), ((4, 6), (5, 7)),
        ],
    ),
    7: (
        [
            ((0, 7), (1, 13)), ((0, 7), (2, 12)), ((0, 7), (3, 11)),
            ((0, 7), (4, 10)), ((0, 7), (5, 9)), ((0, 7), (6, 8)),
        ],
        6, 729, 666, 532,
        [
            ((0, 7), (1, 13)), ((2, 12), (7, 13)), ((2, 7), (3, 11)),
            ((4, 10), (7, 11)), ((4, 7), (5, 9)), ((6, 8), (7, 9)),
        ],
    ),
}


@pytest.mark.parametrize("n", sorted(CONVEX_PINS))
def test_convex_order_type_values(n):
    crossings, value, f_states, h_states, phi_l, moves = CONVEX_PINS[n]
    inst = gen_convex(n)
    assert find_crossings(inst.points, inst.matching) == crossings
    assert phi_lines(inst.points, inst.matching) == phi_l
    for solve, states in ((longest_flip_sequence, f_states),
                          (shortest_flip_sequence, h_states)):
        stats: dict = {}
        length, trace = solve(inst, stats_out=stats)
        assert (length, stats["states_expanded"]) == (value, states)
        assert [(r.crossing, r.choice) for r in trace.records] == [
            (c, FlipChoice.RECONNECT_A) for c in moves
        ]


def test_convex_refuses_n_past_the_coordinate_budget():
    with pytest.raises(GenerationError, match="n=1025"):
        gen_convex(1025)


def test_random_single_pair_always_works():
    inst = gen_random(1, seed=0, bbox=(0, 3))
    assert inst.matching.size == 1


def test_random_matches_pinned_golden_file():
    from crossflip.io import load_instance

    golden = load_instance("tests/data/random_n3_seed7.json")
    assert gen_random(3, seed=7, bbox=(0, 100)) == golden


def test_random_general_position_many_seeds():
    """gen_random certifies its sets and their shears; the triple loop
    agrees on every one, tiny boxes that force many rejections included."""
    for bbox, n in [((0, 100), 4), ((0, 6), 3), ((0, 8), 5), ((-3, 3), 4),
                    ((0, 512), 10)]:
        generated = 0
        for seed in range(40):
            try:
                inst = gen_random(n, seed=seed, bbox=bbox)
            except GenerationError:
                continue
            generated += 1
            for ps in (inst.points, shear_to_distinct_x(inst.points)):
                assert ps._certified
                assert validate_general_position(ps) is None
                assert reference_general_position(ps) is None
        assert generated >= 20


def test_generated_set_is_not_rescanned(monkeypatch):
    """gen_random(20), its shear and the sheared Instance, and gen_convex
    sets and their Instances: general position costs the generator's own
    tests, one ``_collinear_with_pair`` per draw, and nothing more: the
    validation's ``first_collinear_pair`` is never called. The convex sets
    are in general position by the triple loop as well."""
    calls = {"draws": 0, "validation": 0}

    def counting(key, real):
        def wrapped(*args):
            calls[key] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr("crossflip.generators._collinear_with_pair",
                        counting("draws", geometry._collinear_with_pair))
    monkeypatch.setattr("crossflip.geometry.first_collinear_pair",
                        counting("validation", first_collinear_pair))
    raw = gen_random(20, seed=3)
    ps = shear_to_distinct_x(raw.points)
    assert ps != raw.points
    Instance(ps, raw.matching, raw.provenance)
    assert calls["draws"] >= 40
    for n in (1, 2, 3, 12, 1024):
        inst = gen_convex(n)
        assert inst.points._certified
        assert shear_to_distinct_x(inst.points) is inst.points
        Instance(inst.points, inst.matching, inst.provenance)
        if n <= 12:
            assert reference_general_position(inst.points) is None
    assert calls["validation"] == 0


def _lift_middle(coords):
    """Point n of gen_convex(n) moved up, off the parabola: x still
    increases, but the turns at it are clockwise."""
    x, y = coords[len(coords) // 2]
    coords[len(coords) // 2] = (x, y + 30)


def _swap_first_two(coords):
    """Points 1 and 2 of gen_convex(n) exchanged: x no longer increases."""
    coords[1], coords[2] = coords[2], coords[1]


@pytest.mark.parametrize("mutate, why", [
    (_swap_first_two, "x not strictly increasing"),
    (_lift_middle, "points not strictly convex"),
])
def test_convex_refuses_a_set_it_cannot_certify(monkeypatch, mutate, why):
    """gen_convex raises GenerationError, and certifies nothing, when its
    points do not increase in x or do not turn counterclockwise."""
    from_coords = PointSet.from_coords
    made = []

    def mutated(coords):
        coords = list(coords)
        mutate(coords)
        made.append(from_coords(coords))
        return made[-1]

    monkeypatch.setattr(PointSet, "from_coords", mutated)
    with pytest.raises(GenerationError, match=f"convex n=6: {why}"):
        gen_convex(6)
    assert not made[0]._certified


def test_random_tiny_bbox_exhausts_budget():
    # (0, 8) has nine columns, room for n = 7 on some seeds but not seed 0
    with pytest.raises(GenerationError, match="budget"):
        gen_random(7, seed=0, bbox=(0, 8))


def test_random_refuses_more_pairs_than_columns_before_drawing(monkeypatch):
    """A box of k columns holds at most 2k points with no three collinear,
    two per column: n > k is refused before the first draw, and n = k is
    still drawn."""

    def no_draw(*args):
        raise AssertionError("a hopeless request drew a point")

    with monkeypatch.context() as patch:
        patch.setattr("crossflip.generators._collinear_with_pair", no_draw)
        for n, bbox in ((60, (0, 20)), (3, (0, 1)), (12, (-5, 5))):
            with pytest.raises(GenerationError, match="too few"):
                gen_random(n, seed=0, bbox=bbox)
    assert len(gen_random(2, seed=0, bbox=(0, 1)).points) == 4


@pytest.mark.parametrize("bbox", [(0.5, 9.9), (0, 9.0), (False, 9), ("0", 9)],
                         ids=["floats", "float-hi", "bool", "string"])
def test_random_refuses_bbox_bounds_that_are_not_ints(bbox):
    """A bbox bound that is not an int is refused with the bbox named, not
    truncated into the box drawn from and the provenance written."""
    with pytest.raises(ValueError, match=r"bbox .* not an int"):
        gen_random(2, seed=0, bbox=bbox)


@pytest.mark.parametrize("n", [True, 2.5, 2.0, "2"],
                         ids=["bool", "float", "whole-float", "string"])
def test_generators_refuse_n_that_is_not_an_int(n):
    """An n that is not an int is refused with n named, not built as
    n = 1, passed to ``range`` or written into the provenance."""
    with pytest.raises(ValueError, match=rf"n {n!r} is not an int >= 1"):
        gen_random(n, seed=0)
    with pytest.raises(ValueError, match=rf"n {n!r} is not an int >= 1"):
        gen_convex(n)


@pytest.mark.parametrize("seed", [1.5, True, 1.0, "1", None],
                         ids=["float", "bool", "whole-float", "string", "none"])
def test_random_refuses_seeds_that_are_not_ints(seed):
    """A seed that is not an int is refused with the seed named, not drawn
    from and written into the provenance."""
    with pytest.raises(ValueError, match=rf"seed {seed!r} is not an int"):
        gen_random(2, seed=seed)


def test_instance_rejects_degenerate_points():
    ps = PointSet.from_coords([(0, 0), (1, 1), (2, 2), (5, 0)])
    with pytest.raises(ValueError, match="collinear"):
        Instance(ps, Matching.from_pairs([(0, 1), (2, 3)]), "test")


# tight boxes reject often: (0, 8) holds at most 18 points with no three
# collinear, and at n = 7 seeds 0 and 7 exhaust the rejection budget; the
# widest spans give the rejection test's slope keys their largest scale
@pytest.mark.parametrize(
    "bbox, sizes",
    [((0, 1), (1, 2)), ((0, 8), (1, 2, 3, 4, 5, 6, 7)),
     ((0, 20), (2, 5, 8, 10, 14)), ((-5, 5), (3, 6, 7)),
     ((0, 100), (4, 12)), ((0, 512), (3, 16)),
     ((0, 10**6), (3, 16)), ((-2**20, 2**20), (3, 16))],
)
def test_random_matches_reference_sampler(bbox, sizes):
    for n in sizes:
        for seed in range(12):
            try:
                pts, pairs = reference_random_instance(n, seed, bbox)
            except GenerationError as expected:
                with pytest.raises(GenerationError) as got:
                    gen_random(n, seed=seed, bbox=bbox)
                assert str(got.value) == str(expected)
                continue
            inst = gen_random(n, seed=seed, bbox=bbox)
            assert inst.points.points == pts
            assert inst.matching == Matching.from_pairs(pairs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6),
       st.one_of(st.tuples(st.integers(-40, 40), st.integers(0, 40)),
                 st.tuples(st.integers(-2**20, 2**20 - 1), st.integers(1, 2**21)))
       .map(lambda b: (b[0], min(b[0] + b[1], 2**20)))
       .filter(lambda b: b[0] < b[1]))
@example(7, 0, (0, 8))
@example(7, 7, (0, 8))
@example(3, 0, (-2**20, 2**20))
def test_random_draws_what_the_first_pair_sampler_drew(n, seed, bbox):
    """``gen_random``'s set-size rejection at the box's one slope scale
    against the loop it replaced (``reference_slope_key_sampler``), which
    tested membership in the point list and searched the first collinear
    pair at a per-draw scale: the same points and matching, or the same
    ``GenerationError``, on tight boxes that exhaust the rejection budget
    or have too few columns, and on boxes up to the coordinate budget."""
    try:
        pts, pairs = reference_slope_key_sampler(n, seed, bbox)
    except GenerationError as expected:
        with pytest.raises(GenerationError) as got:
            gen_random(n, seed=seed, bbox=bbox)
        assert str(got.value) == str(expected)
        return
    inst = gen_random(n, seed=seed, bbox=bbox)
    assert inst.points.points == pts
    assert inst.matching == Matching.from_pairs(pairs)
