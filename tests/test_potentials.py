import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflip import (
    FlipChoice,
    FlipError,
    FlipRecord,
    LineType,
    Matching,
    PerturbedLine,
    PointSet,
    PotentialInvariantError,
    ReplayError,
    Side,
    apply_flip,
    decrement_audit,
    find_crossings,
    flip,
    gen_random,
    phi_lines,
    phi_lines_bound,
    phi_vertical,
    phi_vertical_bound,
    replay,
    seg,
    shear_to_distinct_x,
    trace_from_moves,
)
from crossflip import potentials
from crossflip.search import enumerate_all_matchings, greedy_choice

from oracles import (
    phi_lines_rational_offset,
    phi_vertical_rank_formula,
    reference_decrement_audit,
    reference_phi_lines,
    reference_phi_vertical,
)

SQUARE = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
DIAGONALS = Matching.from_pairs([(0, 2), (1, 3)])
SIDES = Matching.from_pairs([(0, 1), (2, 3)])


def _crossed_lines(ps, s):
    """The perturbed lines segment s crosses, read off the line masks: the
    lines its endpoints have different adjusted signs for."""
    masks = potentials._line_masks(ps)
    u, v = s
    crossed = masks[u] ^ masks[v]
    return {line for j, line in enumerate(potentials._lines_by_bit(ps))
            if crossed >> j & 1}


def test_segment_never_crosses_its_own_supporting_lines():
    ps = PointSet.from_coords([(0, 0), (3, 4)])
    assert _crossed_lines(ps, seg(0, 1)) == set()


def test_square_bottom_line_against_diagonal_and_top():
    # orient((0,0),(2,0), top) > 0, so PLUS is the copy pushed toward the top
    line = PerturbedLine(0, 1, Side.PLUS)
    assert line in _crossed_lines(SQUARE, seg(0, 2))
    assert line not in _crossed_lines(SQUARE, seg(2, 3))


def test_phi_lines_single_segment_is_zero():
    ps = PointSet.from_coords([(0, 0), (3, 4)])
    assert phi_lines(ps, Matching.from_pairs([(0, 1)])) == 0


def test_phi_lines_square_flip_drops_by_four():
    assert phi_lines(SQUARE, DIAGONALS) == 12
    assert phi_lines(SQUARE, SIDES) == 8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 5))
def test_phi_lines_agrees_with_rational_offset_oracle(seed, n):
    inst = gen_random(n, seed=seed, bbox=(0, 128))
    assert phi_lines(inst.points, inst.matching) == phi_lines_rational_offset(
        inst.points, inst.matching
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5000), st.integers(min_value=1, max_value=30))
def test_phi_lines_invariant_under_shear(seed, factor):
    inst = gen_random(3, seed=seed, bbox=(0, 200))
    mapped = PointSet.from_coords(
        [(factor * p.x + p.y, p.y) for p in inst.points]
    )
    assert phi_lines(inst.points, inst.matching) == phi_lines(
        mapped, inst.matching
    )


def test_phi_vertical_examples():
    two = PointSet.from_coords([(0, 0), (5, 3)])
    assert phi_vertical(two, Matching.from_pairs([(0, 1)])) == 1
    four = PointSet.from_coords([(0, 0), (10, 7), (20, 1), (30, 5)])
    assert phi_vertical(four, Matching.from_pairs([(0, 3), (1, 2)])) == 4
    assert phi_vertical(four, Matching.from_pairs([(0, 1), (2, 3)])) == 2


def test_phi_vertical_requires_distinct_x():
    with pytest.raises(ValueError, match="duplicate x"):
        phi_vertical(SQUARE, DIAGONALS)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 6))
def test_phi_vertical_equals_rank_formula(seed, n):
    inst = gen_random(n, seed=seed, bbox=(0, 400))
    ps = shear_to_distinct_x(inst.points)
    assert phi_vertical(ps, inst.matching) == phi_vertical_rank_formula(
        ps, inst.matching
    )


def test_phi_vertical_never_exceeds_quadratic_bound():
    for seed in range(30):
        inst = gen_random(3, seed=seed, bbox=(0, 300))
        ps = shear_to_distinct_x(inst.points)
        for m in enumerate_all_matchings(ps, cap=3):
            assert phi_vertical(ps, m) <= phi_vertical_bound(3)


def _line_types(ps, m):
    """Each perturbed line's type against m's first crossing, from
    ``decrement_audit(..., detail=True).lines``."""
    audit = decrement_audit(ps, m, find_crossings(ps, m)[0],
                            FlipChoice.RECONNECT_A, detail=True)
    return {entry.line: entry.line_type for entry in audit.lines}


def test_classify_square_lines():
    types = _line_types(SQUARE, DIAGONALS)
    # ccw order of the square is 0,1,2,3: sides (0,1),(2,3) are choice A
    # the inward copy of each side line: sign of orient(anchor, other points)
    assert types[PerturbedLine(0, 1, Side.PLUS)] is LineType.L1
    assert types[PerturbedLine(2, 3, Side.PLUS)] is LineType.L1
    assert types[PerturbedLine(1, 2, Side.PLUS)] is LineType.L2
    assert types[PerturbedLine(0, 3, Side.MINUS)] is LineType.L2
    for anchor in ((0, 2), (1, 3)):
        for side in Side:
            assert types[PerturbedLine(*anchor, side)] is LineType.L3
    # copies of a side-line facing away from the quad miss it entirely
    assert types[PerturbedLine(0, 1, Side.MINUS)] is LineType.NO_INTERSECT


def test_classify_line_far_from_quad():
    ps = PointSet.from_coords(
        [(0, 0), (2, 0), (2, 2), (0, 2), (10, 1), (11, 5)]
    )
    types = _line_types(ps, Matching.from_pairs([(0, 2), (1, 3), (4, 5)]))
    for side in Side:
        assert types[PerturbedLine(4, 5, side)] is LineType.NO_INTERSECT


def test_audit_square():
    crossing = find_crossings(SQUARE, DIAGONALS)[0]
    audit = decrement_audit(
        SQUARE, DIAGONALS, crossing, FlipChoice.RECONNECT_A, detail=True
    )
    assert audit.delta_phi_l == -4
    assert audit.phi_l_before == 12 and audit.phi_l_after == 8
    assert audit.line_type_counts == {
        LineType.L1: 2, LineType.L2: 2, LineType.L3: 4, LineType.NO_INTERSECT: 4,
    }
    assert all(entry.delta <= 0 for entry in audit.lines)
    assert audit.delta_phi_k is None  # the square has duplicate x


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 6))
def test_audit_decrement_laws(seed, n):
    """Per flip: the line potential drops by exactly twice the matching line
    type's count (hence by at least 4), and the vertical potential never
    rises; the greedy choice drops it by exactly twice the middle gap."""
    inst = gen_random(n, seed=seed, bbox=(0, 400))
    ps = shear_to_distinct_x(inst.points)
    m = inst.matching
    crossings = find_crossings(ps, m)
    if not crossings:
        return
    from crossflip.potentials import x_ranks

    ranks = x_ranks(ps)
    for crossing in crossings[:3]:
        for choice in FlipChoice:
            audit = decrement_audit(ps, m, crossing, choice)
            key = (
                LineType.L1 if choice is FlipChoice.RECONNECT_A else LineType.L2
            )
            assert audit.delta_phi_l == -2 * audit.line_type_counts[key]
            assert audit.delta_phi_l <= -4
            assert audit.line_type_counts[LineType.L1] >= 2
            assert audit.line_type_counts[LineType.L2] >= 2
            assert audit.delta_phi_k is not None and audit.delta_phi_k <= 0
            # cross-check against a real flip
            m2 = apply_flip(ps, m, crossing, choice)
            assert phi_lines(ps, m2) == audit.phi_l_after
            assert phi_vertical(ps, m2) == audit.phi_k_after
        greedy = greedy_choice(ps, crossing)
        audit = decrement_audit(ps, m, crossing, greedy)
        quad = sorted(ranks[i] for s in crossing for i in s)
        assert audit.delta_phi_k == -2 * (quad[2] - quad[1])
        assert audit.delta_phi_k <= -2


def test_phi_lines_bound_exhaustive_tiny():
    from crossflip import phi_lines_bound_sharp

    # the sharp cap |lines| * segments also holds, not just the stated 4n^3
    assert phi_lines_bound_sharp(3) < phi_lines_bound(3)
    for seed in (1, 2, 3):
        inst = gen_random(3, seed=seed, bbox=(0, 200))
        for m in enumerate_all_matchings(inst.points, cap=3):
            assert phi_lines(inst.points, m) <= phi_lines_bound_sharp(3)


def _reference_corpus():
    """Seeded random flips for n = 2..10: (ps, m, crossing, choice) for
    every crossing of every visited matching, until non-crossing."""
    rng = random.Random(0xB175)
    for n in range(2, 11):
        for k in range(3):
            inst = gen_random(n, seed=1000 * n + k, bbox=(0, 512))
            ps = shear_to_distinct_x(inst.points)
            order = list(range(2 * n))
            rng.shuffle(order)
            m = Matching.from_pairs(
                [(order[2 * i], order[2 * i + 1]) for i in range(n)]
            )
            crossings = find_crossings(ps, m)
            while crossings:
                picked = rng.choice(crossings)
                for crossing in crossings:
                    for choice in FlipChoice:
                        yield ps, m, crossing, choice
                m = apply_flip(ps, m, picked, rng.choice(list(FlipChoice)))
                crossings = find_crossings(ps, m)
            yield ps, m, None, None


def test_potentials_match_reference_loops():
    """The bitmask kernel against the per-line loops it replaced: every
    DecrementAudit field, per-line detail on a sample, phi_lines and the
    gap-line phi_vertical."""
    audits = details = 0
    for ps, m, crossing, choice in _reference_corpus():
        assert phi_lines(ps, m) == reference_phi_lines(ps, m)
        assert phi_vertical(ps, m) == reference_phi_vertical(ps, m)
        if crossing is None:
            continue
        detail = audits % 13 == 0
        got = decrement_audit(ps, m, crossing, choice, detail=detail)
        want = reference_decrement_audit(ps, m, crossing, choice, detail=detail)
        assert got == want
        assert list(got.line_type_counts) == list(want.line_type_counts)
        audits += 1
        details += detail
    assert audits > 500 and details > 40


def test_gained_line_is_fatal(monkeypatch):
    # "flipping" two sides of the square into its diagonals: the lowest line,
    # 0-1 pushed toward the square, misses both sides and meets both diagonals.
    # The sides do not cross, so the check returns the square's ccw order.
    monkeypatch.setattr("crossflip.potentials.check_live",
                        lambda *args: (0, 1, 2, 3))
    monkeypatch.setattr(
        "crossflip.potentials.quad_reconnections",
        lambda quad: (DIAGONALS.pairs, DIAGONALS.pairs),
    )
    with pytest.raises(PotentialInvariantError,
                       match=r"line 0-1/plus gained intersections"):
        decrement_audit(SQUARE, SIDES, SIDES.pairs, FlipChoice.RECONNECT_A)


def test_diagonal_split_is_fatal(monkeypatch):
    # point 3 lies inside triangle 0, 1, 2; its "ccw order" is (0, 1, 3, 2)
    # and the line through 1 and 2 separates {0, 3} from {1, 2}. The audit
    # reads that order from ``check_live``, so it is injected there.
    ps = PointSet.from_coords([(0, 0), (10, 0), (5, 9), (5, 3)])
    m = Matching.from_pairs([(0, 2), (1, 3)])
    monkeypatch.setattr("crossflip.potentials.check_live",
                        lambda *args: (0, 1, 3, 2))
    pattern = r"line 1-2/plus splits quad \(0, 1, 3, 2\) along its diagonals"
    with pytest.raises(PotentialInvariantError, match=pattern):
        decrement_audit(ps, m, m.pairs, FlipChoice.RECONNECT_A)


@pytest.mark.parametrize("choice", list(FlipChoice))
def test_audit_rejects_pair_that_is_not_a_live_crossing(choice):
    # the square's two sides do not cross: choice A once returned an audit
    # with added == crossing and delta_phi_l == 0, choice B a
    # PotentialInvariantError
    with pytest.raises(FlipError, match="do not cross"):
        decrement_audit(SQUARE, SIDES, SIDES.pairs, choice)
    # a crossing that is not part of the matching is stale
    with pytest.raises(FlipError, match="not part of the matching"):
        decrement_audit(SQUARE, SIDES, DIAGONALS.pairs, choice)
    # a segment paired with itself once escaped as a plain ValueError
    twice = (seg(0, 2), seg(0, 2))
    with pytest.raises(FlipError, match="do not cross"):
        decrement_audit(SQUARE, DIAGONALS, twice, choice)
    with pytest.raises(FlipError, match="do not cross"):
        apply_flip(SQUARE, DIAGONALS, twice, choice)
    # every flip path raises the one check's text, and replay names the step
    for m, crossing in ((SIDES, SIDES.pairs), (SIDES, DIAGONALS.pairs),
                        (DIAGONALS, twice)):
        texts = set()
        for call in (flip, apply_flip, decrement_audit):
            with pytest.raises(FlipError) as info:
                call(SQUARE, m, crossing, choice)
            texts.add(str(info.value))
        with pytest.raises(FlipError) as info:
            trace_from_moves("square", SQUARE, m, [(crossing, choice)])
        texts.add(str(info.value))
        assert len(texts) == 1
        record = FlipRecord(crossing, choice, crossing, 0.0, 0.0)
        with pytest.raises(ReplayError) as info:
            replay(SQUARE, m, [record])
        assert (info.value.step, str(info.value)) == (0, f"step 0: {texts.pop()}")
