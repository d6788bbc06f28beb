"""Pinned instances reproducing the two counterintuitive flip behaviours.

These are frozen fixtures: the reappearing-segment script shows a segment
that a flip removes and a later flip restores, and the crossing-surge
instance shows a single flip raising the crossing count from 1 to 3. Both
behaviours rule out naive progress arguments (crossing count, segment
persistence) and motivate the potential functions.
"""

from __future__ import annotations

from .generators import Instance
from .geometry import PointSet, seg
from .matching import FlipChoice, FlipTrace, Matching
from .search import trace_from_moves

#: Segment that disappears after the first flip and is back after the third.
REAPPEARING_SEGMENT = seg(2, 3)


def reappearing_segment_instance() -> Instance:
    """Six points and a 3-crossing matching admitting a scripted 3-flip run
    in which segment (2, 3) leaves and returns."""
    points = PointSet.from_coords(
        [(0, 8), (10, 0), (10, 20), (20, 0), (20, 20), (30, 8)]
    )
    matching = Matching.from_pairs([(0, 5), (1, 4), (2, 3)])
    return Instance(points, matching, "scripted(reappearing-segment)")


def reappearing_segment_moves() -> list[tuple, ...]:
    """The scripted flips: each entry is (crossing, choice)."""
    return [
        ((seg(1, 4), seg(2, 3)), FlipChoice.RECONNECT_B),
        ((seg(0, 5), seg(1, 2)), FlipChoice.RECONNECT_A),
        ((seg(2, 5), seg(3, 4)), FlipChoice.RECONNECT_A),
    ]


def reappearing_segment_trace() -> FlipTrace:
    inst = reappearing_segment_instance()
    return trace_from_moves(
        inst.provenance, inst.points, inst.matching, reappearing_segment_moves()
    )


def crossing_surge_instance() -> Instance:
    """A 10-point instance whose single crossing, flipped with choice A,
    yields three crossings.

    Found once by seeded random search and frozen here. One flip can gain
    at most one crossing per untouched segment, so five segments is the
    smallest size where 1 -> 3 is possible at all.
    """
    points = PointSet.from_coords(
        [
            (3, 5), (5, 23), (10, 19), (16, 13), (2, 10),
            (27, 25), (32, 23), (28, 32), (17, 2), (29, 20),
        ]
    )
    matching = Matching.from_pairs([(0, 3), (1, 9), (2, 4), (5, 6), (7, 8)])
    return Instance(points, matching, "scripted(crossing-surge)")


def crossing_surge_move() -> tuple:
    """The (crossing, choice) whose flip raises the crossing count 1 -> 3."""
    return ((seg(1, 9), seg(7, 8)), FlipChoice.RECONNECT_A)
