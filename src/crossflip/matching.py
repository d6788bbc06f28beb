"""The flip state machine.

A matching is an immutable canonical pairing of point indices. A flip removes
two crossing segments and reconnects their four endpoints one of the two
non-crossing ways. Total segment length is tracked as a float-valued monitor;
it strictly decreases across every flip, but it never drives control flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .geometry import (
    PointSet,
    Segment,
    ccw_quad_order,
    seg,
    segments_properly_cross,
)

#: Two crossing segments in canonical order (lexicographically smaller first).
CrossingPair = tuple[Segment, Segment]


class FlipError(ValueError):
    """A flip was requested for a pair that is stale or does not cross."""


class ReplayError(ValueError):
    """A recorded flip could not be re-applied at the given step."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class Matching:
    """A perfect matching in canonical form.

    Each pair is (min, max) and the list of pairs is sorted, so equal
    pairings compare and serialize identically.
    """

    pairs: tuple[Segment, ...]

    @classmethod
    def from_pairs(cls, pairs) -> "Matching":
        canon = tuple(sorted(seg(a, b) for a, b in pairs))
        seen: set[int] = set()
        for a, b in canon:
            seen.add(a)
            seen.add(b)
        m = 2 * len(canon)
        if len(seen) != m or min(seen) != 0 or max(seen) != m - 1:
            raise ValueError(
                f"not a perfect matching over 0..{m - 1}: pairs {canon}"
            )
        return cls(canon)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def partner(self, i: int) -> int:
        for a, b in self.pairs:
            if a == i:
                return b
            if b == i:
                return a
        raise KeyError(i)


class FlipChoice(Enum):
    """The two reconnections of a crossing's four endpoints.

    With the endpoints labeled q1..q4 counterclockwise starting from the
    lowest point index, choice A pairs (q1,q2) with (q3,q4) and choice B
    pairs (q2,q3) with (q4,q1). Both are opposite sides of the convex
    quadrilateral, hence never cross each other.
    """

    RECONNECT_A = "A"
    RECONNECT_B = "B"


def crossing_pair(e1: Segment, e2: Segment) -> CrossingPair:
    return (e1, e2) if e1 < e2 else (e2, e1)


def find_crossings(ps: PointSet, m: Matching) -> list[CrossingPair]:
    """All properly crossing segment pairs of m, canonically sorted."""
    out = []
    pairs = m.pairs
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if segments_properly_cross(ps, pairs[i], pairs[j]):
                out.append((pairs[i], pairs[j]))
    return out


def is_noncrossing(ps: PointSet, m: Matching) -> bool:
    return not find_crossings(ps, m)


def crossings_after_flip(
    ps: PointSet,
    new_matching: Matching,
    old_crossings: list[CrossingPair],
    removed: CrossingPair,
    added: tuple[Segment, Segment],
) -> list[CrossingPair]:
    """Crossing list of ``new_matching`` patched locally from the old list.

    Only the two added segments need retesting; every pair not involving a
    removed or added segment is untouched by the flip.
    """
    gone = set(removed)
    out = [c for c in old_crossings if c[0] not in gone and c[1] not in gone]
    for s in added:
        for t in new_matching.pairs:
            if t == added[0] or t == added[1]:
                continue
            if segments_properly_cross(ps, s, t):
                out.append(crossing_pair(s, t))
    # the two added segments never cross each other, so no third loop
    out.sort()
    return out


def total_length(ps: PointSet, m: Matching) -> float:
    """Euclidean length of the matching; a monitor, never a control value."""
    total = 0.0
    for a, b in m.pairs:
        pa, pb = ps[a], ps[b]
        total += math.hypot(pb.x - pa.x, pb.y - pa.y)
    return total


def reconnection_pairs(
    ps: PointSet, crossing: CrossingPair, choice: FlipChoice, order=None
) -> tuple[Segment, Segment]:
    """The two segments a flip of ``crossing`` adds under ``choice``;
    ``order`` is the crossing's ``ccw_quad_order`` if the caller has it."""
    (a, b), (c, d) = crossing
    q1, q2, q3, q4 = order or ccw_quad_order(ps, (a, b, c, d))
    if choice is FlipChoice.RECONNECT_A:
        e1, e2 = seg(q1, q2), seg(q3, q4)
    else:
        e1, e2 = seg(q2, q3), seg(q4, q1)
    return (e1, e2) if e1 < e2 else (e2, e1)


def choice_yielding(
    ps: PointSet, crossing: CrossingPair, target: tuple[Segment, Segment]
) -> FlipChoice:
    """The choice whose reconnection equals ``target`` (as an unordered pair)."""
    want = frozenset(seg(a, b) for a, b in target)
    for choice in FlipChoice:
        if frozenset(reconnection_pairs(ps, crossing, choice)) == want:
            return choice
    raise ValueError(f"{target} is not a reconnection of {crossing}")


@dataclass(frozen=True)
class FlipRecord:
    """One applied flip with its monitor values.

    Potential values are attached only when the caller asked for
    instrumentation; hot search loops leave them None.
    """

    crossing: CrossingPair
    choice: FlipChoice
    added: tuple[Segment, Segment]
    length_before: float
    length_after: float
    crossings_after: int | None = None
    phi_l_before: int | None = None
    phi_l_after: int | None = None
    phi_k_before: int | None = None
    phi_k_after: int | None = None


@dataclass(frozen=True)
class FlipTrace:
    """An auditable run: initial matching, applied flips, final matching."""

    instance_id: str
    initial: Matching
    records: tuple[FlipRecord, ...] = field(default_factory=tuple)
    final: Matching = None  # type: ignore[assignment]
    complete: bool = True

    def __post_init__(self):
        if self.final is None:
            object.__setattr__(self, "final", self.initial)

    def __len__(self) -> int:
        return len(self.records)


def _check_live(ps: PointSet, m: Matching, crossing: CrossingPair) -> None:
    e1, e2 = crossing
    present = set(m.pairs)
    if e1 not in present or e2 not in present:
        raise FlipError(f"crossing {crossing} is not part of the matching")
    if not segments_properly_cross(ps, e1, e2):
        raise FlipError(f"segments {e1} and {e2} do not cross")


def _flipped(
    ps: PointSet, m: Matching, crossing: CrossingPair, choice: FlipChoice
) -> tuple[Matching, tuple[Segment, Segment]]:
    """The one flip primitive: the successor matching and the two segments
    the flip adds. Raises FlipError for a stale or corrupt crossing."""
    _check_live(ps, m, crossing)
    added = reconnection_pairs(ps, crossing, choice)
    e1, e2 = crossing
    return Matching(tuple(sorted(
        [p for p in m.pairs if p != e1 and p != e2] + list(added)
    ))), added


def apply_flip(
    ps: PointSet, m: Matching, crossing: CrossingPair, choice: FlipChoice
) -> Matching:
    """The successor matching, without building a record."""
    return _flipped(ps, m, crossing, choice)[0]


def flip(
    ps: PointSet,
    m: Matching,
    crossing: CrossingPair,
    choice: FlipChoice,
    count_crossings: bool = False,
) -> tuple[Matching, FlipRecord]:
    """Apply one flip and record it.

    Raises FlipError when ``crossing`` is stale (not in ``m``) or corrupt
    (its segments do not cross).
    """
    new, added = _flipped(ps, m, crossing, choice)
    record = FlipRecord(
        crossing=crossing,
        choice=choice,
        added=added,
        length_before=total_length(ps, m),
        length_after=total_length(ps, new),
        crossings_after=len(find_crossings(ps, new)) if count_crossings else None,
    )
    return new, record


def trace_from_moves(
    instance_id: str, ps: PointSet, initial: Matching, moves
) -> FlipTrace:
    """Build a trace by applying scripted (crossing, choice) moves in order."""
    m = initial
    records = []
    for crossing, choice in moves:
        m, rec = flip(ps, m, crossing, choice, count_crossings=True)
        records.append(rec)
    return FlipTrace(
        instance_id, initial, tuple(records), m, complete=is_noncrossing(ps, m)
    )


def replay_states(ps: PointSet, initial: Matching, records) -> list[Matching]:
    """Re-apply recorded flips in order: the initial matching, then the
    matching after each flip.

    Raises ReplayError naming the first step whose crossing is absent, does
    not cross, or whose recorded reconnection does not match its choice.
    """
    states = [initial]
    for i, rec in enumerate(records):
        try:
            new, added = _flipped(ps, states[-1], rec.crossing, rec.choice)
        except FlipError as exc:
            raise ReplayError(i, str(exc)) from exc
        if added != rec.added:
            raise ReplayError(
                i, f"recorded segments {rec.added} differ from reconnection {added}"
            )
        states.append(new)
    return states


def replay(ps: PointSet, initial: Matching, records) -> Matching:
    """The matching a checked ``replay_states`` ends at; it must equal the
    trace's final matching for any trace this package wrote."""
    return replay_states(ps, initial, records)[-1]
