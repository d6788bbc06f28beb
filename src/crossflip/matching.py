"""The flip state machine.

A matching is an immutable canonical pairing of point indices. A flip removes
two crossing segments and reconnects their four endpoints one of the two
non-crossing ways. Total segment length is tracked as a float-valued monitor;
it strictly decreases across every flip, but it never drives control flow.

Crossings are found by ``geometry.crossed_by``, one exact pass per segment.
Along a run of flips, ``_LiveCrossings`` keeps them sorted with an index of
each segment's crossings, so a flip retests only its two added segments.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum

from .geometry import PointSet, Segment, crossed_by, orient, seg, segments_properly_cross

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

    With a the lowest endpoint index, b its partner and x the endpoint with
    orient(a, x, b) > 0, (a, x, b, y) is the convex quad in ccw order.
    Choice A pairs (a,x) with (b,y) and choice B (x,b) with (y,a): opposite
    sides of the quad, hence never crossing each other.
    """

    RECONNECT_A = "A"
    RECONNECT_B = "B"


def crossing_pair(e1: Segment, e2: Segment) -> CrossingPair:
    return (e1, e2) if e1 < e2 else (e2, e1)


def find_crossings(ps: PointSet, m: Matching) -> list[CrossingPair]:
    """All properly crossing segment pairs of m, canonically sorted."""
    pairs = m.pairs
    return [(s, t) for i, s in enumerate(pairs)
            for t in crossed_by(ps, s, pairs[i + 1:])]


def is_noncrossing(ps: PointSet, m: Matching) -> bool:
    return not find_crossings(ps, m)


def _added_crossings(
    ps: PointSet, new_matching: Matching, added: tuple[Segment, Segment]
) -> list[CrossingPair]:
    """The crossings of ``new_matching`` that hold an added segment. The
    two added segments never cross, and a segment never crosses itself, so
    each crossing is found once."""
    return [crossing_pair(s, t) for s in added
            for t in crossed_by(ps, s, new_matching.pairs)]


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
    out += _added_crossings(ps, new_matching, added)
    out.sort()
    return out


class _LiveCrossings:
    """The crossings of a matching along a run of flips: ``sorted``, in
    canonical order, and ``of``, each segment's set of crossings. A flip
    costs one ``crossed_by`` pass per added segment plus O(log L) per
    crossing it removes or adds, for L live crossings."""

    def __init__(self, ps: PointSet, m: Matching):
        self.ps = ps
        self.sorted = find_crossings(ps, m)
        self.of: dict[Segment, set[CrossingPair]] = defaultdict(set)
        for c in self.sorted:
            self.of[c[0]].add(c)
            self.of[c[1]].add(c)

    def __len__(self) -> int:
        return len(self.sorted)

    def __contains__(self, crossing: CrossingPair) -> bool:
        return crossing in self.of.get(crossing[0], ())

    def flip(self, new_matching: Matching, removed: CrossingPair,
             added: tuple[Segment, Segment]) -> list[CrossingPair]:
        """Move on to ``new_matching``, which a flip of ``removed`` adding
        ``added`` gave; returns the crossings it gained."""
        live, of = self.sorted, self.of
        for s in removed:
            for c in of.pop(s):
                del live[bisect_left(live, c)]
                of[c[1] if c[0] == s else c[0]].discard(c)
        new = _added_crossings(self.ps, new_matching, added)
        for c in new:
            insort(live, c)
            of[c[0]].add(c)
            of[c[1]].add(c)
        return new


def total_length(ps: PointSet, m: Matching) -> float:
    """Euclidean length of the matching; a monitor, never a control value."""
    pts = ps.points
    total = 0.0
    for a, b in m.pairs:
        (ax, ay), (bx, by) = pts[a], pts[b]
        total += math.hypot(bx - ax, by - ay)
    return total


def crossing_quad(ps: PointSet, crossing: CrossingPair) -> tuple[int, int, int, int]:
    """The crossing's four endpoints in ccw convex order (a, x, b, y) from
    one orientation test: a the lowest endpoint, b its partner and x the
    endpoint with orient(a, x, b) > 0 (see ``FlipChoice``). This is the
    order ``geometry.ccw_quad_order`` sorts out, for the segments and their
    endpoints given in any order."""
    (a, b), (x, y) = sorted(map(sorted, crossing))  # a is the lowest endpoint
    if orient(ps[a], ps[x], ps[b]) < 0:
        x, y = y, x
    return a, x, b, y


def quad_reconnections(
    quad: tuple[int, int, int, int]
) -> tuple[tuple[Segment, Segment], tuple[Segment, Segment]]:
    """The sorted segment pairs a flip adds under choices A and B, given the
    crossing's ``crossing_quad`` (a, x, b, y): opposite sides of the quad."""
    a, x, b, y = quad
    return ((a, x), seg(b, y)), ((a, y), seg(b, x))


def reconnections(
    ps: PointSet, crossing: CrossingPair
) -> tuple[tuple[Segment, Segment], tuple[Segment, Segment]]:
    """The sorted segment pairs a flip of ``crossing`` adds under choices A
    and B."""
    return quad_reconnections(crossing_quad(ps, crossing))


def reconnection_pairs(
    ps: PointSet, crossing: CrossingPair, choice: FlipChoice
) -> tuple[Segment, Segment]:
    """The two segments a flip of ``crossing`` adds under ``choice``."""
    return reconnections(ps, crossing)[choice is FlipChoice.RECONNECT_B]


def choice_yielding(
    ps: PointSet, crossing: CrossingPair, target: tuple[Segment, Segment]
) -> FlipChoice:
    """The choice whose reconnection equals ``target`` (as an unordered pair)."""
    want = sorted(seg(a, b) for a, b in target)
    for choice, added in zip(FlipChoice, reconnections(ps, crossing)):
        if list(added) == want:
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


def check_live(ps: PointSet, m: Matching, crossing: CrossingPair) -> None:
    """Raise FlipError unless ``crossing`` is a live proper crossing of m."""
    e1, e2 = crossing
    present = set(m.pairs)
    if e1 not in present or e2 not in present:
        raise FlipError(f"crossing {crossing} is not part of the matching")
    if e1 == e2 or not segments_properly_cross(ps, e1, e2):
        raise FlipError(f"segments {e1} and {e2} do not cross")


def _flipped(
    ps: PointSet, m: Matching, crossing: CrossingPair, choice: FlipChoice
) -> tuple[Matching, tuple[Segment, Segment]]:
    """The one flip primitive: the successor matching and the two segments
    the flip adds. Raises FlipError for a stale or corrupt crossing."""
    check_live(ps, m, crossing)
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
    ps: PointSet, m: Matching, crossing: CrossingPair, choice: FlipChoice
) -> tuple[Matching, FlipRecord]:
    """Apply one flip and record it.

    Raises FlipError when ``crossing`` is stale (not in ``m``) or corrupt
    (its segments do not cross).
    """
    return _flip_from(ps, m, crossing, choice, total_length(ps, m))


def _flip_from(
    ps: PointSet, m: Matching, crossing: CrossingPair, choice: FlipChoice,
    length_before: float,
) -> tuple[Matching, FlipRecord]:
    """``flip`` given ``total_length(ps, m)``, so that a run sums the length
    once per step, carrying each ``length_after`` forward."""
    new, added = _flipped(ps, m, crossing, choice)
    return new, FlipRecord(
        crossing=crossing,
        choice=choice,
        added=added,
        length_before=length_before,
        length_after=total_length(ps, new),
    )


def trace_from_moves(
    instance_id: str, ps: PointSet, initial: Matching, moves
) -> FlipTrace:
    """Build a trace by applying scripted (crossing, choice) moves in order."""
    m = initial
    live = _LiveCrossings(ps, m)
    length = total_length(ps, m)
    records = []
    for crossing, choice in moves:
        m, rec = _flip_from(ps, m, crossing, choice, length)
        length = rec.length_after
        live.flip(m, crossing, rec.added)
        records.append(replace(rec, crossings_after=len(live)))
    return FlipTrace(instance_id, initial, tuple(records), m,
                     complete=not live)


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
