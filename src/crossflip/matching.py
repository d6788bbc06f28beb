"""The flip state machine.

A matching is an immutable canonical pairing of point indices. A flip removes
two crossing segments and reconnects their four endpoints one of the two
non-crossing ways. Every flip path (``flip`` and ``apply_flip``, replay, the
run loop, ``potentials.decrement_audit``) takes one checked step,
``check_live``: it refuses a stale or non-crossing pair and returns the
crossing's ``crossing_quad``, read off the four determinants of its
straddle test (``geometry.proper_crossing_quad``), off which
``quad_reconnections`` reads the added segments. Total segment length is
tracked as a float-valued monitor, ``total_length``, a sum in C of
``math.dist`` per segment in the matching's order; it strictly decreases
across every flip, but it never drives control flow.

A ``Matching`` remembers three things, each with the point set it was found
for: its ``total_length``, so ``flip`` sums only the successor, whose sum is
the next flip's ``length_before``, its ``crossing_count``, so a trace's row 0
costs nothing after a run from it, and the quad of the last crossing it
passed ``check_live`` with, so ``decrement_audit`` after ``flip`` of the
same crossing object reads the quad back instead of testing the crossing
again. The point set is matched by identity, and the crossing too, once it
passed the check. A matching, a point set and a tuple crossing are
immutable, so no memo can go stale, and none refers to another
matching, so a run of flips does not keep its history alive. Records built
per step (``FlipRecord`` here, ``potentials.DecrementAudit``) go through
one private constructor, ``_record``, which fills the instance dict at
once.

Crossings of one matching are found by ``geometry.crossed_by_either``, one
exact pass over the segments for two segments at a time: ``find_crossings``
passes two consecutive segments and the segments from the second on, and
``crossings_after_flip`` the two added segments and the new matching. A
test takes two inline determinants per pair, and two more for a pair that
straddles; at an audit's small n, a lane table built per call costs more
than it saves. Along a run of flips
(``search._run``, the one run loop), ``_LiveCrossings`` is the run's one
copy of its matching, and bookkeeping only: it keeps the segments in slots,
each point's mate, the crossings as two bitset rows per lower endpoint (a
segment is named by its lower endpoint, a crossing by its two), and the
run's length. It is a sequence of its crossings in canonical order, read
off prefix popcounts of the rows, and gives the first crossing, canonically
or, with a rank function of a crossing's four endpoints, by rank from a
lazily pruned heap of int keys. Its crossing tests run on a
``geometry._SegmentLanes`` table, lane k for slot k's segment, so a flip
moves its two slots' lanes by adding column deltas, retests only its two
added segments, by a few big-int expressions over n 48-bit lanes, and sets
or clears one bit in a partner's row per crossing it adds or removes; no
step loops over the matching in Python. ``crossing_count`` counts on such a
table without building the index, and a ``Matching`` remembers its count,
which an index of it fills in as it starts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, compress, count
from operator import add

from .geometry import (
    PointSet,
    Segment,
    _SegmentLanes,
    crossed_by_either,
    proper_crossing_quad,
    seg,
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

    #: (ps, length), (ps, crossing count) and (ps, crossing, quad) as last
    #: found for a point set ps: see ``total_length``, ``crossing_count``
    #: and ``check_live``
    _length = _crossings = _quad = None

    @classmethod
    def from_pairs(cls, pairs) -> "Matching":
        """The canonical matching of ``pairs`` of int point indices; a
        float, a string or a bool index is refused, not converted."""
        pairs = list(pairs)
        for a, b in pairs:
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"pair ({a!r}, {b!r}) has an index that is not an int")
        canon = tuple(sorted(seg(a, b) for a, b in pairs))
        m = 2 * len(canon)
        if sorted(chain.from_iterable(canon)) != list(range(m)):
            raise ValueError(
                f"not a perfect matching over 0..{m - 1}: pairs {canon}"
            )
        return cls(canon)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


class FlipChoice(Enum):
    """The two reconnections of a crossing's four endpoints.

    With a the lowest endpoint index, b its partner and x the endpoint with
    orient(a, x, b) > 0, (a, x, b, y) is the convex quad in ccw order.
    Choice A pairs (a,x) with (b,y) and choice B (x,b) with (y,a): opposite
    sides of the quad, hence never crossing each other.
    """

    RECONNECT_A = "A"
    RECONNECT_B = "B"


def find_crossings(ps: PointSet, m: Matching) -> list[CrossingPair]:
    """All properly crossing segment pairs of m, canonically sorted: the
    segments two at a time, each two tested in one pass against the
    segments from the second of them on."""
    pairs = m.pairs
    return sorted(chain.from_iterable(
        crossed_by_either(ps, pairs[i], pairs[i + 1], pairs[i + 1:])
        for i in range(0, len(pairs) - 1, 2)))


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
    removed or added segment is untouched by the flip. The two added
    segments never cross, so each new crossing is found once.
    """
    gone = set(removed)
    out = [c for c in old_crossings if c[0] not in gone and c[1] not in gone]
    out += crossed_by_either(ps, *added, new_matching.pairs)
    out.sort()
    return out


#: A ranked index cuts its heap back to the live keys once it holds more
#: than this many keys per live crossing.
_HEAP_SLACK = 2


class _LiveCrossings:
    """The crossings of a matching along a run of flips over M points.

    A point lies on exactly one segment, so a segment is named by its lower
    endpoint, and crossing ((a, b), (c, d)), a < c, by (a, c): canonical
    order is the order of (a, c). ``mate[p]`` is p's partner. ``up[a]`` has
    bit c set for each segment (c, d) crossing (a, b) with c > a, and
    ``down[a]`` bit c for each with c < a; both rows are 0 at an upper
    endpoint. ``count`` is the number of live crossings, and ``lengths[r]``
    the length of the segment with lower endpoint r, 0.0 at upper endpoints.
    The start's crossing count is remembered on its ``Matching`` for the
    point set, as ``crossing_count`` remembers it.

    The index is a sequence of its crossings in canonical order: ``live[k]``
    bisects the prefix popcounts of the ``up`` rows for a, then reads c off
    row a, so ``rng.choice(live)`` draws what ``rng.choice`` draws from a
    sorted list of the crossings. ``first()`` is the canonically first crossing, the lowest
    bit of the first nonzero ``up`` row. When a ``rank`` function is given,
    ``first()`` is the first by (rank(a, b, c, d), crossing) instead: the top
    of a heap of the int keys ((((rank*M + a)*M + b)*M + c)*M + d), one
    pushed as each crossing appears, and popped, once ``mate`` shows one of
    its segments gone, when it reaches the top. The heap is cut back to its
    live keys when it holds more than ``_HEAP_SLACK`` keys per live crossing.

    The n segments sit in n slots, ``pairs[k]`` in slot k and ``slot[r]``
    the slot of the segment with lower endpoint r; at the start they run in
    canonical order, and a flip's two added segments take over its two
    removed segments' slots. ``pairs`` is read as a ``Matching``'s pairs
    are, by ``two_line_permutation``, and ``check_live`` tests a segment by
    ``in``, which reads ``mate``. Crossings are tested on a
    ``geometry._SegmentLanes`` table, lane k for slot k's segment: a flip
    moves its two slots' lanes by column deltas, and an added segment's
    crossers are the lanes its straddle test sets. So a flip costs O(n)
    big-int work, in C, plus two bit operations per crossing it removes or
    adds, and a heap push per crossing it adds to a ranked index."""

    def __init__(self, ps: PointSet, m: Matching, rank=None):
        self.points = ps.points
        self.size = size = len(ps)
        self.square, self.cube = size ** 2, size ** 3
        self.rank = rank
        self.slack = _HEAP_SLACK
        self.heap = [] if rank else None
        self.pairs = list(m.pairs)
        self.slot = [0] * size
        self.mate = [0] * size
        self.lengths = [0.0] * size
        for k, s in enumerate(m.pairs):
            self._take(k, s)
        self.lanes = _SegmentLanes(ps, m.pairs)
        self.up = [0] * size
        self.down = [0] * size
        self.count = 0
        for k, (a, b) in enumerate(m.pairs):
            self._add(a, b, k + 1)
        object.__setattr__(m, "_crossings", (ps, self.count))

    def _take(self, k: int, s: Segment) -> None:
        """Slot k, its lower endpoint, the mates and the length for s."""
        a, b = s
        self.pairs[k] = s
        self.slot[a] = k
        self.mate[a], self.mate[b] = b, a
        (ax, ay), (bx, by) = self.points[a], self.points[b]
        self.lengths[a] = math.hypot(bx - ax, by - ay)
        self.lengths[b] = 0.0

    def _crossers(self, a: int, b: int, start: int = 0):
        """The segments in slots k >= start that cross (a, b), by slot."""
        return compress(self.pairs[start:], self.lanes.crossing_flags(a, b, start))

    def _add(self, a: int, b: int, start: int = 0) -> None:
        """Record the crossings of (a, b) with the segments in slots >= start."""
        up, down, bit = self.up, self.down, 1 << a
        above = below = 0
        crossers = list(self._crossers(a, b, start))
        for c, _ in crossers:
            if a < c:
                above |= 1 << c
                down[c] |= bit
            else:
                below |= 1 << c
                up[c] |= bit
        up[a] |= above
        down[a] |= below
        self.count += len(crossers)
        if rank := self.rank:
            size, square, heap = self.size, self.square, self.heap
            ab = a * size + b
            for c, d in crossers:
                cd = c * size + d
                heappush(heap, (rank(a, b, c, d) * square + ab) * square + cd
                         if a < c else (rank(c, d, a, b) * square + cd) * square + ab)

    def __len__(self) -> int:
        return self.count

    def __contains__(self, s) -> bool:
        """Whether s is a segment of the matching: a tuple (a, b) of int
        point indices, a < b, with b the mate of a."""
        if type(s) is not tuple or len(s) != 2:
            return False
        a, b = s
        return type(a) is type(b) is int and 0 <= a < b < self.size and self.mate[a] == b

    def __getitem__(self, k: int) -> CrossingPair:
        """The k-th live crossing in canonical order, 0 <= k < len."""
        if not 0 <= k < self.count:
            raise IndexError(k)
        ends = list(accumulate(map(int.bit_count, self.up)))
        a = bisect_right(ends, k)
        row = self.up[a]
        for _ in range(k - ends[a] + row.bit_count()):  # the row's lower bits
            row &= row - 1
        c = (row & -row).bit_length() - 1
        return (a, self.mate[a]), (c, self.mate[c])

    def first(self) -> CrossingPair:
        """The first live crossing: canonically, or by (rank, crossing) in a
        ranked index; the index must not be empty."""
        mate, heap = self.mate, self.heap
        if heap is None:
            a = next(compress(count(), self.up))
            c = (self.up[a] & -self.up[a]).bit_length() - 1
            return (a, mate[a]), (c, mate[c])
        while not self._is_live(heap[0]):
            heappop(heap)
        return self.crossing(heap[0])

    def _is_live(self, key: int) -> bool:
        """Whether both segments of the crossing with int key ``key`` are
        still segments of the matching: each end has its mate."""
        size, mate = self.size, self.mate
        return (mate[key // self.cube % size] == key // self.square % size
                and mate[key // size % size] == key % size)

    def crossing(self, key: int) -> CrossingPair:
        """The crossing with int key ``key``."""
        ab, cd = divmod(key % self.square ** 2, self.square)
        return divmod(ab, self.size), divmod(cd, self.size)

    def length(self) -> float:
        """``total_length`` of the matching, bit for bit: the same sum in
        the same order, as adding 0.0 is exact."""
        return reduce(add, self.lengths, 0.0)

    def flip(self, removed: CrossingPair, added: tuple[Segment, Segment]) -> None:
        """Move on by a flip of ``removed`` that added ``added``."""
        up, down = self.up, self.down
        for a, _ in removed:
            bit = 1 << a
            # clear a from the rows of its partners above, then below
            for rows, row in ((down, up[a]), (up, down[a])):
                self.count -= row.bit_count()
                while row:
                    low = row & -row
                    rows[low.bit_length() - 1] ^= bit
                    row ^= low
            up[a] = down[a] = 0
        slot = self.slot
        free = slot[removed[0][0]], slot[removed[1][0]]
        for k, s in zip(free, added):
            self._take(k, s)
        self.lanes.move(free, removed, added)
        for a, b in added:
            self._add(a, b)
        heap = self.heap
        if heap and len(heap) > self.slack * self.count:
            heap[:] = set(filter(self._is_live, heap))  # each live key once
            heapify(heap)


def crossing_count(ps: PointSet, m: Matching) -> int:
    """``len(find_crossings(ps, m))``: the crossers of every segment on one
    lane table, counted by their top bits. Each crossing is counted from
    both of its segments, so the sum is halved. The count is remembered on
    m for ps, the last point set it was found for, as a ``_LiveCrossings``
    index of m remembers the count it starts with."""
    memo = m._crossings
    if memo is None or memo[0] is not ps:
        lanes = _SegmentLanes(ps, m.pairs)
        memo = ps, sum(lanes.crossers(a, b).bit_count() for a, b in m.pairs) // 2
        object.__setattr__(m, "_crossings", memo)
    return memo[1]


def total_length(ps: PointSet, m: Matching) -> float:
    """Euclidean length of the matching; a monitor, never a control value.

    The segment lengths are summed in C, in the matching's order from 0.0,
    so the float is the one a Python loop adding them up would give. The
    sum is remembered on m for ps, the last point set it was found for, so
    a run of ``flip`` calls sums each matching once."""
    memo = m._length
    if memo is None or memo[0] is not ps:
        pts = ps.points
        memo = ps, reduce(add, [math.dist(pts[a], pts[b]) for a, b in m.pairs], 0.0)
        object.__setattr__(m, "_length", memo)
    return memo[1]


def quad_reconnections(
    quad: tuple[int, int, int, int]
) -> tuple[tuple[Segment, Segment], tuple[Segment, Segment]]:
    """The sorted segment pairs a flip adds under choices A and B, given the
    crossing's ``crossing_quad`` (a, x, b, y): opposite sides of the quad."""
    a, x, b, y = quad
    # a is the lowest of the four, so only the sides at b need sorting
    return (((a, x), (b, y) if b < y else (y, b)),
            ((a, y), (b, x) if b < x else (x, b)))


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


def _record(cls, *values):
    """An instance of the frozen dataclass ``cls`` holding ``values``, every
    field given, in field order: the private constructor of records built
    per step. It fills the instance dict at once, where the dataclass
    ``__init__`` sets each field through ``object.__setattr__``; the
    instance compares, hashes and reprs as ``cls(*values)`` does, and
    refuses assignment as it does."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


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


def check_live(
    ps: PointSet, pairs, crossing: CrossingPair
) -> tuple[int, int, int, int]:
    """The ``crossing_quad`` of ``crossing``, the one step every flip takes
    before reading its added segments off ``quad_reconnections``; raises
    FlipError unless ``crossing`` is a live proper crossing of the matching
    whose segments are ``pairs``: a ``Matching``, or any container of its
    segments (a run passes its ``_LiveCrossings`` index, whose ``in`` reads
    the mates). A segment equal to one of ``pairs`` but with an endpoint
    that is not an int, such as (True, 9) for (1, 9), is not part of the
    matching either. The pair test and the quad are one set of four
    determinants, ``geometry.proper_crossing_quad``.

    A ``Matching`` remembers the last tuple crossing it passed, the point
    set it passed for and its quad, so an audit after the flip of the same
    crossing object reads the quad back instead of testing again. The set
    and the crossing are matched by identity, and only a crossing that
    passed is remembered."""
    if type(pairs) is Matching:
        memo = pairs._quad
        if memo is None or memo[0] is not ps or memo[1] is not crossing:
            memo = ps, crossing, check_live(ps, pairs.pairs, crossing)
            if type(crossing) is tuple:
                object.__setattr__(pairs, "_quad", memo)
        return memo[2]
    e1, e2 = crossing
    if (e1 not in pairs or e2 not in pairs
            or not type(e1[0]) is type(e1[1]) is type(e2[0]) is type(e2[1]) is int):
        raise FlipError(f"crossing {crossing} is not part of the matching")
    if (quad := proper_crossing_quad(ps, e1, e2)) is None:
        raise FlipError(f"segments {e1} and {e2} do not cross")
    return quad


def _flipped(
    ps: PointSet, m: Matching, crossing: CrossingPair, choice: FlipChoice
) -> tuple[Matching, tuple[Segment, Segment]]:
    """The stateless flip, behind ``flip`` and ``apply_flip``: the successor
    matching and the two segments the flip adds. Raises FlipError for a
    stale or corrupt crossing. A run loop flips its ``_LiveCrossings`` index
    instead, and a replay its set of pairs."""
    quad = check_live(ps, m, crossing)
    added = quad_reconnections(quad)[choice is FlipChoice.RECONNECT_B]
    pairs = list(m.pairs)
    pairs.remove(crossing[0])
    pairs.remove(crossing[1])
    pairs += added
    pairs.sort()
    return Matching(tuple(pairs)), added


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
    (its segments do not cross). The lengths are remembered on both
    matchings, so the next flip of ``new`` sums only its successor.
    """
    new, added = _flipped(ps, m, crossing, choice)
    return new, _record(FlipRecord, crossing, choice, added, total_length(ps, m),
                        total_length(ps, new), None, None, None, None, None)


def _replayed(ps: PointSet, initial: Matching, records, states=None) -> Matching:
    """Re-apply recorded flips in order to a set of the matching's pairs,
    O(1) per step, and return the final matching; ``states``, when given,
    gets the matching after each flip.

    Raises ReplayError naming the first step whose crossing is absent, does
    not cross, or whose recorded reconnection does not match its choice.
    """
    pairs = set(initial.pairs)
    for i, rec in enumerate(records):
        try:
            quad = check_live(ps, pairs, rec.crossing)
        except FlipError as exc:
            raise ReplayError(i, str(exc)) from exc
        added = quad_reconnections(quad)[rec.choice is FlipChoice.RECONNECT_B]
        if added != rec.added:
            raise ReplayError(
                i, f"recorded segments {rec.added} differ from reconnection {added}"
            )
        pairs.difference_update(rec.crossing)
        pairs.update(added)
        if states is not None:
            states.append(Matching(tuple(sorted(pairs))))
    return Matching(tuple(sorted(pairs)))


def replay_states(ps: PointSet, initial: Matching, records) -> list[Matching]:
    """Re-apply recorded flips in order: the initial matching, then the
    matching after each flip. Raises ReplayError as ``replay`` does."""
    states = [initial]
    _replayed(ps, initial, records, states)
    return states


def replay(ps: PointSet, initial: Matching, records) -> Matching:
    """The matching recorded flips lead to from ``initial``; it must equal
    the trace's final matching for any trace this package wrote.

    Raises ReplayError naming the first step whose crossing is absent, does
    not cross, or whose recorded reconnection does not match its choice.
    """
    return _replayed(ps, initial, records)
