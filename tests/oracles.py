"""Independent reference computations the suite checks the library against.

Everything here deliberately avoids the code paths under test. The flip-run
extrema come three ways: ``naive_f``/``naive_h`` use plain unmemoized
recursion over successors built here from
``reference_segments_properly_cross`` and ``reference_reconnection_pairs``,
which reads ``reference_ccw_quad_order``, the comparator sort that the one
orientation test of ``geometry.crossing_quad`` replaced: ``matching.check_live``,
the one checked flip step, returns that quad, and the search kernel reads it
directly;
``reference_longest``/``reference_shortest`` are the ``Matching``-based
memoized DFS and BFS that the int flip-graph kernel of ``crossflip.search``
replaced, kept with their witness tie-breaks as the oracle for that kernel;
``reference_successors``, the (crossing, choice, successor) list they read,
is the body of ``search.successors`` before it read that kernel.
The line potential is recomputed with explicit rational offsets instead of
the adjusted-sign rule. ``reference_phi_lines`` and
``reference_decrement_audit`` are the per-line loops over an ``orient`` sign
table that the bitmask kernel of ``crossflip.potentials`` replaced, and
``reference_phi_vertical`` the gap-line count it replaced;
``phi_vertical_rank_formula`` is now the library's own formula.
``reference_segments_properly_cross`` is the four-``orient`` pair test that
the inline integer determinants of ``geometry.segments_properly_cross``
replaced; every oracle here that tests a pair of segments calls it, never
the predicate under test. ``reference_find_crossings`` and
``reference_crossings_after_flip`` are the full pair tests that the
side-vector prefilter of ``crossflip.matching`` replaced, and
``reference_crossed_by`` that prefilter, whose survivors get the full pair
test, which the exact batch test ``geometry.crossed_by``, and then
``geometry.crossed_by_either``, replaced.
``reference_total_length`` is the ``math.hypot`` loop that the C-level sum
of ``matching.total_length`` replaced, bit for bit. ``reference_flip`` is
the stateless flip before a ``Matching`` remembered its length and its last
checked quad: both lengths summed in full and the record built by the
dataclass ``__init__``, where ``matching.flip`` now sums only the successor
and builds the record by ``matching._record``.
``reference_crossed_by_either`` is one pass per segment, as
``geometry.crossed_by`` made them, that the one pass for two segments of
``geometry.crossed_by_either`` replaced, and ``reference_lane_columns``
the five int columns of ``geometry._SegmentLanes`` summed lane by lane
from one tuple of values per segment, which its C-level packing replaced.
``reference_segment_lanes`` is the 64-bit table of five bytearrays, each
lane rewritten by ``write`` and every array read back by ``read``, that
the 48-bit int columns of ``geometry._SegmentLanes``, moved by column
deltas, replaced, with ``reference_top_bits`` its readout; the key-index
oracle keeps its crossings on it.
``reference_max_damage_pick`` is the per-run key dict and ``max`` that the
max-damage heap, and then the ranked
keys of the live index, of ``crossflip.search`` replaced, and
``reference_live_crossings`` the list of
crossing tuples, kept by ``insort`` and a batch test, that the int keys,
blocked sorted list and lane crossing test of ``matching._LiveCrossings``
replaced, and ``reference_point_lane_crossers`` that test on 2n point
lanes, which the n segment-slot lanes replaced.
``reference_keyed_crossings`` is that index of int keys in a blocked sorted
list (``reference_sorted_ints``) with a per-segment set of keys, which the
bitset rows per lower endpoint and the lazily pruned ranked heap of
``matching._LiveCrossings`` replaced. ``reference_crossing_row``
is the per-pair loop, and
``reference_matchings`` the recursive enumerator, that the lane-table rows and
the int enumeration of the ``crossflip.search`` kernel replaced,
``reference_stack_matchings`` that int enumeration's explicit stack with one
entry per leaf, which its walk emitting the last two levels directly
replaced, and
``reference_side_mask_rows`` the up-front build of every row from transposed
side-mask columns that its rows built on first use, and then read off one
segment-lane table, replaced.
``reference_side_masks`` is the per-(anchor, point) cross-product loop that
the packed 64-bit lanes of ``geometry.side_masks`` replaced, and
``reference_line_masks`` the perturbed-line masks built from it, as
``potentials._line_masks`` built them before it read the lanes itself.
``reference_general_position`` and ``reference_random_instance`` are the
``orient`` triple loop and rejection sampler that the direction-vector test
of ``crossflip.geometry`` replaced, ``reference_slope_key_sampler`` the
sampler by a list membership test and ``first_collinear_pair`` at a
per-draw slope scale that ``gen_random``'s set lookup and set-size check at
one scale per box replaced, and ``direction`` and
``reference_first_collinear_pair`` that reduced direction-vector test, which
its exact slope keys replaced. ``reference_middle_gap`` and
``reference_greedy_choice`` are the max-damage key and the raw-x sort of the
x-greedy choice that the one rank table and the one Delta phi_K formula of
``crossflip.search`` replaced, and ``reference_greedy_pairs`` the rank sort
of the four endpoints that its x-greedy rule on one ``crossing_quad``
replaced. ``reference_choice_yielding`` is the search for a target
reconnection among both choices that the bubble strategy's read of one
``crossing_quad`` replaced. ``reference_replay_states`` is the replay that
rebuilt a ``Matching`` by the stateless flip at every step, which the
replay on a set of pairs replaced. ``reference_write_trace`` and ``reference_read_trace``
are the ``csv.DictWriter`` writer, with its pair-loop crossing count of row
0, and the ``csv.DictReader`` reader that the tuple-row trace I/O of
``crossflip.io`` replaced; the reader converts each field by the library's
own field parsers, so it differs from the library only in its row handling.
"""

import csv
import functools
import math
import random
from bisect import bisect_left, insort
from collections import defaultdict, deque
from fractions import Fraction
from itertools import chain, combinations, compress
from operator import add, or_, xor
from struct import Struct, pack

from crossflip import (
    DecrementAudit,
    FlipChoice,
    FlipRecord,
    GenerationError,
    LineType,
    Matching,
    PerturbedLine,
    Point,
    PointSet,
    PotentialInvariantError,
    Side,
    StrategyNotApplicableError,
    apply_flip,
    find_crossings,
    is_noncrossing,
    orient,
    seg,
)
from crossflip import io
from crossflip.geometry import COORD_LIMIT, first_collinear_pair
from crossflip.matching import FlipError, ReplayError, _flipped
from crossflip.potentials import LineAudit, phi_vertical_delta

CHOICES = (FlipChoice.RECONNECT_A, FlipChoice.RECONNECT_B)


def crossing_pair(e1, e2) -> tuple:
    """A crossing of segments e1 and e2 in canonical order, the lower first."""
    return (e1, e2) if e1 < e2 else (e2, e1)


def reference_segments_properly_cross(ps: PointSet, s, t) -> bool:
    """The proper-crossing test by four ``orient`` calls on ``Point``s: each
    segment's endpoints strictly on opposite sides of the other's line."""
    a, b = s
    c, d = t
    if a == c or a == d or b == c or b == d:
        raise ValueError(f"segments {s} and {t} share an endpoint")
    pa, pb, pc, pd = ps[a], ps[b], ps[c], ps[d]
    return (
        orient(pa, pb, pc) * orient(pa, pb, pd) < 0
        and orient(pc, pd, pa) * orient(pc, pd, pb) < 0
    )


def reference_total_length(ps: PointSet, m: Matching) -> float:
    """The matching's length by a Python loop adding one ``math.hypot`` of
    coordinate differences per segment, in the matching's order."""
    total = 0.0
    for a, b in m.pairs:
        (ax, ay), (bx, by) = ps[a], ps[b]
        total += math.hypot(bx - ax, by - ay)
    return total


def reference_flip(ps: PointSet, m: Matching, crossing, choice):
    """The successor matching and the record of a flip of a live crossing,
    as the stateless flip gave them before a ``Matching`` remembered its
    length and its last checked quad: the added segments by the comparator
    sort, both lengths by the ``math.hypot`` loop and the record by the
    dataclass ``__init__``."""
    added = reference_reconnection_pairs(ps, crossing, choice)
    new = Matching(tuple(sorted(set(m.pairs) - set(crossing) | set(added))))
    return new, FlipRecord(crossing, choice, added, reference_total_length(ps, m),
                           reference_total_length(ps, new))


def reference_crossed_by_either(ps: PointSet, s, u, segments) -> list:
    """The crossings of s or u with ``segments`` by one
    ``reference_crossed_by`` pass per segment, in the order of the crossing
    segment, against s first; a segment sharing an endpoint with s or u
    never crosses it."""
    hits = [set(reference_crossed_by(ps, x, [t for t in segments if not set(x) & set(t)]))
            for x in (s, u)]
    return [crossing_pair(x, t) for t in segments
            for x, hit in zip((s, u), hits) if t in hit]


def reference_lane_columns(ps: PointSet, segments) -> list[int]:
    """The five int columns of a ``_SegmentLanes`` table of ``segments``,
    summed lane by lane from one tuple of values per segment: the shifted
    coordinates of its first endpoint, its x and y extents, and the bias
    minus its line's constant, each in its 48-bit lane."""
    xs = [x + COORD_LIMIT for x, _ in ps.points]
    ys = [y + COORD_LIMIT for _, y in ps.points]
    rows = [(xs[a], ys[a], xs[b] - xs[a], ys[b] - ys[a],
             (1 << 47) - 1 - (xs[b] - xs[a]) * ys[a] + (ys[b] - ys[a]) * xs[a])
            for a, b in segments]
    return [sum(value << 48 * k for k, value in enumerate(column))
            for column in zip(*rows)]


#: per byte, b"1" when its top bit is set and b"0" otherwise
_TOP_BIT = bytes(48 + (i >> 7) for i in range(256))
_LANE = Struct("<Q")


def reference_top_bits(lanes: int, count: int) -> int:
    """Bit k set when 64-bit lane k of the ``count`` lanes has its top bit
    set."""
    return int(lanes.to_bytes(8 * count, "big")[::8].translate(_TOP_BIT), 2)


class reference_segment_lanes:
    """The 64-bit segment-lane table that the 48-bit int columns of
    ``geometry._SegmentLanes`` replaced: segment k in 64-bit lane k, biased
    by 2**63 - 1. Five bytearrays hold each segment's first and second
    endpoint's x and y, shifted by COORD_LIMIT to be nonnegative, and the
    bias minus its line's constant; ``write`` rewrites one lane and
    ``read`` reads each array back as one int."""

    bias = (1 << 63) - 1

    def __init__(self, ps: PointSet, segments):
        self.xs = [x + COORD_LIMIT for x, _ in ps.points]
        self.ys = [y + COORD_LIMIT for _, y in ps.points]
        self.count = count = len(segments)
        self.ones = int.from_bytes(_LANE.pack(1) * count, "little")  # 1 per lane
        xs, ys = self.xs, self.ys
        ax, ay = [xs[a] for a, _ in segments], [ys[a] for a, _ in segments]
        bx, by = [xs[b] for _, b in segments], [ys[b] for _, b in segments]
        q = [self.bias + x1 * y2 - x2 * y1 for x1, y1, x2, y2 in zip(ax, ay, bx, by)]
        self.lanes = [bytearray(pack(f"<{count}Q", *column))
                      for column in (ax, ay, bx, by, q)]
        self.read()

    def write(self, k: int, s) -> None:
        """Lane k from segment s, as the constructor fills each lane;
        ``read`` makes it count."""
        a, b = s
        ax, ay, bx, by = self.xs[a], self.ys[a], self.xs[b], self.ys[b]
        k *= 8
        lax, lay, lbx, lby, lq = self.lanes
        _LANE.pack_into(lax, k, ax)
        _LANE.pack_into(lay, k, ay)
        _LANE.pack_into(lbx, k, bx)
        _LANE.pack_into(lby, k, by)
        _LANE.pack_into(lq, k, self.bias + ax * by - bx * ay)

    def read(self) -> None:
        self.ax, self.ay, self.bx, self.by, self.q = (
            int.from_bytes(lane, "little") for lane in self.lanes)
        self.dx = self.bx - self.ax
        self.dy = self.by - self.ay

    def sides(self, x: int, y: int) -> int:
        return self.dx * y - self.dy * x + self.q

    def straddle(self, a: int, b: int) -> int:
        xa, ya, xb, yb = self.xs[a], self.ys[a], self.xs[b], self.ys[b]
        dx, dy, ones = xb - xa, yb - ya, self.ones
        bias = (self.bias - dx * ya + dy * xa) * ones
        first = dx * self.ay - dy * self.ax + bias
        second = dx * self.by - dy * self.bx + bias
        to_a, to_b = self.sides(xa, ya), self.sides(xb, yb)
        return ((first ^ second) & (first + ones ^ second + ones)
                & (to_a ^ to_b) & (to_a + ones ^ to_b + ones))

    def crossers(self, a: int, b: int) -> int:
        return reference_top_bits(self.straddle(a, b), self.count)


def reference_find_crossings(ps: PointSet, m: Matching) -> list:
    """All properly crossing segment pairs of m by the plain pair loop."""
    out = []
    pairs = m.pairs
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if reference_segments_properly_cross(ps, pairs[i], pairs[j]):
                out.append((pairs[i], pairs[j]))
    return out


def crossing_count_brute(ps: PointSet, m: Matching) -> int:
    return len(reference_find_crossings(ps, m))


def reference_crossed_by(ps: PointSet, s, segments) -> list:
    """The segments of ``segments`` that properly cross s: a segment whose
    endpoints fall on opposite sides of line s (a one-way strict test per
    point) gets the full ``reference_segments_properly_cross`` test."""
    (ax, ay), (bx, by) = ps[s[0]], ps[s[1]]
    dx, dy = bx - ax, by - ay
    above = [dx * (y - ay) > dy * (x - ax) for x, y in ps.points]
    return [t for t in segments if above[t[0]] != above[t[1]]
            and reference_segments_properly_cross(ps, s, t)]


def reference_point_lane_crossers(ps: PointSet, m: Matching, s) -> list[int]:
    """The lower endpoints of the segments of m that properly cross s,
    ascending, by the point-lane test that the slot lanes of
    ``matching._LiveCrossings`` replaced: lane r for point r and its segment
    (r, partner(r)) over all 2n points, holding the point's and the
    partner's x and y, the bias minus the segment's line constant and a top
    bit at lower endpoints, which masks out the upper endpoints' lanes."""
    size = len(ps)
    xs = [x + COORD_LIMIT for x, _ in ps.points]
    ys = [y + COORD_LIMIT for _, y in ps.points]
    partner = [0] * size
    for a, b in m.pairs:
        partner[a], partner[b] = b, a
    lane_bias = (1 << 63) - 1

    def lanes(values):
        return int.from_bytes(pack(f"<{size}Q", *values), "little")

    x_lanes, y_lanes = lanes(xs), lanes(ys)
    px, py = lanes(xs[p] for p in partner), lanes(ys[p] for p in partner)
    q = lanes(lane_bias - (xs[p] - xs[r]) * ys[r] + (ys[p] - ys[r]) * xs[r]
              for r, p in enumerate(partner))
    low = lanes((r < p) << 63 for r, p in enumerate(partner))
    ones = ((1 << 64 * size) - 1) // ((1 << 64) - 1)
    a, b = s
    xa, ya, xb, yb = xs[a], ys[a], xs[b], ys[b]
    dx, dy = xb - xa, yb - ya
    bias = (lane_bias - dx * ya + dy * xa) * ones
    here = dx * y_lanes - dy * x_lanes + bias
    there = dx * py - dy * px + bias
    to_a = (px - x_lanes) * ya - (py - y_lanes) * xa + q
    to_b = (px - x_lanes) * yb - (py - y_lanes) * xb + q
    bits = ((here ^ there) & (here + ones ^ there + ones)
            & (to_a ^ to_b) & (to_a + ones ^ to_b + ones) & low)
    return list(compress(range(size), bits.to_bytes(8 * size, "little")[7::8]))


def reference_crossings_after_flip(ps: PointSet, new_matching: Matching,
                                   old_crossings, removed, added) -> list:
    """The crossing list after a flip, testing both added segments against
    every other segment in full."""
    gone = set(removed)
    out = [c for c in old_crossings if c[0] not in gone and c[1] not in gone]
    for s in added:
        for t in new_matching.pairs:
            if t == added[0] or t == added[1]:
                continue
            if reference_segments_properly_cross(ps, s, t):
                out.append(crossing_pair(s, t))
    out.sort()
    return out


class reference_live_crossings:
    """The crossings of a matching along a run of flips as the strategy
    runner kept them before the lane index: ``sorted``, crossing tuples in
    canonical order kept by ``insort`` and ``del``, and ``of``, each
    segment's set of crossings; the added segments are retested by
    ``reference_crossed_by``."""

    def __init__(self, ps: PointSet, m: Matching):
        self.ps = ps
        self.sorted = find_crossings(ps, m)
        self.of = defaultdict(set)
        for c in self.sorted:
            self.of[c[0]].add(c)
            self.of[c[1]].add(c)

    def flip(self, new_matching: Matching, removed, added) -> list:
        """Move on to ``new_matching``; returns the crossings it gained."""
        live, of = self.sorted, self.of
        for s in removed:
            for c in of.pop(s):
                del live[bisect_left(live, c)]
                of[c[1] if c[0] == s else c[0]].discard(c)
        new = [crossing_pair(s, t) for s in added
               for t in reference_crossed_by(self.ps, s, [
                   t for t in new_matching.pairs if not set(s) & set(t)])]
        for c in new:
            insort(live, c)
            of[c[0]].add(c)
            of[c[1]].add(c)
        return new


#: Block size of ``reference_sorted_ints``, as in sortedcontainers' SortedList.
SORTED_INTS_LOAD = 1000


class reference_sorted_ints:
    """Distinct ints in ascending order, in blocks of at most 2 * load: the
    design of sortedcontainers' SortedList, without the package. A block is
    found by bisecting the blocks' maxima, so an insert or a delete moves at
    most 2 * load ints, in C. A block cut to load / 2 ints or fewer is
    merged into a neighbour. ``[k]`` walks the blocks, for 0 <= k < len."""

    def __init__(self, values: list[int]):
        self.load = load = SORTED_INTS_LOAD
        self.blocks = [values[i:i + load] for i in range(0, len(values), load)]
        self.maxes = [block[-1] for block in self.blocks]
        self.len = len(values)

    def __len__(self) -> int:
        return self.len

    def __iter__(self):
        return chain.from_iterable(self.blocks)

    def __getitem__(self, k: int) -> int:
        for block in self.blocks:
            if k < len(block):
                return block[k]
            k -= len(block)
        raise IndexError(k)

    def _split(self, i: int) -> None:
        """Cut block i, longer than 2 * load, after its first load ints."""
        block = self.blocks[i]
        self.blocks.insert(i + 1, block[self.load:])
        del block[self.load:]
        self.maxes.insert(i, block[-1])

    def add(self, value: int) -> None:
        blocks, maxes = self.blocks, self.maxes
        self.len += 1
        if not blocks:
            blocks.append([value])
            maxes.append(value)
            return
        i = bisect_left(maxes, value)
        if i == len(maxes):
            i -= 1
            blocks[i].append(value)
            maxes[i] = value
        else:
            insort(blocks[i], value)
        if len(blocks[i]) > 2 * self.load:
            self._split(i)

    def remove(self, value: int) -> None:
        """Delete ``value``, which must be present."""
        blocks, maxes = self.blocks, self.maxes
        self.len -= 1
        i = bisect_left(maxes, value)
        block = blocks[i]
        del block[bisect_left(block, value)]
        if len(block) > self.load >> 1 or len(blocks) == 1:
            if block:
                maxes[i] = block[-1]
            else:
                del blocks[i], maxes[i]
            return
        i = max(i, 1)  # merge block i into block i - 1
        blocks[i - 1] += blocks.pop(i)
        del maxes[i]
        maxes[i - 1] = blocks[i - 1][-1]
        if len(blocks[i - 1]) > 2 * self.load:
            self._split(i - 1)


class reference_keyed_crossings:
    """The crossings of a matching along a run of flips over M points as
    ``matching._LiveCrossings`` kept them before its bitset rows and ranked
    heap: crossing ((a, b), (c, d)) has the int key ((a*M + b)*M + c)*M + d,
    plus rank(a, b, c, d) * M**4 when a ``rank`` function is given, so the
    keys run by (rank, crossing). ``keys`` holds the live keys in a
    ``reference_sorted_ints``, and ``of[r]`` the keys of the segment whose
    lower endpoint is r. Crossings are tested on the same slot lanes, and
    the length is kept the same way."""

    def __init__(self, ps: PointSet, m: Matching, rank=None):
        self.points = ps.points
        self.size = size = len(ps)
        self.cube = size ** 3
        self.rank = rank
        self.pairs = list(m.pairs)
        self.slot = [0] * size
        self.lengths = [0.0] * size
        for k, s in enumerate(m.pairs):
            self._take(k, s)
        self.lanes = reference_segment_lanes(ps, m.pairs)
        self.of: list[set[int]] = [set() for _ in range(size)]
        keys = []
        for k, (a, b) in enumerate(m.pairs):
            for c, d in self._crossers(a, b, k + 1):
                key = self._key(a, b, c, d)
                keys.append(key)
                self.of[a].add(key)
                self.of[c].add(key)
        keys.sort()
        self.keys = reference_sorted_ints(keys)

    def _key(self, a: int, b: int, c: int, d: int) -> int:
        """The key of crossing ((a, b), (c, d)), where (a, b) < (c, d)."""
        size = self.size
        key = ((a * size + b) * size + c) * size + d
        return key + self.rank(a, b, c, d) * self.cube * size if self.rank else key

    def _take(self, k: int, s) -> None:
        a, b = s
        self.pairs[k] = s
        self.slot[a] = k
        (ax, ay), (bx, by) = self.points[a], self.points[b]
        self.lengths[a] = math.hypot(bx - ax, by - ay)
        self.lengths[b] = 0.0

    def _crossers(self, a: int, b: int, start: int = 0):
        bits = self.lanes.straddle(a, b)
        pairs = self.pairs
        return compress(pairs[start:],
                        bits.to_bytes(8 * len(pairs), "little")[8 * start + 7::8])

    def __len__(self) -> int:
        return len(self.keys)

    def crossing(self, key: int):
        size = self.size
        key, d = divmod(key, size)
        key, c = divmod(key, size)
        a, b = divmod(key % (size * size), size)
        return (a, b), (c, d)

    def length(self) -> float:
        return functools.reduce(add, self.lengths, 0.0)

    def flip(self, removed, added) -> None:
        keys, of, size = self.keys, self.of, self.size
        for lo, _ in removed:
            gone, of[lo] = of[lo], set()
            for key in gone:
                keys.remove(key)
                first = key // self.cube % size
                of[key // size % size if first == lo else first].discard(key)
        slot, lanes = self.slot, self.lanes
        free = slot[removed[0][0]], slot[removed[1][0]]
        for k, s in zip(free, added):
            self._take(k, s)
            lanes.write(k, s)
        lanes.read()
        for a, b in added:
            for c, d in self._crossers(a, b):
                key = self._key(a, b, c, d) if a < c else self._key(c, d, a, b)
                keys.add(key)
                of[a].add(key)
                of[c].add(key)


def reference_ccw_quad_order(ps: PointSet, indices):
    """Four point indices sorted counterclockwise around the lowest one by
    an orientation comparator. For a quad in convex position the three
    other vertices lie in an open half-plane wedge at the lowest one, so
    the comparator is a strict total order there."""
    base, *rest = sorted(indices)
    bp = ps[base]
    rest.sort(key=functools.cmp_to_key(lambda a, b: -orient(bp, ps[a], ps[b])))
    return (base, *rest)


def reference_convex_position_ccw(ps: PointSet, ordered) -> bool:
    """True iff the four points, taken in the given cyclic order, form a
    strictly convex counterclockwise quadrilateral."""
    q1, q2, q3, q4 = ordered
    return (
        orient(ps[q1], ps[q2], ps[q3]) > 0
        and orient(ps[q2], ps[q3], ps[q4]) > 0
        and orient(ps[q3], ps[q4], ps[q1]) > 0
        and orient(ps[q4], ps[q1], ps[q2]) > 0
    )


def reference_reconnection_pairs(ps: PointSet, crossing, choice):
    """The two segments a flip adds, by sorting the four endpoints
    counterclockwise around the lowest one: choice A pairs (q1,q2) with
    (q3,q4), choice B (q2,q3) with (q4,q1)."""
    (a, b), (c, d) = crossing
    q1, q2, q3, q4 = reference_ccw_quad_order(ps, (a, b, c, d))
    if choice is FlipChoice.RECONNECT_A:
        e1, e2 = seg(q1, q2), seg(q3, q4)
    else:
        e1, e2 = seg(q2, q3), seg(q4, q1)
    return (e1, e2) if e1 < e2 else (e2, e1)


def reference_side_masks(ps: PointSet):
    """``(pos, on)``: bit k of ``pos[r]`` is set when orient(p_a, p_b, p_r)
    > 0 and of ``on[r]`` when it is 0, for the k-th anchor pair a < b in
    lexicographic order, by one cross product per (anchor pair, point), each
    sign written as a "0" or "1" character of the row text."""
    pts = ps.points
    # orient(p_a, p_b, p_r) has the sign of dx * y_r - dy * x_r - c; the
    # anchors run highest bit first, as int(text, 2) reads them
    anchors = [
        (bx - ax, by - ay, (bx - ax) * ay - (by - ay) * ax)
        for a, (ax, ay) in enumerate(pts)
        for bx, by in pts[a + 1:]
    ]
    anchors.reverse()
    pos, on = [], []
    for rx, ry in pts:
        dets = [dx * ry - dy * rx - c for dx, dy, c in anchors]
        pos.append(int("".join(["1" if d > 0 else "0" for d in dets]), 2))
        on.append(int("".join(["1" if d == 0 else "0" for d in dets]), 2))
    return tuple(pos), tuple(on)


def reference_line_masks(ps: PointSet) -> tuple[int, ...]:
    """Per point, its PLUS bits ``pos`` and, K = C(2n, 2) bits higher, its
    MINUS bits ``pos | on``, from ``reference_side_masks``: an anchor falls
    to the side opposite the offset."""
    pos, on = reference_side_masks(ps)
    half = len(ps) * (len(ps) - 1) // 2
    return tuple(p | (p | z) << half for p, z in zip(pos, on))


def reference_crossing_row(ps: PointSet, k: int):
    """(row, masks) of the k-th segment in lexicographic order, by one
    ``reference_segments_properly_cross`` test per later disjoint segment: ``row`` has
    bit j set for each later segment j it crosses, and ``masks`` maps each
    crossing pair's two bits to the XOR masks of choices A and B."""
    segs = list(combinations(range(len(ps)), 2))
    bit = {s: 1 << j for j, s in enumerate(segs)}
    s = segs[k]
    row = 0
    masks = {}
    for t in segs[k + 1:]:
        if set(s) & set(t) or not reference_segments_properly_cross(ps, s, t):
            continue
        row |= bit[t]
        pair = bit[s] | bit[t]
        masks[pair] = tuple(
            pair | bit[e1] | bit[e2]
            for e1, e2 in (reference_reconnection_pairs(ps, (s, t), c)
                           for c in CHOICES))
    return row, masks


def reference_side_mask_rows(ps: PointSet) -> list[int]:
    """Every segment's crossing row, in lexicographic segment order, built
    up front from the side masks of ``reference_side_masks``: each mask is
    transposed into per-segment columns of point bits by one bytes
    translation, then each row is read off its two columns, as
    ``search._FlipGraph`` did before it read its rows off a segment-lane
    table."""
    segs = list(combinations(range(len(ps)), 2))
    incident = [sum(1 << j for j, s in enumerate(segs) if r in s)
                for r in range(len(ps))]
    pos, on = reference_side_masks(ps)
    to_bits = bytes.maketrans(b"01", b"\0\1")
    pos_cols, on_cols = (
        zip(*[format(x, f"0{len(segs)}b")[::-1].encode().translate(to_bits)
              for x in masks]) for masks in (pos, on))
    rows = []
    for k, ((a, b), plus, line) in enumerate(zip(segs, pos_cols, on_cols)):
        straddling = functools.reduce(xor, compress(incident, plus), 0)
        excluded = functools.reduce(or_, compress(incident, line), on[a] | on[b])
        rows.append((pos[a] ^ pos[b]) & straddling & ~excluded & -2 << k)
    return rows


def reference_matchings(m: int):
    """The pairs of every perfect matching of points 0..m-1 in canonical
    order, by recursion on the lowest free point's partner."""

    def rec(avail: tuple[int, ...]):
        if not avail:
            yield ()
            return
        first = avail[0]
        for i in range(1, len(avail)):
            rest = avail[1:i] + avail[i + 1:]
            for tail in rec(rest):
                yield ((first, avail[i]),) + tail

    return rec(tuple(range(m)))


def reference_stack_matchings(m: int):
    """The kernel key and the pairs of every perfect matching of points
    0..m-1 in canonical order, by an explicit stack with one entry per
    partial matching, leaves included. A segment's bit is its rank among
    the C(m, 2) segments in lexicographic order."""
    rank = {seg: k for k, seg in enumerate(combinations(range(m), 2))}
    # a partial matching: its key, its pairs and its free points; the
    # partners are pushed in reverse, so the lowest pops first
    stack = [(0, (), tuple(range(m)))]
    while stack:
        key, pairs, free = stack.pop()
        if not free:
            yield key, pairs
            continue
        a, rest = free[0], free[1:]
        stack += [(key | 1 << rank[a, b], pairs + ((a, b),),
                   rest[:i] + rest[i + 1:])
                  for i, b in reversed(list(enumerate(rest)))]


def naive_successors(ps: PointSet, m: Matching) -> list[Matching]:
    """Every flip successor of m, from the predicates alone."""
    pairs = m.pairs
    out = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if not reference_segments_properly_cross(ps, pairs[i], pairs[j]):
                continue
            rest = [p for k, p in enumerate(pairs) if k not in (i, j)]
            for choice in CHOICES:
                added = reference_reconnection_pairs(
                    ps, (pairs[i], pairs[j]), choice)
                out.append(Matching(tuple(sorted(rest + list(added)))))
    return out


def naive_f(ps: PointSet, m: Matching) -> int:
    """Longest run by bare recursion, no memo, no cycle bookkeeping."""
    return max((1 + naive_f(ps, child) for child in naive_successors(ps, m)),
               default=0)


def naive_h(ps: PointSet, m: Matching) -> int:
    """Shortest run by bare recursion."""
    return min((1 + naive_h(ps, child) for child in naive_successors(ps, m)),
               default=0)


def reference_successors(ps: PointSet, m: Matching):
    """(crossing, choice, successor) in canonical order, from the Matching
    layer: crossings sorted, choice A before choice B."""
    return [(crossing, choice, apply_flip(ps, m, crossing, choice))
            for crossing in find_crossings(ps, m) for choice in CHOICES]


def reference_longest(ps: PointSet, start: Matching, memo: dict | None = None):
    """(f, witness moves) by memoized iterative post-order DFS over
    ``Matching`` objects. ``memo`` maps ``Matching.pairs`` to (value, best
    move) and may be shared across start matchings. The witness takes the
    first successor in canonical order attaining the max."""
    memo = {} if memo is None else memo
    if start.pairs not in memo:
        on_stack = {start.pairs}
        # frame: [matching, successors, next index, best value, best move]
        stack = [[start, reference_successors(ps, start), 0, 0, None]]
        while stack:
            frame = stack[-1]
            if frame[2] < len(frame[1]):
                crossing, choice, child = frame[1][frame[2]]
                hit = memo.get(child.pairs)
                if hit is None:
                    if child.pairs in on_stack:
                        raise AssertionError(f"cycle at {child.pairs}")
                    on_stack.add(child.pairs)
                    stack.append([child, reference_successors(ps, child), 0, 0, None])
                    continue
                if hit[0] + 1 > frame[3]:
                    frame[3], frame[4] = hit[0] + 1, (crossing, choice)
                frame[2] += 1
            else:
                stack.pop()
                on_stack.discard(frame[0].pairs)
                memo[frame[0].pairs] = (frame[3], frame[4])
    moves = []
    m = start
    while memo[m.pairs][1] is not None:
        moves.append(memo[m.pairs][1])
        m = apply_flip(ps, m, *moves[-1])
    return memo[start.pairs][0], moves


def reference_shortest(ps: PointSet, start: Matching):
    """Witness moves of a shortest run by BFS over ``Matching`` objects with
    first-discovery parents, stopping at the first non-crossing matching
    discovered."""
    if is_noncrossing(ps, start):
        return []
    parents = {start.pairs: None}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for crossing, choice, child in reference_successors(ps, m):
            if child.pairs in parents:
                continue
            parents[child.pairs] = (m.pairs, crossing, choice)
            if is_noncrossing(ps, child):
                moves = []
                key = child.pairs
                while parents[key] is not None:
                    key, crossing, choice = parents[key]
                    moves.append((crossing, choice))
                return moves[::-1]
            queue.append(child)
    raise AssertionError("no non-crossing matching reachable")


def _gap_ranks(ps: PointSet) -> dict[int, int]:
    xs = [p.x for p in ps]
    assert len(set(xs)) == len(xs)
    return {i: r for r, i in enumerate(sorted(range(len(xs)), key=xs.__getitem__))}


def phi_vertical_rank_formula(ps: PointSet, m: Matching) -> int:
    """Sum over segments of |xrank(a) - xrank(b)|: the formula the library
    computes ``phi_vertical`` by, so no independent check of it."""
    rank = _gap_ranks(ps)
    return sum(abs(rank[a] - rank[b]) for a, b in m.pairs)


def reference_middle_gap(ps: PointSet, crossing, rank=None) -> int:
    """Number of x-gaps strictly between the crossing's 2nd and 3rd endpoint
    in x-order; the x-greedy flip lowers phi_vertical by twice this.
    ``rank`` is ``_gap_ranks(ps)`` if the caller has it."""
    rank = rank or _gap_ranks(ps)
    r = sorted(rank[i] for s in crossing for i in s)
    return r[2] - r[1]


def reference_greedy_pairs(ranks, crossing) -> tuple:
    """The segments pairing the crossing's two x-leftmost endpoints and its
    two x-rightmost, under ``ranks = x_ranks(ps)``: the sort of the four
    endpoints that the x-greedy rule on ``crossing_quad`` in
    ``crossflip.search`` replaced."""
    (a, b), (c, d) = crossing
    q = sorted((a, b, c, d), key=ranks.__getitem__)
    return seg(q[0], q[1]), seg(q[2], q[3])


def reference_greedy_choice(ps: PointSet, crossing) -> FlipChoice:
    """The x-greedy choice by sorting the four endpoints on raw x; refused
    only when those four repeat an x."""
    (a, b), (c, d) = crossing
    quad = sorted((a, b, c, d), key=lambda i: ps[i].x)
    if len({ps[i].x for i in quad}) != 4:
        raise StrategyNotApplicableError(
            "x-greedy reconnection needs distinct x among the four endpoints"
        )
    target = (seg(quad[0], quad[1]), seg(quad[2], quad[3]))
    return reference_choice_yielding(ps, crossing, target)


def reference_choice_yielding(ps: PointSet, crossing, target) -> FlipChoice:
    """The choice whose reconnection equals ``target`` (as an unordered
    pair): the search for the target among both reconnections that the
    bubble strategy's read of ``crossing_quad`` replaced."""
    want = tuple(sorted(seg(a, b) for a, b in target))
    for choice in CHOICES:
        if reference_reconnection_pairs(ps, crossing, choice) == want:
            return choice
    raise ValueError(f"{target} is not a reconnection of {crossing}")


def reference_phi_vertical(ps: PointSet, m: Matching) -> int:
    """Crossings of the matching with the 2n - 1 vertical gap lines, one gap
    at a time: gap g lies between the g-th and (g+1)-th points in x-order."""
    rank = _gap_ranks(ps)
    total = 0
    for g in range(len(ps) - 1):
        for u, v in m.pairs:
            ru, rv = sorted((rank[u], rank[v]))
            if ru <= g < rv:
                total += 1
    return total


def _sign_table(ps: PointSet) -> dict[tuple[int, int], tuple[int, ...]]:
    """orient(a, b, r) for every anchor pair a < b and every point r."""
    pts = ps.points
    return {
        (a, b): tuple(orient(pts[a], pts[b], r) for r in pts)
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
    }


def reference_phi_lines(ps: PointSet, m: Matching) -> int:
    """Line potential by a loop over every perturbed line and segment, with
    the adjusted-sign rule applied per endpoint."""
    total = 0
    for signs in _sign_table(ps).values():
        for side in (1, -1):
            for u, v in m.pairs:
                if (signs[u] or -side) != (signs[v] or -side):
                    total += 1
    return total


def reference_decrement_audit(ps, m, crossing, choice, detail=False,
                              phi_l_before=None) -> DecrementAudit:
    """``decrement_audit`` by a loop over every perturbed line: classify it
    against the quad in ccw order and compare its crossings with the two
    removed and the two added segments."""
    e1, e2 = crossing
    added = reference_reconnection_pairs(ps, crossing, choice)
    n1, n2 = added
    quad_order = reference_ccw_quad_order(ps, (*e1, *e2))
    if not reference_convex_position_ccw(ps, quad_order):
        raise ValueError(f"crossing {crossing} endpoints not in convex position")

    counts = {t: 0 for t in LineType}
    delta_l = 0
    entries = [] if detail else None
    for anchor, signs in _sign_table(ps).items():
        for side in (1, -1):
            adj = [(signs[q] or -side) for q in quad_order]
            total = sum(adj)
            if total in (4, -4):
                line_type = LineType.NO_INTERSECT
            elif total in (2, -2):
                line_type = LineType.L3
            elif adj[0] == adj[1]:
                line_type = LineType.L1
            elif adj[1] == adj[2]:
                line_type = LineType.L2
            else:
                raise PotentialInvariantError(
                    f"line {anchor}/{side} splits quad {quad_order} along "
                    "its diagonals"
                )
            counts[line_type] += 1

            def crosses(s):
                return (signs[s[0]] or -side) != (signs[s[1]] or -side)

            d = crosses(n1) + crosses(n2) - crosses(e1) - crosses(e2)
            if d > 0:
                raise PotentialInvariantError(
                    f"line {anchor}/{side} gained intersections across flip "
                    f"of {crossing}"
                )
            delta_l += d
            if entries is not None:
                entries.append(LineAudit(
                    PerturbedLine(anchor[0], anchor[1], Side(side)), line_type, d
                ))

    if phi_l_before is None:
        phi_l_before = reference_phi_lines(ps, m)
    if ps.has_distinct_x():
        rank = _gap_ranks(ps)
        delta_k = sum(abs(rank[u] - rank[v]) for u, v in added) - sum(
            abs(rank[u] - rank[v]) for u, v in crossing
        )
        phi_k_before = reference_phi_vertical(ps, m)
        phi_k_after = phi_k_before + delta_k
    else:
        delta_k = phi_k_before = phi_k_after = None
    return DecrementAudit(
        crossing=crossing,
        choice=choice,
        added=added,
        line_type_counts=counts,
        delta_phi_l=delta_l,
        phi_l_before=phi_l_before,
        phi_l_after=phi_l_before + delta_l,
        delta_phi_k=delta_k,
        phi_k_before=phi_k_before,
        phi_k_after=phi_k_after,
        lines=tuple(entries) if entries is not None else None,
    )


def phi_lines_rational_offset(ps: PointSet, m: Matching) -> int:
    """Line potential via explicit offset lines in rational arithmetic.

    The anchors' orientation determinants are integers, so offsetting the
    line level by 1/2 realizes "infinitesimally to one side" exactly: a
    point's value is det - side/2, and a segment crosses iff its endpoint
    values have opposite signs.
    """
    half = Fraction(1, 2)
    pts = ps.points
    total = 0
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            pa, pb = pts[a], pts[b]
            dets = [
                (pb.x - pa.x) * (r.y - pa.y) - (pb.y - pa.y) * (r.x - pa.x)
                for r in pts
            ]
            for side in (1, -1):
                for u, v in m.pairs:
                    if (dets[u] - side * half) * (dets[v] - side * half) < 0:
                        total += 1
    return total


def run_random_flips(ps, m, rng, pick_choice=None):
    """Flip uniformly random crossings until none remain; return flip count.

    Used by termination checks; the caller bounds the count externally.
    """
    steps = 0
    crossings = find_crossings(ps, m)
    while crossings:
        crossing = rng.choice(crossings)
        choice = pick_choice or rng.choice(CHOICES)
        m = apply_flip(ps, m, crossing, choice)
        crossings = find_crossings(ps, m)
        steps += 1
    return steps


def reference_general_position(ps: PointSet) -> tuple[int, ...] | None:
    """``validate_general_position`` by scanning every index pair for
    duplicates, then every index triple for ``orient == 0``, both in
    lexicographic order: O(m^3)."""
    pts = ps.points
    m = len(pts)
    for i in range(m):
        for j in range(i + 1, m):
            if pts[i] == pts[j]:
                return (i, j)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                if orient(pts[i], pts[j], pts[k]) == 0:
                    return (i, j, k)
    return None


def reference_random_instance(n: int, seed: int, bbox=(0, 512)):
    """``gen_random``'s points and matching pairs, drawn the same way but
    rejecting a candidate by ``orient`` over every pair of accepted points:
    O(n^2) per draw."""
    lo, hi = bbox
    rng = random.Random(seed)
    pts: list[Point] = []
    budget = 4000 * n
    draws = 0
    while len(pts) < 2 * n:
        if draws >= budget:
            raise GenerationError(
                f"rejection budget exhausted after {draws} draws; bbox {bbox} "
                f"too small for {2 * n} points in general position"
            )
        draws += 1
        cand = Point(rng.randint(lo, hi), rng.randint(lo, hi))
        if cand in pts:
            continue
        if any(
            orient(pts[i], pts[j], cand) == 0
            for i, j in combinations(range(len(pts)), 2)
        ):
            continue
        pts.append(cand)
    order = list(range(2 * n))
    rng.shuffle(order)
    return tuple(pts), [(order[2 * i], order[2 * i + 1]) for i in range(n)]


def reference_slope_key_sampler(n: int, seed: int, bbox=(0, 512)):
    """``gen_random``'s points and matching pairs by the loop its set-size
    rejection replaced: a candidate is rejected when it is in the list of
    accepted points or ``first_collinear_pair`` finds a pair, at the slope
    scale of the accepted points' x-span from it. Refuses a box of too few
    columns as ``gen_random`` does."""
    lo, hi = bbox
    if n > hi - lo + 1:
        raise GenerationError(
            f"bbox {bbox} has {hi - lo + 1} columns, too few for {2 * n} "
            "points in general position (at most two per column)"
        )
    rng = random.Random(seed)
    pts: list[Point] = []
    budget = 4000 * n
    draws = 0
    while len(pts) < 2 * n:
        if draws >= budget:
            raise GenerationError(
                f"rejection budget exhausted after {draws} draws; bbox {bbox} "
                f"too small for {2 * n} points in general position"
            )
        draws += 1
        cand = Point(rng.randint(lo, hi), rng.randint(lo, hi))
        if cand in pts or first_collinear_pair(cand, pts) is not None:
            continue
        pts.append(cand)
    order = list(range(2 * n))
    rng.shuffle(order)
    return tuple(pts), [(order[2 * i], order[2 * i + 1]) for i in range(n)]


def reference_max_damage_pick(ranks, crossings, keys: dict):
    """The crossing max-damage imposes among ``crossings`` (canonically
    sorted) by a per-run dict of keys: fill in the missing keys, take ``max``
    (the first crossing on ties), then cut the dict back to the live
    crossings once it holds more than twice as many."""
    for c in crossings:
        if c not in keys:
            keys[c] = phi_vertical_delta(ranks, c, reference_greedy_pairs(ranks, c))
    crossing = max(crossings, key=keys.__getitem__)
    if len(keys) > 2 * len(crossings):
        for c in keys.keys() - set(crossings):
            del keys[c]
    return crossing


def direction(p: Point, q: Point) -> tuple[int, int]:
    """(q - p) over the gcd of its components for q != p, signed so its first
    nonzero component is positive: r and s have equal directions from p
    exactly when orient(p, r, s) == 0."""
    dx, dy = q.x - p.x, q.y - p.y
    g = math.gcd(dx, dy) if (dx, dy) > (0, 0) else -math.gcd(dx, dy)
    return (dx // g, dy // g)


def reference_first_collinear_pair(p: Point, others) -> tuple[int, int] | None:
    """``first_collinear_pair`` by one pass over the reduced directions from
    p, keeping each direction's first index in a dict."""
    first: dict = {}
    best = None
    for k, key in enumerate(direction(p, q) for q in others):
        j = first.setdefault(key, k)
        if j != k and (best is None or j < best[0]):
            best = (j, k)  # later repeats of this key only raise k
    return best


def reference_replay_states(ps: PointSet, initial: Matching, records) -> list:
    """``replay_states`` by the stateless flip, which checks the step and
    rebuilds and sorts the whole matching at every step."""
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


def _opt(value) -> str:
    return "" if value is None else str(value)


def reference_write_trace(inst, trace, path) -> None:
    """``write_trace`` by ``csv.DictWriter`` over one dict per row, with row
    0's crossing count from ``reference_find_crossings``."""
    ps = inst.points
    initial = trace.initial
    first = trace.records[0] if trace.records else None
    rows = [{
        "step": 0, "removed_1": "", "removed_2": "", "added_1": "",
        "added_2": "", "choice": "",
        "crossings_after": len(reference_find_crossings(ps, initial)),
        "length_after": repr(reference_total_length(ps, initial)),
        "phi_l_after": _opt(first.phi_l_before if first else None),
        "phi_k_after": _opt(first.phi_k_before if first else None),
    }]
    for i, rec in enumerate(trace.records, start=1):
        rows.append({
            "step": i,
            "removed_1": "-".join(map(str, rec.crossing[0])),
            "removed_2": "-".join(map(str, rec.crossing[1])),
            "added_1": "-".join(map(str, rec.added[0])),
            "added_2": "-".join(map(str, rec.added[1])),
            "choice": rec.choice.value,
            "crossings_after": _opt(rec.crossings_after),
            "length_after": repr(rec.length_after),
            "phi_l_after": _opt(rec.phi_l_after),
            "phi_k_after": _opt(rec.phi_k_after),
        })
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=io.TRACE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def reference_read_trace(path) -> list:
    """``read_trace`` by ``csv.DictReader``, which skips blank lines, pads a
    short row with None values and files a long row's surplus under the key
    None; fields go through the library's own parsers."""
    columns = io.TRACE_COLUMNS
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != columns:
                raise io.TraceFormatError(f"unexpected columns {reader.fieldnames}")
            for raw in reader:
                step = len(rows)
                if None in raw or None in raw.values() or raw["step"] != str(step):
                    raise io.TraceFormatError(
                        f"line {reader.line_num} is not step {step} with "
                        f"{len(columns)} fields"
                    )
                if step == 0:
                    if any(raw[c] for c in columns[1:6]):
                        raise io.TraceFormatError(
                            f"line {reader.line_num}: pseudo-step 0 records no flip")
                    removed = added = choice = None
                else:
                    r1, r2, a1, a2 = (io._parse_seg(raw[c]) for c in columns[1:5])
                    removed, added = (r1, r2), (a1, a2)
                    choice = FlipChoice(raw["choice"])
                rows.append(io.TraceRow(
                    step=step, removed=removed, added=added, choice=choice,
                    crossings_after=io._opt_int(raw["crossings_after"]),
                    length_after=io._length(raw["length_after"]),
                    phi_l_after=io._opt_int(raw["phi_l_after"]),
                    phi_k_after=io._opt_int(raw["phi_k_after"]),
                ))
    except io.TraceFormatError:
        raise
    except (OSError, ValueError, csv.Error) as exc:
        raise io.TraceFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise io.TraceFormatError("trace must start with pseudo-step 0")
    return rows
