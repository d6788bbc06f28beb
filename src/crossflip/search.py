"""Exact flip-graph search and strategy runners.

The flip graph on a point set has one node per perfect matching and one edge
per (crossing, reconnection choice); it is acyclic because total segment
length strictly decreases along every edge.

Exact search runs on an int kernel of the point set (``_FlipGraph``).
Segment (a, b), a < b, has the id ``offset[a] + b`` (``_segment_offsets``),
its rank among the C(2n, 2) segments in lexicographic order, shifted into a
bit on demand; so a matching is an int with n bits set, read in ascending
order as ``Matching.pairs``. Each segment has a bitset of the higher-id
segments it properly crosses, read off one segment-lane table over all
C(2n, 2) segments (``geometry._SegmentLanes``, the table strategy runs keep
their matching in) in a few big-int operations with no pair test, and
each crossing pair the XOR masks of reconnections A and B, read off its
``crossing_quad``. Both live in one memo, the kernel itself, filled
on first use, inside the search deadline.
The successors of M are ``M ^ mask`` by ascending lower segment, then higher
segment, A before B: the canonical order, in which ``children`` generates
them lazily, reading a row or a pair's masks only when the first successor
that needs it is asked for, and ``successors`` lists them for one matching
(``children``, then ``move`` and ``decode``). One memoized iterative
post-order DFS (``_Search``) gives f = 1 + max and h = 1 + min over
successors; each frame keeps its state's ``children`` generator, so it
builds a successor only when it takes it up, and an on-stack revisit is
fatal. The memo interns its values: a finished state stores the one tuple
its (f, h) has in ``_Search.values``, so rev8's 2,027,025 memo entries share
66 tuples, and the memo's cost is its int keys and its table.
``shortest_flip_sequence`` keeps a BFS over the same ints, whose
early exit beats a full DAG pass on one instance. Enumeration walks every
matching's int key and pairs in canonical order with an explicit stack that
emits its last two levels directly (``_matchings``); every pair is one of
C(2n, 2) segment tuples built once (``_segments``), shared by all the
matchings and ``per_matching`` keys. ``extremal_estimates`` reads the keys
and ``enumerate_all_matchings`` wraps the pairs.

Witnesses are pinned: the f witness takes the first successor in canonical
order attaining the max; the h witness is the lexicographically first
shortest move sequence in canonical order, which BFS with first-discovery
parents and the DFS's first successor attaining the min both yield. Each is
rebuilt through the checked ``trace_from_moves``. ``SearchLimits`` hold per
public call: one deadline, set before the kernel is built, and one state
count. Every generated state, a DFS push or a BFS discovery, passes one
limit gate (``_Search.admit``): a clock read, the state cap and the depth
cap, then the count. Besides it the clock is read when ``solve`` takes up
a start it has not solved, when a DFS frame resumes, and before each
crossing row the row builder (``_Search.crossed``) has to build: every row
of a start and, in the BFS, of a discovered state, whose crossing test it
is. Any other row, and every reconnection mask, is built by a frame's
generator as it reaches the successor that reads it, so the work between
two clock reads of a DFS is one successor's, not one state's whole list.
A limit hit raises ``SearchLimitsExceeded`` with a certified bound: in the
BFS the deepest level generated completely, and in the DFS, of one start or
of an enumeration, the larger of (depth + f) over finished states and the
deepest state the gate admitted, whose stack path is a run that long.

Strategy runs and scripted traces share one run loop (``_run``), which
asks a pick function for each move. Its one copy of the matching is a
``matching._LiveCrossings`` index, which keeps the segments in slots, each
point's mate, the crossings as bitset rows per lower endpoint, and the
length: a move's one checked step, ``check_live`` against the index, whose
``in`` reads the mates, gives the crossing's quad, its added segments are
read off the quad, it flips the index alone, and the final ``Matching`` is
built once, at the end. So a step costs O(n) big-int work in C, over the n
48-bit lanes of the index's segment-lane table, lane k for slot k's
segment, two of which a flip moves by column deltas, plus one bit
operation in a partner's row per crossing it removes or adds, and no
Python pass over the matching. Both potentials move by
their four-endpoint deltas, ``phi_vertical_delta`` and ``phi_lines_delta``.
Greedy-x and the first-crossing picks take the index's canonically first
crossing, the lowest bit of its first nonzero row; a seeded draw takes
``rng.choice`` of the index, which reads the k-th crossing off prefix
popcounts of the rows. Max-damage ranks the index by the drop in
phi_vertical of the x-greedy response, computed once when the crossing
appears and pushed on a heap of int keys that drops a key once one of its
segments is gone, so it too takes the index's first crossing. The x-greedy
response itself is read off the crossing's ``crossing_quad`` and the run's
x-ranks (``_x_greedy``), which ``greedy_choice`` reads too, and so is
bubble's, by the quad's second point. An x-greedy pick returns the
``_X_GREEDY`` choice, and the run loop reads the response off the quad of
its one checked step, so a step computes one quad.
"""

from __future__ import annotations

import math
import numbers
import random
import re
import time
from dataclasses import dataclass

from .generators import Instance, inversion_law_violation, two_line_permutation
from .geometry import PointSet, _SegmentLanes, crossing_quad
from .matching import (
    CrossingPair,
    FlipChoice,
    FlipRecord,
    FlipTrace,
    Matching,
    _LiveCrossings,
    _record,
    check_live,
    is_noncrossing,
    quad_reconnections,
)
from .potentials import (phi_lines, phi_lines_delta, phi_vertical,
                         phi_vertical_delta, x_ranks)


class FlipGraphCycleError(RuntimeError):
    """A depth-first traversal revisited an on-stack matching.

    The flip graph is acyclic (length strictly decreases per flip), so this
    indicates corrupted state, never a legitimate search outcome.
    """


class SearchLimitsExceeded(RuntimeError):
    def __init__(self, message: str, states_expanded: int = 0,
                 best_bound: int | None = None):
        super().__init__(message)
        self.states_expanded = states_expanded
        #: A certified lower bound on the value searched for (the longest
        #: run, the shortest run, or the largest longest run of an
        #: enumeration), never the value itself.
        self.best_bound = best_bound


class EnumerationCapExceeded(RuntimeError):
    pass


class StrategyNotApplicableError(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchLimits:
    """Limits of one public search call. A state at edge distance d from
    the start is generated only when d < max_depth. The two caps are ints
    and the budget is a real number of seconds, inf included; a bool is
    neither."""

    max_states: int = 10_000_000
    max_depth: int = 100_000
    time_budget: float = 60.0

    def __post_init__(self):
        for name, kind, what in (("max_states", int, "an int"),
                                 ("max_depth", int, "an int"),
                                 ("time_budget", numbers.Real, "a real number")):
            value = getattr(self, name)
            # not written as <= 0, which a NaN time budget would pass
            if isinstance(value, bool) or not isinstance(value, kind) or not value > 0:
                raise ValueError(f"{name} must be positive and {what}, got {value!r}")


def _segment_offsets(m: int) -> list[int]:
    """Per point a of m points, the offset that makes ``offset[a] + b`` the
    kernel id of segment (a, b), a < b: its rank in lexicographic order."""
    return [a * (2 * m - a - 1) // 2 - a - 1 for a in range(m)]


def _segments(m: int) -> list[tuple[int, int]]:
    """Every segment (a, b), a < b, of m points, indexed by kernel id."""
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def _crossing(segs: list, pair: int) -> CrossingPair:
    """The two segments whose bits make up ``pair``, lower id first."""
    lo = pair & -pair
    return segs[lo.bit_length() - 1], segs[(pair ^ lo).bit_length() - 1]


class _FlipGraph(dict):
    """The int kernel of one point set (see the module docstring), a memo
    filled on first use, inside the search deadline.

    A segment's bit maps to its crossing row, the bitset of the higher
    segments it properly crosses, read off one ``geometry._SegmentLanes``
    table over all C(2n, 2) segments, lane k for segment k: the top bits of
    the segment's straddle test against every lane. A row is thus O(1)
    big-int operations over C(2n, 2) lanes and no pair test. A crossing
    pair's two bits map to the XOR masks of reconnections A and B, read
    off its ``crossing_quad`` with no liveness test: the pair crosses by
    construction. The memo holds ints and tuples only, so a dropped kernel
    is freed by reference counting."""

    def __init__(self, ps: PointSet):
        self.ps = ps
        m = len(ps)
        self.segs = segs = _segments(m)
        self.offset = _segment_offsets(m)
        self.lanes = _SegmentLanes(ps, segs)

    def __missing__(self, key: int) -> int | tuple[int, int]:
        if key & key - 1:
            ((a, b), (c, d)), ((e, f), (g, h)) = quad_reconnections(
                crossing_quad(self.ps, _crossing(self.segs, key)))
            offset = self.offset
            value = (key | 1 << offset[a] + b | 1 << offset[c] + d,
                     key | 1 << offset[e] + f | 1 << offset[g] + h)
        else:
            a, b = self.segs[key.bit_length() - 1]
            # -2 * key keeps the ids above the segment's
            value = self.lanes.crossers(a, b) & -2 * key
        self[key] = value
        return value

    def encode(self, m: Matching) -> int:
        return sum(1 << self.offset[a] + b for a, b in m.pairs)

    def decode(self, key: int) -> Matching:
        """The matching whose segments' bits make up ``key``."""
        return Matching(tuple(self.segs[bit.start()]
                              for bit in re.finditer("1", f"{key:b}"[::-1])))

    def children(self, key: int):
        """The successors of ``key`` in canonical order, generated lazily: a
        segment's crossing row, and a crossing's reconnection masks, are
        read, and on a miss built, only when the first successor that needs
        them is asked for."""
        rest = key
        while rest:
            lo = rest & -rest
            rest ^= lo
            crossed = self[lo] & key
            while crossed:
                hi = crossed & -crossed
                crossed ^= hi
                mask_a, mask_b = self[lo | hi]
                yield key ^ mask_a
                yield key ^ mask_b

    def move(self, key: int, child: int) -> tuple[CrossingPair, FlipChoice]:
        """The (crossing, choice) that turns ``key`` into its successor
        ``child``."""
        mask = key ^ child
        pair = mask & key
        return _crossing(self.segs, pair), list(FlipChoice)[self[pair].index(mask)]


def successors(
    ps: PointSet, m: Matching
) -> list[tuple[CrossingPair, FlipChoice, Matching]]:
    """All flip successors of m in canonical order: crossings sorted, choice
    A before choice B, read off the exact-search kernel."""
    graph = _FlipGraph(ps)
    key = graph.encode(m)
    return [(*graph.move(key, child), graph.decode(child))
            for child in graph.children(key)]


#: Above any shortest-run length, so the first successor sets the minimum.
_NO_H = 1 << 62


class _Search:
    """One public search call on the int kernel of one point set: its
    limits, its one deadline and state count, the one limit gate
    (``admit``) and the row builder (``crossed``) that alone compare them,
    and the DAG pass memo, whose values are interned: one tuple per
    distinct (f, h), kept in ``values``, so the memo holds no tuple per
    state."""

    def __init__(self, ps: PointSet, limits: SearchLimits | None):
        self.limits = limits = limits or SearchLimits()
        self.deadline = time.monotonic() + limits.time_budget
        self.graph = _FlipGraph(ps)
        #: state -> (f, h)
        self.memo: dict[int, tuple[int, int]] = {}
        #: each distinct (f, h) to its one tuple
        self.values: dict[tuple[int, int], tuple[int, int]] = {}
        self.expanded = 0
        #: largest (depth + f) over finished DFS states: a lower bound on the
        #: longest run of the start whose DFS reached them
        self.best_lower = 0
        #: the largest edge distance of an admitted state from its start: a
        #: pushed state's stack path is a run that long, a lower bound too
        self.deepest = 0

    def _exceeded(self, why: str, bound: int | None) -> SearchLimitsExceeded:
        bound = max(self.best_lower, self.deepest) if bound is None else bound
        return SearchLimitsExceeded(why, states_expanded=self.expanded, best_bound=bound)

    def on_time(self, bound: int | None = None) -> None:
        """The gate's clock read, on its own where no state is generated:
        when ``solve`` takes up an unsolved start, when a DFS frame resumes,
        and before each row ``crossed`` builds."""
        if time.monotonic() > self.deadline:
            raise self._exceeded(
                f"time budget {self.limits.time_budget}s exhausted", bound)

    def admit(self, depth: int, bound: int | None = None) -> None:
        """The one limit gate every generated state passes, a DFS push or a
        BFS discovery at edge distance ``depth`` from the start: a clock
        read, the state cap and the depth cap, then the state is counted.
        A hit raises with ``bound`` as ``_exceeded`` does."""
        self.on_time(bound)
        limits = self.limits
        if self.expanded >= limits.max_states:
            raise self._exceeded(f"state cap {limits.max_states} hit", bound)
        if depth >= limits.max_depth:
            raise self._exceeded(f"depth cap {limits.max_depth} hit", bound)
        self.expanded += 1
        if depth > self.deepest:
            self.deepest = depth

    def crossed(self, key: int, bound: int | None = None) -> bool:
        """Whether ``key`` has a crossing, from the crossing rows of its
        segments, built one at a time with a clock read before each missing
        one: a row is big-int work over all C(2n, 2) lanes, so at large n a
        start's rows alone can outlast a short budget."""
        graph, rest, hit = self.graph, key, 0
        while rest:
            lo = rest & -rest
            rest ^= lo
            if lo not in graph:
                self.on_time(bound)
            hit |= graph[lo] & key  # a miss builds the row
        return bool(hit)

    def solve(self, start: int) -> tuple[int, int]:
        """(f, h) of ``start`` by iterative post-order DFS. A frame keeps
        its state's ``children`` generator and takes its successors up one
        at a time, so a successor, with the rows and masks it reads, is
        built only when the frame reaches it."""
        memo, values, children = self.memo, self.values, self.graph.children
        if start in memo:
            return memo[start]
        self.on_time()
        self.crossed(start)  # builds the start's rows, each under the clock
        self.admit(0)
        on_stack = {start}
        # frame: [state, generator of its successors, max f and min h
        # over the successors taken so far]; no successor leaves max f at -1
        stack = [[start, children(start), -1, _NO_H]]
        while stack:
            frame = stack[-1]
            best_f, best_h = frame[2], frame[3]
            for child in frame[1]:
                hit = memo.get(child)
                if hit is None:
                    break
                if hit[0] > best_f:
                    best_f = hit[0]
                if hit[1] < best_h:
                    best_h = hit[1]
            else:
                stack.pop()
                key = frame[0]
                on_stack.discard(key)
                value = (best_f + 1, best_h + 1) if best_f >= 0 else (0, 0)
                memo[key] = value = values.setdefault(value, value)
                # len(stack) is now the edge distance from start to key
                if len(stack) + value[0] > self.best_lower:
                    self.best_lower = len(stack) + value[0]
                if stack:
                    parent = stack[-1]
                    if value[0] > parent[2]:
                        parent[2] = value[0]
                    if value[1] < parent[3]:
                        parent[3] = value[1]
                    self.on_time()
                continue
            if child in on_stack:
                raise FlipGraphCycleError("matching revisited on the DFS "
                                          f"stack: {list(self.graph.decode(child))}")
            self.admit(len(stack))
            frame[2], frame[3] = best_f, best_h
            on_stack.add(child)
            stack.append([child, children(child), -1, _NO_H])
        return memo[start]

    def witness(self, start: int, which: int) -> list:
        """Moves of the pinned witness from a solved ``start``: ``which`` is
        0 for the longest run, 1 for the shortest."""
        memo, graph = self.memo, self.graph
        moves, key = [], start
        while memo[key][which]:
            want = memo[key][which] - 1
            child = next(c for c in graph.children(key) if memo[c][which] == want)
            moves.append(graph.move(key, child))
            key = child
        return moves

    def longest_moves(self, start: int) -> list:
        self.solve(start)
        return self.witness(start, 0)

    def shortest_moves(self, start: int) -> list:
        """Level-order BFS with first-discovery parents, stopping at the
        first non-crossing matching discovered. The frontier holds keys; a
        state's successors are listed once, when it is expanded, and each
        newly discovered one passes the gate and is tested for a crossing
        by its rows. A limit hit certifies h >= d + 1, where d is the
        deepest level generated completely: it holds no non-crossing
        matching."""
        self.crossed(start, 1)
        self.admit(0, 1)
        parents = {start: None}
        frontier = [start]
        depth = 0
        while frontier:
            # level ``depth`` is complete and holds no non-crossing matching
            level = []
            for state in frontier:
                for child in self.graph.children(state):
                    if child in parents:
                        continue
                    self.admit(depth + 1, depth + 1)
                    parents[child] = state
                    if not self.crossed(child, depth + 1):
                        moves = []
                        while child != start:
                            moves.append(self.graph.move(parents[child], child))
                            child = parents[child]
                        return moves[::-1]
                    level.append(child)
            frontier = level
            depth += 1
        raise FlipGraphCycleError(
            "flip graph exhausted without reaching a non-crossing matching")


def _single_search(inst, limits, stats_out, moves_of) -> tuple[int, FlipTrace]:
    """Run ``moves_of`` (an unbound ``_Search`` method) from the instance's
    matching; a non-crossing start needs no flip graph."""
    ps, start = inst.points, inst.matching
    search = None
    try:
        moves = []
        if not is_noncrossing(ps, start):
            search = _Search(ps, limits)
            moves = moves_of(search, search.graph.encode(start))
    finally:
        if stats_out is not None:
            stats_out["states_expanded"] = search.expanded if search else 0
    return len(moves), trace_from_moves(inst.provenance, ps, start, moves)


def longest_flip_sequence(
    inst: Instance,
    limits: SearchLimits | None = None,
    stats_out: dict | None = None,
) -> tuple[int, FlipTrace]:
    """Exact length of the longest flip run from the instance's matching,
    with one witness trace attaining it.

    ``stats_out``, when given, receives the number of states expanded."""
    return _single_search(inst, limits, stats_out, _Search.longest_moves)


def shortest_flip_sequence(
    inst: Instance,
    limits: SearchLimits | None = None,
    stats_out: dict | None = None,
) -> tuple[int, FlipTrace]:
    """Exact length of the shortest flip run from the instance's matching,
    with the lexicographically first shortest witness in canonical order.

    A limit hit raises with ``best_bound`` a certified lower bound on it."""
    return _single_search(inst, limits, stats_out, _Search.shortest_moves)


def _matchings(ps: PointSet, cap: int):
    """The int key and the pairs of every perfect matching of ps, streamed in
    canonical order (ascending pairs: the lowest free point takes each free
    partner in turn). The last two levels are emitted directly, so no leaf
    is pushed: a partial matching with free points a < b < c < d yields
    ab|cd, ac|bd and ad|bc, one with two free points its one completion.
    Refuses point sets beyond the enumeration cap at once, before the first
    matching is asked for."""
    if ps.n > cap:
        raise EnumerationCapExceeded(
            f"n={ps.n} exceeds enumeration cap {cap}; (2n-1)!! growth")
    m = len(ps)
    offset, segs = _segment_offsets(m), _segments(m)

    def walk():
        # a partial matching: its key, its pairs and its free points; the
        # partners are pushed in reverse, so the lowest pops first. Every
        # pair is segs[id], one shared tuple per segment id
        stack = [(0, (), tuple(range(m)))]
        while stack:
            key, pairs, free = stack.pop()
            if len(free) == 4:
                a, b, c, d = free
                ab, ac, ad = offset[a] + b, offset[a] + c, offset[a] + d
                bc, bd, cd = offset[b] + c, offset[b] + d, offset[c] + d
                yield key | 1 << ab | 1 << cd, pairs + (segs[ab], segs[cd])
                yield key | 1 << ac | 1 << bd, pairs + (segs[ac], segs[bd])
                yield key | 1 << ad | 1 << bc, pairs + (segs[ad], segs[bc])
                continue
            if len(free) == 2:
                s = offset[free[0]] + free[1]
                yield key | 1 << s, pairs + (segs[s],)
                continue
            a, rest = free[0], free[1:]
            stack += [(key | 1 << offset[a] + b, pairs + (segs[offset[a] + b],),
                       rest[:i] + rest[i + 1:])
                      for i, b in reversed(list(enumerate(rest)))]

    return walk()


def enumerate_all_matchings(ps: PointSet, cap: int = 5):
    """All (2n-1)!! perfect matchings of the point set, streamed in
    canonical order. Refuses point sets beyond the enumeration cap at once,
    before the first matching is asked for."""
    return (Matching(pairs) for _key, pairs in _matchings(ps, cap))


@dataclass
class ExtremalEstimates:
    """Maxima of the longest- and shortest-run lengths over all matchings of
    one point set, with witnesses."""

    g_hat: int
    g_argmax: Matching
    g_witness: FlipTrace
    k_hat: int
    k_argmax: Matching
    k_witness: FlipTrace
    matchings_enumerated: int
    states_expanded: int
    per_matching: dict | None = None


def extremal_estimates(
    ps: PointSet,
    limits: SearchLimits | None = None,
    cap: int = 5,
    collect_per_matching: bool = False,
    instance_id: str = "enumeration",
) -> ExtremalEstimates:
    """Exact max longest-run and max shortest-run over every matching of ps.

    One DAG pass with one memo serves every start matching and gives f and
    h together; ``states_expanded`` counts its states. The argmaxes are the
    first matchings in enumeration order attaining each maximum."""
    matchings = _matchings(ps, cap)
    search = _Search(ps, limits)
    g_hat = k_hat = -1
    per = {} if collect_per_matching else None
    count = 0
    for key, pairs in matchings:
        count += 1
        f_h = search.solve(key)
        if f_h[0] > g_hat:
            g_hat, g_pairs, g_key = f_h[0], pairs, key
        if f_h[1] > k_hat:
            k_hat, k_pairs, k_key = f_h[1], pairs, key
        if per is not None:
            per[pairs] = f_h
    g_argmax, k_argmax = Matching(g_pairs), Matching(k_pairs)
    return ExtremalEstimates(
        g_hat=g_hat,
        g_argmax=g_argmax,
        g_witness=trace_from_moves(instance_id, ps, g_argmax, search.witness(g_key, 0)),
        k_hat=k_hat,
        k_argmax=k_argmax,
        k_witness=trace_from_moves(instance_id, ps, k_argmax, search.witness(k_key, 1)),
        matchings_enumerated=count,
        states_expanded=search.expanded,
        per_matching=per,
    )


# --- strategies -----------------------------------------------------------

STRATEGY_KINDS = ("greedy-x", "bubble", "random", "first", "adversary")
ADVERSARY_KINDS = ("random", "first", "max-damage")
#: the kinds whose choices draw from a seeded generator
_SEEDED_KINDS = ("random", "adversary")


@dataclass(frozen=True)
class Strategy:
    """A crossing/choice selection policy for strategy runs.

    kinds: ``greedy-x`` takes the canonically first crossing and reconnects
    its endpoints as (two x-leftmost)(two x-rightmost); ``bubble`` flips an
    adjacent inversion of the permutation encoded by a two-line matching;
    ``random`` picks uniformly; ``first`` takes the first crossing with
    choice A; ``adversary`` lets a sub-policy impose the crossing while the
    response is always the x-greedy choice. Only ``random`` and
    ``adversary`` take a nonzero seed.
    """

    kind: str
    seed: int = 0
    adversary: str | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "adversary":
            if self.adversary not in ADVERSARY_KINDS:
                raise ValueError(f"unknown adversary kind {self.adversary!r}")
        elif self.adversary is not None:
            raise ValueError("only adversary strategies take an adversary kind")
        if self.seed and self.kind not in _SEEDED_KINDS:
            raise ValueError(f"strategy {self.kind!r} takes no seed")


def parse_strategy(text: str) -> Strategy:
    """Parse CLI-style strategy text: ``greedy-x``, ``bubble``, ``first``,
    ``random[:seed]`` or ``adversary:{random,first,max-damage}[:seed]``.
    Anything else raises ValueError."""
    kind, *fields = text.split(":")
    adversary = None
    if kind == "adversary":
        if not fields:
            raise ValueError("adversary strategy needs a kind, e.g. adversary:random")
        adversary, *fields = fields
    malformed = ValueError(
        f"malformed strategy {text!r}: expected greedy-x, bubble, first, "
        "random[:seed] or adversary:{random,first,max-damage}[:seed]")
    if len(fields) > (kind in _SEEDED_KINDS):
        raise malformed
    try:
        seed = int(fields[0]) if fields else 0
    except ValueError:
        raise malformed from None
    return Strategy(kind, seed=seed, adversary=adversary)


#: why x-greedy moves are refused: phi_vertical is undefined when x repeats
_NEEDS_DISTINCT_X = ("x-greedy reconnection needs pairwise distinct x; apply "
                     "shear_to_distinct_x first")


def _x_greedy(ranks, quad: tuple[int, int, int, int]) -> FlipChoice:
    """The choice pairing a crossing's two x-leftmost endpoints and its two
    x-rightmost, from its ``crossing_quad`` (a, x, b, y) under ``ranks =
    x_ranks(ps)``: A pairs (a, x) with (b, y), so it is the one exactly when
    {a, x} are the two x-leftmost or the two x-rightmost endpoints.

    The crossing segments interleave or nest in x, so the two x-leftmost
    endpoints never make up one of them: this pairing is never the pair
    being removed."""
    a, x, b, y = map(ranks.__getitem__, quad)
    if max(a, x) < min(b, y) or min(a, x) > max(b, y):
        return FlipChoice.RECONNECT_A
    return FlipChoice.RECONNECT_B


def greedy_choice(ps: PointSet, crossing: CrossingPair) -> FlipChoice:
    """The choice pairing the two x-leftmost endpoints together and the two
    x-rightmost together; refused when any two points of ps share an x."""
    if not ps.has_distinct_x():
        raise StrategyNotApplicableError(_NEEDS_DISTINCT_X)
    return _x_greedy(x_ranks(ps), crossing_quad(ps, crossing))


def _bubble_move(ps, live):
    n = ps.n
    pi = two_line_permutation(live, n)
    if pi is None:
        raise StrategyNotApplicableError(
            "matching pairs points within one row; the bubble strategy only "
            "handles bottom-to-top matchings"
        )
    for i in range(n - 1):
        if pi[i] > pi[i + 1]:
            crossing = (i, n + pi[i]), (i + 1, n + pi[i + 1])
            # A pairs the quad's first point, i, with its second, x: it is
            # the choice pairing i with n + pi[i + 1] exactly when x is that
            x = crossing_quad(ps, crossing)[1]
            return crossing, list(FlipChoice)[x != n + pi[i + 1]]
    raise StrategyNotApplicableError("no adjacent inversion left, yet crossings remain")


#: the choice a pick returns for the x-greedy response to its crossing
_X_GREEDY = object()


def _pick(strategy, ps, live, rng, restrict_choice):
    if strategy.kind == "bubble":
        return _bubble_move(ps, live)
    # the first crossing: the canonically first, or under max-damage the
    # first of the smallest drop
    drawn = strategy.kind == "random" or strategy.adversary == "random"
    crossing = rng.choice(live) if drawn else live.first()
    if strategy.kind == "first":
        return crossing, restrict_choice or FlipChoice.RECONNECT_A
    if strategy.kind == "random":
        return crossing, restrict_choice or rng.choice(tuple(FlipChoice))
    # greedy-x, or an adversary imposing the crossing; the response is
    # always x-greedy, which the run loop reads off the crossing's quad
    return crossing, _X_GREEDY


def _run(instance_id: str, ps: PointSet, initial: Matching, pick,
         max_steps: float = math.inf, rank=None, ranks=None,
         with_phi_lines: bool = False) -> FlipTrace:
    """The one run loop: flip ``pick(live)`` until it returns None or
    ``max_steps`` flips are made, where ``live`` is the ``_LiveCrossings``
    index ordered by ``rank``, the run's one copy of its matching. A move
    is checked against the index and flips the index alone; a move whose
    choice is ``_X_GREEDY`` takes the x-greedy choice off the checked
    step's quad. The final ``Matching`` is built once, at the end.
    phi_vertical is tracked under ``ranks = x_ranks(ps)``, and phi_lines on
    request, each from its start value by its four-endpoint delta."""
    live = _LiveCrossings(ps, initial, rank)
    length = live.length()
    records = []
    phi_k = phi_vertical(ps, initial) if ranks else None
    phi_l = phi_lines(ps, initial) if with_phi_lines else None
    while len(records) < max_steps and (move := pick(live)) is not None:
        crossing, choice = move
        quad = check_live(ps, live, crossing)
        if choice is _X_GREEDY:
            choice = _x_greedy(ranks, quad)
        added = quad_reconnections(quad)[choice is FlipChoice.RECONNECT_B]
        live.flip(crossing, added)
        phi_k_before, phi_l_before = phi_k, phi_l
        if ranks:
            phi_k += phi_vertical_delta(ranks, crossing, added)
        if with_phi_lines:
            phi_l += phi_lines_delta(ps, crossing, added)
        length_before, length = length, live.length()
        records.append(_record(FlipRecord, crossing, choice, added, length_before,
                               length, len(live), phi_l_before, phi_l,
                               phi_k_before, phi_k))
    return FlipTrace(instance_id, initial, tuple(records),
                     Matching(tuple(sorted(live.pairs))), complete=not live)


def trace_from_moves(
    instance_id: str, ps: PointSet, initial: Matching, moves
) -> FlipTrace:
    """Build a trace by applying scripted (crossing, choice) moves in order;
    a stale or non-crossing move raises FlipError."""
    moves = iter(moves)
    return _run(instance_id, ps, initial, lambda live: next(moves, None))


def run_strategy(
    inst: Instance,
    strategy: Strategy,
    max_steps: int | None = None,
    with_phi_lines: bool = False,
    restrict_choice: FlipChoice | None = None,
) -> FlipTrace:
    """Flip per the strategy until non-crossing or the step cap.

    Every record carries the vertical potential before/after whenever the
    point set has distinct x-coordinates; the line potential is attached
    only on request, at the cost of one build of the point set's line masks
    (2 * C(2n, 2) bits per point, cached per point set) plus four popcounts
    per step. A run stopped by the step cap, None or an int >= 0, is
    returned with ``complete=False``, not raised.
    """
    ps = inst.points
    n = inst.n
    if max_steps is None:
        max_steps = 4 * n**3  # comfortably above any possible run length
    elif type(max_steps) is not int or max_steps < 0:
        raise ValueError(f"max_steps {max_steps!r} is not None or an int >= 0")
    # the run's one x-order, read by phi_vertical and every x-greedy move;
    # None when x repeats
    ranks = x_ranks(ps) if ps.has_distinct_x() else None
    if strategy.kind in ("greedy-x", "adversary") and not ranks:
        raise StrategyNotApplicableError(_NEEDS_DISTINCT_X)
    if strategy.kind == "bubble" and (bad := inversion_law_violation(ps, n)):
        raise StrategyNotApplicableError(
            f"the bubble strategy needs the two-line inversion law, broken at {bad}"
        )
    if restrict_choice is not None and strategy.kind not in ("random", "first"):
        raise StrategyNotApplicableError(
            "a fixed-choice regime only combines with 'random' or 'first'; "
            "other strategies own their reconnection choice"
        )
    rng = random.Random(strategy.seed)
    rank = None
    if strategy.adversary == "max-damage":

        def rank(a, b, c, d):
            # -phi_vertical_delta of the x-greedy response: crossing
            # segments' x-ranks interleave or nest, so pairing the two
            # leftmost and the two rightmost drops twice the middle gap,
            # from the larger of the segments' left ends to the smaller of
            # their right ends
            ra, rb, rc, rd = ranks[a], ranks[b], ranks[c], ranks[d]
            if ra > rb:
                ra, rb = rb, ra
            if rc > rd:
                rc, rd = rd, rc
            return 2 * ((rb if rb < rd else rd) - (ra if ra > rc else rc))

    def pick(live):
        return _pick(strategy, ps, live, rng, restrict_choice) if live else None

    return _run(inst.provenance, ps, inst.matching, pick, max_steps, rank,
                ranks, with_phi_lines)
