"""Exact flip-graph search and strategy runners.

The flip graph on a point set has one node per perfect matching and one edge
per (crossing, reconnection choice); it is acyclic because total segment
length strictly decreases along every edge.

Exact search runs on an int kernel of the point set (``_FlipGraph``).
The C(2n, 2) segments get ids in lexicographic (a, b) order, so a matching is
an int with n bits set, read in ascending order as ``Matching.pairs``. Each
segment has a bitset of the higher-id segments it properly crosses, and each
crossing pair the XOR masks of reconnections A and B. The successors of M are
``M ^ mask`` by ascending lower segment, then higher segment, A before B: the
canonical order of ``successors``. One memoized iterative post-order DFS
(``_Search``) gives f = 1 + max and h = 1 + min over successors; an on-stack
revisit is fatal. ``shortest_flip_sequence`` keeps a BFS over the same ints,
whose early exit beats a full DAG pass on one instance.

Witnesses are pinned: the f witness takes the first successor in canonical
order attaining the max; the h witness is the lexicographically first
shortest move sequence in canonical order, which BFS with first-discovery
parents and the DFS's first successor attaining the min both yield. Each is
rebuilt through the checked ``trace_from_moves``. ``SearchLimits`` hold per
public call: one deadline and one state count, the clock read on every DFS
step and every BFS expansion.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass

from .generators import Instance, inversion_law_violation, two_line_permutation
from .geometry import PointSet, seg, segments_properly_cross
from .matching import (
    CrossingPair,
    FlipChoice,
    FlipTrace,
    Matching,
    apply_flip,
    choice_yielding,
    crossing_pair,
    crossings_after_flip,
    find_crossings,
    flip,
    is_noncrossing,
    reconnection_pairs,
    trace_from_moves,
)
from .potentials import phi_lines, phi_vertical, phi_vertical_delta, x_ranks


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
    the start is generated only when d < max_depth."""

    max_states: int = 10_000_000
    max_depth: int = 100_000
    time_budget: float = 60.0

    def __post_init__(self):
        if self.max_states <= 0 or self.max_depth <= 0 or self.time_budget <= 0:
            raise ValueError("all search limits must be positive")


def successors(
    ps: PointSet, m: Matching
) -> list[tuple[CrossingPair, FlipChoice, Matching]]:
    """All flip successors of m in canonical order: crossings sorted, choice
    A before choice B. Exactly 2 * (number of crossings) entries."""
    out = []
    for crossing in find_crossings(ps, m):
        for choice in (FlipChoice.RECONNECT_A, FlipChoice.RECONNECT_B):
            out.append((crossing, choice, apply_flip(ps, m, crossing, choice)))
    return out


class _Rows(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


class _FlipGraph:
    """The int kernel of one point set (see the module docstring).

    A segment's crossing row and the masks of its crossings are computed on
    first use, so a search pays C(2n, 2) crossing tests only per segment it
    reaches, never for the whole point set up front."""

    def __init__(self, ps: PointSet):
        self.ps = ps
        m = len(ps)
        self.segs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        self.bit = {s: 1 << k for k, s in enumerate(self.segs)}
        #: a segment's bit -> bitset of the higher segments it crosses
        self.cross = _Rows(self._row)
        #: a crossing pair's two bits -> (XOR mask of choice A, of choice B)
        self.recon: dict[int, tuple[int, int]] = {}

    def _row(self, lo: int) -> int:
        ps, bit = self.ps, self.bit
        k = lo.bit_length() - 1
        s = self.segs[k]
        row = 0
        for t in self.segs[k + 1:]:
            if t[0] in s or t[1] in s or not segments_properly_cross(ps, s, t):
                continue
            row |= bit[t]
            # choices A and B are the two other pairings of the four
            # endpoints; reconnection_pairs says which one is A
            (a, b), (c, d) = s, t
            one = bit[seg(a, c)] | bit[seg(b, d)]
            other = bit[seg(a, d)] | bit[seg(b, c)]
            e1, e2 = reconnection_pairs(ps, (s, t), FlipChoice.RECONNECT_A)
            if bit[e1] | bit[e2] != one:
                one, other = other, one
            pair = lo | bit[t]
            self.recon[pair] = (pair | one, pair | other)
        return row

    def encode(self, m: Matching) -> int:
        return sum(map(self.bit.__getitem__, m.pairs))

    def children(self, key: int) -> list[int]:
        """The successors of ``key`` in canonical order."""
        cross, recon = self.cross, self.recon
        out = []
        rest = key
        while rest:
            lo = rest & -rest
            rest ^= lo
            crossed = cross[lo] & key
            while crossed:
                hi = crossed & -crossed
                crossed ^= hi
                mask_a, mask_b = recon[lo | hi]
                out.append(key ^ mask_a)
                out.append(key ^ mask_b)
        return out

    def move(self, key: int, child: int) -> tuple[CrossingPair, FlipChoice]:
        """The (crossing, choice) that turns ``key`` into its successor
        ``child``."""
        mask = key ^ child
        pair = mask & key
        lo = pair & -pair
        crossing = (self.segs[lo.bit_length() - 1],
                    self.segs[(pair ^ lo).bit_length() - 1])
        if self.recon[pair][0] == mask:
            return crossing, FlipChoice.RECONNECT_A
        return crossing, FlipChoice.RECONNECT_B


#: Above any shortest-run length, so the first successor sets the minimum.
_NO_H = 1 << 62


class _Search:
    """One public search call on the int kernel of one point set: its
    limits, its one deadline and state count, and the DAG pass memo."""

    def __init__(self, ps: PointSet, limits: SearchLimits | None):
        self.limits = limits = limits or SearchLimits()
        self.deadline = time.monotonic() + limits.time_budget
        self.graph = _FlipGraph(ps)
        #: state -> (f, h)
        self.memo: dict[int, tuple[int, int]] = {}
        self.expanded = 0
        #: largest (depth + f) over finished DFS states: a lower bound on the
        #: longest run of the start whose DFS reached them
        self.best_lower = 0

    def _exceeded(self, which: str, bound: int | None = None):
        limits = self.limits
        why = {"states": f"state cap {limits.max_states} hit",
               "depth": f"depth cap {limits.max_depth} hit",
               "time": f"time budget {limits.time_budget}s exhausted"}[which]
        if bound is None:
            bound = self.best_lower
        return SearchLimitsExceeded(why, states_expanded=self.expanded,
                                    best_bound=bound)

    def solve(self, start: int) -> tuple[int, int]:
        """(f, h) of ``start`` by iterative post-order DFS."""
        clock, deadline, limits = time.monotonic, self.deadline, self.limits
        memo, children = self.memo, self.graph.children
        if clock() > deadline:
            raise self._exceeded("time")
        if start in memo:
            return memo[start]
        on_stack = {start}
        # frame: [state, iterator over its successors, max f and min h
        # over the successors taken so far]; no successor leaves max f at -1
        stack = [[start, iter(children(start)), -1, _NO_H]]
        self.expanded += 1
        while stack:
            if clock() > deadline:
                raise self._exceeded("time")
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
                memo[key] = value
                # len(stack) is now the edge distance from start to key
                if len(stack) + value[0] > self.best_lower:
                    self.best_lower = len(stack) + value[0]
                if stack:
                    parent = stack[-1]
                    if value[0] > parent[2]:
                        parent[2] = value[0]
                    if value[1] < parent[3]:
                        parent[3] = value[1]
                continue
            if child in on_stack:
                segs = self.graph.segs
                pairs = [s for k, s in enumerate(segs) if child >> k & 1]
                raise FlipGraphCycleError(
                    f"matching revisited on the DFS stack: {pairs}"
                )
            if self.expanded >= limits.max_states:
                raise self._exceeded("states")
            if len(stack) >= limits.max_depth:
                raise self._exceeded("depth")
            frame[2], frame[3] = best_f, best_h
            on_stack.add(child)
            stack.append([child, iter(children(child)), -1, _NO_H])
            self.expanded += 1
        return memo[start]

    def witness(self, start: int, which: int) -> list:
        """Moves of the pinned witness from a solved ``start``: ``which`` is
        0 for the longest run, 1 for the shortest."""
        memo, graph = self.memo, self.graph
        moves = []
        key = start
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
        first non-crossing matching discovered; every discovered state
        counts as expanded. A limit hit certifies h >= d + 1, where d is the
        deepest level generated completely: it holds no non-crossing
        matching."""
        clock, limits, children = time.monotonic, self.limits, self.graph.children
        parents = {start: None}
        self.expanded = 1
        frontier = [(start, children(start))]
        depth = 0
        while frontier:
            # level ``depth`` is complete and holds no non-crossing matching
            if depth + 1 >= limits.max_depth:
                raise self._exceeded("depth", depth + 1)
            level = []
            for state, kids in frontier:
                if clock() > self.deadline:
                    raise self._exceeded("time", depth + 1)
                for child in kids:
                    if child in parents:
                        continue
                    parents[child] = state
                    self.expanded += 1
                    grandkids = children(child)
                    if not grandkids:
                        moves = []
                        while child != start:
                            moves.append(self.graph.move(parents[child], child))
                            child = parents[child]
                        return moves[::-1]
                    if self.expanded >= limits.max_states:
                        raise self._exceeded("states", depth + 1)
                    level.append((child, grandkids))
            frontier = level
            depth += 1
        raise FlipGraphCycleError(
            "flip graph exhausted without reaching a non-crossing matching"
        )


def _single_search(
    inst: Instance, limits, stats_out, moves_of
) -> tuple[int, FlipTrace]:
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


def enumerate_all_matchings(ps: PointSet, cap: int = 5):
    """All (2n-1)!! perfect matchings of the point set, streamed in
    canonical order. Refuses point sets beyond the enumeration cap at once,
    before the first matching is asked for."""
    n = ps.n
    if n > cap:
        raise EnumerationCapExceeded(
            f"n={n} exceeds enumeration cap {cap}; (2n-1)!! growth"
        )

    def rec(avail: tuple[int, ...]):
        if not avail:
            yield ()
            return
        first = avail[0]
        for i in range(1, len(avail)):
            rest = avail[1:i] + avail[i + 1:]
            for tail in rec(rest):
                yield ((first, avail[i]),) + tail

    return (Matching(pairs) for pairs in rec(tuple(range(2 * n))))


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
    matchings = enumerate_all_matchings(ps, cap)
    search = _Search(ps, limits)
    g_hat = k_hat = -1
    g_argmax = k_argmax = None
    per = {} if collect_per_matching else None
    count = 0
    for m in matchings:
        count += 1
        key = search.graph.encode(m)
        f_h = search.solve(key)
        if f_h[0] > g_hat:
            g_hat, g_argmax, g_key = f_h[0], m, key
        if f_h[1] > k_hat:
            k_hat, k_argmax, k_key = f_h[1], m, key
        if per is not None:
            per[m.pairs] = f_h
    return ExtremalEstimates(
        g_hat=g_hat,
        g_argmax=g_argmax,
        g_witness=trace_from_moves(instance_id, ps, g_argmax,
                                   search.witness(g_key, 0)),
        k_hat=k_hat,
        k_argmax=k_argmax,
        k_witness=trace_from_moves(instance_id, ps, k_argmax,
                                   search.witness(k_key, 1)),
        matchings_enumerated=count,
        states_expanded=search.expanded,
        per_matching=per,
    )


# --- strategies -----------------------------------------------------------

STRATEGY_KINDS = ("greedy-x", "bubble", "random", "first", "adversary")
ADVERSARY_KINDS = ("random", "first", "max-damage")


@dataclass(frozen=True)
class Strategy:
    """A crossing/choice selection policy for strategy runs.

    kinds: ``greedy-x`` takes the canonically first crossing and reconnects
    its endpoints as (two x-leftmost)(two x-rightmost); ``bubble`` flips an
    adjacent inversion of the permutation encoded by a two-line matching;
    ``random`` picks uniformly; ``first`` takes the first crossing with
    choice A; ``adversary`` lets a sub-policy impose the crossing while the
    response is always the x-greedy choice.
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


def parse_strategy(text: str) -> Strategy:
    """Parse CLI-style strategy text such as ``greedy-x``, ``random:7`` or
    ``adversary:max-damage``."""
    parts = text.split(":")
    kind = parts[0]
    if kind == "adversary":
        if len(parts) < 2:
            raise ValueError("adversary strategy needs a kind, e.g. adversary:random")
        seed = int(parts[2]) if len(parts) > 2 else 0
        return Strategy("adversary", seed=seed, adversary=parts[1])
    seed = int(parts[1]) if len(parts) > 1 else 0
    return Strategy(kind, seed=seed)


#: why x-greedy moves are refused: phi_vertical is undefined when x repeats
_NEEDS_DISTINCT_X = ("x-greedy reconnection needs pairwise distinct x; apply "
                     "shear_to_distinct_x first")


def _greedy_pairs(ranks, crossing: CrossingPair) -> tuple:
    """The segments pairing the crossing's two x-leftmost endpoints and its
    two x-rightmost, under ``ranks = x_ranks(ps)``."""
    (a, b), (c, d) = crossing
    q = sorted((a, b, c, d), key=ranks.__getitem__)
    return seg(q[0], q[1]), seg(q[2], q[3])


def greedy_choice(ps: PointSet, crossing: CrossingPair) -> FlipChoice:
    """The choice pairing the two x-leftmost endpoints together and the two
    x-rightmost together; refused when any two points of ps share an x.

    The crossing segments interleave in x, so this pairing is never the pair
    being removed; it is always one of the two reconnections.
    """
    if not ps.has_distinct_x():
        raise StrategyNotApplicableError(_NEEDS_DISTINCT_X)
    return choice_yielding(ps, crossing, _greedy_pairs(x_ranks(ps), crossing))


def _bubble_move(ps, inst, m):
    n = inst.n
    pi = two_line_permutation(m, n)
    if pi is None:
        raise StrategyNotApplicableError(
            "matching pairs points within one row; the bubble strategy only "
            "handles bottom-to-top matchings"
        )
    for i in range(n - 1):
        if pi[i] > pi[i + 1]:
            crossing = crossing_pair(seg(i, n + pi[i]), seg(i + 1, n + pi[i + 1]))
            target = (seg(i, n + pi[i + 1]), seg(i + 1, n + pi[i]))
            return crossing, choice_yielding(ps, crossing, target)
    raise StrategyNotApplicableError("no adjacent inversion left, yet crossings remain")


def _pick(strategy, ps, ranks, inst, m, crossings, rng, restrict_choice):
    if strategy.kind == "first":
        return crossings[0], restrict_choice or FlipChoice.RECONNECT_A
    if strategy.kind == "random":
        crossing = rng.choice(crossings)
        return crossing, restrict_choice or rng.choice(tuple(FlipChoice))
    if strategy.kind == "bubble":
        return _bubble_move(ps, inst, m)
    # greedy-x, or an adversary imposing the crossing; the response is
    # always x-greedy
    if strategy.adversary == "random":
        crossing = rng.choice(crossings)
    elif strategy.adversary == "max-damage":
        # the smallest phi_vertical drop the greedy response can make; max
        # takes the canonically first crossing on ties
        crossing = max(crossings, key=lambda c: phi_vertical_delta(
            ranks, c, _greedy_pairs(ranks, c)))
    else:
        crossing = crossings[0]
    return crossing, choice_yielding(ps, crossing, _greedy_pairs(ranks, crossing))


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
    only on request (n popcounts of 2 * C(2n, 2)-bit masks per step). A run
    stopped by the step cap is returned with ``complete=False``, not raised.
    """
    ps = inst.points
    n = inst.n
    if max_steps is None:
        max_steps = 4 * n**3  # comfortably above any possible run length
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

    m = inst.matching
    crossings = find_crossings(ps, m)
    records = []
    phi_k = phi_vertical(ps, m) if ranks else None
    phi_l = phi_lines(ps, m) if with_phi_lines else None
    while crossings and len(records) < max_steps:
        crossing, choice = _pick(
            strategy, ps, ranks, inst, m, crossings, rng, restrict_choice
        )
        m, rec = flip(ps, m, crossing, choice)
        crossings = crossings_after_flip(ps, m, crossings, crossing, rec.added)
        phi_k_before, phi_l_before = phi_k, phi_l
        if ranks:
            phi_k += phi_vertical_delta(ranks, crossing, rec.added)
        if with_phi_lines:
            phi_l = phi_lines(ps, m)
        records.append(dataclasses.replace(
            rec,
            crossings_after=len(crossings),
            phi_k_before=phi_k_before,
            phi_k_after=phi_k,
            phi_l_before=phi_l_before,
            phi_l_after=phi_l,
        ))
    return FlipTrace(
        inst.provenance, inst.matching, tuple(records), m,
        complete=not crossings,
    )
