"""Independent reference computations the suite checks the library against.

Everything here deliberately avoids the code paths under test. The flip-run
extrema come three ways: ``naive_f``/``naive_h`` use plain unmemoized
recursion over successors built here from the two predicates
``segments_properly_cross`` and ``reconnection_pairs``;
``reference_longest``/``reference_shortest`` are the ``Matching``-based
memoized DFS and BFS that the int flip-graph kernel of ``crossflip.search``
replaced, kept with their witness tie-breaks as the oracle for that kernel.
The line potential is recomputed with explicit rational offsets instead of
the adjusted-sign rule. ``reference_phi_lines`` and
``reference_decrement_audit`` are the per-line loops over an ``orient`` sign
table that the bitmask kernel of ``crossflip.potentials`` replaced, and
``reference_phi_vertical`` the gap-line count it replaced;
``phi_vertical_rank_formula`` is now the library's own formula.
``reference_general_position`` and ``reference_random_instance`` are the
``orient`` triple loop and rejection sampler that the direction-vector test
of ``crossflip.geometry`` replaced. ``reference_middle_gap`` and
``reference_greedy_choice`` are the max-damage key and the raw-x sort of the
x-greedy choice that the one rank table and the one Delta phi_K formula of
``crossflip.search`` replaced.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from crossflip import (
    DecrementAudit,
    FlipChoice,
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
    ccw_quad_order,
    choice_yielding,
    find_crossings,
    is_noncrossing,
    orient,
    reconnection_pairs,
    seg,
    segments_properly_cross,
)
from crossflip.geometry import convex_position_ccw
from crossflip.potentials import LineAudit

CHOICES = (FlipChoice.RECONNECT_A, FlipChoice.RECONNECT_B)


def crossing_count_brute(ps: PointSet, m: Matching) -> int:
    count = 0
    pairs = m.pairs
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if segments_properly_cross(ps, pairs[i], pairs[j]):
                count += 1
    return count


def naive_successors(ps: PointSet, m: Matching) -> list[Matching]:
    """Every flip successor of m, from the predicates alone."""
    pairs = m.pairs
    out = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if not segments_properly_cross(ps, pairs[i], pairs[j]):
                continue
            rest = [p for k, p in enumerate(pairs) if k not in (i, j)]
            for choice in CHOICES:
                added = reconnection_pairs(ps, (pairs[i], pairs[j]), choice)
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
    return choice_yielding(ps, crossing, target)


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
    added = reconnection_pairs(ps, crossing, choice)
    n1, n2 = added
    quad_order = ccw_quad_order(ps, (*e1, *e2))
    if not convex_position_ccw(ps, quad_order):
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
