"""Two integer potential functions that certify flip-process termination.

``phi_lines`` counts crossings between matching segments and a family of
perturbed supporting lines: for every pair of points, the two lines
infinitesimally to either side of the line through them. It drops by at
least 4 under every flip, giving the cubic cap on the longest run; the
drop depends on the crossing's four endpoints alone, the line-counting
argument of van Leeuwen & Schoone (1981).

``phi_vertical`` counts crossings between matching segments and the vertical
lines separating consecutive points in x-order. It never increases under any
flip and drops by at least 2 when the reconnection pairs the two x-leftmost
endpoints together (the x-greedy choice), giving the quadratic cap on the
shortest run. Both it and its change under a flip read the one x-order,
``x_ranks``.

Both potentials thus have a four-endpoint delta, ``phi_lines_delta`` from
four line masks and ``phi_vertical_delta`` from four x-ranks. Strategy runs
track each potential by its delta. ``decrement_audit`` takes the quad from
the one checked flip step, ``check_live`` on the matching, which remembers
the quad of the last crossing object it passed for a point set: an audit
after ``flip`` of the same crossing reads the quad the flip found instead
of testing the crossing again. The matching, the point set and a tuple
crossing are immutable, so the remembered quad cannot go stale. The audit
reads the line masks and the x-ranks once each, the quad's four masks for
the split check and the per-type line counts, then eight more, the
endpoints of the removed and added segments, for the gained-line check and
the popcounts of ``phi_lines_delta``: an independent check that the added
segments gain no line. It recounts phi_vertical by one comprehension over
the segments' x-ranks, as it takes no tracked value of it. Line types have
one rule, ``_quad_line_masks``: the counts are popcounts of its masks, and
the per-line types of ``detail=True`` are read off the same masks bit by
bit. The audit is built by ``matching._record``, which fills its instance
dict at once.

Perturbed lines are bits of one int per point, built by one function,
``_line_masks``. With K = C(2n, 2) anchor pairs numbered in lexicographic
order, the line (a, b, PLUS) of anchor pair k is bit k and (a, b, MINUS) is
bit K + k; a point's bit is set when its adjusted sign for that line is +.
There is one adjusted-sign rule: a point on the unperturbed line (an
anchor) falls to the side opposite the offset, so a point's PLUS bit is
orient(a, b, p) > 0 and its MINUS bit orient(a, b, p) >= 0. Both are
read off one ``geometry._SegmentLanes`` table of all anchor pairs, as the
top bits of the point's ``sides`` and of ``sides + ones``, the two
readouts of its ``straddle`` test. On a set certified to be in general
position (``geometry.PointSet._certified``), the second readout is the
first with the point's own anchor pairs added, the only lines it lies on.
The infinitesimal offset is thus exact,
no epsilon ever appears, and segment (u, v) crosses exactly the lines of
``mask[u] ^ mask[v]``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import combinations, repeat
from typing import NamedTuple

from .geometry import PointSet, Segment, _SegmentLanes, _top_bits
from .matching import (
    CrossingPair,
    FlipChoice,
    Matching,
    _record,
    check_live,
    quad_reconnections,
)


class PotentialInvariantError(RuntimeError):
    """A per-line intersection count increased across a flip.

    This cannot happen for a genuine crossing; seeing it means corrupt input
    or an internal bug, so it is fatal rather than a reported result.
    """


class Side(IntEnum):
    """Which of the two infinitesimal offsets of a supporting line."""

    PLUS = 1
    MINUS = -1


class PerturbedLine(NamedTuple):
    """The line through points a < b, offset infinitesimally to ``side``.

    A point strictly on the positive orientation side of (a, b) keeps sign
    +1; the anchor points themselves, which sit on the unperturbed line, fall
    to the side opposite the offset and are assigned -side.
    """

    a: int
    b: int
    side: Side

    def __str__(self) -> str:
        return f"{self.a}-{self.b}/{Side(self.side).name.lower()}"


class LineType(Enum):
    """How a line splits the four endpoints of a crossing.

    L1 separates the choice-A reconnection pairs from each other, L2 the
    choice-B pairs, L3 one point from the other three. Lines missing the
    quad entirely are NO_INTERSECT. A 2+2 split along the diagonals is
    impossible: the diagonals cross, so no line separates them.
    """

    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    NO_INTERSECT = "none"


#: L1, L2, L3 and NO_INTERSECT, the keys of an audit's line type counts
_LINE_TYPES = tuple(LineType)


@functools.lru_cache(maxsize=32)
def _line_masks(ps: PointSet) -> tuple[int, ...]:
    """Per point, the bits of the perturbed lines it has adjusted sign + for:
    PLUS bit k where orient > 0 against anchor pair k, MINUS bit K + k where
    orient >= 0. On a set certified to be in general position, only the
    anchors of a line lie on it, so a point's MINUS bits are its PLUS bits
    and those of the anchor pairs holding it, and one readout does."""
    table = _SegmentLanes(ps, list(combinations(range(len(ps)), 2)))
    count, ones = table.count, table.ones
    sides = map(table.sides, table.xs, table.ys)
    if ps._certified:
        return tuple(plus | (plus | held) << count for plus, held in zip(
            map(_top_bits, sides, repeat(count)), _held_pairs(len(ps))))
    return tuple(_top_bits(d, count) | _top_bits(d + ones, count) << count
                 for d in sides)


@functools.lru_cache(maxsize=32)
def _held_pairs(m: int) -> tuple[int, ...]:
    """Per point of an m-point set, the bits of the anchor pairs holding it,
    numbered in lexicographic order."""
    held = [0] * m
    for k, (a, b) in enumerate(combinations(range(m), 2)):
        held[a] |= 1 << k
        held[b] |= 1 << k
    return tuple(held)


def _lines_by_bit(ps: PointSet) -> list[PerturbedLine]:
    """Every perturbed line, indexed by its bit in the line masks: the PLUS
    lines in anchor order, then the MINUS lines."""
    anchors = list(combinations(range(len(ps)), 2))
    return [PerturbedLine(a, b, side) for side in Side for a, b in anchors]


def _lowest_line(ps: PointSet, mask: int) -> PerturbedLine:
    return _lines_by_bit(ps)[(mask & -mask).bit_length() - 1]


@functools.lru_cache(maxsize=32)
def x_ranks(ps: PointSet) -> tuple[int, ...]:
    """Rank of each point in x-sorted order, the package's one x-order;
    requires pairwise distinct x."""
    if not ps.has_distinct_x():
        raise ValueError("duplicate x-coordinates; shear_to_distinct_x first")
    ranks = [0] * len(ps)
    for r, i in enumerate(sorted(range(len(ps)), key=lambda i: ps[i].x)):
        ranks[i] = r
    return tuple(ranks)


def phi_lines(ps: PointSet, m: Matching) -> int:
    """Crossing count between all perturbed lines and all matching segments.

    Bounded by 4n^3 (2 * C(2n,2) lines times at most one crossing per
    segment, counted against the 2n points); the sharper form is
    2 * C(2n,2) * n.
    """
    return _line_spans(_line_masks(ps), m.pairs)


def _line_spans(masks, segments) -> int:
    return sum((masks[u] ^ masks[v]).bit_count() for u, v in segments)


def phi_lines_delta(ps: PointSet, removed, added) -> int:
    """The change of ``phi_lines`` when a flip replaces the segments
    ``removed`` by ``added``: the perturbed lines their four endpoints
    straddle, read off four line masks alone."""
    masks = _line_masks(ps)
    return _line_spans(masks, added) - _line_spans(masks, removed)


def phi_lines_bound(n: int) -> int:
    """The stated cubic cap on phi_lines."""
    return 4 * n**3


def phi_lines_bound_sharp(n: int) -> int:
    """|lines| * n: each of the 2*C(2n,2) lines crosses each segment at most once."""
    return 2 * (2 * n) * (2 * n - 1) // 2 * n


def phi_vertical(ps: PointSet, m: Matching) -> int:
    """Crossing count between the 2n-1 vertical gap lines and the matching.

    Gap g sits strictly between the g-th and (g+1)-th points in x-order; a
    segment crosses it iff its endpoints' x-ranks straddle the gap.
    Equivalently this is the sum over segments of |xrank(a) - xrank(b)|,
    which is how it is computed. Requires pairwise distinct x-coordinates.
    """
    return _rank_spans(x_ranks(ps), m.pairs)


def _rank_spans(ranks, segments) -> int:
    return sum([abs(ranks[u] - ranks[v]) for u, v in segments])


def phi_vertical_delta(ranks, removed, added) -> int:
    """The change of ``phi_vertical`` when a flip replaces the segments
    ``removed`` by ``added``: their rank spans under ``ranks = x_ranks(ps)``,
    read off the four endpoints alone."""
    (a, b), (c, d), (e, f), (g, h) = *removed, *added
    return (abs(ranks[e] - ranks[f]) + abs(ranks[g] - ranks[h])
            - abs(ranks[a] - ranks[b]) - abs(ranks[c] - ranks[d]))


def phi_vertical_bound(n: int) -> int:
    """n^2: the maximum of phi_vertical over all pairings of 2n x-ranks."""
    return n * n


def phi_vertical_bound_gaps(n: int) -> int:
    """(2n-1) * n: one crossing per gap line per segment, the trivial cap."""
    return (2 * n - 1) * n


def _quad_line_masks(ps: PointSet, masks, order) -> tuple[int, int, int]:
    """The line masks (l1, l2, hit) of a convex quad given in ccw order
    q0..q3, starting at its lowest index, under ps's line ``masks``: the
    one line-type rule.

    With x01 the lines separating q0 from q1, and so on around the quad,
    each line is in none or two of x01, x12, x23 and x30, as it meets a
    quad's boundary twice, or in all four when it splits the quad along its
    diagonals, which raises PotentialInvariantError. L1 lines are in x12
    and x30 (l1), L2 lines in x01 and x23 (l2), and a line meeting the quad
    is in one of x01, x12 and x23 (hit); the L3 lines are the rest of hit.
    """
    m0, m1, m2, m3 = map(masks.__getitem__, order)
    x01, x12, x23, x30 = m0 ^ m1, m1 ^ m2, m2 ^ m3, m3 ^ m0
    l1, l2 = x12 & x30, x01 & x23
    if l1 & l2:
        raise PotentialInvariantError(
            f"line {_lowest_line(ps, l1 & l2)} splits quad {order} along its "
            "diagonals"
        )
    return l1, l2, x01 | x12 | x23


def _line_type(quad_masks: tuple[int, int, int], j: int) -> LineType:
    """The type of line j under a quad's ``_quad_line_masks``."""
    l1, l2, hit = quad_masks
    if l1 >> j & 1:
        return LineType.L1
    if l2 >> j & 1:
        return LineType.L2
    return LineType.L3 if hit >> j & 1 else LineType.NO_INTERSECT


@dataclass(frozen=True)
class LineAudit:
    """Per-line detail of a hypothetical flip's effect."""

    line: PerturbedLine
    line_type: LineType
    delta: int


@dataclass(frozen=True)
class DecrementAudit:
    """Dry-run accounting of one flip's effect on both potentials.

    ``delta_phi_l`` is exact and always <= -4. ``delta_phi_k`` is None when
    the point set has duplicate x-coordinates. ``lines`` holds per-line
    detail only when requested.
    """

    crossing: CrossingPair
    choice: FlipChoice
    added: tuple[Segment, Segment]
    line_type_counts: dict[LineType, int]
    delta_phi_l: int
    phi_l_before: int
    phi_l_after: int
    delta_phi_k: int | None
    phi_k_before: int | None
    phi_k_after: int | None
    lines: tuple[LineAudit, ...] | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "crossing": [f"{a}-{b}" for a, b in self.crossing],
            "choice": self.choice.value,
            "added": [f"{a}-{b}" for a, b in self.added],
            "line_type_counts": {
                t.value: self.line_type_counts.get(t, 0) for t in LineType
            },
            "delta_phi_l": self.delta_phi_l,
            "phi_l_before": self.phi_l_before,
            "phi_l_after": self.phi_l_after,
            "delta_phi_k": self.delta_phi_k,
            "phi_k_before": self.phi_k_before,
            "phi_k_after": self.phi_k_after,
        }
        if self.lines is not None:
            doc["lines"] = [
                {
                    "anchor": f"{la.line.a}-{la.line.b}",
                    "side": "plus" if la.line.side is Side.PLUS else "minus",
                    "type": la.line_type.value,
                    "delta": la.delta,
                }
                for la in self.lines
            ]
        return doc


def decrement_audit(
    ps: PointSet,
    m: Matching,
    crossing: CrossingPair,
    choice: FlipChoice,
    detail: bool = False,
    phi_l_before: int | None = None,
) -> DecrementAudit:
    """Account for a hypothetical flip without mutating anything.

    Raises FlipError, as ``flip`` does, when ``crossing`` is not a live
    proper crossing of ``m``. For every perturbed line, the crossing count
    restricted to the two segments the flip changes is compared
    before/after; any increase raises PotentialInvariantError naming the
    lowest such line. ``phi_l_before`` may be passed by callers that track
    the potential incrementally, saving the full recount.
    """
    # a live crossing's endpoints are in convex position, in this ccw order;
    # after ``flip`` of the same crossing, ``check_live`` reads m's memo
    quad = check_live(ps, m, crossing)
    masks = _line_masks(ps)
    quad_masks = l1, l2, hit = _quad_line_masks(ps, masks, quad)
    added = quad_reconnections(quad)[choice is FlipChoice.RECONNECT_B]
    (u1, v1), (u2, v2), (u3, v3), (u4, v4) = *crossing, *added
    b1, b2 = masks[u1] ^ masks[v1], masks[u2] ^ masks[v2]
    a1, a2 = masks[u3] ^ masks[v3], masks[u4] ^ masks[v4]
    gained = ((a1 | a2) & ~(b1 | b2)) | (a1 & a2 & ~(b1 & b2))
    if gained:
        raise PotentialInvariantError(
            f"line {_lowest_line(ps, gained)} gained intersections across "
            f"flip of {crossing}"
        )
    delta_l = (a1.bit_count() + a2.bit_count()
               - b1.bit_count() - b2.bit_count())
    # the lines outside hit, of the m(m - 1) lines for m points, miss it
    n1, n2, n_hit = l1.bit_count(), l2.bit_count(), hit.bit_count()
    counts = dict(zip(_LINE_TYPES, (n1, n2, n_hit - n1 - n2,
                                    len(masks) * (len(masks) - 1) - n_hit)))

    entries = None
    if detail:
        lines = _lines_by_bit(ps)
        half = len(lines) // 2
        entries = tuple(
            LineAudit(
                lines[j],
                _line_type(quad_masks, j),
                (a1 >> j & 1) + (a2 >> j & 1) - (b1 >> j & 1) - (b2 >> j & 1),
            )
            for k in range(half)
            for j in (k, k + half)
        )

    if phi_l_before is None:
        phi_l_before = _line_spans(masks, m.pairs)

    delta_k = phi_k_before = phi_k_after = None
    if ps.has_distinct_x():
        ranks = x_ranks(ps)
        delta_k = phi_vertical_delta(ranks, crossing, added)
        phi_k_before = _rank_spans(ranks, m.pairs)
        phi_k_after = phi_k_before + delta_k

    return _record(DecrementAudit, crossing, choice, added, counts, delta_l,
                   phi_l_before, phi_l_before + delta_l, delta_k, phi_k_before,
                   phi_k_after, entries)
