"""Two integer potential functions that certify flip-process termination.

``phi_lines`` counts crossings between matching segments and a family of
perturbed supporting lines: for every pair of points, the two lines
infinitesimally to either side of the line through them. It drops by at
least 4 under every flip, giving the cubic cap on the longest run.

``phi_vertical`` counts crossings between matching segments and the vertical
lines separating consecutive points in x-order. It never increases under any
flip and drops by at least 2 when the reconnection pairs the two x-leftmost
endpoints together (the x-greedy choice), giving the quadratic cap on the
shortest run. Both it and its change under a flip (``phi_vertical_delta``,
from the four endpoints alone) read the one x-order, ``x_ranks``.

Perturbed lines are bits of one int per point. With K = C(2n, 2) anchor
pairs numbered in lexicographic order (``geometry.side_masks``), the line
(a, b, PLUS) of anchor pair k is bit k and (a, b, MINUS) is bit K + k; a
point's bit is set when its adjusted sign for that line is +. There is one
adjusted-sign rule: a point on the unperturbed line (an anchor) falls to the
side opposite the offset, so a point's PLUS half is its ``pos`` bits and its
MINUS half ``pos | on``. The infinitesimal offset is thus exact, no epsilon
ever appears, and segment (u, v) crosses exactly the lines of
``mask[u] ^ mask[v]``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import combinations
from typing import NamedTuple

from .geometry import (
    PointSet,
    Segment,
    ccw_quad_order,
    convex_position_ccw,
    side_masks,
)
from .matching import (
    CrossingPair,
    FlipChoice,
    Matching,
    reconnection_pairs,
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


@functools.lru_cache(maxsize=32)
def _line_masks(ps: PointSet) -> tuple[int, ...]:
    """Per point, the bits of the perturbed lines it has adjusted sign + for."""
    pos, on = side_masks(ps)
    half = len(ps) * (len(ps) - 1) // 2
    return tuple(p | (p | z) << half for p, z in zip(pos, on))


def _lines_by_bit(ps: PointSet) -> list[PerturbedLine]:
    """Every perturbed line, indexed by its bit in the line masks: the PLUS
    lines in anchor order, then the MINUS lines."""
    lines = list(perturbed_lines(ps))
    return lines[0::2] + lines[1::2]


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


def perturbed_lines(ps: PointSet):
    """All 2 * C(2n, 2) perturbed supporting lines of the point set."""
    pairs = combinations(range(len(ps)), 2)
    return (PerturbedLine(a, b, side) for a, b in pairs for side in Side)


def crosses_perturbed_line(ps: PointSet, line: PerturbedLine, s: Segment) -> bool:
    """True iff segment s crosses the perturbed line: the adjusted signs of
    its endpoints differ."""
    masks = _line_masks(ps)
    u, v = s
    return bool((masks[u] ^ masks[v]) >> _lines_by_bit(ps).index(line) & 1)


def phi_lines(ps: PointSet, m: Matching) -> int:
    """Crossing count between all perturbed lines and all matching segments.

    Bounded by 4n^3 (2 * C(2n,2) lines times at most one crossing per
    segment, counted against the 2n points); the sharper form is
    2 * C(2n,2) * n.
    """
    masks = _line_masks(ps)
    return sum((masks[u] ^ masks[v]).bit_count() for u, v in m.pairs)


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
    return sum(abs(ranks[u] - ranks[v]) for u, v in segments)


def phi_vertical_delta(ranks, removed, added) -> int:
    """The change of ``phi_vertical`` when a flip replaces the segments
    ``removed`` by ``added``: their rank spans under ``ranks = x_ranks(ps)``,
    read off the four endpoints alone."""
    return _rank_spans(ranks, added) - _rank_spans(ranks, removed)


def phi_vertical_bound(n: int) -> int:
    """n^2: the maximum of phi_vertical over all pairings of 2n x-ranks."""
    return n * n


def phi_vertical_bound_gaps(n: int) -> int:
    """(2n-1) * n: one crossing per gap line per segment, the trivial cap."""
    return (2 * n - 1) * n


def _quad_line_types(ps: PointSet, quad):
    """The ccw order q0..q3 of a convex quad and, per LineType, the mask of
    the lines of that type.

    With x01 the lines separating q0 from q1 and so on around the quad, L1
    lines are in x12 and x30, L2 lines in x01 and x23, and L3 lines in two
    adjacent ones. Raises ValueError when the quad is not in convex position
    and PotentialInvariantError when a line is in all four: it splits the
    quad along its diagonals.
    """
    order = ccw_quad_order(ps, quad)
    if not convex_position_ccw(ps, order):
        raise ValueError(f"quad {tuple(quad)} is not in convex position")
    masks = _line_masks(ps)
    m0, m1, m2, m3 = (masks[q] for q in order)
    x01, x12, x23, x30 = m0 ^ m1, m1 ^ m2, m2 ^ m3, m3 ^ m0
    split = x01 & x12 & x23 & x30
    if split:
        raise PotentialInvariantError(
            f"line {_lowest_line(ps, split)} splits quad {order} along its "
            "diagonals"
        )
    l1, l2, hit = x12 & x30, x01 & x23, x01 | x12 | x23 | x30
    return order, {
        LineType.L1: l1,
        LineType.L2: l2,
        LineType.L3: hit & ~(l1 | l2),
        LineType.NO_INTERSECT: ~hit & ((1 << len(ps) * (len(ps) - 1)) - 1),
    }


def _type_of(types: dict[LineType, int], j: int) -> LineType:
    return next(t for t, mask in types.items() if mask >> j & 1)


def classify_line_vs_quad(
    ps: PointSet, line: PerturbedLine, quad
) -> LineType:
    """Combinatorial type of a perturbed line against a crossing's four
    endpoints.

    ``quad`` is any ordering of the four endpoint indices; they must be in
    convex position (always true for a genuine crossing).
    """
    _order, types = _quad_line_types(ps, quad)
    return _type_of(types, _lines_by_bit(ps).index(line))


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

    For every perturbed line, the crossing count restricted to the two
    segments the flip changes is compared before/after; any increase raises
    PotentialInvariantError naming the lowest such line. ``phi_l_before``
    may be passed by callers that track the potential incrementally, saving
    the full recount.
    """
    e1, e2 = crossing
    order, types = _quad_line_types(ps, (*e1, *e2))
    added = reconnection_pairs(ps, crossing, choice, order)
    masks = _line_masks(ps)
    b1, b2, a1, a2 = (masks[u] ^ masks[v] for u, v in (e1, e2, *added))
    gained = ((a1 | a2) & ~(b1 | b2)) | (a1 & a2 & ~(b1 & b2))
    if gained:
        raise PotentialInvariantError(
            f"line {_lowest_line(ps, gained)} gained intersections across "
            f"flip of {crossing}"
        )
    delta_l = a1.bit_count() + a2.bit_count() - b1.bit_count() - b2.bit_count()

    entries = None
    if detail:
        lines = _lines_by_bit(ps)
        half = len(lines) // 2
        entries = tuple(
            LineAudit(
                lines[j],
                _type_of(types, j),
                (a1 >> j & 1) + (a2 >> j & 1) - (b1 >> j & 1) - (b2 >> j & 1),
            )
            for k in range(half)
            for j in (k, k + half)
        )

    if phi_l_before is None:
        phi_l_before = phi_lines(ps, m)

    if ps.has_distinct_x():
        delta_k = phi_vertical_delta(x_ranks(ps), crossing, added)
        phi_k_before = phi_vertical(ps, m)
        phi_k_after = phi_k_before + delta_k
    else:
        delta_k = phi_k_before = phi_k_after = None

    return DecrementAudit(
        crossing=crossing,
        choice=choice,
        added=added,
        line_type_counts={t: mask.bit_count() for t, mask in types.items()},
        delta_phi_l=delta_l,
        phi_l_before=phi_l_before,
        phi_l_after=phi_l_before + delta_l,
        delta_phi_k=delta_k,
        phi_k_before=phi_k_before,
        phi_k_after=phi_k_after,
        lines=entries,
    )
