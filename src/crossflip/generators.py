"""Instance builders: the two worst-case families and seeded random instances.

Every generator certifies its output. General position is decided once
per point set: by ``gen_random``'s rejection test, which covers every triple,
or by ``gen_convex``'s O(n) checks of increasing x and counterclockwise
turns, each of which certifies the set and its ``shear_to_distinct_x`` image
for ``Instance``, and otherwise by ``Instance`` validation. The two-line
family additionally re-verifies that segment crossings coincide with
permutation inversions. A generator that cannot certify raises
GenerationError instead of returning a doubtful instance.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import combinations

from .geometry import (
    CoordinateOverflowError,
    Point,
    PointSet,
    _certify,
    _collinear_with_pair,
    orient,
    seg,
    segments_properly_cross,
    validate_general_position,
)
from .matching import Matching


class GenerationError(RuntimeError):
    """A generator could not produce a certified instance."""


@dataclass(frozen=True)
class Instance:
    """A point set with a starting matching and provenance metadata."""

    points: PointSet
    matching: Matching
    provenance: str
    notes: str = ""

    def __post_init__(self):
        if self.matching.size * 2 != len(self.points):
            raise ValueError(
                f"matching of size {self.matching.size} does not cover "
                f"{len(self.points)} points"
            )
        violation = validate_general_position(self.points)
        if violation is not None:
            kind = "duplicate points" if len(violation) == 2 else "collinear points"
            raise ValueError(f"{kind} at indices {violation}")

    @property
    def n(self) -> int:
        return self.points.n


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def reverse_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def inversion_count(perm) -> int:
    """Number of pairs i < j with perm[i] > perm[j]."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv


def _check_permutation(perm) -> tuple[int, ...]:
    pi = tuple(perm)
    for v in pi:
        if type(v) is not int:
            raise ValueError(f"permutation entry {v!r} is not an int")
    if sorted(pi) != list(range(len(pi))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(pi) - 1}")
    return pi


#: Index convention for two-line instances: points 0..n-1 are the bottom row
#: in increasing x, points n..2n-1 the top row in increasing x. Segment
#: (i, n+j) encodes the permutation entry i -> j.
def two_line_permutation(m: Matching, n: int) -> list[int] | None:
    """The permutation a bottom-to-top matching encodes, or None if some
    pair stays within one row."""
    pi = [-1] * n
    for a, b in m.pairs:
        if a < n <= b:
            pi[a] = b - n
        else:
            return None
    return pi


@functools.lru_cache(maxsize=32)
def inversion_law_violation(ps: PointSet, n: int) -> tuple[int, ...] | None:
    """The first (i, j, k, l), i < j, k != l, such that segments (i, n+k)
    and (j, n+l) cross although k < l or miss although k > l; None when the
    crossings obey this inversion law, as bubble-style strategies need for
    every matching on these points. O(n^4) over all bottom pairs i < j; past
    n = 24 only over j = i + 1, the pairs a bubble step flips. Memoized per
    point set, so a bubble run on a ``gen_two_line`` instance reuses the
    generator's check."""
    bottoms = combinations(range(n), 2) if n <= 24 else zip(range(n - 1), range(1, n))
    for i, j in bottoms:
        for k in range(n):
            for l in range(n):
                if k != l and segments_properly_cross(
                    ps, seg(i, n + k), seg(j, n + l)
                ) != (k > l):
                    return (i, j, k, l)
    return None


def gen_two_line(perm) -> Instance:
    """Two near-horizontal rows of n points, matched by a permutation.

    Bottom point i sits at (s*i, i^2), top point j at (s*j + 1, D - j^2)
    with s = 4n, D = 32n^2; the +1 stagger keeps all x distinct. No three
    points are collinear, so ``Instance`` never rejects the set: within a
    row they lie on a strictly convex (bottom) or concave (top) parabola,
    which a line meets at most twice; the line through two bottom points has
    slope (i+k)/s in [0, 1/2), so on the set's x-range [0, s*n] it stays
    under (n-1)^2 + 2n^2 < 31n^2 < every top y, and mirrored, the line
    through two top points stays over every bottom y. The matching crosses
    exactly at the permutation's inversions, which is re-verified here
    rather than assumed.
    """
    pi = _check_permutation(perm)
    n = len(pi)
    if n < 1:
        raise ValueError("need n >= 1")
    s = 4 * n
    d = 8 * n * s
    coords = [(s * i, i * i) for i in range(n)]
    coords += [(s * j + 1, d - j * j) for j in range(n)]
    try:
        ps = PointSet.from_coords(coords)
    except ValueError as exc:
        raise GenerationError(f"two-line n={n}: {exc}") from exc
    violation = inversion_law_violation(ps, n)
    if violation is not None:
        raise GenerationError(f"two-line n={n} breaks the inversion law at {violation}")
    matching = Matching.from_pairs([(i, n + pi[i]) for i in range(n)])
    return Instance(ps, matching, f"two-line(perm={list(pi)})")


def gen_convex(n: int) -> Instance:
    """2n points in strictly convex position with the nested worst-case
    matching for the shortest-run lower bound.

    Point k sits at (n*(k - n), (k - n)^2) on the parabola y = (x/n)^2, so
    the points are strictly convex and counterclockwise in label order, with
    distinct x and no three collinear, all by construction. Two O(n) checks
    re-verify it: x strictly increases and every three cyclically
    consecutive points turn counterclockwise. Then the slopes between
    consecutive points increase, so orient(p_i, p_j, p_k) > 0 for every
    i < j < k, which certifies general position for ``Instance``. Every
    coordinate is at most n^2 in absolute value, within ``COORD_LIMIT`` for
    n <= 1024; a larger n raises GenerationError, and an n that is not an
    int, a bool included, ValueError.

    The matching pairs point 0 with point n, and point i with point 2n - i
    for 0 < i < n: one long chord crossed by n - 1 mutually nested chords.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n {n!r} is not an int >= 1")
    m = 2 * n
    try:
        ps = PointSet.from_coords([(n * (k - n), (k - n) ** 2) for k in range(m)])
    except CoordinateOverflowError as exc:
        raise GenerationError(f"convex n={n}: {exc}") from exc
    pts = ps.points
    if any(p.x >= q.x for p, q in zip(pts, pts[1:])):
        raise GenerationError(f"convex n={n}: x not strictly increasing")
    if m > 2 and not all(
        orient(ps[k], ps[(k + 1) % m], ps[(k + 2) % m]) > 0 for k in range(m)
    ):
        raise GenerationError(f"convex n={n}: points not strictly convex")
    _certify(ps)
    matching = Matching.from_pairs([(0, n)] + [(i, 2 * n - i) for i in range(1, n)])
    return Instance(ps, matching, f"convex(n={n})")


def gen_random(n: int, seed: int, bbox: tuple[int, int] = (0, 512)) -> Instance:
    """2n integer points sampled uniformly in bbox^2, in general position,
    with a uniformly random perfect matching. Deterministic given the seed.
    An n, a seed or a bbox bound that is not an int, a bool included, is
    refused, not converted.

    Each candidate point is rejected if it duplicates an existing point (a
    set lookup) or is collinear with an existing pair: its slope keys to the
    accepted points, at the one scale (hi - lo)**2 that bounds every |dx|
    squared in the box, repeat (``geometry._collinear_with_pair``). A
    bounded rejection budget turns a hopeless bbox into an error instead of
    a hang. A box of k integer
    columns holds at most 2k points with no three collinear, two per
    column, so n > k is refused before the first draw.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n {n!r} is not an int >= 1")
    if type(seed) is not int:
        raise ValueError(f"seed {seed!r} is not an int")
    lo, hi = bbox
    if type(lo) is not int or type(hi) is not int:
        raise ValueError(f"bbox {bbox!r} has a bound that is not an int")
    if lo >= hi:
        raise ValueError(f"bbox {bbox} is empty")
    if n > hi - lo + 1:
        raise GenerationError(
            f"bbox {bbox} has {hi - lo + 1} columns, too few for {2 * n} "
            "points in general position (at most two per column)"
        )
    rng = random.Random(seed)
    pts: list[Point] = []
    seen: set[Point] = set()
    # every |dx| within the box is at most hi - lo: one exact slope scale
    scale = (hi - lo) ** 2
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
        if cand in seen or _collinear_with_pair(cand, pts, scale):
            continue
        pts.append(cand)
        seen.add(cand)
    order = list(range(2 * n))
    rng.shuffle(order)
    matching = Matching.from_pairs(
        [(order[2 * i], order[2 * i + 1]) for i in range(n)]
    )
    ps = PointSet(tuple(pts))
    _certify(ps)  # every accepted point passed the triple test
    return Instance(
        ps,
        matching,
        f"random(n={n}, seed={seed}, bbox=[{lo}, {hi}])",
    )
