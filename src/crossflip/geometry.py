"""Exact integer predicates over planar point sets.

Every geometric decision in this package routes through the functions here.
All predicates are computed in integer arithmetic, so there is no epsilon
tuning and no inconsistent answer anywhere downstream.

Batched tests run on one segment-lane table (``_SegmentLanes``): a
determinant per 48-bit lane of a big int, biased so that its sign is the
lane's top bit. Its columns are plain ints, and a table moves a lane to
another segment by adding that lane's change to each column. It gives the
perturbed-line masks of ``potentials``, the crossing index of strategy runs
in ``matching`` and the exact search kernel's rows. ``proper_crossing_quad``
is the pair test that also orders the crossing's quad, off the same four
determinants, for the one checked flip step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from struct import pack
from typing import Iterable, NamedTuple, Sequence

#: Coordinate budget. With |x|, |y| <= 2**20 every 3x3 orientation
#: determinant is bounded by 8 * 2**40 = 2**43, so the predicates stay exact
#: even in fixed-width 64-bit arithmetic, and a determinant plus a bias of
#: 2**47 - 1 fits a 48-bit lane of ``_SegmentLanes``.
COORD_LIMIT = 2**20


class CoordinateOverflowError(ValueError):
    """A coordinate left the |x|, |y| <= COORD_LIMIT budget."""


class Point(NamedTuple):
    x: int
    y: int


#: A segment is an ordered pair of point indices with the smaller index first.
Segment = tuple[int, int]


def seg(a: int, b: int) -> Segment:
    """Normalized segment between point indices a and b."""
    if a == b:
        raise ValueError(f"degenerate segment ({a}, {b})")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class PointSet:
    """An ordered tuple of 2n integer points; position in the tuple is identity.

    Construction enforces only a tuple of ``Point``, the size, int
    coordinates and the coordinate budget; a float, a string or a bool is
    refused, not converted. General position is a separate check
    (``validate_general_position``) so that degenerate inputs can be
    diagnosed rather than rejected blindly.

    The hash and ``has_distinct_x`` are computed once, at construction, so a
    cache lookup keyed by the set does not rehash its 2n points; equality
    still compares the points.

    ``_certified`` is True once the set is known to be in general position:
    the random generator's output, whose rejection test covered every
    triple, the convex generator's, whose increasing x and counterclockwise
    turns order every triple, the shears of such sets, and a set that
    passed ``validate_general_position``'s scan. It marks the object
    itself, so an equal set is scanned once on its own.
    """

    points: tuple[Point, ...]

    _certified = False

    def __post_init__(self) -> None:
        if type(self.points) is not tuple:
            raise ValueError(f"points are a {type(self.points).__name__}, not a tuple")
        if len(self.points) < 2 or len(self.points) % 2 != 0:
            raise ValueError("a point set holds 2n points with n >= 1")
        for i, p in enumerate(self.points):
            if type(p) is not Point:
                raise ValueError(f"point {i} = {p!r} is not a Point")
            if type(p.x) is not int or type(p.y) is not int:
                raise ValueError(f"point {i} = ({p.x!r}, {p.y!r}) has a "
                                 "coordinate that is not an int")
            if abs(p.x) > COORD_LIMIT or abs(p.y) > COORD_LIMIT:
                raise CoordinateOverflowError(
                    f"point {i} = ({p.x}, {p.y}) exceeds |coord| <= {COORD_LIMIT}"
                )
        object.__setattr__(self, "_hash", hash(self.points))
        object.__setattr__(self, "_distinct_x",
                           len({p.x for p in self.points}) == len(self.points))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_coords(cls, coords: Iterable[tuple[int, int]]) -> "PointSet":
        return cls(tuple(Point(x, y) for x, y in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    @property
    def n(self) -> int:
        """Number of segments a perfect matching on this set has."""
        return len(self.points) // 2

    def has_distinct_x(self) -> bool:
        return self._distinct_x


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the signed area of triangle (p, q, r).

    +1 for a counterclockwise turn, -1 for clockwise, 0 for collinear.
    """
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (d > 0) - (d < 0)


#: a lane holding a determinant d plus _BIAS has its top bit set when d > 0,
#: and with one more, when d >= 0: |d| <= 2**43 (COORD_LIMIT), so the lane
#: stays in [0, 2**48) and never carries into the next
_WIDTH = 48
_BIAS = (1 << _WIDTH - 1) - 1
_BYTES = _WIDTH // 8

#: per byte, b"1" when its top bit is set and b"0" otherwise
_TOP_BIT = bytes(48 + (i >> 7) for i in range(256))
#: per byte, 1 when its top bit is set and 0 otherwise
_TOP_FLAG = bytes(i >> 7 for i in range(256))


def _top_bits(lanes: int, count: int) -> int:
    """Bit k set when lane k of the ``count`` lanes has its top bit set."""
    # big-endian top bytes run from the last lane down, highest bit first,
    # as int(text, 2) reads them
    return int(lanes.to_bytes(_BYTES * count, "big")[::_BYTES].translate(_TOP_BIT), 2)


def _column(values: Sequence[int]) -> int:
    """One lane per value, each in [0, 2**48): packed as 64-bit words, whose
    top two bytes are then dropped, all in C."""
    words = bytearray(pack(f"<{len(values)}Q", *values))
    del words[6::8]  # each word's seventh byte, then its eighth
    del words[6::7]
    return int.from_bytes(words, "little")


class _SegmentLanes:
    """Segments over the points of ``ps`` in 48-bit lanes, segment k in
    lane k: a point or a segment is tested against all of them at once.

    Five int columns hold each segment's first endpoint's x and y,
    shifted by COORD_LIMIT to be nonnegative, its x and y extents, and the
    bias minus its line's constant. ``move`` puts other segments in some
    lanes by adding each column's change there, which is exact because a
    column is the sum of its lanes' values, each shifted to its lane. The
    straddle test is ``segments_properly_cross`` for segments sharing no
    endpoint, and false for those that share one, on any point set.
    """

    def __init__(self, ps: PointSet, segments: Sequence[Segment]):
        self.xs = xs = [x + COORD_LIMIT for x, _ in ps.points]
        self.ys = ys = [y + COORD_LIMIT for _, y in ps.points]
        self.count = count = len(segments)
        self.ones = int.from_bytes(b"\1".ljust(_BYTES, b"\0") * count, "little")
        ax, ay = [xs[a] for a, _ in segments], [ys[a] for a, _ in segments]
        bx, by = [xs[b] for _, b in segments], [ys[b] for _, b in segments]
        # the bias minus the line's constant, (x2 - x1) * y1 - (y2 - y1) * x1
        q = [_BIAS + x1 * y2 - x2 * y1 for x1, y1, x2, y2 in zip(ax, ay, bx, by)]
        self.ax, self.ay, self.q = map(_column, (ax, ay, q))
        # an extent may be negative, so its column is a difference
        self.dx = _column(bx) - self.ax
        self.dy = _column(by) - self.ay

    def move(self, slots: Sequence[int], old: Sequence[Segment],
             new: Sequence[Segment]) -> None:
        """Lane ``slots[i]`` from segment ``old[i]``, which it holds, to
        segment ``new[i]``, for distinct slots: each column gains the change
        of its value at each moved lane, shifted to that lane."""
        xs, ys = self.xs, self.ys
        ax = ay = dx = dy = q = 0
        for k, (a, b), (c, d) in zip(slots, old, new):
            k *= _WIDTH
            ax += xs[c] - xs[a] << k
            ay += ys[c] - ys[a] << k
            dx += xs[d] - xs[c] - xs[b] + xs[a] << k
            dy += ys[d] - ys[c] - ys[b] + ys[a] << k
            q += xs[c] * ys[d] - xs[d] * ys[c] - xs[a] * ys[b] + xs[b] * ys[a] << k
        self.ax += ax
        self.ay += ay
        self.dx += dx
        self.dy += dy
        self.q += q

    def sides(self, x: int, y: int) -> int:
        """Lane k holds orient(first_k, second_k, p) + _BIAS, for the point
        p at shifted coordinates (x, y)."""
        return self.dx * y - self.dy * x + self.q

    def straddle(self, a: int, b: int) -> int:
        """Top bit of lane k set exactly when segment k properly crosses
        (a, b): its endpoints lie strictly on opposite sides of line ab,
        and a and b strictly on opposite sides of its line."""
        xa, ya, xb, yb = self.xs[a], self.ys[a], self.xs[b], self.ys[b]
        dx, dy, ones = xb - xa, yb - ya, self.ones
        bias = (_BIAS - dx * ya + dy * xa) * ones
        # orient(a, b, ·) at each segment's first and second endpoint, biased;
        # the second less the first is (b - a) x (second - first), which is
        # also orient(first, second, a) less orient(first, second, b)
        first = dx * self.ay - dy * self.ax + bias
        turn = dx * self.dy - dy * self.dx
        second = first + turn
        to_a = self.sides(xa, ya)
        to_b = to_a - turn
        # two determinants have strictly opposite signs when their lanes'
        # top bits differ both for > 0 and for >= 0; twice
        return ((first ^ second) & (first + ones ^ second + ones)
                & (to_a ^ to_b) & (to_a + ones ^ to_b + ones))

    def crossers(self, a: int, b: int) -> int:
        """Bit k set when segment k properly crosses segment (a, b)."""
        return _top_bits(self.straddle(a, b), self.count)

    def crossing_flags(self, a: int, b: int, start: int = 0) -> bytes:
        """Per lane k >= start, in order, 1 when segment k properly crosses
        segment (a, b) and 0 otherwise: the straddle test's top bytes, each
        mapped to its top bit, since a lane's other bits reach into its top
        byte."""
        return self.straddle(a, b).to_bytes(_BYTES * self.count, "little")[
            _BYTES * start + _BYTES - 1::_BYTES].translate(_TOP_FLAG)


def segments_properly_cross(ps: PointSet, s: Segment, t: Segment) -> bool:
    """True iff segments s and t meet in exactly one point interior to both.

    The segments must not share an endpoint index; that case is a caller bug,
    not a geometric question. Under general position, endpoint touching and
    overlap cannot occur, so a strict two-way straddle test is exact: each
    segment's endpoints lie strictly on opposite sides of the other's line,
    four ``orient`` determinants computed inline.
    """
    a, b = s
    c, d = t
    if a == c or a == d or b == c or b == d:
        raise ValueError(f"segments {s} and {t} share an endpoint")
    pts = ps.points
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts[a], pts[b], pts[c], pts[d]
    ex, ey, fx, fy = bx - ax, by - ay, dx - cx, dy - cy
    # orient(p_a, p_b, p_c) * orient(p_a, p_b, p_d) < 0, and the same for
    # p_a and p_b against line (c, d)
    return (
        (ex * (cy - ay) - ey * (cx - ax)) * (ex * (dy - ay) - ey * (dx - ax)) < 0
        and (fx * (ay - cy) - fy * (ax - cx)) * (fx * (by - cy) - fy * (bx - cx)) < 0
    )


def crossed_by_either(
    ps: PointSet, s: Segment, u: Segment, segments: Iterable[Segment]
) -> list[tuple[Segment, Segment]]:
    """The crossings of s or of u with the segments of ``segments``, each
    as its two segments, the lower first, in the order of the crossing
    segment, s's before u's: ``segments_properly_cross`` of each of s and u
    with each segment, in one pass that reads each segment's endpoints once.

    Each test takes two cross products, one per endpoint of the segment
    against the line of s (or u). A segment whose endpoints lie strictly on
    opposite sides of it crosses s exactly when s's endpoints lie strictly
    on opposite sides of its own line, two more cross products; so the
    answer is exact on degenerate sets too. A segment sharing an endpoint
    with s lies on line s there and never counts.
    """
    pts = ps.points
    (ax, ay), (bx, by) = pts[s[0]], pts[s[1]]
    (ex, ey), (fx, fy) = pts[u[0]], pts[u[1]]
    dx, dy, gx, gy = bx - ax, by - ay, fx - ex, fy - ey
    # orient(p_a, p_b, p_r) has the sign of dx * y_r - dy * x_r - line
    line, uline = dx * ay - dy * ax, gx * ey - gy * ex
    out = []
    for t in segments:
        c, d = t
        (cx, cy), (tx, ty) = pts[c], pts[d]
        p = dx * cy - dy * cx
        q = dx * ty - dy * tx
        if p > line > q or p < line < q:
            # orient(p_c, p_d, p_a) and orient(p_c, p_d, p_b)
            hx, hy = tx - cx, ty - cy
            p = hx * (ay - cy) - hy * (ax - cx)
            q = hx * (by - cy) - hy * (bx - cx)
            if p > 0 > q or p < 0 < q:
                out.append((s, t) if s < t else (t, s))
        p = gx * cy - gy * cx
        q = gx * ty - gy * tx
        if p > uline > q or p < uline < q:
            hx, hy = tx - cx, ty - cy
            p = hx * (ey - cy) - hy * (ex - cx)
            q = hx * (fy - cy) - hy * (fx - cx)
            if p > 0 > q or p < 0 < q:
                out.append((u, t) if u < t else (t, u))
    return out


def _first_repeat(keys: Sequence) -> tuple[int, int] | None:
    """The lexicographically first index pair (j, k), j < k, of equal keys:
    the first j whose key is seen again later, and that key's next index,
    found by C-level passes."""
    last = dict(zip(keys, count()))  # a later index overwrites an earlier
    if len(last) == len(keys):
        return None
    j = next(compress(count(), map(ne, map(last.__getitem__, keys), count())))
    return j, keys.index(keys[j], j + 1)


def slope_keys(p: Point, others: Sequence[Point]) -> list[int | None]:
    """One exact int key per point q of ``others`` (none equal to p): the
    slope of q - p = (dx, dy) as floor(K * dy / dx) with K = (max |dx|)**2,
    or None when dx = 0. Two different slopes with |dx| <= D differ by at
    least 1 / D**2, so by K / D**2 >= 1 once scaled: r and s have equal keys
    exactly when orient(p, r, s) == 0."""
    if not others:
        return []
    px, py = p
    # the points of least and greatest x, found by tuple comparison in C
    span = max(max(others)[0] - px, px - min(others)[0])
    k = span * span
    return [k * (y - py) // (x - px) if x != px else None for x, y in others]


def first_collinear_pair(p: Point, others: Sequence[Point]) -> tuple[int, int] | None:
    """The lexicographically first index pair (j, k), j < k, of points in
    ``others`` (none equal to p) collinear with p: the first repeat of their
    ``slope_keys``, in O(len(others))."""
    return _first_repeat(slope_keys(p, others))


def _collinear_with_pair(p: Point, others: Sequence[Point], scale: int) -> bool:
    """Whether p is collinear with two points of ``others`` (none equal to
    p), by one set-size check: whether their ``slope_keys`` repeat, taken
    at a fixed K = ``scale``, which is exact when scale >= (max |dx|)**2."""
    px, py = p
    return len({scale * (y - py) // (x - px) if x != px else None
                for x, y in others}) < len(others)


def _certify(ps: PointSet) -> None:
    """Mark ``ps`` as known to be in general position (``_certified``)."""
    object.__setattr__(ps, "_certified", True)


def validate_general_position(ps: PointSet) -> tuple[int, ...] | None:
    """None when all points are distinct and no three are collinear.

    Otherwise the first offending index pair (duplicate points) or triple
    (collinear points), scanning index combinations in lexicographic order.
    Duplicates are reported before collinearities. O(m^2) for m points, or
    O(1) for a set certified by ``generators.gen_random`` or
    ``generators.gen_convex``, sheared from one, or that passed this scan
    before.
    """
    if ps._certified:
        return None
    pts = ps.points
    if (dup := _first_repeat(pts)) is not None:
        return dup
    for i, p in enumerate(pts):
        if (pair := first_collinear_pair(p, pts[i + 1:])) is not None:
            return (i, i + 1 + pair[0], i + 1 + pair[1])
    _certify(ps)
    return None


def shear_to_distinct_x(ps: PointSet) -> PointSet:
    """Shear the set so all x-coordinates become pairwise distinct.

    Returns ``ps`` unchanged when its x-coordinates are already distinct.
    Otherwise applies (x, y) -> (x*c + y, y) with c = 1 + 2*max|y|. The map
    has positive determinant, so every orientation sign, every crossing and
    every flip is preserved; distinctness follows because |c*(x1-x2)| > |y2-y1|
    whenever x1 != x2, while x1 == x2 forces y1 != y2. For the same reasons
    the image of a set certified to be in general position is certified too.

    Raises CoordinateOverflowError when the image leaves the coordinate budget.
    """
    if ps.has_distinct_x():
        return ps
    c = 1 + 2 * max(abs(p.y) for p in ps)
    image = PointSet(tuple(Point(p.x * c + p.y, p.y) for p in ps))
    if ps._certified:
        _certify(image)
    return image


def crossing_quad(
    ps: PointSet, crossing: tuple[Segment, Segment]
) -> tuple[int, int, int, int]:
    """A crossing's four endpoints in ccw convex order (a, x, b, y) from one
    orientation test: a the lowest endpoint, b its partner and x the
    endpoint with orient(a, x, b) > 0 (see ``matching.FlipChoice``), for the
    two segments and their endpoints given in any order."""
    (a, b), (x, y) = crossing
    # the sorted segments, the lower first: a is the lowest endpoint
    if a > b:
        a, b = b, a
    if x > y:
        x, y = y, x
    if (x, y) < (a, b):
        a, b, x, y = x, y, a, b
    pts = ps.points
    (ax, ay), (xx, xy), (bx, by) = pts[a], pts[x], pts[b]
    if (xx - ax) * (by - ay) - (xy - ay) * (bx - ax) < 0:  # orient(a, x, b)
        x, y = y, x
    return a, x, b, y



def proper_crossing_quad(
    ps: PointSet, s: Segment, t: Segment
) -> tuple[int, int, int, int] | None:
    """The ``crossing_quad`` of segments s and t when they properly cross,
    and None otherwise, from the four determinants of the straddle test
    alone: with the lower segment (a, b) and the other (x, y), the test's
    orient(a, b, x) is -orient(a, x, b), the quad's one orientation test.
    Segments sharing an endpoint, or equal ones, never cross."""
    (a, b), (x, y) = s, t
    if a > b:
        a, b = b, a
    if x > y:
        x, y = y, x
    if (x, y) < (a, b):
        a, b, x, y = x, y, a, b
    pts = ps.points
    (ax, ay), (bx, by), (xx, xy), (yx, yy) = pts[a], pts[b], pts[x], pts[y]
    ex, ey, fx, fy = bx - ax, by - ay, yx - xx, yy - xy
    to_x = ex * (xy - ay) - ey * (xx - ax)  # orient(a, b, x)
    if (to_x * (ex * (yy - ay) - ey * (yx - ax)) >= 0
            or ((fx * (ay - xy) - fy * (ax - xx))
                * (fx * (by - xy) - fy * (bx - xx)) >= 0)):
        return None
    return (a, y, b, x) if to_x > 0 else (a, x, b, y)
