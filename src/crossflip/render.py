"""Static SVG pictures of instances and flip traces.

Points are labeled dots, matching segments solid lines, crossing segments
highlighted in red. In trace frames the two segments the next flip removes
are drawn dashed. Geometry is scaled to a fixed canvas; the y-axis is
flipped so pictures match the usual mathematical orientation.
"""

from __future__ import annotations

from .generators import Instance
from .matching import FlipTrace, Matching, find_crossings, replay_states

CANVAS = 640
MARGIN = 40


def _transform(ps):
    xs = [p.x for p in ps]
    ys = [p.y for p in ps]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1)
    scale = (CANVAS - 2 * MARGIN) / span

    def to_canvas(p):
        cx = MARGIN + (p.x - lo_x) * scale
        cy = CANVAS - MARGIN - (p.y - lo_y) * scale
        return cx, cy

    return to_canvas


def _svg_document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def matching_svg(
    ps, matching: Matching, dashed: set | frozenset = frozenset(),
    caption: str = "",
) -> str:
    """One frame: the matching on its points, crossing segments in red,
    segments in ``dashed`` drawn dashed."""
    to_canvas = _transform(ps)
    crossing_segs = set()
    for e1, e2 in find_crossings(ps, matching):
        crossing_segs.add(e1)
        crossing_segs.add(e2)
    body = []
    if caption:
        body.append(
            f'<text x="{MARGIN}" y="{MARGIN // 2 + 6}" font-size="14" '
            f'fill="#444">{caption}</text>'
        )
    for s in matching.pairs:
        (x1, y1), (x2, y2) = to_canvas(ps[s[0]]), to_canvas(ps[s[1]])
        color = "#c0392b" if s in crossing_segs else "#222222"
        dash = ' stroke-dasharray="7 5"' if s in dashed else ""
        body.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
    for i, p in enumerate(ps):
        cx, cy = to_canvas(p)
        body.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="#1a1a1a"/>'
        )
        body.append(
            f'<text x="{cx + 7:.1f}" y="{cy - 7:.1f}" font-size="12" '
            f'fill="#555">{i}</text>'
        )
    return _svg_document(body)


def instance_svg(inst: Instance) -> str:
    return matching_svg(
        inst.points, inst.matching, caption=inst.provenance
    )


def trace_states(inst: Instance, records) -> list[Matching]:
    """The matchings a trace visits, starting from the instance matching,
    through ``replay_states``'s checks: a bad step raises ReplayError."""
    return replay_states(inst.points, inst.matching, records)


def _frame_svg(inst: Instance, records, states, frame: int) -> str:
    dashed = set(records[frame].crossing) if frame < len(records) else set()
    caption = f"{inst.provenance}  [step {frame}/{len(records)}]"
    return matching_svg(inst.points, states[frame], dashed, caption)


def trace_frame_svg(inst: Instance, records, frame: int) -> str:
    """Frame k shows the matching after k flips; the segments the next flip
    removes are dashed."""
    if not 0 <= frame <= len(records):
        raise ValueError(
            f"frame {frame} out of range; trace has {len(records) + 1} frames"
        )
    return _frame_svg(inst, records, trace_states(inst, records), frame)


def iter_frames(inst: Instance, records):
    """Every frame of a trace, from one checked replay done before this
    returns, so a bad trace raises ReplayError before the first frame."""
    states = trace_states(inst, records)
    return (_frame_svg(inst, records, states, k) for k in range(len(states)))


def trace_frames(inst: Instance, trace: FlipTrace) -> list[str]:
    """All frames of a trace, from the initial matching to the final one."""
    return list(iter_frames(inst, trace.records))
