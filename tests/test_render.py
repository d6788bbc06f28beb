import dataclasses
import xml.etree.ElementTree as ET

import pytest

from crossflip import find_crossings
from crossflip.matching import replay_states
from crossflip.render import instance_svg, iter_frames, trace_frame_svg
from crossflip.scenarios import reappearing_segment_instance, reappearing_segment_trace

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg_text):
    root = ET.fromstring(svg_text)
    return {
        "circles": root.findall(f"{SVG_NS}circle"),
        "lines": root.findall(f"{SVG_NS}line"),
        "texts": root.findall(f"{SVG_NS}text"),
    }


def test_instance_svg_structure():
    inst = reappearing_segment_instance()
    parts = _parse(instance_svg(inst))
    assert len(parts["circles"]) == 6
    assert len(parts["lines"]) == 3
    # one label per point plus the caption
    assert len(parts["texts"]) == 7


def test_crossing_segments_highlighted():
    inst = reappearing_segment_instance()
    crossing_segs = {
        s for pair in find_crossings(inst.points, inst.matching) for s in pair
    }
    parts = _parse(instance_svg(inst))
    red = [l for l in parts["lines"] if l.get("stroke") == "#c0392b"]
    assert len(red) == len(crossing_segs)


def test_trace_frames_count_and_dashing():
    inst = reappearing_segment_instance()
    trace = reappearing_segment_trace()
    frames = list(iter_frames(inst, trace.records))
    assert len(frames) == 4
    for k, svg in enumerate(frames):
        lines = _parse(svg)["lines"]
        assert len(lines) == 3  # one line per matching segment, every frame
        dashed = [l for l in lines if l.get("stroke-dasharray")]
        assert len(dashed) == (2 if k < 3 else 0)


def test_trace_frame_segments_follow_the_states():
    # each frame draws exactly the segments of the matching after k flips
    from crossflip.render import _transform

    inst = reappearing_segment_instance()
    trace = reappearing_segment_trace()
    to_canvas = _transform(inst.points)
    for k, state in enumerate(
        replay_states(inst.points, inst.matching, trace.records)
    ):
        want = {
            tuple(
                f"{v:.1f}"
                for v in (*to_canvas(inst.points[a]), *to_canvas(inst.points[b]))
            )
            for a, b in state.pairs
        }
        got = {
            (l.get("x1"), l.get("y1"), l.get("x2"), l.get("y2"))
            for l in _parse(trace_frame_svg(inst, trace.records, k))["lines"]
        }
        assert got == want


def test_caption_markup_is_escaped():
    # the caption is the instance's provenance, a free string from JSON
    provenance = "mine <v2> & co"
    inst = dataclasses.replace(reappearing_segment_instance(), provenance=provenance)
    trace = reappearing_segment_trace()
    for svg in (instance_svg(inst), trace_frame_svg(inst, trace.records, 1)):
        caption = _parse(svg)["texts"][0].text
        assert caption.startswith(provenance)


def test_single_segment_render():
    from crossflip import Instance, Matching, PointSet

    inst = Instance(
        PointSet.from_coords([(0, 0), (5, 2)]),
        Matching.from_pairs([(0, 1)]),
        "pair",
    )
    parts = _parse(instance_svg(inst))
    assert len(parts["circles"]) == 2 and len(parts["lines"]) == 1


def test_frame_out_of_range():
    inst = reappearing_segment_instance()
    trace = reappearing_segment_trace()
    with pytest.raises(ValueError, match="frame"):
        trace_frame_svg(inst, trace.records, 9)
