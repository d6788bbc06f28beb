"""File formats: JSON instances, CSV flip traces, JSON reports.

Instances are human-diffable JSON validated on load (index ranges, perfect
matching, general position). Traces are flat CSV, one row per flip plus a
pseudo-row 0 describing the initial matching, so a trace plus its instance
file replays to the recorded final state.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .generators import Instance
from .geometry import PointSet
from .matching import (
    FlipChoice,
    FlipRecord,
    FlipTrace,
    Matching,
    _record,
    crossing_count,
    total_length,
)

TRACE_COLUMNS = [
    "step",
    "removed_1",
    "removed_2",
    "added_1",
    "added_2",
    "choice",
    "crossings_after",
    "length_after",
    "phi_l_after",
    "phi_k_after",
]


class InstanceFormatError(ValueError):
    pass


class TraceFormatError(ValueError):
    pass


def instance_to_json_dict(inst: Instance) -> dict:
    return {
        "points": [[p.x, p.y] for p in inst.points],
        "matching": [[a, b] for a, b in inst.matching.pairs],
        "provenance": inst.provenance,
        "notes": inst.notes,
    }


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_json_dict(inst), indent=2) + "\n"
    )


def _int_pairs(value) -> bool:
    """A list of [i, j] lists of JSON integers; a bool is no integer here."""
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(c) is int for c in p)
        for p in value
    )


def instance_from_json_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for key in ("points", "matching"):
        if key not in doc:
            raise InstanceFormatError(f"missing key {key!r}")
    points = doc["points"]
    if not _int_pairs(points):
        raise InstanceFormatError("'points' must be [x, y] pairs of integers")
    try:
        ps = PointSet.from_coords(points)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    pairs = doc["matching"]
    if not _int_pairs(pairs):
        raise InstanceFormatError("'matching' must be [i, j] pairs of integers")
    for a, b in pairs:
        if not (0 <= a < len(ps) and 0 <= b < len(ps)):
            raise InstanceFormatError(f"matching pair [{a}, {b}] out of range")
    meta = {key: doc.get(key, "") for key in ("provenance", "notes")}
    for key, value in meta.items():
        if not isinstance(value, str):
            raise InstanceFormatError(f"{key!r} must be a string, not {value!r}")
    try:
        return Instance(ps, Matching.from_pairs(pairs), **meta)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def load_instance(path) -> Instance:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    return instance_from_json_dict(doc)


#: A flip row as ``csv`` writes it: a segment (a, b) is "a-b", the other
#: fields as ``str`` writes them, None first as "None"
_FLIP_ROW = "%d,%d-%d,%d-%d,%d-%d,%d-%d,%s,%s,%s,%s,%s\r\n"


def write_trace(inst: Instance, trace: FlipTrace, path) -> None:
    """CSV with one pseudo-row for the initial matching and one row per flip.

    The header and row 0 go through ``csv``, which writes None as an empty
    field and an int or a float by ``str``. Each flip row is one
    ``_FLIP_ROW`` format, and every "None" in them is then blanked at once:
    no other field, an int, a float, a segment or a choice, spells it. Row
    0's crossing count is the one ``crossing_count`` remembers on the
    initial matching, so a run from it already found it."""
    ps = inst.points
    phi_l = phi_k = None
    if trace.records:
        phi_l, phi_k = trace.records[0].phi_l_before, trace.records[0].phi_k_before
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerow((0, "", "", "", "", "", crossing_count(ps, trace.initial),
                         total_length(ps, trace.initial), phi_l, phi_k))
        fh.write("".join(
            _FLIP_ROW % (i, *rec.crossing[0], *rec.crossing[1], *rec.added[0],
                         *rec.added[1], rec.choice.value, rec.crossings_after,
                         rec.length_after, rec.phi_l_after, rec.phi_k_after)
            for i, rec in enumerate(trace.records, start=1)).replace("None", ""))


@dataclass(frozen=True)
class TraceRow:
    step: int
    removed: tuple | None
    added: tuple | None
    choice: FlipChoice | None
    crossings_after: int | None
    length_after: float
    phi_l_after: int | None
    phi_k_after: int | None


def _int(text: str) -> int:
    """A nonnegative int written as ``str`` writes it: no sign, space,
    underscore or leading zero."""
    value = int(text)
    if value < 0 or str(value) != text:
        raise ValueError(f"{text!r} is not a nonnegative integer as str writes it")
    return value


def _opt_int(text: str) -> int | None:
    return _int(text) if text else None


def _length(text: str) -> float:
    """A finite nonnegative float written as ``repr`` writes it."""
    value = float(text)
    if not 0 <= value < math.inf or repr(value) != text:
        raise ValueError(f"{text!r} is not a finite length as repr writes it")
    return value


#: A segment as ``write_trace`` writes it: two nonnegative ints as ``str``
#: writes them, in ASCII digits, joined by "-".
_SEGMENT = re.compile(r"(0|[1-9][0-9]*)-(0|[1-9][0-9]*)")

#: The choice column's two values.
_CHOICES = {choice.value: choice for choice in FlipChoice}


def _parse_seg(text: str):
    """A segment ``a-b``, a < b, as ``write_trace`` writes it: a segment
    written high end first is refused, not silently reordered."""
    match = _SEGMENT.fullmatch(text)
    if match is None:
        raise ValueError(f"{text!r} is not a-b of two nonnegative integers, "
                         "each as str writes it")
    a, b = int(match[1]), int(match[2])
    if not a < b:
        raise ValueError(f"{text!r} is not a-b with a < b, as write_trace writes it")
    return a, b


def read_trace(path) -> list[TraceRow]:
    """Parse a trace CSV; every malformed file raises TraceFormatError.

    Blank lines are skipped. A field parses only in the form ``write_trace``
    writes it, so nothing is coerced: counts and indices are nonnegative
    ints as ``str`` writes them, a segment is ``a-b`` with a < b, and a
    length is a finite float as ``repr`` writes it."""
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != TRACE_COLUMNS:
                raise TraceFormatError(f"unexpected columns {header}")
            for raw in reader:
                if not raw:
                    continue
                step = len(rows)
                if len(raw) != len(TRACE_COLUMNS) or raw[0] != str(step):
                    raise TraceFormatError(
                        f"line {reader.line_num} is not step {step} with "
                        f"{len(TRACE_COLUMNS)} fields"
                    )
                if step == 0:
                    if any(raw[1:6]):
                        raise TraceFormatError(
                            f"line {reader.line_num}: pseudo-step 0 records no flip")
                    removed = added = choice = None
                else:
                    r1, r2, a1, a2 = map(_parse_seg, raw[1:5])
                    removed, added = (r1, r2), (a1, a2)
                    choice = _CHOICES.get(raw[5])
                    if choice is None:
                        raise ValueError(f"{raw[5]!r} is not a valid FlipChoice")
                rows.append(TraceRow(step, removed, added, choice, _opt_int(raw[6]),
                                     _length(raw[7]), _opt_int(raw[8]),
                                     _opt_int(raw[9])))
    except TraceFormatError:
        raise
    except (OSError, ValueError, csv.Error) as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise TraceFormatError("trace must start with pseudo-step 0")
    return rows


def records_from_rows(rows: list[TraceRow]) -> list[FlipRecord]:
    """Rebuild flip records from trace rows; lengths and potentials chain
    from the preceding row."""
    records = []
    prev = rows[0]
    for row in rows[1:]:
        records.append(_record(
            FlipRecord, row.removed, row.choice, row.added, prev.length_after,
            row.length_after, row.crossings_after, prev.phi_l_after,
            row.phi_l_after, prev.phi_k_after, row.phi_k_after))
        prev = row
    return records


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
