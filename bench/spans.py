"""Span tracing of crossflip's public functions, installed from outside.

Each wrapped function is rebound in every ``crossflip`` module whose globals
hold it, so calls are caught where the caller looks the name up (for
example ``crossflip.search.find_crossings``), not only at the defining
module. Spans are kept in flat arrays in memory and written out once, when
the benchmark ends; self times and call counts are derived from them.

``orient`` and ``segments_properly_cross`` are counted, not timed: they run
millions of times per pass, and timing each call would bury the self time of
the layers that call them.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: (layer, name, how) for every wrapped public name. ``how`` is "span" for a
#: timed call, "count" for a counted-only call. A name that is a class is
#: timed around its constructor.
WRAPPED = (
    ("geometry", "orient", "count"),
    ("geometry", "segments_properly_cross", "count"),
    ("geometry", "validate_general_position", "span"),
    ("geometry", "shear_to_distinct_x", "span"),
    ("matching", "find_crossings", "span"),
    ("matching", "is_noncrossing", "span"),
    ("matching", "apply_flip", "span"),
    ("matching", "flip", "span"),
    ("matching", "crossings_after_flip", "span"),
    ("matching", "total_length", "span"),
    ("matching", "replay", "span"),
    ("potentials", "decrement_audit", "span"),
    ("potentials", "phi_lines", "span"),
    ("potentials", "phi_vertical", "span"),
    ("generators", "gen_random", "span"),
    ("generators", "Instance", "span"),
    ("generators", "gen_two_line", "span"),
    ("generators", "gen_convex", "span"),
    ("search", "longest_flip_sequence", "span"),
    ("search", "shortest_flip_sequence", "span"),
    ("search", "extremal_estimates", "span"),
    ("search", "successors", "span"),
    ("search", "run_strategy", "span"),
    ("io", "write_trace", "span"),
    ("io", "read_trace", "span"),
)


class Tracer:
    """Installs wrappers, records spans, and removes the wrappers again.

    A span is (name id, parent span id, start, end); its span id is its
    index. Parent -1 marks a span opened outside any other span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span opened by the benchmark itself."""
        return self._span_wrapper(name, fn)(*args)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in WRAPPED wherever a crossflip module binds it."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "crossflip" or key.startswith("crossflip."))
        ]
        for layer, name, how in WRAPPED:
            full = f"{layer}.{name}"
            home = sys.modules.get(f"crossflip.{layer}")
            original = getattr(home, name, None) if home is not None else None
            if original is None:
                self.missing.append(full)
                continue
            if isinstance(original, type):
                init = original.__init__
                wrapped = self._span_wrapper(full, init)
                self._undo.append((original, "__init__", init))
                setattr(original, "__init__", wrapped)
                continue
            make = self._span_wrapper if how == "span" else self._count_wrapper
            wrapped = make(full, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- deriving ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name call count and self time (span time minus child spans)."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "s": 0.0} for name in self.names}
        out.update({name: {"calls": c} for name, c in self.counts.items()})
        names = self.names
        for i in range(n):
            rec = out[names[self.span_name[i]]]
            rec["calls"] += 1
            rec["s"] += ends[i] - starts[i] - child[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as four raw arrays in native byte order (name id int32,
        parent int32, start float64, end float64) behind a one-line JSON
        header."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "layout": ["name:i4", "parent:i4", "start:f8", "end:f8"],
            "byteorder": sys.byteorder,
            "counts": self.counts,
            "missing": self.missing,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in (self.span_name, self.span_parent, self.span_start, self.span_end):
                a.tofile(fh)
