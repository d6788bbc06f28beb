import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflip import (
    Instance,
    Strategy,
    gen_convex,
    gen_random,
    gen_two_line,
    parse_strategy,
    replay,
    reverse_perm,
    run_strategy,
    shear_to_distinct_x,
)
from crossflip.cli import main
from crossflip.io import (
    TRACE_COLUMNS,
    InstanceFormatError,
    TraceFormatError,
    instance_from_json_dict,
    instance_to_json_dict,
    load_instance,
    read_trace,
    records_from_rows,
    save_instance,
    write_report,
    write_trace,
)
from crossflip.scenarios import reappearing_segment_instance, reappearing_segment_trace

from oracles import reference_read_trace, reference_write_trace


@pytest.mark.parametrize(
    "inst",
    [
        gen_two_line(reverse_perm(3)),
        gen_convex(4),
        gen_random(3, seed=7, bbox=(0, 100)),
        reappearing_segment_instance(),
    ],
    ids=["two-line", "convex", "random", "scripted"],
)
def test_instance_round_trip(tmp_path, inst):
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded == inst
    # byte-stable: saving what was loaded reproduces the file exactly
    again = tmp_path / "again.json"
    save_instance(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def _write(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_rejects_bad_documents(tmp_path):
    good = {
        "points": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "matching": [[0, 2], [1, 3]],
        "provenance": "square",
        "notes": "",
    }
    for mutate, pattern in [
        (lambda d: d.pop("points"), "missing"),
        (lambda d: d.update(matching=[[0, 9], [1, 2]]), "range"),
        (lambda d: d.update(matching=[[0, 1], [1, 2]]), "perfect"),
        (lambda d: d.update(points=[[0, 0], [1, 1], [2, 2], [0, 2]]), "collinear"),
        (lambda d: d.update(points="nope"), "points"),
        (lambda d: d.update(points=[[0, 0], [1, 1]], matching=[]),
         "matching of size 0 does not cover 2 points"),
    ]:
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(InstanceFormatError, match=pattern):
            load_instance(_write(tmp_path, doc))


SQUARE_DOC = {
    "points": [[0, 0], [2, 0], [2, 2], [0, 2]],
    "matching": [[0, 2], [1, 3]],
}


@pytest.mark.parametrize("points", [
    [[0.7, 0], [2, 0], [2, 2], [0, 2]],
    [[0, 0], [2.0, 0], [2, 2], [0, 2]],
    [[True, 9], [2, 0], [2, 2], [0, 2]],
    [[0, 0], [2, 0], [2, 2], [0, False]],
    [["0", 0], [2, 0], [2, 2], [0, 2]],
    [[0, 0], [2, 0], [2, None], [0, 2]],
])
def test_load_rejects_non_integer_coordinates(points):
    with pytest.raises(InstanceFormatError, match="integers"):
        instance_from_json_dict(dict(SQUARE_DOC, points=points))


@pytest.mark.parametrize("matching", [
    [["0", 2], [1, 3]],
    [[0, 2.0], [1, 3]],
    [[0, 2], [True, 3]],
    [[0, 2], [1, None]],
])
def test_load_rejects_non_integer_indices(matching):
    with pytest.raises(InstanceFormatError, match="integers"):
        instance_from_json_dict(dict(SQUARE_DOC, matching=matching))


@pytest.mark.parametrize("key", ["provenance", "notes"])
@pytest.mark.parametrize("value", [None, 5, ["x"], {"a": "b"}, True, 1.5])
def test_load_rejects_non_string_metadata(tmp_path, key, value):
    """A present provenance or note that is not a JSON string is refused,
    by the loader and by the CLI with exit 2, never coerced by ``str``."""
    doc = dict(SQUARE_DOC, **{key: value})
    with pytest.raises(InstanceFormatError, match=f"'{key}' must be a string"):
        instance_from_json_dict(doc)
    assert main(["run", str(_write(tmp_path, doc)), "--strategy", "first"]) == 2


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 8) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)
pair_lists = st.lists(
    st.lists(st.integers(-3, 12) | json_values, min_size=1, max_size=3),
    max_size=8,
)
instance_docs = (
    json_values
    | st.fixed_dictionaries(
        {"points": pair_lists, "matching": pair_lists},
        optional={"provenance": json_values, "notes": json_values},
    )
)


@settings(max_examples=200, deadline=None)
@given(instance_docs)
def test_instance_loader_fuzz_raises_only_format_errors(doc):
    try:
        inst = instance_from_json_dict(doc)
    except InstanceFormatError:
        return
    assert instance_from_json_dict(instance_to_json_dict(inst)) == inst


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(InstanceFormatError):
        load_instance(path)
    with pytest.raises(InstanceFormatError):
        load_instance(tmp_path / "missing.json")


def test_trace_round_trip_and_replay(tmp_path):
    inst = gen_random(4, seed=2, bbox=(0, 200))
    trace = run_strategy(inst, Strategy("random", seed=8))
    path = tmp_path / "run.trace.csv"
    write_trace(inst, trace, path)
    rows = read_trace(path)
    assert rows[0].step == 0
    assert rows[0].removed is None and rows[0].choice is None
    assert len(rows) == len(trace) + 1
    records = records_from_rows(rows)
    assert [r.crossing for r in records] == [r.crossing for r in trace.records]
    assert replay(inst.points, inst.matching, records) == trace.final
    # instrumented columns chain across rows
    for row, rec in zip(rows[1:], trace.records):
        assert row.phi_k_after == rec.phi_k_after
        assert row.crossings_after == rec.crossings_after


def test_trace_row0_metrics(tmp_path):
    inst = reappearing_segment_instance()
    trace = reappearing_segment_trace()
    path = tmp_path / "fig.trace.csv"
    write_trace(inst, trace, path)
    rows = read_trace(path)
    assert rows[0].crossings_after == 3
    assert rows[-1].crossings_after == 0
    # scripted trace is uninstrumented: potential columns stay empty
    assert all(r.phi_l_after is None and r.phi_k_after is None for r in rows)


def test_read_trace_rejects_wrong_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_read_trace_rejects_short_long_and_misnumbered_rows(tmp_path):
    header = ",".join(TRACE_COLUMNS) + "\n"
    row0 = "0,,,,,,3,10.0,,\n"
    path = tmp_path / "bad.csv"
    for body in ("1,0-1\n", row0 + "1,0-1\n", row0 + row0.strip() + ",x\n",
                 row0 + row0, row0 + "2,0-2,1-3,0-1,2-3,A,0,5.0,,\n", "\0\n",
                 "0,1-2,3-4,0-5,1-3,A,0,5.0,,\n"):
        path.write_text(header + body)
        with pytest.raises(TraceFormatError):
            read_trace(path)


trace_fields = st.sampled_from(
    ["", "0", "1", "2", "-1", "0-1", "2-3", "1-1", "0-2-3", "A", "B", "C",
     "1.5", "nan", "x", '"', "\0"]
) | st.text(max_size=4)
trace_texts = st.text(max_size=80) | st.builds(
    lambda rows: ",".join(TRACE_COLUMNS) + "\n"
    + "".join(",".join(row) + "\n" for row in rows),
    st.lists(st.lists(trace_fields, max_size=12), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(trace_texts)
def test_trace_loader_fuzz_raises_only_format_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.trace.csv"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        rows = read_trace(path)
    except TraceFormatError:
        return
    assert [row.step for row in rows] == list(range(len(rows)))
    records = records_from_rows(rows)
    assert all(rec.crossing is not None for rec in records)


NEVER_WRITTEN = [
    ("length_after", "nan"), ("length_after", "inf"), ("length_after", "-inf"),
    ("length_after", "1e999"), ("length_after", " 5.0"), ("length_after", "5"),
    ("length_after", "-1.0"), ("length_after", "5.00"),
    ("crossings_after", "1_0"), ("crossings_after", " 3"), ("crossings_after", "-1"),
    ("crossings_after", "+3"), ("crossings_after", "03"), ("crossings_after", "-0"),
    ("phi_k_after", "1_0"), ("phi_k_after", " 3"), ("phi_k_after", "-2"),
    ("phi_l_after", "\u0663"),  # an Arabic-Indic digit, which int() reads
]
NEVER_WRITTEN_SEGMENTS = [("removed_1", "0-1_0"), ("removed_1", " 0-1"),
                          ("added_2", "0-+1")]


@pytest.mark.parametrize("column, text, step", [
    *((column, text, 1) for column, text in NEVER_WRITTEN + NEVER_WRITTEN_SEGMENTS),
    *((column, text, 0) for column, text in NEVER_WRITTEN),
])
def test_read_trace_rejects_fields_write_trace_never_writes(tmp_path, column,
                                                            text, step):
    """A field parses only in the form ``write_trace`` writes it: a length
    that is not finite, nonnegative and repr's own form, or a count or
    index with a sign, space, underscore, leading zero or non-ASCII digit,
    is refused, by ``read_trace`` and by the CLI with exit 2."""
    inst = gen_random(4, seed=2, bbox=(0, 200))
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    path = tmp_path / "run.trace.csv"
    write_trace(inst, run_strategy(inst, Strategy("random", seed=2),
                                   with_phi_lines=True), path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1 + step].rstrip("\n").split(",")
    fields[TRACE_COLUMNS.index(column)] = text
    lines[1 + step] = ",".join(fields) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(TraceFormatError, match="as (str|repr) writes it"):
        read_trace(path)
    assert main(["render", str(inst_path), "--trace", str(path), "--frame", "0",
                 "-o", str(tmp_path / "f.svg")]) == 2


@pytest.mark.parametrize("column", ["removed_1", "removed_2", "added_1", "added_2"])
def test_read_trace_refuses_a_segment_written_high_end_first(tmp_path, column):
    """``write_trace`` writes a segment low end first. One written high end
    first, or with both ends equal, is refused by ``read_trace`` and by the
    CLI with exit 2, not read back as its reordered self, which would
    replay."""
    raw = gen_random(6, seed=3, bbox=(0, 200))
    inst = Instance(shear_to_distinct_x(raw.points), raw.matching, raw.provenance)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    path = tmp_path / "run.trace.csv"
    write_trace(inst, run_strategy(inst, Strategy("greedy-x")), path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[2].rstrip("\n").split(",")
    a, b = fields[TRACE_COLUMNS.index(column)].split("-")
    for text in (f"{b}-{a}", f"{a}-{a}"):
        fields[TRACE_COLUMNS.index(column)] = text
        lines[2] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(TraceFormatError,
                           match=f"'{text}' is not a-b with a < b, as write_trace"):
            read_trace(path)
        assert main(["render", str(inst_path), "--trace", str(path), "--frame", "0",
                     "-o", str(tmp_path / "f.svg")]) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6), st.sampled_from(
    ["random", "first", "greedy-x", "adversary:max-damage", "none"]),
    st.booleans(), st.sampled_from([None, 0, 1, 3]))
def test_write_trace_bytes_match_dict_writer(tmp_path_factory, n, seed, spec,
                                             phi_l, cap):
    """The tuple-row writer writes the bytes of the ``DictWriter`` writer:
    empty, capped and complete runs, with and without phi_L, and a
    scripted trace whose records carry no counts."""
    if spec == "none":
        inst, trace = reappearing_segment_instance(), reappearing_segment_trace()
    else:
        raw = gen_random(n, seed=seed, bbox=(-300, 300))
        inst = Instance(shear_to_distinct_x(raw.points), raw.matching, raw.provenance)
        strategy = parse_strategy(f"random:{seed}" if spec == "random" else spec)
        trace = run_strategy(inst, strategy, max_steps=cap, with_phi_lines=phi_l)
    base = tmp_path_factory.getbasetemp()
    write_trace(inst, trace, base / "tuple.csv")
    reference_write_trace(inst, trace, base / "dict.csv")
    assert (base / "tuple.csv").read_bytes() == (base / "dict.csv").read_bytes()


def _blank_lines_inserted(text, where):
    lines = text.splitlines(keepends=True)
    for k in sorted(where, reverse=True):
        lines.insert(k % (len(lines) + 1), "\n")
    return "".join(lines)


@settings(max_examples=300, deadline=None)
@given(trace_texts | st.builds(
    _blank_lines_inserted,
    st.sampled_from([
        ",".join(TRACE_COLUMNS) + "\n0,,,,,,1,40.0,,7\n"
        "1,0-2,1-3,0-1,2-3,A,0,30.5,,5\n",
        ",".join(TRACE_COLUMNS) + "\n0,,,,,,1,40.0,,\n1,0-2,1-3,0-1,2-3,B,,3e-05,,\n"
        "2,0-1,2-3,0-2,1-3,C,0,1.0,,\n",
    ]),
    st.lists(st.integers(0, 8), max_size=4)))
def test_read_trace_matches_dict_reader(tmp_path_factory, text):
    """The ``csv.reader`` loop returns the rows, or raises the error with the
    message, of the ``DictReader`` loop: blank lines anywhere, short, long
    and misnumbered rows, bad headers and bad fields."""
    path = tmp_path_factory.getbasetemp() / "diff.trace.csv"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        want = reference_read_trace(path)
    except TraceFormatError as expected:
        with pytest.raises(TraceFormatError) as got:
            read_trace(path)
        assert str(got.value) == str(expected)
        return
    assert read_trace(path) == want


def test_read_trace_skips_blank_lines(tmp_path):
    """Blank lines anywhere are skipped, and an error names the line of the
    row itself, not of a blank line before it."""
    inst = gen_random(6, seed=2, bbox=(0, 200))  # a run of three flips
    path = tmp_path / "run.trace.csv"
    write_trace(inst, run_strategy(inst, Strategy("random", seed=2)), path)
    lines = path.read_text().splitlines(keepends=True)
    rows = read_trace(path)
    path.write_text("".join(lines[:2] + ["\n", "\n"] + lines[2:] + ["\n"]))
    assert read_trace(path) == rows
    path.write_text("".join(lines[:2] + ["\n", "\n"] + lines[3:]))
    with pytest.raises(TraceFormatError, match="^line 5 is not step 1 "):
        read_trace(path)


def test_write_report(tmp_path):
    path = tmp_path / "report.json"
    write_report({"f": 3, "limits_hit": False}, path)
    assert json.loads(path.read_text()) == {"f": 3, "limits_hit": False}
