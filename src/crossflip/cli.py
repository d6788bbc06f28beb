"""Command-line surface: gen, run, search, sweep, audit, render.

Exit codes: 0 success, 2 invalid input, 3 strategy not applicable to the
instance, 4 a limit or cap was hit (partial results are still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .generators import (
    GenerationError,
    Instance,
    gen_convex,
    gen_random,
    gen_two_line,
    reverse_perm,
)
from .geometry import CoordinateOverflowError, shear_to_distinct_x
from .io import (
    InstanceFormatError,
    TraceFormatError,
    load_instance,
    read_trace,
    records_from_rows,
    save_instance,
    write_report,
    write_trace,
)
from .matching import FlipChoice, ReplayError, crossing_count, find_crossings
from .potentials import (
    PotentialInvariantError,
    decrement_audit,
    phi_lines,
    phi_lines_bound,
    phi_lines_bound_sharp,
    phi_vertical,
    phi_vertical_bound,
    phi_vertical_bound_gaps,
)
from .render import instance_svg, iter_frames, trace_frame_svg
from .search import (
    EnumerationCapExceeded,
    FlipGraphCycleError,
    SearchLimits,
    SearchLimitsExceeded,
    Strategy,
    StrategyNotApplicableError,
    extremal_estimates,
    longest_flip_sequence,
    parse_strategy,
    run_strategy,
    shortest_flip_sequence,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3
EXIT_LIMITS = 4


class CliError(Exception):
    """Invalid input found by a command; ``main`` prints it and exits 2."""


def _load(path) -> Instance:
    try:
        return load_instance(path)
    except InstanceFormatError as exc:
        raise CliError(f"invalid instance: {exc}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"expected comma-separated integers: {text!r}")


def count(text: str) -> int:
    """The argparse type of a count flag, which exits 2 unless it is >= 0."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _limits(args) -> SearchLimits:
    try:
        return SearchLimits(
            max_states=args.max_states,
            max_depth=args.max_depth,
            time_budget=args.time_budget,
        )
    except ValueError as exc:
        raise CliError(f"invalid search limits: {exc}") from exc


def _add_limit_flags(parser) -> None:
    parser.add_argument("--max-states", type=int, default=10_000_000)
    parser.add_argument("--max-depth", type=int, default=100_000)
    parser.add_argument("--time-budget", type=float, default=60.0)


def cmd_gen(args) -> int:
    try:
        if args.family == "two-line":
            inst = gen_two_line(_parse_ints(args.perm))
        elif args.family == "convex":
            inst = gen_convex(args.n)
        else:
            bbox = _parse_ints(args.bbox)
            if len(bbox) != 2:
                raise CliError("--bbox needs exactly two integers")
            inst = gen_random(args.n, args.seed, (bbox[0], bbox[1]))
    except (GenerationError, ValueError) as exc:
        raise CliError(f"generation failed: {exc}") from exc
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {inst.provenance}, 2n={len(inst.points)}")
    return EXIT_OK


def cmd_run(args) -> int:
    inst = _load(args.instance)
    if args.shear:
        try:
            sheared = shear_to_distinct_x(inst.points)
        except CoordinateOverflowError as exc:
            raise CliError(f"cannot shear: {exc}") from exc
        if sheared is not inst.points:
            inst = Instance(
                sheared, inst.matching, inst.provenance + "+shear", inst.notes
            )
    try:
        strategy = parse_strategy(args.strategy)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    restrict = FlipChoice(args.restrict_choice) if args.restrict_choice else None
    trace = run_strategy(
        inst,
        strategy,
        max_steps=args.max_steps,
        with_phi_lines=args.with_phi_l,
        restrict_choice=restrict,
    )
    out = Path(args.out) if args.out else Path(args.instance).with_suffix(".trace.csv")
    write_trace(inst, trace, out)
    # a run's records count the crossings after each flip
    final_crossings = (trace.records[-1].crossings_after if trace.records
                       else crossing_count(inst.points, trace.final))
    parts = [f"steps={len(trace)}", f"final_crossings={final_crossings}"]
    for phi in ("phi_k", "phi_l"):
        deltas = [getattr(rec, f"{phi}_after") - getattr(rec, f"{phi}_before")
                  for rec in trace.records
                  if getattr(rec, f"{phi}_after") is not None]
        if deltas:
            parts.append(f"d{phi}_min={min(deltas)} "
                         f"d{phi}_mean={sum(deltas) / len(deltas):.2f}")
    parts.append(f"trace={out}")
    print(" ".join(parts))
    if not trace.complete:
        print("step cap hit with crossings remaining", file=sys.stderr)
        return EXIT_LIMITS
    return EXIT_OK


def cmd_search(args) -> int:
    inst = _load(args.instance)
    limits = _limits(args)
    out = Path(args.out) if args.out else Path(args.instance).with_suffix(".report.json")
    report: dict = {
        "instance": str(args.instance),
        "provenance": inst.provenance,
        "limits_hit": False,
        "states_expanded": 0,
        "witness_trace": {},
    }
    code = EXIT_OK
    stats: dict = {}

    def witness(tag: str, trace) -> None:
        path = out.with_suffix(f".{tag}.trace.csv")
        write_trace(inst, trace, path)
        report["witness_trace"][tag] = str(path)

    try:
        # ``which`` names the search under way, for a limit hit's report
        for which, solve in (("f", longest_flip_sequence),
                             ("h", shortest_flip_sequence)):
            if args.which not in (which, "both"):
                continue
            report[which], trace = solve(inst, limits, stats_out=stats)
            report["states_expanded"] += stats["states_expanded"]
            witness(which, trace)
        if args.extremal:
            which = "extremal"
            est = extremal_estimates(
                inst.points, limits, cap=args.enum_cap,
                instance_id=inst.provenance,
            )
            report["g_hat"] = est.g_hat
            report["k_hat"] = est.k_hat
            report["states_expanded"] += est.states_expanded
            witness("g_hat", est.g_witness)
            witness("k_hat", est.k_witness)
    except SearchLimitsExceeded as exc:
        report["limits_hit"] = True
        report["limit_hit_in"] = which
        # the partial count of the call that hit the limit
        report["states_expanded"] += exc.states_expanded
        if exc.best_bound is not None:
            report["best_lower_bound"] = exc.best_bound
        print(f"limits hit: {exc}", file=sys.stderr)
        code = EXIT_LIMITS
    except EnumerationCapExceeded as exc:
        report["limits_hit"] = True
        report["limit_hit_in"] = which
        print(f"enumeration cap: {exc}", file=sys.stderr)
        code = EXIT_LIMITS
    write_report(report, out)
    shown = {k: report[k] for k in ("f", "h", "g_hat", "k_hat") if k in report}
    print(f"report={out} {shown}")
    return code


SWEEP_COLUMNS = [
    "family", "n", "param", "crossings",
    "phi_l", "phi_l_cap", "phi_l_cap_sharp",
    "phi_k", "phi_k_cap_quadratic", "phi_k_cap_gaps",
    "bubble_steps", "f", "h", "g_hat", "k_hat", "error",
]


def _sweep_row(family: str, n: int, param, args, limits) -> dict:
    row: dict = {c: "" for c in SWEEP_COLUMNS}
    row.update({"family": family, "n": n, "param": param})
    if family == "two-line":
        inst = gen_two_line(reverse_perm(n))
    elif family == "convex":
        inst = gen_convex(n)
    else:
        inst = gen_random(n, int(param), (0, 512))
    ps = inst.points
    row["crossings"] = len(find_crossings(ps, inst.matching))
    row["phi_l"] = phi_lines(ps, inst.matching)
    row["phi_l_cap"] = phi_lines_bound(n)
    row["phi_l_cap_sharp"] = phi_lines_bound_sharp(n)
    if ps.has_distinct_x():
        row["phi_k"] = phi_vertical(ps, inst.matching)
        row["phi_k_cap_quadratic"] = phi_vertical_bound(n)
        row["phi_k_cap_gaps"] = phi_vertical_bound_gaps(n)
    if family == "two-line":
        trace = run_strategy(inst, Strategy("bubble"))
        row["bubble_steps"] = len(trace)
    if family == "random" and n <= args.enum_cap:
        est = extremal_estimates(ps, limits, cap=args.enum_cap)
        row["g_hat"] = est.g_hat
        row["k_hat"] = est.k_hat
    if n <= args.exact_cap:
        row["f"] = longest_flip_sequence(inst, limits)[0]
        row["h"] = shortest_flip_sequence(inst, limits)[0]
    return row


def cmd_sweep(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    limits = _limits(args)
    seeds = _parse_ints(args.seeds) if args.family == "random" else [None]
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for seed in seeds:
            param = seed if seed is not None else (
                f"reverse({n})" if args.family == "two-line" else ""
            )
            try:
                rows.append(_sweep_row(args.family, n, param, args, limits))
            except (PotentialInvariantError, FlipGraphCycleError):
                raise  # corrupted state, never a per-instance result
            except Exception as exc:  # per-instance failures stay in-row
                row = {c: "" for c in SWEEP_COLUMNS}
                row.update(
                    {"family": args.family, "n": n, "param": param,
                     "error": f"{type(exc).__name__}: {exc}"}
                )
                rows.append(row)
    out = out_dir / "sweep.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_audit(args) -> int:
    inst = _load(args.instance)
    crossings = find_crossings(inst.points, inst.matching)
    if not crossings:
        raise CliError("instance matching has no crossings to audit")
    if args.crossing is not None:
        if not 0 <= args.crossing < len(crossings):
            raise CliError(
                f"--crossing {args.crossing} out of range 0..{len(crossings) - 1}",
            )
        crossings = [crossings[args.crossing]]
    choices = (
        [FlipChoice(args.choice)] if args.choice else list(FlipChoice)
    )
    audits = [
        decrement_audit(
            inst.points, inst.matching, crossing, choice, detail=args.detail
        ).to_json_dict()
        for crossing in crossings
        for choice in choices
    ]
    doc = {"instance": str(args.instance), "provenance": inst.provenance,
           "audits": audits}
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out} ({len(audits)} audits)")
    else:
        print(text)
    return EXIT_OK


def cmd_render(args) -> int:
    inst = _load(args.instance)
    if not args.trace:
        out = Path(args.out) if args.out else Path(args.instance).with_suffix(".svg")
        out.write_text(instance_svg(inst))
        print(f"wrote {out}")
        return EXIT_OK
    try:
        records = records_from_rows(read_trace(args.trace))
        if args.frame is not None:
            svg = trace_frame_svg(inst, records, args.frame)
        else:
            frames = iter_frames(inst, records)
    except (TraceFormatError, ReplayError) as exc:
        raise CliError(f"invalid trace: {exc}") from exc
    except ValueError as exc:  # the frame number is out of range
        raise CliError(str(exc)) from exc
    if args.frame is not None:
        out = Path(args.out) if args.out else Path(args.trace).with_suffix(
            f".frame{args.frame}.svg"
        )
        out.write_text(svg)
        print(f"wrote {out}")
        return EXIT_OK
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, svg in enumerate(frames):
        (out_dir / f"frame_{k:03d}.svg").write_text(svg)
    print(f"wrote {len(records) + 1} frames to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossflip",
        description="Run, audit and search the crossing-removal flip process "
        "on straight-line perfect matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_two = gen_sub.add_parser("two-line", help="two rows matched by a permutation")
    g_two.add_argument("--perm", required=True,
                       help="comma-separated images, e.g. 2,1,0")
    g_conv = gen_sub.add_parser("convex", help="convex position, nested matching")
    g_conv.add_argument("--n", type=int, required=True)
    g_rand = gen_sub.add_parser("random", help="seeded random instance")
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("--bbox", default="0,512", help="lo,hi for both axes")
    for p in (g_two, g_conv, g_rand):
        p.add_argument("--out", "-o", required=True)
        p.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run a flip strategy, write a trace")
    p_run.add_argument("instance")
    p_run.add_argument("--strategy", required=True,
                       help="greedy-x | bubble | first | random[:seed] | "
                            "adversary:{random,first,max-damage}[:seed]")
    p_run.add_argument("--max-steps", type=count, default=None)
    p_run.add_argument("--with-phi-l", action="store_true",
                       help="also track the line potential per step")
    p_run.add_argument("--shear", action="store_true",
                       help="shear to distinct x before running")
    p_run.add_argument("--restrict-choice", choices=["A", "B"], default=None,
                       help="fix the reconnection choice (random/first only)")
    p_run.add_argument("--out", "-o", default=None)
    p_run.set_defaults(func=cmd_run)

    p_search = sub.add_parser("search", help="exact longest/shortest flip runs")
    p_search.add_argument("instance")
    p_search.add_argument("--which", choices=["f", "h", "both"], default="both")
    p_search.add_argument("--extremal", action="store_true",
                          help="also maximize over every matching of the point set")
    p_search.add_argument("--enum-cap", type=count, default=5)
    p_search.add_argument("--out", "-o", default=None)
    _add_limit_flags(p_search)
    p_search.set_defaults(func=cmd_search)

    p_sweep = sub.add_parser("sweep", help="aggregate table over a family")
    p_sweep.add_argument("--family", choices=["two-line", "convex", "random"],
                         required=True)
    p_sweep.add_argument("--n-min", type=int, default=2)
    p_sweep.add_argument("--n-max", type=int, default=6)
    p_sweep.add_argument("--seeds", default="0,1,2",
                         help="comma-separated seeds (random family)")
    p_sweep.add_argument("--exact-cap", type=count, default=5,
                         help="largest n for exact longest/shortest search")
    p_sweep.add_argument("--enum-cap", type=count, default=4,
                         help="largest n for whole-enumeration maxima")
    p_sweep.add_argument("--out-dir", default="sweep-out")
    _add_limit_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="dry-run potential accounting of flips")
    p_audit.add_argument("instance")
    p_audit.add_argument("--crossing", type=int, default=None,
                         help="index into the canonical crossing list")
    p_audit.add_argument("--choice", choices=["A", "B"], default=None)
    p_audit.add_argument("--detail", action="store_true",
                         help="include per-line deltas")
    p_audit.add_argument("--out", "-o", default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_render = sub.add_parser("render", help="SVG pictures of instances and traces")
    p_render.add_argument("instance")
    p_render.add_argument("--trace", default=None)
    p_render.add_argument("--frame", type=int, default=None)
    p_render.add_argument("--out", "-o", default=None)
    p_render.add_argument("--out-dir", default="frames")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InstanceFormatError, TraceFormatError, GenerationError,
            CoordinateOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StrategyNotApplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE


if __name__ == "__main__":
    sys.exit(main())
