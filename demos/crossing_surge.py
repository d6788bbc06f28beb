#!/usr/bin/env python3
"""Show that one flip can triple the crossing count.

The pinned 10-point instance has exactly one crossing; flipping it with
choice A leaves three crossings. Crossing count is therefore useless as a
termination measure, which is what the potential functions are for.
"""

from pathlib import Path

from crossflip import apply_flip, decrement_audit, find_crossings, phi_lines
from crossflip.render import matching_svg
from crossflip.scenarios import crossing_surge_instance, crossing_surge_move


def main():
    inst = crossing_surge_instance()
    ps = inst.points
    crossing, choice = crossing_surge_move()

    before = find_crossings(ps, inst.matching)
    print(f"before: {len(before)} crossing(s): {before}")
    m2 = apply_flip(ps, inst.matching, crossing, choice)
    after = find_crossings(ps, m2)
    print(f"after flipping {crossing} with choice {choice.value}: "
          f"{len(after)} crossings")
    for pair in after:
        print(f"  {pair}")

    print()
    print("the line potential still certifies progress:")
    audit = decrement_audit(ps, inst.matching, crossing, choice)
    print(f"  phi_lines {audit.phi_l_before} -> {audit.phi_l_after} "
          f"(delta {audit.delta_phi_l})")
    assert audit.phi_l_after == phi_lines(ps, m2)

    out = Path("demo-output")
    out.mkdir(exist_ok=True)
    for name, matching in (("surge_before", inst.matching), ("surge_after", m2)):
        path = out / f"{name}.svg"
        path.write_text(matching_svg(ps, matching, caption=name))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
