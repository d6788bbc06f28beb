#!/usr/bin/env python3
"""Exhaustive extrema over every matching of small point sets.

For each point set, every one of the (2n-1)!! perfect matchings is a start
state; one shared-memo search computes the longest and the shortest run from
each. The table prints, per set, the number of matchings, the largest
longest run g_hat beside the proven cap n^3, and the largest shortest run
k_hat beside n^2/2; then the longest-run witness of the last set.
"""

from crossflip import gen_random
from crossflip.search import extremal_estimates


def main():
    print(f"{'n':>3} {'seed':>5} {'matchings':>10} {'g_hat':>6} {'n^3':>5} "
          f"{'k_hat':>6} {'n^2/2':>6}")
    for n in (2, 3, 4):
        for seed in range(3):
            ps = gen_random(n, seed=seed, bbox=(0, 400)).points
            est = extremal_estimates(ps, cap=4, collect_per_matching=True)
            assert all(h <= f for f, h in est.per_matching.values())
            print(
                f"{n:>3} {seed:>5} {est.matchings_enumerated:>10} "
                f"{est.g_hat:>6} {n**3:>5} {est.k_hat:>6} {(n * n + 1) // 2:>6}"
            )
    print()
    print("the longest-run witness for the last set:")
    for k, rec in enumerate(est.g_witness.records, start=1):
        print(f"  {k}: remove {rec.crossing[0]} x {rec.crossing[1]}, "
              f"add {rec.added[0]}, {rec.added[1]} ({rec.choice.value})")


if __name__ == "__main__":
    main()
