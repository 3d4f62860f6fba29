"""Point-mass study: full training vs the no-repulsion and no-pessimism arms.

For each seed this generates a mediocre-behavior dataset, trains the three
arms of rvf.study on it in worker processes, and reports evaluation returns
plus the in-dist/OOD uncertainty ratio for each.  Writes a JSON summary.

Usage: python scripts/run_pointmass_study.py [--seeds 0 1 2] [--steps 50000]
                                             [--out study.json]
"""

import argparse
import json

from rvf.study import ARMS, STUDY_CONFIG, run_arms


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--steps", type=int, default=STUDY_CONFIG["gradient_steps"])
    parser.add_argument("--out", default="pointmass_study.json")
    args = parser.parse_args()
    results = run_arms([(seed, arm) for seed in args.seeds for arm in ARMS],
                       args.steps)
    summary = {}
    for (seed, arm), result in results.items():
        entry = summary.setdefault(str(seed), {})
        entry["behavior_return"] = result.pop("behavior_return")
        entry[arm] = result
        print(f"seed {seed} {arm}: return {result['eval_return']:.2f} "
              f"ratio {result['ratio'] if result['ratio'] else 'null'} "
              f"({result['seconds']}s)")
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
