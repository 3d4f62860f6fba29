"""Linear-MDP confidence study: penalty coverage and the value-gap bound.

On a random feature-linear MDP this measures, over regenerated datasets,
(1) how often the ridge-regression backup deviates from the exact backup by
more than tau * penalty, for a grid of tau, and (2) how often the exact value
gap of the pessimistic policy stays below the penalty bound when the penalty
scale is calibrated from (1).

Usage: python scripts/run_coverage_study.py [--trials 200] [--episodes 100]
"""

import argparse

import numpy as np

from rvf.linear_mdp import random_linear_mdp, xi_quantifier_check
from rvf.study import value_gap_trials


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mdp-seed", type=int, default=123)
    parser.add_argument("--states", type=int, default=6)
    parser.add_argument("--actions", type=int, default=3)
    parser.add_argument("--features", type=int, default=6)
    parser.add_argument("--horizon", type=int, default=5)
    parser.add_argument("--episodes", type=int, default=100)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--ridge", type=float, default=1.0)
    args = parser.parse_args()

    mdp = random_linear_mdp(args.states, args.actions, args.features,
                            np.random.default_rng(args.mdp_seed),
                            gamma=1.0, horizon=args.horizon)
    behavior = np.full((args.states, args.actions), 1.0 / args.actions)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0]
    report = xi_quantifier_check(mdp, behavior, args.episodes, args.ridge,
                                 grid, trials=args.trials, seed=7)
    print("tau     tuple-coverage   all-(s,a,t)-coverage")
    for tau, tc, uc in zip(report.tau_grid, report.tuple_coverage,
                           report.uniform_coverage):
        print(f"{tau:<7g} {tc:<16.4f} {uc:.4f}")
    tau_hat = float(report.tau_grid[np.argmax(report.tuple_coverage >= 0.95)])
    print(f"\ncalibrated penalty scale: tau = {tau_hat}")

    gaps, bounds = value_gap_trials(mdp, behavior, args.episodes, args.ridge,
                                    tau_hat, args.trials)
    held = int(np.sum(gaps <= bounds))
    print(f"value gap <= penalty bound in {held}/{args.trials} trials")
    print(f"mean gap {np.mean(gaps):.4f}, mean bound {np.mean(bounds):.4f}")


if __name__ == "__main__":
    main()
