"""The point-mass ablation study and the linear-MDP value-gap tally, as the
acceptance criteria and the study scripts run them.

Not imported by `import rvf`, as it loads multiprocessing.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .envs_data import generate_dataset, make_env, ood_probe_sets
from .harness import TrainConfig, evaluate_policy, train, uncertainty_report
from .linear_mdp import pessimistic_lsvi, rollout_episodes, suboptimality_gap

STUDY_CONFIG = dict(env="point-mass-1d", ensembles=3, posterior_samples=10,
                    ood_actions_per_state=10, eta_q=5.0, eta_ood=3.0, beta=0.2,
                    gamma=0.99, rho=0.995, batch_size=64, gradient_steps=50_000,
                    eval_interval=1000, eval_episodes=5, hidden_widths=(32, 32))

ARMS = {"full": {}, "no_repulsion": {"eta_ood": 0.0},
        "no_pessimism": {"ensembles": 1, "posterior_samples": 1, "eta_ood": 0.0}}


def study_config(seed: int, arm: str = "full", **overrides) -> TrainConfig:
    """The study config for one seed and arm, with overrides on top."""
    return TrainConfig(seed=seed, **{**STUDY_CONFIG, **ARMS[arm], **overrides})


def run_arm(seed: int, arm: str,
            steps: int = STUDY_CONFIG["gradient_steps"]) -> dict:
    """Train one arm on the seed's mediocre-behavior dataset; return the
    dataset's behavior return, the policy's return over 10 deterministic
    episodes, the critic's uncertainty on 256 in-dist/OOD probe pairs and
    the seconds spent training and scoring."""
    env = make_env("point-mass-1d")
    dataset = generate_dataset(env, "mediocre", episodes=200, seed=seed)
    cfg = study_config(seed, arm, gradient_steps=steps)
    t0 = time.perf_counter()
    result = train(cfg, dataset)
    ret_mean, ret_std = evaluate_policy(env, result.policy, 10, [seed, 12345])
    probe_in, probe_ood = ood_probe_sets(dataset, env, n_pairs=256, seed=0)
    report = uncertainty_report(result.critic, probe_in, probe_ood,
                                cfg.posterior_samples)
    return {"behavior_return": float(dataset.episode_returns().mean()),
            "eval_return": ret_mean, "eval_return_std": ret_std, **report,
            "seconds": round(time.perf_counter() - t0, 1)}


def run_arms(keys, steps: int = STUDY_CONFIG["gradient_steps"]) -> dict:
    """{(seed, arm): run_arm result}, each run a pure function of its key,
    from one spawned worker per core with single-threaded BLAS (processes
    that each start BLAS threads on the same cores run several times slower)."""
    keys = list(keys)
    old = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"   # read by the workers at start
    try:
        with ProcessPoolExecutor(
                max(1, min(os.cpu_count() or 1, len(keys))),
                mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(run_arm, *zip(*keys), [steps] * len(keys)))
    finally:
        if old is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = old
    return dict(zip(keys, results))


def value_gap_trials(mdp, behavior, episodes: int, ridge: float, tau: float,
                     trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact value gap of the pessimistic LSVI policy (penalty scale tau) and
    its penalty bound, per trial; trial t draws its dataset of `episodes`
    behavior episodes from SeedSequence([99, t])."""
    gaps, bounds = np.empty(trials), np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([99, trial]))
        batch = rollout_episodes(mdp, behavior, episodes, rng)
        policy, penalties = pessimistic_lsvi(mdp, batch, ridge, tau)
        gaps[trial], bounds[trial] = suboptimality_gap(mdp, policy,
                                                       tau * penalties)
    return gaps, bounds
