"""Acceptance suite: every exit criterion at its stated tolerance.

Criteria 1-7 are exact-identity / Monte-Carlo checks and finish in seconds.
Criteria 8-10 train full point-mass runs (several minutes each; results are
cached and shared between criteria, and criteria 8-9 train theirs in
worker processes, one per core).  Each test prints one pass/fail line;
run with `pytest tests/test_acceptance.py -v -s` to see them live.
"""

import time

import numpy as np
import pytest

from rvf import oracles
from rvf.actor import TanhGaussianPolicy, actor_loss, draw_actor_noise
from rvf.bnn_critic import (EnsembleCritic, critic_loss, draw_critic_noise,
                            lcb_alpha)
from rvf.envs_data import generate_dataset, make_env
from rvf.harness import train
from rvf.linear_mdp import (FeatureDataset, lsvi_solve, posterior_std_check,
                            random_linear_mdp, xi_quantifier_check)
from rvf.study import run_arms, study_config, value_gap_trials

SEEDS = (0, 1, 2)


def _report(name: str, ok: bool, elapsed: float, limit: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{name}] {status} in {elapsed:.1f}s (limit {limit:.0f}s): {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name} runtime {elapsed:.1f}s over limit {limit}s"


@pytest.fixture(scope="module")
def study_cache():
    return {}


def _study_arms(cache: dict, keys) -> None:
    """Train the (seed, arm) runs missing from the shared cache."""
    cache.update(run_arms(key for key in keys if key not in cache))


class TestCriterion01PosteriorStdIdentity:
    def test_analytic_penalty_equals_sampled_std(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst_rel = 0.0
        worst_mean_dev = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, 201))
            data = FeatureDataset(rng.normal(size=(m, d)), rng.normal(size=m))
            post = lsvi_solve(data, ridge=1.0)
            ref = oracles.normal_equation_oracle(data, ridge=1.0)
            worst_mean_dev = max(worst_mean_dev,
                                 float(np.max(np.abs(post.mean - ref))))
            psi = rng.normal(size=d)
            analytic, sampled = posterior_std_check(
                post, psi, n_samples=10 ** 6, seed=int(rng.integers(2 ** 31)))
            worst_rel = max(worst_rel, abs(sampled - analytic) / analytic)
        ok = worst_rel <= 0.01 and worst_mean_dev <= 1e-10
        _report("criterion-01 posterior-std-identity", ok,
                time.perf_counter() - t0, 30.0,
                f"max MC rel dev {worst_rel:.2e}, "
                f"max solver dev {worst_mean_dev:.2e}")


class TestCriterion02VarianceIdentity:
    def test_pairwise_and_kernel_forms_are_exact(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            q = rng.normal(scale=rng.uniform(0.1, 2.0), size=n)
            var = float(np.var(q))
            diff = q[:, None] - q[None, :]
            pair = float(np.sum(diff ** 2) / (2.0 * n * n))
            bw = float(rng.uniform(0.1, 1.0))
            kernel = float(-np.sum(np.log(np.exp(-bw * diff ** 2)))
                           / (2.0 * n * n * bw))
            worst = max(worst, abs(var - pair), abs(var - kernel))
        ok = worst <= 1e-10
        _report("criterion-02 variance-pairwise-identity", ok,
                time.perf_counter() - t0, 5.0, f"max abs dev {worst:.2e}")


class TestCriterion03MinGaussianShift:
    def test_alpha_predicts_expected_minimum(self):
        t0 = time.perf_counter()
        mu, sigma = 0.7, 1.3
        worst = 0.0
        for n_draws in (2, 5, 10):
            mc, _ = oracles.min_gaussian_mc(mu, sigma, n_draws,
                                            trials=10 ** 6, seed=n_draws)
            worst = max(worst, abs(mc - (mu - lcb_alpha(n_draws) * sigma)))
        mc2, se2 = oracles.min_gaussian_mc(mu, sigma, 2, trials=10 ** 6, seed=99)
        exact_two = mu - sigma / np.sqrt(np.pi)
        ok = worst <= 0.05 * sigma and abs(mc2 - exact_two) <= 3.0 * se2
        _report("criterion-03 min-gaussian-shift", ok,
                time.perf_counter() - t0, 60.0,
                f"max |MC - prediction| {worst:.4f} (allowed {0.05 * sigma:.4f}), "
                f"N=2 closed-form dev {abs(mc2 - exact_two):.2e} <= 3se {3 * se2:.2e}")


class TestCriterion04KlClosedForm:
    def test_matches_quadrature(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(100):
            mu = float(rng.normal(scale=2.0))
            sigma = float(rng.uniform(0.05, 3.0))
            closed = 0.5 * (sigma ** 2 + mu ** 2 - 1.0 - np.log(sigma ** 2))
            worst = max(worst, abs(closed - oracles.kl_quadrature(mu, sigma)))
        ok = worst <= 1e-6
        _report("criterion-04 kl-closed-form", ok, time.perf_counter() - t0,
                10.0, f"max abs dev {worst:.2e}")


class TestCriterion05GradientFidelity:
    def test_losses_match_finite_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1005)
        critic = EnsembleCritic.init(2, 1, (12, 12), 2, rng)
        policy = TanhGaussianPolicy.init(2, 1, (12, 12), rng)
        n_params = sum(p.size for p in critic.member_params(0).values()) \
            + sum(p.size for p in policy.get_params().values())
        assert n_params <= 2000
        states = rng.normal(size=(6, 2))
        actions = rng.uniform(-1, 1, size=(6, 1))
        targets = rng.normal(size=6)
        ood_s = np.repeat(states, 2, axis=0)
        ood_a = rng.uniform(-1, 1, size=(12, 1))
        cdraws = draw_critic_noise(critic, 4, rng)
        _, cgrads, _ = critic_loss(critic, 0, states, actions, targets, ood_s,
                                   ood_a, 1.4, 0.8, 0.02, draws=cdraws)

        def c_loss(params):
            critic.set_member_params(0, params)
            loss, _, _ = critic_loss(critic, 0, states, actions, targets,
                                     ood_s, ood_a, 1.4, 0.8, 0.02, draws=cdraws)
            return loss

        c_err = oracles.relative_gradient_error(
            cgrads, oracles.finite_difference(c_loss, critic.member_params(0)))

        adraws = draw_actor_noise(policy, critic, 6, 4, rng)
        _, agrads, _ = actor_loss(policy, critic, states, beta=0.3, draws=adraws)

        def a_loss(params):
            policy.set_params(params)
            loss, _, _ = actor_loss(policy, critic, states, beta=0.3,
                                    draws=adraws)
            return loss

        a_err = oracles.relative_gradient_error(
            agrads, oracles.finite_difference(a_loss, policy.get_params()))
        ok = c_err <= 1e-3 and a_err <= 1e-3
        _report("criterion-05 gradient-fidelity", ok, time.perf_counter() - t0,
                120.0, f"critic rel err {c_err:.2e}, actor rel err {a_err:.2e} "
                f"({n_params} params)")


THEORY_MDP_SEED = 123
TAU_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0)


@pytest.fixture(scope="module")
def theory_mdp():
    return random_linear_mdp(6, 3, 6, np.random.default_rng(THEORY_MDP_SEED),
                             gamma=1.0, horizon=5)


@pytest.fixture(scope="module")
def coverage_report(theory_mdp):
    behavior = np.full((6, 3), 1.0 / 3.0)
    return xi_quantifier_check(theory_mdp, behavior, episodes=100, ridge=1.0,
                               tau_grid=TAU_GRID, trials=200, seed=7)


class TestCriterion06QuantifierCoverage:
    def test_some_tau_covers_95pct_and_coverage_is_monotone(self, coverage_report):
        t0 = time.perf_counter()
        cov = coverage_report.tuple_coverage
        monotone = bool(np.all(np.diff(cov) >= 0.0))
        attained = bool(np.any(cov >= 0.95))
        tau_hat = coverage_report.tau_grid[np.argmax(cov >= 0.95)]
        ok = monotone and attained
        _report("criterion-06 quantifier-coverage", ok,
                time.perf_counter() - t0, 300.0,
                f"monotone={monotone}, best coverage {cov.max():.3f}, "
                f"tau_hat={tau_hat}")


class TestCriterion07ValueGapBound:
    def test_gap_within_penalty_bound_on_95pct_of_trials(self, theory_mdp,
                                                         coverage_report):
        t0 = time.perf_counter()
        cov = coverage_report.tuple_coverage
        tau_hat = float(coverage_report.tau_grid[np.argmax(cov >= 0.95)])
        behavior = np.full((6, 3), 1.0 / 3.0)
        trials = 100
        gaps, bounds = value_gap_trials(theory_mdp, behavior, episodes=100,
                                        ridge=1.0, tau=tau_hat, trials=trials)
        held = int(np.sum(gaps <= bounds))
        ok = held >= 95
        _report("criterion-07 value-gap-bound", ok, time.perf_counter() - t0,
                300.0, f"bound held in {held}/{trials} trials (tau={tau_hat})")


class TestCriterion08UncertaintyOrdering:
    def test_ood_ratio_high_and_repulsion_necessary(self, study_cache):
        t0 = time.perf_counter()
        details = []
        ok = True
        _study_arms(study_cache, [(seed, arm) for arm in ("full", "no_repulsion")
                                  for seed in SEEDS])
        for seed in SEEDS:
            full = study_cache[(seed, "full")]
            bare = study_cache[(seed, "no_repulsion")]
            ratio_full = full["ratio"]
            ratio_bare = bare["ratio"] if bare["ratio"] is not None else 0.0
            ok = ok and ratio_full is not None and ratio_full >= 1.5 \
                and ratio_bare < ratio_full
            details.append(f"seed {seed}: {ratio_full:.2f} vs {ratio_bare:.2f}")
        _report("criterion-08 uncertainty-ordering", ok,
                time.perf_counter() - t0, 1800.0, "; ".join(details))


class TestCriterion09PolicyQuality:
    def test_beats_behavior_and_no_pessimism_ablation(self, study_cache):
        t0 = time.perf_counter()
        details = []
        ok = True
        _study_arms(study_cache, [(seed, arm) for arm in ("full", "no_pessimism")
                                  for seed in SEEDS])
        for seed in SEEDS:
            full = study_cache[(seed, "full")]
            ablation = study_cache[(seed, "no_pessimism")]
            ok = ok and full["eval_return"] >= full["behavior_return"] \
                and full["eval_return"] >= ablation["eval_return"]
            details.append(f"seed {seed}: full {full['eval_return']:.1f} vs "
                           f"behavior {full['behavior_return']:.1f} / "
                           f"ablation {ablation['eval_return']:.1f}")
        _report("criterion-09 policy-quality", ok, time.perf_counter() - t0,
                2700.0, "; ".join(details))


class TestCriterion10Determinism:
    def test_repeated_runs_write_identical_metrics(self, tmp_path):
        t0 = time.perf_counter()
        env = make_env("point-mass-1d")
        dataset = generate_dataset(env, "mediocre", episodes=50, seed=4)
        cfg = study_config(0, gradient_steps=1500, eval_interval=500)
        csvs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            train(cfg, dataset, out_dir=out)
            csvs.append((out / "metrics.csv").read_bytes())
        ok = csvs[0] == csvs[1]
        _report("criterion-10 determinism", ok, time.perf_counter() - t0,
                600.0, f"metrics CSVs identical ({len(csvs[0])} bytes)")
