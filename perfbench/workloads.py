"""The four benchmark workloads: inputs, timed rounds and output checks.

A workload builds its inputs from the workload seed in `setup`, then the
runner calls `round` until the run's time is used up; every round repeats
the same user-facing operations on the same inputs and returns the wall
time of each.  `checks` runs after the timed loop and compares outputs with
refs.py; `summary` gives the per-operation throughputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time

import numpy as np

import refs

# The acceptance "full" arm (tests/test_acceptance.py::study_config) at a
# shorter length: one train() call per arm and round.
BASE_CONFIG = dict(env="point-mass-1d", ensembles=3, posterior_samples=10,
                   ood_actions_per_state=10, eta_q=5.0, eta_ood=3.0, beta=0.2,
                   gamma=0.99, rho=0.995, batch_size=64, eval_episodes=5,
                   hidden_widths=(32, 32))
ROUND_STEPS = 250
EVAL_INTERVAL = 125
WARMUP_STEPS = 5
DATASET_EPISODES = 200           # 10k transitions of the mediocre policy
EVAL_EPISODES = 100
EVAL_KEY = 12345
GRAD_BATCH = 8

POINTMASS_ARMS = {
    "pointmass-full": {"full": {}},
    "pointmass-layernorm": {"layernorm": {"layer_norm": True}},
    "pointmass-ablations": {
        "no_repulsion": {"eta_ood": 0.0},
        "no_pessimism": {"ensembles": 1, "posterior_samples": 1, "eta_ood": 0.0},
    },
}

# Acceptance size of the linear-MDP study (criteria 06/07).
MDP_SHAPE = (6, 3, 6)
MDP_HORIZON = 5
STUDY_EPISODES = 100
RIDGE = 1.0
TAU_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0)
COVERAGE_TRIALS = 200
GAP_TRIALS = 200
# `rvf verify` is run with its default seed: on other seeds its gradient
# checks can fail (see the benchmark README).
VERIFY_ARGV = ["verify"]


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


class PointMassWorkload:
    """Train each arm for ROUND_STEPS steps, save it as `rvf train` does,
    then evaluate the trained policy deterministically."""

    def __init__(self, rvf, name: str, seed: int, run_dir: str, span):
        self.rvf, self.seed, self.run_dir, self.span = rvf, seed, run_dir, span
        self.arms = POINTMASS_ARMS[name]
        self.ops_per_round = 2 * len(self.arms)
        self.train_s = self.eval_s = 0.0
        self.steps = self.episodes = 0
        self.csvs = {arm: [] for arm in self.arms}
        self.returns = {arm: [] for arm in self.arms}
        self.results = {}
        self.uq_ratio = {}

    def _config(self, arm: str, **overrides):
        cfg = self.rvf.harness.TrainConfig(
            seed=self.seed, gradient_steps=ROUND_STEPS,
            eval_interval=EVAL_INTERVAL, **BASE_CONFIG)
        for key, value in {**self.arms[arm], **overrides}.items():
            setattr(cfg, key, value)
        return cfg

    def _arm_dir(self, arm: str, *parts: str) -> str:
        return os.path.join(self.run_dir, arm, *parts)

    def setup(self) -> None:
        ed = self.rvf.envs_data
        with self.span("setup"):
            self.env = ed.make_env("point-mass-1d")
            self.dataset = ed.generate_dataset(self.env, "mediocre",
                                               DATASET_EPISODES, self.seed)
            # Model init and first-call costs, on a few steps per arm.
            for arm in self.arms:
                self.rvf.harness.train(
                    self._config(arm, gradient_steps=WARMUP_STEPS,
                                 eval_interval=WARMUP_STEPS), self.dataset)

    def round(self) -> dict:
        h = self.rvf.harness
        times = {}
        for arm in self.arms:
            cfg = self._config(arm)
            out = self._arm_dir(arm)
            t0 = time.perf_counter()
            with self.span("train"):
                result = h.train(cfg, self.dataset, out_dir=out)
                self.rvf.actor.save_policy(os.path.join(out, "policy.ckpt"),
                                           result.policy, {"env": cfg.env})
                self.rvf.bnn_critic.save_critic(
                    os.path.join(out, "critic.ckpt"), result.critic,
                    cfg.posterior_samples, {"env": cfg.env})
            t1 = time.perf_counter()
            with self.span("eval"):
                ret = h.evaluate_policy(self.env, result.policy, EVAL_EPISODES,
                                        [self.seed, EVAL_KEY])
            t2 = time.perf_counter()
            times[f"{arm}.train"], times[f"{arm}.eval"] = t1 - t0, t2 - t1
            self.train_s += t1 - t0
            self.eval_s += t2 - t1
            self.steps += cfg.gradient_steps
            self.episodes += EVAL_EPISODES
            self.results[arm] = (cfg, result)
            self.returns[arm].append(ret)
            with open(os.path.join(out, "metrics.csv"), "rb") as f:
                self.csvs[arm].append(f.read())
        return times

    def work(self) -> dict:
        return {"steps": self.steps, "coverage_trials": 0, "gap_trials": 0,
                "suites": 0}

    def checks(self) -> list:
        out = []
        for arm in self.arms:
            out += self._arm_checks(arm)
        return out

    def _arm_checks(self, arm: str) -> list:
        rvf, ds = self.rvf, self.dataset
        cfg, result = self.results[arm]
        long_csv = self.csvs[arm][0]
        short_dir = self._arm_dir(arm, "short")
        rvf.harness.train(self._config(arm, gradient_steps=EVAL_INTERVAL), ds,
                          out_dir=short_dir)
        with open(os.path.join(short_dir, "metrics.csv"), "rb") as f:
            short_csv = f.read()
        checks = [
            refs.check_metrics_csv(f"{arm}.metrics-csv", long_csv,
                                   ROUND_STEPS // EVAL_INTERVAL + 1),
            refs.check_identical(f"{arm}.metrics-csv-repeat", self.csvs[arm]),
            refs.check_identical(f"{arm}.eval-repeat", self.returns[arm]),
            refs.check_prefix(f"{arm}.metrics-csv-prefix", long_csv, short_csv),
        ]

        params, meta = refs.read_param_file(self._arm_dir(arm, "critic.ckpt"))
        probe_in, probe_ood = rvf.envs_data.ood_probe_sets(ds, self.env,
                                                           n_pairs=256, seed=0)
        states = np.vstack([probe_in.states, probe_ood.states])
        actions = np.vstack([probe_in.actions, probe_ood.actions])
        critic = result.critic
        draws = _stream(self.seed, 7).standard_normal(
            (critic.n_members, cfg.posterior_samples, critic.d + 1))
        q = rvf.bnn_critic.q_samples(critic, states, actions,
                                     cfg.posterior_samples, None, draws=draws)
        checks.append(refs.check_q_values(f"{arm}.q-samples", q.values, params,
                                          meta, states, actions, draws))

        checks += self._grad_checks(arm, cfg, result)

        pparams, pmeta = refs.read_param_file(self._arm_dir(arm, "policy.ckpt"))
        mean, std = self.returns[arm][0]
        checks.append(refs.check_eval_returns(
            f"{arm}.eval-return", mean, std, pparams, pmeta, EVAL_EPISODES,
            [self.seed, EVAL_KEY]))
        self.uq_ratio[arm] = rvf.harness.uncertainty_report(
            critic, probe_in, probe_ood, cfg.posterior_samples)["ratio"]
        return checks

    def _grad_checks(self, arm: str, cfg, result) -> list:
        bc, ac = self.rvf.bnn_critic, self.rvf.actor
        critic, policy, ds = result.critic, result.policy, self.dataset
        rng = _stream(self.seed, 8)
        idx = rng.integers(0, len(ds), size=GRAD_BATCH)
        states, actions = ds.states[idx], ds.actions[idx]
        targets = ds.rewards[idx] + rng.normal(size=GRAD_BATCH)
        ood_s = np.repeat(states, 2, axis=0)
        ood_a = rng.uniform(-1.0, 1.0, size=(2 * GRAD_BATCH, 1))
        # The spread term is weighted in even for arms trained without it.
        kw = dict(eta_q=cfg.eta_q, eta_ood=cfg.eta_ood or 1.0,
                  kl_scale=1.0 / len(ds), pooling=cfg.pooling,
                  draws=bc.draw_critic_noise(critic, 3, rng))
        saved = {k: v.copy() for k, v in critic.get_all_params().items()}
        results = bc.ensemble_critic_losses(critic, states, actions, targets,
                                            ood_s, ood_a, **kw)
        checks = []
        for j, (_, grads, _) in results.items():
            def critic_loss(params, j=j):
                critic.set_all_params(params)
                return bc.ensemble_critic_losses(
                    critic, states, actions, targets, ood_s, ood_a,
                    members=[j], **kw)[j][0]
            checks.append(refs.check_directional_grads(
                f"{arm}.critic-grad-m{j}", critic_loss, saved,
                {f"m{j}/{k}": g for k, g in grads.items()}, rng))
        critic.set_all_params(saved)

        adraws = ac.draw_actor_noise(policy, critic, GRAD_BATCH,
                                     cfg.posterior_samples, rng)
        _, agrads, _ = ac.actor_loss(policy, critic, states, cfg.beta,
                                     draws=adraws)
        saved_pi = {k: v.copy() for k, v in policy.get_params().items()}

        def actor_loss(params):
            policy.set_params(params)
            return ac.actor_loss(policy, critic, states, cfg.beta,
                                 draws=adraws)[0]
        checks.append(refs.check_directional_grads(
            f"{arm}.actor-grad", actor_loss, saved_pi, agrads, rng))
        policy.set_params(saved_pi)
        return checks

    def summary(self) -> dict:
        return {"train_steps_per_s": self.steps / self.train_s,
                "eval_episodes_per_s": self.episodes / self.eval_s,
                "uq_ratio_ood_over_in": self.uq_ratio}


class TheoryWorkload:
    """`rvf verify` in-process, the penalty-coverage study and value-gap
    trials on a random linear MDP drawn from the workload seed."""

    ops_per_round = 3

    def __init__(self, rvf, name: str, seed: int, run_dir: str, span):
        self.rvf, self.seed, self.span = rvf, seed, span
        self.verify_runs, self.verify_s = [], []
        self.coverage, self.held = [], []
        self.coverage_s = self.gap_s = 0.0
        self.rounds = 0

    def setup(self) -> None:
        lm = self.rvf.linear_mdp
        with self.span("setup"):
            self.mdp = lm.random_linear_mdp(*MDP_SHAPE, _stream(self.seed),
                                            gamma=1.0, horizon=MDP_HORIZON)
            self.behavior = np.full(MDP_SHAPE[:2], 1.0 / MDP_SHAPE[1])

    def round(self) -> dict:
        lm, r = self.rvf.linear_mdp, self.rounds
        buf = io.StringIO()
        t0 = time.perf_counter()
        with self.span("verify"), contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(buf):
            code = self.rvf.cli.main(VERIFY_ARGV)
        t1 = time.perf_counter()
        with self.span("coverage"):
            cov_seed = int(np.random.SeedSequence([self.seed, 1, r])
                           .generate_state(1)[0])
            report = lm.xi_quantifier_check(
                self.mdp, self.behavior, STUDY_EPISODES, RIDGE, TAU_GRID,
                COVERAGE_TRIALS, cov_seed)
        t2 = time.perf_counter()
        tau = float(report.tau_grid[np.argmax(report.tuple_coverage >= 0.95)])
        held = 0
        for trial in range(GAP_TRIALS):
            with self.span("gap"):
                batch = lm.rollout_episodes(self.mdp, self.behavior,
                                            STUDY_EPISODES,
                                            _stream(self.seed, 2, r, trial))
                policy, pen = lm.pessimistic_lsvi(self.mdp, batch, RIDGE, tau)
                gap, bound = lm.suboptimality_gap(self.mdp, policy, tau * pen)
                held += gap <= bound
        t3 = time.perf_counter()
        self.verify_s.append(t1 - t0)
        self.coverage_s += t2 - t1
        self.gap_s += t3 - t2
        self.verify_runs.append((code, buf.getvalue()))
        self.coverage.append(report.tuple_coverage)
        self.held.append(held)
        if r == 0:
            self.batch = batch
        self.rounds += 1
        return {"verify": t1 - t0, "coverage": t2 - t1, "gap": t3 - t2}

    def work(self) -> dict:
        return {"steps": 0, "coverage_trials": COVERAGE_TRIALS * self.rounds,
                "gap_trials": GAP_TRIALS * self.rounds, "suites": self.rounds}

    def checks(self) -> list:
        lm, mdp = self.rvf.linear_mdp, self.mdp
        checks = [_first_failure(
            [refs.check_verify(f"verify[round {i}]", code, text)
             for i, (code, text) in enumerate(self.verify_runs)], "verify")]
        checks.append(_first_failure(
            [refs.check_coverage(f"coverage[round {i}]", c)
             for i, c in enumerate(self.coverage)], "coverage"))
        checks.append(_first_failure(
            [refs.check_gap(f"gap-bound[round {i}]", h, GAP_TRIALS)
             for i, h in enumerate(self.held)], "gap-bound"))
        # Bellman targets at V*, as in the coverage study.
        _, v_star, _ = lm.optimal_values(mdp)
        b = self.batch
        lsvi = []
        for t in range(MDP_HORIZON):
            feats = mdp.features[b.states[:, t], b.actions[:, t]]
            y = b.rewards[:, t] + mdp.gamma * v_star[t + 1][b.next_states[:, t]]
            mean = lm.lsvi_solve(lm.FeatureDataset(feats, y), RIDGE).mean
            lsvi.append(refs.check_lsvi_mean(f"lsvi-mean[t={t}]", mean, feats,
                                             y, RIDGE))
        checks.append(_first_failure(lsvi, "lsvi-mean"))
        checks.append(refs.check_optimal_value(
            "optimal-value", v_star[0, mdp.initial_state], mdp.features,
            mdp.next_state_features, mdp.reward_weights, mdp.horizon,
            mdp.gamma, mdp.initial_state))
        return checks

    def summary(self) -> dict:
        return {"verify_s": statistics.median(self.verify_s),
                "coverage_trials_per_s":
                    COVERAGE_TRIALS * self.rounds / self.coverage_s,
                "gap_trials_per_s": GAP_TRIALS * self.rounds / self.gap_s}


def _first_failure(checks: list, name: str) -> refs.Check:
    """One Check standing for many: the first failing one, else a pass."""
    for c in checks:
        if not c.ok:
            return c
    return refs.Check(name, True, f"{len(checks)} of {len(checks)} passed; "
                                  f"last: {checks[-1].detail}")


WORKLOADS = {name: PointMassWorkload for name in POINTMASS_ARMS}
WORKLOADS["theory-verify"] = TheoryWorkload
