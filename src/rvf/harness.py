"""Training loop, policy evaluation, uncertainty reporting, and metrics.

One gradient step samples a transition batch, builds an out-of-distribution
action batch from the current policy, computes pessimistic targets from the
target networks, updates every critic member and the actor with Adam, and
Polyak-averages the targets.  All randomness is keyed by (seed, step) with
separate streams for metrics and evaluation, so a run is a pure function of
(config, dataset).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .actor import TanhGaussianPolicy, actor_loss, draw_actor_noise, ood_actions
from .bnn_critic import (EnsembleCritic, draw_critic_noise,
                         ensemble_critic_losses, kl_to_prior,
                         pessimistic_target, pooled_stds, q_samples)
from .envs_data import OfflineDataset, ProbeSet, make_env
from .errors import ConfigError, NumericError
from .math_core import (FINITE, INT, POSITIVE, AdamState, adam_step, soft_update,
                        write_atomic)

_POOLING_MODES = ("joint", "per-member")

# The check each TrainConfig field's annotated type gets before any range
# check: (predicate, what the value must be).  Float fields take JSON ints.
_FIELD_TYPES = {
    "int": INT,
    "float": FINITE,
    "bool": (lambda x: isinstance(x, bool), "true or false"),
    "str": (lambda x: isinstance(x, str), "a string"),
    "tuple": (lambda x: isinstance(x, (tuple, list)) and len(x) > 0
              and all(POSITIVE[0](n) for n in x), "a non-empty list of ints >= 1"),
}


@dataclass
class TrainConfig:
    """Knobs for one training run; JSON files mirror these fields exactly."""

    env: str = "point-mass-1d"
    seed: int = 0
    ensembles: int = 3               # M value networks
    posterior_samples: int = 10      # draws per head per evaluation
    ood_actions_per_state: int = 10  # policy actions per batch state
    next_action_samples: int = 1     # policy draws per backup target
    eta_q: float = 5.0
    eta_ood: float = 3.0
    beta: float = 0.2
    gamma: float = 0.99
    rho: float = 0.995               # target Polyak rate
    critic_lr: float = 3e-4
    actor_lr: float = 3e-4
    batch_size: int = 256
    gradient_steps: int = 50_000
    eval_interval: int = 1000
    eval_episodes: int = 5
    hidden_widths: tuple = (64, 64)
    pooling: str = "joint"           # spread pooling: joint | per-member
    weight_decay: float = 0.0
    layer_norm: bool = False

    def validate(self) -> None:
        for f in fields(self):
            ok, what = _FIELD_TYPES[f.type]
            if not ok(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be {what}, "
                                  f"got {getattr(self, f.name)!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.ensembles < 1:
            raise ConfigError("ensembles must be >= 1")
        if self.posterior_samples < 1 or self.ood_actions_per_state < 1:
            raise ConfigError("posterior_samples and ood_actions_per_state must be >= 1")
        if self.next_action_samples < 1:
            raise ConfigError("next_action_samples must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {self.rho}")
        if self.eta_q <= 0.0:
            raise ConfigError("eta_q must be positive")
        if self.eta_ood < 0.0:
            raise ConfigError("eta_ood must be nonnegative")
        if self.beta < 0.0:
            raise ConfigError("beta must be nonnegative")
        if self.critic_lr <= 0.0 or self.actor_lr <= 0.0:
            raise ConfigError("learning rates must be positive")
        if self.batch_size < 1 or self.gradient_steps < 0 or self.eval_interval < 1:
            raise ConfigError("bad batch_size / gradient_steps / eval_interval")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if self.pooling not in _POOLING_MODES:
            raise ConfigError(f"pooling must be one of {_POOLING_MODES}")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be nonnegative")

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["hidden_widths"] = list(self.hidden_widths)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        if isinstance(cfg.hidden_widths, list):
            cfg.hidden_widths = tuple(cfg.hidden_widths)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "TrainConfig":
        with open(path) as f:
            try:
                data = json.load(f)
            except ValueError as e:
                raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        return cls.from_json_dict(data)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)


@dataclass
class MetricsRecord:
    step: int
    bellman: float
    kl: float
    ood_std: float
    in_dist_std: float
    eval_return_mean: float
    eval_return_std: float
    wall_seconds: float


# Wall time is kept in memory but not written: the CSV must be a pure
# function of (config, dataset, seed).
METRICS_CSV_HEADER = ("step,bellman,kl,ood_std,in_dist_std,"
                      "eval_return_mean,eval_return_std")


def metrics_csv_lines(metrics: list[MetricsRecord]) -> list[str]:
    lines = [METRICS_CSV_HEADER]
    for m in metrics:
        lines.append(f"{m.step},{m.bellman!r},{m.kl!r},{m.ood_std!r},"
                     f"{m.in_dist_std!r},{m.eval_return_mean!r},{m.eval_return_std!r}")
    return lines


@dataclass
class TrainResult:
    policy: TanhGaussianPolicy
    critic: EnsembleCritic
    metrics: list[MetricsRecord] = field(default_factory=list)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def evaluate_policy(env, actor, episodes: int, seed) -> tuple[float, float]:
    """Deterministic-mode rollouts; mean and population std of the
    undiscounted episode return.

    Episode ep starts from env.reset(_rng(*seed, ep)); then all episodes
    advance in lockstep, one batched act_deterministic and env.step per time
    step over the (episodes, state_dim) rows.
    """
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    seed_key = [int(s) for s in np.atleast_1d(seed)]
    states = np.array([env.reset(_rng(*seed_key, ep)) for ep in range(episodes)])
    returns = np.zeros(episodes)
    for _ in range(env.horizon):
        states, rewards = env.step(states, actor.act_deterministic(states))
        returns += rewards
    return float(returns.mean()), float(returns.std())


def uncertainty_report(critic: EnsembleCritic, probe_in: ProbeSet,
                       probe_ood: ProbeSet, n: int, seed: int = 0,
                       pooling: str = "joint") -> dict:
    """Mean per-pair sample spread on each probe set, and their ratio.

    The ratio is None when the in-distribution spread is exactly zero
    (e.g. an untrained critic with collapsed heads).  Both sets are scored
    with the same weight draws, so swapping them inverts the ratio exactly.
    """
    rng = _rng(seed, 0)
    shared = rng.standard_normal((critic.n_members, n, critic.d + 1))
    qs_in = q_samples(critic, probe_in.states, probe_in.actions, n, None,
                      draws=shared)
    qs_ood = q_samples(critic, probe_ood.states, probe_ood.actions, n, None,
                       draws=shared)
    in_std = float(pooled_stds(qs_in.values, pooling).mean())
    ood_std = float(pooled_stds(qs_ood.values, pooling).mean())
    ratio = None if in_std == 0.0 else ood_std / in_std
    return {"in_dist_std": in_std, "ood_std": ood_std, "ratio": ratio}


_METRICS_STREAM = 1_000_003
_EVAL_STREAM = 2_000_003


def _collect_metrics(config: TrainConfig, dataset: OfflineDataset, env,
                     policy, critic, row: int, step: int,
                     t_start: float) -> MetricsRecord:
    rng = _rng(config.seed, _METRICS_STREAM, row)
    n_rows = min(256, len(dataset))
    idx = rng.integers(0, len(dataset), size=n_rows)
    states = dataset.states[idx]
    actions = dataset.actions[idx]
    targets = pessimistic_target(critic, dataset.rewards[idx],
                                 dataset.next_states[idx], dataset.dones[idx],
                                 policy, config.beta, config.gamma,
                                 config.posterior_samples, rng,
                                 config.next_action_samples)
    qs_in = q_samples(critic, states, actions, config.posterior_samples, rng)
    bellman = float(np.mean((qs_in.values - targets[:, None, None]) ** 2))
    kl = float(np.mean([kl_to_prior(h) for h in critic.heads]))
    in_std = float(pooled_stds(qs_in.values, config.pooling).mean())
    ood_a = ood_actions(policy, states, config.ood_actions_per_state, rng)
    ood_s = np.repeat(states, config.ood_actions_per_state, axis=0)
    qs_ood = q_samples(critic, ood_s, ood_a.reshape(-1, ood_a.shape[2]),
                       config.posterior_samples, rng)
    ood_std = float(pooled_stds(qs_ood.values, config.pooling).mean())
    ret_mean, ret_std = evaluate_policy(env, policy, config.eval_episodes,
                                        [config.seed, _EVAL_STREAM, row])
    return MetricsRecord(step, bellman, kl, ood_std, in_std,
                         ret_mean, ret_std, time.perf_counter() - t_start)


def train(config: TrainConfig, dataset: OfflineDataset,
          out_dir=None) -> TrainResult:
    """Run the full offline training loop; deterministic given (config, dataset).

    When out_dir is given, metrics.csv is (re)written there at every record
    so a crash loses at most one interval.
    """
    config.validate()
    env = make_env(config.env)
    if len(dataset) == 0:
        raise ConfigError("cannot train on an empty dataset")
    meta_ds = int(dataset.meta.get("state_dim", dataset.states.shape[1]))
    meta_da = int(dataset.meta.get("action_dim", dataset.actions.shape[1]))
    if meta_ds != env.state_dim or meta_da != env.action_dim:
        raise ConfigError(f"dataset dims ({meta_ds}, {meta_da}) do not match "
                          f"{config.env} ({env.state_dim}, {env.action_dim})")

    init_rng = _rng(config.seed, 0)
    critic = EnsembleCritic.init(env.state_dim, env.action_dim,
                                 config.hidden_widths, config.ensembles,
                                 init_rng, layer_norm=config.layer_norm)
    scale = np.full(env.action_dim, (env.action_high - env.action_low) / 2.0)
    offset = np.full(env.action_dim, (env.action_high + env.action_low) / 2.0)
    policy = TanhGaussianPolicy.init(env.state_dim, env.action_dim,
                                     config.hidden_widths, init_rng,
                                     action_scale=scale, action_offset=offset)
    # One optimizer state per model, over its flat parameter vector.
    critic_opt = AdamState.init(critic.params, lr=config.critic_lr)
    actor_opt = AdamState.init(policy.params, lr=config.actor_lr)
    kl_scale = 1.0 / len(dataset)

    metrics: list[MetricsRecord] = []
    t_start = time.perf_counter()
    csv_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "metrics.csv")

    def record(row: int, step: int) -> None:
        metrics.append(_collect_metrics(config, dataset, env, policy, critic,
                                        row, step, t_start))
        if csv_path is not None:
            write_atomic(csv_path,
                         ["\n".join(metrics_csv_lines(metrics)).encode() + b"\n"])

    record(0, 0)
    try:
        for step in range(1, config.gradient_steps + 1):
            # One generator per step, consumed in a fixed order; the noise
            # records passed to the losses keep member math order-independent.
            rng = _rng(config.seed, step)
            idx = rng.integers(0, len(dataset), size=config.batch_size)
            states = dataset.states[idx]
            actions = dataset.actions[idx]

            if config.eta_ood > 0.0:
                ood_a = ood_actions(policy, states,
                                    config.ood_actions_per_state, rng)
                ood_s = np.repeat(states, config.ood_actions_per_state, axis=0)
                ood_a = ood_a.reshape(-1, env.action_dim)
            else:
                ood_s = ood_a = None

            targets = pessimistic_target(
                critic, dataset.rewards[idx], dataset.next_states[idx],
                dataset.dones[idx], policy, config.beta, config.gamma,
                config.posterior_samples, rng, config.next_action_samples)

            draws = draw_critic_noise(critic, config.posterior_samples, rng)
            results = ensemble_critic_losses(
                critic, states, actions, targets, ood_s, ood_a,
                config.eta_q, config.eta_ood, kl_scale, draws=draws,
                pooling=config.pooling)
            grad_vector = results[0][2]["grad_vector"]   # every member's
            new_critic, critic_opt = adam_step(critic.params, grad_vector,
                                               critic_opt,
                                               weight_decay=config.weight_decay)
            critic.params.vector[:] = new_critic

            adraws = draw_actor_noise(policy, critic, config.batch_size,
                                      config.posterior_samples, rng)
            _, agrads, _ = actor_loss(policy, critic, states, config.beta,
                                      draws=adraws)
            new_pi, actor_opt = adam_step(policy.params, policy.params.pack(agrads),
                                          actor_opt, weight_decay=config.weight_decay)
            policy.params.vector[:] = new_pi

            critic.target_params.vector[:] = soft_update(
                critic.target_params, critic.params, config.rho)

            if step % config.eval_interval == 0:
                record(step // config.eval_interval, step)
    except NumericError as e:
        if out_dir is not None:
            snap = {"error": str(e), "config": config.to_json_dict(),
                    "completed_rows": len(metrics)}
            with open(os.path.join(out_dir, "crash_snapshot.json"), "w") as f:
                json.dump(snap, f, indent=2)
        raise
    return TrainResult(policy, critic, metrics)
