"""A toy environment, behavior policies, and offline dataset files.

A 1-D point mass driven by a bounded force stands in for the usual
benchmark suites; its step, like the PD controller's action, takes one state
or a batch of rows, so many episodes can advance in lockstep.  Datasets are
generated by fixed behavior policies (random / mediocre / mixed), stored in
the math_core file envelope (JSON header, float64 columns), and probed for
in-distribution vs out-of-distribution state-action pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .math_core import COUNT, OBJECT, read_envelope, write_envelope

BEHAVIOR_POLICIES = ("random", "mediocre", "mixed")


def _column_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(-1, 1) if x.ndim == 1 else x


@dataclass
class OfflineDataset:
    """Flat transition arrays plus provenance metadata."""

    states: np.ndarray        # (N, state_dim)
    actions: np.ndarray       # (N, action_dim)
    rewards: np.ndarray       # (N,)
    next_states: np.ndarray   # (N, state_dim)
    dones: np.ndarray         # (N,) in {0, 1}
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.states = _column_matrix(self.states)
        self.actions = _column_matrix(self.actions)
        self.next_states = _column_matrix(self.next_states)
        self.rewards = np.asarray(self.rewards, dtype=np.float64).reshape(-1)
        self.dones = np.asarray(self.dones, dtype=np.float64).reshape(-1)
        n = self.rewards.shape[0]
        if not (self.states.shape[0] == self.actions.shape[0]
                == self.next_states.shape[0] == self.dones.shape[0] == n):
            raise ShapeError("dataset columns disagree on row count")
        for name in ("states", "actions", "rewards", "next_states"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"non-finite {name} in dataset")
        if n and not np.all((self.dones == 0.0) | (self.dones == 1.0)):
            raise ConfigError("done flags must be 0 or 1")

    def __len__(self) -> int:
        return self.rewards.shape[0]

    def episode_returns(self) -> np.ndarray:
        """Undiscounted return of each episode, split at done flags."""
        ends = np.nonzero(self.dones == 1.0)[0]
        returns, start = [], 0
        for end in ends:
            returns.append(self.rewards[start:end + 1].sum())
            start = end + 1
        return np.asarray(returns)


# ---------------------------------------------------------------------------
# Environments.

class PointMass1d:
    """1-D point mass pushed toward a goal position.

    State is (position, velocity); the action is a force in [-1, 1].
    Semi-implicit Euler with dt = 0.1; reward is the negative squared
    position error minus a small action cost.  step() advances one state
    (2,) with one action, or E states (E, 2) with E actions (E, 1) at once.
    """

    env_id = "point-mass-1d"
    state_dim = 2
    action_dim = 1
    horizon = 50
    action_low = -1.0
    action_high = 1.0
    goal = 1.0
    dt = 0.1

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.uniform(-0.1, 0.1), 0.0])

    def step(self, state, action) -> tuple[np.ndarray, np.ndarray]:
        """(next state, reward) for one state, or (next states (E, 2),
        rewards (E,)) for a batch; the force is the clipped first action
        coordinate."""
        states = np.asarray(state, dtype=np.float64)
        rows = states.reshape(-1, self.state_dim)
        force = np.asarray(action, dtype=np.float64).reshape(len(rows), -1)[:, 0]
        force = np.minimum(np.maximum(force, self.action_low), self.action_high)
        vel = rows[:, 1] + self.dt * force
        pos = rows[:, 0] + self.dt * vel
        # float_power is libm pow, as in scalar float arithmetic; x * x (what
        # an array's ** 2 computes) differs from it in the last bit for about
        # 0.1% of inputs, which would change generated datasets.
        reward = -np.float_power(pos - self.goal, 2) - 0.01 * np.float_power(force, 2)
        next_states = np.empty_like(rows)
        next_states[:, 0], next_states[:, 1] = pos, vel
        if states.ndim == 1:
            return next_states[0], reward[0]
        return next_states, reward


def make_env(env_id: str):
    if env_id == PointMass1d.env_id:
        return PointMass1d()
    raise ConfigError(f"unknown environment id {env_id!r}")


# ---------------------------------------------------------------------------
# Behavior policies.

@dataclass
class PdController:
    """Proportional-derivative force controller for the point mass."""

    kp: float = 2.0
    kd: float = 2.5
    goal: float = 1.0

    def act_deterministic(self, states) -> np.ndarray:
        """Force (1,) for one state (2,), or forces (E, 1) for states (E, 2)."""
        states = np.asarray(states, dtype=np.float64)
        force = self.kp * (self.goal - states[..., 0]) - self.kd * states[..., 1]
        return np.clip(force[..., None], -1.0, 1.0)


MEDIOCRE_CONTROLLER = PdController(kp=0.4, kd=0.9)
_EPSILON = 0.3


def _random_steps(env, policy_id: str, episode: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Which steps of one episode take a uniform random action, and those
    actions (horizon, action_dim).  The behavior policies' random choices do
    not depend on the state, so they are drawn up front, in the order a
    step-by-step rollout would draw them."""
    mode = policy_id
    if policy_id == "mixed":
        mode = "mediocre" if episode % 2 == 0 else "random"
    explore = np.zeros(env.horizon, dtype=bool)
    actions = np.zeros((env.horizon, env.action_dim))
    for t in range(env.horizon):
        if mode == "random" or rng.random() < _EPSILON:
            explore[t] = True
            actions[t] = rng.uniform(env.action_low, env.action_high,
                                     size=env.action_dim)
    return explore, actions


def generate_dataset(env, policy_id: str, episodes: int, seed: int) -> OfflineDataset:
    """Roll fixed-horizon episodes; the last step of each is flagged done.

    Episode ep draws from its own generator keyed by (seed, ep); all
    episodes then advance in lockstep, one batched step per time step.
    """
    if policy_id not in BEHAVIOR_POLICIES:
        raise ConfigError(f"unknown behavior policy {policy_id!r}")
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, ep]))
            for ep in range(episodes)]
    state = np.array([env.reset(rng) for rng in rngs])        # (E, state_dim)
    plans = [_random_steps(env, policy_id, ep, rng) for ep, rng in enumerate(rngs)]
    explore = np.array([p[0] for p in plans])                 # (E, T)
    random_actions = np.array([p[1] for p in plans])          # (E, T, action_dim)
    T = env.horizon
    states = np.empty((episodes, T, env.state_dim))
    actions = np.empty((episodes, T, env.action_dim))
    rewards = np.empty((episodes, T))
    next_states = np.empty((episodes, T, env.state_dim))
    for t in range(T):
        action = np.where(explore[:, t, None], random_actions[:, t],
                          MEDIOCRE_CONTROLLER.act_deterministic(state))
        states[:, t], actions[:, t] = state, action
        state, rewards[:, t] = env.step(state, action)
        next_states[:, t] = state
    dones = np.zeros((episodes, T))
    dones[:, -1] = 1.0
    meta = {"env": env.env_id, "policy": policy_id, "seed": seed,
            "episodes": episodes, "horizon": env.horizon,
            "state_dim": env.state_dim, "action_dim": env.action_dim}
    n = episodes * T
    return OfflineDataset(states.reshape(n, -1), actions.reshape(n, -1),
                          rewards.reshape(n), next_states.reshape(n, -1),
                          dones.reshape(n), meta)


# ---------------------------------------------------------------------------
# Dataset files: the math_core envelope, with the row count and dims in the
# header and the columns in fixed order (states, actions, rewards,
# next_states, dones).

_SCHEMA = {"rows": COUNT, "state_dim": COUNT, "action_dim": COUNT,
           "meta": OBJECT}


def _columns(header: dict) -> list[tuple[str, tuple[int, ...]]]:
    n, ds, da = header["rows"], header["state_dim"], header["action_dim"]
    return [("states", (n, ds)), ("actions", (n, da)), ("rewards", (n,)),
            ("next_states", (n, ds)), ("dones", (n,))]


def save_dataset(dataset: OfflineDataset, path) -> None:
    n = len(dataset)
    ds = dataset.states.shape[1] if n else int(dataset.meta.get("state_dim", 0))
    da = dataset.actions.shape[1] if n else int(dataset.meta.get("action_dim", 0))
    header = {"kind": "rvf-dataset", "version": 1, "rows": n,
              "state_dim": ds, "action_dim": da, "meta": dataset.meta}
    write_envelope(path, header, (getattr(dataset, name)
                                  for name, _ in _columns(header)))


def load_dataset(path) -> OfflineDataset:
    header, cols = read_envelope(path, "rvf-dataset", _SCHEMA, _columns)
    return OfflineDataset(**cols, meta=header["meta"])


# ---------------------------------------------------------------------------
# In-distribution vs out-of-distribution probe pairs.

@dataclass
class ProbeSet:
    states: np.ndarray
    actions: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]


_N_STATE_BINS = 8
_SUPPORT_QUANTILES = (0.1, 0.9)


def _state_bins(values: np.ndarray) -> np.ndarray:
    edges = np.quantile(values, np.linspace(0.0, 1.0, _N_STATE_BINS + 1)[1:-1])
    return np.digitize(values, edges)


def ood_probe_sets(dataset: OfflineDataset, env, policy=None,
                   n_pairs: int = 256, seed: int = 0) -> tuple[ProbeSet, ProbeSet]:
    """Equal-size probe sets for the uncertainty report.

    In-distribution pairs are dataset rows.  Out-of-distribution pairs reuse
    the same states with actions far from the local empirical action support:
    per state bin we take the central action quantiles and sample from the
    half of the remaining box with more room.  When an expert-like policy is
    given, its actions at those states are used instead.
    """
    if len(dataset) == 0:
        raise ConfigError("cannot build probe sets from an empty dataset")
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(dataset), size=min(n_pairs, len(dataset)), replace=False)
    in_states = dataset.states[idx].copy()
    in_actions = dataset.actions[idx].copy()

    if policy is not None:
        ood_acts = np.stack([np.asarray(policy.act_deterministic(s)).reshape(-1)
                             for s in in_states])
        return ProbeSet(in_states, in_actions), ProbeSet(in_states.copy(), ood_acts)

    bins_all = _state_bins(dataset.states[:, 0])
    bins_probe = np.digitize(
        in_states[:, 0],
        np.quantile(dataset.states[:, 0], np.linspace(0.0, 1.0, _N_STATE_BINS + 1)[1:-1]))
    lo_q, hi_q = _SUPPORT_QUANTILES
    ood_acts = np.empty_like(in_actions)
    for b in range(_N_STATE_BINS):
        rows = np.nonzero(bins_probe == b)[0]
        if rows.size == 0:
            continue
        pool = dataset.actions[bins_all == b]
        if pool.shape[0] == 0:
            pool = dataset.actions
        lo = np.quantile(pool, lo_q, axis=0)
        hi = np.quantile(pool, hi_q, axis=0)
        for dim in range(in_actions.shape[1]):
            room_hi = env.action_high - hi[dim]
            room_lo = lo[dim] - env.action_low
            if room_hi >= room_lo:
                low, high = hi[dim] + 0.5 * room_hi, env.action_high
            else:
                low, high = env.action_low, lo[dim] - 0.5 * room_lo
            ood_acts[rows, dim] = rng.uniform(low, high, size=rows.size)
    return ProbeSet(in_states, in_actions), ProbeSet(in_states.copy(), ood_acts)
