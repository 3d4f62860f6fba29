"""Toy environments, behavior policies, and offline dataset files.

Two environments stand in for the usual benchmark suites: a discrete noisy
chain whose dynamics come from an explicit linear-feature MDP, and a 1-D
point mass driven by a bounded force.  Datasets are generated by fixed
behavior policies (random / mediocre / mixed), stored as a JSON header plus
little-endian float64 columns, and probed for in-distribution vs
out-of-distribution state-action pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError
from .linear_mdp import LinearMdpSpec

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
        if not np.all(np.isfinite(self.rewards)):
            raise NumericError("non-finite rewards in dataset")
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
    position error minus a small action cost.
    """

    env_id = "point-mass-1d"
    state_dim = 2
    action_dim = 1
    horizon = 50
    discrete = False
    action_low = -1.0
    action_high = 1.0
    goal = 1.0
    dt = 0.1

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.uniform(-0.1, 0.1), 0.0])

    def step(self, state: np.ndarray, action) -> tuple[np.ndarray, float]:
        force = float(np.clip(np.asarray(action).reshape(-1)[0],
                              self.action_low, self.action_high))
        vel = state[1] + self.dt * force
        pos = state[0] + self.dt * vel
        reward = -((pos - self.goal) ** 2) - 0.01 * force ** 2
        return np.array([pos, vel]), reward


class LinearChain:
    """Noisy walk on a line of states, backed by an explicit linear-feature MDP.

    Actions 0/1 try to move left/right and succeed with probability 0.9.
    Rewards grow toward the right end.  Observations are one-hot states;
    the stored action is the discrete index.
    """

    env_id = "linear-chain"
    n_states = 8
    n_actions = 2
    horizon = 20
    discrete = True
    state_dim = 8
    action_dim = 1
    action_low = 0.0
    action_high = 1.0

    def __init__(self):
        S, A = self.n_states, self.n_actions
        move_prob = 0.9
        # Feature = the transition distribution itself; anchors are the states.
        features = np.zeros((S, A, S))
        for s in range(S):
            left = max(s - 1, 0)
            right = min(s + 1, S - 1)
            features[s, 0, left] += move_prob
            features[s, 0, s] += 1.0 - move_prob
            features[s, 1, right] += move_prob
            features[s, 1, s] += 1.0 - move_prob
        self.mdp = LinearMdpSpec(
            n_states=S, n_actions=A, d=S, features=features,
            reward_weights=np.arange(S) / (S - 1.0),
            next_state_features=np.eye(S), gamma=0.99, horizon=self.horizon,
            initial_state=0)
        self.mdp.validate()
        self._P = self.mdp.transition_tensor()
        self._R = self.mdp.reward_table()

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return self._one_hot(self.mdp.initial_state)

    def step(self, state: np.ndarray, action, rng: np.random.Generator):
        s = int(np.argmax(state))
        a = int(np.asarray(action).reshape(-1)[0])
        s_next = int(rng.choice(self.n_states, p=self._P[s, a]))
        return self._one_hot(s_next), float(self._R[s, a])

    def _one_hot(self, s: int) -> np.ndarray:
        v = np.zeros(self.n_states)
        v[s] = 1.0
        return v


def make_env(env_id: str):
    if env_id == PointMass1d.env_id:
        return PointMass1d()
    if env_id == LinearChain.env_id:
        return LinearChain()
    raise ConfigError(f"unknown environment id {env_id!r}")


# ---------------------------------------------------------------------------
# Behavior policies.

@dataclass
class PdController:
    """Proportional-derivative force controller for the point mass."""

    kp: float = 2.0
    kd: float = 2.5
    goal: float = 1.0

    def act_deterministic(self, state) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64).reshape(-1)
        force = self.kp * (self.goal - state[0]) - self.kd * state[1]
        return np.clip(np.array([force]), -1.0, 1.0)


MEDIOCRE_CONTROLLER = PdController(kp=0.4, kd=0.9)
_EPSILON = 0.3


def _behavior_action(env, policy_id: str, episode: int, state,
                     rng: np.random.Generator):
    mode = policy_id
    if policy_id == "mixed":
        mode = "mediocre" if episode % 2 == 0 else "random"
    if env.discrete:
        greedy = env.n_actions - 1   # head for the rewarding end
        if mode == "random" or (mode == "mediocre" and rng.random() < _EPSILON):
            return np.array([float(rng.integers(env.n_actions))])
        return np.array([float(greedy)])
    if mode == "random" or (mode == "mediocre" and rng.random() < _EPSILON):
        return rng.uniform(env.action_low, env.action_high, size=env.action_dim)
    return MEDIOCRE_CONTROLLER.act_deterministic(state)


def generate_dataset(env, policy_id: str, episodes: int, seed: int) -> OfflineDataset:
    """Roll fixed-horizon episodes; the last step of each is flagged done."""
    if policy_id not in BEHAVIOR_POLICIES:
        raise ConfigError(f"unknown behavior policy {policy_id!r}")
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    states, actions, rewards, next_states, dones = [], [], [], [], []
    for ep in range(episodes):
        rng = np.random.default_rng(np.random.SeedSequence([seed, ep]))
        s = env.reset(rng)
        for t in range(env.horizon):
            a = _behavior_action(env, policy_id, ep, s, rng)
            if env.discrete:
                s_next, r = env.step(s, a, rng)
            else:
                s_next, r = env.step(s, a)
            states.append(s)
            actions.append(a)
            rewards.append(r)
            next_states.append(s_next)
            dones.append(1.0 if t == env.horizon - 1 else 0.0)
            s = s_next
    meta = {"env": env.env_id, "policy": policy_id, "seed": seed,
            "episodes": episodes, "horizon": env.horizon,
            "state_dim": env.state_dim, "action_dim": env.action_dim}
    return OfflineDataset(np.asarray(states), np.asarray(actions),
                          np.asarray(rewards), np.asarray(next_states),
                          np.asarray(dones), meta)


# ---------------------------------------------------------------------------
# File format: uint64 little-endian header length, JSON header, then float64
# little-endian columns in fixed order (states, actions, rewards,
# next_states, dones).

_HEADER_LEN_BYTES = 8


def save_dataset(dataset: OfflineDataset, path) -> None:
    n = len(dataset)
    ds = dataset.states.shape[1] if n else int(dataset.meta.get("state_dim", 0))
    da = dataset.actions.shape[1] if n else int(dataset.meta.get("action_dim", 0))
    header = {"kind": "rvf-dataset", "version": 1, "rows": n,
              "state_dim": ds, "action_dim": da, "meta": dataset.meta}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(len(blob).to_bytes(_HEADER_LEN_BYTES, "little"))
        f.write(blob)
        for col in (dataset.states, dataset.actions, dataset.rewards,
                    dataset.next_states, dataset.dones):
            f.write(np.ascontiguousarray(col, dtype="<f8").tobytes())


def load_dataset(path) -> OfflineDataset:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER_LEN_BYTES:
        raise FormatError("file too short for header length", offset=len(raw))
    hlen = int.from_bytes(raw[:_HEADER_LEN_BYTES], "little")
    if len(raw) < _HEADER_LEN_BYTES + hlen:
        raise FormatError("truncated header", offset=len(raw))
    try:
        header = json.loads(raw[_HEADER_LEN_BYTES:_HEADER_LEN_BYTES + hlen])
    except json.JSONDecodeError as e:
        raise FormatError(f"corrupt JSON header: {e}", offset=_HEADER_LEN_BYTES) from e
    if header.get("kind") != "rvf-dataset":
        raise FormatError("not a dataset file", offset=_HEADER_LEN_BYTES)
    n, ds, da = header["rows"], header["state_dim"], header["action_dim"]
    pos = _HEADER_LEN_BYTES + hlen
    cols = []
    for name, count in (("states", n * ds), ("actions", n * da), ("rewards", n),
                        ("next_states", n * ds), ("dones", n)):
        nbytes = count * 8
        if len(raw) < pos + nbytes:
            raise FormatError(f"truncated payload in column {name!r}", offset=len(raw))
        cols.append(np.frombuffer(raw[pos:pos + nbytes], dtype="<f8").astype(np.float64))
        pos += nbytes
    if pos != len(raw):
        raise FormatError("trailing bytes after payload", offset=pos)
    return OfflineDataset(cols[0].reshape(n, ds), cols[1].reshape(n, da),
                          cols[2], cols[3].reshape(n, ds), cols[4],
                          header.get("meta", {}))


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

    if env.discrete:
        # Least-frequent action per exact state.
        ood_acts = np.empty_like(in_actions)
        all_states = np.argmax(dataset.states, axis=1)
        for i, s in enumerate(np.argmax(in_states, axis=1)):
            taken = dataset.actions[all_states == s].reshape(-1)
            counts = np.bincount(taken.astype(np.int64), minlength=env.n_actions)
            ood_acts[i] = float(np.argmin(counts))
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
