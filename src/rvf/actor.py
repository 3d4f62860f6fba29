"""Tanh-squashed Gaussian policy and its losses.

The trunk MLP maps a state to (mean, raw log-std) over the action dimension;
actions are offset + scale * tanh(mean + std * z).  Log-densities carry the
exact change-of-variables correction, written via softplus so they stay
finite for saturated actions.  The policy objective maximizes the minimum of
the critic's posterior value samples at a reparameterized action minus an
entropy penalty; all gradients are hand-derived and finite-difference checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bnn_critic import ensemble_input_grad, ensemble_values
from .errors import FormatError, NumericError, ShapeError
from .math_core import (FINITE, FINITE_LIST, POSITIVE, WIDTHS, FlatParams, Mlp,
                        Params, backward, check_checkpoint, check_layout,
                        forward, load_params, save_params)

_LOG_2PI = float(np.log(2.0 * np.pi))


def _log1m_tanh_sq(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh(u)^2) = 2 * (log 2 - u - softplus(-2u)); stable for large |u|.
    return 2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


@dataclass
class TanhGaussianPolicy:
    """Squashed-Gaussian actor over a box of actions.

    The trunk's parameters live in one FlatParams, ``params``, keyed and
    ordered as get_params; the trunk's arrays are views of it.
    """

    trunk: Mlp
    action_dim: int
    action_scale: np.ndarray
    action_offset: np.ndarray
    log_std_min: float = -5.0
    log_std_max: float = 2.0
    params: FlatParams = field(init=False, repr=False)

    def __post_init__(self):
        self.params = FlatParams({f"trunk/{k}": v.shape
                                  for k, v in self.trunk.get_params().items()})
        self.trunk.bind({k.removeprefix("trunk/"): v
                         for k, v in self.params.views.items()})

    @classmethod
    def init(cls, state_dim: int, action_dim: int, hidden_widths,
             rng: np.random.Generator, action_scale=None,
             action_offset=None) -> "TanhGaussianPolicy":
        trunk = Mlp.init((state_dim, *hidden_widths, 2 * action_dim), rng)
        scale = np.ones(action_dim) if action_scale is None \
            else np.asarray(action_scale, dtype=np.float64)
        offset = np.zeros(action_dim) if action_offset is None \
            else np.asarray(action_offset, dtype=np.float64)
        return cls(trunk, action_dim, scale, offset)

    @property
    def state_dim(self) -> int:
        return self.trunk.widths[0]

    def get_params(self) -> Params:
        return {f"trunk/{k}": v for k, v in self.trunk.get_params().items()}

    def set_params(self, params: Params) -> None:
        self.trunk.set_params({k.removeprefix("trunk/"): v
                               for k, v in params.items()})

    def heads(self, states) -> tuple[np.ndarray, np.ndarray, object]:
        """Trunk forward split into (mean, clamped log-std); keeps the cache."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        out, cache = forward(self.trunk, states)
        mu = out[:, :self.action_dim]
        log_std = np.clip(out[:, self.action_dim:], self.log_std_min, self.log_std_max)
        return mu, log_std, cache

    def sample_batch(self, states, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One action per state plus its log-density."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        z = rng.standard_normal((states.shape[0], self.action_dim))
        mu, log_std, _ = self.heads(states)
        actions, log_probs, _ = _squash(self, mu, log_std, z)
        return actions, log_probs

    def act_deterministic(self, states) -> np.ndarray:
        """Mode of the policy, offset + scale * tanh(mean): one action per row
        of a (batch, state_dim) array, or one action for one state."""
        states = np.asarray(states, dtype=np.float64)
        mu, _, _ = self.heads(states)
        actions = self.action_offset + self.action_scale * np.tanh(mu)
        return actions[0] if states.ndim == 1 else actions


def _squash(policy: TanhGaussianPolicy, mu, log_std, z):
    sigma = np.exp(log_std)
    u = mu + sigma * z
    t = np.tanh(u)
    actions = policy.action_offset + policy.action_scale * t
    log_probs = np.sum(
        -0.5 * z ** 2 - log_std - 0.5 * _LOG_2PI
        - np.log(policy.action_scale) - _log1m_tanh_sq(u), axis=1)
    return actions, log_probs, (sigma, u, t)


def sample_action(policy: TanhGaussianPolicy, state, rng: np.random.Generator,
                  deterministic: bool = False):
    """Draw one action for one state.

    Stochastic mode returns (action, log_prob); deterministic mode returns
    (mode action, None) since a point mass has no density on the box.
    """
    if deterministic:
        return policy.act_deterministic(state), None
    actions, log_probs = policy.sample_batch(np.atleast_2d(state), rng)
    return actions[0], float(log_probs[0])


def action_log_prob(policy: TanhGaussianPolicy, states, actions) -> np.ndarray:
    """Exact log-density of given actions under the policy."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    mu, log_std, _ = policy.heads(states)
    sigma = np.exp(log_std)
    t = (actions - policy.action_offset) / policy.action_scale
    t = np.clip(t, -1.0 + 1e-15, 1.0 - 1e-15)
    u = np.arctanh(t)
    z = (u - mu) / sigma
    return np.sum(-0.5 * z ** 2 - log_std - 0.5 * _LOG_2PI
                  - np.log(policy.action_scale) - _log1m_tanh_sq(u), axis=1)


def ood_actions(policy: TanhGaussianPolicy, states, k: int,
                rng: np.random.Generator) -> np.ndarray:
    """k i.i.d. policy actions per state, shape (batch, k, action_dim).

    These are plain samples: nothing differentiates through them, so using
    them in the critic's spread term cannot push gradients into the policy.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    mu, log_std, _ = policy.heads(states)
    sigma = np.exp(log_std)
    z = rng.standard_normal((states.shape[0], k, policy.action_dim))
    u = mu[:, None, :] + sigma[:, None, :] * z
    return policy.action_offset + policy.action_scale * np.tanh(u)


@dataclass
class ActorDraws:
    """Frozen noise for one actor step: action noise and fresh head draws."""

    z_action: np.ndarray    # (batch, action_dim)
    z_weights: np.ndarray   # (members, n, d+1)


def draw_actor_noise(policy: TanhGaussianPolicy, critic, batch_size: int,
                     n: int, rng: np.random.Generator) -> ActorDraws:
    return ActorDraws(
        rng.standard_normal((batch_size, policy.action_dim)),
        rng.standard_normal((critic.n_members, n, critic.d + 1)))


def actor_loss(policy: TanhGaussianPolicy, critic, states, beta: float,
               n: int | None = None, rng: np.random.Generator | None = None,
               draws: ActorDraws | None = None):
    """Policy objective: minimize -E[min over member/draw samples of
    Q(s, a) - beta * log pi(a|s)] with a reparameterized from the policy.

    Noise comes either from (n, rng) or from a recorded ActorDraws (for
    replay); the draws used are echoed back in info.  Gradients flow
    through the action and the log-density into the trunk only; critic
    parameters are read but never receive gradient.
    Returns (loss, policy grads, info).
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    B = states.shape[0]
    if draws is None:
        if n is None or rng is None:
            raise ShapeError("pass either draws or both n and rng")
        draws = draw_actor_noise(policy, critic, B, n, rng)
    if draws.z_action.shape != (B, policy.action_dim):
        raise ShapeError("action noise does not match the batch")
    mu, log_std, trunk_cache = policy.heads(states)
    actions, log_probs, (sigma, u, t) = _squash(policy, mu, log_std, draws.z_action)

    values, cache = ensemble_values(critic, states, actions, draws.z_weights)
    flat = values.reshape(B, -1)                          # (B, M * n)
    argmin = np.argmin(flat, axis=1)
    q_min = flat[np.arange(B), argmin]
    loss = float(np.mean(-q_min + beta * log_probs))
    if not np.isfinite(loss):
        raise NumericError("actor loss is non-finite")

    # d(loss)/d(action) through the selected sample of the selected member.
    dvalues = np.zeros_like(flat)
    dvalues[np.arange(B), argmin] = -1.0 / B
    input_grad = ensemble_input_grad(cache, dvalues.reshape(values.shape))
    action_grad = input_grad[:, policy.state_dim:]

    # Chain into the trunk heads: u = mu + sigma * z, a = offset + scale*tanh(u),
    # d log pi / du = 2 tanh(u), d log pi / d log_std = -1 (plus the u path).
    du = action_grad * policy.action_scale * (1.0 - t ** 2) \
        + (beta / B) * 2.0 * t
    d_mu = du
    d_log_std = du * sigma * draws.z_action - beta / B
    raw = trunk_cache.post_act[-1][:, policy.action_dim:]
    inside = (raw > policy.log_std_min) & (raw < policy.log_std_max)
    head_grad = np.concatenate([d_mu, d_log_std * inside], axis=1)
    grads, _ = backward(policy.trunk, trunk_cache, head_grad)
    grads = {f"trunk/{k}": v for k, v in grads.items()}
    info = {"q_min_mean": float(q_min.mean()),
            "log_prob_mean": float(log_probs.mean()), "draws": draws}
    return loss, grads, info


# ---------------------------------------------------------------------------
# Checkpointing.

def save_policy(path, policy: TanhGaussianPolicy,
                extra_meta: dict | None = None) -> None:
    meta = {
        "kind": "policy",
        "state_dim": policy.state_dim,
        "action_dim": policy.action_dim,
        "hidden_widths": list(policy.trunk.widths[1:-1]),
        "action_scale": policy.action_scale.tolist(),
        "action_offset": policy.action_offset.tolist(),
        "log_std_min": policy.log_std_min,
        "log_std_max": policy.log_std_max,
    }
    meta.update(extra_meta or {})
    save_params(path, policy.get_params(), meta)


_CHECKPOINT_SCHEMA = {"state_dim": POSITIVE, "action_dim": POSITIVE,
                      "hidden_widths": WIDTHS, "action_scale": FINITE_LIST,
                      "action_offset": FINITE_LIST, "log_std_min": FINITE,
                      "log_std_max": FINITE}


def load_policy(path) -> tuple[TanhGaussianPolicy, dict]:
    params, meta = load_params(path)
    check_checkpoint(meta, "policy", _CHECKPOINT_SCHEMA)
    for key in ("action_scale", "action_offset"):
        if len(meta[key]) != meta["action_dim"]:
            raise FormatError(f"policy checkpoint {key!r} has {len(meta[key])} "
                              f"entries for {meta['action_dim']} action dims")
    policy = TanhGaussianPolicy.init(
        int(meta["state_dim"]), int(meta["action_dim"]),
        tuple(meta["hidden_widths"]), np.random.default_rng(0),
        np.asarray(meta["action_scale"]), np.asarray(meta["action_offset"]))
    policy.log_std_min = float(meta["log_std_min"])
    policy.log_std_max = float(meta["log_std_max"])
    check_layout(params, policy.get_params(), "policy")
    policy.set_params(params)
    return policy, meta
