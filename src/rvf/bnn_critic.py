"""Ensemble critics with a diagonal-Gaussian Bayesian last layer.

Each member is an MLP feature extractor over (state, action) topped by a
stochastic linear head: the head weight (including a bias coordinate on an
always-1 feature) is w = mean + softplus(raw_scale) * z with z standard
normal, so value samples stay differentiable in the head parameters.
The critic loss combines the squared residual to a pessimistic target,
a KL pull toward the standard-normal prior, and a subtracted sample-spread
term on out-of-distribution actions; its gradients are derived by hand and
checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtri

from .errors import NumericError, ShapeError, UsageError
from .math_core import _LN_EPS, Mlp, Params, load_params, save_params


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inverse(y: float) -> float:
    # Inverse of log(1 + e^x); valid for y > 0.
    return float(np.log(np.expm1(y)))


@dataclass
class GaussianLastLayer:
    """Diagonal-Gaussian weight posterior for a linear value head.

    mean and raw_scale have length d+1 (the trailing coordinate multiplies a
    constant 1 feature and plays the role of the bias).  The positive scale
    is softplus(raw_scale), so it can approach but never cross zero.
    """

    mean: np.ndarray
    raw_scale: np.ndarray

    @classmethod
    def init(cls, d: int, rng: np.random.Generator, init_scale: float = 0.05) -> "GaussianLastLayer":
        mean = rng.normal(0.0, 1.0 / np.sqrt(d + 1), size=d + 1)
        raw = np.full(d + 1, softplus_inverse(init_scale))
        return cls(mean, raw)

    @property
    def scale(self) -> np.ndarray:
        return softplus(self.raw_scale)

    def get_params(self) -> Params:
        return {"mean": self.mean, "raw_scale": self.raw_scale}

    def set_params(self, params: Params) -> None:
        self.mean = np.asarray(params["mean"], dtype=np.float64)
        self.raw_scale = np.asarray(params["raw_scale"], dtype=np.float64)

    def copy(self) -> "GaussianLastLayer":
        return GaussianLastLayer(self.mean.copy(), self.raw_scale.copy())


def sample_weights(layer: GaussianLastLayer, n: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n reparameterized weight draws; returns (weights, noise), both (n, d+1)."""
    if n < 1:
        raise UsageError("need at least one weight sample")
    z = rng.standard_normal((n, layer.mean.shape[0]))
    return layer.mean + layer.scale * z, z


def kl_to_prior(layer: GaussianLastLayer) -> float:
    """Closed-form KL(N(mean, diag scale^2) || N(0, I))."""
    var = layer.scale ** 2
    return float(0.5 * np.sum(var + layer.mean ** 2 - 1.0 - np.log(var)))


def lcb_alpha(n_draws: int) -> float:
    """Gaussian inverse-CDF factor relating E[min of n_draws samples] to
    mean - alpha * std (Blom-style approximation for the minimum order
    statistic)."""
    if n_draws < 1:
        raise UsageError("n_draws must be >= 1")
    ratio = (n_draws - np.pi / 8.0) / (n_draws - np.pi / 4.0 + 1.0)
    return float(ndtri(ratio))


def repulsive_term(samples) -> float:
    """Population standard deviation of one row of pooled value samples."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.shape[0] < 2:
        raise UsageError("repulsive term needs at least two samples")
    return float(np.std(samples))


@dataclass
class QSampleBatch:
    """Sampled values, shape (batch, members, draws), plus the noise used."""

    values: np.ndarray
    draws: np.ndarray   # (members, draws, d+1)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise NumericError("non-finite value samples")


class EnsembleCritic:
    """M feature networks, each with a Gaussian head, plus target copies."""

    def __init__(self, state_dim: int, action_dim: int, members: list[Mlp],
                 heads: list[GaussianLastLayer], target_members: list[Mlp],
                 target_heads: list[GaussianLastLayer]):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.feature_nets = members
        self.heads = heads
        self.target_feature_nets = target_members
        self.target_heads = target_heads
        self.d = members[0].widths[-1]

    @classmethod
    def init(cls, state_dim: int, action_dim: int, hidden_widths,
             n_members: int, rng: np.random.Generator,
             layer_norm: bool = False, init_scale: float = 0.05) -> "EnsembleCritic":
        if n_members < 1:
            raise UsageError("need at least one ensemble member")
        widths = (state_dim + action_dim, *hidden_widths)
        nets, heads = [], []
        for _ in range(n_members):
            # Features are the post-activation output of the hidden stack.
            nets.append(Mlp.init(widths, rng, final_activation="relu",
                                 layer_norm=layer_norm))
            heads.append(GaussianLastLayer.init(widths[-1], rng, init_scale))
        return cls(state_dim, action_dim, nets, heads,
                   [n.copy() for n in nets], [h.copy() for h in heads])

    @property
    def n_members(self) -> int:
        return len(self.feature_nets)

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.feature_nets[0].widths[1:]

    def member_params(self, j: int) -> Params:
        params = {f"feature/{k}": v for k, v in self.feature_nets[j].get_params().items()}
        params.update({f"head/{k}": v for k, v in self.heads[j].get_params().items()})
        return params

    def set_member_params(self, j: int, params: Params) -> None:
        self.feature_nets[j].set_params(
            {k.removeprefix("feature/"): v for k, v in params.items()
             if k.startswith("feature/")})
        self.heads[j].set_params(
            {k.removeprefix("head/"): v for k, v in params.items()
             if k.startswith("head/")})

    def target_member_params(self, j: int) -> Params:
        params = {f"feature/{k}": v
                  for k, v in self.target_feature_nets[j].get_params().items()}
        params.update({f"head/{k}": v
                       for k, v in self.target_heads[j].get_params().items()})
        return params

    def set_target_member_params(self, j: int, params: Params) -> None:
        self.target_feature_nets[j].set_params(
            {k.removeprefix("feature/"): v for k, v in params.items()
             if k.startswith("feature/")})
        self.target_heads[j].set_params(
            {k.removeprefix("head/"): v for k, v in params.items()
             if k.startswith("head/")})

    def get_all_params(self) -> Params:
        out: Params = {}
        for j in range(self.n_members):
            out.update({f"m{j}/{k}": v for k, v in self.member_params(j).items()})
            out.update({f"t{j}/{k}": v for k, v in self.target_member_params(j).items()})
        return out

    def set_all_params(self, params: Params) -> None:
        for j in range(self.n_members):
            self.set_member_params(
                j, {k.removeprefix(f"m{j}/"): v for k, v in params.items()
                    if k.startswith(f"m{j}/")})
            self.set_target_member_params(
                j, {k.removeprefix(f"t{j}/"): v for k, v in params.items()
                    if k.startswith(f"t{j}/")})


# ---------------------------------------------------------------------------
# Ensemble evaluation.  Every member's feature net has the same widths and
# relu units, with affine layer norm on the hidden layers when enabled, so the
# whole ensemble runs as one stack of broadcasted (M, B, *) matmuls.
# ensemble_values and ensemble_value_grads are the critic's only forward and
# backward: sampled values, the critic loss, and the actor's action gradient
# all go through them.  math_core.forward/backward, one member at a time,
# remain the reference the tests compare them against.

def _stack_nets(nets: list[Mlp]):
    """Member-stacked parameters: per layer, weights (M, din, dout) and biases
    (M, 1, dout); per hidden layer, layer-norm gains and shifts (M, 1, dout)
    (empty lists without layer norm)."""
    def per_layer(arrays) -> list[np.ndarray]:
        return [np.array(group) for group in zip(*arrays)]

    weights = per_layer(net.weights for net in nets)
    biases = [b[:, None, :] for b in per_layer(net.biases for net in nets)]
    if not nets[0].layer_norm:
        return weights, biases, [], []
    gains = [g[:, None, :] for g in per_layer(net.ln_gains for net in nets)]
    shifts = [b[:, None, :] for b in per_layer(net.ln_biases for net in nets)]
    return weights, biases, gains, shifts


def _stacked_forward(stack, x: np.ndarray):
    """Relu forward of every member on a shared (B, d0) input; layer norm
    (population variance, _LN_EPS) on the hidden layers that have gains."""
    weights, biases, gains, shifts = stack
    a = x
    pre, post, norms = [], [], []
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = np.matmul(a, W) + b        # (M, B, dout)
        if i < len(gains):
            # Same operations as np.var, sharing the centered values.
            centered = h - h.mean(axis=2, keepdims=True)
            var = (centered * centered).mean(axis=2, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + _LN_EPS)
            y = centered * inv_std
            norms.append((y, inv_std))
            h = gains[i] * y + shifts[i]
        a = np.maximum(h, 0.0)
        pre.append(h)
        post.append(a)
    return a, (x, pre, post, norms)


def _stacked_backward(stack, cache, g: np.ndarray):
    """Backward through _stacked_forward; g has shape (M, B, d_last).

    Returns the parameter gradients keyed as in Mlp.get_params, each stacked
    over members, and the per-member input gradient (M, B, d0).
    """
    weights, _, gains, _ = stack
    x, pre, post, norms = cache
    grads: Params = {}
    for i in reversed(range(len(weights))):
        g = g * (pre[i] > 0.0)
        if i < len(gains):
            y, inv_std = norms[i]
            grads[f"ln_b{i}"] = g.sum(axis=1)
            grads[f"ln_g{i}"] = (g * y).sum(axis=1)
            gy = g * gains[i]
            g = inv_std * (gy - gy.mean(axis=2, keepdims=True)
                           - y * (gy * y).mean(axis=2, keepdims=True))
        inp = post[i - 1] if i > 0 else x
        if inp.ndim == 2:
            grads[f"w{i}"] = np.matmul(inp.T, g)
        else:
            grads[f"w{i}"] = np.matmul(inp.transpose(0, 2, 1), g)
        grads[f"b{i}"] = g.sum(axis=1)
        g = np.matmul(g, weights[i].transpose(0, 2, 1))
    return grads, g


def _head_tensors(heads: list[GaussianLastLayer]):
    """Member-stacked head means, raw scales and scales, each (M, d+1)."""
    raws = np.array([h.raw_scale for h in heads])
    return np.array([h.mean for h in heads]), raws, softplus(raws)


def _stack_inputs(critic: EnsembleCritic, states, actions) -> np.ndarray:
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    if states.shape[1] != critic.state_dim or actions.shape[1] != critic.action_dim:
        raise ShapeError(f"state/action dims {states.shape[1]}/{actions.shape[1]} "
                         f"do not match critic ({critic.state_dim}/{critic.action_dim})")
    if states.shape[0] != actions.shape[0]:
        raise ShapeError("states and actions disagree on batch size")
    return np.concatenate([states, actions], axis=1)


@dataclass
class EnsembleCache:
    """What ensemble_value_grads needs from one ensemble_values call."""

    stack: tuple
    activations: tuple
    w: np.ndarray    # (members, n, d+1) sampled head weights
    z: np.ndarray    # (members, n, d+1) head noise


def ensemble_values(critic: EnsembleCritic, states, actions, z: np.ndarray,
                    use_target: bool = False) -> tuple[np.ndarray, EnsembleCache]:
    """Value samples phi(s,a)^T w of every member under head noise z
    (members, n, d+1): returns values (B, members, n) and the cache for
    ensemble_value_grads."""
    x = _stack_inputs(critic, states, actions)
    nets = critic.target_feature_nets if use_target else critic.feature_nets
    heads = critic.target_heads if use_target else critic.heads
    stack = _stack_nets(nets)
    feats, cache = _stacked_forward(stack, x)                  # (M, B, d)
    means, _, scales = _head_tensors(heads)
    w = means[:, None, :] + scales[:, None, :] * z            # (M, n, d+1)
    q = np.matmul(feats, w[:, :, :-1].transpose(0, 2, 1)) + w[:, None, :, -1]
    # A (B, M, n) view of the (M, B, n) product; the backward transposes back.
    return q.transpose(1, 0, 2), EnsembleCache(stack, cache, w, z)


def ensemble_value_grads(cache: EnsembleCache,
                         dvalues: np.ndarray) -> tuple[Params, np.ndarray]:
    """Backpropagate dloss/dvalues (B, members, n) through ensemble_values.

    Returns (grads, input_grad).  grads maps "feature/<param>", "head/mean"
    and "head/scale" (with respect to softplus(raw_scale)) to arrays stacked
    over members; input_grad (B, state_dim + action_dim) is the gradient with
    respect to the concatenated (state, action) input, summed over members.
    """
    dq = dvalues.transpose(1, 0, 2)                            # (M, B, n)
    feats = cache.activations[2][-1]
    z = cache.z
    dw_feat = np.matmul(dq.transpose(0, 2, 1), feats)          # (M, n, d)
    dw_bias = dq.sum(axis=1)                                   # (M, n)
    feat_grads, input_grads = _stacked_backward(
        cache.stack, cache.activations, np.matmul(dq, cache.w[:, :, :-1]))
    grads = {f"feature/{k}": v for k, v in feat_grads.items()}
    grads["head/mean"] = np.concatenate(
        [dw_feat.sum(axis=1), dw_bias.sum(axis=1)[:, None]], axis=1)
    grads["head/scale"] = np.concatenate(
        [(dw_feat * z[:, :, :-1]).sum(axis=1),
         (dw_bias * z[:, :, -1]).sum(axis=1)[:, None]], axis=1)
    return grads, input_grads.sum(axis=0)


def q_samples(critic: EnsembleCritic, states, actions, n: int,
              rng: np.random.Generator | None, use_target: bool = False,
              draws: np.ndarray | None = None) -> QSampleBatch:
    """Sampled values phi(s,a)^T w for every member and posterior draw.

    Passing a recorded (members, n, d+1) noise array replays those exact
    weight draws instead of consuming the generator.
    """
    if draws is None:
        draws = rng.standard_normal((critic.n_members, n, critic.d + 1))
    values, _ = ensemble_values(critic, states, actions, draws, use_target)
    return QSampleBatch(values.copy(), draws)


def pessimistic_target(critic: EnsembleCritic, rewards, next_states, dones,
                       policy, beta: float, gamma: float, n: int,
                       rng: np.random.Generator,
                       next_action_samples: int = 1) -> np.ndarray:
    """Backup target using target networks: reward plus the discounted minimum
    over all member/draw value samples at a policy action, with an entropy
    bonus -beta * log pi.  Terminal rows reduce to the reward."""
    rewards = np.asarray(rewards, dtype=np.float64).reshape(-1)
    dones = np.asarray(dones, dtype=np.float64).reshape(-1)
    next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float64))
    inner = np.zeros(rewards.shape[0])
    for _ in range(next_action_samples):
        actions, log_probs = policy.sample_batch(next_states, rng)
        qs = q_samples(critic, next_states, actions, n, rng, use_target=True)
        inner += qs.values.min(axis=(1, 2)) - beta * log_probs
    inner /= next_action_samples
    return rewards + gamma * (1.0 - dones) * inner


@dataclass
class CriticDraws:
    """Reparameterization noise for one critic step, kept for replay."""

    z_data: np.ndarray   # (members, n, d+1)
    z_ood: np.ndarray    # (members, n, d+1)


def draw_critic_noise(critic: EnsembleCritic, n: int,
                      rng: np.random.Generator) -> CriticDraws:
    shape = (critic.n_members, n, critic.d + 1)
    return CriticDraws(rng.standard_normal(shape), rng.standard_normal(shape))


def _pooled_std_grads(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row population std over the trailing axes of (B, M, n) values and
    its gradient with respect to every sample (zero where the std is zero)."""
    B = values.shape[0]
    flat = values.reshape(B, -1)
    n_pool = flat.shape[1]
    centered = flat - flat.mean(axis=1, keepdims=True)
    std = np.sqrt((centered ** 2).mean(axis=1))
    safe = np.where(std > 0.0, std, 1.0)
    grad = centered / (n_pool * safe[:, None])
    grad[std == 0.0] = 0.0
    return std, grad.reshape(values.shape)


def pooled_stds(values: np.ndarray, pooling: str) -> np.ndarray:
    """Per-row sample spread of (B, M, n) values: the std of all M*n samples
    ("joint") or the members' mean std over their own n draws ("per-member")."""
    if pooling == "joint":
        return _pooled_std_grads(values)[0]
    B, M, n = values.shape
    std, _ = _pooled_std_grads(values.reshape(B * M, 1, n))
    return std.reshape(B, M).mean(axis=1)


def ensemble_critic_losses(critic: EnsembleCritic, states, actions, targets,
                           ood_states, ood_actions, eta_q: float,
                           eta_ood: float, kl_scale: float,
                           n: int | None = None,
                           rng: np.random.Generator | None = None,
                           draws: CriticDraws | None = None,
                           pooling: str = "joint", members=None) -> dict:
    """Loss, gradients, and term breakdown for the requested members.

    Noise comes either from (n, rng) or from a recorded CriticDraws (for
    replay); the draws used are echoed back in every member's info dict.
    Targets are treated as constants.  The spread term pools samples either
    across the whole ensemble ("joint") or per member ("per-member"); in both
    modes member j's gradient only flows through its own samples, features,
    and head.  Returns {member: (loss, grads, info)}.
    """
    if pooling not in ("joint", "per-member"):
        raise UsageError(f"unknown pooling mode {pooling!r}")
    if draws is None:
        if n is None or rng is None:
            raise UsageError("pass either draws or both n and rng")
        draws = draw_critic_noise(critic, n, rng)
    members = list(range(critic.n_members)) if members is None else list(members)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    values, cache = ensemble_values(critic, states, actions, draws.z_data)
    if targets.shape[0] != values.shape[0]:
        raise ShapeError("targets do not match the batch size")
    if not np.all(np.isfinite(targets)):
        raise NumericError("critic loss is non-finite (bellman term: bad targets)")

    q = values.transpose(1, 0, 2)                              # (M, B, n)
    M, B, n = q.shape
    err = q - targets[None, :, None]
    bellman_each = (err ** 2).mean(axis=(1, 2))
    grads, _ = ensemble_value_grads(
        cache, ((2.0 * eta_q / (B * n)) * err).transpose(1, 0, 2))

    means, raws, scales = _head_tensors(critic.heads)         # (M, d+1)
    var = scales ** 2
    kl_each = 0.5 * (var + means ** 2 - 1.0 - np.log(var)).sum(axis=1)
    grads["head/mean"] = grads["head/mean"] + eta_q * kl_scale * means
    grads["head/scale"] = grads["head/scale"] \
        + eta_q * kl_scale * (scales - 1.0 / scales)

    ood_std_each = np.zeros(M)
    have_ood = ood_states is not None and len(np.atleast_1d(ood_states)) > 0
    if have_ood:
        values_o, cache_o = ensemble_values(critic, ood_states, ood_actions,
                                            draws.z_ood)
        B_ood, _, n_ood = values_o.shape
        if pooling == "joint":
            std, dvalues = _pooled_std_grads(values_o)
            ood_std_each[:] = std.mean()
        else:
            # Each member's draws at one row form a pool of their own.
            q_o = values_o.transpose(1, 0, 2)                  # (M, B_ood, n)
            std, g = _pooled_std_grads(q_o.reshape(M * B_ood, 1, n_ood))
            ood_std_each = std.reshape(M, B_ood).mean(axis=1)
            dvalues = g.reshape(M, B_ood, n_ood).transpose(1, 0, 2)
        grads_o, _ = ensemble_value_grads(cache_o, (-eta_ood / B_ood) * dvalues)
        grads = {k: grads[k] + grads_o[k] for k in grads}

    grads["head/raw_scale"] = grads.pop("head/scale") * expit(raws)
    losses = eta_q * (bellman_each + kl_scale * kl_each) - eta_ood * ood_std_each
    results = {}
    for j in members:
        if not np.isfinite(losses[j]):
            term = "bellman" if not np.isfinite(bellman_each[j]) else (
                "kl" if not np.isfinite(kl_each[j]) else "ood-std")
            raise NumericError(f"critic loss for member {j} is non-finite ({term} term)")
        results[j] = (float(losses[j]), {k: v[j] for k, v in grads.items()},
                      {"bellman": float(bellman_each[j]), "kl": float(kl_each[j]),
                       "ood_std": float(ood_std_each[j]), "draws": draws})
    return results


def critic_loss(critic: EnsembleCritic, member: int, states, actions, targets,
                ood_states, ood_actions, eta_q: float, eta_ood: float,
                kl_scale: float, n: int | None = None,
                rng: np.random.Generator | None = None,
                draws: CriticDraws | None = None, pooling: str = "joint"):
    """Single-member view of ensemble_critic_losses; same math, same noise."""
    out = ensemble_critic_losses(critic, states, actions, targets, ood_states,
                                 ood_actions, eta_q, eta_ood, kl_scale,
                                 n, rng, draws, pooling, members=[member])
    return out[member]


# ---------------------------------------------------------------------------
# Checkpointing.

def save_critic(path, critic: EnsembleCritic, n_posterior_samples: int,
                extra_meta: dict | None = None) -> None:
    meta = {
        "kind": "critic",
        "state_dim": critic.state_dim,
        "action_dim": critic.action_dim,
        "hidden_widths": list(critic.hidden_widths),
        "members": critic.n_members,
        "feature_dim": critic.d,
        "posterior_samples": n_posterior_samples,
        "layer_norm": critic.feature_nets[0].layer_norm,
    }
    meta.update(extra_meta or {})
    save_params(path, critic.get_all_params(), meta)


def load_critic(path) -> tuple[EnsembleCritic, dict]:
    params, meta = load_params(path)
    critic = EnsembleCritic.init(
        int(meta["state_dim"]), int(meta["action_dim"]),
        tuple(meta["hidden_widths"]), int(meta["members"]),
        np.random.default_rng(0), layer_norm=bool(meta.get("layer_norm", False)))
    critic.set_all_params(params)
    return critic, meta
