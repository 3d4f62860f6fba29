"""Reference computations made apart from rvf, and the output checks.

Nothing here calls rvf: parameter files are parsed from their documented
layout, networks, point-mass dynamics, ridge fits and dynamic programming
are written out again in plain numpy.  Every check is a pure function of
program outputs and returns a Check, so each can be fed a perturbed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

LN_EPS = 1e-6   # README: affine layer norm on hidden layers


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Parameter files: 8-byte little-endian header length, JSON header with the
# entry names and shapes, then little-endian float64 entries in that order.

def read_param_file(path) -> tuple[dict, dict]:
    with open(path, "rb") as f:
        raw = f.read()
    hlen = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8:8 + hlen])
    params, pos = {}, 8 + hlen
    for entry in header["entries"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        params[entry["name"]] = np.frombuffer(
            raw, dtype="<f8", count=size, offset=pos).reshape(shape)
        pos += 8 * size
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} bytes after the last entry")
    return params, header["meta"]


def mlp_forward(params: dict, prefix: str, x: np.ndarray, final: str,
                layer_norm: bool = False) -> np.ndarray:
    """Dense relu network: w{i}, b{i} per layer; layer norm (ln_g{i}, ln_b{i})
    before the relu of every hidden layer; `final` is relu or identity."""
    n_layers = sum(1 for k in params if k.startswith(prefix + "w"))
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for i in range(n_layers):
        h = a @ params[f"{prefix}w{i}"] + params[f"{prefix}b{i}"]
        last = i == n_layers - 1
        if layer_norm and not last:
            mu = h.mean(axis=1, keepdims=True)
            var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
            h = (params[f"{prefix}ln_g{i}"] * (h - mu) / np.sqrt(var + LN_EPS)
                 + params[f"{prefix}ln_b{i}"])
        a = h if (last and final == "identity") else np.maximum(h, 0.0)
    return a


def softplus(x):
    return np.logaddexp(0.0, x)


def critic_sample_values(params: dict, meta: dict, states, actions,
                         draws: np.ndarray) -> np.ndarray:
    """phi(s,a)^T (mean + softplus(raw_scale) * z) for every member and
    recorded draw; phi is the member's relu features plus a constant 1.
    Returns (rows, members, draws)."""
    x = np.concatenate([np.atleast_2d(states), np.atleast_2d(actions)], axis=1)
    out = np.empty((x.shape[0], int(meta["members"]), draws.shape[1]))
    for j in range(out.shape[1]):
        feats = mlp_forward(params, f"m{j}/feature/", x, "relu",
                            bool(meta.get("layer_norm", False)))
        phi = np.concatenate([feats, np.ones((x.shape[0], 1))], axis=1)
        w = params[f"m{j}/head/mean"] + softplus(params[f"m{j}/head/raw_scale"]) \
            * draws[j]
        out[:, j, :] = phi @ w.T
    return out


def policy_mode_action(params: dict, meta: dict, state) -> np.ndarray:
    out = mlp_forward(params, "trunk/", state, "identity")[0]
    mu = out[:int(meta["action_dim"])]
    return np.asarray(meta["action_offset"]) + \
        np.asarray(meta["action_scale"]) * np.tanh(mu)


# Point mass (README / envs_data docs): state (position, velocity), force
# clipped to [-1, 1], semi-implicit Euler with dt 0.1, goal 1, horizon 50,
# reward -(pos - goal)^2 - 0.01 force^2, start position U(-0.1, 0.1) drawn
# from a generator keyed by (seed..., episode).

def pointmass_returns(params: dict, meta: dict, episodes: int,
                      seed_key) -> np.ndarray:
    returns = np.empty(episodes)
    for ep in range(episodes):
        rng = np.random.default_rng(np.random.SeedSequence([*seed_key, ep]))
        pos, vel, total = rng.uniform(-0.1, 0.1), 0.0, 0.0
        for _ in range(50):
            force = float(np.clip(policy_mode_action(params, meta,
                                                     np.array([pos, vel]))[0],
                                  -1.0, 1.0))
            vel = vel + 0.1 * force
            pos = pos + 0.1 * vel
            total += -((pos - 1.0) ** 2) - 0.01 * force ** 2
        returns[ep] = total
    return returns


def ridge_mean(features: np.ndarray, targets: np.ndarray,
               ridge: float) -> np.ndarray:
    """Ridge fit as ordinary least squares on rows augmented with sqrt(ridge) I."""
    d = features.shape[1]
    a = np.vstack([features, np.sqrt(ridge) * np.eye(d)])
    b = np.concatenate([targets, np.zeros(d)])
    return np.linalg.lstsq(a, b, rcond=None)[0]


def optimal_start_value(features, next_state_features, reward_weights,
                        horizon: int, gamma: float, start: int) -> float:
    """V*(s1) by plain-loop backward induction on P = psi phi^T, r = psi u."""
    S, A, d = features.shape
    V = [0.0] * S
    for _ in range(horizon):
        V_new = []
        for s in range(S):
            best = -np.inf
            for a in range(A):
                q = sum(features[s, a, k] * reward_weights[k] for k in range(d))
                for s2 in range(S):
                    p = sum(features[s, a, k] * next_state_features[s2, k]
                            for k in range(d))
                    q += gamma * p * V[s2]
                best = max(best, q)
            V_new.append(best)
        V = V_new
    return V[start]


# ---------------------------------------------------------------------------
# Checks.

def _close(a, b, rtol: float, atol: float) -> tuple[bool, float]:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    err = float(np.max(np.abs(a - b), initial=0.0))
    ok = a.shape == b.shape and bool(np.all(np.abs(a - b)
                                            <= atol + rtol * np.abs(b)))
    return ok, err


def check_metrics_csv(name: str, text: bytes, rows: int) -> Check:
    """Header plus `rows` lines of finite values, the step column first."""
    lines = text.decode().splitlines()
    header_ok = lines[:1] == ["step,bellman,kl,ood_std,in_dist_std,"
                              "eval_return_mean,eval_return_std"]
    try:
        vals = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
    except ValueError:
        return Check(name, False, "unparsable metrics row")
    ok = header_ok and vals.shape == (rows, 7) and bool(np.all(np.isfinite(vals)))
    return Check(name, ok, f"{len(lines) - 1} rows (want {rows}), "
                           f"header {'ok' if header_ok else 'wrong'}")


def check_prefix(name: str, long_csv: bytes, short_csv: bytes) -> Check:
    ok = len(short_csv) > 0 and long_csv.startswith(short_csv)
    return Check(name, ok, f"short run's {len(short_csv.splitlines())} lines "
                           f"{'are' if ok else 'are not'} a byte prefix")


def check_identical(name: str, items: list) -> Check:
    same = all(x == items[0] for x in items[1:])
    return Check(name, same, f"{len(items)} repeats "
                             f"{'identical' if same else 'differ'}")


def check_q_values(name: str, program_values, params, meta, states, actions,
                   draws) -> Check:
    ref = critic_sample_values(params, meta, states, actions, draws)
    ok, err = _close(program_values, ref, 1e-9, 1e-9)
    return Check(name, ok, f"max |q - phi^T(mu+sigma z)| {err:.2e} "
                           f"over {ref.size} samples")


def check_eval_returns(name: str, program_mean: float, program_std: float,
                       params, meta, episodes: int, seed_key) -> Check:
    ref = pointmass_returns(params, meta, episodes, seed_key)
    ok, err = _close([program_mean, program_std], [ref.mean(), ref.std()],
                     1e-9, 1e-9)
    return Check(name, ok, f"mean {program_mean:.6f} vs {ref.mean():.6f}, "
                           f"max dev {err:.2e}")


def check_directional_grads(name: str, loss_fn, params: dict, grads: dict,
                            rng, directions: int = 3,
                            steps=(1e-6, 1e-7, 1e-8), rtol: float = 1e-4) -> Check:
    """Central differences of loss_fn along random directions against
    grads . v.  A direction passes at the first step that agrees: a relu or
    min kink within the step can spoil one step, never all of them."""
    worst = 0.0
    for _ in range(directions):
        v = {k: rng.standard_normal(np.shape(g)) for k, g in grads.items()}
        analytic = sum(float(np.sum(grads[k] * v[k])) for k in grads)
        best = np.inf
        for h in steps:
            plus = {k: p + h * v[k] if k in v else p for k, p in params.items()}
            minus = {k: p - h * v[k] if k in v else p for k, p in params.items()}
            numeric = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
            best = min(best, abs(numeric - analytic)
                       / max(abs(numeric), abs(analytic), 1e-8))
            if best <= rtol:
                break
        worst = max(worst, best)
    return Check(name, worst <= rtol, f"worst directional rel err {worst:.2e} "
                                      f"({directions} directions)")


def check_lsvi_mean(name: str, program_mean, features, targets,
                    ridge: float) -> Check:
    ok, err = _close(program_mean, ridge_mean(features, targets, ridge),
                     1e-8, 1e-10)
    return Check(name, ok, f"max |mean - lstsq ridge| {err:.2e}")


def check_optimal_value(name: str, program_v1: float, features,
                        next_state_features, reward_weights, horizon, gamma,
                        start) -> Check:
    ref = optimal_start_value(features, next_state_features, reward_weights,
                              horizon, gamma, start)
    ok, err = _close(program_v1, ref, 1e-10, 1e-10)
    return Check(name, ok, f"V*(s1) {program_v1:.10f} vs loop DP {ref:.10f}")


def check_coverage(name: str, tuple_coverage) -> Check:
    cov = np.asarray(tuple_coverage, dtype=np.float64)
    monotone = bool(np.all(np.diff(cov) >= 0.0))
    ok = monotone and cov.max() >= 0.95
    return Check(name, ok, f"monotone={monotone}, max coverage {cov.max():.4f}")


def check_gap(name: str, held: int, trials: int) -> Check:
    return Check(name, held >= 0.95 * trials,
                 f"gap <= bound in {held}/{trials} trials")


def check_verify(name: str, exit_code: int, output: str) -> Check:
    ok = exit_code == 0 and "checks passed" in output and "FAIL" not in output
    return Check(name, ok, f"exit {exit_code}")
