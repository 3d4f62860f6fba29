"""Each output check passes on rvf's real outputs and fails when one
parameter or one returned value is perturbed."""

import os

import numpy as np
import pytest
import refs
from rvf.actor import TanhGaussianPolicy, save_policy
from rvf.bnn_critic import EnsembleCritic, q_samples, save_critic
from rvf.envs_data import make_env
from rvf.harness import evaluate_policy
from rvf.linear_mdp import (FeatureDataset, lsvi_solve, optimal_values,
                            random_linear_mdp)

CSV = (b"step,bellman,kl,ood_std,in_dist_std,eval_return_mean,eval_return_std\n"
       b"0,1.0,2.0,3.0,4.0,-5.0,0.5\n250,0.5,2.0,3.0,4.0,-4.0,0.5\n")


def _bump(params: dict, key: str, delta: float = 1e-3) -> dict:
    out = {k: np.array(v) for k, v in params.items()}
    out[key].reshape(-1)[0] += delta
    return out


def test_metrics_csv_checks():
    assert refs.check_metrics_csv("c", CSV, 2).ok
    assert not refs.check_metrics_csv("c", CSV, 3).ok
    assert not refs.check_metrics_csv("c", CSV.replace(b"-4.0", b"nan"), 2).ok
    assert not refs.check_metrics_csv("c", CSV.replace(b"kl", b"KL"), 2).ok
    short = CSV.split(b"\n250")[0] + b"\n"
    assert refs.check_prefix("p", CSV, short).ok
    assert not refs.check_prefix("p", CSV, short.replace(b"2.0", b"2.1")).ok
    assert refs.check_identical("i", [CSV, CSV]).ok
    assert not refs.check_identical("i", [CSV, CSV[:-2] + b"6\n"]).ok


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "layernorm"])
def saved_critic(request, tmp_path_factory):
    rng = np.random.default_rng(3)
    critic = EnsembleCritic.init(2, 1, (6, 5), 2, rng, layer_norm=request.param)
    for head in critic.heads:
        head.raw_scale = rng.normal(size=head.raw_scale.shape)
    path = os.path.join(tmp_path_factory.mktemp("ckpt"), "critic.ckpt")
    save_critic(path, critic, 4)
    params, meta = refs.read_param_file(path)
    states, actions = rng.normal(size=(9, 2)), rng.uniform(-1, 1, size=(9, 1))
    draws = rng.standard_normal((2, 4, critic.d + 1))
    values = q_samples(critic, states, actions, 4, None, draws=draws).values
    return values, params, meta, states, actions, draws


def test_q_value_check(saved_critic):
    values, params, meta, states, actions, draws = saved_critic
    assert refs.check_q_values("q", values, params, meta, states, actions, draws).ok
    for key in ("m1/feature/w0", "m0/head/mean", "m0/head/raw_scale"):
        assert not refs.check_q_values("q", values, _bump(params, key), meta,
                                       states, actions, draws).ok
    bad = values.copy()
    bad[4, 1, 2] += 1e-6
    assert not refs.check_q_values("q", bad, params, meta, states, actions, draws).ok


def test_directional_gradient_check():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])

    def loss(p):
        x = p["x"]
        return float(0.5 * x @ a @ x + np.sum(np.maximum(p["y"], 0.0)))

    params = {"x": np.array([0.3, -1.2]), "y": np.array([0.7, -0.4])}
    grads = {"x": a @ params["x"], "y": np.array([1.0, 0.0])}
    rng = np.random.default_rng(0)
    assert refs.check_directional_grads("g", loss, params, grads, rng).ok
    for key in ("x", "y"):
        assert not refs.check_directional_grads("g", loss, params,
                                                _bump(grads, key), rng).ok


def test_eval_return_check(tmp_path):
    rng = np.random.default_rng(4)
    env = make_env("point-mass-1d")
    policy = TanhGaussianPolicy.init(2, 1, (8, 8), rng,
                                     action_scale=[1.0], action_offset=[0.0])
    path = os.path.join(tmp_path, "policy.ckpt")
    save_policy(path, policy)
    params, meta = refs.read_param_file(path)
    mean, std = evaluate_policy(env, policy, 4, [9, 1])
    assert refs.check_eval_returns("e", mean, std, params, meta, 4, [9, 1]).ok
    assert not refs.check_eval_returns("e", mean + 1e-6, std, params, meta, 4,
                                       [9, 1]).ok
    assert not refs.check_eval_returns("e", mean, std, _bump(params, "trunk/b0"),
                                       meta, 4, [9, 1]).ok
    assert not refs.check_eval_returns("e", mean, std, params, meta, 4, [9, 2]).ok


def test_lsvi_and_optimal_value_checks():
    rng = np.random.default_rng(6)
    feats, y = rng.uniform(size=(30, 4)), rng.normal(size=30)
    mean = lsvi_solve(FeatureDataset(feats, y), 1.0).mean
    assert refs.check_lsvi_mean("l", mean, feats, y, 1.0).ok
    assert not refs.check_lsvi_mean("l", mean + np.array([0, 1e-6, 0, 0]),
                                    feats, y, 1.0).ok

    mdp = random_linear_mdp(4, 2, 3, rng, horizon=3)
    v1 = optimal_values(mdp)[1][0, 0]
    args = (mdp.features, mdp.next_state_features, mdp.reward_weights, 3,
            mdp.gamma, 0)
    assert refs.check_optimal_value("v", v1, *args).ok
    assert not refs.check_optimal_value("v", v1 + 1e-7, *args).ok


def test_study_and_verify_checks():
    assert refs.check_coverage("c", [0.1, 0.5, 0.96]).ok
    assert not refs.check_coverage("c", [0.1, 0.97, 0.96]).ok
    assert not refs.check_coverage("c", [0.1, 0.5, 0.94]).ok
    assert refs.check_gap("g", 95, 100).ok
    assert not refs.check_gap("g", 94, 100).ok
    text = "lsvi  PASS\nall 12 checks passed\n"
    assert refs.check_verify("v", 0, text).ok
    assert not refs.check_verify("v", 1, text).ok
    assert not refs.check_verify("v", 0, "lsvi  FAIL\n").ok
