"""The benchmark's own reference computations against hand-computed values
and against rvf, which they must agree with while sharing no code."""

import numpy as np
import pytest
import refs
from rvf.linear_mdp import random_linear_mdp
from rvf.math_core import Mlp, forward

TINY = {"w0": np.array([[1.0, -1.0], [2.0, 0.0]]), "b0": np.array([0.5, 0.0]),
        "w1": np.array([[1.0], [1.0]]), "b1": np.array([-0.5])}


def test_mlp_forward_matches_hand_computation():
    # h0 = [1 + 2 + 0.5, -1 + 0] = [3.5, -1] -> relu [3.5, 0] -> 3.5 - 0.5
    out = refs.mlp_forward(TINY, "", np.array([1.0, 1.0]), "identity")
    assert out.tolist() == [[3.0]]
    neg = dict(TINY, b1=np.array([-4.0]))
    assert refs.mlp_forward(neg, "", np.array([1.0, 1.0]), "relu").tolist() == [[0.0]]
    assert refs.mlp_forward(neg, "", np.array([1.0, 1.0]), "identity").tolist() == [[-0.5]]


def test_layer_norm_matches_hand_computation():
    # h0 = [3.5, -1]: mean 1.25, deviations +-2.25, so normalised [1, -1]
    # (up to the 1e-6 variance floor); gain [2, 1], bias [0, 0.5] -> [2, -0.5]
    # -> relu [2, 0] -> 2 - 0.5.
    params = dict(TINY, ln_g0=np.array([2.0, 1.0]), ln_b0=np.array([0.0, 0.5]))
    out = refs.mlp_forward(params, "", np.array([1.0, 1.0]), "identity",
                           layer_norm=True)
    assert out[0, 0] == pytest.approx(1.5, abs=1e-6)


def test_critic_head_values_match_hand_computation():
    # One member whose features are relu(x) of a 1x1 identity layer.
    params = {"m0/feature/w0": np.array([[1.0]]), "m0/feature/b0": np.array([0.0]),
              "m0/head/mean": np.array([2.0, 1.0]),
              "m0/head/raw_scale": np.array([0.0, np.log(np.e - 1.0)])}
    meta = {"members": 1}
    draws = np.array([[[1.0, 2.0]]])          # (members, n, d+1)
    # scale = [log 2, 1]; w = [2 + log 2, 1 + 2]; phi(3) = [3, 1]
    vals = refs.critic_sample_values(params, meta, np.array([[3.0]]),
                                     np.zeros((1, 0)), draws)
    assert vals[0, 0, 0] == pytest.approx(3 * (2 + np.log(2.0)) + 3.0)


@pytest.mark.parametrize("layer_norm", [False, True])
def test_mlp_forward_agrees_with_rvf(layer_norm):
    rng = np.random.default_rng(0)
    net = Mlp.init((3, 5, 4), rng, final_activation="relu", layer_norm=layer_norm)
    if layer_norm:
        net.ln_gains[0] = rng.normal(size=5)
        net.ln_biases[0] = rng.normal(size=5)
    x = rng.normal(size=(7, 3))
    ours = refs.mlp_forward(net.get_params(), "", x, "relu", layer_norm)
    theirs, _ = forward(net, x)
    np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=1e-12)


def test_optimal_start_value_on_hand_mdp():
    # Two states, two actions, d = 2 with one-hot features: action 0 stays,
    # action 1 moves to the other state.  Rewards 0 in state 0, 1 in state 1.
    feats = np.zeros((2, 2, 2))
    feats[0, 0, 0] = feats[0, 1, 1] = feats[1, 0, 1] = feats[1, 1, 0] = 1.0
    nsf = np.eye(2)                  # anchor k is next state k
    rw = np.array([0.0, 1.0])        # reward depends on the anchor reached
    # From state 0: best is to move (reward 1) then stay (reward 1): V = 2.
    assert refs.optimal_start_value(feats, nsf, rw, 2, 1.0, 0) == pytest.approx(2.0)
    assert refs.optimal_start_value(feats, nsf, rw, 1, 1.0, 0) == pytest.approx(1.0)


def test_optimal_start_value_agrees_with_rvf():
    from rvf.linear_mdp import optimal_values
    mdp = random_linear_mdp(4, 2, 3, np.random.default_rng(5), horizon=3)
    _, v, _ = optimal_values(mdp)
    ours = refs.optimal_start_value(mdp.features, mdp.next_state_features,
                                    mdp.reward_weights, 3, mdp.gamma, 0)
    assert ours == pytest.approx(v[0, 0], rel=1e-12)


def test_ridge_mean_closed_form():
    x = np.array([[1.0], [2.0]])
    y = np.array([1.0, 2.0])
    # (x^T x + 1)^-1 x^T y = 5 / 6
    assert refs.ridge_mean(x, y, 1.0)[0] == pytest.approx(5.0 / 6.0)
