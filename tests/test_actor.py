import numpy as np
import pytest

from rvf import oracles
from rvf.actor import (TanhGaussianPolicy, action_log_prob, actor_loss,
                       draw_actor_noise, load_policy, ood_actions,
                       sample_action, save_policy)
from rvf.bnn_critic import EnsembleCritic
from rvf.math_core import AdamState, adam_step


def make_policy(state_dim=2, action_dim=1, widths=(8, 8), seed=0, **kwargs):
    return TanhGaussianPolicy.init(state_dim, action_dim, widths,
                                   np.random.default_rng(seed), **kwargs)


def make_increasing_critic(state_dim=1, slope=1.0):
    """Single member whose value is exactly `slope * action` on the safe range."""
    critic = EnsembleCritic.init(state_dim, 1, (4,), 1, np.random.default_rng(0))
    net = critic.feature_nets[0]
    net.weights[0][:] = 0.0
    net.weights[0][state_dim, 0] = 1.0   # feature0 = relu(action + 10)
    net.biases[0][:] = 0.0
    net.biases[0][0] = 10.0
    critic.heads[0].mean[:] = 0.0
    critic.heads[0].mean[0] = slope
    critic.heads[0].mean[-1] = -10.0 * slope
    critic.heads[0].raw_scale[:] = -1e3
    return critic


class TestSampling:
    def test_deterministic_mode_is_squashed_mean(self):
        policy = make_policy(seed=3)
        state = np.array([0.2, -0.4])
        action, log_prob = sample_action(policy, state, np.random.default_rng(0),
                                         deterministic=True)
        mu, _, _ = policy.heads(state)
        assert np.allclose(action, np.tanh(mu[0]))
        assert log_prob is None

    def test_deterministic_batch_matches_rows(self):
        policy = make_policy(seed=6, action_scale=[0.5], action_offset=[0.25])
        states = np.random.default_rng(8).normal(size=(9, 2))
        batch = policy.act_deterministic(states)
        assert batch.shape == (9, 1)
        for i in range(9):
            single = policy.act_deterministic(states[i])
            assert single.shape == (1,)
            # one (9, 2) matmul vs nine (1, 2) ones: rounding may differ
            np.testing.assert_allclose(batch[i], single, rtol=1e-12, atol=1e-15)

    def test_trunk_arrays_are_views_of_the_flat_vector(self):
        policy = make_policy(seed=9)
        assert list(policy.params.views) == list(policy.get_params())
        for key, v in policy.get_params().items():
            assert np.shares_memory(v, policy.params.vector), key
        policy.trunk.biases[0] = np.full(8, 0.5)
        assert np.array_equal(policy.params.views["trunk/b0"], np.full(8, 0.5))
        policy.params.vector[:] = 0.0
        assert np.array_equal(policy.act_deterministic(np.ones(2)), [0.0])

    def test_fixed_seed_reproducible(self):
        policy = make_policy(seed=4)
        state = np.array([1.0, 0.0])
        a1, lp1 = sample_action(policy, state, np.random.default_rng(7))
        a2, lp2 = sample_action(policy, state, np.random.default_rng(7))
        assert np.array_equal(a1, a2) and lp1 == lp2

    def test_actions_stay_strictly_inside_box(self):
        policy = make_policy(seed=5, action_scale=[2.0], action_offset=[1.0])
        states = np.random.default_rng(1).normal(size=(200, 2))
        actions, _ = policy.sample_batch(states, np.random.default_rng(2))
        assert np.all(actions > -1.0) and np.all(actions < 3.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_density_integrates_to_one(self, seed):
        # 1-D quadrature of exp(log pi) over the action box.
        policy = make_policy(state_dim=1, seed=seed)
        state = np.random.default_rng(seed).normal(size=(1, 1))
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 20001)
        densities = np.exp(action_log_prob(
            policy, np.repeat(state, grid.shape[0], axis=0), grid[:, None]))
        integral = np.trapezoid(densities, grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_log_prob_consistent_with_sampler(self):
        policy = make_policy(seed=6)
        states = np.random.default_rng(3).normal(size=(10, 2))
        actions, log_probs = policy.sample_batch(states, np.random.default_rng(4))
        recomputed = action_log_prob(policy, states, actions)
        assert np.allclose(log_probs, recomputed, atol=1e-9)


class TestOodActions:
    def test_one_action_per_state(self):
        policy = make_policy()
        out = ood_actions(policy, np.zeros((5, 2)), 1, np.random.default_rng(0))
        assert out.shape == (5, 1, 1)

    def test_deterministic_limit_collapses_draws(self):
        policy = make_policy(seed=8)
        policy.log_std_min = policy.log_std_max = -50.0
        out = ood_actions(policy, np.zeros((3, 2)), 10, np.random.default_rng(1))
        assert np.allclose(out, out[:, :1, :], atol=1e-12)

    def test_wide_policy_spread_tracks_sigma(self):
        policy = make_policy(state_dim=1, widths=(4,), seed=9)
        # force mean 0 and log-std -2.3 so tanh is effectively linear
        policy.trunk.weights[0][:] = 0.0
        policy.trunk.weights[1][:] = 0.0
        policy.trunk.biases[0][:] = 1.0
        policy.trunk.biases[1][:] = [0.0, -2.3]
        out = ood_actions(policy, np.zeros((1, 1)), 10 ** 4,
                          np.random.default_rng(2))
        sigma = np.exp(-2.3)
        assert abs(out.std() - sigma) <= 0.1 * sigma


class TestActorLoss:
    def test_constant_critic_gives_flat_loss(self):
        c = 0.8
        critic = EnsembleCritic.init(2, 1, (4,), 2, np.random.default_rng(0))
        for net in critic.feature_nets:
            for w in net.weights:
                w[:] = 0.0
            for b in net.biases:
                b[:] = 0.0
        for head in critic.heads:
            head.mean[:] = 0.0
            head.mean[-1] = c
            head.raw_scale[:] = -1e3
        policy = make_policy(seed=10)
        states = np.random.default_rng(5).normal(size=(6, 2))
        draws = draw_actor_noise(policy, critic, 6, 3, np.random.default_rng(6))
        loss, grads, _ = actor_loss(policy, critic, states, beta=0.0, draws=draws)
        assert loss == pytest.approx(-c, abs=1e-12)
        assert all(np.allclose(g, 0.0, atol=1e-12) for g in grads.values())

    def test_degenerate_ensemble_matches_manual_objective(self):
        critic = EnsembleCritic.init(2, 1, (6,), 1, np.random.default_rng(11))
        critic.heads[0].raw_scale[:] = -1e3
        policy = make_policy(seed=12)
        states = np.random.default_rng(7).normal(size=(5, 2))
        draws = draw_actor_noise(policy, critic, 5, 1, np.random.default_rng(8))
        loss, _, _ = actor_loss(policy, critic, states, beta=0.4, draws=draws)
        mu, log_std, _ = policy.heads(states)
        sigma = np.exp(log_std)
        u = mu + sigma * draws.z_action
        actions = np.tanh(u)
        log_probs = action_log_prob(policy, states, actions)
        from rvf.math_core import forward
        feats, _ = forward(critic.feature_nets[0],
                           np.concatenate([states, actions], axis=1))
        q = feats @ critic.heads[0].mean[:-1] + critic.heads[0].mean[-1]
        assert loss == pytest.approx(float(np.mean(-q + 0.4 * log_probs)),
                                     abs=1e-9)

    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_gradients_match_finite_differences(self, layer_norm):
        critic = EnsembleCritic.init(2, 1, (6, 6), 2, np.random.default_rng(13),
                                     layer_norm=layer_norm)
        policy = make_policy(seed=14, widths=(6, 6))
        states = np.random.default_rng(9).normal(size=(5, 2))
        draws = draw_actor_noise(policy, critic, 5, 3, np.random.default_rng(10))
        _, grads, _ = actor_loss(policy, critic, states, beta=0.25, draws=draws)

        def loss_fn(params):
            policy.set_params(params)
            loss, _, _ = actor_loss(policy, critic, states, beta=0.25,
                                    draws=draws)
            return loss

        numeric = oracles.finite_difference(loss_fn, policy.get_params())
        assert oracles.relative_gradient_error(grads, numeric) <= 1e-3

    def test_critic_parameters_frozen(self):
        critic = EnsembleCritic.init(2, 1, (6,), 2, np.random.default_rng(15))
        policy = make_policy(seed=16)
        states = np.random.default_rng(11).normal(size=(4, 2))
        before = {k: v.copy() for k, v in critic.get_all_params().items()}
        _, grads, _ = actor_loss(policy, critic, states, beta=0.2, n=2,
                                 rng=np.random.default_rng(12))
        assert all(k.startswith("trunk/") for k in grads)
        after = critic.get_all_params()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_increasing_critic_pushes_mean_up(self):
        # Value = action exactly, so steps must monotonically raise the mean.
        critic = make_increasing_critic(state_dim=1)
        policy = make_policy(state_dim=1, widths=(4,), seed=17)
        state = np.array([[0.5]])
        opt = AdamState.init(policy.params, lr=1e-2)
        means = []
        for step in range(40):
            draws = draw_actor_noise(policy, critic, 1, 1,
                                     np.random.default_rng(step))
            _, grads, _ = actor_loss(policy, critic, state, beta=0.0,
                                     draws=draws)
            new_params, opt = adam_step(policy.params,
                                        policy.params.pack(grads), opt)
            policy.params.vector[:] = new_params
            means.append(float(policy.heads(state)[0][0, 0]))
        diffs = np.diff(np.asarray(means))
        assert np.all(diffs > 0.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        policy = make_policy(seed=18, action_scale=[0.5], action_offset=[0.25])
        path = tmp_path / "policy.ckpt"
        save_policy(path, policy, {"env": "point-mass-1d"})
        loaded, meta = load_policy(path)
        assert meta["env"] == "point-mass-1d"
        states = np.random.default_rng(13).normal(size=(4, 2))
        a1, _ = policy.sample_batch(states, np.random.default_rng(14))
        a2, _ = loaded.sample_batch(states, np.random.default_rng(14))
        assert np.array_equal(a1, a2)
