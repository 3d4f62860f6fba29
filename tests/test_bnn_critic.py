import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvf import oracles
from rvf.actor import TanhGaussianPolicy
from rvf.bnn_critic import (EnsembleCritic, GaussianLastLayer,
                            critic_loss, draw_critic_noise,
                            ensemble_critic_losses, kl_to_prior,
                            lcb_alpha, load_critic, pessimistic_target,
                            q_samples, repulsive_term, sample_weights,
                            save_critic, softplus_inverse)
from rvf.errors import NumericError, ShapeError, UsageError
from rvf.math_core import backward, forward


def make_critic(members=2, widths=(8, 8), state_dim=2, action_dim=1, seed=0,
                **kwargs):
    return EnsembleCritic.init(state_dim, action_dim, widths, members,
                               np.random.default_rng(seed), **kwargs)


def make_constant_critic(constants, state_dim=2, action_dim=1):
    """Members with zero features, so every sample equals the head bias."""
    critic = make_critic(members=len(constants), state_dim=state_dim,
                         action_dim=action_dim)
    for j, c in enumerate(constants):
        for nets, heads in ((critic.feature_nets, critic.heads),
                            (critic.target_feature_nets, critic.target_heads)):
            for w in nets[j].weights:
                w[:] = 0.0
            for b in nets[j].biases:
                b[:] = 0.0
            heads[j].mean[:] = 0.0
            heads[j].mean[-1] = c
            heads[j].raw_scale[:] = -50.0   # scale underflows to ~1e-22
    return critic


class TestSampleWeights:
    def test_zero_scale_limit_returns_mean(self):
        layer = GaussianLastLayer(np.array([1.0, -2.0, 0.5]), np.full(3, -1e3))
        w, _ = sample_weights(layer, 5, np.random.default_rng(0))
        assert np.array_equal(w, np.tile(layer.mean, (5, 1)))

    def test_standard_normal_moments(self):
        layer = GaussianLastLayer(np.zeros(3), np.full(3, softplus_inverse(1.0)))
        w, _ = sample_weights(layer, 10 ** 6, np.random.default_rng(1))
        assert np.all(np.abs(w.mean(axis=0)) <= 0.01)
        assert np.all(np.abs(w.std(axis=0) - 1.0) <= 0.01)

    def test_fixed_seed_reproducible(self):
        layer = GaussianLastLayer(np.zeros(2), np.zeros(2))
        w1, z1 = sample_weights(layer, 4, np.random.default_rng(9))
        w2, z2 = sample_weights(layer, 4, np.random.default_rng(9))
        assert np.array_equal(w1, w2) and np.array_equal(z1, z2)

    def test_reparameterization_identity(self):
        layer = GaussianLastLayer(np.array([0.3, -0.7]), np.array([0.2, -1.0]))
        w, z = sample_weights(layer, 8, np.random.default_rng(3))
        assert np.allclose(w, layer.mean + layer.scale * z)


class TestQSamples:
    def test_constant_member_all_samples_equal_bias(self):
        critic = make_constant_critic([3.25])
        qs = q_samples(critic, np.zeros((4, 2)), np.zeros((4, 1)), 6,
                       np.random.default_rng(0))
        assert np.allclose(qs.values, 3.25, atol=1e-12)

    def test_single_member_single_draw_is_plain_forward(self):
        critic = make_critic(members=1)
        critic.heads[0].raw_scale[:] = -1e3
        states = np.random.default_rng(1).normal(size=(3, 2))
        actions = np.random.default_rng(2).uniform(-1, 1, size=(3, 1))
        qs = q_samples(critic, states, actions, 1, np.random.default_rng(3))
        x = np.concatenate([states, actions], axis=1)
        feats, _ = forward(critic.feature_nets[0], x)
        manual = feats @ critic.heads[0].mean[:-1] + critic.heads[0].mean[-1]
        assert np.allclose(qs.values[:, 0, 0], manual, atol=1e-12)

    def test_sample_std_matches_analytic(self):
        critic = make_critic(members=2, seed=5)
        for head in critic.heads:
            head.raw_scale[:] = np.random.default_rng(6).uniform(-3, 0, head.raw_scale.shape)
        states = np.random.default_rng(7).normal(size=(5, 2))
        actions = np.random.default_rng(8).uniform(-1, 1, size=(5, 1))
        qs = q_samples(critic, states, actions, 10 ** 4, np.random.default_rng(9))
        x = np.concatenate([states, actions], axis=1)
        for j in range(2):
            feats, _ = forward(critic.feature_nets[j], x)
            phi = np.concatenate([feats, np.ones((5, 1))], axis=1)
            analytic = np.sqrt((critic.heads[j].scale ** 2 * phi ** 2).sum(axis=1))
            sampled = qs.values[:, j, :].std(axis=1)
            assert np.all(np.abs(sampled - analytic) <= 0.02 * analytic)

    def test_shape_mismatch(self):
        critic = make_critic()
        with pytest.raises(ShapeError):
            q_samples(critic, np.zeros((3, 5)), np.zeros((3, 1)), 2,
                      np.random.default_rng(0))

    def test_layer_norm_critic_matches_manual_evaluation(self):
        critic = make_critic(members=2, seed=12, layer_norm=True)
        states = np.random.default_rng(13).normal(size=(4, 2))
        actions = np.random.default_rng(14).uniform(-1, 1, size=(4, 1))
        qs = q_samples(critic, states, actions, 3, np.random.default_rng(15))
        x = np.concatenate([states, actions], axis=1)
        for j in range(2):
            feats, _ = forward(critic.feature_nets[j], x)
            phi = np.concatenate([feats, np.ones((4, 1))], axis=1)
            w = critic.heads[j].mean + critic.heads[j].scale * qs.draws[j]
            assert np.allclose(qs.values[:, j, :], phi @ w.T, atol=1e-12)


class TestKl:
    def test_prior_itself_is_zero(self):
        layer = GaussianLastLayer(np.zeros(4), np.full(4, softplus_inverse(1.0)))
        assert kl_to_prior(layer) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_unit_scale(self):
        layer = GaussianLastLayer(np.ones(1), np.full(1, softplus_inverse(1.0)))
        assert kl_to_prior(layer) == pytest.approx(0.5, abs=1e-12)

    def test_matches_quadrature_per_coordinate(self):
        rng = np.random.default_rng(10)
        mean = rng.normal(size=3)
        raw = rng.uniform(-2, 1, size=3)
        layer = GaussianLastLayer(mean, raw)
        total = sum(oracles.kl_quadrature(mean[i], layer.scale[i])
                    for i in range(3))
        assert kl_to_prior(layer) == pytest.approx(total, abs=1e-6)


class TestLcbAlpha:
    def test_single_draw_is_exactly_zero(self):
        # (1 - pi/8) / (2 - pi/4) = 1/2 algebraically, so the quantile is 0.
        assert lcb_alpha(1) == 0.0

    def test_two_draw_value(self):
        assert lcb_alpha(2) == pytest.approx(0.6000820389547544, abs=1e-9)

    def test_monotone_in_draw_count(self):
        values = [lcb_alpha(n) for n in range(1, 30)]
        assert np.all(np.diff(values) > 0.0)

    @pytest.mark.parametrize("n_draws", [2, 5, 10])
    def test_predicts_expected_minimum(self, n_draws):
        mu, sigma = 1.3, 2.1
        mc, _ = oracles.min_gaussian_mc(mu, sigma, n_draws, trials=200_000,
                                        seed=n_draws)
        assert abs(mc - (mu - lcb_alpha(n_draws) * sigma)) <= 0.05 * sigma

    def test_two_draw_matches_order_statistic_closed_form(self):
        mc, se = oracles.min_gaussian_mc(0.0, 1.0, 2, trials=200_000, seed=0)
        assert abs(mc - (-1.0 / np.sqrt(np.pi))) <= 3.0 * se


class TestRepulsiveTerm:
    def test_identical_samples_give_zero(self):
        assert repulsive_term(np.full(7, 2.5)) == 0.0

    def test_two_point_case(self):
        assert repulsive_term(np.array([1.0, 3.0])) == pytest.approx(1.0)

    def test_needs_two_samples(self):
        with pytest.raises(UsageError):
            repulsive_term(np.array([1.0]))

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_pairwise_sum_identity(self, values):
        q = np.asarray(values)
        n = q.shape[0]
        pair_var = np.sum((q[:, None] - q[None, :]) ** 2) / (2.0 * n * n)
        assert abs(repulsive_term(q) ** 2 - pair_var) <= 1e-9


class TestPessimisticTarget:
    @pytest.fixture
    def policy(self):
        return TanhGaussianPolicy.init(2, 1, (8,), np.random.default_rng(0))

    def test_terminal_rows_reduce_to_reward(self, policy):
        critic = make_critic()
        r = np.array([0.7, -1.1])
        targets = pessimistic_target(critic, r, np.zeros((2, 2)), np.ones(2),
                                     policy, beta=0.2, gamma=0.99, n=4,
                                     rng=np.random.default_rng(0))
        assert np.array_equal(targets, r)

    def test_two_constant_members_hand_enumeration(self, policy):
        c1, c2 = 1.5, -0.25
        critic = make_constant_critic([c1, c2])
        rng = np.random.default_rng(4)
        r = np.array([0.3])
        s2 = np.array([[0.1, -0.2]])
        targets = pessimistic_target(critic, r, s2, np.zeros(1), policy,
                                     beta=0.2, gamma=0.9, n=3, rng=rng)
        # replay the same action draw to recover log pi
        _, log_probs = policy.sample_batch(s2, np.random.default_rng(4))
        expected = r + 0.9 * (min(c1, c2) - 0.2 * log_probs)
        assert np.allclose(targets, expected, atol=1e-10)

    def test_degenerate_single_member_is_td_target(self, policy):
        critic = make_critic(members=1, seed=3)
        critic.heads[0].raw_scale[:] = -1e3
        critic.target_heads[0].raw_scale[:] = -1e3
        rng = np.random.default_rng(8)
        r = np.array([0.5, 0.0])
        s2 = np.random.default_rng(9).normal(size=(2, 2))
        targets = pessimistic_target(critic, r, s2, np.zeros(2), policy,
                                     beta=0.0, gamma=0.99, n=1, rng=rng)
        actions, _ = policy.sample_batch(s2, np.random.default_rng(8))
        x = np.concatenate([s2, actions], axis=1)
        feats, _ = forward(critic.target_feature_nets[0], x)
        q = feats @ critic.target_heads[0].mean[:-1] + critic.target_heads[0].mean[-1]
        assert np.allclose(targets, r + 0.99 * q, atol=1e-10)

    def test_uses_target_networks(self, policy):
        critic = make_constant_critic([2.0])
        # diverge the online head; the target head must drive the backup
        critic.heads[0].mean[-1] = 99.0
        targets = pessimistic_target(critic, np.zeros(1), np.zeros((1, 2)),
                                     np.zeros(1), policy, beta=0.0, gamma=1.0,
                                     n=2, rng=np.random.default_rng(0))
        assert targets[0] == pytest.approx(2.0, abs=1e-10)

    def test_multiple_next_action_draws_average(self, policy):
        c = 0.4
        critic = make_constant_critic([c])
        s2 = np.array([[0.3, 0.1]])
        targets = pessimistic_target(critic, np.zeros(1), s2, np.zeros(1),
                                     policy, beta=0.5, gamma=1.0, n=2,
                                     rng=np.random.default_rng(6),
                                     next_action_samples=2)
        # replay both action draws; the critic noise draws interleave
        rng = np.random.default_rng(6)
        log_probs = []
        for _ in range(2):
            _, lp = policy.sample_batch(s2, rng)
            rng.standard_normal((1, 2, critic.d + 1))  # skip the value noise
            log_probs.append(lp[0])
        expected = c - 0.5 * np.mean(log_probs)
        assert targets[0] == pytest.approx(expected, abs=1e-10)


def _per_member_losses(critic, states, actions, targets, ood_s, ood_a, eta_q,
                       eta_ood, kl_scale, draws, pooling):
    """Critic loss terms and gradients one member at a time through
    math_core.forward/backward, with the head bias as a constant-1 feature."""
    def evaluate(j, x, z):
        feats, cache = forward(critic.feature_nets[j], x)
        phi = np.concatenate([feats, np.ones((x.shape[0], 1))], axis=1)
        w = critic.heads[j].mean + critic.heads[j].scale * z
        return phi, w, cache, phi @ w.T

    x = np.concatenate([states, actions], axis=1)
    x_ood = np.concatenate([ood_s, ood_a], axis=1)
    M = critic.n_members
    ood = [evaluate(j, x_ood, draws.z_ood[j]) for j in range(M)]
    ood_values = np.stack([o[3] for o in ood], axis=1)       # (B_ood, M, n)
    out = {}
    for j in range(M):
        head, net = critic.heads[j], critic.feature_nets[j]
        phi, w, cache, q = evaluate(j, x, draws.z_data[j])
        err = q - targets[:, None]
        dq = (2.0 * eta_q / err.size) * err
        dw = dq.T @ phi
        d_mean = dw.sum(axis=0) + eta_q * kl_scale * head.mean
        d_sigma = (dw * draws.z_data[j]).sum(axis=0) \
            + eta_q * kl_scale * (head.scale - 1.0 / head.scale)
        feat_grads, _ = backward(net, cache, dq @ w[:, :-1])

        pool = ood_values if pooling == "joint" else ood_values[:, j:j + 1]
        flat = pool.reshape(pool.shape[0], -1)
        std = flat.std(axis=1)
        dstd = ((flat - flat.mean(axis=1, keepdims=True))
                / (flat.shape[1] * std[:, None])).reshape(pool.shape)
        dq_o = (-eta_ood / std.shape[0]) * dstd[:, j if pooling == "joint" else 0]
        phi_o, w_o, cache_o, _ = ood[j]
        dw_o = dq_o.T @ phi_o
        d_mean = d_mean + dw_o.sum(axis=0)
        d_sigma = d_sigma + (dw_o * draws.z_ood[j]).sum(axis=0)
        ood_grads, _ = backward(net, cache_o, dq_o @ w_o[:, :-1])

        grads = {f"feature/{k}": g + ood_grads[k] for k, g in feat_grads.items()}
        grads["head/mean"] = d_mean
        grads["head/raw_scale"] = d_sigma / (1.0 + np.exp(-head.raw_scale))
        info = {"bellman": float(np.mean(err ** 2)), "kl": kl_to_prior(head),
                "ood_std": float(std.mean())}
        loss = eta_q * (info["bellman"] + kl_scale * info["kl"]) \
            - eta_ood * info["ood_std"]
        out[j] = (loss, grads, info)
    return out


class TestCriticLoss:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.critic = make_critic(members=3, seed=22)
        self.states = rng.normal(size=(5, 2))
        self.actions = rng.uniform(-1, 1, size=(5, 1))
        self.targets = rng.normal(size=5)
        self.ood_s = np.repeat(self.states, 2, axis=0)
        self.ood_a = rng.uniform(-1, 1, size=(10, 1))
        self.draws = draw_critic_noise(self.critic, 4, rng)

    def test_perfect_fit_collapsed_scale_leaves_only_kl(self):
        c = 1.75
        critic = make_constant_critic([c])
        draws = draw_critic_noise(critic, 4, np.random.default_rng(0))
        targets = np.full(5, c)
        loss, _, info = critic_loss(critic, 0, np.zeros((5, 2)),
                                    np.zeros((5, 1)), targets, None, None,
                                    eta_q=2.0, eta_ood=0.0, kl_scale=0.1,
                                    draws=draws)
        assert info["bellman"] <= 1e-30
        assert loss == pytest.approx(2.0 * 0.1 * kl_to_prior(critic.heads[0]),
                                     rel=1e-12)

    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_eta_q_zero_isolates_spread_term(self, layer_norm):
        critic = make_critic(members=3, seed=22, layer_norm=layer_norm)
        loss, _, info = critic_loss(critic, 1, self.states, self.actions,
                                    self.targets, self.ood_s, self.ood_a,
                                    eta_q=0.0, eta_ood=1.7, kl_scale=0.05,
                                    draws=self.draws)
        assert loss == pytest.approx(-1.7 * info["ood_std"], rel=1e-12)
        # recompute the pooled spread by hand from the frozen noise
        vals = np.empty((10, 3, 4))
        x = np.concatenate([self.ood_s, self.ood_a], axis=1)
        for j in range(3):
            feats, _ = forward(critic.feature_nets[j], x)
            w = critic.heads[j].mean + critic.heads[j].scale * self.draws.z_ood[j]
            vals[:, j, :] = feats @ w[:, :-1].T + w[:, -1]
        manual = np.mean([repulsive_term(vals[b]) for b in range(10)])
        assert info["ood_std"] == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("pooling", ["joint", "per-member"])
    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_gradients_match_finite_differences(self, pooling, layer_norm):
        critic = make_critic(members=2, widths=(6, 6), seed=31,
                             layer_norm=layer_norm)
        rng = np.random.default_rng(32)
        states = rng.normal(size=(4, 2))
        actions = rng.uniform(-1, 1, size=(4, 1))
        targets = rng.normal(size=4)
        ood_s = np.repeat(states, 2, axis=0)
        ood_a = rng.uniform(-1, 1, size=(8, 1))
        draws = draw_critic_noise(critic, 3, rng)
        _, grads, _ = critic_loss(critic, 0, states, actions, targets, ood_s,
                                  ood_a, 1.1, 0.6, 0.02, draws=draws,
                                  pooling=pooling)

        def loss_fn(params):
            critic.set_member_params(0, params)
            loss, _, _ = critic_loss(critic, 0, states, actions, targets,
                                     ood_s, ood_a, 1.1, 0.6, 0.02,
                                     draws=draws, pooling=pooling)
            return loss

        numeric = oracles.finite_difference(loss_fn, critic.member_params(0))
        assert oracles.relative_gradient_error(grads, numeric) <= 1e-3

    @pytest.mark.parametrize("pooling", ["joint", "per-member"])
    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_matches_per_member_reference(self, pooling, layer_norm):
        critic = make_critic(members=3, widths=(7, 5), seed=23,
                             layer_norm=layer_norm)
        rng = np.random.default_rng(24)
        for net in critic.feature_nets:
            for i in range(len(net.ln_gains)):
                net.ln_gains[i] = rng.uniform(0.5, 1.5, net.ln_gains[i].shape)
                net.ln_biases[i] = rng.normal(0.0, 0.3, net.ln_biases[i].shape)
        draws = draw_critic_noise(critic, 4, rng)
        args = (self.states, self.actions, self.targets, self.ood_s, self.ood_a,
                1.3, 0.9, 0.05)
        stacked = ensemble_critic_losses(critic, *args, draws=draws,
                                         pooling=pooling)
        reference = _per_member_losses(critic, *args, draws, pooling)
        for j in range(3):
            loss, grads, info = stacked[j]
            ref_loss, ref_grads, ref_info = reference[j]
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            for term in ("bellman", "kl", "ood_std"):
                assert info[term] == pytest.approx(ref_info[term], rel=1e-12)
            assert set(grads) == set(ref_grads)
            for key, ref in ref_grads.items():
                err = np.linalg.norm(grads[key] - ref)
                assert err <= 1e-12 * np.linalg.norm(ref), key

    def test_min_of_samples_never_exceeds_mean(self):
        qs = q_samples(self.critic, self.states, self.actions, 6,
                       np.random.default_rng(40))
        flat = qs.values.reshape(5, -1)
        assert np.all(flat.min(axis=1) <= flat.mean(axis=1))
        const = make_constant_critic([0.5])
        qs_const = q_samples(const, self.states, self.actions, 6,
                             np.random.default_rng(41))
        flat_const = qs_const.values.reshape(5, -1)
        assert np.allclose(flat_const.min(axis=1), flat_const.mean(axis=1),
                           atol=1e-12)

    def test_target_networks_receive_no_gradient(self):
        _, grads, _ = critic_loss(self.critic, 0, self.states, self.actions,
                                  self.targets, self.ood_s, self.ood_a,
                                  1.0, 1.0, 0.01, draws=self.draws)
        assert set(grads) == set(self.critic.member_params(0))
        # with precomputed targets, perturbing target nets leaves the loss alone
        loss_before, _, _ = critic_loss(self.critic, 0, self.states,
                                        self.actions, self.targets, self.ood_s,
                                        self.ood_a, 1.0, 1.0, 0.01,
                                        draws=self.draws)
        for net in self.critic.target_feature_nets:
            for w in net.weights:
                w += 123.0
        loss_after, _, _ = critic_loss(self.critic, 0, self.states,
                                       self.actions, self.targets, self.ood_s,
                                       self.ood_a, 1.0, 1.0, 0.01,
                                       draws=self.draws)
        assert loss_before == loss_after

    def test_spread_gradient_scales_linearly_with_eta_ood(self):
        _, g1, _ = critic_loss(self.critic, 2, self.states, self.actions,
                               self.targets, self.ood_s, self.ood_a,
                               eta_q=0.0, eta_ood=1.0, kl_scale=0.0,
                               draws=self.draws)
        _, g2, _ = critic_loss(self.critic, 2, self.states, self.actions,
                               self.targets, self.ood_s, self.ood_a,
                               eta_q=0.0, eta_ood=2.0, kl_scale=0.0,
                               draws=self.draws)
        for key in g1:
            assert np.allclose(g2[key], 2.0 * g1[key], rtol=1e-12)
        norm1 = sum(np.linalg.norm(g) for g in g1.values())
        norm2 = sum(np.linalg.norm(g) for g in g2.values())
        assert norm2 > norm1 > 0.0

    def test_nonfinite_target_names_term(self):
        bad = self.targets.copy()
        bad[0] = np.inf
        with pytest.raises(NumericError, match="bellman"):
            critic_loss(self.critic, 0, self.states, self.actions, bad,
                        None, None, 1.0, 0.0, 0.0, draws=self.draws)

    def test_noise_echoed_for_replay(self):
        loss1, _, info = critic_loss(self.critic, 0, self.states, self.actions,
                                     self.targets, self.ood_s, self.ood_a,
                                     1.0, 1.0, 0.01, n=4,
                                     rng=np.random.default_rng(55))
        loss2, _, _ = critic_loss(self.critic, 0, self.states, self.actions,
                                  self.targets, self.ood_s, self.ood_a,
                                  1.0, 1.0, 0.01, draws=info["draws"])
        assert loss1 == loss2


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        critic = make_critic(members=3, seed=77)
        path = tmp_path / "critic.ckpt"
        save_critic(path, critic, n_posterior_samples=10, extra_meta={"env": "x"})
        loaded, meta = load_critic(path)
        assert meta["members"] == 3 and meta["env"] == "x"
        before = critic.get_all_params()
        after = loaded.get_all_params()
        assert set(before) == set(after)
        for k in before:
            assert np.array_equal(before[k], after[k])
