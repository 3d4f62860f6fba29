import json

import numpy as np
import pytest

from rvf.bnn_critic import EnsembleCritic
from rvf.envs_data import (OfflineDataset, PdController, generate_dataset,
                           make_env, ood_probe_sets)
from rvf.errors import ConfigError
from rvf.harness import (METRICS_CSV_HEADER, TrainConfig, evaluate_policy,
                         metrics_csv_lines, train, uncertainty_report)


def small_config(**overrides):
    base = dict(env="point-mass-1d", seed=0, ensembles=2, posterior_samples=3,
                ood_actions_per_state=2, eta_q=5.0, eta_ood=3.0, beta=0.2,
                gamma=0.99, rho=0.99, batch_size=16, gradient_steps=40,
                eval_interval=20, eval_episodes=2, hidden_widths=(8, 8))
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def pm_dataset():
    return generate_dataset(make_env("point-mass-1d"), "mediocre", 20, seed=0)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = small_config(eta_ood=1.25, hidden_widths=(16, 8))
        path = tmp_path / "c.json"
        cfg.save(path)
        loaded = TrainConfig.load(path)
        assert loaded == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            TrainConfig.from_json_dict({"mystery": 1})

    @pytest.mark.parametrize("overrides", [
        {"ensembles": 0}, {"posterior_samples": 0}, {"gamma": 0.0},
        {"gamma": 1.5}, {"rho": -0.1}, {"eta_q": 0.0}, {"eta_ood": -1.0},
        {"pooling": "sideways"}, {"eval_interval": 0},
    ])
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()

    @pytest.mark.parametrize("data", [
        {"ensembles": "3"}, {"gradient_steps": 1.5}, {"batch_size": 2.0},
        {"ensembles": True}, {"critic_lr": float("inf")},
        {"eta_ood": float("nan")}, {"gamma": "0.9"}, {"hidden_widths": "ab"},
        {"hidden_widths": 5}, {"hidden_widths": []}, {"hidden_widths": [8, 0]},
        {"layer_norm": 1}, {"pooling": 3}, {"seed": -1}, [["seed", 1]],
    ])
    def test_wrong_types_and_nonfinite_values_rejected(self, data):
        with pytest.raises(ConfigError):
            TrainConfig.from_json_dict(data)

    def test_single_member_allowed_for_ablations(self):
        small_config(ensembles=1, posterior_samples=1, eta_ood=0.0).validate()


class TestTrainLoop:
    def test_zero_steps_returns_initial_row_only(self, pm_dataset):
        result = train(small_config(gradient_steps=0), pm_dataset)
        assert len(result.metrics) == 1
        assert result.metrics[0].step == 0

    def test_metrics_row_count(self, pm_dataset):
        result = train(small_config(gradient_steps=50, eval_interval=20),
                       pm_dataset)
        assert len(result.metrics) == 50 // 20 + 1
        assert [m.step for m in result.metrics] == [0, 20, 40]

    def test_determinism_identical_metric_csv(self, pm_dataset):
        cfg = small_config(gradient_steps=30, eval_interval=10)
        lines1 = metrics_csv_lines(train(cfg, pm_dataset).metrics)
        lines2 = metrics_csv_lines(train(cfg, pm_dataset).metrics)
        assert lines1 == lines2

    def test_metrics_csv_flushed_to_disk(self, pm_dataset, tmp_path):
        cfg = small_config(gradient_steps=20, eval_interval=10)
        result = train(cfg, pm_dataset, out_dir=tmp_path)
        content = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert content[0] == METRICS_CSV_HEADER
        assert content == metrics_csv_lines(result.metrics)

    def test_repulsion_raises_ood_spread_metric(self, pm_dataset):
        cfg_on = small_config(gradient_steps=400, eval_interval=100,
                              batch_size=32)
        cfg_off = small_config(gradient_steps=400, eval_interval=100,
                               batch_size=32, eta_ood=0.0)
        on = train(cfg_on, pm_dataset).metrics
        off = train(cfg_off, pm_dataset).metrics
        assert on[0].ood_std == off[0].ood_std  # same init, same probe rng
        for row_on, row_off in zip(on, off):
            assert row_on.ood_std >= row_off.ood_std - 1e-9
        assert on[-1].ood_std > off[-1].ood_std

    def test_dataset_dims_must_match_env(self):
        wide = OfflineDataset(np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(4),
                              np.zeros((4, 3)), np.array([0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ConfigError):
            train(small_config(), wide)

    def test_discrete_env_rejected(self, pm_dataset):
        # linear-chain, the discrete chain, is gone: now an unknown env id.
        with pytest.raises(ConfigError):
            train(small_config(env="linear-chain"), pm_dataset)

    def test_nonfinite_loss_aborts_with_snapshot(self, tmp_path):
        from rvf.errors import NumericError
        ds = generate_dataset(make_env("point-mass-1d"), "mediocre", 5, seed=0)
        ds.rewards[0] = np.inf   # poisons the backup targets
        with pytest.raises(NumericError):
            train(small_config(gradient_steps=200, batch_size=64),
                  ds, out_dir=tmp_path)
        snapshot = json.loads((tmp_path / "crash_snapshot.json").read_text())
        assert "non-finite" in snapshot["error"]


class _ZeroRewardEnv:
    """Batch contract: step takes (E, 1) states and (E, 1) actions."""

    env_id = "zero"
    state_dim = 1
    action_dim = 1
    horizon = 7
    action_low, action_high = -1.0, 1.0

    def reset(self, rng):
        return np.zeros(1)

    def step(self, states, actions):
        assert states.shape == actions.shape == (len(states), 1)
        return states, np.zeros(len(states))


class _NullActor:
    def act_deterministic(self, states):
        return np.zeros((len(states), 1))


class TestEvaluatePolicy:
    def test_zero_reward_env_returns_zero(self):
        mean, std = evaluate_policy(_ZeroRewardEnv(), _NullActor(), 3, seed=0)
        assert mean == 0.0 and std == 0.0

    def test_single_episode_zero_std(self):
        env = make_env("point-mass-1d")
        _, std = evaluate_policy(env, PdController(), 1, seed=5)
        assert std == 0.0

    @pytest.mark.parametrize("episodes", [1, 7])
    def test_matches_independent_simulation(self, episodes):
        # re-simulate the rollout arithmetic by hand, one episode at a time
        env = make_env("point-mass-1d")
        ctrl = PdController(kp=1.1, kd=1.7)
        mean, std = evaluate_policy(env, ctrl, episodes, seed=9)
        totals = []
        for ep in range(episodes):
            rng = np.random.default_rng(np.random.SeedSequence([9, ep]))
            pos, vel = rng.uniform(-0.1, 0.1), 0.0
            total = 0.0
            for _ in range(50):
                force = float(np.clip(1.1 * (1.0 - pos) - 1.7 * vel, -1.0, 1.0))
                vel = vel + 0.1 * force
                pos = pos + 0.1 * vel
                total += -((pos - 1.0) ** 2) - 0.01 * force ** 2
            totals.append(total)
        assert mean == pytest.approx(np.mean(totals), rel=1e-12, abs=1e-12)
        assert std == pytest.approx(np.std(totals), rel=1e-12, abs=1e-12)


class TestUncertaintyReport:
    def test_collapsed_identical_members_give_null_ratio(self, pm_dataset):
        critic = EnsembleCritic.init(2, 1, (8,), 2, np.random.default_rng(0))
        params = critic.member_params(0)
        critic.set_member_params(1, {k: v.copy() for k, v in params.items()})
        for head in critic.heads:
            head.raw_scale[:] = -1e3
        probe_in, probe_ood = ood_probe_sets(pm_dataset, make_env("point-mass-1d"),
                                             n_pairs=32, seed=0)
        report = uncertainty_report(critic, probe_in, probe_ood, 4)
        assert report["in_dist_std"] == 0.0
        assert report["ood_std"] == 0.0
        assert report["ratio"] is None

    def test_swapping_probes_inverts_ratio(self, pm_dataset):
        critic = EnsembleCritic.init(2, 1, (8,), 3, np.random.default_rng(1))
        probe_in, probe_ood = ood_probe_sets(pm_dataset, make_env("point-mass-1d"),
                                             n_pairs=32, seed=0)
        fwd = uncertainty_report(critic, probe_in, probe_ood, 4, seed=3)
        rev = uncertainty_report(critic, probe_ood, probe_in, 4, seed=3)
        assert fwd["ratio"] == pytest.approx(1.0 / rev["ratio"], rel=1e-9)
