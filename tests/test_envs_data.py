import json

import numpy as np
import pytest
from scipy import stats

from rvf.envs_data import (OfflineDataset, PdController, PointMass1d,
                           generate_dataset, load_dataset, make_env,
                           ood_probe_sets, save_dataset)
from rvf.errors import ConfigError, FormatError, NumericError, ShapeError


class TestGeneration:
    def test_single_episode_lengths_and_final_done(self):
        env = make_env("point-mass-1d")
        ds = generate_dataset(env, "mediocre", episodes=1, seed=0)
        assert len(ds) == 50
        assert np.array_equal(ds.dones[:-1], np.zeros(49))
        assert ds.dones[-1] == 1.0

    def test_random_policy_actions_uniform(self):
        env = make_env("point-mass-1d")
        ds = generate_dataset(env, "random", episodes=200, seed=3)
        ks = stats.kstest(ds.actions[:, 0], stats.uniform(-1, 2).cdf)
        assert ks.pvalue > 0.01

    def test_same_seed_byte_identical_files(self, tmp_path):
        env = make_env("point-mass-1d")
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(generate_dataset(env, "mixed", 5, seed=9), p1)
        save_dataset(generate_dataset(env, "mixed", 5, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        env = make_env("point-mass-1d")
        a = generate_dataset(env, "random", 2, seed=0)
        b = generate_dataset(env, "random", 2, seed=1)
        assert not np.array_equal(a.actions, b.actions)

    def test_unknown_ids_rejected(self):
        for env_id in ("cartpole", "linear-chain"):
            with pytest.raises(ConfigError):
                make_env(env_id)
        with pytest.raises(ConfigError):
            generate_dataset(make_env("point-mass-1d"), "expert", 1, seed=0)

    @pytest.mark.parametrize("policy_id", ["random", "mediocre", "mixed"])
    def test_matches_step_by_step_rollout(self, policy_id):
        # one episode at a time, one generator draw and one step at a time
        env = make_env("point-mass-1d")
        ds = generate_dataset(env, policy_id, episodes=4, seed=21)
        ctrl = PdController(kp=0.4, kd=0.9)
        rows = []
        for ep in range(4):
            rng = np.random.default_rng(np.random.SeedSequence([21, ep]))
            mode = policy_id if policy_id != "mixed" else \
                ("mediocre" if ep % 2 == 0 else "random")
            s = env.reset(rng)
            for t in range(env.horizon):
                if mode == "random" or rng.random() < 0.3:
                    a = rng.uniform(-1.0, 1.0, size=1)
                else:
                    a = ctrl.act_deterministic(s)
                s_next, r = env.step(s, a)
                rows.append((s, a, r, s_next, float(t == env.horizon - 1)))
                s = s_next
        for i, (s, a, r, s_next, done) in enumerate(rows):
            assert np.array_equal(ds.states[i], s)
            assert np.array_equal(ds.actions[i], a)
            assert ds.rewards[i] == r
            assert np.array_equal(ds.next_states[i], s_next)
            assert ds.dones[i] == done

    def test_episode_returns_sum_rewards(self):
        ds = OfflineDataset(np.zeros((4, 1)), np.zeros((4, 1)),
                            np.array([1.0, 2.0, 3.0, 4.0]), np.zeros((4, 1)),
                            np.array([0.0, 1.0, 0.0, 1.0]))
        assert np.array_equal(ds.episode_returns(), [3.0, 7.0])


class TestEnvDynamics:
    def test_point_mass_difference_equations(self):
        env = PointMass1d()
        state = np.array([0.0, 0.0])
        nxt, reward = env.step(state, np.array([1.0]))
        assert np.allclose(nxt, [0.01, 0.1])
        assert reward == pytest.approx(-((0.01 - 1.0) ** 2) - 0.01)

    def test_point_mass_clips_force(self):
        env = PointMass1d()
        a, _ = env.step(np.zeros(2), np.array([5.0]))
        b, _ = env.step(np.zeros(2), np.array([1.0]))
        assert np.array_equal(a, b)

    def test_batch_step_matches_single_steps(self):
        env = PointMass1d()
        rng = np.random.default_rng(3)
        states = rng.normal(size=(6, 2))
        actions = rng.uniform(-2.0, 2.0, size=(6, 1))
        nxt, rewards = env.step(states, actions)
        assert nxt.shape == (6, 2) and rewards.shape == (6,)
        for i in range(6):
            s, r = env.step(states[i], actions[i])
            assert np.array_equal(nxt[i], s) and rewards[i] == r

    def test_pd_controller_batch_matches_rows(self):
        ctrl = PdController(kp=1.3, kd=0.7)
        states = np.random.default_rng(4).normal(size=(5, 2))
        forces = ctrl.act_deterministic(states)
        assert forces.shape == (5, 1)
        for i in range(5):
            assert np.array_equal(forces[i], ctrl.act_deterministic(states[i]))

    def test_pd_controller_reaches_goal(self):
        env = PointMass1d()
        ctrl = PdController(kp=2.0, kd=2.5)
        state = np.array([0.0, 0.0])
        for _ in range(env.horizon):
            state, _ = env.step(state, ctrl.act_deterministic(state))
        assert abs(state[0] - env.goal) < 0.05


class TestFileFormat:
    @pytest.fixture
    def dataset(self):
        return generate_dataset(make_env("point-mass-1d"), "mediocre", 4, seed=2)

    def test_round_trip_lossless(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        for field in ("states", "actions", "rewards", "next_states", "dones"):
            assert np.array_equal(getattr(loaded, field), getattr(dataset, field))
        assert loaded.meta == dataset.meta

    def test_truncated_payload_errors(self, tmp_path, dataset):
        path = tmp_path / "d.bin"
        save_dataset(dataset, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="offset"):
            load_dataset(path)

    def test_corrupt_header_errors(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes((10).to_bytes(8, "little") + b"not-json!!")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_empty_dataset_round_trips(self, tmp_path):
        empty = OfflineDataset(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0),
                               np.zeros((0, 2)), np.zeros(0),
                               {"state_dim": 2, "action_dim": 1})
        path = tmp_path / "e.bin"
        save_dataset(empty, path)
        loaded = load_dataset(path)
        assert len(loaded) == 0
        assert loaded.states.shape == (0, 2)

    @pytest.mark.parametrize("column", ["states", "actions", "rewards",
                                        "next_states"])
    def test_nonfinite_column_rejected_on_load(self, tmp_path, dataset, column):
        getattr(dataset, column)[1] = np.nan     # as a corrupt file holds it
        path = tmp_path / "d.bin"
        save_dataset(dataset, path)
        with pytest.raises(NumericError, match=f"non-finite {column} in"):
            load_dataset(path)

    @pytest.mark.parametrize("field,value", [
        ("rows", "3"), ("rows", -1), ("state_dim", 1.5), ("action_dim", True),
        ("meta", []), ("rows", None)])
    def test_header_field_types_checked(self, tmp_path, field, value):
        header = {"kind": "rvf-dataset", "version": 1, "rows": 0,
                  "state_dim": 2, "action_dim": 1, "meta": {}}
        if value is None:
            del header[field]
        else:
            header[field] = value
        blob = json.dumps(header).encode()
        path = tmp_path / "d.bin"
        path.write_bytes(len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(FormatError, match=field):
            load_dataset(path)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            OfflineDataset(np.zeros((3, 2)), np.zeros((2, 1)), np.zeros(3),
                           np.zeros((3, 2)), np.zeros(3))


class TestProbeSets:
    def test_disjoint_action_supports_for_halved_behavior(self):
        # behavior only uses [-1, 0]; probes must land clear of it
        rng = np.random.default_rng(0)
        n = 2000
        states = rng.normal(size=(n, 2))
        actions = rng.uniform(-1.0, 0.0, size=(n, 1))
        ds = OfflineDataset(states, actions, np.zeros(n), states.copy(),
                            np.zeros(n), {"state_dim": 2, "action_dim": 1})
        probe_in, probe_ood = ood_probe_sets(ds, make_env("point-mass-1d"),
                                             n_pairs=128, seed=1)
        assert probe_in.actions.max() <= 0.0
        assert probe_ood.actions.min() > 0.0

    def test_equal_sizes_and_shared_states(self):
        ds = generate_dataset(make_env("point-mass-1d"), "mediocre", 20, seed=4)
        probe_in, probe_ood = ood_probe_sets(ds, make_env("point-mass-1d"),
                                             n_pairs=64, seed=2)
        assert len(probe_in) == len(probe_ood) == 64
        assert np.array_equal(probe_in.states, probe_ood.states)

    def test_in_dist_actions_within_bin_support(self):
        env = make_env("point-mass-1d")
        ds = generate_dataset(env, "mediocre", 50, seed=5)
        probe_in, _ = ood_probe_sets(ds, env, n_pairs=128, seed=3)
        # probes are literal dataset rows, so each lies in the empirical
        # support of its own state's actions
        rows = {(tuple(s), tuple(a)) for s, a in zip(ds.states, ds.actions)}
        for s, a in zip(probe_in.states, probe_in.actions):
            assert (tuple(s), tuple(a)) in rows

    def test_expert_policy_supplies_ood_actions(self):
        env = make_env("point-mass-1d")
        ds = generate_dataset(env, "random", 10, seed=6)
        expert = PdController(kp=2.0, kd=2.5)
        _, probe_ood = ood_probe_sets(ds, env, policy=expert, n_pairs=32, seed=4)
        expected = np.stack([expert.act_deterministic(s) for s in probe_ood.states])
        assert np.array_equal(probe_ood.actions, expected)

    def test_empty_dataset_rejected(self):
        empty = OfflineDataset(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0),
                               np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ConfigError):
            ood_probe_sets(empty, make_env("point-mass-1d"))
