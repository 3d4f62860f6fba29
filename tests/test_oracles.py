import numpy as np
import pytest

from rvf.errors import ConfigError, NumericError
from rvf.linear_mdp import (FeatureDataset, LinearMdpSpec, optimal_values,
                            random_linear_mdp)
from rvf.oracles import (OracleReport, finite_difference, gauss_jordan_inverse,
                         kl_quadrature, min_gaussian_mc, normal_equation_oracle,
                         policy_value_linear_solve, run_verification,
                         tabular_value_oracle)


class TestGaussJordan:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_matches_linalg_inverse(self, n):
        rng = np.random.default_rng(n)
        mat = rng.normal(size=(n, n)) + n * np.eye(n)
        assert np.allclose(gauss_jordan_inverse(mat), np.linalg.inv(mat),
                           atol=1e-10)

    def test_singular_matrix_rejected(self):
        with pytest.raises(NumericError):
            gauss_jordan_inverse(np.zeros((3, 3)))

    def test_normal_equations_match_lstsq(self):
        rng = np.random.default_rng(5)
        data = FeatureDataset(rng.normal(size=(40, 6)), rng.normal(size=40))
        ridge = 2.5
        aug_x = np.vstack([data.features, np.sqrt(ridge) * np.eye(6)])
        aug_y = np.concatenate([data.targets, np.zeros(6)])
        ref = np.linalg.lstsq(aug_x, aug_y, rcond=None)[0]
        assert np.allclose(normal_equation_oracle(data, ridge), ref, atol=1e-10)


class TestMinGaussianMc:
    def test_single_draw_recovers_mean(self):
        mean, se = min_gaussian_mc(2.0, 0.5, 1, trials=200_000, seed=0)
        assert abs(mean - 2.0) <= 4.0 * se

    def test_two_draw_closed_form(self):
        mean, se = min_gaussian_mc(0.0, 1.0, 2, trials=400_000, seed=1)
        assert abs(mean - (-1.0 / np.sqrt(np.pi))) <= 3.0 * se

    def test_too_few_trials_rejected(self):
        with pytest.raises(ConfigError):
            min_gaussian_mc(0.0, 1.0, 2, trials=100, seed=0)


class TestKlQuadrature:
    def test_standard_normal_is_zero(self):
        assert kl_quadrature(0.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_unit_mean_is_half(self):
        assert kl_quadrature(1.0, 1.0) == pytest.approx(0.5, abs=1e-7)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ConfigError):
            kl_quadrature(0.0, 0.0)


class TestFiniteDifference:
    def test_quadratic_is_exact_to_truncation_order(self):
        coef = np.array([1.0, -3.0, 0.25])
        params = {"x": np.array([0.5, 2.0, -1.0])}

        def loss(p):
            return float(np.sum(coef * p["x"] ** 2))

        grads = finite_difference(loss, params, step=1e-5)
        assert np.allclose(grads["x"], 2.0 * coef * params["x"], atol=1e-9)

    def test_restores_parameters(self):
        params = {"x": np.array([1.0, 2.0])}
        finite_difference(lambda p: float(p["x"].sum()), params)
        assert np.array_equal(params["x"], [1.0, 2.0])


class TestTabularValueOracle:
    def test_zero_rewards_zero_values(self):
        mdp = random_linear_mdp(3, 2, 3, np.random.default_rng(0),
                                gamma=0.9, horizon=None)
        mdp.reward_weights = np.zeros(3)
        Q, V, _ = tabular_value_oracle(mdp)
        assert np.allclose(Q, 0.0) and np.allclose(V, 0.0)

    def test_self_loop_geometric_series(self):
        mdp = LinearMdpSpec(1, 1, 1, np.ones((1, 1, 1)), np.ones(1),
                            np.ones((1, 1)), gamma=0.9, horizon=None)
        Q, V, _ = tabular_value_oracle(mdp)
        assert Q[0, 0] == pytest.approx(10.0, abs=1e-9)

    def test_bellman_optimality_residual(self):
        mdp = random_linear_mdp(5, 3, 5, np.random.default_rng(2),
                                gamma=0.95, horizon=None)
        Q, V, _ = tabular_value_oracle(mdp)
        P, R = mdp.transition_tensor(), mdp.reward_table()
        residual = np.max(np.abs(Q - (R + mdp.gamma * P @ V)))
        assert residual <= 1e-10
        assert np.allclose(V, Q.max(axis=1), atol=1e-12)

    def test_greedy_policy_is_improvement_fixed_point(self):
        mdp = random_linear_mdp(4, 3, 4, np.random.default_rng(3),
                                gamma=0.9, horizon=None)
        Q, _, pi = tabular_value_oracle(mdp)
        Q_pi, _ = policy_value_linear_solve(mdp, pi)
        improved = np.argmax(Q_pi, axis=1)
        assert np.array_equal(improved, np.argmax(pi, axis=1))

    def test_finite_horizon_matches_vectorized_induction(self):
        mdp = random_linear_mdp(4, 2, 4, np.random.default_rng(4),
                                gamma=1.0, horizon=4)
        Q_o, V_o, pi_o = tabular_value_oracle(mdp)
        Q_v, V_v, pi_v = optimal_values(mdp)
        assert np.allclose(Q_o, Q_v, atol=1e-12)
        assert np.allclose(V_o, V_v, atol=1e-12)
        assert np.array_equal(pi_o, pi_v)


class TestReports:
    def test_modes(self):
        assert OracleReport.check("a", 1.0005, 1.0, 1e-3, "abs").passed
        assert not OracleReport.check("a", 1.1, 1.0, 1e-3, "abs").passed
        assert OracleReport.check("r", 101.0, 100.0, 0.02, "rel").passed
        assert OracleReport.check("g", 0.97, 0.95, 0.0, "ge").passed
        assert not OracleReport.check("g", 0.90, 0.95, 0.0, "ge").passed
        with pytest.raises(ConfigError):
            OracleReport.check("x", 0.0, 0.0, 0.0, "approximately")

    def test_full_verification_suite_is_green(self):
        reports = run_verification()
        failed = [r.name for r in reports if not r.passed]
        assert failed == []
        assert len(reports) >= 10

    # The default seed plus seeds whose finite-difference checks once landed
    # on (or within the FD step of) a relu kink.
    @pytest.mark.parametrize("seed", [20240901, 15, 36, 20240905, 20240915,
                                      20240923, 20240927, 20240930])
    def test_verification_suite_is_green_for_seed(self, seed):
        failed = [r.name for r in run_verification(seed) if not r.passed]
        assert failed == []
