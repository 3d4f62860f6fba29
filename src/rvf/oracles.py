"""Independent reference implementations used by `verify` and the tests.

Every function here recomputes a quantity through a code path deliberately
different from the module it checks: dense Gauss-Jordan elimination instead
of linalg solves, Monte-Carlo simulation instead of closed forms, trapezoid
quadrature instead of the analytic KL, central finite differences instead of
hand-derived gradients, and plain-loop dynamic programming instead of the
vectorized Bellman arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import actor, bnn_critic, linear_mdp
from .errors import ConfigError, NumericError
from .math_core import Params, forward


@dataclass
class OracleReport:
    """One verification check: pass iff computed is within tolerance of the
    reference in the declared mode (abs / rel / ge)."""

    name: str
    computed: float
    reference: float
    tolerance: float
    mode: str = "abs"
    passed: bool = False

    @classmethod
    def check(cls, name: str, computed: float, reference: float,
              tolerance: float, mode: str = "abs") -> "OracleReport":
        if mode == "abs":
            ok = abs(computed - reference) <= tolerance
        elif mode == "rel":
            ok = abs(computed - reference) <= tolerance * abs(reference)
        elif mode == "ge":
            ok = computed >= reference - tolerance
        else:
            raise ConfigError(f"unknown report mode {mode!r}")
        return cls(name, float(computed), float(reference), float(tolerance),
                   mode, bool(ok))


def gauss_jordan_inverse(mat: np.ndarray) -> np.ndarray:
    """Matrix inverse by explicit Gauss-Jordan elimination with partial
    pivoting; no linalg calls."""
    mat = np.array(mat, dtype=np.float64)
    n = mat.shape[0]
    aug = np.concatenate([mat, np.eye(n)], axis=1)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise NumericError("matrix is singular")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:]


def normal_equation_oracle(data: linear_mdp.FeatureDataset,
                           ridge: float) -> np.ndarray:
    """Ridge solution mean by building the normal equations densely and
    inverting them with Gauss-Jordan."""
    d = data.features.shape[1]
    gram = np.zeros((d, d))
    moment = np.zeros(d)
    for row, y in zip(data.features, data.targets):
        gram += np.outer(row, row)
        moment += row * y
    gram += ridge * np.eye(d)
    return gauss_jordan_inverse(gram) @ moment


def min_gaussian_mc(mu: float, sigma: float, n_draws: int, trials: int,
                    seed: int) -> tuple[float, float]:
    """Empirical E[min of n_draws i.i.d. N(mu, sigma^2)] and its standard error."""
    if trials < 10 ** 5:
        raise ConfigError("trials must be >= 1e5")
    rng = np.random.default_rng(seed)
    mins = (mu + sigma * rng.standard_normal((trials, n_draws))).min(axis=1)
    return float(mins.mean()), float(mins.std(ddof=1) / np.sqrt(trials))


def kl_quadrature(mu: float, sigma: float, n_points: int = 100_000,
                  span: float = 12.0) -> float:
    """KL(N(mu, sigma^2) || N(0, 1)) for one coordinate by trapezoid
    integration of q log(q/p) over mu +- span*sigma."""
    if sigma <= 0.0:
        raise ConfigError("sigma must be positive")
    x = np.linspace(mu - span * sigma, mu + span * sigma, n_points)
    log_q = -0.5 * ((x - mu) / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)
    log_p = -0.5 * x ** 2 - 0.5 * np.log(2 * np.pi)
    integrand = np.exp(log_q) * (log_q - log_p)
    return float(np.trapezoid(integrand, x))


def finite_difference(loss_fn, params: Params, step: float = 1e-5) -> Params:
    """Central-difference gradient of a scalar loss over a parameter dict.

    loss_fn must be deterministic (frozen noise) and read the same arrays it
    is passed; entries are perturbed in place and restored.
    """
    grads: Params = {}
    for key, p in params.items():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            f_plus = loss_fn(params)
            flat_p[i] = orig - step
            f_minus = loss_fn(params)
            flat_p[i] = orig
            flat_g[i] = (f_plus - f_minus) / (2.0 * step)
        grads[key] = g
    return grads


def relative_gradient_error(analytic: Params, numeric: Params) -> float:
    """||g_analytic - g_numeric|| / ||g_numeric|| over all entries."""
    a = np.concatenate([analytic[k].reshape(-1) for k in sorted(analytic)])
    b = np.concatenate([numeric[k].reshape(-1) for k in sorted(numeric)])
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


def tabular_value_oracle(mdp: linear_mdp.LinearMdpSpec,
                         tol: float = 1e-12):
    """Optimal Q*, V*, and greedy policy by plain-loop dynamic programming.

    Finite horizon: exact backward induction.  Infinite horizon: value
    iteration to sup-norm tol.  Independent of the vectorized implementation.
    """
    P = mdp.transition_tensor()
    R = mdp.reward_table()
    S, A = mdp.n_states, mdp.n_actions
    if mdp.horizon is not None:
        T = mdp.horizon
        Q = np.zeros((T, S, A))
        V = np.zeros((T + 1, S))
        pi = np.zeros((T, S, A))
        for t in range(T - 1, -1, -1):
            for s in range(S):
                for a in range(A):
                    backup = 0.0
                    for s2 in range(S):
                        backup += P[s, a, s2] * V[t + 1, s2]
                    Q[t, s, a] = R[s, a] + mdp.gamma * backup
                best = int(np.argmax(Q[t, s]))
                V[t, s] = Q[t, s, best]
                pi[t, s, best] = 1.0
        return Q, V, pi
    V = np.zeros(S)
    for _ in range(1_000_000):
        V_new = np.zeros(S)
        for s in range(S):
            best = -np.inf
            for a in range(A):
                backup = R[s, a]
                for s2 in range(S):
                    backup += mdp.gamma * P[s, a, s2] * V[s2]
                best = max(best, backup)
            V_new[s] = best
        if np.max(np.abs(V_new - V)) < tol:
            break
        V = V_new
    else:
        raise NumericError("value iteration failed to converge")
    Q = np.zeros((S, A))
    pi = np.zeros((S, A))
    for s in range(S):
        for a in range(A):
            Q[s, a] = R[s, a] + mdp.gamma * sum(
                P[s, a, s2] * V_new[s2] for s2 in range(S))
        pi[s, int(np.argmax(Q[s]))] = 1.0
    return Q, V_new, pi


def policy_value_linear_solve(mdp: linear_mdp.LinearMdpSpec,
                              policy: np.ndarray):
    """Discounted stationary policy values by a direct linear solve of
    (I - gamma * P_pi) V = r_pi."""
    if mdp.gamma >= 1.0:
        raise ConfigError("linear solve needs gamma < 1")
    P = mdp.transition_tensor()
    R = mdp.reward_table()
    policy = np.asarray(policy, dtype=np.float64)
    P_pi = np.einsum("sa,sat->st", policy, P)
    r_pi = np.einsum("sa,sa->s", policy, R)
    V = np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * P_pi, r_pi)
    Q = R + mdp.gamma * P @ V
    return Q, V


# ---------------------------------------------------------------------------
# The aggregated verification suite.

def _check_lsvi(rng) -> list[OracleReport]:
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(5, 120))
        data = linear_mdp.FeatureDataset(rng.normal(size=(m, d)),
                                         rng.normal(size=m))
        post = linear_mdp.lsvi_solve(data, ridge=1.0)
        ref = normal_equation_oracle(data, ridge=1.0)
        worst = max(worst, float(np.max(np.abs(post.mean - ref))))
    return [OracleReport.check("lsvi-normal-equations", worst, 0.0, 1e-10)]


def _check_posterior_std(rng) -> list[OracleReport]:
    worst = 0.0
    for i in range(5):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(3, 60))
        data = linear_mdp.FeatureDataset(rng.normal(size=(m, d)),
                                         rng.normal(size=m))
        post = linear_mdp.lsvi_solve(data, ridge=1.0)
        psi = rng.normal(size=d)
        analytic, sampled = linear_mdp.posterior_std_check(
            post, psi, n_samples=200_000, seed=int(rng.integers(2 ** 31)))
        worst = max(worst, abs(sampled - analytic) / analytic)
    return [OracleReport.check("posterior-std-monte-carlo", worst, 0.0, 0.02)]


def _check_variance_identity(rng) -> list[OracleReport]:
    worst_pair = 0.0
    worst_kernel = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        # Scales kept moderate so bw * diff^2 stays inside exp's float range.
        q = rng.normal(scale=rng.uniform(0.1, 2.0), size=n)
        var = float(np.var(q))
        diff = q[:, None] - q[None, :]
        pair = float(np.sum(diff ** 2) / (2.0 * n * n))
        bw = float(rng.uniform(0.1, 1.0))
        kernel = float(-np.sum(np.log(np.exp(-bw * diff ** 2))) / (2.0 * n * n * bw))
        worst_pair = max(worst_pair, abs(var - pair))
        worst_kernel = max(worst_kernel, abs(var - kernel))
    return [
        OracleReport.check("variance-pairwise-identity", worst_pair, 0.0, 1e-10),
        OracleReport.check("variance-rbf-kernel-identity", worst_kernel, 0.0, 1e-10),
    ]


def _check_min_gaussian(rng) -> list[OracleReport]:
    reports = []
    worst = 0.0
    for n_draws in (2, 5, 10):
        mc, _ = min_gaussian_mc(0.0, 1.0, n_draws, trials=200_000,
                                seed=int(rng.integers(2 ** 31)))
        pred = -bnn_critic.lcb_alpha(n_draws)
        worst = max(worst, abs(mc - pred))
    reports.append(OracleReport.check("min-gaussian-alpha-shift", worst, 0.0, 0.05))
    mc2, se2 = min_gaussian_mc(0.0, 1.0, 2, trials=200_000,
                               seed=int(rng.integers(2 ** 31)))
    exact = -1.0 / np.sqrt(np.pi)
    reports.append(OracleReport.check("min-of-two-closed-form",
                                      mc2, exact, 3.0 * se2))
    return reports


def _check_kl(rng) -> list[OracleReport]:
    worst = 0.0
    for _ in range(20):
        mu = float(rng.normal(scale=2.0))
        sigma = float(rng.uniform(0.05, 3.0))
        closed = 0.5 * (sigma ** 2 + mu ** 2 - 1.0 - np.log(sigma ** 2))
        worst = max(worst, abs(closed - kl_quadrature(mu, sigma)))
    return [OracleReport.check("kl-closed-form-vs-quadrature", worst, 0.0, 1e-6)]


# Smallest |pre-activation| allowed at any relu unit the gradient checks
# evaluate; a unit within the finite-difference step of its kink reads a
# one-sided slope and makes the check ill-posed.
_KINK_MARGIN = 1e-3


def _relu_margin(net, x) -> float:
    """Smallest |pre-activation| over the net's relu units at inputs x."""
    _, cache = forward(net, x)
    acts = [net.activation] * (net.n_layers - 1) + [net.final_activation]
    return min(float(np.min(np.abs(h)))
               for h, act in zip(cache.pre_act, acts) if act == "relu")


def _tiny_problem(rng):
    """A small critic/actor problem with nonzero biases and its frozen noise,
    redrawn until every relu unit at the points the gradient checks evaluate
    (critic inputs from the data, the OOD actions and the policy's actions;
    the actor trunk at the states) is at least _KINK_MARGIN from its kink."""
    B, n, k = 6, 3, 2
    for _ in range(1000):
        critic = bnn_critic.EnsembleCritic.init(
            state_dim=2, action_dim=1, hidden_widths=(8, 8), n_members=2, rng=rng)
        policy = actor.TanhGaussianPolicy.init(2, 1, (8, 8), rng)
        for net in [*critic.feature_nets, policy.trunk]:
            for b in net.biases:
                b[:] = rng.normal(scale=0.1, size=b.shape)
        states = rng.normal(size=(B, 2))
        actions = rng.uniform(-1, 1, size=(B, 1))
        targets = rng.normal(size=B)
        ood_states = np.repeat(states, k, axis=0)
        ood_actions_ = rng.uniform(-1, 1, size=(B * k, 1))
        critic_draws = bnn_critic.draw_critic_noise(critic, n, rng)
        actor_draws = actor.draw_actor_noise(policy, critic, B, n, rng)
        mu, log_std, _ = policy.heads(states)
        pi_actions = policy.action_offset + policy.action_scale * np.tanh(
            mu + np.exp(log_std) * actor_draws.z_action)
        inputs = np.concatenate([np.hstack([states, actions]),
                                 np.hstack([ood_states, ood_actions_]),
                                 np.hstack([states, pi_actions])])
        margins = [_relu_margin(net, inputs) for net in critic.feature_nets]
        margins.append(_relu_margin(policy.trunk, states))
        if min(margins) >= _KINK_MARGIN:
            return (critic, policy, states, actions, targets, ood_states,
                    ood_actions_, critic_draws, actor_draws)
    raise NumericError("no tiny gradient-check problem clear of relu kinks")


def _check_critic_grad(rng) -> list[OracleReport]:
    critic, _, states, actions, targets, ood_s, ood_a, draws, _ = _tiny_problem(rng)
    member = 0
    _, grads, _ = bnn_critic.critic_loss(
        critic, member, states, actions, targets, ood_s, ood_a,
        eta_q=1.3, eta_ood=0.7, kl_scale=0.01, draws=draws)

    def loss_fn(params):
        critic.set_member_params(member, params)
        loss, _, _ = bnn_critic.critic_loss(
            critic, member, states, actions, targets, ood_s, ood_a,
            eta_q=1.3, eta_ood=0.7, kl_scale=0.01, draws=draws)
        return loss

    numeric = finite_difference(loss_fn, critic.member_params(member))
    err = relative_gradient_error(grads, numeric)
    return [OracleReport.check("critic-gradient-vs-fd", err, 0.0, 1e-3)]


def _check_actor_grad(rng) -> list[OracleReport]:
    critic, policy, states, _, _, _, _, _, draws = _tiny_problem(rng)
    _, grads, _ = actor.actor_loss(policy, critic, states, beta=0.3, draws=draws)

    def loss_fn(params):
        policy.set_params(params)
        loss, _, _ = actor.actor_loss(policy, critic, states, beta=0.3,
                                      draws=draws)
        return loss

    numeric = finite_difference(loss_fn, policy.get_params())
    err = relative_gradient_error(grads, numeric)
    return [OracleReport.check("actor-gradient-vs-fd", err, 0.0, 1e-3)]


def _check_coverage(rng) -> list[OracleReport]:
    mdp = linear_mdp.random_linear_mdp(5, 3, 5, rng, gamma=1.0, horizon=4)
    behavior = np.full((5, 3), 1.0 / 3.0)
    report = linear_mdp.xi_quantifier_check(
        mdp, behavior, episodes=60, ridge=1.0,
        tau_grid=[0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        trials=100, seed=int(rng.integers(2 ** 31)))
    min_step = float(np.min(np.diff(report.tuple_coverage)))
    best = float(np.max(report.tuple_coverage))
    return [
        OracleReport.check("coverage-monotone-in-tau", min_step, 0.0, 0.0, "ge"),
        OracleReport.check("coverage-attains-95pct", best, 0.95, 0.0, "ge"),
    ]


def run_verification(seed: int = 20240901) -> list[OracleReport]:
    """Run every oracle check; green iff all reports pass."""
    rng = np.random.default_rng(seed)
    reports: list[OracleReport] = []
    reports += _check_lsvi(rng)
    reports += _check_posterior_std(rng)
    reports += _check_variance_identity(rng)
    reports += _check_min_gaussian(rng)
    reports += _check_kl(rng)
    reports += _check_critic_grad(rng)
    reports += _check_actor_grad(rng)
    reports += _check_coverage(rng)
    return reports
