"""Which rvf functions the traced run wraps, and the per-layer metrics
derived from the spans they record.

Each metric reads spans under one or more root phases of the benchmark
(`train`, `eval`, `verify`, `coverage`, `gap`, `setup`) and divides by a
unit of work the benchmark counted itself (gradient steps, episodes,
verify suites, trials).  A metric whose functions could not be wrapped is
reported as absent with value 0; one whose functions were wrapped but
never called on this workload reads 0 as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tracing import PatchTarget

TRAIN, EVAL, VERIFY, SETUP = ("train",), ("eval",), ("verify",), ("setup",)
COVERAGE, GAP = ("coverage",), ("gap",)
STUDY = COVERAGE + GAP

PARAM_DICT_SPANS = ("EnsembleCritic.member_params",
                    "EnsembleCritic.set_member_params",
                    "EnsembleCritic.target_member_params",
                    "EnsembleCritic.set_target_member_params")


def critic_loss_flops(widths, n_draws: int, members: int, rows: int) -> float:
    """Multiply-add flops of one ensemble critic loss and its gradient,
    computed from the shapes (not measured): per member and row, the MLP
    forward, weight and input gradients (3x the forward matmuls) plus the
    head's sample values and their two gradient products."""
    mlp = sum(2 * a * b for a, b in zip(widths[:-1], widths[1:]))
    head = 2 * widths[-1] * n_draws
    return float(members * rows * (3 * mlp + 3 * head))


def _critic_loss_hook(tracer, args, kwargs):
    critic, states = args[0], args[1]
    ood = args[4] if len(args) > 4 else kwargs.get("ood_states")
    rows = len(np.atleast_2d(states)) + (0 if ood is None else len(ood))
    tracer.count("rows", rows)
    draws = kwargs.get("draws")
    try:
        widths = (critic.state_dim + critic.action_dim, *critic.hidden_widths)
        n_draws = draws.z_data.shape[1] if draws is not None else kwargs["n"]
        tracer.count("flops", critic_loss_flops(widths, n_draws,
                                                critic.n_members, rows))
    except (AttributeError, KeyError, TypeError):
        pass   # shapes unreadable: gflop_per_s stays 0
    return args, kwargs


def _episodes_hook(tracer, args, kwargs):
    tracer.count("episodes", args[2] if len(args) > 2 else kwargs["episodes"])
    return args, kwargs


def _loss_evals_hook(tracer, args, kwargs):
    loss_fn = args[0]

    def counted(params):
        tracer.count("loss_evals")
        return loss_fn(params)
    return (counted, *args[1:]), kwargs


def patch_targets(rvf) -> list[PatchTarget]:
    """Wrappers on the names each caller looks up at call time."""
    h, bc, ac = rvf.harness, rvf.bnn_critic, rvf.actor
    mc, ed, lm, orc = rvf.math_core, rvf.envs_data, rvf.linear_mdp, rvf.oracles
    P = PatchTarget
    targets = [
        P(h, "train", "harness.train"),
        P(h, "_collect_metrics", "harness.record"),
        P(h, "evaluate_policy", "harness.evaluate_policy", _episodes_hook),
        P(h, "pessimistic_target", "bnn_critic.pessimistic_target"),
        P(h, "ensemble_critic_losses", "bnn_critic.ensemble_critic_losses",
          _critic_loss_hook),
        P(bc, "ensemble_critic_losses", "bnn_critic.ensemble_critic_losses",
          _critic_loss_hook),
        P(h, "ood_actions", "actor.ood_actions"),
        P(h, "actor_loss", "actor.actor_loss"),
        P(ac, "actor_loss", "actor.actor_loss"),
        P(ed, "generate_dataset", "envs_data.generate_dataset"),
        P(ed, "PointMass1d.step", "envs_data.PointMass1d.step"),
        P(orc, "finite_difference", "oracles.finite_difference",
          _loss_evals_hook),
        P(orc, "min_gaussian_mc", "oracles.min_gaussian_mc"),
        P(orc, "run_verification", "oracles.run_verification"),
        P(rvf.cli, "run_verification", "oracles.run_verification"),
        P(lm, "LinearMdpSpec.transition_tensor", "linear_mdp.transition_tensor"),
    ]
    for mod in (h, bc):
        targets.append(P(mod, "q_samples", "bnn_critic.q_samples"))
    for mod in (h, mc):
        targets += [P(mod, "adam_step", "math_core.adam_step"),
                    P(mod, "soft_update", "math_core.soft_update")]
    for mod in (mc, bc, ac):
        targets += [P(mod, "forward", "math_core.forward"),
                    P(mod, "backward", "math_core.backward")]
    for span in PARAM_DICT_SPANS:
        targets.append(P(bc, span, span))
    for name in ("lsvi_solve", "lcb_penalty_table", "rollout_episodes",
                 "optimal_values", "exact_values", "posterior_std_check",
                 "xi_quantifier_check", "pessimistic_lsvi", "suboptimality_gap"):
        targets.append(P(lm, name, f"linear_mdp.{name}"))
    return targets


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    spans: tuple          # absent when none of these could be wrapped
    value: object         # (tracer, work counts) -> float


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _m(name, unit, spans, value):
    return LayerMetric(name, unit, (spans,) if isinstance(spans, str) else spans,
                       value)


ECL = "bnn_critic.ensemble_critic_losses"
FD = "oracles.finite_difference"

LAYER_METRICS = [
    _m(f"{ECL}.ms_per_step", "ms", ECL,
       lambda t, w: 1e3 * _ratio(t.seconds(ECL, TRAIN), w["steps"])),
    _m(f"{ECL}.rows_per_step", "count", ECL,
       lambda t, w: _ratio(t.counter(ECL, "rows", TRAIN), w["steps"])),
    _m(f"{ECL}.gflop_per_s", "GFLOP/s", ECL,
       lambda t, w: 1e-9 * _ratio(t.counter(ECL, "flops", TRAIN),
                                  t.seconds(ECL, TRAIN))),
    _m("bnn_critic.pessimistic_target.ms_per_step", "ms",
       "bnn_critic.pessimistic_target",
       lambda t, w: 1e3 * _ratio(t.seconds("bnn_critic.pessimistic_target",
                                           TRAIN), w["steps"])),
    _m("bnn_critic.q_samples.calls_per_step", "count", "bnn_critic.q_samples",
       lambda t, w: _ratio(t.n_calls("bnn_critic.q_samples", TRAIN), w["steps"])),
    _m("bnn_critic.q_samples.ms_per_call", "ms", "bnn_critic.q_samples",
       lambda t, w: 1e3 * _ratio(t.seconds("bnn_critic.q_samples", TRAIN),
                                 t.n_calls("bnn_critic.q_samples", TRAIN))),
    _m("bnn_critic.param_dicts.ms_per_step", "ms", PARAM_DICT_SPANS,
       lambda t, w: 1e3 * _ratio(sum(t.seconds(s, TRAIN)
                                     for s in PARAM_DICT_SPANS), w["steps"])),
    _m("actor.ood_actions.ms_per_step", "ms", "actor.ood_actions",
       lambda t, w: 1e3 * _ratio(t.seconds("actor.ood_actions", TRAIN),
                                 w["steps"])),
    _m("actor.actor_loss.ms_per_step", "ms", "actor.actor_loss",
       lambda t, w: 1e3 * _ratio(t.seconds("actor.actor_loss", TRAIN),
                                 w["steps"])),
    _m("math_core.adam_step.ms_per_step", "ms", "math_core.adam_step",
       lambda t, w: 1e3 * _ratio(t.seconds("math_core.adam_step", TRAIN),
                                 w["steps"])),
    _m("math_core.adam_step.calls_per_step", "count", "math_core.adam_step",
       lambda t, w: _ratio(t.n_calls("math_core.adam_step", TRAIN), w["steps"])),
    _m("math_core.soft_update.ms_per_step", "ms", "math_core.soft_update",
       lambda t, w: 1e3 * _ratio(t.seconds("math_core.soft_update", TRAIN),
                                 w["steps"])),
    _m("math_core.forward.calls_per_step", "count", "math_core.forward",
       lambda t, w: _ratio(t.n_calls("math_core.forward", TRAIN), w["steps"])),
    _m("math_core.backward.calls_per_step", "count", "math_core.backward",
       lambda t, w: _ratio(t.n_calls("math_core.backward", TRAIN), w["steps"])),
    # Under the evaluation phase every forward call is a one-row policy call.
    _m("math_core.forward.us_per_call", "us", "math_core.forward",
       lambda t, w: 1e6 * _ratio(t.seconds("math_core.forward", EVAL),
                                 t.n_calls("math_core.forward", EVAL))),
    _m("envs_data.PointMass1d.step.us_per_call", "us",
       "envs_data.PointMass1d.step",
       lambda t, w: 1e6 * _ratio(t.seconds("envs_data.PointMass1d.step", EVAL),
                                 t.n_calls("envs_data.PointMass1d.step", EVAL))),
    _m("harness.evaluate_policy.ms_per_episode", "ms", "harness.evaluate_policy",
       lambda t, w: 1e3 * _ratio(
           t.seconds("harness.evaluate_policy", EVAL),
           t.counter("harness.evaluate_policy", "episodes", EVAL))),
    _m("harness.record.ms_per_row", "ms", "harness.record",
       lambda t, w: 1e3 * _ratio(t.seconds("harness.record", TRAIN),
                                 t.n_calls("harness.record", TRAIN))),
    _m("harness.train.ms_per_step", "ms", "harness.train",
       lambda t, w: 1e3 * _ratio(t.seconds("harness.train", TRAIN), w["steps"])),
    _m("harness.train.unattributed_ms_per_step", "ms", "harness.train",
       lambda t, w: 1e3 * _ratio(t.self_seconds("harness.train", TRAIN),
                                 w["steps"])),
    _m("envs_data.generate_dataset.s", "s", "envs_data.generate_dataset",
       lambda t, w: t.seconds("envs_data.generate_dataset", SETUP)),
    _m("linear_mdp.lsvi_solve.us_per_call", "us", "linear_mdp.lsvi_solve",
       lambda t, w: 1e6 * _ratio(t.seconds("linear_mdp.lsvi_solve", STUDY),
                                 t.n_calls("linear_mdp.lsvi_solve", STUDY))),
    _m("linear_mdp.lsvi_solve.calls_per_trial", "count", "linear_mdp.lsvi_solve",
       lambda t, w: _ratio(t.n_calls("linear_mdp.lsvi_solve", STUDY),
                           w["coverage_trials"] + w["gap_trials"])),
    _m("linear_mdp.lcb_penalty_table.us_per_call", "us",
       "linear_mdp.lcb_penalty_table",
       lambda t, w: 1e6 * _ratio(t.seconds("linear_mdp.lcb_penalty_table", STUDY),
                                 t.n_calls("linear_mdp.lcb_penalty_table", STUDY))),
    _m("linear_mdp.rollout_episodes.ms_per_call", "ms",
       "linear_mdp.rollout_episodes",
       lambda t, w: 1e3 * _ratio(t.seconds("linear_mdp.rollout_episodes", STUDY),
                                 t.n_calls("linear_mdp.rollout_episodes", STUDY))),
    _m("linear_mdp.transition_tensor.calls_per_trial", "count",
       "linear_mdp.transition_tensor",
       lambda t, w: _ratio(t.n_calls("linear_mdp.transition_tensor", STUDY),
                           w["coverage_trials"] + w["gap_trials"])),
    _m("linear_mdp.optimal_values.calls_per_trial", "count",
       "linear_mdp.optimal_values",
       lambda t, w: _ratio(t.n_calls("linear_mdp.optimal_values", GAP),
                           w["gap_trials"])),
    _m("linear_mdp.exact_values.ms_per_call", "ms", "linear_mdp.exact_values",
       lambda t, w: 1e3 * _ratio(t.seconds("linear_mdp.exact_values", GAP),
                                 t.n_calls("linear_mdp.exact_values", GAP))),
    _m("linear_mdp.xi_quantifier_check.ms_per_trial", "ms",
       "linear_mdp.xi_quantifier_check",
       lambda t, w: 1e3 * _ratio(t.seconds("linear_mdp.xi_quantifier_check",
                                           COVERAGE), w["coverage_trials"])),
    _m("linear_mdp.gap_trial.ms_per_trial", "ms", (),
       lambda t, w: 1e3 * _ratio(t.seconds("gap", GAP), w["gap_trials"])),
    _m(f"{FD}.loss_evals", "count", FD,
       lambda t, w: _ratio(t.counter(FD, "loss_evals", VERIFY), w["suites"])),
    _m(f"{FD}.ms", "ms", FD,
       lambda t, w: 1e3 * _ratio(t.seconds(FD, VERIFY), w["suites"])),
    _m("oracles.min_gaussian_mc.ms", "ms", "oracles.min_gaussian_mc",
       lambda t, w: 1e3 * _ratio(t.seconds("oracles.min_gaussian_mc", VERIFY),
                                 w["suites"])),
    _m("linear_mdp.posterior_std_check.ms", "ms",
       "linear_mdp.posterior_std_check",
       lambda t, w: 1e3 * _ratio(t.seconds("linear_mdp.posterior_std_check",
                                           VERIFY), w["suites"])),
    _m("oracles.verify.ms", "ms", (),
       lambda t, w: 1e3 * _ratio(t.seconds("verify", VERIFY), w["suites"])),
    _m("oracles.verify.unattributed_ms", "ms", "oracles.run_verification",
       lambda t, w: 1e3 * _ratio(t.self_seconds("oracles.run_verification",
                                                VERIFY), w["suites"])),
]


def layer_metrics(tracer, patcher, work: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric, plus the names reported absent."""
    out, absent = {}, []
    for m in LAYER_METRICS:
        if m.spans and all(patcher.absent(s) for s in m.spans):
            absent.append(m.name)
            value = 0.0
        else:
            value = float(m.value(tracer, work))
        out[m.name] = {"value": value, "unit": m.unit}
    return out, absent
