"""Span aggregation, self time, patching and graceful absence."""

import types

import layers
import pytest
import rvf
import rvf.cli  # noqa: F401  (not imported by the rvf package)
from tracing import Patcher, PatchTarget, Tracer


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_nested_tree():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]; then a second root call
    # [20, 22] > a [20.5, 21].
    clock = FakeClock([0, 1, 4, 5, 6, 7, 9, 10, 20, 20.5, 21, 22])
    t = Tracer(clock)
    with t.span("root"):
        with t.span("a"):
            t.count("rows", 3)
        with t.span("b"):
            with t.span("c"):
                pass
    with t.span("root"):
        with t.span("a"):
            t.count("rows", 2)

    assert t.calls[("root",)] == 2
    assert t.total[("root",)] == pytest.approx(12.0)
    assert t.self_time[("root",)] == pytest.approx(10 - 3 - 4 + 2 - 0.5)
    assert t.self_time[("root", "a")] == pytest.approx(3.5)
    assert t.self_time[("root", "b")] == pytest.approx(3.0)
    assert t.self_time[("root", "b", "c")] == pytest.approx(1.0)
    assert t.n_calls("a", ("root",)) == 2
    assert t.n_calls("a", ("other",)) == 0
    assert t.seconds("c") == pytest.approx(1.0)
    assert t.counter("a", "rows", ("root",)) == 5
    paths = [row["path"] for row in t.tree()]
    assert paths == ["root", "root/a", "root/b", "root/b/c"]


def test_self_times_add_up_to_root_total():
    clock = FakeClock([0, 2, 3, 5, 8, 13, 20, 21])
    t = Tracer(clock)
    with t.span("r"), t.span("x"), t.span("y"):
        pass
    with t.span("r"):
        pass
    assert sum(t.self_time.values()) == pytest.approx(t.seconds("r"))


def test_patch_wraps_restores_and_reports_missing():
    mod = types.ModuleType("fake")
    mod.f = lambda x: x + 1

    class Thing:
        def g(self):
            return 7
    mod.Thing = Thing
    t = Tracer()
    p = Patcher(t)
    p.install([PatchTarget(mod, "f", "fake.f"),
               PatchTarget(mod, "Thing.g", "fake.g"),
               PatchTarget(mod, "gone", "fake.gone"),
               PatchTarget(mod, "Missing.h", "fake.h")])
    with t.span("root"):
        assert mod.f(1) == 2
        assert mod.Thing().g() == 7
    assert t.n_calls("fake.f") == 1 and t.n_calls("fake.g") == 1
    assert p.absent("fake.gone") and p.absent("fake.h")
    assert not p.absent("fake.f")
    p.restore()
    mod.f(1)
    assert t.n_calls("fake.f") == 1


def test_every_patch_target_exists_in_rvf():
    p = Patcher(Tracer())
    p.install(layers.patch_targets(rvf))
    try:
        wanted = {t.span for t in layers.patch_targets(rvf)}
        assert {s for s in wanted if p.absent(s)} == set()
    finally:
        p.restore()


def test_absent_functions_give_zero_metrics_instead_of_failing():
    work = {"steps": 10, "coverage_trials": 0, "gap_trials": 0, "suites": 0}
    metrics, absent = layers.layer_metrics(Tracer(), Patcher(Tracer()), work)
    assert set(metrics) == {m.name for m in layers.LAYER_METRICS}
    assert all(v["value"] == 0.0 for v in metrics.values())
    assert "bnn_critic.param_dicts.ms_per_step" in absent
    assert "oracles.verify.ms" not in absent   # a benchmark span, never absent


def test_critic_flops_count_matches_hand_count():
    # widths (3, 4, 2), 5 draws, 2 members, 10 rows:
    # mlp = 2*3*4 + 2*4*2 = 40, head = 2*2*5 = 20, per row 3*40 + 3*20 = 180.
    assert layers.critic_loss_flops((3, 4, 2), 5, 2, 10) == 2 * 10 * 180
