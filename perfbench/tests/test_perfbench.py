"""Self-tests of the benchmark: span arithmetic and its correctness gates.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

import hostspeed
import layers
import run
import tracer
import workloads


class FakeClock:
    """perf_counter replacement that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer.time, "perf_counter", clock)
    t = tracer.Tracer()

    def leaf(dt):
        clock.advance(dt)

    def middle():
        clock.advance(1.0)
        t.span("leaf", leaf, 2.0)
        clock.advance(0.5)
        t.span("leaf", leaf, 3.0)
        # a recursive call of the same name nested inside itself
        t.span("middle", lambda: clock.advance(0.25))

    def root():
        clock.advance(4.0)
        t.span("middle", middle)

    t.span("root", root)
    s = t.summary()
    assert s["root"] == {"calls": 1, "total_s": 10.75, "self_s": 4.0}
    # the outer middle span covers 6.75 s; the inner one is not counted
    # again in total_s, but its own self time is
    assert s["middle"]["calls"] == 2
    assert s["middle"]["total_s"] == 6.75
    assert s["middle"]["self_s"] == pytest.approx(1.5 + 0.25)
    assert s["leaf"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


def test_summaries_split_by_run_id():
    names = ["a", "b"]
    spans = {
        "name_id": np.array([0, 1, 0, 1]),
        "parent": np.array([-1, 0, -1, 2]),
        "run_id": np.array([0, 0, 1, 1]),
        "start": np.array([0.0, 1.0, 10.0, 10.5]),
        "end": np.array([4.0, 2.0, 12.0, 11.0]),
        "outer": np.array([True, True, True, True]),
    }
    setup = tracer.summarize(names, spans, spans["run_id"] == 0)
    passes = tracer.summarize(names, spans, spans["run_id"] > 0)
    assert setup["a"]["self_s"] == 3.0 and passes["a"]["self_s"] == 1.5
    assert tracer.children_count(names, spans, "b", "a") == 2


def test_uninstall_restores_names_bound_after_wrapping():
    import su3mag.phase as phase
    import su3mag.reports as reports
    orig = phase.integrate_flow
    t = tracer.Tracer()
    wrapper = t.wrap_function(phase, "integrate_flow")
    assert reports.integrate_flow is wrapper
    reports.integrate_flow_alias = phase.integrate_flow  # bound while wrapped
    try:
        t.uninstall()
        assert phase.integrate_flow is orig
        assert reports.integrate_flow is orig
        assert reports.integrate_flow_alias is orig
    finally:
        del reports.integrate_flow_alias


def test_digest_mismatch_is_a_failed_op():
    reference = workloads.load_reference()
    key = "serialize/su2"
    from su3mag.algebra import build_su2
    text = build_su2().serialize()
    assert workloads.check_exact(key, text, reference["exact"]).ok
    bad = workloads.check_exact(key, text + " ", reference["exact"])
    assert not bad.ok and "sha256" in bad.detail
    assert not workloads.check_exact("no/such/output", text,
                                     reference["exact"]).ok


def test_step_guard_fires_on_a_zero_step_flow():
    from su3mag.reports import make_system
    from su3mag.phase import integrate_flow
    sys_ = make_system("irregular", 0.1)
    pt = sys_.random_regular_point(np.random.default_rng(3))
    traj = integrate_flow(sys_, pt, t_end=0.01, dt=1.0)  # rounds to 0 steps
    ok, detail = workloads.flow_steps_ok(traj, 0.01, 1.0)
    assert not ok and "0 steps" in detail
    short = SimpleNamespace(points=traj.points * 3, times=traj.times * 3)
    ok, detail = workloads.flow_steps_ok(short, 0.01, 0.001)
    assert not ok and "expected 10" in detail
    full = SimpleNamespace(points=[None] * 11, times=[0.0] * 11)
    assert workloads.flow_steps_ok(full, 0.01, 0.001) == (True, "")


def test_normalize_rescales_by_mean_probe_speed():
    ref = hostspeed.REFERENCE_PROBE_S
    # probes at the reference time: only their own time is taken off
    assert hostspeed.normalize(1.0, [ref] * 4) == pytest.approx(1.0 - 4 * ref)
    # half the interval at full speed, half at half speed: mean speed 3/4
    probes = [ref, 2 * ref]
    assert hostspeed.normalize(2.0, probes) == \
        pytest.approx((2.0 - 3 * ref) * 0.75)
    with pytest.raises(ValueError):
        hostspeed.normalize(1.0, [])


def test_host_speed_probe_runs_on_its_timer():
    host = hostspeed.HostSpeed()
    host.start()
    try:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
    finally:
        host.stop()
    assert len(host.durations) >= 5 and min(host.durations) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (100.0 / 11, 0)
    pct, value = run.tail_percentile(list(range(100, 0, -1)))
    assert pct == 90.0 and value == 90


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
