"""Span maths and wrapper hygiene of the traced run."""

import pytest

import run
import tracing
import workloads
from repro.core.defenses import message_auth
from repro.core.scenario import ScenarioConfig, run_episode
from repro.kernel.channel import VectorRadioChannel
from repro.net.channel import RadioChannel
from repro.net.radio import Radio
from repro.net.simulator import Simulator
from repro.security import crypto


class FakeClock:
    """Advances only when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def _check_against_union(tracer: tracing.Tracer) -> None:
    union = tracing.union_self_times(tracer.spans)
    by_name: dict = {}
    for index, span in enumerate(tracer.spans):
        by_name[span[0]] = by_name.get(span[0], 0.0) + union[index]
    for name, seconds in by_name.items():
        assert tracer.self_time(name) == pytest.approx(seconds)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock, record=True)

    def inner():
        clock.work(2.0)

    def middle():
        clock.work(1.0)
        tracer.call("inner", inner, (), {})
        clock.work(0.5)

    def outer():
        clock.work(3.0)
        tracer.call("middle", middle, (), {})

    tracer.call("outer", outer, (), {})
    assert tracer.total_time("outer") == pytest.approx(6.5)
    assert tracer.self_time("outer") == pytest.approx(3.0)
    assert tracer.self_time("middle") == pytest.approx(1.5)
    assert tracer.self_time("inner") == pytest.approx(2.0)
    _check_against_union(tracer)


def test_self_time_of_sibling_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock, record=True)

    def child():
        clock.work(1.25)

    def parent():
        for _ in range(3):
            clock.work(0.5)
            tracer.call("child", child, (), {})
        clock.work(0.5)

    tracer.call("parent", parent, (), {})
    assert tracer.calls("child") == 3
    assert tracer.self_time("parent") == pytest.approx(2.0)
    assert tracer.self_time("child") == pytest.approx(3.75)
    _check_against_union(tracer)


def test_union_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["b", 3.0, 6.0, 0],      # overlaps a by one second
             ["c", 8.0, 12.0, 0]]     # runs past the parent's end
    union = tracing.union_self_times(spans)
    assert union[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert union[1] == pytest.approx(3.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.work(1.0)
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError):
            tracer.call("boom", boom, (), {})

    tracer.call("parent", parent, (), {})
    assert tracer.total_time("boom") == pytest.approx(1.0)
    assert tracer.self_time("parent") == pytest.approx(0.0)


def test_restore_puts_back_every_original_by_identity():
    broadcast = vars(RadioChannel)["broadcast"]
    schedule_at = vars(Simulator)["schedule_at"]
    hmac_tag = crypto.hmac_tag
    assert message_auth.hmac_tag is hmac_tag
    assert tracing.leftover_wrappers() == []

    patcher = tracing.instrument(tracing.Tracer(), tracing.EpisodeStats())
    try:
        assert vars(RadioChannel)["broadcast"] is not broadcast
        assert message_auth.hmac_tag is not hmac_tag
        assert tracing.leftover_wrappers() != []
    finally:
        patcher.restore()

    assert vars(RadioChannel)["broadcast"] is broadcast
    assert vars(Simulator)["schedule_at"] is schedule_at
    assert "broadcast" not in vars(VectorRadioChannel)
    assert crypto.hmac_tag is hmac_tag
    assert message_auth.hmac_tag is hmac_tag
    assert tracing.leftover_wrappers() == []


def test_wrapped_filters_can_still_be_removed_by_value():
    sim = Simulator(seed=1)
    radio = Radio(sim, RadioChannel(sim), "r0", lambda: 0.0)

    def reject(msg):
        return False

    patcher = tracing.instrument(tracing.Tracer(), tracing.EpisodeStats())
    try:
        radio.add_filter(reject)
        assert radio._filters[0] is not reject
        radio.remove_filter(reject)
    finally:
        patcher.restore()
    assert radio._filters == []


def test_traced_episode_matches_untraced_episode():
    config = ScenarioConfig(n_vehicles=3, duration=12.0, warmup=2.0, seed=5)
    plain = run_episode(config).metrics.summary()
    tracer = tracing.Tracer()
    stats = tracing.EpisodeStats()
    patcher = tracing.instrument(tracer, stats)
    try:
        traced = run_episode(config).metrics.summary()
    finally:
        patcher.restore()
    assert traced == plain
    assert stats.broadcasts > 0 and stats.rx_attempts > 0
    assert tracer.calls("Vehicle.send_beacon") > 0
    assert tracer.calls("World._control_tick") > 0
    metrics = tracing.layer_metrics(tracer, stats, {}, 0, 0, 0)
    run_level = {"trace.overhead_frac", "failed_frac"}
    assert set(metrics) == set(run.PER_LAYER) - run_level


def test_every_entry_point_is_hit_by_some_workload():
    covered = set()
    for name in workloads.WORKLOADS:
        covered.update(workloads.load_reference(name)["coverage"])
    assert set(tracing.all_entry_points()) <= covered


def test_both_kernels_share_one_channel_span_name_set():
    tracing.check_channel_names()
