"""Helpers for the scalar-vs-vector differential harness.

``run_traced`` builds one catalogue episode under a given kernel and
fading mode, records it with the production :class:`TraceRecorder`, and
writes the schema-versioned trace to disk.  The differential tests then
compare trace *bodies* byte-for-byte and, on failure, locate and name
the first divergent record with :func:`repro.analysis.tracediff`.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.scenario import ScenarioConfig, run_episode
from repro.net.channel import ChannelConfig


def differential_config(kernel: str, fading: str, *, seed: int = 42,
                        n_vehicles: int = 5, duration: float = 45.0,
                        **overrides) -> ScenarioConfig:
    """The canonical small episode both kernels replay in the suite."""
    return ScenarioConfig(n_vehicles=n_vehicles, duration=duration,
                          warmup=10.0, seed=seed, kernel=kernel,
                          channel=ChannelConfig(fading_streams=fading),
                          **overrides)


def run_traced(spec, kernel: str, fading: str, out_dir: Path,
               name: str, **overrides) -> tuple:
    """Run one catalogue experiment under ``kernel`` and trace it;
    returns the trace path and the episode metrics.

    ``overrides`` adjust the harness base config.  Every run also checks
    the simulator's conservation laws (see :func:`assert_conservation`).
    """
    base = differential_config(kernel, fading, **overrides)
    experiment = spec.build(base)
    trace_path = Path(out_dir) / f"{name}-{kernel}-{fading}.trace.jsonl"
    built: list = []
    # The extra hook only keeps a handle on the scenario: it schedules
    # nothing and draws no randomness, so the episode is unchanged.
    result = run_episode(experiment.config,
                         attacks=experiment.make_attacks(),
                         setup_hooks=(*experiment.hooks, built.append),
                         trace_path=trace_path,
                         trace_meta={"spec_key": name})
    assert_conservation(built[0], result, f"{name} [{kernel}/{fading}]")
    return trace_path, result.metrics


def assert_conservation(scenario, result, label: str) -> None:
    """Conservation laws every episode must satisfy.

    * Each delivery attempt ends delivered, lost to noise or lost to
      interference.
    * Collisions were counted exactly when the true gap reached zero.
    """
    stats = scenario.channel.stats
    assert stats.delivery_attempts == (
        stats.delivered + stats.lost_noise + stats.lost_interference), (
        f"{label}: delivery attempts not conserved: {stats}")
    metrics = result.metrics
    touched = metrics.min_true_gap is not None and metrics.min_true_gap <= 0
    assert (metrics.collision_count > 0) == touched, (
        f"{label}: collision_count={metrics.collision_count} but "
        f"min_true_gap={metrics.min_true_gap}")
