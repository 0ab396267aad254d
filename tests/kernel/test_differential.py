"""Differential harness: scalar and vector kernels replay the catalogue.

Every ``CATALOGUE`` threat/variant runs through both kernels and the
resulting traces must be **bit-identical** -- no tolerance.  Two legs:

* ``pairwise`` fading (every vectorized path exercised: pooled
  dynamics, batched controllers, batched reception) over *all* variants;
* ``shared`` (legacy) fading over each threat's default variant --
  there the vector channel inherits the scalar reception loop, so the
  leg isolates the dynamics/controller batching.

On failure the assertion names the first divergent record via
``repro.analysis.tracediff`` so the drift is immediately localizable.
"""

from __future__ import annotations

import pytest

from repro.analysis.tracediff import diff_traces
from repro.experiments.catalog import experiment_spec, iter_experiment_specs
from repro.obs.trace import trace_body_bytes
from repro.platoon.vehicle import VehicleConfig

from .conftest import run_traced

ALL_VARIANTS = [(threat, variant, spec)
                for threat, variant, _, spec in iter_experiment_specs()]
DEFAULT_VARIANTS = [(threat, variant, spec)
                    for threat, variant, is_default, spec
                    in iter_experiment_specs() if is_default]

# The colliding input: GPS spoofing against followers that take their gap
# from beacon positions instead of radar drives the platoon into contact,
# so the collision-count conservation check also sees a true gap <= 0.
COLLIDING = pytest.param(
    "sensor_spoofing", "gps", experiment_spec("sensor_spoofing", "gps"),
    {"vehicle": VehicleConfig(use_radar_gap=False)},
    id="sensor_spoofing/gps-beacon-gap-collides")


def _cases(variants):
    return [pytest.param(t, v, spec, {}, id=f"{t}/{v}")
            for t, v, spec in variants] + [COLLIDING]


def _assert_equivalent(spec, threat, variant, fading, tmp_path, overrides):
    name = f"{threat}-{variant}"
    scalar, metrics = run_traced(spec, "scalar", fading, tmp_path, name,
                                 **overrides)
    vector, _ = run_traced(spec, "vector", fading, tmp_path, name,
                           **overrides)
    if overrides:
        assert metrics.collision_count > 0, "colliding input did not collide"
    if trace_body_bytes(scalar) == trace_body_bytes(vector):
        return
    diff = diff_traces(scalar, vector)
    pytest.fail(f"{threat}/{variant} [{fading}] diverged between "
                f"kernels:\n{diff.format()}")


@pytest.mark.parametrize("threat,variant,spec,overrides",
                         _cases(ALL_VARIANTS))
def test_catalogue_equivalence_pairwise(threat, variant, spec, overrides,
                                        tmp_path):
    _assert_equivalent(spec, threat, variant, "pairwise", tmp_path,
                       overrides)


@pytest.mark.parametrize("threat,variant,spec,overrides",
                         _cases(DEFAULT_VARIANTS))
def test_catalogue_equivalence_shared(threat, variant, spec, overrides,
                                      tmp_path):
    _assert_equivalent(spec, threat, variant, "shared", tmp_path, overrides)


def test_traces_also_identical_across_fadings_is_not_expected(tmp_path):
    """Sanity: pairwise mode is a *different* stochastic stream.

    The equivalence guarantee is kernel-vs-kernel at fixed fading mode;
    shared and pairwise traces of the same episode legitimately differ.
    A surprise match would mean fading is silently disabled.
    """
    threat, variant, spec = DEFAULT_VARIANTS[0]
    name = f"{threat}-{variant}"
    shared, _ = run_traced(spec, "scalar", "shared", tmp_path, name)
    pairwise, _ = run_traced(spec, "scalar", "pairwise", tmp_path, name)
    assert trace_body_bytes(shared) != trace_body_bytes(pairwise)


def test_config_hash_unchanged_by_kernel():
    """The kernel is an execution detail: episode identity is unchanged."""
    from .conftest import differential_config

    scalar = differential_config("scalar", "shared")
    vector = differential_config("vector", "shared")
    assert scalar.content_hash() == vector.content_hash()
    # ...but the pairwise stream is real episode content and must hash
    # differently.
    assert (differential_config("scalar", "pairwise").content_hash()
            != scalar.content_hash())
