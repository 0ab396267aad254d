"""Scenario variants: trucks, PATH CACC, beacon-gap mode, spacing override."""

import pytest

from repro.core.scenario import Scenario, ScenarioConfig, run_episode
from repro.platoon.vehicle import VehicleConfig


class TestTrucks:
    def test_truck_platoon_stable_at_equilibrium(self):
        config = ScenarioConfig(n_vehicles=6, trucks=True, initial_speed=24.0,
                                duration=40.0, warmup=8.0, seed=71)
        result = run_episode(config)
        assert result.metrics.collisions == 0
        assert result.metrics.mean_abs_spacing_error < 0.8
        assert result.metrics.disbands == 0

    def test_truck_spacing_accounts_for_length(self):
        config = ScenarioConfig(n_vehicles=3, trucks=True, initial_speed=24.0,
                                duration=5.0, warmup=0.0, seed=71)
        scenario = Scenario(config)
        follower = scenario.platoon_vehicles[1]
        gap = scenario.world.true_gap(follower)
        desired = follower.cacc_controller.desired_gap(24.0)
        assert gap == pytest.approx(desired, abs=1.0)


class TestPathCacc:
    def test_constant_spacing_equilibrium(self):
        config = ScenarioConfig(n_vehicles=5, cacc_kind="path",
                                duration=40.0, warmup=8.0, seed=72,
                                leader_profile="constant")
        scenario = Scenario(config)
        result = scenario.run()
        member = scenario.platoon_vehicles[2]
        gap = scenario.world.true_gap(member)
        assert gap == pytest.approx(member.cacc_controller.desired_gap(27.0),
                                    abs=1.0)
        assert result.metrics.collisions == 0


class TestBeaconGapMode:
    def test_radarless_platoon_runs_on_beacon_positions(self):
        config = ScenarioConfig(
            n_vehicles=5, duration=40.0, warmup=8.0, seed=73,
            vehicle=VehicleConfig(use_radar_gap=False))
        result = run_episode(config)
        assert result.metrics.collisions == 0
        # Beacon positions carry GPS noise; spacing is sloppier than radar
        # but the platoon holds.
        assert result.metrics.mean_abs_spacing_error < 3.0
        assert result.metrics.disbands == 0


class TestSpacingOverride:
    def test_explicit_initial_spacing_respected(self):
        config = ScenarioConfig(n_vehicles=3, initial_spacing=40.0,
                                duration=1.0, warmup=0.0, seed=74)
        scenario = Scenario(config)
        a, b = scenario.platoon_vehicles[:2]
        assert a.position - b.position == pytest.approx(40.0)

    def test_tiny_spacing_clamped_to_physical(self):
        config = ScenarioConfig(n_vehicles=3, initial_spacing=1.0,
                                duration=1.0, warmup=0.0, seed=75)
        scenario = Scenario(config)
        a, b = scenario.platoon_vehicles[:2]
        assert a.position - b.position >= a.params.length
        assert scenario.world.collisions() == []


class TestRsuCoverageGaps:
    def test_vehicles_outside_coverage_never_get_keys(self):
        from repro.core.defenses import RsuKeyDistributionDefense

        # RSUs far behind the route: the platoon starts at 1000 m and
        # drives away, never entering coverage.
        config = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=5.0,
                                seed=76, with_authority=True,
                                rsu_positions=(-5000.0,), rsu_coverage=200.0)
        defense = RsuKeyDistributionDefense()
        run_episode(config, defenses=[defense])
        assert defense.vehicles_with_key() == 0

    def test_partial_coverage_serves_en_route(self):
        from repro.core.defenses import RsuKeyDistributionDefense

        config = ScenarioConfig(n_vehicles=4, duration=60.0, warmup=5.0,
                                seed=77, with_authority=True,
                                rsu_positions=(2000.0,), rsu_coverage=400.0)
        defense = RsuKeyDistributionDefense()
        run_episode(config, defenses=[defense])
        # The platoon passes through the single RSU's coverage window and
        # picks up keys there.
        assert defense.vehicles_with_key() == 4
