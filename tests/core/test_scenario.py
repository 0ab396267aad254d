"""Tests for scenario construction and episode execution."""

import json
import re

import pytest

from repro.core.scenario import (
    Scenario,
    ScenarioConfig,
    apply_overrides,
    check_config,
    config_path,
    gap_cycle_hook,
    run_episode,
)
from repro.highway.config import HighwayConfig, PlatoonSpec
from repro.net.channel import ChannelConfig
from repro.platoon.vehicle import VehicleConfig
from repro.platoon.platoon import PlatoonRole


class TestConstruction:
    def test_platoon_preformed(self, fast_config):
        scenario = Scenario(fast_config)
        assert len(scenario.platoon_vehicles) == fast_config.n_vehicles
        assert scenario.leader.is_leader
        assert all(v.state.role is PlatoonRole.MEMBER
                   for v in scenario.members())
        assert scenario.leader_logic.registry.size == fast_config.n_vehicles

    def test_vehicles_ordered_front_to_back(self, fast_config):
        scenario = Scenario(fast_config)
        positions = [v.position for v in scenario.platoon_vehicles]
        assert positions == sorted(positions, reverse=True)

    def test_vlc_only_when_requested(self, fast_config):
        assert Scenario(fast_config).vlc is None
        with_vlc = Scenario(fast_config.with_overrides(with_vlc=True))
        assert with_vlc.vlc is not None
        assert all(v.vlc is not None for v in with_vlc.platoon_vehicles)

    def test_authority_and_rsus(self, fast_config):
        cfg = fast_config.with_overrides(with_authority=True,
                                         rsu_positions=(500.0, 1500.0))
        scenario = Scenario(cfg)
        assert scenario.authority is not None
        assert len(scenario.rsus) == 2

    def test_trucks_config(self, fast_config):
        scenario = Scenario(fast_config.with_overrides(trucks=True))
        assert scenario.leader.params.length > 10.0

    def test_vehicle_lookup(self, fast_config):
        scenario = Scenario(fast_config)
        assert scenario.vehicle("veh1").vehicle_id == "veh1"
        with pytest.raises(KeyError):
            scenario.vehicle("ghost")

    def test_config_overrides_immutable_base(self):
        base = ScenarioConfig()
        derived = base.with_overrides(n_vehicles=3)
        assert base.n_vehicles != 3
        assert derived.n_vehicles == 3


class TestValidation:
    @pytest.mark.parametrize("kwargs, field", [
        ({"n_vehicles": 0}, "n_vehicles"),
        ({"n_vehicles": -3}, "n_vehicles"),
        ({"duration": -5.0}, "duration"),
        ({"duration": 0.0}, "duration"),
        ({"duration": float("nan")}, "duration"),
        ({"duration": float("inf")}, "duration"),
        ({"warmup": -3.0}, "warmup"),
        ({"warmup": 100.0}, "warmup"),                # == duration
        ({"duration": 5.0}, "warmup"),                 # default warmup 10
        ({"warmup": float("nan")}, "warmup"),
        ({"initial_speed": float("nan")}, "initial_speed"),
        ({"initial_speed": float("inf")}, "initial_speed"),
        ({"initial_speed": 0.0}, "initial_speed"),
        ({"initial_speed": -4.0}, "initial_speed"),
        ({"initial_spacing": 0.0}, "initial_spacing"),
        ({"initial_spacing": -10.0}, "initial_spacing"),
        ({"initial_spacing": float("nan")}, "initial_spacing"),
        ({"cacc_kind": "nope"}, "cacc_kind"),
        ({"leader_profile": "zigzag"}, "leader_profile"),
        ({"channel": {"bitrate_bps": 0.0}}, "bitrate_bps"),
        ({"channel": {"bitrate_bps": float("inf")}}, "bitrate_bps"),
        ({"channel": {"fading_streams": "per-packet"}}, "fading_streams"),
        ({"channel": {"propagation_speed": 0.0}}, "propagation_speed"),
        ({"vehicle": {"control_period": 0.0}}, "control_period"),
        ({"vehicle": {"control_period": float("nan")}}, "control_period"),
        ({"vehicle": {"beacon_interval": -0.1}}, "beacon_interval"),
        ({"n_vehicles": 3.5}, "n_vehicles"),
        ({"duration": "90"}, "duration"),
        ({"trucks": 1}, "trucks"),
    ])
    def test_unrunnable_episode_rejected_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**kwargs)

    def test_replace_is_validated_too(self):
        with pytest.raises(ValueError, match="duration"):
            ScenarioConfig().with_overrides(duration=-1.0)

    def test_valid_edge_values_accepted(self):
        config = ScenarioConfig(duration=5.0, warmup=0.0, initial_spacing=1.0,
                                cacc_kind="PATH", leader_profile="constant")
        assert config.cacc_kind == "PATH"

    def test_highway_layout_supersedes_n_vehicles(self):
        from repro.highway.config import HighwayConfig

        config = ScenarioConfig(n_vehicles=0, highway=HighwayConfig())
        assert config.highway is not None


class TestCodec:
    """ScenarioConfig is the one plain-JSON decoder: sections given as
    objects become typed configs, and bad input names its path."""

    def test_sections_decode_from_defaults(self):
        config = ScenarioConfig(channel={"fading_streams": "pairwise"},
                                vehicle={"use_radar_gap": False},
                                rsu_positions=[500.0])
        assert config.channel == ChannelConfig(fading_streams="pairwise")
        assert config.vehicle == VehicleConfig(use_radar_gap=False)
        assert config.rsu_positions == (500.0,)

    @pytest.mark.parametrize("kwargs, path", [
        ({"channel": {"noise_floor": -90}}, "channel.noise_floor"),
        ({"vehicle": {"radar": True}}, "vehicle.radar"),
        ({"highway": {"platoons": [{"lanes": 0}]}},
         "highway.platoons[0].lanes"),
        ({"highway": {"platoons": [{}, {"speed": "fast"}]}},
         "highway.platoons[1].speed"),
        ({"channel": [1, 2]}, "channel must be an object"),
        ({"vehicle": None}, "vehicle must be an object"),
        ({"highway": {"platoons": 2}}, "highway.platoons"),
    ])
    def test_bad_sections_name_their_path(self, kwargs, path):
        with pytest.raises(ValueError, match=re.escape(path)):
            ScenarioConfig(**kwargs)

    def test_round_trip_through_json(self):
        config = ScenarioConfig(
            n_vehicles=5, kernel="vector", rsu_positions=(10.0, 20.0),
            channel=ChannelConfig(fading_streams="pairwise"),
            highway=HighwayConfig(platoons=(PlatoonSpec(speed=29.0),)))
        view = json.loads(json.dumps(config.to_dict()))
        assert ScenarioConfig(**view) == config
        assert config.canonical_dict()["highway"] == view["highway"]
        assert "highway" not in ScenarioConfig().to_dict()

    def test_config_path_owns_dotted_paths(self):
        assert config_path("duration") == ("scenario", "duration")
        assert config_path("scenario.seed") == ("scenario", "seed")
        assert config_path("channel.bitrate_bps") == ("channel",
                                                      "bitrate_bps")
        for bad in ("warp", "channel.warp", "radio.power", 7):
            with pytest.raises(ValueError):
                config_path(bad)

    def test_apply_overrides_keeps_the_rest_of_a_section(self):
        base = ScenarioConfig(channel={"fading_streams": "pairwise"})
        config = apply_overrides(base, [("channel.noise_floor_dbm", -90.0),
                                        ("duration", 50.0)])
        assert config.channel.fading_streams == "pairwise"
        assert config.channel.noise_floor_dbm == -90.0
        assert config.duration == 50.0
        with pytest.raises(ValueError, match="need a highway scenario"):
            apply_overrides(base, [("highway.lanes", 3)])

    def test_check_config_rejects_dotted_and_bad_section_keys(self):
        check_config({"duration": 30.0, "channel": {"bitrate_bps": 3e6}})
        with pytest.raises(ValueError, match="channel.noise_floor"):
            check_config({"channel": {"noise_floor": -90}})
        with pytest.raises(ValueError, match="give a section as an object"):
            check_config({"channel.bitrate_bps": 3e6})


class TestExecution:
    def test_baseline_episode_is_healthy(self, fast_config):
        result = run_episode(fast_config)
        metrics = result.metrics
        assert metrics.collisions == 0
        assert metrics.disbands == 0
        assert metrics.mean_abs_spacing_error < 1.0
        assert metrics.packet_delivery_ratio > 0.9
        assert metrics.members_remaining == fast_config.n_vehicles - 1
        assert metrics.platoon_fragments == 1

    def test_varying_leader_profile_moves_speed(self, fast_config):
        scenario = Scenario(fast_config)
        scenario.run()
        trace = scenario.metrics_collector.traces["veh0"]
        assert max(trace.speeds) - min(trace.speeds) > 1.0

    def test_constant_profile_keeps_speed(self, fast_config):
        cfg = fast_config.with_overrides(leader_profile="constant")
        scenario = Scenario(cfg)
        scenario.run()
        trace = scenario.metrics_collector.traces["veh0"]
        assert max(trace.speeds) - min(trace.speeds) < 0.5

    def test_scenario_runs_once(self, fast_config):
        scenario = Scenario(fast_config)
        scenario.run()
        with pytest.raises(RuntimeError):
            scenario.run()

    def test_joiner_completes(self, fast_joiner_config):
        result = run_episode(fast_joiner_config)
        assert result.metrics.joins_completed == 1

    def test_setup_hook_runs(self, fast_config):
        seen = []
        run_episode(fast_config, setup_hooks=[lambda sc: seen.append(sc)])
        assert len(seen) == 1
        assert isinstance(seen[0], Scenario)

    def test_gap_cycle_hook_generates_commands(self, fast_config):
        result = run_episode(fast_config,
                             setup_hooks=[gap_cycle_hook(member_index=2,
                                                         period=10.0)])
        assert result.events.count("gap_open") >= 2
        assert result.events.count("gap_closed") >= 2
        assert result.metrics.gap_open_time_s > 0

    def test_summary_flattens_attack_observables(self, fast_config):
        from repro.core.attacks import EavesdroppingAttack

        result = run_episode(fast_config, attacks=[EavesdroppingAttack()])
        summary = result.summary()
        assert "eavesdropping.captured_total" in summary


class TestDeterminism:
    def test_same_seed_reproduces_metrics(self, fast_config):
        a = run_episode(fast_config)
        b = run_episode(fast_config)
        assert a.metrics.mean_abs_spacing_error == b.metrics.mean_abs_spacing_error
        assert a.metrics.fuel_proxy == b.metrics.fuel_proxy
        assert a.metrics.packet_delivery_ratio == b.metrics.packet_delivery_ratio

    def test_different_seed_differs(self, fast_config):
        a = run_episode(fast_config)
        b = run_episode(fast_config.with_overrides(seed=fast_config.seed + 1))
        assert a.metrics.fuel_proxy != b.metrics.fuel_proxy
