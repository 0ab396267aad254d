"""Layout validation, JSON coercion and episode-identity tests for
:mod:`repro.highway.config`.

The content-hash tests pin the compatibility contract: a config without
a highway layout hashes exactly as it did before the highway field
existed (legacy episode caches stay valid), while any change to the
layout is episode content and must change the hash.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scenario import ScenarioConfig
from repro.highway.config import HighwayConfig, PlatoonSpec

from .conftest import three_platoon_highway


class TestValidation:
    def test_defaults_are_valid(self):
        hw = HighwayConfig()
        assert hw.lanes == 2
        assert len(hw.platoons) == 2

    @pytest.mark.parametrize("kwargs,match", [
        ({"lanes": 0}, "lanes"),
        ({"platoons": ()}, "platoons"),
        ({"platoons": (PlatoonSpec(n_vehicles=3, lane=5),)}, "lane"),
        ({"merge_policy": "sometimes"}, "merge_policy"),
        ({"announce_interval": 0.0}, "announce_interval"),
    ])
    def test_bad_layouts_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            HighwayConfig(**kwargs)

    def test_empty_platoon_rejected(self):
        with pytest.raises(ValueError, match="n_vehicles"):
            PlatoonSpec(n_vehicles=0)

    def test_platoon_dicts_coerced(self):
        # Plain JSON is decoded by ScenarioConfig, the one codec.
        hw = ScenarioConfig(highway={"platoons": [
            {"n_vehicles": 2, "lane": 1}, PlatoonSpec(n_vehicles=3)]}).highway
        assert all(isinstance(p, PlatoonSpec) for p in hw.platoons)
        assert hw.platoons[0].lane == 1

    def test_scenario_coerces_highway_dict(self):
        cfg = ScenarioConfig(highway={
            "lanes": 3,
            "platoons": [{"n_vehicles": 2, "lane": 2}],
        })
        assert isinstance(cfg.highway, HighwayConfig)
        assert cfg.highway.lanes == 3
        assert cfg.highway.platoons[0].lane == 2


class TestDerived:
    @given(density=st.floats(min_value=0.0, max_value=50.0),
           road=st.floats(min_value=100.0, max_value=5000.0))
    @settings(max_examples=50, deadline=None)
    def test_background_count_matches_density(self, density, road):
        hw = HighwayConfig(background_density=density, road_length=road)
        count = hw.background_count()
        assert count >= 0
        # count is density*road/1000 rounded to nearest integer.
        assert abs(count - density * road / 1000.0) <= 0.5

    @given(sizes=st.lists(st.integers(min_value=1, max_value=6),
                          min_size=1, max_size=4),
           density=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_total_vehicles_sums_platoons_and_background(self, sizes, density):
        hw = HighwayConfig(
            lanes=1,
            platoons=tuple(PlatoonSpec(n_vehicles=n,
                                       start_position=1000.0 + 200.0 * i)
                           for i, n in enumerate(sizes)),
            background_density=density)
        assert hw.total_vehicles() == sum(sizes) + hw.background_count()


class TestEpisodeIdentity:
    def test_no_highway_is_hash_compatible_with_legacy(self):
        """highway=None must not appear in the canonical dict at all, so
        pre-highway episode caches and golden hashes stay valid."""
        cfg = ScenarioConfig()
        assert "highway" not in cfg.canonical_dict()
        assert cfg.highway is None

    def test_same_layout_same_hash(self):
        a = ScenarioConfig(highway=three_platoon_highway())
        b = ScenarioConfig(highway=three_platoon_highway())
        assert a.content_hash() == b.content_hash()

    def test_layout_is_episode_content(self):
        base = ScenarioConfig(highway=three_platoon_highway())
        hw = three_platoon_highway()
        denser = ScenarioConfig(
            highway=HighwayConfig(
                lanes=hw.lanes, platoons=hw.platoons,
                background_density=hw.background_density + 1.0,
                merge_policy=hw.merge_policy,
                lane_change_interval=hw.lane_change_interval))
        assert base.content_hash() != denser.content_hash()
        assert base.content_hash() != ScenarioConfig().content_hash()

    def test_kernel_is_not_episode_content_on_highway(self):
        scalar = ScenarioConfig(kernel="scalar",
                                highway=three_platoon_highway())
        vector = ScenarioConfig(kernel="vector",
                                highway=three_platoon_highway())
        assert scalar.content_hash() == vector.content_hash()
