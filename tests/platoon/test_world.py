"""Unit tests for the physical world registry and synchronized control."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventLog
from repro.kernel import KinematicsPool
from repro.net.channel import RadioChannel
from repro.net.simulator import Simulator
from repro.platoon.dynamics import LongitudinalState
from repro.platoon.vehicle import Vehicle
from repro.platoon.world import World

from tests.conftest import build_platoon


class TestRegistry:
    def test_predecessor_is_nearest_ahead(self, sim, world, channel, events):
        vehicles = build_platoon(sim, world, channel, events, n=3)
        assert world.predecessor_of(vehicles[1]) is vehicles[0]
        assert world.predecessor_of(vehicles[2]) is vehicles[1]
        assert world.predecessor_of(vehicles[0]) is None

    def test_true_gap_accounts_for_length(self, sim, world, channel, events):
        vehicles = build_platoon(sim, world, channel, events, n=2, spacing=20.0)
        gap = world.true_gap(vehicles[1])
        assert gap == pytest.approx(20.0 - vehicles[0].params.length)

    def test_lane_isolation(self, sim, world, channel, events):
        vehicles = build_platoon(sim, world, channel, events, n=2)
        vehicles[0].lane = 1
        assert world.predecessor_of(vehicles[1]) is None

    def test_collisions_detected(self, sim, world, channel, events):
        vehicles = build_platoon(sim, world, channel, events, n=2, spacing=20.0)
        vehicles[1].dynamics.state.position = vehicles[0].position - 1.0
        pairs = world.collisions()
        assert (vehicles[1].vehicle_id, vehicles[0].vehicle_id) in pairs

    def test_no_collision_at_positive_gap(self, sim, world, channel, events):
        build_platoon(sim, world, channel, events, n=3)
        assert world.collisions() == []

    def test_ordered_by_position(self, sim, world, channel, events):
        vehicles = build_platoon(sim, world, channel, events, n=4)
        ordered = world.ordered_by_position()
        assert [v.vehicle_id for v in ordered] == [v.vehicle_id for v in vehicles]

    def test_duplicate_id_rejected(self, sim, world, channel, events):
        build_platoon(sim, world, channel, events, n=1)
        with pytest.raises(ValueError):
            Vehicle(sim, world, RadioChannel(Simulator(seed=1)), "veh0",
                    events)

    def test_remove(self, sim, world, channel, events):
        build_platoon(sim, world, channel, events, n=2)
        world.remove("veh1")
        assert "veh1" not in world
        assert len(world) == 1


def brute_force_predecessor(vehicles, vehicle):
    """The definition: among same-lane vehicles strictly ahead, the one at
    the smallest position; on a tie, the earliest registered."""
    ahead = [other for other in vehicles
             if other is not vehicle and other.lane == vehicle.lane
             and other.position > vehicle.position]
    if not ahead:
        return None
    nearest = min(other.position for other in ahead)
    return next(other for other in ahead if other.position == nearest)


def build_layout(layout, pooled):
    sim = Simulator(seed=3)
    world = World()
    channel = RadioChannel(sim)
    factory = None
    if pooled:
        pool = KinematicsPool()
        world.attach_pool(pool)
        factory = pool.make_dynamics
    vehicles = [Vehicle(sim, world, channel, f"v{i}", EventLog(),
                        initial=LongitudinalState(position=position),
                        lane=lane, dynamics_factory=factory)
                for i, (position, lane) in enumerate(layout)]
    return world, vehicles


class TestPredecessorProperty:
    # A handful of positions and lanes, so ties and shared lanes are common.
    layouts = st.lists(st.tuples(st.sampled_from([0.0, 5.0, 5.0, 12.5, 40.0]),
                                 st.integers(min_value=0, max_value=2)),
                       min_size=1, max_size=9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(layout=layouts)
    def test_scan_and_cached_map_match_the_definition(self, layout):
        world, vehicles = build_layout(layout, pooled=False)
        vector_world, vector_vehicles = build_layout(layout, pooled=True)
        pred_map = vector_world._predecessor_map()
        assert pred_map is not None
        index = {id(v): i for i, v in enumerate(vector_vehicles)}
        for vehicle, twin in zip(vehicles, vector_vehicles):
            expected = brute_force_predecessor(vehicles, vehicle)
            assert world.predecessor_of(vehicle) is expected
            assert expected is not vehicle
            cached = pred_map[twin.vehicle_id]
            assert (None if cached is None else index[id(cached)]) == \
                (None if expected is None else vehicles.index(expected))
            assert vector_world.predecessor_of(twin) is cached

    def test_equal_positions_pick_the_earliest_registered(self):
        world, vehicles = build_layout(
            [(0.0, 0), (7.0, 0), (7.0, 0), (7.0, 1)], pooled=False)
        assert world.predecessor_of(vehicles[0]) is vehicles[1]
        assert world.predecessor_of(vehicles[1]) is None
        assert world.predecessor_of(vehicles[3]) is None


class TestSynchronizedControl:
    def test_no_measurement_bias_regression(self, sim, world, channel, events):
        """Regression: per-vehicle sequential ticks used to inflate measured
        gaps by v*dt because predecessors moved first.  With the two-phase
        loop the steady-state gap must match the Ploeg policy exactly."""
        vehicles = build_platoon(sim, world, channel, events, n=4,
                                 speed=27.0, spacing=20.0)
        sim.run_until(30.0)
        member = vehicles[2]
        desired = member.cacc_controller.desired_gap(member.speed)
        assert world.true_gap(member) == pytest.approx(desired, abs=0.5)

    def test_all_vehicles_tick(self, sim, world, channel, events):
        vehicles = build_platoon(sim, world, channel, events, n=3)
        sim.run_until(1.0)
        assert all(v.control_ticks >= 9 for v in vehicles)

    def test_vehicle_added_mid_run_joins_loop(self, sim, world, channel, events):
        build_platoon(sim, world, channel, events, n=2)
        sim.run_until(1.0)
        late = Vehicle(sim, world, channel, "late", events,
                       initial=LongitudinalState(position=500.0, speed=20.0))
        sim.run_until(2.0)
        assert late.control_ticks >= 9

    def test_stop_control_loop(self, sim, world, channel, events):
        vehicles = build_platoon(sim, world, channel, events, n=2)
        sim.run_until(1.0)
        ticks = vehicles[0].control_ticks
        world.stop_control_loop()
        sim.run_until(2.0)
        assert vehicles[0].control_ticks == ticks
