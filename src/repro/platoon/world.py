"""Physical world registry: who is where on the road.

The :class:`World` holds every physical vehicle so that ranging sensors can
find the true predecessor, collision detection can check real gaps, and
attackers placed on the roadside can compute distances.  It deliberately
knows nothing about platoon membership -- that is communicated state, and
keeping the two separate is what lets the attack suite create divergence
between *claimed* and *physical* reality (ghost vehicles, spoofed GPS).
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from repro.kernel.pool import KinematicsPool
    from repro.platoon.vehicle import Vehicle


class World:
    """Registry of physical vehicles on a single directed road.

    The world also owns the **synchronized control loop**: every control
    period it first lets *all* vehicles sense and decide against the frozen
    current state, and only then steps every vehicle's dynamics.  Without
    this two-phase update, vehicles ticking in creation order would measure
    gaps against predecessors that already moved this step -- a systematic
    ``v * dt`` range bias that corrupts every spacing result.

    With a :class:`~repro.kernel.pool.KinematicsPool` attached (vector
    kernel), phase 1 *plans* each command (law + inputs, same per-vehicle
    order, so sensor RNG draws are untouched), the laws are evaluated in
    one batch, and phase 2 steps all pooled vehicles with a single bulk
    array update.  Geometry queries (predecessor maps) are then cached
    between pool versions, since positions only move when the pool steps.
    """

    def __init__(self) -> None:
        self._vehicles: dict[str, "Vehicle"] = {}
        self._control_proc = None
        self.control_period: Optional[float] = None
        self._pool: Optional["KinematicsPool"] = None
        self._membership_version = 0
        self._all_pooled_cache: Optional[tuple[int, bool]] = None
        self._pred_cache: Optional[tuple[tuple[int, int], dict]] = None

    def attach_pool(self, pool: "KinematicsPool") -> None:
        """Switch this world to the vectorized control tick.

        Must be attached before (or while) vehicles whose dynamics live
        in ``pool`` are added; vehicles with non-pooled dynamics still
        work but disable geometry caching.
        """
        self._pool = pool
        self._all_pooled_cache = None
        self._pred_cache = None

    def add(self, vehicle: "Vehicle") -> None:
        if vehicle.vehicle_id in self._vehicles:
            raise ValueError(f"duplicate vehicle id {vehicle.vehicle_id!r}")
        self._vehicles[vehicle.vehicle_id] = vehicle
        self._membership_version += 1
        self._ensure_control_loop(vehicle)

    def _ensure_control_loop(self, vehicle: "Vehicle") -> None:
        if self._control_proc is not None:
            return
        self.control_period = vehicle.config.control_period
        self._control_proc = vehicle.sim.every(
            self.control_period, self._control_tick,
            initial_delay=self.control_period)

    def _control_tick(self) -> None:
        dt = self.control_period
        assert dt is not None
        if self._pool is not None:
            self._control_tick_vector(dt)
            return
        # Phase 1: everyone senses and decides against frozen state.
        decisions: list[tuple["Vehicle", float]] = []
        for vehicle in list(self._vehicles.values()):
            decisions.append((vehicle, vehicle.control_decide()))
        # Phase 2: everyone moves.
        for vehicle, command in decisions:
            if vehicle.vehicle_id in self._vehicles:  # not removed mid-tick
                vehicle.control_actuate(dt, command)

    def _control_tick_vector(self, dt: float) -> None:
        from repro.kernel.controllers import evaluate_commands

        # Phase 1: same per-vehicle order as the scalar tick (sensor RNG
        # draws depend on it), but commands stay unevaluated plans.
        vehicles = list(self._vehicles.values())
        plans = [(vehicle, vehicle.control_plan()) for vehicle in vehicles]
        commands = evaluate_commands([plan for _, plan in plans])
        # Phase 2: pooled vehicles step as one bulk array update; any
        # non-pooled stragglers keep the scalar path.
        pool = self._pool
        slots: list[int] = []
        slot_commands: list[float] = []
        scalar_steps: list[tuple["Vehicle", float]] = []
        for (vehicle, _), command in zip(plans, commands):
            if vehicle.vehicle_id not in self._vehicles:  # removed mid-tick
                continue
            dynamics = vehicle.dynamics
            if getattr(dynamics, "pool", None) is pool:
                slots.append(dynamics.slot)
                slot_commands.append(command)
            else:
                scalar_steps.append((vehicle, command))
        if slots:
            pool.step_slots(dt, slots, slot_commands)
        for vehicle, command in scalar_steps:
            vehicle.control_actuate(dt, command)

    def stop_control_loop(self) -> None:
        if self._control_proc is not None:
            self._control_proc.stop()
            self._control_proc = None

    def remove(self, vehicle_id: str) -> None:
        if self._vehicles.pop(vehicle_id, None) is not None:
            self._membership_version += 1

    def notify_lane_change(self, vehicle: "Vehicle") -> None:
        """Invalidate lane-derived geometry caches after a lane change.

        The cached predecessor map partitions vehicles by lane, so a lane
        change moves a vehicle between partitions without the pool version
        changing.  :meth:`repro.platoon.vehicle.Vehicle.change_lane` calls
        this so the next geometry query rebuilds the map.
        """
        if vehicle.vehicle_id in self._vehicles:
            self._membership_version += 1

    def get(self, vehicle_id: str) -> Optional["Vehicle"]:
        return self._vehicles.get(vehicle_id)

    def vehicles(self) -> list["Vehicle"]:
        return list(self._vehicles.values())

    def __contains__(self, vehicle_id: str) -> bool:
        return vehicle_id in self._vehicles

    def __len__(self) -> int:
        return len(self._vehicles)

    def vehicles_in_lane(self, lane: int) -> list["Vehicle"]:
        return [v for v in self._vehicles.values() if v.lane == lane]

    # ------------------------------------------------------- geometry queries

    def _all_pooled(self) -> bool:
        cached = self._all_pooled_cache
        if cached is not None and cached[0] == self._membership_version:
            return cached[1]
        ok = all(getattr(v.dynamics, "pool", None) is self._pool
                 for v in self._vehicles.values())
        self._all_pooled_cache = (self._membership_version, ok)
        return ok

    def _predecessor_map(self) -> Optional[dict]:
        """Cached ``vehicle_id -> predecessor`` map (vector kernel only).

        Valid while membership and the pool version are unchanged --
        pooled positions only move through the pool, which bumps its
        version on every write.  Any non-pooled vehicle (whose position
        can change without a version bump) disables the cache.  Lane
        changes move a vehicle between lane partitions without touching
        the pool, so :meth:`notify_lane_change` bumps the membership
        version to invalidate this cache (``Vehicle.change_lane`` calls
        it on every lane switch).
        """
        if self._pool is None:
            return None
        key = (self._membership_version, self._pool.version)
        cached = self._pred_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        if not self._all_pooled():
            return None
        by_lane: dict[int, list[tuple[float, int, "Vehicle"]]] = {}
        for order, vehicle in enumerate(self._vehicles.values()):
            by_lane.setdefault(vehicle.lane, []).append(
                (vehicle.position, order, vehicle))
        pred_map: dict[str, Optional["Vehicle"]] = {}
        for entries in by_lane.values():
            # Sorting by (position, insertion order) reproduces the linear
            # scan's tie-break exactly: the predecessor is the earliest-
            # registered vehicle among those at the smallest position
            # strictly ahead.
            entries.sort(key=lambda item: (item[0], item[1]))
            positions = [item[0] for item in entries]
            for i, (position, _, vehicle) in enumerate(entries):
                j = bisect.bisect_right(positions, position)
                pred_map[vehicle.vehicle_id] = (entries[j][2]
                                                if j < len(entries) else None)
        self._pred_cache = (key, pred_map)
        return pred_map

    def predecessor_of(self, vehicle: "Vehicle") -> Optional["Vehicle"]:
        """Nearest vehicle physically ahead in the same lane, or None."""
        pred_map = self._predecessor_map()
        if (pred_map is not None
                and self._vehicles.get(vehicle.vehicle_id) is vehicle):
            return pred_map[vehicle.vehicle_id]
        # Each position is a property read through the dynamics, so the
        # scan reads every one once.  Strict comparisons keep the tie-break
        # of the cached map: the earliest-registered vehicle among those at
        # the smallest position strictly ahead.
        lane = vehicle.lane
        own = vehicle.position
        best: Optional["Vehicle"] = None
        best_position = 0.0
        for other in self._vehicles.values():
            if other is vehicle or other.lane != lane:
                continue
            position = other.position
            if position > own and (best is None or position < best_position):
                best = other
                best_position = position
        return best

    def true_gap(self, vehicle: "Vehicle") -> Optional[float]:
        """Bumper-to-bumper distance to the physical predecessor."""
        pred = self.predecessor_of(vehicle)
        if pred is None:
            return None
        return pred.position - pred.params.length - vehicle.position

    def gap_between(self, follower: "Vehicle", leader: "Vehicle") -> float:
        return leader.position - leader.params.length - follower.position

    def collisions(self) -> list[tuple[str, str]]:
        """Pairs (follower, leader) whose bumper gap is non-positive."""
        out: list[tuple[str, str]] = []
        for vehicle in self._vehicles.values():
            pred = self.predecessor_of(vehicle)
            if pred is not None and self.gap_between(vehicle, pred) <= 0.0:
                out.append((vehicle.vehicle_id, pred.vehicle_id))
        return out

    def ordered_by_position(self, lane: Optional[int] = None) -> list["Vehicle"]:
        """Vehicles sorted front (largest position) to back."""
        pool: Iterable["Vehicle"] = self._vehicles.values()
        if lane is not None:
            pool = (v for v in pool if v.lane == lane)
        return sorted(pool, key=lambda v: -v.position)
