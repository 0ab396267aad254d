"""Declarative highway layout: lanes, platoons, background traffic.

These are pure-data dataclasses (no simulator imports) so they nest
inside :class:`repro.core.scenario.ScenarioConfig` and flow through its
``canonical_dict`` / content-hash machinery unchanged: a highway episode
is identified by exactly this layout plus the base scenario knobs.

Everything here is JSON-round-trippable -- experiment specs and sweep
bases supply plain dicts, which :class:`ScenarioConfig` decodes back
into typed specs (:mod:`repro.core.scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class PlatoonSpec:
    """One pre-formed platoon on the highway.

    ``speed=None`` inherits the scenario's ``initial_speed``; platoons
    with distinct speeds are how merge scenarios create closure (a
    faster rear platoon catches the one ahead).
    """

    n_vehicles: int = 3
    lane: int = 0
    start_position: float = 1000.0   # leader's starting coordinate [m]
    speed: Optional[float] = None    # cruise speed [m/s]; None = scenario default
    trucks: bool = False

    def __post_init__(self) -> None:
        if self.n_vehicles < 1:
            raise ValueError("PlatoonSpec.n_vehicles must be >= 1")


@dataclass
class HighwayConfig:
    """Layout of a multi-platoon highway episode.

    Attributes
    ----------
    lanes:
        Number of parallel lanes (lane indices ``0..lanes-1``).
    platoons:
        Pre-formed platoons, in construction order.  The first entry is
        the *primary* platoon: it keeps the legacy aliases
        (``scenario.leader``, ``scenario.platoon_vehicles``) and is what
        the metrics layer scores, so attacks and defences written for
        the single-platoon world keep working unchanged.
    background_density:
        Free-driving (non-platooned) vehicles per km of road.  They
        beacon at the normal CAM rate, so density directly converts
        into channel contention for every platoon.
    road_length:
        Span of road behind the rearmost platoon that background
        traffic is seeded over [m].
    merge_policy:
        ``"none"`` -- platoons never merge on their own; ``"auto"`` --
        a rear leader that discovers a same-lane platoon ahead within
        ``merge_range`` negotiates a merge (leader-to-leader protocol).
    merge_range:
        Maximum head-to-tail distance for an automatic merge request [m].
    announce_interval:
        Period of the leaders' PLATOON_ANNOUNCE discovery broadcast [s].
    lane_change_interval:
        Period of the scripted background lane-change driver [s];
        ``0`` disables it.  Lane changes exercise the lane-partitioned
        predecessor-map invalidation in :class:`repro.platoon.world.World`.
    """

    lanes: int = 2
    platoons: tuple = field(default_factory=lambda: (
        PlatoonSpec(n_vehicles=4, lane=0, start_position=1200.0),
        PlatoonSpec(n_vehicles=4, lane=0, start_position=1000.0),
    ))
    background_density: float = 0.0
    road_length: float = 2000.0
    merge_policy: str = "none"
    merge_range: float = 200.0
    announce_interval: float = 1.0
    lane_change_interval: float = 0.0

    def __post_init__(self) -> None:
        self.platoons = tuple(self.platoons)
        if self.lanes < 1:
            raise ValueError("HighwayConfig.lanes must be >= 1")
        if not self.platoons:
            raise ValueError("HighwayConfig.platoons must not be empty")
        for spec in self.platoons:
            if not (0 <= spec.lane < self.lanes):
                raise ValueError(
                    f"platoon lane {spec.lane} outside 0..{self.lanes - 1}")
        if self.merge_policy not in ("none", "auto"):
            raise ValueError(
                f"merge_policy must be 'none' or 'auto', got {self.merge_policy!r}")
        if self.announce_interval <= 0:
            raise ValueError("announce_interval must be > 0")

    # ------------------------------------------------------------- derived

    def background_count(self) -> int:
        """Number of background vehicles implied by the density."""
        return int(self.background_density * self.road_length / 1000.0 + 0.5)

    def total_vehicles(self) -> int:
        """Platoon + background vehicle count (excludes joiner/attackers)."""
        return (sum(spec.n_vehicles for spec in self.platoons)
                + self.background_count())
