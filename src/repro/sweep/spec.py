"""Declarative sweep specifications.

A :class:`SweepSpec` names one Table II threat experiment and a set of
:class:`SweepAxis` parameter axes to vary it over.  Axis paths are
dotted::

    scenario.<field>   -- any ScenarioConfig field  (bare names work too)
    channel.<field>    -- a ChannelConfig field
    vehicle.<field>    -- a VehicleConfig field
    highway.<field>    -- a HighwayConfig field (needs a highway base)
    attack.<param>     -- an attribute of the experiment's attack(s)
    defense.<param>    -- an attribute of the defence stack (defended sweeps)

Axes sample either an explicit ``values`` grid or ``n`` seeded-random
draws from ``[low, high]`` (optionally log-spaced); random draws derive
their RNG seed from the sweep root seed and the axis path, so the
expansion is a pure function of the spec.  ``seed_replicates=N`` runs
every point at N derived seeds, replicate 0 reusing the campaign's
canonical ``derive_seed(root, threat, variant)`` stream so an N=1 sweep
point is byte-for-byte the same episode a plain catalogue runs.

Specs round-trip through plain JSON (:meth:`SweepSpec.to_dict` /
:meth:`SweepSpec.from_dict`, :func:`load_sweep_spec`); unknown keys and
malformed axes are rejected with explicit errors rather than guessed at.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

from repro.core import taxonomy
from repro.core.runner import derive_seed
from repro.core.scenario import (
    check_config,
    check_keys,
    check_types,
    config_path,
)

#: Optional ``format`` tag a spec file may carry for self-description.
SPEC_FORMAT = "platoonsec-sweepspec/1"

#: Root seed used when neither the spec nor the caller provides one.
DEFAULT_ROOT_SEED = 42

_SAMPLINGS = ("grid", "random")


def split_path(path: str) -> tuple[str, str]:
    """Split a dotted axis path into ``(target, attribute)``.

    Bare field names are scenario fields: ``"duration"`` is shorthand
    for ``"scenario.duration"``.
    """
    target, dot, attr = path.partition(".")
    if not dot:
        return "scenario", target
    return target, attr


def _validate_path(path: str) -> None:
    target, attr = split_path(path)
    if target in ("attack", "defense"):
        if not attr:
            raise ValueError(f"axis path {path!r} names no parameter")
        return
    if config_path(path) == ("scenario", "seed"):
        raise ValueError("axis path 'scenario.seed' is reserved; use "
                         "root_seed/seed_replicates to vary seeds")


def _component_attrs(threat: str, variant: Optional[str],
                     mechanism: Optional[str], target: str) -> set:
    """Settable attributes the sweep's live components expose.

    Resolved through the component registry from the experiment's
    catalogued attack components (or the mechanism's defence stack), so
    axis paths are validated against the real constructor/attribute
    schema instead of failing deep inside a worker.
    """
    from repro.core.registry import REGISTRY
    from repro.experiments import defense_stack, experiment_spec

    attrs: set = set()
    if target == "attack":
        for component in experiment_spec(threat, variant).attacks:
            attrs |= REGISTRY.settable_attrs("attack", component.key)
    else:
        for component in defense_stack(mechanism).defenses:
            attrs |= REGISTRY.settable_attrs("defense", component.key)
    return attrs


def _validate_component_axis(axis_path: str, threat: str,
                             variant: Optional[str],
                             mechanism: Optional[str]) -> None:
    target, attr = split_path(axis_path)
    valid = _component_attrs(threat, variant, mechanism, target)
    if attr not in valid:
        subject = (f"threat {threat!r}" if target == "attack"
                   else f"mechanism {mechanism!r}")
        raise ValueError(
            f"axis path {axis_path!r}: no {target} component of {subject} "
            f"has a settable attribute {attr!r} (known: {sorted(valid)})")


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: an explicit grid or seeded-random samples."""

    path: str
    values: tuple = ()
    sampling: str = "grid"          # "grid" | "random"
    low: Optional[float] = None
    high: Optional[float] = None
    n: int = 0
    log: bool = False

    def __post_init__(self) -> None:
        check_types(SweepAxis, vars(self), "axis ")
        object.__setattr__(self, "values", tuple(self.values))
        _validate_path(self.path)
        if self.sampling not in _SAMPLINGS:
            raise ValueError(f"axis {self.path!r}: unknown sampling "
                             f"{self.sampling!r}; expected one of {_SAMPLINGS}")
        if self.sampling == "grid":
            if not self.values:
                raise ValueError(f"axis {self.path!r}: grid sampling needs a "
                                 "non-empty 'values' list")
        else:
            if self.values:
                raise ValueError(f"axis {self.path!r}: random sampling takes "
                                 "low/high/n, not explicit values")
            if self.low is None or self.high is None or self.low >= self.high:
                raise ValueError(f"axis {self.path!r}: random sampling needs "
                                 "low < high")
            if self.n < 1:
                raise ValueError(f"axis {self.path!r}: random sampling needs "
                                 "n >= 1")
            if self.log and self.low <= 0:
                raise ValueError(f"axis {self.path!r}: log sampling needs "
                                 "low > 0")

    def resolve(self, root_seed: int) -> tuple:
        """The concrete axis values for a root seed, ascending for random
        draws so dose-response curves read left to right."""
        if self.sampling == "grid":
            return self.values
        rng = random.Random(derive_seed(root_seed, "sweep-axis", self.path))
        if self.log:
            lo, hi = math.log(self.low), math.log(self.high)
            draws = [math.exp(rng.uniform(lo, hi)) for _ in range(self.n)]
        else:
            draws = [rng.uniform(self.low, self.high) for _ in range(self.n)]
        return tuple(sorted(draws))

    def to_dict(self) -> dict:
        out: dict = {"path": self.path, "sampling": self.sampling}
        if self.sampling == "grid":
            out["values"] = list(self.values)
        else:
            out.update(low=self.low, high=self.high, n=self.n, log=self.log)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepAxis":
        check_keys(data, [f.name for f in fields(cls)], "axis")
        if "path" not in data:
            raise ValueError("axis needs a 'path'")
        return cls(**data)


@dataclass(frozen=True)
class Threshold:
    """A first-crossing query against a dose-response curve."""

    response: str
    level: float

    def to_dict(self) -> dict:
        return {"response": self.response, "level": self.level}

    @classmethod
    def from_dict(cls, data: dict) -> "Threshold":
        check_keys(data, ("response", "level"), "threshold")
        if "response" not in data or "level" not in data:
            raise ValueError("threshold needs 'response' and 'level'")
        check_types(cls, data, "threshold ")
        return cls(response=data["response"], level=float(data["level"]))


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter sweep over one threat experiment."""

    name: str
    threat: str
    axes: tuple = ()
    variant: Optional[str] = None
    mechanism: Optional[str] = None
    seed_replicates: int = 1
    root_seed: Optional[int] = None
    base: dict = field(default_factory=dict)   # ScenarioConfig overrides
    metric: Optional[str] = None               # headline-metric override
    thresholds: tuple = ()

    def __post_init__(self) -> None:
        check_types(SweepSpec, vars(self), "sweep spec ")
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if not self.name:
            raise ValueError("sweep needs a name")
        if self.threat not in taxonomy.THREATS:
            raise ValueError(f"unknown threat {self.threat!r}; expected one "
                             f"of {sorted(taxonomy.THREATS)}")
        if self.mechanism is not None and self.mechanism not in taxonomy.MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}; expected "
                             f"one of {sorted(taxonomy.MECHANISMS)}")
        if not self.axes:
            raise ValueError("sweep needs at least one axis")
        paths = [axis.path for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise ValueError(f"duplicate axis paths in {paths}")
        if self.seed_replicates < 1:
            raise ValueError("seed_replicates must be >= 1")
        check_config(self.base)
        if self.variant is not None:
            # Unknown variants raise ValueError naming the valid ones.
            from repro.experiments import experiment_spec

            experiment_spec(self.threat, self.variant)
        for axis in self.axes:
            target, attr = split_path(axis.path)
            if target == "defense" and self.mechanism is None:
                raise ValueError(f"axis {axis.path!r} needs a 'mechanism'")
            if target in ("attack", "defense"):
                _validate_component_axis(axis.path, self.threat,
                                         self.variant, self.mechanism)

    # ------------------------------------------------------------- plumbing

    def resolved(self, root_seed: Optional[int] = None,
                 seed_replicates: Optional[int] = None,
                 base_defaults: Optional[dict] = None) -> "SweepSpec":
        """A copy with root seed / replicates / base defaults filled in.

        Spec-file values win over ``base_defaults`` (the CLI's
        ``--vehicles/--duration`` flags); an explicit ``seed_replicates``
        argument wins over the spec (the CLI's ``--seed-replicates``).
        """
        base = dict(base_defaults or {})
        base.update(self.base)
        root = self.root_seed
        if root is None:
            root = root_seed if root_seed is not None else DEFAULT_ROOT_SEED
        replicates = (seed_replicates if seed_replicates is not None
                      else self.seed_replicates)
        return dataclasses.replace(self, root_seed=root, base=base,
                                   seed_replicates=replicates)

    def to_dict(self) -> dict:
        """Canonical plain-JSON view (what the artifact embeds)."""
        return {
            "format": SPEC_FORMAT,
            "name": self.name,
            "threat": self.threat,
            "variant": self.variant,
            "mechanism": self.mechanism,
            "axes": [axis.to_dict() for axis in self.axes],
            "seed_replicates": self.seed_replicates,
            "root_seed": self.root_seed,
            "base": dict(sorted(self.base.items())),
            "metric": self.metric,
            "thresholds": [t.to_dict() for t in self.thresholds],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        check_keys(data, {"format", *(f.name for f in fields(cls))},
                   "sweep spec")
        data = dict(data)
        fmt = data.pop("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ValueError(f"unsupported sweep spec format {fmt!r}; "
                             f"expected {SPEC_FORMAT!r}")
        if "name" not in data or "threat" not in data:
            raise ValueError("sweep spec needs 'name' and 'threat'")
        check_types(cls, data, "sweep spec ")
        return cls(**{**data, "axes": tuple(
            SweepAxis.from_dict(a) for a in data.get("axes", ())),
            "thresholds": tuple(Threshold.from_dict(t)
                                for t in data.get("thresholds", ()))})


def load_sweep_spec(path: Union[str, Path]) -> SweepSpec:
    """Parse a sweep spec JSON file; malformed content raises ValueError."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"sweep spec {path} is not valid JSON: {exc}") from None
    return SweepSpec.from_dict(data)


# --------------------------------------------------------------------------
# Shipped presets
# --------------------------------------------------------------------------

#: Canonical sweeps, runnable as ``python -m repro sweep <name>``.  They
#: deliberately leave duration/vehicle-count to the base defaults so CI
#: can run them tiny while the full-size invocation stays one flag away.
PRESETS: dict[str, SweepSpec] = {
    # §V-B: jammer power from irrelevant to platoon-disbanding.  The
    # dose-response curve is the paper's "all savings are lost" claim as
    # a measured threshold instead of a single 30 dBm point.
    "jamming-intensity": SweepSpec(
        name="jamming-intensity",
        threat="jamming",
        axes=(SweepAxis("attack.power_dbm",
                        values=(-10.0, 0.0, 10.0, 20.0, 30.0)),),
        seed_replicates=3,
        thresholds=(Threshold("disband_rate", 0.5),
                    Threshold("attacked_mean", 0.5)),
    ),
    # Channel quality sweep under the replay experiment: how much
    # ambient loss the gap-command replay needs before its impact on
    # gap_open_time washes out (or compounds).
    "channel-loss": SweepSpec(
        name="channel-loss",
        threat="replay",
        axes=(SweepAxis("channel.noise_floor_dbm",
                        values=(-95.0, -91.0, -87.0, -83.0)),),
        seed_replicates=2,
        thresholds=(Threshold("impact_ratio_mean", 1.2),),
    ),
    # §V-A.2: ghost-vehicle count vs roster inflation -- how many Sybil
    # identities it takes to saturate the membership cap.
    "sybil-count": SweepSpec(
        name="sybil-count",
        threat="sybil",
        axes=(SweepAxis("attack.n_ghosts", values=(1, 2, 4, 6, 8)),),
        seed_replicates=2,
        thresholds=(Threshold("attacked_mean", 1.5),),
    ),
    # Highway spectrum contention: background traffic density (vehicles
    # per km) vs delivery ratio on a two-platoon merge scenario, with a
    # merge-point jammer as the attack.  The baseline curve is the
    # shared-spectrum cost of density alone; the attacked curve adds the
    # jammer on top.  The default barrage-30dBm variant carries no
    # config overrides, so the axis-set highway values survive intact.
    "traffic-density": SweepSpec(
        name="traffic-density",
        threat="jamming",
        axes=(SweepAxis("highway.background_density",
                        values=(0.0, 2.0, 4.0, 8.0, 12.0)),),
        base={"highway": {
            "lanes": 2,
            "platoons": [
                {"n_vehicles": 3, "lane": 0, "start_position": 1120.0},
                {"n_vehicles": 3, "lane": 0, "start_position": 1000.0,
                 "speed": 29.0},
            ],
            "merge_policy": "auto"}},
        metric="packet_delivery_ratio",
        seed_replicates=2,
        thresholds=(Threshold("baseline_mean", 0.9),),
    ),
}
