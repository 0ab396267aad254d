"""Longitudinal controllers: cruise, ACC and two CACC laws.

These mirror the controller set Plexe ships (the simulation platform the
paper cites for platoon validation):

* :class:`CruiseController` -- plain speed tracking, used by free-driving
  vehicles and platoon leaders.
* :class:`AccController` -- radar-only adaptive cruise control with a
  constant time-gap policy.  This is the *fallback* controller members
  degrade to when V2V beacons are lost (e.g. under jamming), with a larger
  headway because radar alone is less capable.
* :class:`PathCaccController` -- the PATH constant-spacing CACC
  (Rajamani's formulation, the Plexe default) consuming predecessor and
  leader acceleration from beacons.
* :class:`PloegCaccController` -- a time-headway CACC with predecessor
  acceleration feed-forward (Ploeg et al. style).

All controllers consume a :class:`ControllerInputs` snapshot assembled by
the vehicle from its sensors and its beacon knowledge base -- which is the
attack surface: falsified beacons flow straight into these control laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol


@dataclass
class ControllerInputs:
    """Snapshot of everything a longitudinal controller may use.

    ``None`` fields mean "information unavailable" (no radar return, no
    recent beacon); controllers must tolerate missing cooperative data.
    """

    own_speed: float
    own_accel: float
    target_speed: float                    # cruise set-point
    gap: Optional[float] = None            # bumper-to-bumper distance to predecessor [m]
    gap_rate: Optional[float] = None       # d(gap)/dt, from radar doppler [m/s]
    predecessor_speed: Optional[float] = None   # from beacons
    predecessor_accel: Optional[float] = None   # from beacons
    leader_speed: Optional[float] = None        # from beacons
    leader_accel: Optional[float] = None        # from beacons
    desired_gap_factor: float = 1.0        # manoeuvre gap multiplier (gap opening)


class Controller(Protocol):
    """A longitudinal control law."""

    name: str

    def compute(self, inputs: ControllerInputs) -> float:
        """Return a commanded acceleration [m/s^2]."""
        ...

    def desired_gap(self, speed: float) -> float:
        """Nominal bumper-to-bumper gap at a given speed [m]."""
        ...


@dataclass
class CruiseController:
    """Proportional speed tracking for free driving and platoon leaders."""

    k_speed: float = 0.8
    name: str = "CC"

    def compute(self, inputs: ControllerInputs) -> float:
        return self.k_speed * (inputs.target_speed - inputs.own_speed)

    def desired_gap(self, speed: float) -> float:
        # Free driving keeps a conventional 2-second gap.
        return 2.0 + 2.0 * speed


@dataclass
class AccController:
    """Constant time-gap ACC using only ranging-sensor data.

    ``u = k1 * (gap - s_des) + k2 * gap_rate`` with
    ``s_des = standstill + headway * v``.  Falls back to cruise control
    when no target is in radar range.
    """

    headway: float = 1.2          # [s]
    standstill: float = 2.0       # [m]
    k_gap: float = 0.23
    k_rate: float = 0.7
    k_speed: float = 0.8
    name: str = "ACC"

    def desired_gap(self, speed: float) -> float:
        return self.standstill + self.headway * speed

    def compute(self, inputs: ControllerInputs) -> float:
        if inputs.gap is None:
            return self.k_speed * (inputs.target_speed - inputs.own_speed)
        desired = self.desired_gap(inputs.own_speed) * inputs.desired_gap_factor
        gap_error = inputs.gap - desired
        gap_rate = inputs.gap_rate
        if gap_rate is None:
            if inputs.predecessor_speed is not None:
                gap_rate = inputs.predecessor_speed - inputs.own_speed
            else:
                gap_rate = 0.0
        u_gap = self.k_gap * gap_error + self.k_rate * gap_rate
        # Classic ACC arbitration: never exceed the cruise set-point chasing
        # a faster predecessor (speed-limited gap closing).
        u_cruise = self.k_speed * (inputs.target_speed - inputs.own_speed)
        return min(u_gap, u_cruise)


@dataclass
class PathCaccController:
    """PATH constant-spacing CACC (Rajamani), the Plexe default.

    .. math::

        u_i = (1 - C_1) a_{i-1} + C_1 a_0
              - (2\\xi - C_1(\\xi + \\sqrt{\\xi^2 - 1})) \\omega_n \\dot e_i
              - (\\xi + \\sqrt{\\xi^2 - 1}) \\omega_n C_1 (v_i - v_0)
              - \\omega_n^2 e_i

    where ``e_i = gap_des - gap`` sign-adjusted below so positive error
    means "too close".  Requires both predecessor and leader data; the
    vehicle degrades to ACC when either is stale.
    """

    spacing: float = 5.0          # constant bumper-to-bumper gap [m]
    c1: float = 0.5
    xi: float = 1.0
    omega_n: float = 0.2
    name: str = "CACC-PATH"

    def desired_gap(self, speed: float) -> float:  # constant-spacing policy
        return self.spacing

    def compute(self, inputs: ControllerInputs) -> float:
        if (inputs.gap is None or inputs.predecessor_speed is None
                or inputs.predecessor_accel is None or inputs.leader_speed is None
                or inputs.leader_accel is None):
            raise ValueError("PATH CACC requires full cooperative inputs; "
                             "the vehicle should have degraded to ACC")
        desired = self.spacing * inputs.desired_gap_factor
        # e > 0 means the gap is larger than desired (we are too far back).
        e = inputs.gap - desired
        e_dot = (inputs.gap_rate if inputs.gap_rate is not None
                 else inputs.predecessor_speed - inputs.own_speed)
        root = math.sqrt(max(self.xi ** 2 - 1.0, 0.0))
        term_pred = (1.0 - self.c1) * inputs.predecessor_accel
        term_lead = self.c1 * inputs.leader_accel
        k_edot = (2.0 * self.xi - self.c1 * (self.xi + root)) * self.omega_n
        k_vlead = (self.xi + root) * self.omega_n * self.c1
        u = (term_pred + term_lead
             + k_edot * e_dot
             - k_vlead * (inputs.own_speed - inputs.leader_speed)
             + self.omega_n ** 2 * e)
        return u


@dataclass
class PloegCaccController:
    """Time-headway CACC with predecessor acceleration feed-forward.

    A practically-tuned approximation of Ploeg's :math:`H_\\infty` design:
    PD control on the headway-policy spacing error plus feed-forward of the
    predecessor's (beacon-reported) acceleration.
    """

    headway: float = 0.5          # [s] -- the whole point of CACC: sub-second gaps
    standstill: float = 2.0       # [m]
    k_p: float = 0.45
    k_d: float = 1.0
    name: str = "CACC-PLOEG"

    def desired_gap(self, speed: float) -> float:
        return self.standstill + self.headway * speed

    def compute(self, inputs: ControllerInputs) -> float:
        if (inputs.gap is None or inputs.predecessor_speed is None
                or inputs.predecessor_accel is None):
            raise ValueError("Ploeg CACC requires predecessor inputs; "
                             "the vehicle should have degraded to ACC")
        desired = self.desired_gap(inputs.own_speed) * inputs.desired_gap_factor
        e = inputs.gap - desired
        e_dot = (inputs.gap_rate if inputs.gap_rate is not None
                 else inputs.predecessor_speed - inputs.own_speed)
        return inputs.predecessor_accel + self.k_p * e + self.k_d * e_dot


#: Controller kinds a scenario's ``cacc_kind`` may name (case-insensitive).
CONTROLLERS = {
    "cruise": CruiseController,
    "acc": AccController,
    "path": PathCaccController,
    "ploeg": PloegCaccController,
}


def make_controller(kind: str, **overrides) -> Controller:
    """Factory used by scenario configs ("acc", "path", "ploeg", "cruise")."""
    key = kind.lower()
    if key not in CONTROLLERS:
        raise ValueError(f"unknown controller kind {kind!r}; "
                         f"expected one of {sorted(CONTROLLERS)}")
    return CONTROLLERS[key](**overrides)
