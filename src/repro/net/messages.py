"""V2X message types exchanged inside a platoon.

Messages model the CAM/BSM beacons and the manoeuvre-coordination traffic
that the paper's attacks target.  Every message has a canonical byte
encoding (:meth:`Message.signing_bytes`) so the security layer can compute
MACs and signatures over exactly the fields an attacker could tamper with.

The security *envelope* fields (``auth_tag``, ``signature``, ``cert``,
``nonce``) live on the base class but are excluded from the signed bytes;
they are filled in by :mod:`repro.core.defenses.message_auth` and verified
on reception.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Any, Optional


class MessageType(enum.Enum):
    """Top-level classification of platoon traffic."""

    BEACON = "beacon"
    MANEUVER = "maneuver"
    KEY_DISTRIBUTION = "key_distribution"
    DATA = "data"


class ManeuverType(enum.Enum):
    """Manoeuvre-coordination message kinds (join / leave / split protocol)."""

    JOIN_REQUEST = "join_request"
    JOIN_ACCEPT = "join_accept"
    JOIN_REJECT = "join_reject"
    GAP_OPEN = "gap_open"          # leader asks a member to open a gap for a joiner
    GAP_READY = "gap_ready"        # member reports the gap is open
    GAP_CLOSE = "gap_close"        # leader asks a member to close its gap
    ROSTER = "roster"              # leader broadcasts the membership roster
    JOIN_COMPLETE = "join_complete"
    LEAVE_REQUEST = "leave_request"
    LEAVE_ACCEPT = "leave_accept"
    LEAVE_COMPLETE = "leave_complete"
    SPLIT_COMMAND = "split_command"  # platoon splits at a given member
    DISSOLVE = "dissolve"            # leader disbands the platoon
    SPEED_COMMAND = "speed_command"  # leader-issued cruise speed change
    MERGE_REQUEST = "merge_request"  # rear leader asks to merge into front
    MERGE_ACCEPT = "merge_accept"
    MERGE_REJECT = "merge_reject"
    MERGE_COMMIT = "merge_commit"    # rear leader commits its members over
    PLATOON_ANNOUNCE = "platoon_announce"  # leader advertises its platoon to neighbours


_msg_seq = itertools.count(1)

#: Encoder behind :meth:`Message.signing_bytes`; configured exactly as
#: ``json.dumps(body, sort_keys=True, default=str)``, so its output is
#: byte-identical while the per-frame encoder construction is saved.
_SIGNING_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


@functools.cache
def _signed_field_names(cls: type) -> tuple[str, ...]:
    """Names of the dataclass fields of ``cls`` that the signature covers."""
    return tuple(f.name for f in fields(cls)
                 if f.name not in cls._ENVELOPE_FIELDS)


def _next_seq() -> int:
    return next(_msg_seq)


def reset_message_seq() -> None:
    """Restart the process-wide sequence counter.

    ``seq`` is covered by :meth:`Message.signing_bytes`, so its decimal
    width feeds :meth:`Message.size_bits` and therefore airtime.  Episodes
    must call this at construction time: otherwise the counter carries
    over from earlier episodes in the same process and identically-seeded
    runs diverge at the MAC layer.
    """
    global _msg_seq
    _msg_seq = itertools.count(1)


@dataclass
class Message:
    """Base class for all over-the-air messages.

    Attributes
    ----------
    sender_id:
        The *claimed* sender identity.  Impersonation and Sybil attacks
        forge this field; authenticity defences bind it to a key or
        certificate.
    timestamp:
        The *claimed* creation time.  Replay defences check it against the
        receive time.
    seq:
        A per-process unique sequence number (monotone across the run).
    """

    sender_id: str
    timestamp: float
    seq: int = field(default_factory=_next_seq)
    msg_type: MessageType = MessageType.DATA
    payload: dict = field(default_factory=dict)
    # -- security envelope (not covered by signing_bytes) ------------------
    auth_tag: Optional[bytes] = None      # symmetric MAC (group key)
    signature: Optional[bytes] = None     # asymmetric signature (PKI)
    cert: Optional[Any] = None            # certificate presented with signature
    nonce: Optional[int] = None           # anti-replay nonce
    vlc_copy: bool = False                # True when this copy travelled over VLC

    _ENVELOPE_FIELDS = ("auth_tag", "signature", "cert", "nonce", "vlc_copy")

    def signing_bytes(self) -> bytes:
        """Canonical byte encoding of all authenticated fields.

        The encoding is a JSON object with sorted keys covering every
        dataclass field except the security envelope.  Any tampering with a
        covered field changes these bytes and therefore invalidates MACs
        and signatures computed over them.
        """
        body: dict[str, Any] = {}
        for name in _signed_field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, enum.Enum):
                value = value.value
            body[name] = value
        if self.nonce is not None:
            body["nonce"] = self.nonce
        return _SIGNING_ENCODER.encode(body).encode()

    def size_bits(self) -> int:
        """Approximate on-air size, used for airtime computation."""
        overhead_bits = 8 * 64  # headers + envelope
        return 8 * len(self.signing_bytes()) + overhead_bits

    def copy(self) -> "Message":
        """Deep-ish copy used by replay/falsification attacks.

        The payload dict is copied so an attacker mutating the copy does
        not silently rewrite the victim's original message.
        """
        import copy as _copy

        return _copy.deepcopy(self)

    def describe(self) -> str:
        return (f"{type(self).__name__}(from={self.sender_id}, t={self.timestamp:.3f}, "
                f"seq={self.seq})")


@dataclass
class Beacon(Message):
    """Periodic cooperative-awareness beacon (CAM/BSM-like).

    Carries exactly the state the paper lists as shared inside a platoon:
    position, speed, change of speed (acceleration) and heading, plus
    platoon bookkeeping used by the CACC controllers.
    """

    position: float = 0.0         # longitudinal road coordinate [m]
    speed: float = 0.0            # [m/s]
    acceleration: float = 0.0     # [m/s^2]
    heading: float = 0.0          # [rad]; 0 = along the road
    lane: int = 0
    platoon_id: Optional[str] = None
    platoon_index: Optional[int] = None   # 0 = leader
    is_leader: bool = False

    def __post_init__(self) -> None:
        self.msg_type = MessageType.BEACON


@dataclass
class ManeuverMessage(Message):
    """Join/leave/split coordination message.

    ``maneuver`` is the protocol step; ``target_id`` identifies the vehicle
    the step applies to (e.g. which member must open a gap, or where the
    platoon splits).
    """

    maneuver: ManeuverType = ManeuverType.JOIN_REQUEST
    platoon_id: Optional[str] = None
    target_id: Optional[str] = None
    gap_size: float = 0.0          # requested inter-vehicle gap for entrances [m]
    split_index: Optional[int] = None
    speed: Optional[float] = None  # for SPEED_COMMAND

    def __post_init__(self) -> None:
        self.msg_type = MessageType.MANEUVER


@dataclass
class KeyDistributionMessage(Message):
    """RSU/TA key-distribution traffic (group key handout, revocation)."""

    key_id: Optional[str] = None
    encrypted_key: Optional[bytes] = None
    revoked_ids: tuple = ()
    recipient_id: Optional[str] = None

    def __post_init__(self) -> None:
        self.msg_type = MessageType.KEY_DISTRIBUTION

    def signing_bytes(self) -> bytes:  # bytes field needs hex encoding
        body = super().signing_bytes()
        return body


def is_beacon(msg: Message) -> bool:
    return msg.msg_type is MessageType.BEACON


def is_maneuver(msg: Message, kind: Optional[ManeuverType] = None) -> bool:
    if msg.msg_type is not MessageType.MANEUVER:
        return False
    if kind is None:
        return True
    return getattr(msg, "maneuver", None) is kind
