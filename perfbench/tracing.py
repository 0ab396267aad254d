"""In-memory span tracing around the public entry points of each layer.

Nothing here touches ``src/``: :func:`instrument` replaces entry points
on their classes and modules with wrappers that record a span per call,
and :meth:`Patcher.restore` puts every original object back by identity.
Untraced runs therefore execute exactly the code a user runs.

Spans are aggregated as they close (per name: calls, total time, self
time), because a dense episode fires millions of callbacks.  A span's
self time is its duration minus the part of it that its child spans
cover; on one thread children never overlap, so that is the sum of the
children's durations.  ``Tracer(record=True)`` also keeps every raw span,
which the tests use to check the running sums against
:func:`union_self_times`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Attribute set on every wrapper this module creates, so a scan can
#: prove that no wrapper outlives :meth:`Patcher.restore`.
MARKER = "__perfbench_span__"


class Tracer:
    """Span stack with per-name running totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 record: bool = False) -> None:
        self._clock = clock
        self._stack: List[list] = []
        #: span name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, list] = {}
        #: raw spans ``[name, start, end, parent index]`` when recording
        self.spans: Optional[List[list]] = [] if record else None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        spans = self.spans
        index = -1
        if spans is not None:
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][2] if stack else -1])
        frame = [self._clock(), 0.0, index]
        if spans is not None:
            spans[index][1] = frame[0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            duration = end - frame[0]
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if spans is not None:
                spans[index][2] = end

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[2] if stat else 0.0

    def total_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0


def union_self_times(spans: Iterable[list]) -> Dict[int, float]:
    """Self time of each raw span: duration minus the union of the
    intervals its direct children cover (overlapping children counted
    once).  Returns ``{span index: seconds}``."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, [])):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[index] = (end - start) - covered
    return result


class TracedCallable:
    """A callback wrapped in a span, equal to the callback it wraps.

    Equality and hashing delegate to the wrapped callable, so code that
    later removes a callback by value (``Radio.remove_filter``) still
    finds it.
    """

    __slots__ = ("fn", "name", "tracer")

    def __init__(self, tracer: Tracer, name: str, fn: Callable) -> None:
        self.tracer = tracer
        self.name = name
        self.fn = fn

    def __call__(self, *args, **kwargs):
        return self.tracer.call(self.name, self.fn, args, kwargs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TracedCallable):
            other = other.fn
        return self.fn == other

    def __hash__(self) -> int:
        return hash(self.fn)


def qualname(fn: Callable) -> str:
    """Stable span name for a callback: its qualified name."""
    return getattr(fn, "__qualname__", type(fn).__name__)


def wrap_callback(tracer: Tracer, fn: Callable, prefix: str = "") -> Callable:
    if isinstance(fn, TracedCallable):
        return fn
    return TracedCallable(tracer, prefix + qualname(fn), fn)


def span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A function that runs ``fn`` inside a span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    setattr(wrapper, MARKER, True)
    return wrapper


# --------------------------------------------------------------------------
# Installing and removing wrappers
# --------------------------------------------------------------------------

class Patcher:
    """Replaces attributes and restores the originals by identity."""

    def __init__(self) -> None:
        # (owner, attribute, owned before patching, original, wrapper)
        self._undo: List[tuple] = []

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> Callable:
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        wrapper = make(original)
        setattr(wrapper, MARKER, True)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, owned, original, wrapper))
        return wrapper

    def patch_function(self, module: str, name: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Patch a module-level function and every ``from ... import``
        binding of it in already-imported ``repro`` modules."""
        home = importlib.import_module(module)
        original = getattr(home, name)
        wrapper = self.patch(home, name, make)
        for other in _repro_modules():
            if other is home:
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapper)
                    self._undo.append((other, attr, True, original, wrapper))

    def restore(self) -> None:
        originals = {}
        for owner, attr, owned, original, wrapper in reversed(self._undo):
            originals[id(wrapper)] = (wrapper, original)
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()
        # Modules imported while tracing bound the wrapper itself.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def leftover_wrappers() -> List[str]:
    """Every attribute of a ``repro`` module or class that is still a
    span wrapper (empty after :meth:`Patcher.restore`)."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, MARKER, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in list(vars(value).items()):
                    if getattr(member, MARKER, False):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


# --------------------------------------------------------------------------
# The layer map
# --------------------------------------------------------------------------

METHOD = "method"          # class attribute replaced by a span wrapper
FUNCTION = "function"      # module function replaced wherever it is bound
CALLBACK = "callback"      # span opened by the scheduler/radio wrappers


@dataclass(frozen=True)
class EntryPoint:
    layer: str
    module: str
    path: str              # "Class.method" or "function"
    kind: str

    def resolve(self) -> Tuple[Any, str]:
        """``(owner, attribute)``; raises if the entry point is gone."""
        owner: Any = importlib.import_module(self.module)
        parts = self.path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        if not hasattr(owner, parts[-1]):
            raise AttributeError(f"{self.module}.{self.path} no longer exists")
        return owner, parts[-1]


_SIM = "repro.net.simulator"
_CHANNEL = "repro.net.channel"
_RADIO = "repro.net.radio"
_MAC = "repro.net.mac"
_MSG = "repro.net.messages"
_VEHICLE = "repro.platoon.vehicle"
_WORLD = "repro.platoon.world"
_CRYPTO = "repro.security.crypto"

#: Every wrapped entry point, with the layer its self time is charged to.
#: Callback spans are named by the callback's qualified name, so those
#: entries are checked to exist but patched through the scheduler.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("sim", _SIM, "Simulator.run_until", METHOD),
    EntryPoint("sim", _SIM, "PeriodicProcess._fire", CALLBACK),
    EntryPoint("channel", _CHANNEL, "RadioChannel.broadcast", METHOD),
    EntryPoint("channel", _CHANNEL, "RadioChannel.channel_busy", METHOD),
    EntryPoint("radio", _RADIO, "Radio.deliver", CALLBACK),
    EntryPoint("mac", _MAC, "CsmaMac.enqueue", METHOD),
    EntryPoint("mac", _MAC, "CsmaMac._attempt", CALLBACK),
    EntryPoint("mac", _MAC, "CsmaMac._pop_and_continue", CALLBACK),
    EntryPoint("messages", _MSG, "Message.signing_bytes", METHOD),
    EntryPoint("messages", _MSG, "Message.size_bits", METHOD),
    EntryPoint("platoon", _VEHICLE, "Vehicle.send_beacon", CALLBACK),
    EntryPoint("platoon", _VEHICLE, "Vehicle._on_message", CALLBACK),
    EntryPoint("platoon", _WORLD, "World._control_tick", CALLBACK),
    EntryPoint("platoon", _VEHICLE, "Vehicle.control_plan", METHOD),
    EntryPoint("platoon", _WORLD, "World.predecessor_of", METHOD),
    EntryPoint("platoon", "repro.platoon.dynamics", "VehicleDynamics.step",
               METHOD),
    EntryPoint("platoon", "repro.kernel.pool", "KinematicsPool.step_slots",
               METHOD),
    EntryPoint("platoon", "repro.kernel.controllers", "evaluate_commands",
               FUNCTION),
    EntryPoint("defense", "repro.core.defense", "Defense.verdict", METHOD),
    EntryPoint("crypto", _CRYPTO, "hmac_tag", FUNCTION),
    EntryPoint("crypto", _CRYPTO, "hmac_verify", FUNCTION),
    EntryPoint("crypto", _CRYPTO, "NonceWindow.accept", METHOD),
    EntryPoint("ledger", "repro.obs.security", "DetectionLedger.record",
               METHOD),
    EntryPoint("metrics", "repro.core.metrics", "MetricsCollector._sample",
               CALLBACK),
    EntryPoint("metrics", "repro.core.metrics", "MetricsCollector.compute",
               METHOD),
    EntryPoint("scenario", "repro.core.scenario", "Scenario.__init__", METHOD),
    EntryPoint("scenario", "repro.core.scenario", "Scenario.run", METHOD),
    EntryPoint("runner", "repro.core.runner", "CampaignRunner.run", METHOD),
    EntryPoint("store", "repro.store.base", "ResultStore.load", METHOD),
    EntryPoint("store", "repro.store.base", "ResultStore.store", METHOD),
    EntryPoint("store", "repro.store.base", "ResultStore.acquire", METHOD),
    EntryPoint("falsify", "repro.falsify.search", "Falsifier.falsify", METHOD),
)

#: Span-name prefix of receive filters (Radio.add_filter): every filter
#: is a defence, whatever its qualified name.
FILTER_PREFIX = "filter:"

#: The channel spans both kernels must report under: VectorRadioChannel
#: inherits these methods, so scalar and vector share one name set.
CHANNEL_SPANS = ("RadioChannel.broadcast", "RadioChannel.channel_busy")


class EpisodeStats:
    """Public per-episode counters summed over every traced episode."""

    def __init__(self) -> None:
        self.broadcasts = 0
        self.rx_attempts = 0
        self.delivered = 0
        self.mac_enqueued = 0
        self.mac_backoffs = 0
        self.mac_dropped = 0
        self.schedules = 0
        self.store_loads_found = 0
        self.radios: list = []

    def harvest(self, scenario) -> None:
        """Read ``ChannelStats``/``MacStats`` after one episode."""
        channel = scenario.channel
        self.broadcasts += channel.stats.transmissions
        self.rx_attempts += channel.stats.delivery_attempts
        self.delivered += channel.stats.delivered
        for radio in self.radios:
            if radio.channel is channel:
                mac = radio.mac.stats
                self.mac_enqueued += mac.enqueued
                self.mac_backoffs += mac.total_backoffs
                self.mac_dropped += (mac.dropped_queue_full
                                     + mac.dropped_retry_limit)
        self.radios = [r for r in self.radios if r.channel is not channel]


def check_channel_names() -> None:
    """Both kernels' channels must resolve every public channel method
    to the one wrapped span name set."""
    from repro.kernel.channel import VectorRadioChannel
    from repro.net.channel import RadioChannel

    for name in CHANNEL_SPANS:
        method = name.split(".", 1)[1]
        if method in vars(VectorRadioChannel):
            raise RuntimeError(
                f"VectorRadioChannel overrides {method}; its spans would "
                "not share the scalar channel's name set")
        if getattr(VectorRadioChannel, method) is not getattr(RadioChannel,
                                                              method):
            raise RuntimeError(f"channel method {method} differs by kernel")


def instrument(tracer: Tracer, stats: EpisodeStats) -> Patcher:
    """Wrap every entry point; the caller must ``restore()`` the patcher."""
    patcher = Patcher()
    try:
        for entry in ENTRY_POINTS:
            owner, attr = entry.resolve()
            if entry.kind == METHOD:
                patcher.patch(owner, attr, functools.partial(
                    span_wrapper, tracer, entry.path))
            elif entry.kind == FUNCTION:
                patcher.patch_function(entry.module, attr, functools.partial(
                    span_wrapper, tracer, entry.path))
        check_channel_names()
        _instrument_registration(patcher, tracer, stats)
    except BaseException:
        patcher.restore()
        raise
    return patcher


def _instrument_registration(patcher: Patcher, tracer: Tracer,
                             stats: EpisodeStats) -> None:
    """Wrap the places where callables are handed to the simulator and
    the radios, and harvest episode counters when a scenario finishes."""
    from repro.core.scenario import Scenario
    from repro.net.channel import RadioChannel
    from repro.net.radio import Radio
    from repro.net.simulator import Simulator
    from repro.store.base import ResultStore

    def schedule_at(original):
        def wrapper(self, time, callback, *args):
            stats.schedules += 1
            return original(self, time, wrap_callback(tracer, callback), *args)
        return wrapper

    def every(original):
        def wrapper(self, interval, callback, *args, **kwargs):
            return original(self, interval, wrap_callback(tracer, callback),
                            *args, **kwargs)
        return wrapper

    def registering(prefix):
        def make(original):
            def wrapper(self, fn):
                return original(self, wrap_callback(tracer, fn, prefix))
            return wrapper
        return make

    def register(original):
        def wrapper(self, radio):
            stats.radios.append(radio)
            return original(self, radio)
        return wrapper

    def scenario_run(original):
        # Scenario.run is already a span; harvest inside it, after the
        # episode, whether or not it raised.
        def wrapper(self, *args, **kwargs):
            try:
                return original(self, *args, **kwargs)
            finally:
                stats.harvest(self)
        return wrapper

    def store_load(original):
        def wrapper(self, key):
            record = original(self, key)
            if record is not None:
                stats.store_loads_found += 1
            return record
        return wrapper

    patcher.patch(ResultStore, "load", store_load)
    patcher.patch(Simulator, "schedule_at", schedule_at)
    patcher.patch(Simulator, "every", every)
    patcher.patch(Radio, "add_filter", registering(FILTER_PREFIX))
    patcher.patch(Radio, "on_receive", registering(""))
    patcher.patch(Radio, "add_tap", registering(""))
    patcher.patch(RadioChannel, "register", register)
    patcher.patch(Scenario, "run", scenario_run)


def covered_entry_points(tracer: Tracer) -> List[str]:
    """Entry points (by span name) that recorded at least one call."""
    names = [entry.path for entry in ENTRY_POINTS
             if tracer.calls(entry.path) > 0]
    if any(name.startswith(FILTER_PREFIX) for name in tracer.stats):
        names.append("Radio.add_filter")
    return sorted(names)


def all_entry_points() -> List[str]:
    return sorted([entry.path for entry in ENTRY_POINTS]
                  + ["Radio.add_filter"])


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

#: Span names whose self time each time metric sums.
_MAC_SPANS = ("CsmaMac.enqueue", "CsmaMac._attempt",
              "CsmaMac._pop_and_continue")
_MESSAGE_SPANS = ("Message.signing_bytes", "Message.size_bits")
_CONTROL_SPANS = ("World._control_tick", "Vehicle.control_plan",
                  "World.predecessor_of", "VehicleDynamics.step",
                  "KinematicsPool.step_slots", "evaluate_commands")
_CRYPTO_SPANS = tuple(e.path for e in ENTRY_POINTS if e.layer == "crypto")
_STORE_SPANS = tuple(e.path for e in ENTRY_POINTS if e.layer == "store")


def layer_metrics(tracer: Tracer, stats: EpisodeStats, counters: dict,
                  units: int, computed: int, candidates: int) -> dict:
    """Every per-layer metric of one traced campaign call.

    ``counters`` is the call's ``RunReport.counters``; ``units`` and
    ``computed`` come from its ``RunReport``; ``candidates`` is the
    falsifier's candidate count (0 for the other workloads).
    """
    used: set = set()

    def self_s(*names) -> float:
        used.update(names)
        return sum(tracer.self_time(name) for name in names)

    def calls(*names) -> int:
        return sum(tracer.calls(name) for name in names)

    def ratio(part, whole) -> float:
        return part / whole if whole else 0.0

    filters = tuple(name for name in tracer.stats
                    if name.startswith(FILTER_PREFIX))
    verified = counters.get("crypto.verified", 0)
    rejected = counters.get("crypto.rejected", 0)
    metrics = {
        "sim.events": counters.get("sim.events", 0),
        "sim.schedules": stats.schedules,
        "sim.loop_self_s": self_s("Simulator.run_until",
                                  "PeriodicProcess._fire"),
        "channel.broadcasts": stats.broadcasts,
        "channel.rx_attempts": stats.rx_attempts,
        "channel.pdr": ratio(stats.delivered, stats.rx_attempts),
        "channel.broadcast_s": self_s("RadioChannel.broadcast"),
        "channel.sense_s": self_s("RadioChannel.channel_busy"),
        "radio.deliveries": calls("Radio.deliver"),
        "radio.deliver_s": self_s("Radio.deliver"),
        "mac.enqueued": stats.mac_enqueued,
        "mac.backoffs": stats.mac_backoffs,
        "mac.drop_frac": ratio(stats.mac_dropped, stats.mac_enqueued),
        "mac.callback_s": self_s(*_MAC_SPANS),
        "messages.size_bits_calls": calls("Message.size_bits"),
        "messages.signing_bytes_calls": calls("Message.signing_bytes"),
        "messages.encode_s": self_s(*_MESSAGE_SPANS),
        "platoon.beacons": calls("Vehicle.send_beacon"),
        "platoon.beacon_s": self_s("Vehicle.send_beacon"),
        "platoon.control_ticks": calls("World._control_tick"),
        "platoon.control_s": self_s(*_CONTROL_SPANS),
        "platoon.rx_s": self_s("Vehicle._on_message"),
        "platoon.predecessor_calls": calls("World.predecessor_of"),
        "platoon.dynamics_calls": calls("VehicleDynamics.step",
                                        "KinematicsPool.step_slots"),
        "defense.filter_calls": calls(*filters),
        "defense.filter_s": self_s(*filters, "Defense.verdict"),
        "defense.verdicts": calls("Defense.verdict"),
        "crypto.ops": calls(*_CRYPTO_SPANS),
        "crypto.s": self_s(*_CRYPTO_SPANS),
        "crypto.reject_frac": ratio(rejected, verified + rejected),
        "ledger.records": calls("DetectionLedger.record"),
        "ledger.s": self_s("DetectionLedger.record"),
        "metrics.samples": counters.get("metrics.samples", 0),
        "metrics.sample_s": self_s("MetricsCollector._sample"),
        "metrics.compute_s": self_s("MetricsCollector.compute"),
        "scenario.builds": calls("Scenario.__init__"),
        "scenario.build_s": self_s("Scenario.__init__"),
        "runner.units": units,
        "runner.computed": computed,
        "runner.overhead_s": self_s("CampaignRunner.run"),
        "store.loads": calls("ResultStore.load"),
        "store.writes": calls("ResultStore.store"),
        "store.leases": calls("ResultStore.acquire"),
        "store.hit_frac": ratio(stats.store_loads_found,
                                calls("ResultStore.load")),
        "store.s": self_s(*_STORE_SPANS),
        "falsify.candidates": candidates,
        "falsify.search_self_s": self_s("Falsifier.falsify"),
    }
    # Attack processes, Scenario.run's own arming code and any callback
    # not named above: the split stays exhaustive.
    metrics["other.self_s"] = sum(stat[2] for name, stat in tracer.stats.items()
                                  if name not in used)
    return metrics
