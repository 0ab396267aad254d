"""Differential test: the inlined shared-stream broadcast loop against the
reference reception helpers.

``RadioChannel.broadcast`` evaluates shared-mode reception in one inlined
loop.  ``received_power_dbm``/``_fading_db``, ``interference_mw_at`` and
``_reception_success`` stay on the channel as the reference; the loop
below is built from them exactly as the broadcast used to be.  Both must
leave the same deliveries in the event queue, the same ``ChannelStats``
and observability counters, and the simulator RNG in the same state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.channel import VectorRadioChannel
from repro.net.channel import (
    ChannelConfig,
    RadioChannel,
    _ActiveTransmission,
    mw_to_dbm,
)
from repro.net.messages import Message
from repro.net.radio import Radio
from repro.net.simulator import Simulator
from repro.obs import registry as obs

CASES = ("quiet", "jammer", "concurrent", "own_overlap")


def reference_broadcast(channel, sender, msg, duration):
    """Shared-mode broadcast assembled from the reference helpers."""
    cfg = channel.config
    now = channel.sim.now
    power = (sender.tx_power_dbm if sender.tx_power_dbm is not None
             else cfg.tx_power_dbm)
    channel.stats.transmissions += 1
    obs.inc("frames.sent")
    channel._reap_active(now)
    channel._active.append(_ActiveTransmission(sender, power, now,
                                                now + duration))
    for observer in channel._tx_observers:
        observer(sender, msg)
    sender_pos = sender.position()
    noise_mw = channel._noise_mw
    for receiver in channel.receivers_in_order():
        if receiver is sender or not receiver.enabled:
            continue
        distance = abs(receiver.position() - sender_pos)
        if distance > cfg.max_range_m:
            channel.stats.out_of_range += 1
            continue
        channel.stats.delivery_attempts += 1
        rx_power_dbm = channel.received_power_dbm(power, distance)
        interference_mw = channel.interference_mw_at(receiver.position(),
                                                     exclude=sender)
        if interference_mw == 0.0:
            sinr_db = rx_power_dbm - channel._noise_only_dbm
        else:
            sinr_db = rx_power_dbm - mw_to_dbm(noise_mw + interference_mw)
        if channel._reception_success(sinr_db):
            delay = duration + distance / cfg.propagation_speed
            channel.sim.schedule(delay, receiver.deliver, msg)
            channel.stats.delivered += 1
            obs.inc("frames.delivered")
        elif interference_mw > noise_mw * 0.1:
            channel.stats.lost_interference += 1
            obs.inc("frames.jammed")
        else:
            channel.stats.lost_noise += 1
            obs.inc("frames.lost_noise")


class DrawingJammer:
    """An interferer that also draws from the simulator RNG, so the test
    pins where interferer queries sit in the shared draw order."""

    def __init__(self, channel, position, power_dbm):
        self.channel = channel
        self.position = position
        self.power_dbm = power_dbm

    def interference_dbm_at(self, position, now):
        if abs(position - self.position) > 1200.0:
            return float("-inf")
        jitter = self.channel.sim.rng.random()
        return (self.power_dbm + jitter
                - self.channel.path_loss_db(abs(position - self.position)))


def run_case(channel_cls, seed, cfg, layout, sender_index, case, use_inline):
    sim = Simulator(seed=seed)
    channel = channel_cls(sim, cfg)
    radios = [Radio(sim, channel, f"r{i}", (lambda p=position: p),
                    tx_power_dbm=tx_power)
              for i, (position, tx_power, _) in enumerate(layout)]
    for radio, (_, _, enabled) in zip(radios, layout):
        radio.enabled = enabled
    sender = radios[sender_index]
    other = radios[(sender_index + 1) % len(radios)]
    send = (channel.broadcast if use_inline
            else lambda s, m, d: reference_broadcast(channel, s, m, d))
    msg = Message(sender_id=sender.node_id, timestamp=0.0, seq=1)
    with obs.isolated_registry() as registry:
        if case == "jammer":
            channel.add_interferer(DrawingJammer(channel, 40.0, 10.0))
        elif case == "concurrent":
            send(other, Message(sender_id=other.node_id, timestamp=0.0,
                                seq=2), 0.004)
        elif case == "own_overlap":
            send(sender, Message(sender_id=sender.node_id, timestamp=0.0,
                                 seq=3), 0.004)
        send(sender, msg, 0.0003)
        counters = registry.snapshot()["counters"]
    queue = [(time, seq, event.callback.__self__.node_id, event.args[0].seq)
             for time, seq, event in sorted(sim._queue)]
    return queue, channel.stats, counters, sim.rng.getstate()


layouts = st.lists(
    st.tuples(st.floats(min_value=-1800.0, max_value=1800.0),
              st.one_of(st.none(), st.floats(min_value=-10.0,
                                             max_value=30.0)),
              st.booleans()),
    min_size=2, max_size=8)

configs = st.builds(
    ChannelConfig,
    shadowing_sigma_db=st.sampled_from([0.0, 2.0, 6.5]),
    rayleigh_fading=st.booleans(),
    noise_floor_dbm=st.floats(min_value=-100.0, max_value=-60.0),
    sinr_threshold_db=st.floats(min_value=-5.0, max_value=25.0),
    per_steepness=st.floats(min_value=0.1, max_value=40.0),
)


@pytest.mark.parametrize("channel_cls", [RadioChannel, VectorRadioChannel])
@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), cfg=configs,
       layout=layouts, sender_pick=st.integers(min_value=0, max_value=7))
def test_inlined_broadcast_matches_reference_helpers(channel_cls, case, seed,
                                                     cfg, layout,
                                                     sender_pick):
    sender_index = sender_pick % len(layout)
    inline = run_case(channel_cls, seed, cfg, layout, sender_index, case,
                      use_inline=True)
    reference = run_case(channel_cls, seed, cfg, layout, sender_index, case,
                         use_inline=False)
    assert inline[0] == reference[0]        # deliveries, in queue order
    assert inline[1] == reference[1]        # ChannelStats
    assert inline[2] == reference[2]        # obs counters
    assert inline[3] == reference[3]        # simulator RNG state


def test_cases_reach_every_reception_branch():
    """The four cases drive the quiet fast path, interferer queries and
    concurrent-frame interference, with jammed and noise losses."""
    cfg = ChannelConfig()
    layout = [(0.0, None, True), (20.0, None, True), (200.0, None, True),
              (900.0, None, True)]
    seen = {}
    for case in CASES:
        _, stats, _, _ = run_case(RadioChannel, 5, cfg, layout, 0, case,
                                  use_inline=True)
        seen[case] = stats
    assert seen["quiet"].lost_interference == 0
    assert seen["quiet"].delivered > 0
    assert seen["jammer"].lost_interference > 0
    assert seen["concurrent"].lost_interference > 0
    assert seen["own_overlap"].lost_interference == 0
