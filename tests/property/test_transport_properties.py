"""Property-based tests for the adaptive transport policy (ISSUE 5).

Three properties pin the estimator's contract:

* the computed retry delay never drops below one maximum-size frame's
  wire time, whatever garbage the estimator has been fed;
* Karn's rule holds end-to-end — an acknowledgement that releases a
  retransmitted message never feeds the estimator; the next *fresh*
  send acked on its first attempt does;
* the regression the adaptive policy exists to fix: on a slow but
  lossless path (RTT above the static 60 ms timer) the static policy
  retransmits spuriously on every message forever, while the adaptive
  policy converges after at most a couple of messages and then stays
  clean.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import KernelConfig
from repro.core.connection import Connection, OutboundMessage
from repro.sim.engine import Simulator
from repro.transport.adaptive import (
    AdaptivePolicy,
    RttEstimator,
    deltat_for_policy,
)
from repro.transport.packet import Packet, PacketType
from repro.transport.retransmit import StaticPolicy


# ----------------------------------------------------------------------
# harness: a Connection over a lossless fixed-RTT path
# ----------------------------------------------------------------------


class _SlowPath:
    """Stub kernel: every first copy of a message is acked ``rtt_us``
    after transmission, echoing that copy's timestamp (retransmitted
    copies are delivered but produce no further acks — the path is slow,
    not lossy)."""

    def __init__(self, policy, rtt_us, seed=5):
        self.sim = Simulator(seed=seed)
        self.config = KernelConfig(
            retransmit=policy, deltat=deltat_for_policy(policy)
        )
        self.mid = 0
        self.sent = []
        self._acked_pids = set()
        self.rtt_us = rtt_us
        self.conn = Connection(self, peer_mid=9)

    def transmit_packet(self, dst, packet, copy_bytes=0, sequenced=False):
        self.sent.append(packet)
        if packet.packet_id in self._acked_pids:
            return
        self._acked_pids.add(packet.packet_id)
        echo, seq = packet.tx_us, packet.seq
        self.sim.schedule(
            self.rtt_us,
            lambda: self.conn.handle_ack(seq, echo_tx_us=echo),
        )

    def send(self, count):
        for tid in range(count):
            self.conn.enqueue(
                OutboundMessage(
                    Packet(PacketType.REQUEST, tid=tid), "request"
                )
            )
        self.sim.run(until=120_000_000.0)

    def count(self, category):
        return sum(
            1
            for rec in self.sim.trace.records
            if rec.category == category
        )


# ----------------------------------------------------------------------
# property 1: the timeout never undercuts one max-frame wire time
# ----------------------------------------------------------------------


@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=500_000.0),
        min_size=0,
        max_size=32,
    ),
    attempt=st.integers(min_value=1, max_value=8),
    data_bytes=st.integers(min_value=0, max_value=4096),
    backoffs=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_adaptive_timeout_floor(samples, attempt, data_bytes, backoffs, seed):
    policy = AdaptivePolicy()
    estimator = RttEstimator()
    for rtt in samples:
        estimator.sample(rtt)
    for _ in range(backoffs):
        estimator.back_off(policy.backoff_growth)
    delay = policy.ack_retry_delay(
        attempt, random.Random(seed), data_bytes, estimator
    )
    assert delay >= policy.min_timeout_us
    assert delay <= policy.retry_window_bound_us(1, data_bytes)


# ----------------------------------------------------------------------
# property 2: Karn's rule
# ----------------------------------------------------------------------


@given(
    slow_rtt_us=st.floats(min_value=70_000.0, max_value=135_000.0),
    fast_rtt_us=st.floats(min_value=1_000.0, max_value=20_000.0),
    seed=st.integers(min_value=1, max_value=2**16),
)
@settings(max_examples=20, deadline=None)
def test_karn_rule_holds(slow_rtt_us, fast_rtt_us, seed):
    """An ack releasing a retransmitted message never feeds the
    estimator; the next fresh send acked on attempt 1 does."""
    path = _SlowPath(AdaptivePolicy(), slow_rtt_us, seed=seed)
    path.send(1)
    assert path.count("conn.retransmit") >= 1  # the slow path forced one
    assert path.conn.estimator.samples == 0  # ...so Karn suppressed it

    # Fresh message on a now-fast path: first-attempt ack, clean sample.
    path.rtt_us = fast_rtt_us
    path.conn.enqueue(
        OutboundMessage(Packet(PacketType.REQUEST, tid=99), "request")
    )
    path.sim.run(until=path.sim.now + 60_000_000.0)
    assert path.conn.estimator.samples == 1
    assert path.conn.estimator.srtt_us is not None
    assert path.conn.estimator.srtt_us >= fast_rtt_us - 1.0


# ----------------------------------------------------------------------
# property 3: spurious-retransmit regression on a slow lossless path
# ----------------------------------------------------------------------


@given(
    rtt_us=st.floats(min_value=70_000.0, max_value=135_000.0),
    seed=st.integers(min_value=1, max_value=2**16),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_adaptive_beats_static_on_slow_lossless_path(rtt_us, seed):
    """RTT above the static 60 ms timer: static spuriously retransmits
    every message forever; adaptive converges and goes quiet."""
    messages = 8
    static = _SlowPath(StaticPolicy(), rtt_us, seed=seed)
    static.send(messages)
    adaptive = _SlowPath(AdaptivePolicy(), rtt_us, seed=seed)
    adaptive.send(messages)

    static_spurious = static.count("conn.spurious_retransmit")
    adaptive_spurious = adaptive.count("conn.spurious_retransmit")
    # Static never learns: every single message is retransmitted
    # spuriously (the path loses nothing).
    assert static_spurious >= messages - 1
    # Adaptive pays at most a short warmup, then stays clean.
    assert adaptive_spurious <= 2
    assert adaptive_spurious < static_spurious
    # And the estimator actually learned the path.
    assert adaptive.conn.estimator.srtt_us is not None
    assert adaptive.conn.estimator.srtt_us >= 0.9 * rtt_us
