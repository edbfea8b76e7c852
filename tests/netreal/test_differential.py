"""Sim <-> real differential: one workload spec, two backends, one
outcome.

Each ``REAL_WORKLOADS`` spec is placed with :func:`repro.workloads.place`
on the simulator's ``Network`` and on an in-process ``RealNetwork`` (every
node on one event loop, real loopback sockets), both under the kernel
configuration a chaos cell runs under.  Each runs until every client has
finished, then drains; the multiset of client outcomes must be the same
on both backends.  A divergence means the substrate leaks into the
protocol, which the paper says it must not.
"""

from collections import Counter

import pytest

from repro.chaos.scenario import chaos_config
from repro.core.node import Network
from repro.netreal.node import RealNetwork
from repro.replication import KvClient
from repro.workloads import REAL_WORKLOADS, EchoClient, place

#: Wall-clock (and virtual) cap on either backend; clean runs finish
#: in well under it.
TIMEOUT_US = 30_000_000.0

#: Drain after the last client finishes, so final ACKs land.
DRAIN_US = 300_000.0


def _clients(net):
    programs = [node.client.program for node in net.nodes.values()]
    return [p for p in programs if isinstance(p, (EchoClient, KvClient))]


def _finished(client) -> bool:
    if isinstance(client, KvClient):
        return len(client.outcomes) >= client.total
    return client.finished


def _outcomes(client):
    if isinstance(client, KvClient):
        return list(client.outcomes.values())
    return client.completions


def _run(net, spec) -> Counter:
    place(net, spec)
    clients = _clients(net)
    assert clients, f"{spec.name} has no client to compare"
    assert net.run_until(
        lambda: all(_finished(client) for client in clients),
        timeout=TIMEOUT_US,
    ), f"{type(net).__name__}: {spec.name}'s clients did not finish"
    net.run(until=net.now + DRAIN_US)
    return Counter(
        outcome for client in clients for outcome in _outcomes(client)
    )


@pytest.mark.parametrize("name", sorted(REAL_WORKLOADS))
def test_both_backends_agree_on_every_client_outcome(name):
    spec = REAL_WORKLOADS[name]
    sim = _run(Network(seed=spec.seed, config=chaos_config()), spec)
    with RealNetwork(seed=spec.seed, config=chaos_config()) as net:
        real = _run(net, spec)
    assert sim == real
    assert sum(sim.values()) > 0
