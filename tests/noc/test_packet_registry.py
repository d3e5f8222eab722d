"""The SoA packet registry and the one latency arithmetic it feeds.

* ``LatencyStats.from_columns`` equals the per-packet loop it replaced,
  exactly, over generated delivered sets;
* a registry view's columns and counters agree with its own lazily built
  ``Packet`` list;
* a guarded SoA episode and an unmitigated comparator build no ``Packet``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defense.policy import MitigationPolicy
from repro.experiments.mitigation import default_multi_scenario
from repro.experiments.robustness import (
    run_attack_episode,
    unmitigated_attack_episode_latency,
)
from repro.noc.packet import Packet
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.stats import DeliveredColumns, LatencyStats
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic


def reference_latency(packets) -> LatencyStats:
    """The per-packet loop ``from_columns`` replaced, kept as the oracle."""
    total_latencies = []
    queue_latencies = []
    flit_latencies = []
    flit_queue_latencies = []
    delivered_flits = 0
    for packet in packets:
        if not packet.is_delivered:
            continue
        total = packet.ejected_cycle - packet.created_cycle
        queue = packet.injected_cycle - packet.created_cycle
        total_latencies.append(total)
        queue_latencies.append(queue)
        per_flit_network = (packet.ejected_cycle - packet.injected_cycle) / packet.size_flits
        flit_latencies.extend([queue + per_flit_network] * packet.size_flits)
        flit_queue_latencies.extend([queue] * packet.size_flits)
        delivered_flits += packet.size_flits
    if not total_latencies:
        return LatencyStats()
    return LatencyStats(
        packet_latency=float(np.mean(total_latencies)),
        packet_queue_latency=float(np.mean(queue_latencies)),
        flit_latency=float(np.mean(flit_latencies)),
        flit_queue_latency=float(np.mean(flit_queue_latencies)),
        delivered_packets=len(total_latencies),
        delivered_flits=delivered_flits,
    )


def make_packet(created, queue, network, size, malicious, delivered=True):
    packet = Packet(
        source=0,
        destination=1,
        size_flits=size,
        created_cycle=created,
        is_malicious=malicious,
    )
    if delivered:
        packet.injected_cycle = created + queue
        packet.ejected_cycle = created + queue + network
    return packet


#: (created, queue wait, network traversal, size, malicious, delivered)
packet_rows = st.tuples(
    st.integers(0, 5000),
    st.integers(0, 400),
    st.integers(1, 300),
    st.one_of(st.just(1), st.integers(1, 9)),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(packet_rows, max_size=60))
def test_from_columns_equals_per_packet_loop(rows):
    packets = [make_packet(*row) for row in rows]
    expected = reference_latency(packets)
    assert LatencyStats.from_packets(packets) == expected
    delivered = [packet for packet in packets if packet.is_delivered]
    columns = DeliveredColumns.from_packets(delivered)
    assert LatencyStats.from_columns(columns) == expected
    benign = [packet for packet in delivered if not packet.is_malicious]
    assert LatencyStats.from_columns(columns.benign()) == reference_latency(benign)


def test_single_flit_and_empty_sets():
    empty = DeliveredColumns.from_packets([])
    assert len(empty) == 0
    assert LatencyStats.from_columns(empty) == LatencyStats()
    single = [make_packet(3, 2, 5, 1, False)]
    assert LatencyStats.from_packets(single) == reference_latency(single)


@pytest.mark.parametrize("episodes", [None, 2])
def test_registry_view_matches_its_packets(episodes):
    """Columns and counters of a SoA episode agree with its Packet list."""

    def wire(simulator):
        topology = simulator.topology
        simulator.add_source(
            UniformRandomTraffic(topology, injection_rate=0.08, seed=3)
        )
        simulator.add_source(
            AttackScenario(attackers=(15,), victim=1, fir=0.8).build_source(
                topology, seed=4
            )
        )

    config = SimulationConfig(rows=4, warmup_cycles=0, backend="soa")
    if episodes is None:
        simulator = NoCSimulator(config)
        lane = simulator
    else:
        from repro.noc.batch_sim import BatchedNoCSimulator

        simulator = BatchedNoCSimulator(config, episodes=episodes)
        wire(simulator.lane(0))
        lane = simulator.lane(1)
    wire(lane)
    simulator.run(300)
    stats = lane.stats
    packets = stats.delivered
    assert stats.packets_delivered == len(packets) > 0
    assert stats.flits_delivered == sum(p.size_flits for p in packets)
    assert stats.malicious_packets_delivered == sum(p.is_malicious for p in packets)
    assert stats.packets_injected >= stats.packets_delivered
    assert stats.cycles == 300
    for start in (0, 7, len(packets)):
        columns = stats.columns(start)
        expected = DeliveredColumns.from_packets(packets[start:])
        for name in ("created", "injected", "ejected", "size", "malicious"):
            assert np.array_equal(getattr(columns, name), getattr(expected, name))
    assert stats.latency(benign_only=True) == reference_latency(
        [p for p in packets if not p.is_malicious]
    )


def test_soa_closed_loop_builds_no_packet(monkeypatch, trained_pipeline, small_builder):
    """Array ingress, the guard's windows and the comparator span all read
    registry columns: not one Packet object is constructed."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "soa")
    built = []
    post_init = Packet.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Packet, "__post_init__", counting_post_init)
    flows = default_multi_scenario(small_builder, num_flows=2, fir=0.8).flows
    windows = dict(pre_attack_windows=1, attack_windows=4, post_attack_windows=1)
    report = run_attack_episode(
        trained_pipeline,
        small_builder,
        MitigationPolicy.quarantine(engage_after=2, release_after=4),
        flows,
        seed=5,
        **windows,
    )
    latency = unmitigated_attack_episode_latency(
        small_builder, flows, seed=5, **windows
    )
    assert len(report.windows) == 6
    assert sum(window.benign_delivered for window in report.windows) > 0
    assert latency > 0.0
    assert built == []
