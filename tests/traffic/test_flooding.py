"""Unit tests for the constant-rate, FIR-adjustable flooding DoS model.

The flood is an :class:`AttackScenario` attack model driving the shared
:class:`~repro.attacks.AttackSource`.  The stream pins below hard-code
digests of the packet streams the earlier dedicated flooding source
emitted, so every trained model and recorded table built on constant
floods keeps its exact RNG stream.
"""

import hashlib

import pytest

from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import MeshTopology
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

TOPO = MeshTopology(rows=6)


def flood(attackers=(1,), victim=30, fir=1.0, seed=0, **window):
    return AttackScenario(attackers=attackers, victim=victim, fir=fir).build_source(
        TOPO, seed=seed, **window
    )


class TestFloodValidation:
    def test_valid(self):
        scenario = AttackScenario(attackers=(1, 2), victim=20, fir=0.5)
        assert scenario.num_attackers == 2
        assert scenario.emitters() == ((1, 2), (20, 20))
        assert scenario.containment_nodes == (1, 2)

    def test_invalid_fir(self):
        with pytest.raises(ValueError):
            AttackScenario(attackers=(1,), victim=2, fir=1.5)

    def test_empty_attackers(self):
        with pytest.raises(ValueError):
            AttackScenario(attackers=(), victim=2)

    def test_victim_cannot_attack_itself(self):
        with pytest.raises(ValueError):
            AttackScenario(attackers=(3,), victim=3)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            flood(start_cycle=10, end_cycle=5)
        with pytest.raises(ValueError):
            flood(start_cycle=10, end_cycle=10)
        with pytest.raises(ValueError):
            flood(start_cycle=-1)

    def test_invalid_packet_size(self):
        with pytest.raises(ValueError):
            flood(packet_size_flits=0)

    def test_node_outside_mesh_rejected(self):
        with pytest.raises(ValueError):
            flood(attackers=(100,), victim=2)
        with pytest.raises(ValueError):
            flood(attackers=(1,), victim=100)


class TestInjectionBehaviour:
    def test_fir_zero_is_inactive(self):
        attacker = flood(fir=0.0)
        assert attacker.model.fir_profile_at(0) is None
        assert not attacker.is_active_at(5)
        assert not attacker.is_active_in(0, 100)
        assert attacker.packets_for_cycle(5) == []
        assert attacker.packet_batch_for_cycle(6) is None
        # no RNG draw at FIR 0: the stream is untouched
        untouched = flood(fir=0.0).rng.bit_generator.state
        assert attacker.rng.bit_generator.state == untouched

    def test_fir_one_injects_every_cycle(self):
        attacker = flood(fir=1.0)
        for cycle in range(20):
            packets = attacker.packets_for_cycle(cycle)
            assert len(packets) == 1
            assert packets[0].is_malicious
            assert packets[0].source == 1
            assert packets[0].destination == 30
            assert packets[0].size_flits == 4
            assert packets[0].created_cycle == cycle
        assert attacker.packets_generated == 20

    def test_fir_controls_rate(self):
        attacker = flood(fir=0.3, seed=0)
        total = sum(len(attacker.packets_for_cycle(c)) for c in range(2000))
        assert 0.25 * 2000 < total < 0.35 * 2000
        assert attacker.packets_generated == total

    def test_multiple_attackers_inject_independently(self):
        attacker = flood(attackers=(1, 7, 20), fir=1.0)
        packets = attacker.packets_for_cycle(0)
        assert sorted(p.source for p in packets) == [1, 7, 20]
        sources, victims, size, malicious = attacker.packet_batch_for_cycle(1)
        assert sorted(sources.tolist()) == [1, 7, 20]
        assert victims.tolist() == [30, 30, 30]
        assert (size, malicious) == (4, True)

    def test_attack_window(self):
        attacker = flood(fir=1.0, start_cycle=10, end_cycle=20)
        assert attacker.packets_for_cycle(5) == []
        assert attacker.packets_for_cycle(15) != []
        assert attacker.packets_for_cycle(25) == []
        assert not attacker.is_active_at(9)
        assert attacker.is_active_at(10)
        assert attacker.is_active_at(19)
        assert not attacker.is_active_at(20)
        assert not attacker.is_active_in(0, 10)
        assert attacker.is_active_in(0, 11)
        assert attacker.is_active_in(19, 30)
        assert not attacker.is_active_in(20, 30)

    def test_open_window_never_ends(self):
        attacker = flood(fir=1.0, start_cycle=10)
        assert attacker.is_active_at(10**6)
        assert attacker.is_active_in(10**6, 10**6 + 1)

    def test_object_and_batch_paths_share_one_stream(self):
        objects = flood(attackers=(1, 7, 20), fir=0.5, seed=3)
        batches = flood(attackers=(1, 7, 20), fir=0.5, seed=3)
        for cycle in range(200):
            packets = objects.packets_for_cycle(cycle)
            batch = batches.packet_batch_for_cycle(cycle)
            expected = []
            if batch is not None:
                expected = list(zip(batch[0].tolist(), batch[1].tolist()))
            assert [(p.source, p.destination) for p in packets] == expected
        assert objects.packets_generated == batches.packets_generated


#: sha256[:16] of the stream of the earlier dedicated flooding source, per
#: (attackers, FIR, window) on a 6x6 mesh, seed 11, victim 8, 200 cycles —
#: identical for the object and batch emission paths.
STREAM_DIGESTS = {
    (1, 0.0, "open"): "2766f96db995c7a5",
    (1, 0.0, "closed"): "2766f96db995c7a5",
    (1, 0.15, "open"): "7c42f986b5dee7b5",
    (1, 0.15, "closed"): "6b7b6968d992677b",
    (1, 0.8, "open"): "32df965d8b10189b",
    (1, 0.8, "closed"): "30c7673a4f2d2659",
    (1, 1.0, "open"): "b443a54720cc943e",
    (1, 1.0, "closed"): "2713a8020661905f",
    (2, 0.0, "open"): "2766f96db995c7a5",
    (2, 0.0, "closed"): "2766f96db995c7a5",
    (2, 0.15, "open"): "ecf1248f70f6360d",
    (2, 0.15, "closed"): "569e935e8aa2dc2c",
    (2, 0.8, "open"): "0a50dfbf9a10e0a8",
    (2, 0.8, "closed"): "da8db7fd84d69b46",
    (2, 1.0, "open"): "39560791d8ba415a",
    (2, 1.0, "closed"): "f4e67c937eb18b14",
    (3, 0.0, "open"): "2766f96db995c7a5",
    (3, 0.0, "closed"): "2766f96db995c7a5",
    (3, 0.15, "open"): "9db1fdd19c040f56",
    (3, 0.15, "closed"): "94db3973d37b2cbc",
    (3, 0.8, "open"): "588b7d8162b6ff4f",
    (3, 0.8, "closed"): "cfcdb3931bc5ece1",
    (3, 1.0, "open"): "228ff7e428c0d574",
    (3, 1.0, "closed"): "2b6d85d04c6a25ab",
}
PIN_ATTACKERS = {1: (35,), 2: (35, 3), 3: (35, 3, 30)}
PIN_WINDOWS = {"open": (20, None), "closed": (20, 140)}


def stream_digest(source, path: str) -> str:
    """Digest of activity flags, emitted packets and the generated count."""
    digest = hashlib.sha256()
    for cycle in range(200):
        active = f"{cycle}:{int(source.is_active_at(cycle))}:"
        digest.update(f"{active}{int(source.is_active_in(cycle, cycle + 7))};".encode())
        if path == "object":
            rows = [
                (p.source, p.destination, p.size_flits, p.is_malicious)
                for p in source.packets_for_cycle(cycle)
            ]
        else:
            batch = source.packet_batch_for_cycle(cycle)
            rows = []
            if batch is not None:
                sources, victims, size, malicious = batch
                rows = [
                    (s, d, size, malicious)
                    for s, d in zip(sources.tolist(), victims.tolist())
                ]
        digest.update(repr(rows).encode())
    digest.update(f"n={source.packets_generated}".encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("path", ("object", "batch"))
@pytest.mark.parametrize("key", sorted(STREAM_DIGESTS), ids=str)
def test_stream_matches_pinned_digest(key, path):
    count, fir, window = key
    start, end = PIN_WINDOWS[window]
    attack = AttackScenario(attackers=PIN_ATTACKERS[count], victim=8, fir=fir)
    source = attack.build_source(
        TOPO, seed=11, packet_size_flits=4, start_cycle=start, end_cycle=end
    )
    assert stream_digest(source, path) == STREAM_DIGESTS[key]


class TestSystemImpact:
    @staticmethod
    def _run(fir, cycles=500):
        sim = NoCSimulator(SimulationConfig(rows=6, warmup_cycles=0, seed=1))
        sim.add_source(UniformRandomTraffic(sim.topology, injection_rate=0.03, seed=1))
        if fir > 0:
            attack = AttackScenario(attackers=(35, 30), victim=0, fir=fir)
            sim.add_source(attack.build_source(sim.topology, seed=2))
        sim.run(cycles)
        sim.drain(max_cycles=2000)
        return sim

    def test_flooding_increases_benign_latency(self):
        """Figure 1's core claim: benign latency grows with the FIR."""
        baseline = self._run(0.0).latency(benign_only=True).packet_latency
        attacked = self._run(0.9).latency(benign_only=True).packet_latency
        assert attacked > baseline

    def test_flooding_congests_route_buffers(self):
        sim = self._run(1.0, cycles=300)
        victim_router = sim.network.router(0)
        total_boc = sum(victim_router.boc(d) for d in victim_router.input_ports)
        assert total_boc > 0
