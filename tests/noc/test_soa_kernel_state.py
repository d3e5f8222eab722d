"""Invariants of the SoA kernels' free-VC bitmasks and ring pointers.

The kernels of :mod:`repro.noc.soa_step` keep three redundant views of one
fact and must never let them drift apart:

* ``_port_free`` — bit ``v`` of a port's mask is set exactly when VC ``v``
  of that port is unallocated (``_vc_alloc == -1``), and the port views'
  ``occupied_vcs`` is the port's allocated-VC count;
* ``_vc_front`` / ``_vc_tail`` — absolute slot ids that stay inside their
  VC's ``[q * depth, (q + 1) * depth)`` slot region, ``count`` flits apart
  (mod ``depth``).

Hypothesis drives generated sequences of throttle, quarantine, flush,
release and one link-fault activation (whose excision frees VCs outside
the kernels) on a solo network and on lane 1 of a three-episode batch, with
injection forced onto each side of the scalar/vector crossover, and checks
the invariants after every step.  The scalar and the vector injection
passes, run on copies of one network, must leave every state array equal.
The array ingress must equal the per-packet path for any source order, and
the bitmask width bounds the SoA backend at 16 VCs per port while the
object backend has no limit.
"""

import copy
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import soa_step
from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.packet import Packet
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.soa import DIRECTION_INDEX, SoAMeshNetwork
from repro.noc.topology import Direction, MeshTopology
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

ROWS = 4
NODES = ROWS * ROWS


def assert_kernel_state(net):
    """The bitmask and ring-pointer invariants over a whole network."""
    num_vcs, depth = net.num_vcs, net.vc_depth
    bits = (net._port_free[:, None] >> np.arange(num_vcs)) & 1
    np.testing.assert_array_equal(bits == 1, net._vc_alloc.reshape(-1, num_vcs) == -1)
    start = np.arange(net._vc_count.size) * depth
    for pointer in (net._vc_front, net._vc_tail):
        assert ((pointer >= start) & (pointer < start + depth)).all()
    np.testing.assert_array_equal(
        (net._vc_tail - net._vc_front) % depth, net._vc_count % depth
    )


def assert_port_views(episode):
    """Every port view of ``episode`` reports its allocated-VC count."""
    network = episode.network
    net, num_vcs = network._net, network.num_vcs
    for node in range(NODES):
        for direction, port in network.router(node).input_ports.items():
            flat = (network._off + node) * 5 + DIRECTION_INDEX[direction]
            vcs = net._vc_alloc[flat * num_vcs : (flat + 1) * num_vcs]
            assert port.occupied_vcs == int((vcs >= 0).sum())


@contextmanager
def injection_path(path):
    """Force :func:`soa_step.inject` onto its scalar or its vector side."""
    saved = soa_step.SCALAR_INJECT_BELOW
    soa_step.SCALAR_INJECT_BELOW = {"scalar": 1 << 30, "vector": 0}[path]
    try:
        yield
    finally:
        soa_step.SCALAR_INJECT_BELOW = saved


def wire(episode, seed):
    """Benign traffic plus a flood, so ports fill and VCs run out."""
    topology = episode.topology
    episode.add_source(UniformRandomTraffic(topology, injection_rate=0.2, seed=seed))
    scenario = AttackScenario(attackers=(NODES - 1, 2), victim=5, fir=0.9)
    episode.add_source(scenario.build_source(topology, seed=seed + 1))


actions = st.lists(
    st.tuples(
        st.sampled_from(["throttle", "quarantine", "flush", "release", "link_fault"]),
        st.integers(0, NODES - 1),
        st.integers(1, 60),
    ),
    min_size=1,
    max_size=8,
)


def actuate(driver, episode, action, node, faulted):
    """Apply one generated action; returns whether a link fault is active."""
    if action == "throttle":
        episode.throttle_node(node, 0.25)
    elif action == "quarantine":
        episode.quarantine_node(node)
    elif action == "flush":
        episode.network.flush_source_queue(node)
    elif action == "release":
        episode.release_node(node)
    elif not faulted:
        # A node below the top row has a NORTH link to kill.
        link = (node % (NODES - ROWS), Direction.NORTH)
        driver.inject_data_fault(dead_links=(link,))
        return True
    return faulted


@pytest.mark.parametrize("path", ["scalar", "vector"])
@pytest.mark.parametrize("batched", [False, True], ids=["solo", "lane1"])
@settings(max_examples=25, deadline=None)
@given(
    steps=actions,
    num_vcs=st.integers(1, 4),
    vc_depth=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_kernel_state_invariants(path, batched, steps, num_vcs, vc_depth, seed):
    config = SimulationConfig(
        rows=ROWS, num_vcs=num_vcs, vc_depth=vc_depth, backend="soa", seed=seed
    )
    if batched:
        driver = BatchedNoCSimulator(config, episodes=3)
        for lane in driver.lanes:
            wire(lane, seed + 10 * lane.lane_index)
        episode = driver.lane(1)
    else:
        driver = episode = NoCSimulator(config)
        wire(episode, seed)
    net = episode.network._net
    faulted = False
    with injection_path(path):
        for action, node, cycles in steps:
            faulted = actuate(driver, episode, action, node, faulted)
            assert_kernel_state(net)
            driver.run(cycles)
            assert_kernel_state(net)
            assert_port_views(episode)


def network_state(net):
    """Every state array of ``net``, the registry columns and drop counts."""
    state = {
        name: value.copy()
        for name, value in vars(net).items()
        if isinstance(value, np.ndarray)
    }
    for column in ("src", "dest", "injected", "size", "created", "malicious"):
        state["_pkt_" + column] = getattr(net, "_pkt_" + column).values.copy()
    state["_dropped"] = np.array(net._dropped)
    return state


def assert_same_state(left, right):
    first, second = network_state(left), network_state(right)
    assert first.keys() == second.keys()
    for name in first:
        np.testing.assert_array_equal(first[name], second[name], err_msg=name)
        assert first[name].dtype == second[name].dtype, name


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(3, 6),
    lanes=st.integers(0, 3),
    steps=actions,
    num_vcs=st.integers(1, 4),
    vc_depth=st.integers(1, 4),
    bandwidth=st.integers(1, 2),
    seed=st.integers(0, 1000),
)
def test_scalar_and_vector_injection_agree(
    rows, lanes, steps, num_vcs, vc_depth, bandwidth, seed
):
    """Both injection passes, called directly or through ``inject`` forced
    onto each side of the crossover, leave copies of one network equal."""
    config = SimulationConfig(
        rows=rows,
        num_vcs=num_vcs,
        vc_depth=vc_depth,
        injection_bandwidth=bandwidth,
        backend="soa",
        seed=seed,
    )
    nodes = rows * rows
    if lanes:
        driver = BatchedNoCSimulator(config, episodes=lanes)
        episodes = driver.lanes
    else:
        driver = NoCSimulator(config)
        episodes = [driver]
    for index, episode in enumerate(episodes):
        topology = episode.topology
        episode.add_source(
            UniformRandomTraffic(topology, injection_rate=0.2, seed=seed + index)
        )
        flood = AttackScenario(attackers=(nodes - 1, 2), victim=nodes // 2, fir=0.9)
        episode.add_source(flood.build_source(topology, seed=seed + 50 + index))
    net = driver.network
    compared = 0
    faulted = False
    for action, node, cycles in steps:
        node %= nodes
        if action != "link_fault":
            actuate(driver, episodes[-1], action, node, faulted)
        elif not faulted:
            link = (node % (nodes - rows), Direction.NORTH)
            driver.inject_data_fault(dead_links=(link,))
            faulted = True
        driver.run(cycles)
        active = net._sq_count.nonzero()[0]
        if active.size == 0:
            continue
        cycle = driver.cycle
        scalar, vector = copy.deepcopy(net), copy.deepcopy(net)
        soa_step._inject_scalar(scalar, active.tolist(), cycle)
        soa_step._inject_vector(vector, active, cycle)
        assert_same_state(scalar, vector)
        forced = []
        for path in ("scalar", "vector"):
            copied = copy.deepcopy(net)
            with injection_path(path):
                soa_step.inject(copied, cycle)
            forced.append(copied)
        assert_same_state(*forced)
        compared += 1
    assert compared


@settings(max_examples=60, deadline=None)
@given(
    # Batches of 12 or more take the array sweep when their sources allow.
    sources=st.one_of(
        st.lists(st.integers(0, NODES - 1), max_size=11),
        st.lists(st.integers(0, NODES - 1), min_size=12, max_size=40),
    ),
    order=st.sampled_from(["as drawn", "sorted", "increasing", "decreasing"]),
    size=st.integers(1, 4),
    capacity=st.sampled_from([6, 16, 64]),
    backlog=st.integers(0, 30),
)
def test_enqueue_batch_equals_per_packet_path(
    sources, order, size, capacity, backlog
):
    if order == "sorted":  # non-decreasing, repeats kept
        sources = sorted(sources)
    elif order != "as drawn":  # strictly monotonic
        sources = sorted(set(sources), reverse=order == "decreasing")
    destinations = []
    for index, source in enumerate(sources):
        dest = (source + 1 + 3 * index) % NODES
        destinations.append((dest + 1) % NODES if dest == source else dest)
    topology = MeshTopology(rows=ROWS)
    networks = []
    for _ in range(2):
        network = SoAMeshNetwork(topology, source_queue_capacity=capacity)
        # A common backlog moves the source rings' heads off slot 0.
        for index in range(backlog):
            source, dest = index % NODES, (index + 5) % NODES
            network.enqueue_packet(Packet(source=source, destination=dest, size_flits=2))
        for cycle in range(backlog // 2):
            network.step(cycle)
        networks.append(network)
    swept, single = networks

    accepted = swept.enqueue_batch(
        np.array(sources, dtype=np.int64),
        np.array(destinations, dtype=np.int64),
        size,
        cycle=7,
        malicious=True,
    )
    accepted_single = sum(
        single.enqueue_packet(
            Packet(
                source=source,
                destination=dest,
                size_flits=size,
                created_cycle=7,
                is_malicious=True,
            )
        )
        for source, dest in zip(sources, destinations)
    )
    assert accepted == accepted_single
    assert swept.dropped_packets == single.dropped_packets
    for column in ("src", "dest", "injected", "size", "created", "malicious"):
        np.testing.assert_array_equal(
            getattr(swept, "_pkt_" + column).values,
            getattr(single, "_pkt_" + column).values,
        )
    np.testing.assert_array_equal(swept._sq_count, single._sq_count)
    for node in range(NODES):
        np.testing.assert_array_equal(
            swept._queued_words(node), single._queued_words(node)
        )


def test_num_vcs_beyond_the_bitmask_width():
    with pytest.raises(ValueError, match="num_vcs"):
        SoAMeshNetwork(MeshTopology(rows=ROWS), num_vcs=17)
    with pytest.raises(ValueError, match="num_vcs"):
        NoCSimulator(SimulationConfig(rows=ROWS, num_vcs=17, backend="soa"))
    simulator = NoCSimulator(SimulationConfig(rows=ROWS, num_vcs=17, backend="object"))
    wire(simulator, seed=3)
    simulator.run(150)
    assert simulator.stats.packets_delivered > 0


def test_sixteen_vcs_match_the_object_backend():
    """The widest mask the SoA backend accepts still runs bit-identically."""
    runs = []
    for backend in ("soa", "object"):
        simulator = NoCSimulator(
            SimulationConfig(rows=ROWS, num_vcs=16, vc_depth=2, backend=backend)
        )
        wire(simulator, seed=5)
        simulator.run(200)
        stats = simulator.stats
        runs.append(
            [
                (p.source, p.destination, p.injected_cycle, p.ejected_cycle)
                for p in stats.delivered
            ]
        )
    assert runs[0] and runs[0] == runs[1]
