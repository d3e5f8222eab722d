"""Property tests of the guard's decision invariants over generated windows.

Hypothesis generates sequences of :class:`~repro.defense.guard.Observation`
— detection, localization, evidence weight, unobservable nodes, detour
carriers with and without injection corroboration, delivery gaps and stale
capture clocks — and drives them through the guard's decision core and its
records on a 4x4 mesh, under a random policy.  On every sequence:

* no window fences more nodes than ``max_engaged_nodes``;
* consecutive staggered release probes are ``release_probe_spacing``
  windows apart or more;
* the report's ``event_counts`` equal the counts rederived from the run's
  own trace, and the trace's decision events equal the report's event log
  in order, kind, nodes and round;
* each window's trace events come in the stream's documented order;
* a node in the window's ``unobservable`` set is never newly engaged;
* an uncorroborated detour carrier the evidence does not hold convicted in
  that window is never newly engaged;
* every release probe follows at least ``policy.release_threshold(...)``
  consecutive fresh-clock clean windows (stale clean windows neither count
  nor break the streak);
* a delivery gap of ``k >= max_gap_decay`` missed windows decays suspicion
  exactly as a gap of ``max_gap_decay`` does.

A last property pins the guard's per-window latency accounting (benign
mean plus the fresh/backlog split at the containment epoch) to the
per-packet loop it replaced, over generated delivered packets.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import LocalizationResult
from repro.defense.degraded import DegradedModeConfig
from repro.defense.guard import DL2FenceGuard, Observation
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DECISION_KINDS
from repro.noc.packet import Packet
from repro.noc.stats import NetworkStats
from repro.obs.bus import RingBufferSink, trace_session
from repro.obs.summarize import trace_counts

from tests.defense.fakes import ScriptedFence, StubFence

NODES = 16
PERIOD = 100

#: The ``window_sanitized`` fields of a window with two imputed cells.
SANITIZED = {"imputed_cells": 2, "declared_silent": frozenset({3}), "stuck": frozenset()}

#: The order of a window's events (``decide``); lapses sort by their reason.
STREAM_ORDER = (
    "window_sanitized", "gap", "detour_discount", "convicted", "decay",
    "detected", "engaged", "rolled_back", "released", "window",
)

nodes = st.lists(st.integers(0, NODES - 1), max_size=6, unique=True)
node_sets = st.frozensets(st.integers(0, NODES - 1), max_size=4)


@st.composite
def observation_fields(draw):
    """Everything one window tells the decision core, except its cycle."""
    detected = draw(st.booleans())
    attackers = draw(nodes)
    detour = draw(node_sets)
    return dict(
        result=LocalizationResult(
            cycle=0,
            detected=detected,
            detection_probability=(
                0.9 if detected else draw(st.sampled_from((0.1, 0.45)))
            ),
            attackers=attackers,
            frontier=draw(nodes),
            estimated_attacker_count=draw(st.integers(0, 4)),
        ),
        weight=1.0 if detected else draw(st.sampled_from((0.0, 1.0))),
        unobservable=draw(node_sets),
        detour=detour,
        corroborated=draw(node_sets) - detour,
        missed_windows=draw(st.sampled_from((0, 0, 0, 1, 3, 12))),
        fresh_clock=draw(st.booleans()),
        sanitized=draw(st.sampled_from(({}, SANITIZED))),
    )


def observations(fields):
    """Place generated windows one sampling period apart."""
    stream = []
    for index, window in enumerate(fields):
        cycle = PERIOD * (index + 1)
        result = dataclasses.replace(window["result"], cycle=cycle)
        stream.append(Observation(cycle=cycle, **dict(window, result=result)))
    return stream


windows = st.lists(observation_fields(), min_size=1, max_size=40)
policies = st.builds(
    MitigationPolicy.quarantine,
    engage_after=st.integers(1, 3),
    release_after=st.integers(1, 3),
    stale_after=st.integers(1, 4),
    reengage_backoff=st.sampled_from((1.0, 2.0)),
    max_engaged_nodes=st.one_of(st.none(), st.integers(1, 4)),
    release_probe_spacing=st.integers(1, 4),
)


def run(stream, policy, **guard_kwargs):
    """Drive ``stream`` through a guard; returns it and each window's decisions."""
    guard = DL2FenceGuard(StubFence(), policy, **guard_kwargs)
    return guard, [guard.decide_window(observation) for observation in stream]


@settings(max_examples=150, deadline=None)
@given(fields=windows, policy=policies)
def test_guard_decision_invariants(fields, policy):
    stream = observations(fields)
    with trace_session(RingBufferSink()) as ring:
        guard, decided = run(stream, policy)
    report = guard.report

    if policy.max_engaged_nodes is not None:
        assert all(
            len(window.restricted) <= policy.max_engaged_nodes
            for window in report.windows
        )

    probe_windows = [
        index
        for index, decisions in enumerate(decided)
        for decision in decisions
        if decision.kind == "released" and "clean_windows" in decision.fields
    ]
    assert all(
        later - earlier >= policy.release_probe_spacing
        for earlier, later in zip(probe_windows, probe_windows[1:])
    )

    assert report.event_counts == trace_counts(ring.events())
    traced = [
        (event["kind"], event.get("nodes", []), event.get("round", 0))
        for event in ring.events()
        if event["kind"] in DECISION_KINDS
    ]
    logged = [(event.kind, sorted(event.nodes), event.round) for event in report.events]
    assert traced == logged
    ranks = []
    for event in ring.events():
        ranks.append(STREAM_ORDER.index(event.get("reason", event["kind"])))
        if event["kind"] == "window":
            assert ranks == sorted(ranks)
            ranks = []

    engage_counts: dict[int, int] = {}
    fresh_clean = 0
    for observation, record, decisions in zip(stream, report.windows, decided):
        if record.detected:
            fresh_clean = 0
        elif observation.fresh_clock:
            fresh_clean += 1
        for decision in decisions:
            if decision.kind == "engaged":
                newly = set(decision.nodes)
                assert not newly & observation.unobservable
                assert not newly & (observation.detour - set(record.suspected))
                for node in newly:
                    engage_counts[node] = engage_counts.get(node, 0) + 1
            elif decision.kind == "released" and "clean_windows" in decision.fields:
                (probe,) = decision.nodes
                assert fresh_clean >= policy.release_threshold(engage_counts[probe])


@settings(max_examples=100, deadline=None)
@given(
    fields=windows,
    policy=policies,
    gap_at=st.integers(0, 39),
    excess=st.integers(0, 20),
    cap=st.one_of(st.none(), st.integers(0, 8)),
)
def test_gap_decay_is_capped(fields, policy, gap_at, excess, cap):
    """A gap beyond the cap decays suspicion exactly as the capped gap does.

    ``cap=None`` runs with degraded mode off, where the cap is
    :class:`DegradedModeConfig`'s default.
    """
    degraded = DegradedModeConfig(max_gap_decay=cap) if cap is not None else False
    cap = cap if cap is not None else DegradedModeConfig.max_gap_decay
    gap_at %= len(fields)

    def stream(missed):
        gapped = list(fields)
        gapped[gap_at] = dict(gapped[gap_at], missed_windows=missed)
        return observations(gapped)

    capped, _ = run(stream(cap), policy, degraded=degraded)
    beyond, _ = run(stream(cap + excess), policy, degraded=degraded)
    np.testing.assert_array_equal(
        beyond.state.evidence.suspicion, capped.state.evidence.suspicion
    )
    assert beyond.report.events == capped.report.events
    assert beyond.report.windows == capped.report.windows


def reference_window(packets, epoch):
    """The per-packet window loop the guard's column query replaced."""
    benign = [p for p in packets if not p.is_malicious]
    latencies = [p.ejected_cycle - p.created_cycle for p in benign]
    if epoch is None:
        fresh = latencies
    else:
        fresh = [
            p.ejected_cycle - p.created_cycle for p in benign if p.created_cycle >= epoch
        ]
    return dict(
        benign_latency=float(np.mean(latencies)) if latencies else math.nan,
        benign_delivered=len(benign),
        malicious_delivered=len(packets) - len(benign),
        benign_fresh_latency=float(np.mean(fresh)) if fresh else math.nan,
        benign_fresh_delivered=len(fresh),
        benign_backlog_delivered=len(benign) - len(fresh),
    )


def same(record, expected):
    assert record.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(record[key]), key
        else:
            assert record[key] == value, key


deliveries = st.lists(
    st.tuples(
        st.integers(0, 3000),  # created
        st.integers(0, 200),  # queue wait
        st.integers(1, 200),  # network traversal
        st.integers(1, 8),  # size
        st.booleans(),  # malicious
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    first=deliveries,
    second=deliveries,
    epoch=st.one_of(st.none(), st.integers(0, 3000)),
)
def test_window_fresh_backlog_split_equals_per_packet_loop(first, second, epoch):
    """Two consecutive windows, each split at the containment epoch."""

    def packet(created, queue, network, size, malicious):
        built = Packet(
            source=0,
            destination=1,
            size_flits=size,
            created_cycle=created,
            is_malicious=malicious,
        )
        built.injected_cycle = created + queue
        built.ejected_cycle = created + queue + network
        return built

    window_a = [packet(*row) for row in first]
    window_b = [packet(*row) for row in second]
    guard = DL2FenceGuard(ScriptedFence([]))
    guard.state.containment_epoch = epoch
    simulator = SimpleNamespace(stats=NetworkStats(delivered=list(window_a)))
    same(guard._window_latency(simulator), reference_window(window_a, epoch))
    simulator.stats.delivered.extend(window_b)
    same(guard._window_latency(simulator), reference_window(window_b, epoch))
