"""Property tests of the guard's decision invariants over generated scripts.

Hypothesis drives generated ``(detected, attackers)`` window scripts through
the scripted-fence harness on a 4x4 mesh, under a random engagement cap and
release-probe spacing, and checks on every sequence that

* no window fences more nodes than ``max_engaged_nodes``;
* consecutive staggered release probes are ``release_probe_spacing``
  windows apart or more;
* the report's ``event_counts`` equal the counts rederived from the run's
  own trace.

A second property pins the guard's per-window latency accounting (benign
mean plus the fresh/backlog split at the containment epoch) to the
per-packet loop it replaced, over generated delivered packets.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.noc.packet import Packet
from repro.noc.stats import NetworkStats
from repro.obs.bus import RingBufferSink, trace_session
from repro.obs.summarize import trace_counts

from tests.defense.test_guard import ScriptedFence, drive

windows = st.tuples(
    st.booleans(), st.lists(st.integers(0, 15), max_size=6, unique=True)
)
scripts = st.lists(windows, min_size=1, max_size=40)
policies = st.builds(
    MitigationPolicy.quarantine,
    engage_after=st.integers(1, 3),
    release_after=st.integers(1, 3),
    stale_after=st.integers(1, 4),
    reengage_backoff=st.sampled_from((1.0, 2.0)),
    max_engaged_nodes=st.one_of(st.none(), st.integers(1, 4)),
    release_probe_spacing=st.integers(1, 4),
)


@settings(max_examples=150, deadline=None)
@given(script=scripts, policy=policies)
def test_guard_decision_invariants(script, policy):
    with trace_session(RingBufferSink()) as ring:
        guard, _ = drive(script, policy)
    report, trace = guard.report, ring.events()

    if policy.max_engaged_nodes is not None:
        assert all(
            len(window.restricted) <= policy.max_engaged_nodes
            for window in report.windows
        )

    # Staggered probes carry their clean-window count in the trace; the
    # full-rollback ``released`` marker does not.
    probe_windows = [
        event["window"]
        for event in trace
        if event["kind"] == "released" and "clean_windows" in event
    ]
    assert all(
        later - earlier >= policy.release_probe_spacing
        for earlier, later in zip(probe_windows, probe_windows[1:])
    )

    assert report.event_counts == trace_counts(trace)


def reference_window(packets, epoch):
    """The per-packet window loop the guard's column query replaced."""
    benign = [p for p in packets if not p.is_malicious]
    latencies = [p.total_latency() for p in benign]
    if epoch is None:
        fresh = latencies
    else:
        fresh = [p.total_latency() for p in benign if p.created_cycle >= epoch]
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
    guard._containment_epoch = epoch
    simulator = SimpleNamespace(stats=NetworkStats(delivered=list(window_a)))
    same(guard._window_latency(simulator), reference_window(window_a, epoch))
    simulator.stats.delivered.extend(window_b)
    same(guard._window_latency(simulator), reference_window(window_b, epoch))
