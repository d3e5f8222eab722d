"""Property tests of the guard's decision invariants over generated scripts.

Hypothesis drives generated ``(detected, attackers)`` window scripts through
the scripted-fence harness on a 4x4 mesh, under a random engagement cap and
release-probe spacing, and checks on every sequence that

* no window fences more nodes than ``max_engaged_nodes``;
* consecutive staggered release probes are ``release_probe_spacing``
  windows apart or more;
* the report's ``event_counts`` equal the counts rederived from the run's
  own trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defense.policy import MitigationPolicy
from repro.obs.bus import RingBufferSink, trace_session
from repro.obs.summarize import trace_counts

from tests.defense.test_guard import drive

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
