"""Shared draw streams replay exactly what a fresh workload would draw.

Within one scope, a benign workload equal to an earlier one (same class,
parameters and seed) reads its ``_draw_batch`` results back from the
record the first one wrote.  Every batch-capable synthetic pattern must
replay equal arrays of equal dtype, read-only, and an out-of-sequence
cycle must raise.  Attack sources and PARSEC workloads are never shared:
equal attack sources in one scope each draw the fresh stream themselves,
with ``packets_generated`` counted on both emission paths.
A closed-loop episode under generated mitigation policies reports the same
whether it runs alone or after episodes that recorded its benign stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ATTACK_LIBRARY, default_attack_suite
from repro.defense.policy import MitigationPolicy
from repro.experiments.robustness import (
    baseline_benign_latency,
    run_attack_episode,
    unmitigated_attack_episode_latency,
)
from repro.monitor.dataset import DatasetBuilder, DatasetConfig
from repro.noc import shared_draws
from repro.noc.topology import MeshTopology
from repro.traffic.parsec import make_parsec_workload
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import SYNTHETIC_PATTERNS, make_synthetic_traffic

from tests.defense.fakes import OracleFence

TOPOLOGY = MeshTopology(rows=6, columns=6)
SAMPLE_PERIOD = 64
HORIZON = 900
ATTACK_START, ATTACK_END = 100, 740


@pytest.fixture
def scope():
    token = shared_draws.scope_token()
    shared_draws.enter_scope(token)
    yield token
    shared_draws.close_scope(token)


def synthetic(name, seed=5):
    return make_synthetic_traffic(name, TOPOLOGY, injection_rate=0.1, seed=seed)


def attack(name, seed=9):
    model = default_attack_suite(TOPOLOGY, SAMPLE_PERIOD)[name]
    return model.build_source(
        TOPOLOGY, seed=seed, start_cycle=ATTACK_START, end_cycle=ATTACK_END
    )


def batches(source, cycles=range(HORIZON)):
    return [source._draw_batch(cycle) for cycle in cycles]


def assert_same_batches(replayed, fresh):
    assert len(replayed) == len(fresh)
    for got, want in zip(replayed, fresh):
        assert (got is None) == (want is None)
        if want is None:
            continue
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            np.testing.assert_array_equal(got_array, want_array)


PATTERNS = sorted(SYNTHETIC_PATTERNS)
# Replay cases: the shared synthetic patterns, and the attack variants,
# which pass through ``share`` unchanged and must still draw the fresh stream.
SOURCES = [("synthetic", name) for name in PATTERNS] + [
    ("attack", name) for name in sorted(ATTACK_LIBRARY)
]
SYNTHETIC_IDS = [f"synthetic-{name}" for name in PATTERNS]


def build(kind, name):
    return synthetic(name) if kind == "synthetic" else attack(name)


@pytest.mark.parametrize("kind, name", SOURCES)
def test_replay_equals_fresh_source(scope, kind, name):
    fresh = batches(build(kind, name))
    leader = shared_draws.share(build(kind, name))
    assert_same_batches(batches(leader), fresh)
    follower = shared_draws.share(build(kind, name))
    assert_same_batches(batches(follower), fresh)
    assert any(batch is not None and batch[0].size for batch in fresh)


@pytest.mark.parametrize("kind, name", SOURCES)
def test_interleaved_lanes_replay_the_same_stream(scope, kind, name):
    """Readers that advance cycle by cycle together (batched lanes)."""
    fresh = batches(build(kind, name))
    lanes = [shared_draws.share(build(kind, name)) for _ in range(3)]
    drawn = [[], [], []]
    for cycle in range(HORIZON):
        for lane, out in zip(reversed(lanes), reversed(drawn)):
            out.append(lane._draw_batch(cycle))
    for out in drawn:
        assert_same_batches(out, fresh)


@pytest.mark.parametrize("name", PATTERNS, ids=SYNTHETIC_IDS)
def test_different_seeds_do_not_share(scope, name):
    first = shared_draws.share(synthetic(name, seed=1))
    second = shared_draws.share(synthetic(name, seed=2))
    assert first._replay._record is not second._replay._record
    assert_same_batches(batches(second), batches(synthetic(name, seed=2)))


@pytest.mark.parametrize("name", PATTERNS, ids=SYNTHETIC_IDS)
def test_replayed_arrays_are_read_only(scope, name):
    cycles = range(ATTACK_START, ATTACK_START + 200)
    batches(shared_draws.share(synthetic(name)), cycles)
    follower = shared_draws.share(synthetic(name))
    replayed = [
        batch
        for batch in batches(follower, cycles)
        if batch is not None and batch[0].size
    ]
    assert replayed
    for sources, destinations in replayed:
        for array in (sources, destinations):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


@pytest.mark.parametrize("name", sorted(ATTACK_LIBRARY))
def test_packets_generated_is_kept(scope, name):
    """Equal attack sources in one scope count their own packets on both paths."""
    fresh = attack(name)
    fresh_batches = [fresh.packet_batch_for_cycle(cycle) for cycle in range(HORIZON)]
    array_path, object_path = (shared_draws.share(attack(name)) for _ in range(2))
    replayed = [array_path.packet_batch_for_cycle(cycle) for cycle in range(HORIZON)]
    emitted = sum(len(object_path.packets_for_cycle(cycle)) for cycle in range(HORIZON))
    assert array_path.packets_generated == fresh.packets_generated > 0
    assert object_path.packets_generated == emitted == fresh.packets_generated
    assert [b is None for b in replayed] == [b is None for b in fresh_batches]


def test_object_path_replays_the_same_packets(scope):
    fresh = synthetic("uniform_random")
    shared_draws.share(synthetic("uniform_random"))
    follower = shared_draws.share(synthetic("uniform_random"))
    def fields(packets):
        return [(p.source, p.destination, p.created_cycle) for p in packets]

    for cycle in range(300):
        got = fields(follower.packets_for_cycle(cycle))
        assert got == fields(fresh.packets_for_cycle(cycle))


def test_out_of_sequence_cycle_raises(scope):
    leader = shared_draws.share(synthetic("tornado"))
    batches(leader, range(ATTACK_START, ATTACK_START + 50))
    follower = shared_draws.share(synthetic("tornado"))
    follower._draw_batch(ATTACK_START)
    with pytest.raises(ValueError, match="cycle"):
        follower._draw_batch(ATTACK_START + 5)
    late = shared_draws.share(synthetic("tornado"))
    with pytest.raises(ValueError, match="cycle"):
        late._draw_batch(ATTACK_START + 1)


def test_nothing_is_shared_outside_a_scope():
    source = shared_draws.share(synthetic("uniform_random"))
    assert source._replay is None


@pytest.mark.parametrize("name", sorted(ATTACK_LIBRARY))
def test_attack_sources_are_never_shared(scope, name):
    source = attack(name)
    assert shared_draws.share(source) is source
    assert not hasattr(source, "_replay")
    assert not shared_draws._SCOPE.records


def test_parsec_workloads_are_never_shared(scope):
    workload = make_parsec_workload("x264", TOPOLOGY, total_cycles=HORIZON, seed=3)
    assert shared_draws.share(workload) is workload
    assert getattr(workload, "_replay", None) is None
    assert not shared_draws._SCOPE.records


def test_a_new_scope_drops_the_records(scope):
    leader = shared_draws.share(synthetic("uniform_random"))
    batches(leader, range(50))
    shared_draws.enter_scope(scope)
    assert len(shared_draws._SCOPE.records) == 1
    token = shared_draws.scope_token()
    shared_draws.enter_scope(token)
    try:
        assert not shared_draws._SCOPE.records
        fresh = shared_draws.share(synthetic("uniform_random"))
        assert len(fresh._replay._record) == 0
    finally:
        shared_draws.close_scope(token)
    assert shared_draws._SCOPE is None


# -- closed-loop episodes ------------------------------------------------------

ROWS = 4
BUILDER = DatasetBuilder(
    DatasetConfig(
        rows=ROWS,
        sample_period=SAMPLE_PERIOD,
        warmup_cycles=16,
        benign_injection_rate=0.05,
    )
)
WINDOWS = dict(pre_attack_windows=2, attack_windows=6, post_attack_windows=2)

policies = st.builds(
    lambda quarantine, factor, flush, engage, release, stale: (
        MitigationPolicy.quarantine if quarantine else MitigationPolicy.throttle
    )(
        **({} if quarantine else {"factor": factor}),
        flush_queue=flush,
        engage_after=engage,
        release_after=release,
        stale_after=stale,
    ),
    st.booleans(),
    st.sampled_from([0.05, 0.25, 0.5]),
    st.booleans(),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 4),
)


def record_lengths():
    return {key: len(record) for key, record in shared_draws._SCOPE.records.items()}


def episode(policy, attacks, benchmark, seed):
    attackers = sorted({node for model in attacks for node in model.attackers})
    report = run_attack_episode(
        OracleFence(attackers, rows=ROWS),
        BUILDER,
        policy,
        attacks,
        benchmark=benchmark,
        seed=seed,
        **WINDOWS,
    )
    comparator = unmitigated_attack_episode_latency(
        BUILDER, attacks, benchmark=benchmark, seed=seed, **WINDOWS
    )
    return report.as_dict(), comparator


@settings(max_examples=10, deadline=None)
@given(
    policy=policies,
    recorder_policy=policies,
    attacker=st.sampled_from([3, 12, 15]),
    fir=st.sampled_from([0.4, 0.8]),
    benchmark=st.sampled_from(["uniform_random", "tornado"]),
    seed=st.integers(0, 100),
)
def test_episode_is_the_same_after_recorded_streams(
    policy, recorder_policy, attacker, fir, benchmark, seed
):
    attacks = (AttackScenario(attackers=(attacker,), victim=5, fir=fir),)
    alone = episode(policy, attacks, benchmark, seed)
    token = shared_draws.scope_token()
    shared_draws.enter_scope(token)
    try:
        baseline_benign_latency(BUILDER, benchmark, seed=seed, **WINDOWS)
        episode(recorder_policy, attacks, benchmark, seed)
        recorded = record_lengths()
        assert len(recorded) == 1  # the benign workload, not the flood
        replayed = episode(policy, attacks, benchmark, seed)
        # Every draw of the replayed episodes came from the records.
        assert record_lengths() == recorded
    finally:
        shared_draws.close_scope(token)
    assert replayed[0] == alone[0]
    assert np.array_equal(replayed[1], alone[1], equal_nan=True)
