"""Byte-identical trace streams across all three simulator backends.

The flight recorder must be a pure function of the observed window stream:
for the same seeds, the JSONL event stream of a traced guarded episode is
**byte-identical** across the object, solo-SoA and episode-batched-SoA
backends, for benign traffic and every refined-DoS variant — and tracing
must be determinism-neutral: a traced run's behaviour fingerprint
(``DefenseReport.as_dict()``) equals the untraced run's.

An oracle fence (perfect detection keyed off ``attack_active``) stands in
for the CNNs so the closed loop engages/releases deterministically without
a training stage.
"""

import json

import pytest

from repro.attacks import ATTACK_LIBRARY, default_attack_suite
from repro.core.pipeline import LocalizationResult
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.monitor.sampler import MonitorConfig
from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.obs.bus import BUS, JsonlSink, RingBufferSink, serialize_event, trace_session
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

SAMPLE_PERIOD = 64
VARIANTS = ("benign", "flood") + tuple(sorted(ATTACK_LIBRARY))


class OracleFence:
    """Perfect pipeline: detects exactly while the attack window is active."""

    def __init__(self, attackers):
        self.attackers = list(attackers)

    def process_sample(self, sample, force_localization=False):
        return LocalizationResult(
            cycle=sample.cycle,
            detected=sample.attack_active,
            detection_probability=1.0 if sample.attack_active else 0.0,
            attackers=list(self.attackers) if sample.attack_active else [],
        )


def _wire_guarded_episode(simulator, rows, variant, seed):
    """Sources + oracle-fenced guard; identical wiring for solo and lane."""
    topology = simulator.topology
    simulator.add_source(
        UniformRandomTraffic(topology, injection_rate=0.05, seed=seed + 1)
    )
    if variant == "flood":
        last = rows * rows - 1
        simulator.add_source(
            AttackScenario(attackers=(last, 3), victim=1, fir=0.8).build_source(
                topology,
                seed=seed + 2,
            )
        )
    elif variant != "benign":
        model = default_attack_suite(topology, SAMPLE_PERIOD)[variant]
        simulator.add_source(model.build_source(topology, seed=seed + 2))
    guard = DL2FenceGuard(
        OracleFence((rows * rows - 1, 3)),
        MitigationPolicy.quarantine(engage_after=1, release_after=2, flush_queue=True),
    )
    guard.attach(simulator, monitor_config=MonitorConfig(sample_period=SAMPLE_PERIOD))
    return guard


def _solo_trace(backend, rows, variant, seed, cycles, path, episode=0):
    simulator = NoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=16, backend=backend, seed=seed)
    )
    simulator.lane_index = episode  # label solo episodes like batched lanes
    with trace_session(JsonlSink(path=path)):
        guard = _wire_guarded_episode(simulator, rows, variant, seed)
        simulator.run(cycles)
    return path.read_bytes(), guard.report.as_dict()


def _batched_trace(rows, episodes, cycles, path):
    batched = BatchedNoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=16, backend="soa"),
        episodes=len(episodes),
    )
    with trace_session(JsonlSink(path=path)):
        guards = [
            _wire_guarded_episode(batched.lane(index), rows, variant, seed)
            for index, (variant, seed) in enumerate(episodes)
        ]
        batched.run(cycles)
    return path.read_bytes(), [guard.report.as_dict() for guard in guards]


def _episode_lines(raw: bytes, episode: int) -> list[str]:
    return [
        line
        for line in raw.decode().splitlines()
        if json.loads(line)["episode"] == episode
    ]


def _geometry(variant):
    """Variant runs need the 8x8 mesh the refined-DoS suite is tuned for."""
    return (6, 400) if variant in ("benign", "flood") else (8, 400)


class TestSoloBackendsByteIdentical:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_object_and_soa_streams_equal(self, tmp_path, variant):
        rows, cycles = _geometry(variant)
        soa_raw, soa_report = _solo_trace(
            "soa", rows, variant, 5, cycles, tmp_path / "soa.jsonl"
        )
        obj_raw, obj_report = _solo_trace(
            "object", rows, variant, 5, cycles, tmp_path / "object.jsonl"
        )
        assert soa_raw, "traced run produced no events"
        assert soa_raw == obj_raw
        assert soa_report == obj_report


class TestBatchedStreamsMatchSolo:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_single_lane_stream_equals_solo(self, tmp_path, variant):
        rows, cycles = _geometry(variant)
        batched_raw, batched_reports = _batched_trace(
            rows, [(variant, 5)], cycles, tmp_path / "batched.jsonl"
        )
        solo_raw, solo_report = _solo_trace(
            "soa", rows, variant, 5, cycles, tmp_path / "solo.jsonl"
        )
        assert batched_raw == solo_raw
        assert batched_reports[0] == solo_report

    def test_mixed_lanes_interleave_without_bleed(self, tmp_path):
        """Per-episode slices of a mixed batch equal the solo streams."""
        rows, cycles = 6, 400
        episodes = [("flood", 11), ("benign", 22), ("flood", 33)]
        batched_raw, batched_reports = _batched_trace(
            rows, episodes, cycles, tmp_path / "batched.jsonl"
        )
        for index, (variant, seed) in enumerate(episodes):
            solo_raw, solo_report = _solo_trace(
                "soa",
                rows,
                variant,
                seed,
                cycles,
                tmp_path / f"solo-{index}.jsonl",
                episode=index,
            )
            assert _episode_lines(batched_raw, index) == solo_raw.decode().splitlines()
            assert batched_reports[index] == solo_report


class TestTracingIsDeterminismNeutral:
    def test_report_fingerprint_unchanged_by_tracing(self, tmp_path):
        """Tracing on vs off: identical decisions, identical report."""

        def episode(traced):
            simulator = NoCSimulator(
                SimulationConfig(rows=6, warmup_cycles=16, backend="soa", seed=5)
            )
            if traced:
                with trace_session(JsonlSink(path=tmp_path / "trace.jsonl")):
                    guard = _wire_guarded_episode(simulator, 6, "flood", 5)
                    simulator.run(400)
            else:
                guard = _wire_guarded_episode(simulator, 6, "flood", 5)
                simulator.run(400)
            return guard.report.as_dict()

        traced, untraced = episode(True), episode(False)
        # The only allowed difference: event_counts populates when traced.
        assert traced.pop("event_counts")["engagements"] > 0
        assert untraced.pop("event_counts") == {}
        assert traced == untraced

    def test_ring_and_jsonl_sinks_record_identical_events(self, tmp_path):
        _, _ = _solo_trace("soa", 6, "flood", 5, 400, tmp_path / "trace.jsonl")
        simulator = NoCSimulator(
            SimulationConfig(rows=6, warmup_cycles=16, backend="soa", seed=5)
        )
        with trace_session(RingBufferSink()) as ring:
            _wire_guarded_episode(simulator, 6, "flood", 5)
            simulator.run(400)
        ring_lines = [serialize_event(event) for event in ring.events()]
        assert ring_lines == (tmp_path / "trace.jsonl").read_text().splitlines()

    def test_global_bus_left_disabled(self):
        assert BUS.active is False


class TestLearnedPipelineTraced:
    def test_closed_loop_fingerprints_equal_under_tracing(
        self, trained_pipeline, tmp_path
    ):
        """The CNN-driven closed loop stays backend-identical when traced."""

        def episode(backend):
            simulator = NoCSimulator(
                SimulationConfig(rows=6, warmup_cycles=16, seed=0, backend=backend)
            )
            simulator.add_source(
                UniformRandomTraffic(simulator.topology, injection_rate=0.04, seed=5)
            )
            simulator.add_source(
                AttackScenario(attackers=(34, 5), victim=1, fir=0.8).build_source(
                    simulator.topology,
                    seed=6,
                    start_cycle=200,
                    end_cycle=900,
                )
            )
            guard = DL2FenceGuard(
                trained_pipeline,
                MitigationPolicy.quarantine(
                    engage_after=1, release_after=2, flush_queue=True
                ),
                attack_start=200,
                attack_end=900,
                true_attackers=(34, 5),
            )
            guard.attach(simulator, monitor_config=MonitorConfig(sample_period=100))
            path = tmp_path / f"{backend}.jsonl"
            with trace_session(JsonlSink(path=path)):
                simulator.run(1200)
            return path.read_bytes(), guard.report.as_dict()

        soa_raw, soa_report = episode("soa")
        obj_raw, obj_report = episode("object")
        assert soa_raw == obj_raw
        assert soa_report == obj_report
        assert soa_report["event_counts"]  # populated by the traced run
