"""In-memory span tracer installed around the public calls of each layer.

Every wrapped call is a span.  Spans nest on a stack; when one ends, its
duration is added to its parent's child time, and its *self time* (duration
minus the part covered by child spans) is added to its layer.  Only the
per-layer aggregates are kept, plus per-call durations for the few layers
that report percentiles, so a traced 16x16 matrix (~0.7 M spans) stays small.

Wrappers are installed on class attributes and on module globals *where they
are looked up*, before any simulator, monitor or guard exists: the monitor
registers ``monitor.sample`` and the guard registers ``guard.on_sample`` as
bound methods at ``attach()``, so patching after that point would miss them.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: (layer, module path, attribute path) of every timed call.  A layer may
#: collect several calls; its self time is the sum over all of them.
TIMED = (
    ("experiments.guarded_episode", "repro.experiments.robustness", "run_attack_episode"),
    ("experiments.unmitigated", "repro.experiments.robustness", "unmitigated_attack_episode_latency"),
    ("experiments.baseline", "repro.experiments.robustness", "baseline_benign_latency"),
    ("runtime.cache_fetch", "repro.runtime.cache", "ArtifactCache.fetch"),
    ("runtime.cache_store", "repro.runtime.cache", "ArtifactCache.store"),
    ("runtime.build_runs", "repro.runtime.engine", "ExperimentEngine.build_runs"),
    ("core.fit", "repro.core.pipeline", "DL2Fence.fit"),
    ("sim.step", "repro.noc.simulator", "NoCSimulator.step"),
    ("noc.step", "repro.noc.soa", "SoAMeshNetwork.step"),
    ("noc.step_batched", "repro.noc.soa_batch", "BatchedSoAMeshNetwork.step"),
    ("noc.enqueue_packet", "repro.noc.soa", "SoAMeshNetwork.enqueue_packet"),
    ("noc.enqueue_batch", "repro.noc.soa", "SoAMeshNetwork.enqueue_batch"),
    ("traffic.draw", "repro.traffic.synthetic", "SyntheticTraffic.packet_batch_for_cycle"),
    ("traffic.draw", "repro.traffic.synthetic", "SyntheticTraffic.packets_for_cycle"),
    ("attacks.draw", "repro.attacks.base", "AttackSource.packet_batch_for_cycle"),
    ("attacks.draw", "repro.attacks.base", "AttackSource.packets_for_cycle"),
    # The fault plane runs inside the monitor's capture and is not timed on
    # its own (see COUNTED): its self time would read exactly 0 on the
    # fault-free workloads.
    ("monitor.sample", "repro.monitor.sampler", "GlobalPerformanceMonitor.sample"),
    ("defense.on_sample", "repro.defense.guard", "DL2FenceGuard.on_sample"),
    ("defense.sanitize", "repro.defense.degraded", "WindowSanitizer.sanitize"),
    ("defense.evidence", "repro.defense.evidence", "EvidenceAccumulator.window_weight"),
    ("defense.evidence", "repro.defense.evidence", "EvidenceAccumulator.observe"),
    ("defense.evidence", "repro.defense.evidence", "EvidenceAccumulator.decay_gap"),
    ("defense.evidence", "repro.defense.evidence", "EvidenceAccumulator.reset_node"),
    ("defense.evidence", "repro.defense.evidence", "EvidenceAccumulator.convicted_nodes"),
    ("defense.evidence", "repro.defense.evidence", "EvidenceAccumulator.suspicion_of"),
    ("core.process_sample", "repro.core.pipeline", "DL2Fence.process_sample"),
    ("core.detect", "repro.core.detector", "DoSDetector.detect"),
    ("core.segment", "repro.core.localizer", "DoSProfileLocalizer.segment_frames"),
    ("core.fusion", "repro.core.pipeline", "fuse_direction_masks"),
    ("core.fusion", "repro.core.pipeline", "victims_from_mask"),
    ("core.fusion", "repro.core.pipeline", "DL2Fence._direction_victims"),
    ("core.fusion", "repro.core.pipeline", "DL2Fence._mask_from_victims"),
    # VCE is off in the default DL2FenceConfig; when on, it counts as fusion.
    ("core.fusion", "repro.core.pipeline", "victim_completing_enhancement"),
    ("core.tlm", "repro.core.pipeline", "estimate_attacker_count"),
    ("core.tlm", "repro.core.tlm", "TableLikeMethod.localize_with_frontier"),
)

#: Calls that are counted but not timed as spans of their own.
COUNTED = (
    ("faults.plane_calls", "repro.faults.base", "FaultPlane.process"),
    ("faults.data_fault_calls", "repro.noc.simulator", "NoCSimulator.inject_data_fault"),
)

#: Layers whose per-call (inclusive) durations are kept for percentiles.
KEEP_DURATIONS = frozenset(
    {
        "defense.on_sample",
        "experiments.guarded_episode",
        "experiments.unmitigated",
        "experiments.baseline",
    }
)


class Tracer:
    """Span stack plus per-layer self time, call counts and durations."""

    def __init__(self) -> None:
        self.active = False
        self._stack: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)

    def reset(self) -> None:
        self._stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.durations.clear()

    def timed(self, layer: str, fn):
        tracer = self
        stack = self._stack
        keep = layer in KEEP_DURATIONS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                tracer.self_s[layer] += duration - child
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += duration
                if keep:
                    tracer.durations[layer].append(duration)

        return span

    def counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def count(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return count

    def forced_localization(self, fn):
        """``DL2Fence.process_sample`` counter of forced localizations."""
        tracer = self

        @functools.wraps(fn)
        def process_sample(*args, **kwargs):
            if tracer.active and kwargs.get("force_localization"):
                tracer.calls["core.forced_localizations"] += 1
            return fn(*args, **kwargs)

        return process_sample


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install(tracer: Tracer):
    """Install every wrapper; returns a callable that restores the originals."""
    saved = []

    def patch(owner, name, make):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        saved.append((owner, name, original))
        setattr(owner, name, make(original))

    for layer, module_path, attr_path in TIMED:
        owner, name = _resolve(module_path, attr_path)
        patch(owner, name, functools.partial(tracer.timed, layer))
    for counter, module_path, attr_path in COUNTED:
        owner, name = _resolve(module_path, attr_path)
        patch(owner, name, functools.partial(tracer.counted, counter))
    owner, name = _resolve("repro.core.pipeline", "DL2Fence.process_sample")
    patch(owner, name, tracer.forced_localization)

    def restore() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return restore
