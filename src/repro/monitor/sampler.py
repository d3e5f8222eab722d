"""Global performance monitor: periodic VCO/BOC frame sampling.

The paper designs "a global performance monitor to collect the dataset",
sampling features every 1000 cycles for synthetic traffic and every 100000
cycles for PARSEC.  This module provides that monitor as a simulator observer:
every ``sample_period`` cycles (after warmup) it captures one
:class:`~repro.monitor.frames.FrameSample` containing the four VCO frames and
the four BOC frames, then resets the BOC accumulators so the next window
starts fresh.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

from repro.monitor.features import FeatureKind, extract_feature_frames
from repro.monitor.frames import DirectionalFrame, FrameSample, FrameSet
from repro.noc.simulator import NoCSimulator
from repro.noc.topology import Direction
from repro.obs.bus import BUS

__all__ = ["MonitorConfig", "GlobalPerformanceMonitor"]


@dataclass(frozen=True)
class MonitorConfig:
    """Sampling configuration of the global performance monitor."""

    sample_period: int = 256
    reset_boc_after_sample: bool = True

    def __post_init__(self) -> None:
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")


class GlobalPerformanceMonitor:
    """Collects feature frames from a simulator at a fixed period."""

    def __init__(self, config: MonitorConfig | None = None) -> None:
        self.config = config or MonitorConfig()
        self.samples: list[FrameSample] = []
        self._attackers: list = []
        #: (callback, critical) pairs; critical listeners fail fast, the
        #: rest are isolated so one bad consumer cannot abort capture.
        self._listeners: list[
            tuple[Callable[[FrameSample, NoCSimulator], None], bool]
        ] = []
        self._window_start: int | None = None
        # Optional monitor-plane fault injection (repro.faults): transforms
        # the captured stream between capture and store/dispatch.
        self.fault_plane = None

    # -- wiring ------------------------------------------------------------
    def attach(self, simulator: NoCSimulator) -> "GlobalPerformanceMonitor":
        """Register the monitor as a periodic observer of ``simulator``.

        Malicious sources are recognised by their ``is_attack_source``
        marker (every :class:`~repro.attacks.AttackSource` carries it), so
        the ground-truth ``attack_active`` flag works for any attack shape
        without the monitor importing attack classes.
        """
        simulator.add_observer(self.config.sample_period, self.sample)
        self._attackers = [
            source
            for source in simulator.sources
            if getattr(source, "is_attack_source", False)
        ]
        return self

    def add_listener(
        self,
        callback: Callable[[FrameSample, NoCSimulator], None],
        critical: bool = False,
    ) -> None:
        """Stream every new sample to ``callback(sample, simulator)``.

        This is the hand-off point for online consumers: a runtime defense
        (:class:`repro.defense.DL2FenceGuard`) subscribes here so each
        sampling window is pushed through detection and mitigation as soon as
        it is captured, instead of being post-processed from ``samples``.

        ``critical`` controls the failure contract.  A critical listener
        (the guard) propagates its exceptions — a defense silently detached
        from its stream is worse than a crash.  Non-critical listeners
        (trace sinks, dashboards, ad-hoc probes) are *isolated*: a raising
        one is reported as a :class:`RuntimeWarning` and dispatch continues,
        so a bad auxiliary consumer cannot abort window capture mid-episode.
        """
        self._listeners.append((callback, critical))

    def set_fault_plane(self, plane) -> "GlobalPerformanceMonitor":
        """Install a monitor-plane fault chain (``None`` restores fault-free).

        ``plane`` is a :class:`repro.faults.base.FaultPlane` (duck-typed: any
        object with ``process(sample) -> list[FrameSample]``).  Faults apply
        *after* frame capture and ground-truth labelling and *before* the
        sample is stored or dispatched to listeners, so both simulator
        backends — which produce bit-identical pristine frames — feed
        consumers bit-identical degraded streams.
        """
        self.fault_plane = plane
        return self

    # -- sampling ------------------------------------------------------------
    def sample(self, simulator: NoCSimulator) -> FrameSample:
        """Capture one frame sample right now; store/dispatch what survives.

        Returns the pristine capture.  With a fault plane installed,
        ``samples`` and the listener stream instead receive whatever the
        plane delivers for this window — possibly nothing (dropped), a
        transformed copy, or several buffered windows released at once.
        """
        network = simulator.network
        cycle = simulator.cycle
        vco_values = extract_feature_frames(network, FeatureKind.VCO)
        boc_values = extract_feature_frames(network, FeatureKind.BOC)
        vco_frames = {}
        boc_frames = {}
        for direction in Direction.cardinal():
            vco_frames[direction] = DirectionalFrame(
                direction=direction,
                kind=FeatureKind.VCO,
                values=vco_values[direction],
                cycle=cycle,
            )
            boc_frames[direction] = DirectionalFrame(
                direction=direction,
                kind=FeatureKind.BOC,
                values=boc_values[direction],
                cycle=cycle,
            )
        # Window-level ground truth: the flag covers every cycle since the
        # previous sample, not just the sampling instant — a pulsed attack
        # bursting between two instants still marks its windows active.
        window_start = (
            self._window_start
            if self._window_start is not None
            else max(0, cycle - self.config.sample_period)
        )
        attack_active = any(
            attacker.is_active_in(window_start, cycle + 1)
            for attacker in self._attackers
        )
        self._window_start = cycle + 1
        sample = FrameSample(
            cycle=cycle,
            vco=FrameSet(kind=FeatureKind.VCO, frames=vco_frames, cycle=cycle),
            boc=FrameSet(kind=FeatureKind.BOC, frames=boc_frames, cycle=cycle),
            attack_active=attack_active,
        )
        # Data-plane fault annotation: with links/routers dead, declare the
        # dead routers unobservable (their monitors died with them) and name
        # the detour carriers so the degraded guard can discount the
        # infrastructure-caused congestion shift.  Annotated at the
        # simulator level, so both backends emit identical metadata.
        provider = getattr(network, "route_provider", None)
        if provider is not None:
            from repro.faults.monitor import (
                DETOUR_KEY,
                LOCAL_BOC_KEY,
                UNOBSERVABLE_KEY,
            )

            if provider.detour_nodes:
                sample.metadata[DETOUR_KEY] = tuple(sorted(provider.detour_nodes))
                # Carrier/injector discrimination telemetry: per-node
                # LOCAL-port buffer operations this window.  Captured
                # before the BOC reset below, identically on every
                # backend (the counters are part of the fingerprint).
                local = getattr(network, "local_boc", None)
                if local is not None:
                    sample.metadata[LOCAL_BOC_KEY] = tuple(local())
            if provider.dead_routers:
                unobservable = set(sample.metadata.get(UNOBSERVABLE_KEY, ()))
                unobservable.update(int(node) for node in provider.dead_routers)
                sample.metadata[UNOBSERVABLE_KEY] = tuple(sorted(unobservable))
        # BOC counters reset unconditionally: the hardware window restarts
        # whether or not the *transport* of this window's report survives
        # the fault plane below.
        if self.config.reset_boc_after_sample:
            network.reset_boc_counters()
        delivered = (
            [sample] if self.fault_plane is None else self.fault_plane.process(sample)
        )
        for item in delivered:
            self.samples.append(item)
            if BUS.active:
                BUS.emit(
                    "window_captured",
                    episode=simulator.lane_index,
                    cycle=item.cycle,
                    window=len(self.samples) - 1,
                    attack_active=bool(item.attack_active),
                )
            for listener, critical in self._listeners:
                if critical:
                    listener(item, simulator)
                    continue
                try:
                    listener(item, simulator)
                except Exception as exc:
                    warnings.warn(
                        f"monitor listener {listener!r} raised "
                        f"{type(exc).__name__}: {exc}; listener isolated, "
                        "window capture continues",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        return sample

    # -- results ---------------------------------------------------------------
    def clear(self) -> None:
        """Discard all collected samples."""
        self.samples.clear()

    @property
    def num_samples(self) -> int:
        return len(self.samples)
