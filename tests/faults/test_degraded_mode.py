"""Degraded-mode tests: window sanitisation and the guard's fault invariants."""

import numpy as np
import pytest

from repro.core.pipeline import LocalizationResult
from repro.defense.degraded import DegradedModeConfig, WindowSanitizer
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.faults import (
    DelayedWindowFault,
    DroppedWindowFault,
    FaultScenario,
    SilentMonitorFault,
    node_port_cells,
)
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import MeshTopology

from tests.defense.fakes import StubFence
from tests.faults.test_monitor_faults import make_sample


@pytest.fixture
def topology():
    return MeshTopology(rows=4, columns=4)


class TestPlausibilityClamp:
    def test_implausible_vco_cell_is_imputed_from_history(self, topology):
        sanitizer = WindowSanitizer(topology, sample_period=100)
        clean, health = sanitizer.sanitize(make_sample(topology, 100, fill=0.4))
        assert health.imputed_cells == 0
        corrupt = make_sample(topology, 200, fill=0.4)
        from repro.noc.topology import Direction

        corrupt.vco.frames[Direction.EAST].values[1, 1] = float(1 << 20)
        clean, health = sanitizer.sanitize(corrupt)
        assert health.imputed_cells == 1
        assert clean.vco.frames[Direction.EAST].values[1, 1] == 0.4

    def test_genuine_flood_values_survive(self, topology):
        config = DegradedModeConfig()
        sanitizer = WindowSanitizer(topology, config, sample_period=100)
        # Saturated but physical: VCO at 1.0, BOC at the per-window ceiling.
        sample = make_sample(topology, 100, fill=1.0)
        for frame in sample.boc.frames.values():
            frame.values[...] = config.boc_rate_ceiling * 100
        clean, health = sanitizer.sanitize(sample)
        assert health.imputed_cells == 0
        from repro.noc.topology import Direction

        assert clean.vco.frames[Direction.EAST].values[0, 0] == 1.0

    def test_unknown_period_disables_boc_ceiling(self, topology):
        sanitizer = WindowSanitizer(topology, sample_period=None)
        sample = make_sample(topology, 100, fill=0.4)
        from repro.noc.topology import Direction

        sample.boc.frames[Direction.EAST].values[0, 0] = float(1 << 30)
        _, health = sanitizer.sanitize(sample)
        assert health.imputed_cells == 0


class TestStuckDetection:
    def test_repeated_signature_declares_stuck_then_heals(self, topology):
        rng = np.random.default_rng(3)
        node = topology.node_id(1, 1)
        cells = node_port_cells(topology, node)
        sanitizer = WindowSanitizer(
            topology, DegradedModeConfig(stuck_after=3), sample_period=100
        )

        def send(cycle, frozen):
            sample = make_sample(topology, cycle, rng=rng)
            if frozen:
                for direction, row, col in cells:
                    sample.vco.frames[direction].values[row, col] = 0.5
                    sample.boc.frames[direction].values[row, col] = 7.0
            return sanitizer.sanitize(sample)

        _, h1 = send(100, frozen=True)
        _, h2 = send(200, frozen=True)
        assert not h1.stuck and not h2.stuck
        clean, h3 = send(300, frozen=True)
        assert h3.stuck == frozenset((node,))
        assert node in h3.unobservable
        # Stuck cells are masked to zero for the pipeline.
        for direction, row, col in cells:
            assert clean.vco.frames[direction].values[row, col] == 0.0
        # The moment real values flow again the node heals.
        _, h4 = send(400, frozen=False)
        assert h4.stuck == frozenset()

    def test_idle_all_zero_node_is_not_stuck(self, topology):
        sanitizer = WindowSanitizer(
            topology, DegradedModeConfig(stuck_after=2), sample_period=100
        )
        for i in range(6):
            _, health = sanitizer.sanitize(make_sample(topology, 100 * i, fill=0.0))
            assert not health.stuck

    def test_declared_silent_nodes_reported(self, topology):
        from repro.faults.monitor import UNOBSERVABLE_KEY

        sanitizer = WindowSanitizer(topology, sample_period=100)
        sample = make_sample(topology, 100, fill=0.2)
        sample.metadata[UNOBSERVABLE_KEY] = (5, 9)
        _, health = sanitizer.sanitize(sample)
        assert health.declared_silent == frozenset((5, 9))
        assert health.unobservable == frozenset((5, 9))


class FlaggingFence(StubFence):
    """Stub pipeline that always detects and names a fixed node."""

    def __init__(self, node, detect=True):
        super().__init__()
        self.node = node
        self.detect = detect

    def process_sample(self, sample, force_localization=False, detection=None):
        return LocalizationResult(
            cycle=sample.cycle,
            detected=self.detect,
            detection_probability=0.9 if self.detect else 0.1,
            attackers=[self.node] if self.detect else [],
        )


def guarded_run(fence, scenario=None, windows=8, period=100, policy=None, rows=4):
    """A real monitor stream (idle simulator) through a guard, with faults."""
    simulator = NoCSimulator(SimulationConfig(rows=rows, warmup_cycles=0))
    guard = DL2FenceGuard(
        fence, policy or MitigationPolicy.quarantine(engage_after=2)
    )
    monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=period)).attach(
        simulator
    )
    if scenario is not None:
        monitor.set_fault_plane(scenario.build_plane(simulator.topology, seed=3))
    guard.attach(simulator, monitor=monitor)
    simulator.run(windows * period)
    return guard


class TestGuardFaultInvariants:
    def test_unobservable_node_is_never_engaged(self):
        topology = MeshTopology(rows=4, columns=4)
        silent = topology.node_id(2, 2)
        scenario = FaultScenario(
            name="silent", monitor_faults=(SilentMonitorFault(node=silent),)
        )
        guard = guarded_run(FlaggingFence(silent), scenario=scenario, windows=10)
        assert guard.engaged_nodes == []
        assert all(
            silent in window.unobservable for window in guard.report.windows
        )

    def test_observable_node_engages_under_same_fence(self):
        guard = guarded_run(FlaggingFence(5), scenario=None, windows=10)
        assert guard.engaged_nodes == [5]

    def test_silent_elsewhere_does_not_block_real_engagement(self):
        topology = MeshTopology(rows=4, columns=4)
        silent = topology.node_id(2, 2)
        scenario = FaultScenario(
            name="silent", monitor_faults=(SilentMonitorFault(node=silent),)
        )
        guard = guarded_run(FlaggingFence(5), scenario=scenario, windows=10)
        assert guard.engaged_nodes == [5]

    def test_dropped_windows_shrink_the_timeline_but_not_the_loop(self):
        scenario = FaultScenario(
            name="drop",
            monitor_faults=(DroppedWindowFault(probability=0.4, seed=5),),
        )
        guard = guarded_run(FlaggingFence(5), scenario=scenario, windows=24)
        assert 0 < len(guard.report.windows) < 24
        assert guard.engaged_nodes == [5]

    def test_delayed_windows_keep_cycles_monotone(self):
        scenario = FaultScenario(
            name="delay",
            monitor_faults=(DelayedWindowFault(probability=0.5, seed=5),),
        )
        guard = guarded_run(FlaggingFence(5, detect=False), scenario=scenario, windows=24)
        cycles = [window.cycle for window in guard.report.windows]
        assert cycles == sorted(cycles)

    def test_stale_windows_do_not_release(self):
        """A burst of delayed clean windows must not lift a fence."""
        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        policy = MitigationPolicy.quarantine(
            engage_after=1, release_after=2, stale_after=99, reengage_backoff=1.0
        )
        fence = FlaggingFence(5)
        guard = DL2FenceGuard(fence, policy)
        # A monitor that never observes the simulator: windows are hand-fed.
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=100))
        guard.attach(simulator, monitor=monitor)
        topology = simulator.topology
        simulator.run(200)
        guard.on_sample(make_sample(topology, 100), simulator)
        assert guard.engaged_nodes == [5]
        # Clean windows now — but delivered with badly stale capture clocks.
        fence.detect = False
        simulator.run(800)  # simulator.cycle = 1000
        guard.on_sample(make_sample(topology, 200), simulator)
        guard.on_sample(make_sample(topology, 300), simulator)
        guard.on_sample(make_sample(topology, 400), simulator)
        assert guard.engaged_nodes == [5]
        # Stale clean windows do not count toward the clean streak either:
        # the first fresh one is one clean window, not four.
        guard.on_sample(make_sample(topology, 900), simulator)
        assert guard.engaged_nodes == [5]
        # The second fresh clean window completes release_after.
        guard.on_sample(make_sample(topology, 1000), simulator)
        assert guard.engaged_nodes == []

    def test_degraded_off_restores_unsanitized_stream(self):
        topology = MeshTopology(rows=4, columns=4)
        silent = topology.node_id(2, 2)
        scenario = FaultScenario(
            name="silent", monitor_faults=(SilentMonitorFault(node=silent),)
        )
        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        guard = DL2FenceGuard(
            FlaggingFence(silent),
            MitigationPolicy.quarantine(engage_after=2),
            degraded=False,
        )
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=100)).attach(
            simulator
        )
        monitor.set_fault_plane(scenario.build_plane(topology, seed=3))
        guard.attach(simulator, monitor=monitor)
        simulator.run(800)
        # Without degraded mode the silent node is fenced on naming alone —
        # exactly the failure mode degraded mode exists to prevent.
        assert guard.engaged_nodes == [silent]
