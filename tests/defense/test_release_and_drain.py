"""Staggered release probes and drain-aware recovery accounting.

Two post-containment behaviours of the guard:

* releases are probes — clean windows lift **one** fence at a time, least
  re-engaged node first, with ``release_probe_spacing`` clean windows
  between consecutive probes;
* recovery metrics separate fence quality from backlog drain — benign
  deliveries split at the containment epoch into *fresh* (created under the
  fence) and *backlog* (created before it, i.e. attack damage draining).
"""

import math

from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseReport
from repro.monitor.sampler import MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

from tests.defense.fakes import OracleFence, drive
from repro.defense.guard import DL2FenceGuard


def _policy(**overrides):
    overrides.setdefault("engage_after", 1)
    overrides.setdefault("release_after", 2)
    overrides.setdefault("stale_after", 99)
    overrides.setdefault("reengage_backoff", 1.0)
    return MitigationPolicy.quarantine(**overrides)


class TestStaggeredReleaseProbes:
    def test_one_fence_lifts_per_clean_window(self):
        guard = drive(
            [(True, [5, 9]), (False, []), (False, []), (False, [])], _policy()
        )
        released = [e for e in guard.report.events if e.kind == "released"]
        assert [e.nodes for e in released] == [(5,), (9,)]
        assert released[0].cycle < released[1].cycle
        assert "staggered probe" in released[0].detail
        assert guard.engaged_nodes == []

    def test_probe_spacing_delays_the_next_release(self):
        guard = drive(
            [(True, [5, 9])] + [(False, [])] * 5,
            _policy(release_probe_spacing=2),
        )
        released = [e for e in guard.report.events if e.kind == "released"]
        assert [e.nodes for e in released] == [(5,), (9,)]
        # Both became ready at the same window; the second probe waited the
        # configured two windows instead of firing in the very next one.
        assert released[1].cycle - released[0].cycle == 200

    def test_least_reengaged_node_probes_first(self):
        """A repeat offender is the *last* fence lifted, not the first."""
        guard = drive(
            [(True, [9]), (False, []), (False, []), (True, [5, 9])]
            + [(False, [])] * 3,
            _policy(),
        )
        released = [e for e in guard.report.events if e.kind == "released"]
        # First release is node 9's initial engagement; after the joint
        # re-engagement, first-time offender 5 is probed before repeat
        # offender 9.
        assert [e.nodes for e in released] == [(9,), (5,), (9,)]

    def test_no_mass_release_ever(self):
        guard = drive(
            [(True, [3, 5, 9])] + [(False, [])] * 6, _policy()
        )
        released = [e for e in guard.report.events if e.kind == "released"]
        assert len(released) == 3
        assert all(len(event.nodes) == 1 for event in released)


class TestDrainAwareAccounting:
    ROWS = 6
    PERIOD = 128
    WARMUP = 64

    def _run(self, attack_windows=6, post_windows=5):
        simulator = NoCSimulator(
            SimulationConfig(rows=self.ROWS, warmup_cycles=self.WARMUP, seed=3)
        )
        simulator.add_source(
            UniformRandomTraffic(simulator.topology, injection_rate=0.02, seed=42)
        )
        attacker = simulator.topology.node_id(4, 4)
        victim = simulator.topology.node_id(1, 1)
        attack_start = self.WARMUP + 2 * self.PERIOD
        attack_end = attack_start + attack_windows * self.PERIOD
        simulator.add_source(
            AttackScenario(attackers=(attacker,), victim=victim, fir=0.8).build_source(
                simulator.topology,
                seed=43,
                start_cycle=attack_start,
                end_cycle=attack_end,
            )
        )
        guard = DL2FenceGuard(
            OracleFence([attacker], rows=self.ROWS),
            MitigationPolicy.quarantine(
                engage_after=2, release_after=3, stale_after=99, flush_queue=True
            ),
            attack_start=attack_start,
            true_attackers=(attacker,),
        )
        guard.attach(
            simulator, monitor_config=MonitorConfig(sample_period=self.PERIOD)
        )
        windows = 2 + attack_windows + post_windows
        simulator.run(self.WARMUP + windows * self.PERIOD + 1)
        return guard.report

    def test_fresh_backlog_split_is_consistent(self):
        report = self._run()
        engagement = report.engagement_cycle
        assert engagement is not None
        for window in report.windows:
            assert (
                window.benign_fresh_delivered + window.benign_backlog_delivered
                == window.benign_delivered
            )
            if window.cycle <= engagement:
                # Before containment everything counts as fresh.
                assert window.benign_backlog_delivered == 0

    def test_backlog_drains_after_containment(self):
        report = self._run()
        assert report.backlog_drained > 0
        # The drained backlog shows up only in post-engagement windows.
        drained = [
            w for w in report.windows if w.benign_backlog_delivered > 0
        ]
        assert drained
        assert all(w.cycle > report.engagement_cycle for w in drained)

    def test_fresh_latency_separates_fence_quality_from_drain(self):
        report = self._run()
        plain = report.post_mitigation_latency()
        fresh = report.post_mitigation_fresh_latency()
        assert not math.isnan(plain) and not math.isnan(fresh)
        # Backlog packets carry attack-era queueing, so excluding them can
        # only lower (or preserve) the measured post-mitigation latency.
        assert fresh <= plain * 1.01
        baseline = report.pre_attack_latency()
        assert report.fresh_recovery_ratio(baseline) <= (
            report.recovery_ratio(baseline) * 1.01
        )

    def test_epoch_clears_once_everything_is_released(self):
        report = self._run(post_windows=8)
        release = report.release_cycle
        assert release is not None
        after = [
            w for w in report.windows if w.cycle > release and not w.restricted
        ]
        assert after
        assert all(w.benign_backlog_delivered == 0 for w in after)

    def test_drain_fields_round_trip_through_payload(self):
        report = self._run()
        restored = DefenseReport.from_payload(report.as_dict())
        assert restored.backlog_drained == report.backlog_drained
        assert restored.summary()["backlog_drained"] == (
            report.summary()["backlog_drained"]
        )
        left = restored.post_mitigation_fresh_latency()
        right = report.post_mitigation_fresh_latency()
        assert (math.isnan(left) and math.isnan(right)) or left == right
        assert report.as_dict()["policy"]["release_probe_spacing"] == 1
