"""Unit tests for the defense report metrics and rendering."""

import math

import pytest

from repro.defense.policy import MitigationPolicy
from repro.defense.guard import GuardEvent
from repro.defense.report import (
    COUNTED_EVENTS,
    DefenseEvent,
    DefenseReport,
    WindowRecord,
    tally,
)


def make_report(**kwargs):
    return DefenseReport(
        policy=MitigationPolicy.throttle(0.1), sample_period=100, **kwargs
    )


def window(index, phase, latency, delivered, detected=False, restricted=()):
    return WindowRecord(
        index=index,
        cycle=100 * (index + 1),
        detected=detected,
        probability=0.9 if detected else 0.1,
        phase=phase,
        restricted=tuple(restricted),
        benign_latency=latency,
        benign_delivered=delivered,
    )


class TestPhaseLatency:
    def test_weighted_by_delivered_packets(self):
        report = make_report()
        report.windows = [
            window(0, "mitigated", 10.0, 1),
            window(1, "mitigated", 20.0, 3),
        ]
        assert report.phase_latency("mitigated") == pytest.approx(17.5)

    def test_skip_drops_settle_windows(self):
        report = make_report()
        report.windows = [
            window(0, "mitigated", 100.0, 5),
            window(1, "mitigated", 10.0, 5),
        ]
        assert report.post_mitigation_latency(skip=1) == pytest.approx(10.0)

    def test_post_mitigation_bounded_at_attack_end(self):
        """Engaged windows after the attack ended must not pad the metric."""
        report = make_report(attack_end=300)
        report.windows = [
            window(0, "mitigated", 100.0, 5),  # settle window, skipped
            window(1, "mitigated", 20.0, 5),   # cycle 200: during attack
            window(2, "mitigated", 20.0, 5),   # cycle 300: during attack
            window(3, "mitigated", 5.0, 50),   # cycle 400: attack over
        ]
        assert report.post_mitigation_latency(skip=1) == pytest.approx(20.0)

    def test_empty_phase_is_nan(self):
        report = make_report()
        assert math.isnan(report.phase_latency("attack"))

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            make_report().phase_latency("recovering")

    def test_windows_without_deliveries_ignored(self):
        report = make_report()
        report.windows = [
            window(0, "attack", math.nan, 0),
            window(1, "attack", 12.0, 2),
        ]
        assert report.phase_latency("attack") == pytest.approx(12.0)


class TestPreAttackLatency:
    def test_excludes_benign_windows_after_detection(self):
        """Post-release 'benign' windows may still drain attack backlog."""
        report = make_report()
        report.events = [DefenseEvent(cycle=300, kind="detected")]
        report.windows = [
            window(0, "benign", 10.0, 5),
            window(1, "benign", 10.0, 5),
            window(2, "attack", 50.0, 5, detected=True),
            window(3, "benign", 90.0, 5),  # after release: excluded
        ]
        assert report.pre_attack_latency() == pytest.approx(10.0)

    def test_uses_all_benign_windows_when_never_detected(self):
        report = make_report()
        report.windows = [
            window(0, "benign", 10.0, 5),
            window(1, "benign", 20.0, 5),
        ]
        assert report.pre_attack_latency() == pytest.approx(15.0)

    def test_undetected_attack_windows_excluded_via_attack_start(self):
        """Ground-truth attack_start bounds the baseline even if the
        detector misses the first attack windows."""
        report = make_report(attack_start=150)
        report.windows = [
            window(0, "benign", 10.0, 5),  # cycle 100: truly pre-attack
            window(1, "benign", 60.0, 5),  # cycle 200: missed attack window
        ]
        assert report.pre_attack_latency() == pytest.approx(10.0)


class TestHeadlineMetrics:
    def make_engaged_report(self):
        report = make_report(attack_start=250, true_attackers=(5,))
        report.events = [
            DefenseEvent(cycle=300, kind="detected"),
            DefenseEvent(cycle=400, kind="engaged", nodes=(5, 9)),
            DefenseEvent(cycle=600, kind="rolled_back", nodes=(9,)),
            DefenseEvent(cycle=900, kind="released", nodes=(5,)),
        ]
        report.windows = [
            window(1, "benign", 9.0, 5),
            window(2, "attack", 30.0, 5, detected=True),
            window(3, "mitigated", 10.0, 5, detected=True, restricted=(5, 9)),
            window(4, "mitigated", 10.0, 5, restricted=(5,)),
        ]
        return report

    def test_event_cycles(self):
        report = self.make_engaged_report()
        assert report.first_detection_cycle == 300
        assert report.engagement_cycle == 400
        assert report.release_cycle == 900

    def test_latency_metrics_relative_to_attack_start(self):
        report = self.make_engaged_report()
        assert report.detection_latency == 50
        assert report.time_to_mitigation == 150

    def test_latencies_none_without_attack_start(self):
        report = make_report()
        report.events = [DefenseEvent(cycle=300, kind="detected")]
        assert report.detection_latency is None
        assert report.time_to_mitigation is None

    def test_pre_attack_false_positive_does_not_count_as_detection(self):
        report = make_report(attack_start=500)
        report.windows = [
            window(2, "attack", 20.0, 5, detected=True),  # cycle 300: FP
        ]
        assert report.detection_latency is None
        assert report.time_to_mitigation is None
        report.windows.append(window(6, "attack", 30.0, 5, detected=True))
        assert report.detection_latency == 200

    def test_detection_streak_bridging_attack_start_still_counts(self):
        """A FP streak running into the real attack counts from attack_start."""
        report = make_report(attack_start=250)
        report.windows = [
            window(1, "attack", 15.0, 5, detected=True),  # cycle 200: FP
            window(2, "mitigated", 15.0, 5, detected=True, restricted=(5,)),
        ]
        assert report.detection_latency == 300 - 250
        assert report.time_to_mitigation == 300 - 250

    def test_release_cycle_invalidated_by_reengagement(self):
        report = make_report()
        report.events = [
            DefenseEvent(cycle=400, kind="engaged", nodes=(5,)),
            DefenseEvent(cycle=800, kind="released", nodes=(5,)),
            DefenseEvent(cycle=1000, kind="engaged", nodes=(5,)),
        ]
        assert report.release_cycle is None
        report.events.append(DefenseEvent(cycle=1400, kind="released", nodes=(5,)))
        assert report.release_cycle == 1400

    def test_node_sets(self):
        report = self.make_engaged_report()
        assert report.engaged_nodes == {5, 9}
        assert report.collateral_nodes == {9}
        assert report.collateral_node_windows == 1

    def test_recovery_ratio(self):
        report = self.make_engaged_report()
        assert report.recovery_ratio(baseline_latency=8.0) == pytest.approx(1.25)
        assert math.isnan(report.recovery_ratio(0.0))


class TestPerAttackerMetrics:
    """Multi-attack accounting: per-attacker latencies and containment."""

    def make_multi_report(self):
        report = make_report(attack_start=200, true_attackers=(5, 9))
        report.windows = [
            WindowRecord(index=0, cycle=100, detected=False, probability=0.1,
                         phase="benign"),
            WindowRecord(index=1, cycle=200, detected=True, probability=0.9,
                         phase="attack", attackers=(5,)),
            WindowRecord(index=2, cycle=300, detected=True, probability=0.9,
                         phase="attack", attackers=(5,), restricted=(5,)),
            WindowRecord(index=3, cycle=400, detected=True, probability=0.9,
                         phase="mitigated", attackers=(9,), restricted=(5,)),
            WindowRecord(index=4, cycle=500, detected=True, probability=0.9,
                         phase="mitigated", attackers=(9,), restricted=(5, 9)),
        ]
        report.events = [
            DefenseEvent(cycle=200, kind="detected"),
            DefenseEvent(cycle=300, kind="engaged", nodes=(5,), round=1),
            DefenseEvent(cycle=500, kind="engaged", nodes=(9,), round=2),
        ]
        return report

    def test_per_attacker_detection_latency(self):
        report = self.make_multi_report()
        assert report.per_attacker_detection_latency() == {5: 0, 9: 200}

    def test_per_attacker_time_to_mitigation(self):
        report = self.make_multi_report()
        assert report.per_attacker_time_to_mitigation() == {5: 100, 9: 300}

    def test_containment_requires_all_attackers(self):
        report = self.make_multi_report()
        assert report.containment_cycle == 500
        assert report.time_to_full_containment == 300

    def test_containment_none_until_all_fenced(self):
        report = self.make_multi_report()
        report.windows = report.windows[:4]  # 9 never restricted
        assert report.containment_cycle is None
        assert report.time_to_full_containment is None

    def test_localization_rounds_and_engage_counts(self):
        report = self.make_multi_report()
        assert report.localization_rounds == 2
        assert report.engage_counts() == {5: 1, 9: 1}
        assert report.reengagements == 0
        report.events.append(DefenseEvent(cycle=600, kind="engaged", nodes=(5,)))
        assert report.reengagements == 1

    def test_unlocalized_attacker_reports_none(self):
        report = self.make_multi_report()
        report.true_attackers = (5, 9, 31)
        latencies = report.per_attacker_detection_latency()
        assert latencies[31] is None


class TestAsDict:
    def test_round_trips_all_sections(self):
        report = TestPerAttackerMetrics().make_multi_report()
        data = report.as_dict()
        assert set(data) >= {
            "policy", "windows", "events", "summary",
            "per_attacker_detection_latency", "per_attacker_time_to_mitigation",
        }
        assert data["policy"]["reengage_backoff"] == report.policy.reengage_backoff
        assert len(data["windows"]) == len(report.windows)
        assert data["events"][1]["round"] == 1
        assert data["per_attacker_detection_latency"] == {"5": 0, "9": 200}

    def test_nan_scrubbed_for_equality(self):
        """Two identical reports must compare equal — NaN would break that."""
        a = TestPerAttackerMetrics().make_multi_report()
        b = TestPerAttackerMetrics().make_multi_report()
        assert a.as_dict() == b.as_dict()
        flat = repr(a.as_dict())
        assert "nan" not in flat


class TestRendering:
    def test_summary_keys(self):
        summary = make_report().summary()
        assert {
            "policy",
            "detection_latency",
            "time_to_mitigation",
            "post_mitigation_latency",
            "collateral_nodes",
        } <= set(summary)

    def test_timeline_lists_windows_and_events(self):
        report = make_report()
        report.windows = [window(0, "benign", 9.5, 3)]
        report.events = [DefenseEvent(cycle=100, kind="detected", detail="p=0.97")]
        text = report.format_timeline()
        assert "benign" in text
        assert "9.5" in text
        assert "detected" in text
        assert "p=0.97" in text


class TestEventCounts:
    def test_defaults_empty(self):
        report = make_report()
        assert report.event_counts == {}
        assert report.as_dict()["event_counts"] == {}

    def test_as_dict_sorts_keys(self):
        report = make_report()
        report.event_counts = {"releases": 1, "engagements": 2}
        assert list(report.as_dict()["event_counts"]) == ["engagements", "releases"]

    def test_payload_round_trip(self):
        report = make_report()
        report.event_counts = {"engagements": 2, "convictions": 1}
        rebuilt = DefenseReport.from_payload(report.to_payload())
        assert rebuilt.event_counts == {"engagements": 2, "convictions": 1}


class TestTally:
    """The one counting rule the report and ``trace_counts`` share."""

    @pytest.mark.parametrize(
        "kind, counter",
        [
            ("engaged", "engagements"),
            ("rolled_back", "releases"),
            ("convicted", "convictions"),
            ("detour_discount", "detour_discounts"),
        ],
    )
    def test_counted_kinds_add_their_node_total(self, kind, counter):
        assert tally(kind, {"nodes": [3, 7, 9]}) == (counter, 3)

    def test_window_sanitized_adds_imputed_cells(self):
        fields = {"imputed_cells": 5, "declared_silent": [1, 2]}
        assert tally("window_sanitized", fields) == ("clamps", 5)

    def test_released_probe_counts_and_marker_does_not(self):
        probe = {"nodes": [4], "clean_windows": 6}
        marker = {"nodes": [4, 8]}
        assert tally("released", probe) == ("releases", 1)
        assert tally("released", marker) is None

    @pytest.mark.parametrize("kind", ["detected", "conviction_lapsed", "window"])
    def test_uncounted_kinds(self, kind):
        assert tally(kind, {"nodes": [1, 2]}) is None


class TestFold:
    """Folding a window's stream, as the guard's reports start: every counter at 0."""

    @staticmethod
    def counts(**nonzero):
        return {**dict.fromkeys(COUNTED_EVENTS.values(), 0), **nonzero}

    def make_report(self):
        return make_report(event_counts=self.counts())

    def test_decisions_join_the_event_log(self):
        report = self.make_report()
        report.fold(
            500,
            GuardEvent("engaged", {"nodes": [3, 9], "round": 2}, detail="throttle"),
        )
        report.fold(600, GuardEvent("released", {"nodes": [3, 9]}))
        assert report.events == [
            DefenseEvent(500, "engaged", (3, 9), "throttle", 2),
            DefenseEvent(600, "released", (3, 9), "", 0),
        ]
        # The full-rollback marker restates nodes and adds no count.
        assert report.event_counts == self.counts(engagements=2)

    def test_window_event_appends_its_record(self):
        report = self.make_report()
        record = window(0, "benign", 10.0, 4)
        report.fold(100, GuardEvent("window", record=record))
        assert report.windows == [record]
        assert report.events == [] and report.event_counts == self.counts()

    def test_trace_only_kinds_count_without_joining_the_log(self):
        report = self.make_report()
        report.fold(100, GuardEvent("window_sanitized", {"imputed_cells": 3}))
        report.fold(100, GuardEvent("detour_discount", {"nodes": [5]}))
        report.fold(100, GuardEvent("conviction_lapsed", {"nodes": [5]}))
        assert report.events == []
        assert report.event_counts == self.counts(clamps=3, detour_discounts=1)
