"""Per-episode caching of the mitigation sweep (ROADMAP follow-up).

The whole-sweep record was already memoised; these tests pin the finer
granularity: every (FIR, policy) episode and every unmitigated comparator is
cached individually, so extending a sweep only simulates the new episodes,
and a cached episode reproduces its MitigationPoint bit for bit.
"""

import math

from repro.attacks import default_attack
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseEvent, DefenseReport, WindowRecord
from repro.experiments import ExperimentConfig
from repro.experiments.mitigation import run_mitigation_sweep
from repro.experiments.robustness import EpisodeSpec, run_episodes
from repro.noc import shared_draws
from repro.obs.bus import RingBufferSink, trace_session
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import ExperimentEngine
from repro.runtime.parallel import ParallelRunner

QUICK = ExperimentConfig.quick()
POLICY = MitigationPolicy.quarantine(engage_after=1)


def _engine(tmp_path) -> ExperimentEngine:
    return ExperimentEngine(
        cache=ArtifactCache(root=tmp_path / "cache", enabled=True),
        runner=ParallelRunner(workers=1),
    )


def _episode(engine: ExperimentEngine, traced: bool) -> DefenseReport:
    """One guarded pulsed-flood episode, through the per-episode cache."""
    topology = QUICK.dataset_config().topology()
    spec = EpisodeSpec(
        experiment=QUICK,
        attacks=(default_attack("pulsed", topology, QUICK.sample_period),),
        policy=POLICY,
    )
    if not traced:
        return run_episodes([spec], engine)[0]
    with trace_session(RingBufferSink()):
        return run_episodes([spec], engine)[0]


class TestDefenseReportPayload:
    def test_round_trip_preserves_everything(self):
        report = DefenseReport(
            policy=MitigationPolicy.throttle(0.2, engage_after=3, flush_queue=True),
            sample_period=100,
            attack_start=200,
            attack_end=900,
            true_attackers=(5, 9),
            windows=[
                WindowRecord(
                    index=0,
                    cycle=100,
                    detected=False,
                    probability=0.12,
                    phase="benign",
                    benign_latency=math.nan,
                ),
                WindowRecord(
                    index=1,
                    cycle=200,
                    detected=True,
                    probability=0.97,
                    phase="attack",
                    victims=(1, 2),
                    attackers=(5,),
                    restricted=(5,),
                    benign_latency=14.5,
                    benign_delivered=7,
                    malicious_delivered=3,
                ),
            ],
            events=[
                DefenseEvent(cycle=200, kind="detected", detail="p=0.97"),
                DefenseEvent(cycle=200, kind="engaged", nodes=(5,), round=1),
            ],
        )
        rebuilt = DefenseReport.from_payload(report.to_payload())
        assert rebuilt.policy == report.policy
        assert rebuilt.windows == report.windows
        assert rebuilt.events == report.events
        assert rebuilt.as_dict() == report.as_dict()


class TestPerEpisodeCache:
    def test_extending_firs_reuses_cached_episodes(self, tmp_path):
        """Changing the FIR set must not re-run the overlapping episodes."""
        engine = _engine(tmp_path)
        first = run_mitigation_sweep(
            firs=(0.8,),
            rows_values=(QUICK.rows,),
            policies=(POLICY,),
            config=QUICK,
            engine=engine,
        )
        stores_after_first = engine.cache.stats.stores
        assert stores_after_first > 0

        # A different sweep shape misses the whole-sweep record but must hit
        # the per-episode entries for the shared FIR.
        second_engine = _engine(tmp_path)
        second = run_mitigation_sweep(
            firs=(0.8, 0.4),
            rows_values=(QUICK.rows,),
            policies=(POLICY,),
            config=QUICK,
            engine=second_engine,
        )
        assert second_engine.cache.stats.hits > 0
        shared_first = [p for p in first if p.fir == 0.8]
        shared_second = [p for p in second if p.fir == 0.8]
        assert [p.to_payload() for p in shared_first] == [
            p.to_payload() for p in shared_second
        ]

    def test_cached_episode_matches_fresh(self, tmp_path):
        """A cache-served sweep equals the freshly simulated one exactly."""
        warm_engine = _engine(tmp_path)
        fresh = run_mitigation_sweep(
            firs=(0.8,),
            rows_values=(QUICK.rows,),
            policies=(POLICY,),
            config=QUICK,
            engine=warm_engine,
        )
        replay_engine = _engine(tmp_path)
        replayed = run_mitigation_sweep(
            firs=(0.8,),
            rows_values=(QUICK.rows,),
            policies=(POLICY,),
            config=QUICK,
            engine=replay_engine,
        )
        assert [p.to_payload() for p in fresh] == [p.to_payload() for p in replayed]
        assert replay_engine.cache.stats.hits > 0


class TestCachedCountsIgnoreTracing:
    def test_event_counts_do_not_depend_on_who_filled_the_cache(self, tmp_path):
        """The cache key ignores tracing, so the cached report must too.

        One cache is filled by a traced run, the other by an untraced one;
        each is then served to a run with the opposite tracing switch, and
        both must hand back the event counts of the fresh traced run.
        """
        traced_root, untraced_root = tmp_path / "traced", tmp_path / "untraced"
        fresh = _episode(_engine(traced_root), traced=True)
        _episode(_engine(untraced_root), traced=False)
        assert fresh.event_counts["engagements"] > 0

        for root, traced in ((traced_root, False), (untraced_root, True)):
            engine = _engine(root)
            served = _episode(engine, traced=traced)
            assert engine.cache.stats.hits > 0
            assert served.event_counts == fresh.event_counts


class TestSharedDrawStreams:
    """Episodes of one ``run_episodes`` call share equal sources' draws."""

    def _specs(self):
        topology = QUICK.dataset_config().topology()
        attacks = (default_attack("pulsed", topology, QUICK.sample_period),)
        return [
            EpisodeSpec(experiment=QUICK, attacks=attacks, policy=POLICY),
            EpisodeSpec(experiment=QUICK, attacks=attacks),
            EpisodeSpec(experiment=QUICK),
        ]

    def _results(self, specs, engine):
        return [
            result.to_payload() if isinstance(result, DefenseReport) else result
            for result in run_episodes(specs, engine)
        ]

    def test_one_call_equals_separate_calls_serial_and_pooled(self, tmp_path):
        specs = self._specs()
        separate = [
            self._results([spec], _engine(tmp_path / f"separate{index}"))[0]
            for index, spec in enumerate(specs)
        ]
        assert shared_draws._SCOPE is None
        together = self._results(specs, _engine(tmp_path / "together"))
        assert shared_draws._SCOPE is None  # nothing carries over
        pooled_engine = ExperimentEngine(
            cache=ArtifactCache(root=tmp_path / "pooled", enabled=True),
            runner=ParallelRunner(workers=2),
        )
        pooled = self._results(specs, pooled_engine)
        assert together == separate
        assert pooled == separate
