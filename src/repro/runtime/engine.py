"""The shared experiment engine: cached datasets, cached models, parallel fan-out.

Every experiment driver (tables, figures, sweeps, benches) routes its two
expensive stages through this module:

* **Scenario runs** — the simulated monitor output a dataset is assembled
  from.  :class:`~repro.monitor.dataset.DatasetBuilder` owns the run plan
  and the simulation; :meth:`ExperimentEngine.build_runs` only caches each
  planned :class:`RunTask` on disk and fans the missing ones out, in the
  builder's episode-batch chunks, across the
  :class:`~repro.runtime.parallel.ParallelRunner`.
* **Trained pipelines** — :meth:`ExperimentEngine.trained_fence` /
  :meth:`ExperimentEngine.trained_detector` return models loaded from the
  cache when the full training configuration (dataset + architecture +
  epochs + NN dtype) has been seen before; a figure re-run or a second sweep
  at the same mesh scale never retrains.
* **Sweep records** — :meth:`ExperimentEngine.cached_records` memoises a
  list-of-dicts sweep result (latency points, mitigation points, table rows)
  as JSON.

Cached artifacts round-trip by value: a loaded scenario run compares equal,
frame for frame, with a freshly simulated one, and a loaded model produces
bit-identical decisions — property-tested in ``tests/runtime``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.config import DL2FenceConfig
from repro.core.detector import DoSDetector
from repro.core.localizer import DoSProfileLocalizer
from repro.core.pipeline import DL2Fence
from repro.monitor.dataset import DatasetBuilder, DatasetConfig, RunTask, ScenarioRun
from repro.monitor.features import FeatureKind
from repro.monitor.frames import DirectionalFrame, FrameSample, FrameSet
from repro.noc.topology import Direction, MeshTopology
from repro.nn.dtype import default_dtype
from repro.runtime.cache import ArtifactCache
from repro.runtime.parallel import ParallelRunner
from repro.traffic.scenario import AttackScenario, benchmark_names

__all__ = ["ExperimentEngine", "RunTask", "fence_cache_payload"]


def _scenario_to_json(scenario: AttackScenario | None) -> dict | None:
    if scenario is None:
        return None
    return {
        "attackers": list(scenario.attackers),
        "victim": scenario.victim,
        "fir": scenario.fir,
        "benchmark": scenario.benchmark,
    }


def _scenario_from_json(data: dict | None) -> AttackScenario | None:
    if data is None:
        return None
    return AttackScenario(
        attackers=tuple(int(a) for a in data["attackers"]),
        victim=int(data["victim"]),
        fir=float(data["fir"]),
        benchmark=str(data["benchmark"]),
    )


@dataclass
class ArrayBundle:
    """Scenario runs as JSON-able ``meta`` plus named frame tensors."""

    meta: Any
    arrays: dict[str, np.ndarray]


def _runs_to_bundle(runs: list[ScenarioRun]) -> ArrayBundle:
    """Split scenario runs into JSON-able metadata + stacked frame tensors.

    Run ``i``'s frames of one feature and direction stack (samples first)
    into the array ``r{i}_{feature}_{direction}``.  The one layout of both
    the disk cache (``runs.json`` + ``runs.npz``) and a worker's result,
    which travels back through the pool's pickle pipe as a few large arrays
    rather than thousands of small frame objects.
    """
    meta = []
    arrays: dict[str, np.ndarray] = {}
    for r_index, run in enumerate(runs):
        meta.append(
            {
                "benchmark": run.benchmark,
                "scenario": _scenario_to_json(run.scenario),
                "rows": run.topology.rows,
                "cycles": [sample.cycle for sample in run.samples],
                "attack_active": [bool(sample.attack_active) for sample in run.samples],
            }
        )
        if not run.samples:
            continue
        for kind in FeatureKind:
            for direction in Direction.cardinal():
                frames = [s.feature(kind).frames[direction].values for s in run.samples]
                arrays[f"r{r_index}_{kind.value}_{direction.value}"] = np.stack(frames)
    return ArrayBundle(meta=meta, arrays=arrays)


def _runs_from_bundle(bundle: ArrayBundle) -> list[ScenarioRun]:
    """Inverse of :func:`_runs_to_bundle`."""
    runs = []
    for r_index, meta in enumerate(bundle.meta):
        samples = []
        for index, cycle in enumerate(meta["cycles"]):
            cycle = int(cycle)
            frame_sets = {}
            for kind in FeatureKind:
                frames = {}
                for direction in Direction.cardinal():
                    key = f"r{r_index}_{kind.value}_{direction.value}"
                    frames[direction] = DirectionalFrame(
                        direction=direction,
                        kind=kind,
                        values=bundle.arrays[key][index],
                        cycle=cycle,
                    )
                frame_sets[kind] = FrameSet(kind=kind, frames=frames, cycle=cycle)
            samples.append(
                FrameSample(
                    cycle=cycle,
                    vco=frame_sets[FeatureKind.VCO],
                    boc=frame_sets[FeatureKind.BOC],
                    attack_active=bool(meta["attack_active"][index]),
                )
            )
        runs.append(
            ScenarioRun(
                benchmark=str(meta["benchmark"]),
                scenario=_scenario_from_json(meta["scenario"]),
                samples=samples,
                topology=MeshTopology(rows=int(meta["rows"])),
            )
        )
    return runs


def _simulate_chunk(tasks: list[RunTask]) -> ArrayBundle:
    """Worker entry point: simulate one chunk, hand its frames over as tensors."""
    return _runs_to_bundle(DatasetBuilder(tasks[0].config).simulate(tasks))


def fence_cache_payload(
    config: DatasetConfig,
    fence_config: DL2FenceConfig,
    benchmarks: list[str],
    scenarios_per_benchmark: int,
    attacker_counts: tuple[int, ...],
    seed: int,
    detector_epochs: int,
    localizer_epochs: int,
) -> dict:
    """The full training configuration identifying a trained fence.

    Shared between :meth:`ExperimentEngine.trained_fence` (its cache key)
    and dependent per-episode caches (e.g. the mitigation sweep's), so an
    episode entry is reused exactly when the pipeline that defended it is
    the same — by construction, not by keeping two literals in sync.
    """
    return {
        "config": config,
        "fence": fence_config,
        "benchmarks": list(benchmarks),
        "scenarios_per_benchmark": scenarios_per_benchmark,
        "attacker_counts": tuple(attacker_counts),
        "seed": seed,
        "detector_epochs": detector_epochs,
        "localizer_epochs": localizer_epochs,
        "dtype": default_dtype(),
    }


# -- the engine ---------------------------------------------------------------


@dataclass
class ExperimentEngine:
    """Cache + parallel executor shared by every experiment entry point.

    ``ExperimentEngine()`` honours REPRO_CACHE[_DIR] and REPRO_WORKERS.
    """

    cache: ArtifactCache = field(default_factory=ArtifactCache)
    runner: ParallelRunner = field(default_factory=ParallelRunner)

    @classmethod
    def disabled(cls) -> "ExperimentEngine":
        """No caching, serial execution — the legacy behaviour."""
        return cls(cache=ArtifactCache.disabled(), runner=ParallelRunner(workers=1))

    # -- datasets -----------------------------------------------------------
    def build_runs(
        self,
        config: DatasetConfig,
        benchmarks: list[str] | None = None,
        scenarios_per_benchmark: int = 1,
        attacker_counts: tuple[int, ...] = (1, 2),
        include_benign: bool = True,
        seed: int | None = None,
    ) -> list[ScenarioRun]:
        """``DatasetBuilder(config).build_runs(...)``, cached per task.

        The builder plans the runs (:meth:`DatasetBuilder.plan_runs`); each
        :class:`RunTask` (config + benchmark + scenario + seed) is its own
        cache entry.  Overlapping run lists therefore share entries: Tables
        1-3 and the Table-4 comparison draw identical scenarios for their
        common benchmarks, so only the first caller simulates them.  Only
        the missing tasks are simulated (:meth:`_simulate_missing`).
        """
        builder = DatasetBuilder(config)
        tasks = builder.plan_runs(
            benchmarks, scenarios_per_benchmark, attacker_counts, include_benign, seed
        )

        def save(run: ScenarioRun, directory: Path) -> None:
            bundle = _runs_to_bundle([run])
            (directory / "runs.json").write_text(json.dumps(bundle.meta))
            np.savez(directory / "runs.npz", **bundle.arrays)

        def load(directory: Path) -> ScenarioRun:
            with np.load(directory / "runs.npz") as archive:
                arrays = {name: archive[name] for name in archive.files}
            meta = json.loads((directory / "runs.json").read_text())
            (run,) = _runs_from_bundle(ArrayBundle(meta=meta, arrays=arrays))
            return run

        runs: list[ScenarioRun | None] = [
            self.cache.fetch("scenario-run", task, load) for task in tasks
        ]
        missing = [index for index, run in enumerate(runs) if run is None]
        fresh = self._simulate_missing(builder, [tasks[index] for index in missing])
        for index, run in zip(missing, fresh):
            runs[index] = run
            self.cache.store(
                "scenario-run", tasks[index], lambda d, run=run: save(run, d)
            )
        return runs

    def _simulate_missing(
        self, builder: DatasetBuilder, pending: list[RunTask]
    ) -> list[ScenarioRun]:
        """Simulate the uncached tasks in the builder's chunks.

        :meth:`DatasetBuilder.chunk` groups them (episode batches under the
        ``soa`` backend).  A serial runner simulates the chunks in process;
        a parallel one fans them out across its workers, each chunk's frames
        coming back as one :class:`ArrayBundle` (process parallelism
        multiplying on top of the batch axis).
        """
        chunks = builder.chunk(pending)
        if self.runner.is_serial or len(chunks) <= 1:
            return [run for chunk in chunks for run in builder.simulate(chunk)]
        return [
            run
            for bundle in self.runner.map(_simulate_chunk, chunks)
            for run in _runs_from_bundle(bundle)
        ]

    # -- trained models -----------------------------------------------------
    def trained_fence(
        self,
        config: DatasetConfig,
        fence_config: DL2FenceConfig,
        benchmarks: list[str] | None = None,
        scenarios_per_benchmark: int = 1,
        seed: int | None = None,
        detector_epochs: int = 60,
        localizer_epochs: int = 80,
        attacker_counts: tuple[int, ...] = (1, 2),
    ) -> tuple[DL2Fence, DatasetBuilder]:
        """A trained DL2Fence pipeline, loaded from cache when available."""
        seed = config.seed if seed is None else seed
        if benchmarks is None:
            benchmarks = benchmark_names()
        builder = DatasetBuilder(config)
        payload = fence_cache_payload(
            config,
            fence_config,
            list(benchmarks),
            scenarios_per_benchmark,
            tuple(attacker_counts),
            seed,
            detector_epochs,
            localizer_epochs,
        )

        def build() -> DL2Fence:
            runs = self.build_runs(
                config,
                benchmarks=list(benchmarks),
                scenarios_per_benchmark=scenarios_per_benchmark,
                attacker_counts=tuple(attacker_counts),
                seed=seed,
            )
            fence = DL2Fence(builder.topology, fence_config)
            fence.fit_from_runs(
                builder,
                runs,
                detector_epochs=detector_epochs,
                localizer_epochs=localizer_epochs,
            )
            return fence

        def save(fence: DL2Fence, directory: Path) -> None:
            fence.detector.save(directory / "detector.npz")
            fence.localizer.save(directory / "localizer.npz")

        def load(directory: Path) -> DL2Fence:
            detector = DoSDetector.load(directory / "detector.npz", config=fence_config)
            localizer = DoSProfileLocalizer.load(
                directory / "localizer.npz", config=fence_config
            )
            return DL2Fence(
                builder.topology, fence_config, detector=detector, localizer=localizer
            )

        fence = self.cache.get_or_build("trained-fence", payload, build, save, load)
        return fence, builder

    def trained_detector(
        self,
        config: DatasetConfig,
        fence_config: DL2FenceConfig,
        benchmarks: list[str],
        scenarios_per_benchmark: int,
        seed: int,
        feature: FeatureKind,
        epochs: int,
        runs: list[ScenarioRun] | None = None,
    ) -> DoSDetector:
        """A standalone trained detector (Table-4 comparison), cached.

        ``runs`` may carry already-built scenario runs for the *same*
        configuration so the no-cache path does not re-simulate them; they
        are only consulted on a cache miss and do not enter the key.
        """
        payload = {
            "config": config,
            "fence": fence_config,
            "benchmarks": list(benchmarks),
            "scenarios_per_benchmark": scenarios_per_benchmark,
            "seed": seed,
            "feature": feature,
            "epochs": epochs,
            "dtype": default_dtype(),
        }

        def build() -> DoSDetector:
            builder = DatasetBuilder(config)
            train_runs = runs if runs is not None else self.build_runs(
                config,
                benchmarks=list(benchmarks),
                scenarios_per_benchmark=scenarios_per_benchmark,
                seed=seed,
            )
            train_set = builder.detection_dataset(train_runs, feature=feature)
            detector = DoSDetector(train_set.inputs.shape[1:], config=fence_config)
            detector.fit(train_set, epochs=epochs)
            return detector

        def save(detector: DoSDetector, directory: Path) -> None:
            detector.save(directory / "detector.npz")

        def load(directory: Path) -> DoSDetector:
            return DoSDetector.load(directory / "detector.npz", config=fence_config)

        return self.cache.get_or_build(
            "trained-detector", payload, build, save, load
        )

    # -- generic sweep records ----------------------------------------------
    def cached_records(
        self,
        kind: str,
        payload: Any,
        build: Callable[[], list[dict]],
    ) -> list[dict]:
        """Memoise a list-of-dicts sweep result as a JSON artifact."""

        def save(records: list[dict], directory: Path) -> None:
            (directory / "records.json").write_text(json.dumps(records))

        def load(directory: Path) -> list[dict]:
            return json.loads((directory / "records.json").read_text())

        return self.cache.get_or_build(kind, payload, build, save, load)
