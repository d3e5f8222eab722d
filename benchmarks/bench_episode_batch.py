"""Episode-batched SoA simulation: dispatch-amortization win, recorded.

PR 4's BENCH trajectory showed the remaining 16x16 cost is numpy per-call
dispatch (~85 kernel ops per cycle); the batched backend amortizes that
fixed cost by advancing N independent meshes per kernel call
(:class:`repro.noc.soa_batch.BatchedSoAMeshNetwork`).  This benchmark
measures a 16-episode 16x16 batch against 16 sequential solo SoA runs on
three scenarios:

``attack_sweep``
    Flooding attackers only (FIR 0.8) — the attack-characterization runs
    of the Figure 1 sweep.  Tiny per-cycle candidate sets, so fixed
    dispatch dominates and the amortization win shows purest.
``dataset_benign`` / ``dataset_flood``
    The training-set generator's operating points (benign injection rate
    0.02, flood FIR 0.8 on top): per-episode RNG draws and per-element
    kernel work are shared by both sides, bounding the ratio lower.

Every scenario asserts per-episode delivered-packet equality between the
sequential and batched runs — the wall-clock numbers are only comparable
because the two paths simulate identical traffic.  Results land in
``benchmarks/results/episode_batch.{txt,json}``.
"""

import os
import time

from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic

from bench_utils import run_once, write_json_result, write_result

ROWS = 16
EPISODES = int(os.environ.get("REPRO_EPISODE_BATCH", "") or 16)
CYCLES = 512
SAMPLE_PERIOD = 64
BASE_SEED = 1234
REPEATS = 3

#: (name, benign injection rate, flood FIR) — rate/fir of 0 disables the source.
SCENARIOS = (
    ("attack_sweep", 0.0, 0.8),
    ("dataset_benign", 0.02, 0.0),
    ("dataset_flood", 0.02, 0.8),
)


def _wire(sim, benign_rate: float, fir: float, seed: int) -> None:
    topology = sim.topology
    if benign_rate > 0.0:
        sim.add_source(
            UniformRandomTraffic(topology, injection_rate=benign_rate, seed=seed + 1)
        )
    if fir > 0.0:
        last = ROWS * ROWS - 1
        sim.add_source(
            AttackScenario(attackers=(last, 3), victim=1, fir=fir).build_source(
                topology,
                seed=seed + 2,
            )
        )
    GlobalPerformanceMonitor(MonitorConfig(sample_period=SAMPLE_PERIOD)).attach(sim)


def _sequential(benign_rate: float, fir: float) -> tuple[float, list[int]]:
    delivered = []
    start = time.perf_counter()
    for ep in range(EPISODES):
        sim = NoCSimulator(
            SimulationConfig(rows=ROWS, warmup_cycles=16, backend="soa")
        )
        _wire(sim, benign_rate, fir, BASE_SEED + ep)
        sim.run(CYCLES)
        delivered.append(sim.network.stats.packets_delivered)
    return time.perf_counter() - start, delivered


def _batched(benign_rate: float, fir: float) -> tuple[float, list[int]]:
    start = time.perf_counter()
    batch = BatchedNoCSimulator(
        SimulationConfig(rows=ROWS, warmup_cycles=16, backend="soa"),
        episodes=EPISODES,
    )
    for ep in range(EPISODES):
        _wire(batch.lane(ep), benign_rate, fir, BASE_SEED + ep)
    batch.run(CYCLES)
    delivered = [
        batch.lane(ep).stats.packets_delivered for ep in range(EPISODES)
    ]
    return time.perf_counter() - start, delivered


def _measure() -> dict:
    scenarios = {}
    for name, benign_rate, fir in SCENARIOS:
        seq_best = bat_best = None
        for _ in range(REPEATS):
            t_seq, d_seq = _sequential(benign_rate, fir)
            t_bat, d_bat = _batched(benign_rate, fir)
            assert d_seq == d_bat, (
                f"{name}: batched per-episode delivered diverged from solo"
            )
            seq_best = t_seq if seq_best is None else min(seq_best, t_seq)
            bat_best = t_bat if bat_best is None else min(bat_best, t_bat)
        scenarios[name] = {
            "benign_rate": benign_rate,
            "fir": fir,
            "sequential_seconds": seq_best,
            "batched_seconds": bat_best,
            "speedup": seq_best / bat_best,
        }
    return scenarios


def test_episode_batch(benchmark):
    scenarios = run_once(benchmark, _measure)

    lines = [
        f"{EPISODES}-episode {ROWS}x{ROWS} batch vs {EPISODES} sequential "
        f"solo SoA runs ({CYCLES} cycles, best of {REPEATS})"
    ]
    for name, row in scenarios.items():
        lines.append(
            f"{name:16s} rate={row['benign_rate']:<5g} fir={row['fir']:<4g} "
            f"sequential {row['sequential_seconds']:6.3f}s  "
            f"batched {row['batched_seconds']:6.3f}s  "
            f"speedup {row['speedup']:5.2f}x"
        )
    write_result("episode_batch", "\n".join(lines))
    write_json_result(
        "episode_batch",
        {
            "rows": ROWS,
            "episodes": EPISODES,
            "cycles": CYCLES,
            "repeats": REPEATS,
            "scenarios": scenarios,
        },
    )

    # The per-episode results are identical (asserted per repeat); batching
    # only amortizes dispatch, so the batch must never be slower than the
    # sequential runs, and the dispatch-dominated attack sweep must show a
    # substantial amortization win.
    for name, row in scenarios.items():
        assert row["speedup"] > 1.0, f"{name}: batching slower than sequential"
    assert scenarios["attack_sweep"]["speedup"] > 2.0
