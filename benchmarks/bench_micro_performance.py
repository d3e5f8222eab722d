"""Micro-benchmarks of the substrate components (true pytest-benchmark timing).

These are not paper artefacts; they track the cost of the building blocks the
table/figure benches are built from (simulator cycles, frame extraction, CNN
inference/training steps), which is what determines how far the experiment
scale can be pushed.
"""

import time

import numpy as np
import pytest

from bench_utils import write_json_result, write_result

from repro.core.detector import build_detector_model
from repro.core.localizer import DoSProfileLocalizer, build_localizer_model
from repro.monitor.features import (
    FeatureKind,
    extract_feature_frame,
    extract_feature_frames,
)
from repro.noc.network import MeshNetwork
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import Direction, MeshTopology
from repro.traffic.scenario import AttackScenario
from repro.traffic.synthetic import UniformRandomTraffic


def _loaded_simulator(rows=8, backend=""):
    sim = NoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=0, seed=0, backend=backend)
    )
    sim.add_source(UniformRandomTraffic(sim.topology, injection_rate=0.02, seed=0))
    sim.add_source(
        AttackScenario(attackers=(rows * rows - 1,), victim=0, fir=0.8).build_source(
            sim.topology,
            seed=1,
        )
    )
    sim.run(64)
    return sim


def _step_cost_ms(rows: int, backend: str, cycles: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` per-cycle wall-clock of the flood micro-workload."""
    best = float("inf")
    for _ in range(repeats):
        sim = _loaded_simulator(rows=rows, backend=backend)
        start = time.perf_counter()
        sim.run(cycles)
        best = min(best, (time.perf_counter() - start) * 1e3 / cycles)
    return best


def test_simulator_100_cycles_8x8(benchmark):
    sim = _loaded_simulator(rows=8)
    benchmark(lambda: sim.run(100))


def test_simulator_100_cycles_16x16(benchmark):
    sim = _loaded_simulator(rows=16)
    benchmark(lambda: sim.run(100))


def test_simulator_100_cycles_16x16_object_backend(benchmark):
    sim = _loaded_simulator(rows=16, backend="object")
    benchmark(lambda: sim.run(100))


def test_feature_frame_extraction_16x16(benchmark):
    sim = _loaded_simulator(rows=16)

    def extract():
        return [
            extract_feature_frame(sim.network, direction, kind)
            for direction in Direction.cardinal()
            for kind in FeatureKind
        ]

    frames = benchmark(extract)
    assert len(frames) == 8


def test_feature_frames_batched_16x16(benchmark):
    """Single-pass extraction of all four directional frames (monitor path)."""
    sim = _loaded_simulator(rows=16)

    def extract():
        return [extract_feature_frames(sim.network, kind) for kind in FeatureKind]

    vco, boc = benchmark(extract)
    for direction in Direction.cardinal():
        assert np.array_equal(
            vco[direction], extract_feature_frame(sim.network, direction, FeatureKind.VCO)
        )


def test_simulator_step_cost_8x8_recorded():
    """Per-cycle cost of the 8x8 simulator under flood, per backend.

    At 8x8 a SoA cycle moves a few dozen flits, so its cost is almost all
    NumPy per-call dispatch: this is the size where cutting kernel calls
    shows most.  Recorded only; timings on shared runners are too noisy to
    gate a dispatch-bound number on.
    """
    cycles = 400
    object_ms = _step_cost_ms(8, "object", cycles)
    soa_ms = _step_cost_ms(8, "soa", cycles)
    write_result(
        "micro_simulator_step_8x8",
        f"8x8 mesh, uniform_random 0.02 + FIR-0.8 flood, {cycles} cycles, "
        f"best of 3\n"
        f"object backend: {object_ms:8.3f} ms/cycle\n"
        f"soa backend   : {soa_ms:8.3f} ms/cycle\n"
        f"speedup       : {object_ms / soa_ms:8.2f}x",
    )
    write_json_result(
        "micro_simulator_step_8x8",
        {
            "mesh_rows": 8,
            "workload": "uniform_random 0.02 + FIR-0.8 flood",
            "cycles": cycles,
            "object_ms_per_cycle": object_ms,
            "soa_ms_per_cycle": soa_ms,
            "soa_speedup": object_ms / soa_ms,
        },
    )


def test_simulator_step_cost_recorded():
    """Per-cycle cost of the 16x16 simulator under flood, per backend.

    The tentpole hot path for the paper-scale mitigation sweep.  The object
    backend (router/VC/flit Python objects) went from ~14 ms to ~0.8 ms per
    cycle over PR 2's optimizations; the SoA backend (flat NumPy arrays +
    vectorized kernels, PR 4) is recorded next to it together with the
    measured speedup.
    """
    cycles = 400
    object_ms = _step_cost_ms(16, "object", cycles)
    soa_ms = _step_cost_ms(16, "soa", cycles)
    speedup = object_ms / soa_ms
    write_result(
        "micro_simulator_step_16x16",
        f"16x16 mesh, uniform_random 0.02 + FIR-0.8 flood, {cycles} cycles, "
        f"best of 3\n"
        f"object backend: {object_ms:8.3f} ms/cycle\n"
        f"soa backend   : {soa_ms:8.3f} ms/cycle\n"
        f"speedup       : {speedup:8.2f}x",
    )
    write_json_result(
        "micro_simulator_step_16x16",
        {
            "mesh_rows": 16,
            "workload": "uniform_random 0.02 + FIR-0.8 flood",
            "cycles": cycles,
            "ms_per_cycle": object_ms,  # object-backend baseline (history)
            "object_ms_per_cycle": object_ms,
            "soa_ms_per_cycle": soa_ms,
            "soa_speedup": speedup,
        },
    )
    # Regression gates, with slack for noisy shared runners: the SoA backend
    # must stay well ahead of the object model and under 0.5 ms/cycle.
    assert speedup > 2.0
    assert soa_ms < 0.5


def test_simulator_step_cost_32x32_recorded():
    """First recorded 32x32 step cost: where the SoA vectorization pays most.

    At 32x32 the object backend walks ~5000 ports per cycle while the SoA
    kernels touch the same state through a handful of NumPy ops, so the gap
    widens far beyond the 16x16 number.
    """
    cycles = 200
    object_ms = _step_cost_ms(32, "object", cycles, repeats=2)
    soa_ms = _step_cost_ms(32, "soa", cycles, repeats=2)
    speedup = object_ms / soa_ms
    write_result(
        "micro_simulator_step_32x32",
        f"32x32 mesh, uniform_random 0.02 + FIR-0.8 flood, {cycles} cycles, "
        f"best of 2\n"
        f"object backend: {object_ms:8.3f} ms/cycle\n"
        f"soa backend   : {soa_ms:8.3f} ms/cycle\n"
        f"speedup       : {speedup:8.2f}x",
    )
    write_json_result(
        "micro_simulator_step_32x32",
        {
            "mesh_rows": 32,
            "workload": "uniform_random 0.02 + FIR-0.8 flood",
            "cycles": cycles,
            "object_ms_per_cycle": object_ms,
            "soa_ms_per_cycle": soa_ms,
            "soa_speedup": speedup,
        },
    )
    assert speedup > 4.0
    assert soa_ms < 2.0


def test_detector_inference_16x16(benchmark):
    model = build_detector_model((16, 15, 4))
    batch = np.random.default_rng(0).random((32, 16, 15, 4))
    out = benchmark(lambda: model.predict(batch))
    assert out.shape == (32, 1)


def test_localizer_inference_16x16(benchmark):
    model = build_localizer_model((16, 15, 1))
    batch = np.random.default_rng(0).random((16, 16, 15, 1))
    out = benchmark(lambda: model.predict(batch))
    assert out.shape == (16, 16, 15, 1)


def _directional_frames(rows=16, seed=0):
    rng = np.random.default_rng(seed)
    frames = {}
    for direction in Direction.cardinal():
        shape = (
            (rows, rows - 1)
            if direction in (Direction.EAST, Direction.WEST)
            else (rows - 1, rows)
        )
        frames[direction] = rng.random(shape)
    return frames


def test_localizer_four_directions_loop_16x16(benchmark):
    localizer = DoSProfileLocalizer((16, 15, 1))
    frames = _directional_frames()
    benchmark(
        lambda: [
            localizer.segment_frame(frames[d], d) for d in Direction.cardinal()
        ]
    )


def test_localizer_four_directions_batched_16x16(benchmark):
    localizer = DoSProfileLocalizer((16, 15, 1))
    frames = _directional_frames()
    masks = benchmark(lambda: localizer.segment_frames(frames))
    assert set(masks) == set(Direction.cardinal())


def test_localizer_batching_speedup_recorded():
    """One batched forward pass must beat four per-direction calls.

    This is the online fast path of ``DL2Fence.process_sample``: the speedup
    is recorded so regressions in the batching path are visible.
    """
    localizer = DoSProfileLocalizer((16, 15, 1))
    frames = _directional_frames()
    rounds = 20
    start = time.perf_counter()
    for _ in range(rounds):
        loop_masks = {
            d: localizer.segment_frame(frames[d], d) for d in Direction.cardinal()
        }
    mid = time.perf_counter()
    for _ in range(rounds):
        batched_masks = localizer.segment_frames(frames)
    end = time.perf_counter()
    for direction in Direction.cardinal():
        assert np.allclose(loop_masks[direction], batched_masks[direction])
    loop_time, batched_time = mid - start, end - mid
    speedup = loop_time / max(batched_time, 1e-12)
    write_result(
        "micro_localizer_batching",
        f"16x16 localizer, 4 directional frames, {rounds} rounds\n"
        f"per-direction loop : {loop_time * 1e3 / rounds:8.3f} ms/sample\n"
        f"batched forward    : {batched_time * 1e3 / rounds:8.3f} ms/sample\n"
        f"speedup            : {speedup:8.2f}x",
    )
    write_json_result(
        "micro_localizer_batching",
        {
            "mesh_rows": 16,
            "rounds": rounds,
            "loop_ms_per_sample": loop_time * 1e3 / rounds,
            "batched_ms_per_sample": batched_time * 1e3 / rounds,
            "speedup": speedup,
        },
    )
    # No wall-clock assertion: timings on shared runners are too noisy to
    # gate on.  The recorded speedup makes regressions visible; the
    # equivalence assertions above are the correctness gate.


def test_nn_dtype_speedup_recorded():
    """float32 training steps must not be slower than float64, recorded.

    The engine's float32 fast path (dtype-parameterized layers + reused
    im2col GEMM buffers) is what makes retraining cheap at the 16x16 scale;
    this records the per-step cost of both 16x16 CNNs under both dtypes so
    the speedup is tracked alongside the other micro numbers.  The localizer
    step runs at its training batch size (16); its 'same'-padded convolutions
    are most of a cold set-up's training time.
    """
    from repro.nn import Adam, BinaryCrossEntropy, use_dtype
    from repro.nn.losses import combined_bce_dice

    def detector_case():
        rng = np.random.default_rng(0)
        x = rng.random((64, 16, 15, 4))
        y = rng.integers(0, 2, size=(64, 1)).astype(float)
        return build_detector_model, x, y, BinaryCrossEntropy(), 0.005

    def localizer_case():
        rng = np.random.default_rng(1)
        x = rng.random((16, 16, 15, 1))
        y = rng.integers(0, 2, size=(16, 16, 15, 1)).astype(float)
        loss = combined_bce_dice(bce_weight=0.5, dice_weight=0.5)
        return build_localizer_model, x, y, loss, 0.01

    steps = 30
    records = {}
    for name, case in (("detector", detector_case), ("localizer", localizer_case)):
        build, x, y, loss, learning_rate = case()
        timings = {}
        for dtype in ("float64", "float32"):
            with use_dtype(dtype):
                model = build(x.shape[1:])
            optimizer = Adam(learning_rate=learning_rate)
            xt = x.astype(model.dtype)
            yt = y.astype(model.dtype)
            model.forward(xt, training=True)  # warm up buffers
            start = time.perf_counter()
            for _ in range(steps):
                predictions = model.forward(xt, training=True)
                loss.forward(predictions, yt)
                model.backward(loss.backward(predictions, yt))
                optimizer.step(model.layers)
            timings[dtype] = (time.perf_counter() - start) / steps
        records[name] = {
            "input_shape": list(x.shape[1:]),
            "batch": x.shape[0],
            "float64_ms_per_step": timings["float64"] * 1e3,
            "float32_ms_per_step": timings["float32"] * 1e3,
            "speedup": timings["float64"] / max(timings["float32"], 1e-12),
        }
    lines = [f"16x16 CNN training steps, {steps} per model and dtype"]
    for name, record in records.items():
        lines.append(
            f"{name:<9} {tuple(record['input_shape'])}, batch {record['batch']:>2}: "
            f"float64 {record['float64_ms_per_step']:7.3f} ms  "
            f"float32 {record['float32_ms_per_step']:7.3f} ms  "
            f"speedup {record['speedup']:5.2f}x"
        )
    write_result("micro_nn_dtype", "\n".join(lines))
    write_json_result("micro_nn_dtype", {"mesh_rows": 16, "steps": steps, **records})
    # No wall-clock gate (shared runners are noisy); the recorded numbers
    # make a fast-path regression visible.


def test_detector_training_step_8x8(benchmark):
    from repro.nn import Adam, BinaryCrossEntropy

    model = build_detector_model((8, 7, 4))
    loss = BinaryCrossEntropy()
    optimizer = Adam(learning_rate=0.005)
    rng = np.random.default_rng(0)
    x = rng.random((32, 8, 7, 4))
    y = rng.integers(0, 2, size=(32, 1)).astype(float)

    def step():
        predictions = model.forward(x, training=True)
        value = loss.forward(predictions, y)
        model.backward(loss.backward(predictions, y))
        optimizer.step(model.layers)
        return value

    assert np.isfinite(benchmark(step))
