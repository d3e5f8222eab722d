"""The array stuck-signature check equals the per-node loop it replaced.

:meth:`WindowSanitizer.sanitize` gathers every node's 8-cell (VCO, BOC)
signature in one take and updates streaks and the stuck set with array
operations.  :class:`LoopSanitizer` below keeps the original per-node
Python loop as the reference; Hypothesis feeds both the same generated
window streams (cells that freeze, zero out, turn implausible or NaN) and
requires the same stuck sets, imputation counts and scrubbed frames.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defense.degraded import DegradedModeConfig, WindowSanitizer
from repro.faults import node_port_cells
from repro.faults.base import clone_sample
from repro.monitor.features import FeatureKind
from repro.noc.topology import Direction, MeshTopology

from tests.faults.test_monitor_faults import make_sample


class LoopSanitizer:
    """The per-node reference: imputation, stuck loop, masking."""

    def __init__(self, topology, config, sample_period):
        self.topology = topology
        self.config = config
        self.ceiling = WindowSanitizer(topology, config, sample_period)._ceiling
        self.cells = [node_port_cells(topology, n) for n in range(topology.num_nodes)]
        self.streaks = [0] * topology.num_nodes
        self.stuck = set()
        self.previous = [None] * topology.num_nodes
        self.last_frames = {}

    def sanitize(self, sample):
        sample = clone_sample(sample)
        imputed = 0
        for frame_set in (sample.vco, sample.boc):
            ceiling = self.ceiling(frame_set.kind)
            if not np.isfinite(ceiling):
                continue
            for direction in Direction.cardinal():
                values = frame_set.frames[direction].values
                mask = values > ceiling
                if not mask.any():
                    continue
                previous = self.last_frames.get((frame_set.kind, direction))
                values[mask] = previous[mask] if previous is not None else 0.0
                imputed += int(mask.sum())
        for node in range(self.topology.num_nodes):
            signature = tuple(
                float(
                    (sample.vco if kind is FeatureKind.VCO else sample.boc)
                    .frames[direction]
                    .values[row, col]
                )
                for direction, row, col in self.cells[node]
                for kind in (FeatureKind.VCO, FeatureKind.BOC)
            )
            previous = self.previous[node]
            self.previous[node] = signature
            if (
                previous is not None
                and signature == previous
                and any(value != 0.0 for value in signature)
            ):
                self.streaks[node] += 1
            else:
                self.streaks[node] = 0
                self.stuck.discard(node)
            if self.streaks[node] >= self.config.stuck_after - 1:
                self.stuck.add(node)
        for node in self.stuck:
            for direction, row, col in self.cells[node]:
                sample.vco.frames[direction].values[row, col] = 0.0
                sample.boc.frames[direction].values[row, col] = 0.0
        for frame_set in (sample.vco, sample.boc):
            for direction in Direction.cardinal():
                self.last_frames[(frame_set.kind, direction)] = (
                    frame_set.frames[direction].values.copy()
                )
        return sample, frozenset(self.stuck), imputed


#: Cell values: idle, ordinary, saturated, implausible (over both ceilings
#: at a 100-cycle period), signed zero and NaN.
PALETTE = np.array([0.0, 0.0, 0.25, 0.5, 1.0, 7.0, 1e6, -0.0, np.nan])


def window_stream(topology, draws):
    """One sample per (seed, repeat probability): most cells repeat the
    previous window, so whole signatures freeze often."""
    previous = None
    for index, (seed, repeat) in enumerate(draws):
        rng = np.random.default_rng(seed)
        sample = make_sample(topology, 100 * (index + 1))
        for frame_set in (sample.vco, sample.boc):
            for direction in Direction.cardinal():
                values = frame_set.frames[direction].values
                fresh = PALETTE[rng.integers(0, PALETTE.size, values.shape)]
                if previous is not None:
                    old = previous.feature(frame_set.kind).frames[direction].values
                    fresh = np.where(rng.random(values.shape) < repeat, old, fresh)
                values[...] = fresh
        previous = sample
        yield sample


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([(4, 4), (3, 5), (1, 3)]),
    stuck_after=st.integers(2, 4),
    sample_period=st.sampled_from([100, None]),
    draws=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.9, 0.99, 1.0])),
        min_size=1,
        max_size=10,
    ),
)
def test_array_stuck_check_matches_the_node_loop(
    shape, stuck_after, sample_period, draws
):
    topology = MeshTopology(rows=shape[0], columns=shape[1])
    config = DegradedModeConfig(stuck_after=stuck_after)
    sanitizer = WindowSanitizer(topology, config, sample_period=sample_period)
    reference = LoopSanitizer(topology, config, sample_period)
    for sample in window_stream(topology, draws):
        clean, health = sanitizer.sanitize(sample)
        expected, stuck, imputed = reference.sanitize(sample)
        assert health.stuck == stuck
        assert health.imputed_cells == imputed
        for kind in (FeatureKind.VCO, FeatureKind.BOC):
            for direction in Direction.cardinal():
                np.testing.assert_array_equal(
                    clean.feature(kind).frames[direction].values,
                    expected.feature(kind).frames[direction].values,
                )
