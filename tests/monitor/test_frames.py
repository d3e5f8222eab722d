"""Unit and property-based tests for frames, padding and orientation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.monitor.features import FeatureKind, frame_shape
from repro.monitor.frames import (
    DirectionalFrame,
    FrameSample,
    FrameSet,
    from_canonical,
    pad_to_full_mesh,
    to_canonical,
)
from repro.noc.topology import Direction, MeshTopology

TOPO = MeshTopology(rows=6)


def make_frame_set(kind=FeatureKind.VCO, fill=0.5, cycle=0):
    frames = {}
    for direction in Direction.cardinal():
        values = np.full(frame_shape(TOPO, direction), fill)
        frames[direction] = DirectionalFrame(direction, kind, values, cycle)
    return FrameSet(kind=kind, frames=frames, cycle=cycle)


class TestPadding:
    def test_east_pads_last_column(self):
        frame = np.ones(frame_shape(TOPO, Direction.EAST))
        full = pad_to_full_mesh(frame, TOPO, Direction.EAST)
        assert full.shape == (6, 6)
        assert np.all(full[:, -1] == 0)
        assert np.all(full[:, :-1] == 1)

    def test_west_pads_first_column(self):
        frame = np.ones(frame_shape(TOPO, Direction.WEST))
        full = pad_to_full_mesh(frame, TOPO, Direction.WEST)
        assert np.all(full[:, 0] == 0)
        assert np.all(full[:, 1:] == 1)

    def test_north_pads_top_row(self):
        frame = np.ones(frame_shape(TOPO, Direction.NORTH))
        full = pad_to_full_mesh(frame, TOPO, Direction.NORTH)
        assert np.all(full[-1, :] == 0)

    def test_south_pads_bottom_row(self):
        frame = np.ones(frame_shape(TOPO, Direction.SOUTH))
        full = pad_to_full_mesh(frame, TOPO, Direction.SOUTH)
        assert np.all(full[0, :] == 0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            pad_to_full_mesh(np.ones((6, 6)), TOPO, Direction.EAST)

    @given(direction=st.sampled_from(list(Direction.cardinal())))
    @settings(max_examples=20, deadline=None)
    def test_padding_preserves_values_and_sum(self, direction):
        rng = np.random.default_rng(0)
        frame = rng.random(frame_shape(TOPO, direction))
        full = pad_to_full_mesh(frame, TOPO, direction)
        assert full.shape == (TOPO.rows, TOPO.columns)
        assert np.isclose(full.sum(), frame.sum())


class TestCanonicalOrientation:
    @given(direction=st.sampled_from(list(Direction.cardinal())))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, direction):
        rng = np.random.default_rng(1)
        frame = rng.random(frame_shape(TOPO, direction))
        assert np.allclose(from_canonical(to_canonical(frame, direction), direction), frame)

    def test_east_west_unchanged(self):
        frame = np.arange(30, dtype=float).reshape(6, 5)
        assert np.allclose(to_canonical(frame, Direction.EAST), frame)

    def test_north_transposed(self):
        frame = np.arange(30, dtype=float).reshape(5, 6)
        assert to_canonical(frame, Direction.NORTH).shape == (6, 5)

    def test_all_canonical_frames_share_shape(self):
        for direction in Direction.cardinal():
            frame = np.zeros(frame_shape(TOPO, direction))
            assert to_canonical(frame, direction).shape == (6, 5)


class TestDirectionalFrame:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            DirectionalFrame(Direction.EAST, FeatureKind.VCO, np.zeros(5))

    def test_normalized_copy(self):
        frame = DirectionalFrame(
            Direction.EAST, FeatureKind.BOC, np.array([[2.0, 4.0], [1.0, 0.0]])
        )
        normalized = frame.normalized("max")
        assert normalized.values.max() == 1.0
        assert frame.values.max() == 4.0  # original untouched

    def test_statistics(self):
        frame = DirectionalFrame(
            Direction.EAST, FeatureKind.VCO, np.array([[0.0, 1.0], [0.5, 0.5]])
        )
        assert frame.max_value() == 1.0


class TestFrameSet:
    def test_requires_all_directions(self):
        frames = {
            Direction.EAST: DirectionalFrame(
                Direction.EAST, FeatureKind.VCO, np.zeros(frame_shape(TOPO, Direction.EAST))
            )
        }
        with pytest.raises(ValueError):
            FrameSet(kind=FeatureKind.VCO, frames=frames)

    def test_detector_input_stacks_four_channels(self):
        frame_set = make_frame_set()
        stacked = frame_set.as_detector_input()
        assert stacked.shape == (6, 5, 4)

    def test_detector_input_channel_order_is_enws(self):
        frames = {}
        for i, direction in enumerate(Direction.cardinal()):
            values = np.full(frame_shape(TOPO, direction), float(i))
            frames[direction] = DirectionalFrame(direction, FeatureKind.VCO, values)
        stacked = FrameSet(kind=FeatureKind.VCO, frames=frames).as_detector_input()
        for i in range(4):
            assert np.all(stacked[..., i] == float(i))

    def test_detector_input_normalization(self):
        frame_set = make_frame_set(kind=FeatureKind.BOC, fill=10.0)
        stacked = frame_set.as_detector_input(normalize="max")
        assert stacked.max() == 1.0

    def test_max_value(self):
        assert make_frame_set(fill=0.75).max_value() == 0.75


class TestFrameSample:
    def test_feature_selector(self):
        sample = FrameSample(
            cycle=5,
            vco=make_frame_set(FeatureKind.VCO),
            boc=make_frame_set(FeatureKind.BOC),
            attack_active=True,
        )
        assert sample.feature(FeatureKind.VCO) is sample.vco
        assert sample.feature(FeatureKind.BOC) is sample.boc
        assert sample.attack_active
