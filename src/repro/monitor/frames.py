"""Directional feature frames, frame sets and full-mesh padding.

A :class:`DirectionalFrame` is one R x (R-1) (or (R-1) x R) matrix of VCO or
BOC values for a single input-port direction; a :class:`FrameSample` bundles
the four directional frames of both features taken at the same sampling
instant, which is the unit the DL2Fence detector consumes.  Zero-padding back
to the full mesh geometry (Algorithm 1, line 3) lives here because both the
ground-truth labelling and the Multi-Frame Fusion stage need it.

How the ``values`` arrays are produced depends on the simulator backend:
the object mesh walks every router's input ports, while the default SoA
backend slices the frames straight out of its flat per-port counter arrays
(:meth:`repro.noc.soa.SoAMeshNetwork.feature_frames`) with no router walk —
both yield bit-identical matrices, so everything downstream of this module
is backend-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.monitor.features import FeatureKind, frame_shape, normalize_frame
from repro.noc.topology import Direction, MeshTopology

__all__ = [
    "DirectionalFrame",
    "FrameSet",
    "FrameSample",
    "pad_to_full_mesh",
    "to_canonical",
    "from_canonical",
]


def to_canonical(values: np.ndarray, direction: Direction) -> np.ndarray:
    """Rotate a directional frame into the canonical R x (R-1) orientation.

    East/West frames are already canonical; North/South frames are transposed
    so a single CNN can process frames from any direction.  On a square mesh
    all four canonical frames share the same shape.
    """
    values = np.asarray(values, dtype=np.float64)
    if direction in (Direction.NORTH, Direction.SOUTH):
        return values.T.copy()
    return values.copy()


def from_canonical(values: np.ndarray, direction: Direction) -> np.ndarray:
    """Inverse of :func:`to_canonical`: restore the natural orientation."""
    values = np.asarray(values, dtype=np.float64)
    if direction in (Direction.NORTH, Direction.SOUTH):
        return values.T.copy()
    return values.copy()


def pad_to_full_mesh(
    frame: np.ndarray, topology: MeshTopology, direction: Direction
) -> np.ndarray:
    """Zero-pad a directional frame back to the full ``rows x columns`` mesh.

    The padding side follows Algorithm 1's ``Zero_Pad_R/L/T/B``: the missing
    column/row corresponds to the mesh edge whose routers lack that input
    port (e.g. the east-most column has no EAST input port, so the EAST frame
    is padded with a zero column on the right/east side).
    """
    frame = np.asarray(frame, dtype=np.float64)
    expected = frame_shape(topology, direction)
    if frame.shape != expected:
        raise ValueError(
            f"{direction.value} frame has shape {frame.shape}, expected {expected}"
        )
    rows, cols = topology.rows, topology.columns
    full = np.zeros((rows, cols), dtype=np.float64)
    if direction is Direction.EAST:
        full[:, : cols - 1] = frame
    elif direction is Direction.WEST:
        full[:, 1:] = frame
    elif direction is Direction.NORTH:
        full[: rows - 1, :] = frame
    elif direction is Direction.SOUTH:
        full[1:, :] = frame
    else:  # pragma: no cover - guarded by frame_shape
        raise ValueError("cannot pad a local-port frame")
    return full


@dataclass
class DirectionalFrame:
    """A single feature frame of one direction at one sampling instant."""

    direction: Direction
    kind: FeatureKind
    values: np.ndarray
    cycle: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("frame values must be a 2-D matrix")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    def normalized(self, method: str = "max") -> "DirectionalFrame":
        """Return a copy with normalised values (BOC requires this)."""
        return DirectionalFrame(
            direction=self.direction,
            kind=self.kind,
            values=normalize_frame(self.values, method=method),
            cycle=self.cycle,
        )

    def max_value(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0


@dataclass
class FrameSet:
    """The four directional frames of one feature at one sampling instant."""

    kind: FeatureKind
    frames: dict[Direction, DirectionalFrame]
    cycle: int = 0

    def __post_init__(self) -> None:
        missing = [d for d in Direction.cardinal() if d not in self.frames]
        if missing:
            raise ValueError(f"frame set missing directions: {missing}")

    def __getitem__(self, direction: Direction) -> DirectionalFrame:
        return self.frames[direction]

    def directions(self) -> tuple[Direction, ...]:
        return Direction.cardinal()

    def as_detector_input(self, normalize: str = "none") -> np.ndarray:
        """Stack the four frames into the detector's (H, W, 4) input tensor.

        The paper's detector consumes the E, N, W, S frames together.  North
        and South frames are transposed so all four channels share the
        R x (R-1) geometry of the East/West frames (valid on square meshes).
        """
        channels = []
        target_shape = self.frames[Direction.EAST].shape
        for direction in Direction.cardinal():
            values = self.frames[direction].values
            if direction in (Direction.NORTH, Direction.SOUTH):
                values = values.T
            if values.shape != target_shape:
                raise ValueError(
                    "directional frames disagree on shape; detector input "
                    "requires a square mesh"
                )
            if normalize != "none":
                values = normalize_frame(values, method=normalize)
            channels.append(values)
        return np.stack(channels, axis=-1)

    def max_value(self) -> float:
        return max(frame.max_value() for frame in self.frames.values())


@dataclass
class FrameSample:
    """Everything the monitor captured at one sampling instant."""

    cycle: int
    vco: FrameSet
    boc: FrameSet
    attack_active: bool = False
    metadata: dict = field(default_factory=dict)

    def feature(self, kind: FeatureKind) -> FrameSet:
        """Select the VCO or BOC frame set."""
        return self.vco if kind is FeatureKind.VCO else self.boc
