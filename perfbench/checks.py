"""Output checks: served poses against an in-process reference, meshes
against the hand template."""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.core.regressor import HandJointRegressor
from repro.dsp.radar_cube import CubeBuilder

# Served and reference poses come from the same f32 compiled plan, run
# at different batch sizes (the served batch depends on timing, the
# reference runs in chunks); the accumulation order of the GEMMs may
# differ in the last bits. Joints are metres.
POSE_ATOL = 1e-5
POSE_RTOL = 1e-5

# (stream, frame index) -> joints (21, 3)
Poses = Dict[Tuple[Hashable, int], np.ndarray]


def reference_poses(
    radar: RadarConfig,
    dsp: DspConfig,
    model: ModelConfig,
    model_seed: int,
    frames_of: Callable[[Hashable], np.ndarray],
    streams: Sequence[Hashable],
    chunk: int = 16,
) -> Poses:
    """Poses the served path must return for each stream's frames.

    Each stream's raw frames (``frames_of(stream)``, shape
    ``(F, antennas, loops, samples)``) are preprocessed one at a time,
    as a serving session does, windowed into ``segment_frames``
    segments with hop 1, and regressed by a fresh
    ``HandJointRegressor(dsp, model, seed=model_seed)``. The pose of a
    window is keyed by the index of its newest frame.
    """
    builder = CubeBuilder(radar, dsp)
    regressor = HandJointRegressor(dsp, model, seed=model_seed)
    regressor.eval()
    st = dsp.segment_frames
    keys: List[Tuple[Hashable, int]] = []
    segments: List[np.ndarray] = []
    for stream in streams:
        raw = frames_of(stream)
        cubes = [builder.build(frame[None]).values[0] for frame in raw]
        for index in range(st - 1, len(cubes)):
            keys.append((stream, index))
            segments.append(np.stack(cubes[index - st + 1:index + 1]))
    poses: Poses = {}
    for start in range(0, len(segments), chunk):
        batch = np.stack(segments[start:start + chunk])
        for key, joints in zip(
            keys[start:start + chunk], regressor.predict(batch)
        ):
            poses[key] = joints
    return poses


def count_matching(served: Poses, reference: Poses) -> Tuple[int, int]:
    """``(correct, missing)`` of the served poses over the reference's
    windows. A served pose is correct when it matches its window's
    reference pose within the compiled-plan tolerance."""
    correct = missing = 0
    for key, want in reference.items():
        got = served.get(key)
        if got is None:
            missing += 1
        elif np.allclose(got, want, rtol=POSE_RTOL, atol=POSE_ATOL):
            correct += 1
    return correct, missing


def mesh_ok(vertices: np.ndarray, template_vertices: int) -> bool:
    """A recovered mesh is finite and has the template's vertex count."""
    vertices = np.asarray(vertices)
    return (
        vertices.shape == (template_vertices, 3)
        and bool(np.all(np.isfinite(vertices)))
    )
