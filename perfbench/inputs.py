"""Seeded raw IF frames of simulated hand motion.

A few short gesture clips are synthesized once, noise-free, by the
repository's own hand and radar simulators. Every frame handed to the
system is a clip frame plus fresh thermal noise drawn from a generator
keyed by ``(seed, stream, index)``: the same seed gives the same inputs,
and no served window ever repeats, as with a real radar.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np

from repro.config import RadarConfig
from repro.hand.animation import sample_gesture_sequence
from repro.hand.gestures import list_gestures
from repro.hand.subjects import make_subjects
from repro.radar.clutter import (
    BodyPosition,
    body_scatterers,
    environment_scatterers,
)
from repro.radar.radar import RadarSimulator
from repro.radar.scatterers import hand_scatterers
from repro.radar.scene import Scatterers, Scene


class FrameSource:
    """Raw complex IF frames ``(antennas, loops, samples)`` per stream.

    Stream ``s`` plays clip ``s % clips`` from a stream-specific phase,
    looping; :meth:`frame` is a pure function of ``(stream, index)``.
    """

    def __init__(
        self,
        radar: RadarConfig,
        seed: int,
        clips: int = 3,
        clip_frames: int = 64,
    ) -> None:
        self.seed = seed
        self.clip_frames = clip_frames
        self._noise_scale = radar.noise_std / np.sqrt(2.0)
        rng = np.random.default_rng(seed)
        clean = replace(radar, noise_std=0.0)
        self._clips: List[np.ndarray] = []
        for subject in make_subjects(clips, seed=int(rng.integers(2**31))):
            self._clips.append(
                self._synthesize(clean, subject, rng)
            )

    def _synthesize(self, clean: RadarConfig, subject, rng) -> np.ndarray:
        period = clean.frame_period_s
        distance = float(rng.uniform(0.2, 0.4))
        base = np.array([distance, 0.0, float(rng.uniform(-0.03, 0.03))])
        sequence = sample_gesture_sequence(
            rng, list_gestures(),
            num_keyframes=max(2, self.clip_frames // 6),
            base_position=base,
        )
        poses = sequence.sample(period, self.clip_frames)
        shape = subject.hand_shape()
        scatter_rng = np.random.default_rng(int(rng.integers(2**31)))
        env_seed = int(rng.integers(2**31))
        body = body_scatterers(
            BodyPosition.FRONT, np.random.default_rng(env_seed + 1),
            body_rcs=subject.body_rcs, hand_range_m=distance,
        )
        scenes = []
        for index, pose in enumerate(poses):
            hand = hand_scatterers(
                shape, pose,
                prev_pose=poses[index - 1] if index else None,
                frame_period_s=period,
                reflectivity=subject.skin_reflectivity,
                rng=scatter_rng,
            )
            env = environment_scatterers(
                "classroom", np.random.default_rng(env_seed),
                time_s=index * period,
            )
            scenes.append(Scene(
                hand=hand,
                background=Scatterers.concatenate([env, body]),
            ))
        return RadarSimulator(clean, seed=env_seed).sequence(scenes)

    def frame(self, stream: int, index: int) -> np.ndarray:
        """Frame ``index`` of ``stream``: clip frame plus fresh noise."""
        clip = self._clips[stream % len(self._clips)]
        phase = (stream * 17 + index) % self.clip_frames
        noise = np.random.default_rng(
            (self.seed, stream, index)
        ).normal(0.0, self._noise_scale, size=(2,) + clip.shape[1:])
        return clip[phase] + (noise[0] + 1j * noise[1])

    def frames(self, stream: int, start: int, count: int) -> np.ndarray:
        """``count`` consecutive frames of ``stream`` from ``start``."""
        return np.stack([
            self.frame(stream, index)
            for index in range(start, start + count)
        ])
