"""Serving throughput benchmark: sequential single-session inference
vs. the micro-batched multi-session server.

Both paths consume the same pre-generated cube frames through
``feed_cube``/``submit_cube`` so the comparison isolates the inference
path (windowing + network) -- preprocessing cost is identical per frame
either way and would only dilute the ratio.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serving.py --json \
        benchmarks/results/bench_serving.json

The JSON summary records frames/sec for each path and the speedup; the
acceptance target is >= 2x for 8 batched sessions.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import List, Optional

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.core.regressor import HandJointRegressor
from repro.dsp.radar_cube import CubeBuilder
from repro.perf import write_bench_json
from repro.serving import FrameWindow, InferenceServer, ServingConfig


def bench_configs():
    """A mid-sized stack: big enough to be real work, small enough for
    a benchmark that runs in seconds."""
    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1,
        feature_dim=32, lstm_hidden=32,
    )
    return radar, dsp, model


def make_cube_frames(
    dsp: DspConfig, sessions: int, frames: int, seed: int
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.abs(
        rng.normal(
            size=(
                sessions, frames, dsp.doppler_bins, dsp.range_bins,
                dsp.angle_bins_total,
            )
        )
    ).astype(np.float32)


def run_sequential(
    regressor: HandJointRegressor, dsp: DspConfig, feeds: np.ndarray
) -> dict:
    """Each session independently: window + batch-of-one forward."""
    start = time.perf_counter()
    poses = 0
    for session_frames in feeds:
        window = FrameWindow(dsp.segment_frames, hop_frames=1)
        for frame in session_frames:
            segment = window.push(frame)
            if segment is not None:
                regressor.predict(segment[None])
                poses += 1
    elapsed = time.perf_counter() - start
    frames_total = feeds.shape[0] * feeds.shape[1]
    return {
        "frames": frames_total,
        "poses": poses,
        "elapsed_s": elapsed,
        "frames_per_s": frames_total / elapsed,
        "poses_per_s": poses / elapsed,
    }


def run_batched(
    regressor: HandJointRegressor,
    builder: CubeBuilder,
    feeds: np.ndarray,
) -> dict:
    """All sessions through the server, one micro-batch per tick."""
    sessions, frames = feeds.shape[0], feeds.shape[1]
    server = InferenceServer(
        builder, regressor,
        ServingConfig(
            max_batch_size=sessions,
            queue_capacity=4 * sessions,
            policy="block",
        ),
    )
    ids = [server.open_session(f"bench-{i}") for i in range(sessions)]
    start = time.perf_counter()
    poses = 0
    for tick in range(frames):
        for i, session_id in enumerate(ids):
            server.submit_cube(session_id, feeds[i, tick])
        poses += len(server.step())
    poses += len(server.drain())
    elapsed = time.perf_counter() - start
    frames_total = sessions * frames
    stats = server.stats()
    return {
        "frames": frames_total,
        "poses": poses,
        "elapsed_s": elapsed,
        "frames_per_s": frames_total / elapsed,
        "poses_per_s": poses / elapsed,
        "batches": stats["counters"]["batches"],
        "batch_mean": stats["histograms"]["batch_size"]["mean"],
        "latency_p50_ms": stats["histograms"]["latency_s"]["p50"] * 1e3,
        "latency_p99_ms": stats["histograms"]["latency_s"]["p99"] * 1e3,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument("--frames", type=int, default=40,
                        help="cube frames per session")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N timing repeats")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", dest="json_path",
        default=os.path.join(
            os.path.dirname(__file__), "results", "bench_serving.json"
        ),
    )
    args = parser.parse_args(argv)

    radar, dsp, model = bench_configs()
    builder = CubeBuilder(radar, dsp)
    regressor = HandJointRegressor(dsp, model, seed=1)
    regressor.eval()
    feeds = make_cube_frames(dsp, args.sessions, args.frames, args.seed)

    # Warm-up (first-call allocations, BLAS thread spin-up).
    run_sequential(regressor, dsp, feeds[:1, : 2 * dsp.segment_frames])

    sequential = min(
        (run_sequential(regressor, dsp, feeds)
         for _ in range(args.repeats)),
        key=lambda r: r["elapsed_s"],
    )
    batched = min(
        (run_batched(regressor, builder, feeds)
         for _ in range(args.repeats)),
        key=lambda r: r["elapsed_s"],
    )
    speedup = batched["frames_per_s"] / sequential["frames_per_s"]

    summary = {
        "sessions": args.sessions,
        "frames_per_session": args.frames,
        "sequential": sequential,
        "batched": batched,
        "speedup": speedup,
    }
    print(
        f"sequential: {sequential['frames_per_s']:8.1f} frames/s "
        f"({sequential['poses']} poses in "
        f"{sequential['elapsed_s']:.3f}s)"
    )
    print(
        f"batched:    {batched['frames_per_s']:8.1f} frames/s "
        f"({batched['poses']} poses in {batched['elapsed_s']:.3f}s, "
        f"batch mean {batched['batch_mean']:.1f})"
    )
    print(f"speedup:    {speedup:.2f}x")

    write_bench_json(args.json_path, summary)
    print(f"summary -> {args.json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
