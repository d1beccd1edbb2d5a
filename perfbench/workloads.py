"""The three workloads, each measured in one pass.

A pass sets the system up several times (``setup_s`` is the median),
then measures for ``seconds``, then checks every output. In a traced
pass it also records spans around its own calls into each layer and
reads the counters and ledgers the layers publish, giving the per-layer
metrics and the stage rows whose means add up to the end-to-end mean.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig, SystemConfig
from repro.core.pipeline import MmHand
from repro.core.regressor import HandJointRegressor
from repro.dsp.radar_cube import CubeBuilder
from repro.errors import DeadlineExceededError, NetFrontError
from repro.gateway import Gateway, GatewayConfig
from repro.netfront import NetFrontClient, NetFrontConfig, start_in_thread
from repro.obs import metrics as obs_metrics
from repro.serving import InferenceServer, ServingConfig

from perfbench.checks import count_matching, mesh_ok, reference_poses
from perfbench.inputs import FrameSource
from perfbench.measure import (
    Spans,
    own_peak_rss_mb,
    percentile_ms,
    process_cpu_s,
    process_peak_rss_mb,
    ratio,
    window_delta,
    window_mean,
)

# Every served model is HandJointRegressor(dsp, model, seed=MODEL_SEED);
# only the inputs depend on the benchmark seed.
MODEL_SEED = 0
# Set-ups per pass; setup_s is their median.
SETUP_REPEATS = 11
# Stream ids of the frames that prove each set-up serves.
PROBE_STREAM = 1000

# live_raw: S sessions at one frame per radar frame period (20 Hz each).
# On a 2-CPU host one worker keeps p90 latency near 15 ms up to about
# 60 frames/s and builds backlogs of hundreds of ms at 80 frames/s, so
# 2 sessions offer 40 frames/s, about half of that capacity.
LIVE_SESSIONS = 2
LIVE_TOKEN = "perfbench-token"
# How long poses may still arrive after the last frame is sent.
LIVE_GRACE_S = 5.0
# Latency percentiles are taken over chunks of this many due frames.
LIVE_CHUNK = 100

BURST_SESSIONS = 16
# Throughput, CPU and latency percentiles are taken over chunks of this
# many rounds (128 poses).
BURST_CHUNK_ROUNDS = 8

CAPTURE_FRAMES = 64
CAPTURE_STREAM = 2000

DSP_STAGES = ("bandpass", "range_fft", "doppler_fft", "angle")

# Per-layer metric names and units, in the order they are printed.
LAYER_UNITS: Dict[str, str] = {
    "netfront.connect_ms": "ms",
    "netfront.send_ms": "ms",
    "netfront.hop_ms": "ms",
    "netfront.failed": "ratio",
    "gateway.submit_ms": "ms",
    "gateway.ring_wait_ms": "ms",
    "gateway.ingest_ms": "ms",
    "gateway.pose_return_ms": "ms",
    "gateway.e2e_ms": "ms",
    "gateway.ring_occupancy": "slots",
    "gateway.worker_restarts": "count",
    "gateway.dead_letters": "count",
    "serving.submit_ms": "ms",
    "serving.step_ms": "ms",
    "serving.batch_size": "requests",
    "serving.batch_wait_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.quarantined": "count",
    "dsp.frame_ms": "ms",
    "dsp.bandpass_ms": "ms",
    "dsp.range_fft_ms": "ms",
    "dsp.doppler_fft_ms": "ms",
    "dsp.angle_ms": "ms",
    "model.forward_ms_per_pose": "ms",
    "mesh.reconstruct_ms": "ms",
    "pipeline.preprocess_ms": "ms",
    "pipeline.skeleton_ms": "ms",
    "pipeline.mesh_ms": "ms",
    "trace.e2e_mean_ms": "ms",
    "trace.residual_pct": "%",
    "trace.overhead_pct": "%",
}

E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "poses_per_s": "1/s",
    "latency_p50_ms": "ms",
    "on_time_ratio": "ratio",
    "success_ratio": "ratio",
    "cpu_ms_per_pose": "ms",
    "peak_rss_mb": "MiB",
}

Configs = Tuple[RadarConfig, DspConfig, ModelConfig]


@dataclass
class PassResult:
    """What one pass measured and checked."""

    e2e: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    e2e_mean_ms: float
    # Traced passes only: per-layer metrics, and the stage rows
    # (name, mean ms, depth); depth-0 rows add up to ``e2e_mean_ms``
    # up to the residual, deeper rows break down the row above them.
    layers: Dict[str, float] = field(default_factory=dict)
    rows: List[Tuple[str, float, int]] = field(default_factory=list)
    diagnostics: Dict[str, Any] = field(default_factory=dict)


def _latency_metrics(
    chunks: List[List[float]], deadline_s: float
) -> Dict[str, float]:
    """Latency metrics of due results grouped in chunks of consecutive
    results; a missing result is given as the longest the benchmark
    waited for any result, so it counts as late.

    p50 is the median over chunks of each chunk's p50: the host's speed
    drifts by +-15% over seconds, and a median over chunks keeps a few
    slow seconds from moving the whole run's figure.
    """
    values = [value for chunk in chunks for value in chunk]
    return {
        "latency_p50_ms": _chunk_percentile_ms(chunks, 50.0),
        "on_time_ratio": ratio(
            sum(1 for value in values if value <= deadline_s), len(values)
        ),
    }


def _chunked(values: List[Any], size: int) -> List[List[Any]]:
    """Consecutive chunks of ``size``; a short tail joins the last one."""
    chunks = [values[i:i + size] for i in range(0, len(values), size)]
    if len(chunks) > 1 and len(chunks[-1]) < size:
        chunks[-2].extend(chunks.pop())
    return chunks


def _chunk_percentile_ms(chunks: List[List[float]], q: float) -> float:
    return float(np.median([percentile_ms(chunk, q) for chunk in chunks]))


def _diagnostic_latency(
    latencies_s: List[float], chunks: List[List[float]]
) -> Dict[str, Any]:
    """Tail latency, printed but not gated: on a 2-vCPU host whose speed
    drifts, the run-to-run spread of p90 on live_raw exceeded 25%."""
    if not latencies_s:
        return {"samples": 0}
    return {
        "samples": len(latencies_s),
        "p90_ms": _chunk_percentile_ms(chunks, 90.0),
        "p99_ms": percentile_ms(latencies_s, 99.0),
        "max_ms": 1e3 * max(latencies_s),
        "mean_ms": 1e3 * float(np.mean(latencies_s)),
    }


def _median_setup(build: Callable[[], Any], close: Callable[[Any], None]):
    """Build the system 1 + SETUP_REPEATS times; keep the last one.

    The first build is not timed: it pays the imports done lazily
    inside the program, which set-up time excludes. Each build starts
    after a full garbage collection, so it does not pay for the garbage
    of the one before. Every earlier system is torn down before the
    next is built. Returns ``(median seconds, system)``.
    """
    times: List[float] = []
    system = None
    for _ in range(1 + SETUP_REPEATS):
        if system is not None:
            close(system)
            system = None
        gc.collect()
        start = time.perf_counter()
        system = build()
        times.append(time.perf_counter() - start)
    gc.collect()
    return float(np.median(times[1:])), system


# ----------------------------------------------------------------------
# live_raw: raw IF frames over netfront -> gateway (1 worker) -> poses
# ----------------------------------------------------------------------
def _on_loop(handle, fn: Callable[[], Any]) -> Any:
    """Call ``fn`` on the netfront event loop, which owns the gateway."""

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(
        call(), handle.loop
    ).result(timeout=30.0)


def _ledger(gateway: Gateway) -> Dict[str, Any]:
    """The gateway's stage ledger and merged worker counters."""
    stats = gateway.stats()
    return {
        "stages": stats["stage_latency"],
        "gauges": stats["gauges"],
        "worker_pid": stats["workers"][0]["pid"],
    }


class _LiveStack:
    """One gateway worker behind netfront, and one client connection
    carrying a probe session plus the measured sessions."""

    def __init__(self, configs: Configs, spans: Spans) -> None:
        radar, dsp, model = configs
        self.gateway = Gateway(
            radar, dsp, model, GatewayConfig(workers=1, seed=MODEL_SEED)
        )
        self.handle = None
        self.client: Optional[NetFrontClient] = None
        try:
            self.handle = start_in_thread(
                self.gateway,
                NetFrontConfig(auth_token=LIVE_TOKEN, idle_timeout_s=60.0),
            )
            start = time.perf_counter()
            self.client = NetFrontClient.connect(
                self.handle.host, self.handle.port, token=LIVE_TOKEN,
                timeout_s=30.0,
            )
            spans.add("netfront.connect", start, time.perf_counter())
            self.probe = self.client.open_session()
            self.sessions = [
                self.client.open_session() for _ in range(LIVE_SESSIONS)
            ]
        except BaseException:
            self.close()
            raise

    def serve_probe(self, probe_frames: np.ndarray) -> None:
        for index, frame in enumerate(probe_frames):
            self.client.send_raw(self.probe, frame, frame_id=index)
        self.client.poll_poses(expect=1, timeout_s=60.0, raise_errors=True)

    def stop(self) -> Dict[str, Any]:
        """Drain netfront; returns its frame accounting."""
        report = self.handle.stop() if self.handle is not None else {}
        self.handle = None
        return report

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.stop()
        self.gateway.shutdown()


class _Receiver(threading.Thread):
    """Stamps the arrival time of every pose pushed to the client."""

    def __init__(self, client: NetFrontClient, expected: int) -> None:
        super().__init__(name="perfbench-receiver", daemon=True)
        self.client = client
        self.base = len(client.poses)
        self.expected = self.base + expected
        self.deadline = float("inf")
        self.arrivals: List[float] = []

    def run(self) -> None:
        client = self.client
        while (
            len(client.poses) < self.expected
            and time.perf_counter() < self.deadline
        ):
            try:
                client.poll_poses(expect=len(client.poses) + 1,
                                  timeout_s=2.0)
            except DeadlineExceededError:
                continue
            except NetFrontError:
                return
            now = time.perf_counter()
            while len(self.arrivals) < len(client.poses) - self.base:
                self.arrivals.append(now)


def run_live_raw(
    configs: Configs, source: FrameSource, seconds: float, spans: Spans
) -> PassResult:
    radar, dsp, model = configs
    st = dsp.segment_frames
    period = radar.frame_period_s
    probe = source.frames(PROBE_STREAM, 0, st)

    def build() -> _LiveStack:
        stack = _LiveStack(configs, spans)
        try:
            stack.serve_probe(probe)
        except BaseException:
            stack.close()
            raise
        return stack

    setup_s, stack = _median_setup(build, lambda s: s.close())
    try:
        return _measure_live(
            configs, source, seconds, spans, stack, setup_s, probe
        )
    finally:
        stack.close()


def _measure_live(configs, source, seconds, spans, stack, setup_s, probe):
    radar, dsp, model = configs
    st = dsp.segment_frames
    period = radar.frame_period_s
    count = max(st + 1, int(round(seconds / period)))
    # Generated after the worker fork, so the worker never maps them.
    frames = [source.frames(s, 0, count) for s in range(LIVE_SESSIONS)]
    schedule = sorted(
        (index * period + s * period / LIVE_SESSIONS, s, index)
        for s in range(LIVE_SESSIONS) for index in range(count)
    )
    gc.collect()
    client, gateway = stack.client, stack.gateway
    before = _on_loop(stack.handle, lambda: _ledger(gateway))
    worker_pid = before["worker_pid"]
    due_windows = LIVE_SESSIONS * (count - st + 1)
    receiver = _Receiver(client, due_windows)
    sent: Dict[Tuple[str, int], Tuple[float, float]] = {}
    receiver.start()
    wall_unix0 = time.time()
    cpu0, worker_cpu0 = time.process_time(), process_cpu_s(worker_pid)
    start = time.perf_counter() + 0.02
    for offset, s, index in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sid = stack.sessions[s]
        began = time.perf_counter()
        client.send_raw(sid, frames[s][index], frame_id=index)
        spans.add("netfront.send_raw", began, time.perf_counter(),
                  f"{sid}#{index}")
        sent[(sid, index)] = (due, began)
    receiver.deadline = time.perf_counter() + LIVE_GRACE_S
    receiver.join()
    end = receiver.arrivals[-1] if receiver.arrivals else time.perf_counter()
    cpu_s = (time.process_time() - cpu0) + (
        process_cpu_s(worker_pid) - worker_cpu0
    )
    wall_unix1 = time.time()
    peak_rss = own_peak_rss_mb() + process_peak_rss_mb(worker_pid)

    stream_of = {sid: s for s, sid in enumerate(stack.sessions)}
    latency_of: Dict[Tuple[str, int], float] = {}
    client_side = []
    served = {}
    for pose, arrival in zip(client.poses[receiver.base:],
                             receiver.arrivals):
        key = (pose.session_id, pose.frame_id)
        due, began = sent[key]
        latency_of[key] = arrival - due
        client_side.append(arrival - began)
        served[(stream_of[pose.session_id], pose.frame_id)] = pose.joints
    latencies = list(latency_of.values())
    waited_s = time.perf_counter() - start
    chunks = _chunked([
        latency_of.get((stack.sessions[s], index), waited_s)
        for _, s, index in schedule if index >= st - 1
    ], LIVE_CHUNK)
    lags = [began - due for due, began in sent.values()]
    errors = list(client.errors)
    report = stack.stop()
    after = _ledger(gateway) if spans.enabled else None
    worker_spans = gateway.trace_records() if spans.enabled else []

    reference = reference_poses(
        radar, dsp, model, MODEL_SEED,
        lambda s: frames[s], range(LIVE_SESSIONS),
    )
    correct, missing = count_matching(served, reference)
    frames_sent = len(sent) + len(probe)
    accounting_ok = (
        report.get("lost_clean_frames") == 0
        and frames_sent
        == report.get("frames_acked", -1) + report.get("dead_letters", 0)
    )
    extra = len(set(served) - set(reference))
    e2e = {
        "setup_s": setup_s,
        "poses_per_s": ratio(len(latencies), end - start),
        **_latency_metrics(chunks, period),
        "success_ratio": ratio(correct, due_windows),
        "cpu_ms_per_pose": 1e3 * ratio(cpu_s, len(latencies)),
        "peak_rss_mb": peak_rss,
    }
    e2e_mean_ms = 1e3 * float(np.mean(latencies)) if latencies else 0.0
    result = PassResult(
        e2e=e2e,
        attempted=due_windows,
        failed=due_windows - correct,
        correct=(
            correct == due_windows and not extra and accounting_ok
            and not errors
        ),
        e2e_mean_ms=e2e_mean_ms,
        diagnostics={
            "latency": _diagnostic_latency(latencies, chunks),
            "generator_lag_ms": {
                "p50": percentile_ms(lags, 50.0),
                "p99": percentile_ms(lags, 99.0),
                "max": 1e3 * max(lags),
            },
            "offered_frames_per_s": LIVE_SESSIONS / period,
            "chunk_p50_ms": [
                round(percentile_ms(chunk, 50.0), 3) for chunk in chunks
            ],
            "chunk_p90_ms": [
                round(percentile_ms(chunk, 90.0), 3) for chunk in chunks
            ],
            "missing_poses": missing,
            "unexpected_poses": extra,
            "client_errors": len(errors),
            "accounting": report,
        },
    )
    if spans.enabled:
        _live_layers(
            result, spans, before, after, worker_spans, worker_pid,
            (wall_unix0, wall_unix1), client_side, lags, errors, report,
            frames_sent, end - start,
        )
    return result


def _live_layers(
    result, spans, before, after, worker_spans, worker_pid, wall_unix,
    client_side, lags, errors, report, frames_sent, window_s,
):
    def stage(name: str) -> float:
        return 1e3 * window_mean(
            before["stages"].get(name), after["stages"].get(name)
        )

    def gauge(name: str) -> float:
        return after["gauges"].get(name, 0.0) - before["gauges"].get(
            name, 0.0
        )

    poses = gauge("workers.poses")
    hits, misses = gauge("workers.cache_hits"), gauge("workers.cache_misses")
    _, forward_s = window_delta(
        before["stages"].get("forward"), after["stages"].get("forward")
    )
    ring_frames, _ = window_delta(
        before["stages"].get("ring_wait"), after["stages"].get("ring_wait")
    )
    dsp_ms = _span_means(
        worker_spans, worker_pid, wall_unix,
        ["dsp.cube.build"] + [f"dsp.{name}" for name in DSP_STAGES],
    )
    gateway_e2e = stage("e2e")
    hop = 1e3 * float(np.mean(client_side)) - gateway_e2e
    layers = result.layers
    layers.update({
        "netfront.connect_ms": spans.median_ms("netfront.connect"),
        "netfront.send_ms": spans.mean_ms("netfront.send_raw"),
        "netfront.hop_ms": hop,
        "netfront.failed": ratio(
            len(errors) + report.get("frames_rejected", 0)
            + report.get("poses_shed", 0)
            + report.get("protocol_errors", 0),
            frames_sent,
        ),
        "gateway.submit_ms": stage("submit"),
        "gateway.ring_wait_ms": stage("ring_wait"),
        "gateway.ingest_ms": stage("ingest"),
        "gateway.pose_return_ms": stage("pose_return"),
        "gateway.e2e_ms": gateway_e2e,
        # Little's law: arrival rate times mean time in the ring.
        "gateway.ring_occupancy": ratio(ring_frames, window_s)
        * stage("ring_wait") / 1e3,
        "gateway.worker_restarts": report.get("worker_restarts", 0),
        "gateway.dead_letters": report.get("dead_letters", 0),
        "serving.submit_ms": stage("ingest"),
        "serving.step_ms": stage("forward"),
        "serving.batch_size": ratio(poses, gauge("workers.batches")),
        "serving.batch_wait_ms": stage("batch_wait"),
        "serving.cache_hit_ratio": ratio(hits, hits + misses),
        "serving.quarantined": gauge("workers.quarantined")
        + gauge("workers.frames_quarantined"),
        "dsp.frame_ms": dsp_ms["dsp.cube.build"],
        **{f"dsp.{name}_ms": dsp_ms[f"dsp.{name}"] for name in DSP_STAGES},
        "model.forward_ms_per_pose": 1e3 * ratio(forward_s, poses),
    })
    lag_ms = 1e3 * float(np.mean(lags))
    result.rows = [
        ("client.lag", lag_ms, 0),
        ("netfront.hop", hop, 0),
        ("gateway.submit", stage("submit"), 1),
        ("gateway.ring_wait", stage("ring_wait"), 0),
        ("gateway.ingest", stage("ingest"), 0),
        *[(f"dsp.{name}", dsp_ms[f"dsp.{name}"], 1) for name in DSP_STAGES],
        ("gateway.batch_wait", stage("batch_wait"), 0),
        ("gateway.forward", stage("forward"), 0),
        ("gateway.pose_return", stage("pose_return"), 0),
    ]


def _span_means(records, pid, wall_unix, names) -> Dict[str, float]:
    """Mean duration in ms of the named spans process ``pid`` finished
    inside the wall-clock window."""
    start, end = wall_unix
    durations: Dict[str, List[float]] = {name: [] for name in names}
    for record in records:
        name = record.get("name")
        if (
            name in durations and record.get("pid") == pid
            and start <= record.get("start_unix", 0.0) <= end
        ):
            durations[name].append(record["duration_s"])
    return {
        name: 1e3 * float(np.mean(values)) if values else 0.0
        for name, values in durations.items()
    }


# ----------------------------------------------------------------------
# burst_batch: in-process InferenceServer, 16 sessions, B = 16
# ----------------------------------------------------------------------
def run_burst_batch(
    configs: Configs, source: FrameSource, seconds: float, spans: Spans
) -> PassResult:
    radar, dsp, model = configs
    st = dsp.segment_frames
    probes = [
        source.frames(PROBE_STREAM + s, 0, st) for s in range(BURST_SESSIONS)
    ]

    def build():
        server = InferenceServer(
            CubeBuilder(radar, dsp),
            HandJointRegressor(dsp, model, seed=MODEL_SEED),
            ServingConfig(max_batch_size=BURST_SESSIONS),
        )
        sessions = [
            server.open_session(f"s{s}") for s in range(BURST_SESSIONS)
        ]
        # The first served batch is a full one of distinct windows, so
        # the B=16 plan is built during set-up, as a server that serves
        # bursts would.
        probe_sids = [
            server.open_session(f"probe{s}") for s in range(BURST_SESSIONS)
        ]
        for index in range(st):
            for sid, frames in zip(probe_sids, probes):
                server.submit(sid, frames[index])
        if len(server.drain()) != BURST_SESSIONS:
            raise RuntimeError("set-up probe batch was not served")
        return server, sessions

    setup_s, (server, sessions) = _median_setup(build, lambda _: None)
    before = server.stats() if spans.enabled else None
    served: Dict[Tuple[int, int], np.ndarray] = {}
    latencies: List[float] = []
    # Rounds that owe a pose per session: (busy s, cpu s, latencies).
    due_rounds: List[Tuple[float, float, List[Optional[float]]]] = []
    busy_s = 0.0
    rounds = 0
    while busy_s < seconds:
        frames = [source.frame(s, rounds) for s in range(BURST_SESSIONS)]
        cpu0 = time.process_time()
        began = time.perf_counter()
        starts = {}
        for s, sid in enumerate(sessions):
            starts[sid] = time.perf_counter()
            server.submit(sid, frames[s])
            spans.add("serving.submit", starts[sid], time.perf_counter(),
                      f"{sid}#{rounds}")
        drained = time.perf_counter()
        results = server.drain()
        done = time.perf_counter()
        cpu_s = time.process_time() - cpu0
        busy_s += done - began
        spans.add("serving.drain", drained, done, f"round#{rounds}")
        latency_of = {}
        for result in results:
            latency_of[result.session_id] = done - starts[result.session_id]
            served[(int(result.session_id[1:]), result.frame_index)] = (
                result.joints
            )
        latencies.extend(latency_of.values())
        if rounds >= st - 1:
            due_rounds.append((
                done - began, cpu_s,
                [latency_of.get(sid) for sid in sessions],
            ))
        rounds += 1
    after = server.stats() if spans.enabled else None
    peak_rss = own_peak_rss_mb()

    reference = reference_poses(
        radar, dsp, model, MODEL_SEED,
        lambda s: source.frames(s, 0, rounds), range(BURST_SESSIONS),
    )
    due_windows = len(reference)
    correct, missing = count_matching(served, reference)
    extra = len(set(served) - set(reference))
    e2e_mean_ms = 1e3 * float(np.mean(latencies)) if latencies else 0.0
    # A round carries one frame of every session; a pose is on time when
    # it arrives within one segment (st frame periods) of its frame.
    deadline_s = st * radar.frame_period_s
    # Throughput and CPU are medians over chunks of rounds, for the
    # same reason as the latency percentiles.
    chunks = _chunked(due_rounds, BURST_CHUNK_ROUNDS)
    per_chunk = [
        (
            sum(1 for r in chunk for v in r[2] if v is not None),
            sum(r[0] for r in chunk),
            sum(r[1] for r in chunk),
        )
        for chunk in chunks
    ]
    latency_chunks = [
        [busy_s if v is None else v for r in chunk for v in r[2]]
        for chunk in chunks
    ]
    result = PassResult(
        e2e={
            "setup_s": setup_s,
            "poses_per_s": float(np.median(
                [ratio(poses, busy) for poses, busy, _ in per_chunk]
            )),
            **_latency_metrics(latency_chunks, deadline_s),
            "success_ratio": ratio(correct, due_windows),
            "cpu_ms_per_pose": 1e3 * float(np.median(
                [ratio(cpu, poses) for poses, _, cpu in per_chunk]
            )),
            "peak_rss_mb": peak_rss,
        },
        attempted=due_windows,
        failed=due_windows - correct,
        correct=correct == due_windows and not extra,
        e2e_mean_ms=e2e_mean_ms,
        diagnostics={
            "latency": _diagnostic_latency(latencies, latency_chunks),
            "rounds": rounds,
            "chunk_poses_per_s": [
                round(ratio(poses, busy), 3) for poses, busy, _ in per_chunk
            ],
            "missing_poses": missing,
            "unexpected_poses": extra,
        },
    )
    if spans.enabled:
        _burst_layers(result, spans, before, after)
    return result


def _burst_layers(result, spans, before, after):
    def hist(name: str) -> float:
        return window_mean(
            before["histograms"].get(name), after["histograms"].get(name)
        )

    def hist_ms(name: str) -> float:
        return 1e3 * hist(name)

    def counter(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(
            name, 0
        )

    poses = counter("poses")
    hits, misses = counter("cache_hits"), counter("cache_misses")
    batches = counter("batches")
    step_ms = 1e3 * ratio(spans.total_s("serving.drain"), batches)
    result.layers.update({
        "serving.submit_ms": spans.mean_ms("serving.submit"),
        "serving.step_ms": step_ms,
        "serving.batch_size": hist("batch_size"),
        "serving.batch_wait_ms": hist_ms("stage.batch_wait_s"),
        "serving.cache_hit_ratio": ratio(hits, hits + misses),
        "serving.quarantined": counter("quarantined")
        + counter("frames_quarantined"),
        "dsp.frame_ms": hist_ms("preprocess_s"),
        **{
            f"dsp.{name}_ms": hist_ms(f"preprocess_{name}_s")
            for name in DSP_STAGES
        },
        "model.forward_ms_per_pose": 1e3 * ratio(
            window_delta(
                before["histograms"].get("stage.forward_s"),
                after["histograms"].get("stage.forward_s"),
            )[1],
            poses,
        ),
    })
    result.rows = [
        ("serving.submit", spans.mean_ms("serving.submit"), 0),
        *[(f"dsp.{name}", hist_ms(f"preprocess_{name}_s"), 1)
          for name in DSP_STAGES],
        ("serving.batch_wait", hist_ms("stage.batch_wait_s"), 0),
        ("serving.step", step_ms, 0),
        ("serving.forward", hist_ms("stage.forward_s"), 1),
    ]


# ----------------------------------------------------------------------
# offline_capture: MmHand.process over recorded 64-frame captures
# ----------------------------------------------------------------------
def run_offline_capture(
    configs: Configs, source: FrameSource, seconds: float, spans: Spans
) -> PassResult:
    radar, dsp, model = configs
    st = dsp.segment_frames
    probe = source.frames(PROBE_STREAM, 0, st)

    def build() -> MmHand:
        # The mesh reconstructor stays unfitted: fitting takes tens of
        # seconds and mesh compute does not depend on the fitted weights.
        system = MmHand(
            SystemConfig(radar=radar, dsp=dsp, model=model),
            regressor=HandJointRegressor(dsp, model, seed=MODEL_SEED),
        )
        if not system.process(probe).meshes:
            raise RuntimeError("set-up probe returned no mesh")
        return system

    setup_s, system = _median_setup(build, lambda _: None)
    template_vertices = system.reconstructor.hand_model.num_vertices
    dsp_before = _dsp_histograms() if spans.enabled else None
    latencies: List[float] = []
    # Per capture: poses per second and CPU ms per pose.
    rates: List[float] = []
    cpu_per_pose: List[float] = []
    forward_s: List[float] = []
    mesh_s: List[float] = []
    busy_s = 0.0
    segments_due = meshes_ok = skeletons = 0
    captures = 0
    while busy_s < seconds:
        raw = source.frames(CAPTURE_STREAM + captures, 0, CAPTURE_FRAMES)
        cpu0 = time.process_time()
        began = time.perf_counter()
        if spans.enabled:
            key = f"capture#{captures}"
            segments = system.preprocess(raw)
            t1 = time.perf_counter()
            joints, skeleton_times = system.estimate_skeletons(segments)
            t2 = time.perf_counter()
            meshes, mesh_times = system.reconstruct_meshes(joints)
            done = time.perf_counter()
            spans.add("pipeline.preprocess", began, t1, key)
            spans.add("pipeline.skeleton", t1, t2, key)
            spans.add("pipeline.mesh", t2, done, key)
            forward_s.extend(skeleton_times)
            mesh_s.extend(mesh_times)
        else:
            output = system.process(raw)
            done = time.perf_counter()
            joints, meshes = output.skeletons, output.meshes
        cpu_s = time.process_time() - cpu0
        busy_s += done - began
        latencies.append(done - began)
        rates.append(len(joints) / (done - began))
        cpu_per_pose.append(1e3 * ratio(cpu_s, len(joints)))
        segments_due += CAPTURE_FRAMES // st
        skeletons += len(joints)
        meshes_ok += sum(
            1 for skeleton, mesh in zip(joints, meshes)
            if mesh_ok(mesh.vertices, template_vertices)
            and np.all(np.isfinite(skeleton))
        )
        captures += 1
    peak_rss = own_peak_rss_mb()
    # A capture is on time when it is processed within its own duration.
    deadline_s = CAPTURE_FRAMES * radar.frame_period_s
    result = PassResult(
        e2e={
            "setup_s": setup_s,
            "poses_per_s": float(np.median(rates)),
            **_latency_metrics([latencies], deadline_s),
            "success_ratio": ratio(meshes_ok, segments_due),
            "cpu_ms_per_pose": float(np.median(cpu_per_pose)),
            "peak_rss_mb": peak_rss,
        },
        attempted=segments_due,
        failed=segments_due - meshes_ok,
        correct=meshes_ok == segments_due,
        e2e_mean_ms=1e3 * float(np.mean(latencies)),
        diagnostics={
            "latency": _diagnostic_latency(latencies, [latencies]),
            "captures": captures,
            "capture_poses_per_s": [round(rate, 3) for rate in rates],
            "template_vertices": template_vertices,
        },
    )
    if spans.enabled:
        dsp_after = _dsp_histograms()
        frames = captures * CAPTURE_FRAMES
        preprocess = spans.mean_ms("pipeline.preprocess")
        skeleton = spans.mean_ms("pipeline.skeleton")
        mesh = spans.mean_ms("pipeline.mesh")
        stage_ms = {
            name: 1e3 * ratio(
                dsp_after[name]["sum"] - dsp_before[name]["sum"], frames
            )
            for name in DSP_STAGES
        }
        result.layers.update({
            "dsp.frame_ms": preprocess / CAPTURE_FRAMES,
            **{f"dsp.{name}_ms": stage_ms[name] for name in DSP_STAGES},
            "model.forward_ms_per_pose": 1e3 * float(np.mean(forward_s)),
            "mesh.reconstruct_ms": 1e3 * float(np.mean(mesh_s)),
            "pipeline.preprocess_ms": preprocess,
            "pipeline.skeleton_ms": skeleton,
            "pipeline.mesh_ms": mesh,
        })
        result.rows = [
            ("pipeline.preprocess", preprocess, 0),
            *[(f"dsp.{name} x{CAPTURE_FRAMES}",
               stage_ms[name] * CAPTURE_FRAMES, 1) for name in DSP_STAGES],
            ("pipeline.skeleton", skeleton, 0),
            ("pipeline.mesh", mesh, 0),
        ]
    return result


def _dsp_histograms() -> Dict[str, Dict[str, float]]:
    """The process-wide per-stage DSP histograms CubeBuilder feeds."""
    return {
        name: obs_metrics.histogram(f"dsp.cube.{name}_s").summary()
        for name in DSP_STAGES
    }


WORKLOADS: Dict[str, Callable[..., PassResult]] = {
    "live_raw": run_live_raw,
    "burst_batch": run_burst_batch,
    "offline_capture": run_offline_capture,
}
