"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.config import DspConfig, ModelConfig, RadarConfig  # noqa: E402

from perfbench import checks, run, workloads  # noqa: E402
from perfbench.inputs import FrameSource  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

CONFIGS = (RadarConfig(), DspConfig(), ModelConfig())


def _declared(section: str):
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


def _run(*args: str, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_metric_tables_match_benchmark_json():
    assert workloads.E2E_UNITS == _declared("end_to_end")
    assert workloads.LAYER_UNITS == _declared("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(
        run.WORKLOAD_NAMES
    )
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    if trace == "1":
        assert values["serving.cache_hit_ratio"] == 0.0
        assert abs(values["trace.residual_pct"]) < 10.0
    else:
        assert values["success_ratio"] == 1.0
        assert all(values[name] > 0 for name in declared)


def test_frames_are_seeded_and_never_repeat():
    radar = CONFIGS[0]
    source = FrameSource(radar, seed=5, clips=1, clip_frames=8)
    again = FrameSource(radar, seed=5, clips=1, clip_frames=8)
    np.testing.assert_array_equal(source.frame(0, 3), again.frame(0, 3))
    # Same clip frame (index 3 and 3 + clip length), fresh noise.
    assert not np.array_equal(source.frame(0, 3), source.frame(0, 11))
    other = FrameSource(radar, seed=6, clips=1, clip_frames=8)
    assert not np.array_equal(source.frame(0, 3), other.frame(0, 3))


def test_perturbed_pose_trips_the_check():
    radar, dsp, model = CONFIGS
    source = FrameSource(radar, seed=1, clips=1, clip_frames=8)
    frames = {0: source.frames(0, 0, 6)}
    reference = checks.reference_poses(
        radar, dsp, model, workloads.MODEL_SEED, frames.__getitem__, [0],
    )
    assert len(reference) == 6 - dsp.segment_frames + 1
    served = {key: joints.copy() for key, joints in reference.items()}
    assert checks.count_matching(served, reference) == (len(reference), 0)
    key = next(iter(served))
    served[key][5, 1] += 1e-3
    assert checks.count_matching(served, reference) == (
        len(reference) - 1, 0
    )
    del served[key]
    assert checks.count_matching(served, reference) == (
        len(reference) - 1, 1
    )


def test_mesh_check_rejects_bad_meshes():
    good = np.zeros((549, 3))
    assert checks.mesh_ok(good, 549)
    assert not checks.mesh_ok(good[:-1], 549)
    bad = good.copy()
    bad[7, 2] = np.nan
    assert not checks.mesh_ok(bad, 549)


def test_wrong_pose_fails_the_run(monkeypatch, capsys):
    """A served pose that differs from the reference makes the run
    report ``correct: false`` and exit non-zero."""
    real = workloads.reference_poses

    def perturbed(*args, **kwargs):
        poses = real(*args, **kwargs)
        key = next(iter(poses))
        poses[key] = poses[key] + 1e-3
        return poses

    monkeypatch.setattr(workloads, "reference_poses", perturbed)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", os.path.dirname(ROOT))
    code = run.main(["--workload", "burst_batch", "--seed", "2",
                     "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = _run("--workload", "live_raw", "--seed", "1", "--seconds", "1",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""



def _live_children():
    """Pids of this process's children that have not exited."""
    pids = []
    for task in os.listdir(f"/proc/{os.getpid()}/task"):
        with open(f"/proc/{os.getpid()}/task/{task}/children") as fh:
            pids.extend(int(pid) for pid in fh.read().split())
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            alive.append(pid)
    return alive


def test_live_run_leaves_no_process_behind(monkeypatch, capsys):
    """Gateway workers and the shared-memory resource tracker have all
    ended by the time the benchmark returns."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", os.path.dirname(ROOT))
    code = run.main(["--workload", "live_raw", "--seed", "1",
                     "--seconds", "0.5"])
    assert code == 0, capsys.readouterr().out[-4000:]
    assert _live_children() == []
