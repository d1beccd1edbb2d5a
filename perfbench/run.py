"""Served-path benchmark: raw IF frames to poses at the default config.

Run from the root of a checkout::

    python3 perfbench/run.py --workload live_raw --seed 1 --seconds 10 --trace 0

Workloads (see README.md): ``live_raw``, ``burst_batch``,
``offline_capture``. With ``--trace 0`` the last line of standard output
is a JSON object holding every end-to-end metric; with ``--trace 1`` the
workload runs once untraced and once traced, and the JSON holds every
per-layer metric. The exit code is 0 only when every output was
correct; it is 2 when the checkout holds no ``src/repro`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("live_raw", "burst_batch", "offline_capture")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_program():
    """Put the checkout's ``src`` first on the path and import it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise FileNotFoundError(f"no repro package under {src}")
    sys.path[:0] = [src, ROOT]
    # bench_provenance asks git for the commit: never look above the
    # checkout for a repository, nor read system or user git config.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    os.environ["GIT_CONFIG_NOSYSTEM"] = "1"
    os.environ["GIT_CONFIG_GLOBAL"] = os.devnull
    import repro  # noqa: F401  (fails fast on a broken checkout)

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}")


def _stage_table(name: str, result) -> Dict[str, float]:
    """Print the stage table of a traced pass; returns the residual."""
    top = sum(mean for _, mean, depth in result.rows if depth == 0)
    residual = result.e2e_mean_ms - top
    print(f"stage rows ({name}, mean ms per result):")
    for row, mean, depth in result.rows:
        print(f"  {'  ' * depth}{row:<28s}{mean:10.4f}")
    print(f"  {'sum of top-level rows':<28s}{top:10.4f}")
    print(f"  {'e2e mean':<28s}{result.e2e_mean_ms:10.4f}")
    print(f"  {'residual':<28s}{residual:10.4f}"
          f"  ({100.0 * residual / result.e2e_mean_ms:+.2f}%)")
    return {
        "trace.e2e_mean_ms": result.e2e_mean_ms,
        "trace.residual_pct": 100.0 * residual / result.e2e_mean_ms,
    }


def _reap_children() -> None:
    """Wait for every process the run started.

    Gateway workers are joined by ``Gateway.shutdown``; this also ends
    any straggler and stops the multiprocessing resource tracker, which
    the shared-memory rings start and which would otherwise outlive
    this process until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return _run(args)
    finally:
        _reap_children()


def _run(args: argparse.Namespace) -> int:
    try:
        _import_program()
    except (ImportError, FileNotFoundError) as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2

    from repro.config import DspConfig, ModelConfig, RadarConfig

    from perfbench.inputs import FrameSource
    from perfbench.measure import Spans, provenance
    from perfbench.workloads import E2E_UNITS, LAYER_UNITS, WORKLOADS

    configs = (RadarConfig(), DspConfig(), ModelConfig())
    source = FrameSource(configs[0], args.seed)
    run = WORKLOADS[args.workload]
    passes = [run(configs, source, args.seconds, Spans(False))]
    if args.trace:
        spans = Spans(True)
        passes.append(run(configs, source, args.seconds, spans))

    info = provenance(
        args.workload, args.seed, args.seconds, bool(args.trace), configs
    )
    print("provenance: " + json.dumps(info, sort_keys=True))
    for label, result in zip(("untraced", "traced"), passes):
        print(f"{label} pass, end-to-end:")
        for name, value in result.e2e.items():
            print(f"  {name:<18s}{value:14.6f} {E2E_UNITS[name]}")
        print(f"  diagnostics: {json.dumps(result.diagnostics)}")

    units = E2E_UNITS
    values: Dict[str, Any] = dict(passes[0].e2e)
    if args.trace:
        plain, traced = passes
        units = LAYER_UNITS
        values = {name: 0.0 for name in LAYER_UNITS}
        values.update(traced.layers)
        values.update(_stage_table(args.workload, traced))
        values["trace.overhead_pct"] = 100.0 * (
            traced.e2e_mean_ms / plain.e2e_mean_ms - 1.0
        )
        path = os.path.join(
            ROOT, ".perfbench", f"{args.workload}-seed{args.seed}.trace.json"
        )
        print(f"spans written to {spans.write_chrome(path, args.workload)}")
        print("per-layer:")
        for name in LAYER_UNITS:
            print(f"  {name:<28s}{values[name]:14.6f} {LAYER_UNITS[name]}")

    correct = all(result.correct for result in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result.attempted for result in passes),
        "failed": sum(result.failed for result in passes),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
