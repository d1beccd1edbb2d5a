"""Clocks, resource readings, span recording and provenance."""

from __future__ import annotations

import json
import os
import platform
import resource
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.bench import bench_provenance

# Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
# The benchmark records them and never sets them.
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat") as fh:
        # Field 2 (comm) may hold spaces; the rest follows its ')'.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """``q``-th percentile of latencies given in seconds, in ms."""
    return float(np.percentile(np.asarray(latencies_s) * 1e3, q))


class Spans:
    """Spans recorded around the benchmark's own calls into each layer.

    Kept in memory while the workload runs and written out at the end.
    A disabled recorder (the untraced pass) stores nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._records: List[tuple] = []

    def add(
        self, name: str, start: float, end: float, key: str = ""
    ) -> None:
        """One finished span: ``name`` over perf_counter ``start..end``;
        spans of one request share ``key``."""
        if self.enabled:
            self._records.append((name, start, end, key))

    def durations_s(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self._records
                if n == name]

    def mean_ms(self, name: str) -> float:
        values = self.durations_s(name)
        return 1e3 * float(np.mean(values)) if values else 0.0

    def median_ms(self, name: str) -> float:
        values = self.durations_s(name)
        return 1e3 * float(np.median(values)) if values else 0.0

    def total_s(self, name: str) -> float:
        return float(sum(self.durations_s(name)))

    def write_chrome(self, path: str, process_name: str) -> str:
        """Write the spans as a Chrome trace-event file."""
        origin = min((r[1] for r in self._records), default=0.0)
        events: List[Dict[str, Any]] = [{
            "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
            "args": {"name": process_name},
        }]
        for name, start, end, key in self._records:
            events.append({
                "ph": "X", "name": name, "pid": 0, "tid": 0,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"key": key} if key else {},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
        return path


def provenance(
    workload: str, seed: int, seconds: int, trace: bool,
    configs: Iterable[Any],
) -> Dict[str, Any]:
    """Host, BLAS threading, numpy version, seed, git SHA and config
    hash of one run."""
    summary: Dict[str, Any] = {
        "benchmark": "perfbench",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "configs": repr(tuple(configs)),
    }
    info = bench_provenance(summary)
    info.update({
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_env": {
            name: os.environ[name] for name in BLAS_ENV
            if name in os.environ
        },
        "machine": platform.machine(),
    })
    return info


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def window_delta(
    before: Optional[Dict[str, float]], after: Optional[Dict[str, float]]
) -> Tuple[float, float]:
    """``(count, sum)`` a count/sum summary gained between two
    snapshots."""
    after = after or {}
    before = before or {}
    return (
        after.get("count", 0) - before.get("count", 0),
        after.get("sum", 0.0) - before.get("sum", 0.0),
    )


def window_mean(
    before: Optional[Dict[str, float]], after: Optional[Dict[str, float]]
) -> float:
    """Mean of the observations a summary gained between snapshots."""
    count, total = window_delta(before, after)
    return total / count if count else 0.0
