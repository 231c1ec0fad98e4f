"""Shared plumbing: paths, the run record, set-up timing, result shape."""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from perfbench.stats import quantile, summarize
from perfbench.tracer import Tracer

#: Repository (or benchmark checkout) root: the parent of ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans and other run artefacts; ignored by git.
OUT_DIR = ROOT / "perfbench" / "out"

#: Times each run sets its workload up; ``setup_s`` is their median.
SETUP_REPEATS = 5

clock = time.perf_counter

T = TypeVar("T")


def subprocess_env() -> Dict[str, str]:
    """Environment for child processes: the program's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(
    build: Callable[[], T], discard: Callable[[T], None]
) -> Tuple[T, List[float]]:
    """Set the workload up :data:`SETUP_REPEATS` times; keep the last.

    Earlier set-ups are discarded (and garbage collected) before the
    next starts, so only one is alive at a time.
    """
    times: List[float] = []
    kept: Optional[T] = None
    for attempt in range(SETUP_REPEATS):
        gc.collect()
        start = clock()
        built = build()
        times.append(clock() - start)
        if attempt + 1 < SETUP_REPEATS:
            discard(built)
            del built
        else:
            kept = built
    assert kept is not None
    return kept, times


def commit() -> Optional[str]:
    """The checked-out commit, when the tree is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_record(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Where and how a result was measured."""
    import numpy

    return {
        "commit": commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def timing(values_s: List[float], unit: str = "ms") -> Dict[str, Any]:
    """A timing metric: median value plus its tail and sample count.

    *values_s* are seconds; ``unit`` picks ms or s for the report.
    """
    scale = 1000.0 if unit == "ms" else 1.0
    summary = summarize([v * scale for v in values_s])
    return {
        "value": summary["p50"],
        "unit": unit,
        "n": summary["n"],
        "tail": summary["tail"],
        "tail_value": summary["tail_value"],
    }


def scalar(value: Optional[float], unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def quantile_ms(values_s: Sequence[float], q: float = 0.5) -> Dict[str, Any]:
    """Quantile *q* of *values_s* in ms; 0 when nothing was measured."""
    return scalar(quantile(values_s, q) * 1000.0 if values_s else 0.0, "ms")


def span_ms(
    tracer: Tracer, name: str, q: float = 0.5, self_only: bool = False
) -> Dict[str, Any]:
    """Quantile of span *name*'s durations (or self times) in ms.

    ``None`` when the traced callable no longer exists.
    """
    if name in tracer.missing:
        return scalar(None, "ms")
    spans = tracer.self_times(name) if self_only else tracer.durations(name)
    return quantile_ms(spans, q)


@dataclasses.dataclass
class Outcome:
    """What one workload run hands back to :mod:`perfbench.run`.

    ``end_to_end`` holds the gated metrics every workload reports;
    ``record`` the workload's own metrics (timings with tail and
    sample count); ``per_layer`` the traced run's layer metrics.
    """

    attempted: int
    failed: int
    problems: List[str]
    digest: Optional[str]
    end_to_end: Dict[str, Dict[str, Any]]
    record: Dict[str, Any]
    per_layer: Dict[str, Dict[str, Any]] = dataclasses.field(
        default_factory=dict
    )
