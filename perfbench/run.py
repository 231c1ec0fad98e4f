"""Run one benchmark workload, or all of them, and report its metrics.

    python3 perfbench/run.py --workload campaign_x20 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the last line of standard output is one JSON object
carrying the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics of a separate traced
pass.  The line before it is the full record: the run's context,
output digest, and the workload's own metrics with sample counts.
``--workload all`` runs every workload in a fresh process, prints a
table, and exits non-zero if any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("campaign_x20", "metro_x100", "serve_x20", "sweep_2w")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _finite(value: Any) -> Any:
    """JSON has no infinity: a latency that failed reads ``null``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import campaign, serve, sweep
    from perfbench.common import run_record

    runner = {
        "campaign_x20": campaign.run,
        "metro_x100": campaign.run,
        "serve_x20": serve.run,
        "sweep_2w": sweep.run,
    }[name]
    outcome = runner(name, seed, seconds, trace)

    if trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        produced = outcome.per_layer
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        produced = outcome.end_to_end
    units = {
        m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]
    }
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in wanted:
        if metric in produced:
            value = _finite(produced[metric]["value"])
        elif trace:
            # A layer this workload does not exercise: nothing measured.
            value = 0
        else:
            raise RuntimeError(f"{name} did not report {metric}")
        metrics[metric] = {"value": value, "unit": units[metric]}

    correct = not outcome.problems and outcome.failed == 0
    record = {
        "run": run_record(seed, seconds, trace),
        "correct": correct,
        "problems": outcome.problems,
        "digest": outcome.digest,
        "end_to_end": outcome.end_to_end,
        "record": outcome.record,
        "per_layer": outcome.per_layer,
    }
    for problem in outcome.problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    print(json.dumps(_finite(record), allow_nan=False))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            },
            allow_nan=False,
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of the results."""
    all_correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            record, result = (json.loads(line) for line in lines[-2:])
        except ValueError:
            record = result = None
        if result is None:
            all_correct = False
            print(f"{name}: no result (exit {proc.returncode})")
            sys.stderr.write(proc.stderr)
            continue
        all_correct &= bool(result["correct"]) and proc.returncode == 0
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        # The gated metrics, then the workload's own from the record.
        shown = dict(result["metrics"])
        for metric, entry in record["record"].items():
            if isinstance(entry, dict) and "unit" in entry:
                shown.setdefault(metric, entry)
        for metric, entry in shown.items():
            value = entry["value"]
            text = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:<40} {text:>14} {entry['unit']}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
    return 0 if all_correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a repository benchmark workload."
    )
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured window (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program source under {ROOT / 'src'}")
    if not SPEC_PATH.is_file():
        return _fail(f"missing {SPEC_PATH.name}")
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC_PATH.read_text())["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
