"""``sweep_2w``: a campaign sweep dispatched to two ``repro worker`` processes.

A :class:`SweepDispatcher` in this process dials two localhost
``repro worker --listen`` processes, one campaign job each, and hands
them a sweep of small two-city campaigns (Manhattan and SF, 16
clients, half an hour each).  The same workers serve every sweep of
the window; the first campaign each runs happens during set-up, so the
window never pays for starting a worker's campaign process.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.parallel import wire
from repro.parallel.cluster import SweepDispatcher, parse_hostport
from repro.parallel.orchestrator import (
    CITY_CONFIGS,
    CampaignOutcome,
    CampaignSpec,
)

from perfbench.common import (
    Outcome,
    clock,
    scalar,
    subprocess_env,
    timed_setups,
    timing,
)
from perfbench.stats import quantile_or_none
from perfbench.tracer import Tracer

WORKERS = 2
#: SF campaigns run longer (a 58 % larger fleet), so they are handed
#: out first: longest-first keeps the sweep's last campaign short.
CITIES = ("sf", "manhattan")
SEEDS_PER_CITY = 4
HOURS = 0.5
CLIENTS = 16
#: The set-up sweep: one tiny campaign per worker.
WARM_HOURS = 0.01
_TIMEOUT_S = 60.0
#: How long interrupted workers get to exit before they are killed.
_STOP_TIMEOUT_S = 10.0


def sweep_specs(seed: int) -> List[CampaignSpec]:
    return [
        CampaignSpec(
            key=f"{city}-s{seed * SEEDS_PER_CITY + i}",
            city=city,
            seed=seed * SEEDS_PER_CITY + i,
            hours=HOURS,
            max_clients=CLIENTS,
        )
        for city in CITIES
        for i in range(SEEDS_PER_CITY)
    ]


def _proc_status(pid: int, field: str) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def _descendants(pid: int) -> List[int]:
    """*pid*'s live descendants, from ``/proc``."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


def _default_sigint() -> None:
    """Let a worker take SIGINT as the interrupt it shuts down on, even
    when this process was started with SIGINT ignored (as background
    jobs of a non-interactive shell are)."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class WorkerFleet:
    """Two listening workers with their campaign processes started."""

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []
        self.addresses: List[Tuple[str, int]] = []
        try:
            for _ in range(WORKERS):
                self.procs.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro.cli", "worker",
                         "--listen", "127.0.0.1:0", "--jobs", "1"],
                        stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL,
                        text=True,
                        env=subprocess_env(),
                        preexec_fn=_default_sigint,
                    )
                )
            for proc in self.procs:
                assert proc.stdout is not None
                ready, _, _ = select.select([proc.stdout], [], [], _TIMEOUT_S)
                line = proc.stdout.readline() if ready else ""
                if "listening on " not in line:
                    raise RuntimeError(f"worker failed to start: {line!r}")
                address = line.split("listening on ")[1].split()[0]
                self.addresses.append(parse_hostport(address))
            warm = [
                CampaignSpec(key=f"warm-{i}", city="manhattan", seed=i,
                             hours=WARM_HOURS, max_clients=CLIENTS)
                for i in range(WORKERS)
            ]
            outcomes, _ = asyncio.run(dispatch(warm, self.addresses))
            if not all(o.ok for o in outcomes):
                raise RuntimeError("set-up sweep failed")
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        """Largest peak RSS among the workers and their children."""
        pids = [p.pid for p in self.procs]
        for proc in self.procs:
            pids.extend(_descendants(proc.pid))
        peaks = [_proc_status(pid, "VmHWM") for pid in pids]
        return max(p for p in peaks if p is not None) / 1024.0

    def close(self) -> None:
        """Interrupt the workers; kill what has not ended in time.

        A worker's campaign process is its child, not ours: it is
        polled until gone and killed if its worker left it behind.
        """
        children = [k for p in self.procs for k in _descendants(p.pid)]
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        deadline = clock() + _STOP_TIMEOUT_S
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.0, deadline - clock()))
            except subprocess.TimeoutExpired:
                print(f"perfbench: killing worker {proc.pid}", file=sys.stderr)
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        for pid in children:
            while Path(f"/proc/{pid}").exists() and clock() < deadline:
                time.sleep(0.01)
            if Path(f"/proc/{pid}").exists():
                os.kill(pid, signal.SIGKILL)


async def dispatch(
    specs: Sequence[CampaignSpec], addresses: Sequence[Tuple[str, int]]
) -> Tuple[List[CampaignOutcome], SweepDispatcher]:
    dispatcher = SweepDispatcher(specs)
    try:
        for host, port in addresses:
            await dispatcher.dial(host, port)
        return await dispatcher.outcomes(), dispatcher
    finally:
        await dispatcher.aclose()


def identity_digest(outcomes: Sequence[CampaignOutcome]) -> str:
    blob = json.dumps(
        [o.identity() for o in outcomes], sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def measure(
    fleet: WorkerFleet,
    specs: Sequence[CampaignSpec],
    seconds: float,
    sweeps: Optional[int] = None,
) -> Dict[str, Any]:
    """Run whole sweeps until *seconds* have passed, or *sweeps* of them.

    Every sweep hands out the same specs; throughput is the median of
    the sweeps' rates.
    """
    walls: List[float] = []
    runs: List[Tuple[List[CampaignOutcome], SweepDispatcher]] = []
    start = clock()
    while True:
        t0 = clock()
        runs.append(asyncio.run(dispatch(specs, fleet.addresses)))
        walls.append(clock() - t0)
        if sweeps is not None:
            if len(walls) >= sweeps:
                break
        elif clock() - start >= seconds:
            break
    return {"walls": walls, "runs": runs}


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    specs = sweep_specs(seed)
    tracer: Optional[Tracer] = None
    plain: Optional[Dict[str, Any]] = None
    if trace:
        setup_times: List[float] = []
        fleet = WorkerFleet()
    else:
        fleet, setup_times = timed_setups(WorkerFleet, WorkerFleet.close)
    try:
        if trace:
            # Untraced then traced over as many sweeps: the outcomes
            # must agree, and the wall-time ratio is the overhead.
            plain = measure(fleet, specs, seconds / 2)
            tracer = Tracer()
            tracer.wrap(wire, "write_frame", "parallel.wire_write")
            tracer.wrap(wire, "read_frame", "parallel.wire_read")
            try:
                result = measure(
                    fleet, specs, seconds, sweeps=len(plain["walls"])
                )
            finally:
                tracer.restore()
        else:
            result = measure(fleet, specs, seconds)
        rss = fleet.peak_rss_mb()
    finally:
        fleet.close()

    walls: List[float] = result["walls"]
    problems: List[str] = []
    digests = set()
    attempted = failed = 0
    wall_s: List[float] = []
    for outcomes, _ in result["runs"]:
        attempted += len(outcomes)
        for outcome in outcomes:
            if not outcome.ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{outcome.key}: {outcome.error}")
            elif outcome.wall_s is not None:
                wall_s.append(outcome.wall_s)
        digests.add(identity_digest(outcomes))
    if len(digests) != 1:
        problems.append("sweeps of one run produced different outcomes")
    digest = sorted(digests)[0]
    if plain is not None:
        plain_digests = {identity_digest(o) for o, _ in plain["runs"]}
        if plain_digests != digests:
            problems.append("traced and untraced digests differ")
    outcomes0 = result["runs"][0][0]
    pings = sum(
        o.metrics["rounds"] * o.metrics["clients"]
        for o in outcomes0 if o.ok and o.metrics
    )
    sim_s = len(specs) * HOURS * 3600.0
    metrics = {
        "pings_per_s": scalar(
            statistics.median(pings / wall for wall in walls), "1/s"
        ),
        "setup_s": timing(setup_times, unit="s"),
        "peak_rss_mb": scalar(rss, "MB"),
    }
    record = {
        "workload": name,
        "workers": WORKERS,
        "jobs_per_worker": 1,
        "campaigns_per_sweep": len(specs),
        "campaign_hours": HOURS,
        "clients": CLIENTS,
        "fleet_size": {
            city: sum(CITY_CONFIGS[city](0.25).fleet.values())
            for city in CITIES
        },
        "sweeps": len(walls),
        "sweep_wall_s": timing(walls, unit="s"),
        "window_wall_s": sum(walls),
        "sim_s_per_wall_s": scalar(sim_s * len(walls) / sum(walls), "s/s"),
        "failed_ratio": scalar(failed / max(1, attempted), "ratio"),
    }
    per_layer: Dict[str, Dict[str, Any]] = {}
    if plain is not None and tracer is not None:
        busy = sum(wall_s) / (WORKERS * sum(walls))
        campaign_p50 = quantile_or_none(wall_s, 0.5)
        per_layer = {
            "parallel.campaign_wall_s_p50": scalar(campaign_p50, "s"),
            "parallel.straggler_skew": scalar(
                max(wall_s) / campaign_p50 if campaign_p50 else None,
                "ratio",
            ),
            "parallel.worker_busy_share": scalar(busy, "ratio"),
            "parallel.requeues": scalar(
                sum(d.requeues for _, d in result["runs"]), "count"
            ),
            "parallel.duplicates_dropped": scalar(
                sum(d.duplicates_dropped for _, d in result["runs"]),
                "count",
            ),
            "parallel.wire_frames": scalar(
                len(tracer.spans), "count"
            ),
            "trace.overhead_ratio": scalar(
                sum(walls) / sum(plain["walls"]), "ratio"
            ),
        }
    return Outcome(
        attempted=attempted,
        failed=failed,
        problems=problems,
        digest=digest,
        end_to_end=metrics,
        record=record,
        per_layer=per_layer,
    )
