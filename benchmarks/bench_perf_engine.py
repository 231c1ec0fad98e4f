"""Engine/ping throughput across the scalar/vector × brute/index ×
batched/per-client flag matrix.

The engine has three independent performance flags, all of which must
only ever change speed, never behaviour:

* ``use_spatial_index`` (PR 1) — grid indexes behind the k-nearest and
  point→area queries, replacing the seed's linear scans;
* ``use_vectorized_step`` (PR 2) — numpy structure-of-arrays fleet
  stepping (:mod:`repro.marketplace.fleet_array`), replacing per-object
  driver stepping; nearest-k queries are then served straight off the
  arrays, so the per-driver PointIndex is not maintained in this mode;
* ``use_batched_ping`` (PR 4) — whole ping rounds answered in one
  vectorized pass (``PingEndpoint.serve_round`` over
  ``FleetArray.round_nearest``): one distance matrix per (fleet, car
  type) against every ping location, shared top-k/EWT extraction and
  surge-area lookups, per-account jitter resolved once per round.  Only
  takes effect on the vectorized step path.

A separate sweep leg times the process-pool campaign orchestrator
(:func:`repro.parallel.run_sweep`): four independent campaigns (two
seeds × two cities) sequentially vs in parallel, with a truth-digest
cross-check that the two orders produce bit-identical campaigns.

This bench times the interesting legs on a 6-hour Manhattan scenario
where every 5-second engine tick is followed by a full ping round (each
fleet client pings every car type, exactly as `pingClient` was driven in
§3.2; rounds are served through ``serve_round``, which the per-client
legs answer with N independent pings).  Metrics per leg:

* ``engine_ticks_per_s``  — bare simulation ticks (no clients attached);
* ``ping_rounds_per_s``   — full fleet ping rounds served;
* ``campaign_ticks_per_s``— tick + ping round, the end-to-end rate that
  bounds campaign length.

Headline speedups reported:

* ``sweep_parallel_vs_sequential`` — the 4-campaign orchestrator sweep
  vs running the same specs sequentially (target: >= 2x on >= 4 cores);
* ``batched_vs_perclient_ping_rounds`` — the PR 4 headline: batched
  round serving vs the per-client vectorized path (target: >= 1.5x);
* ``vector_vs_scalar_engine_ticks`` — vectorized vs scalar stepping,
  both with their best query path (target: >= 2x);
* ``defaults_vs_seed_campaign`` — all flags on vs all off (>= 4x);
* ``indexed_vs_brute_scalar_campaign`` — the PR 1 comparison, retained.

Each target is recorded in the output JSON under ``thresholds`` with an
``enforced`` bit (the sweep speedup is only enforced on machines with
>= 4 cores; single-core CI still records the numbers).

The same-seed equivalence check at the end re-runs a small scenario in
all eight flag combinations and requires bit-identical
``IntervalTruth`` logs, trip ledgers, ping replies, and engine RNG
state — the flags must never change behaviour.

Run directly (writes ``benchmarks/out/BENCH_perf_engine.json``)::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py [--quick]

``--quick`` shrinks the fleet and tick counts for CI; the marked tier-1
test ``tests/test_perf_regression.py`` drives that mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).parent))

from repro.api.ping import PingEndpoint
from repro.marketplace.config import CityConfig, manhattan_config
from repro.marketplace.engine import MarketplaceEngine
from repro.measurement.placement import place_clients
from repro.parallel.orchestrator import CampaignSpec, run_sweep

OUT_PATH = Path(__file__).parent / "out" / "BENCH_perf_engine.json"
#: CI also wants the result at the repo root (uploaded as the run's
#: headline artifact); ``main`` writes both copies.
ROOT_OUT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_perf_engine.json"
)

#: The scenario the full bench samples from: six simulated hours of
#: midtown Manhattan at 20x the paper-era fleet (6 540 drivers), with
#: demand scaled to match.  Measuring every one of its 4 320 ticks in
#: both modes would take well over an hour, so throughput is measured
#: over a warm slice and the full-scenario wall time is extrapolated.
SCENARIO_HOURS = 6.0
TICK_S = 5.0
FULL_SCALE = 20
FULL_TICKS = 120
QUICK_SCALE = 4
QUICK_TICKS = 10
WARMUP_TICKS = 5


def scenario_config(scale: int) -> CityConfig:
    """Manhattan with fleet and demand scaled *scale*-fold."""
    cfg = manhattan_config()
    return dataclasses.replace(
        cfg,
        fleet={ct: n * scale for ct, n in cfg.fleet.items()},
        peak_requests_per_hour=cfg.peak_requests_per_hour * scale,
    )


#: Worker processes the sweep leg uses; matches the ">= 4 workers /
#: >= 4 cores" acceptance target.
SWEEP_JOBS = 4

#: The timed engine modes, keyed by the flag combination they exercise.
#: ``vector_indexed`` is the default configuration;
#: ``vector_perclient`` turns ``use_batched_ping`` off — the batched
#: serving A/B pair; ``scalar_indexed`` is the spatial-index-only
#: configuration; ``scalar_brute`` is the seed behaviour.  (``use_batched_ping`` is moot on the scalar
#: legs: with no FleetArray the round query declines and
#: ``serve_round`` serves per client either way.)
LEGS: Dict[str, Dict[str, object]] = {
    "vector_indexed": {
        "use_spatial_index": True, "use_vectorized_step": True,
        "use_batched_ping": True,
    },
    "vector_perclient": {
        "use_spatial_index": True, "use_vectorized_step": True,
        "use_batched_ping": False,
    },
    "scalar_indexed": {
        "use_spatial_index": True, "use_vectorized_step": False,
        "use_batched_ping": True,
    },
    "vector_brute": {
        "use_spatial_index": False, "use_vectorized_step": True,
        "use_batched_ping": True,
    },
    "scalar_brute": {
        "use_spatial_index": False, "use_vectorized_step": False,
        "use_batched_ping": False,
    },
}

#: Every flag combination, for the equivalence check (eight combos;
#: the last is all flags off, the seed behaviour).
ALL_COMBOS: List[Dict[str, bool]] = [
    {
        "use_spatial_index": bool(spatial),
        "use_vectorized_step": bool(vec),
        "use_batched_ping": bool(batched),
    }
    for spatial in (True, False)
    for vec in (True, False)
    for batched in (True, False)
]


def _timed_campaign(
    flags: Dict[str, object],
    scale: int,
    ticks: int,
    seed: int,
    max_clients: Optional[int] = None,
) -> Dict[str, float]:
    """Wall-clock the tick and ping phases of a campaign slice."""
    if ticks <= 0:
        raise ValueError("ticks must be positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    cfg = scenario_config(scale)
    engine = MarketplaceEngine(cfg, seed=seed, **flags)
    endpoint = PingEndpoint(engine)
    clients = list(place_clients(cfg.region, max_clients=max_clients))
    requests = [
        (f"bench{i}", loc, None) for i, loc in enumerate(clients)
    ]
    for _ in range(WARMUP_TICKS):
        engine.tick()
        endpoint.serve_round(requests)
    tick_s = ping_s = 0.0
    for _ in range(ticks):
        t0 = time.perf_counter()
        engine.tick()
        tick_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        endpoint.serve_round(requests)
        ping_s += time.perf_counter() - t0
    total = tick_s + ping_s
    scenario_ticks = SCENARIO_HOURS * 3600.0 / TICK_S
    engine.close()
    return {
        "fleet_size": sum(cfg.fleet.values()),
        "cpu_count": os.cpu_count() or 1,
        "clients": len(clients),
        "ticks_measured": ticks,
        "tick_wall_s": tick_s,
        "ping_wall_s": ping_s,
        "engine_ticks_per_s": ticks / tick_s if tick_s else float("inf"),
        "ping_rounds_per_s": ticks / ping_s if ping_s else float("inf"),
        "campaign_ticks_per_s": ticks / total if total else float("inf"),
        "scenario_hours": SCENARIO_HOURS,
        "est_full_scenario_wall_s": scenario_ticks * total / ticks,
    }


def check_equivalence(
    scale: int = 1, ticks: int = 60, seed: int = 11
) -> bool:
    """Same seed, all eight flag combos: truth, trips, ping replies,
    and engine RNG state must be bit-identical across every leg.

    Rounds are served through ``serve_round`` so the batched and
    per-client paths are compared reply-for-reply; one extra direct
    ``ping`` per round pins the batch path to the single-ping entry
    point as well.
    """
    def run(flags: Dict[str, bool]):
        cfg = scenario_config(scale)
        engine = MarketplaceEngine(cfg, seed=seed, **flags)
        endpoint = PingEndpoint(engine)
        clients = list(place_clients(cfg.region, max_clients=8))
        requests = [(f"eq{i}", loc, None) for i, loc in enumerate(clients)]
        replies = []
        for t in range(ticks):
            engine.tick()
            if t % 5 == 0:
                replies.extend(endpoint.serve_round(requests))
                replies.append(endpoint.ping("eq0", clients[0]))
        result = (
            engine.truth,
            engine.completed_trips,
            replies,
            engine.rng.getstate(),
        )
        engine.close()
        return result

    reference = run(ALL_COMBOS[-1])  # all flags off: seed behaviour
    return all(run(flags) == reference for flags in ALL_COMBOS[:-1])


def _timed_sweep(quick: bool, seed: int) -> Dict[str, object]:
    """Time the orchestrator: 4 campaigns sequential vs parallel.

    Two seeds × two cities — the multi-seed dual-city shape the paper's
    §4 campaigns take.  The parallel run re-executes the *same specs*,
    so the truth digests double as a determinism cross-check: process
    scheduling must never reach a campaign's bits.  On single-core
    machines (``jobs`` resolves to 1) the parallel run is skipped and
    the speedup reported as 1.0/unenforced.
    """
    hours = 0.05 if quick else 0.5
    max_clients = 6 if quick else 24
    specs = [
        CampaignSpec(
            key=f"{city}-s{s}",
            city=city,
            seed=s,
            hours=hours,
            max_clients=max_clients,
        )
        for city in ("manhattan", "sf")
        for s in (seed, seed + 1)
    ]
    jobs = min(SWEEP_JOBS, os.cpu_count() or 1)
    t0 = time.perf_counter()
    sequential = run_sweep(specs, jobs=1)
    sequential_s = time.perf_counter() - t0
    result: Dict[str, object] = {
        "campaigns": len(specs),
        "jobs": jobs,
        "sequential_wall_s": sequential_s,
        "all_ok": all(o.ok for o in sequential),
        "digests_match": True,
    }
    if jobs > 1:
        t0 = time.perf_counter()
        parallel = run_sweep(specs, jobs=jobs)
        parallel_s = time.perf_counter() - t0
        result["parallel_wall_s"] = parallel_s
        result["all_ok"] = bool(
            result["all_ok"] and all(o.ok for o in parallel)
        )
        result["digests_match"] = [
            o.truth_digest for o in sequential
        ] == [o.truth_digest for o in parallel]
        result["speedup"] = (
            sequential_s / parallel_s if parallel_s else float("inf")
        )
    else:
        result["parallel_wall_s"] = None
        result["speedup"] = 1.0
    return result


def run_bench(
    quick: bool = False,
    scale: Optional[int] = None,
    ticks: Optional[int] = None,
    seed: int = 3,
) -> Dict[str, object]:
    scale = scale if scale is not None else (
        QUICK_SCALE if quick else FULL_SCALE
    )
    ticks = ticks if ticks is not None else (
        QUICK_TICKS if quick else FULL_TICKS
    )
    max_clients = 200 if quick else None
    legs = {
        name: _timed_campaign(flags, scale, ticks, seed, max_clients)
        for name, flags in LEGS.items()
    }
    equivalent = check_equivalence(
        scale=1, ticks=30 if quick else 60, seed=seed + 8
    )
    sweep = _timed_sweep(quick, seed + 100)
    vec, sca = legs["vector_indexed"], legs["scalar_indexed"]
    perclient = legs["vector_perclient"]
    seed_leg = legs["scalar_brute"]
    cores = os.cpu_count() or 1
    speedup = {
        # The orchestrator headline: 4-campaign sweep, parallel vs
        # sequential (target: >= 2x on >= 4 cores).
        "sweep_parallel_vs_sequential": sweep["speedup"],
        # The PR 4 headline: batched round serving vs the per-client
        # vectorized path (target: >= 1.5x).
        "batched_vs_perclient_ping_rounds": (
            vec["ping_rounds_per_s"] / perclient["ping_rounds_per_s"]
        ),
        # The PR 2 headline: vectorized stepping vs the PR 1 scalar
        # path, engine ticks only (target: >= 2x).
        "vector_vs_scalar_engine_ticks": (
            vec["engine_ticks_per_s"] / sca["engine_ticks_per_s"]
        ),
        # All flags on vs the seed's scalar linear-scan engine.
        "defaults_vs_seed_campaign": (
            vec["campaign_ticks_per_s"] / seed_leg["campaign_ticks_per_s"]
        ),
        "defaults_vs_seed_engine_ticks": (
            vec["engine_ticks_per_s"] / seed_leg["engine_ticks_per_s"]
        ),
        # The PR 1 comparison, retained for continuity.
        "indexed_vs_brute_scalar_campaign": (
            sca["campaign_ticks_per_s"] / seed_leg["campaign_ticks_per_s"]
        ),
    }
    # Regression thresholds, recorded alongside the numbers they bound.
    # The sweep speedup is a physical claim about multi-core machines;
    # on smaller boxes (and in --quick mode, whose tiny slices are
    # noise-dominated) it is recorded but not enforced.
    thresholds = {
        "sweep_parallel_vs_sequential": {
            "min": 2.0,
            "enforced": cores >= SWEEP_JOBS and not quick,
            "jobs": sweep["jobs"],
        },
        "batched_vs_perclient_ping_rounds": {
            "min": 1.5, "enforced": not quick,
        },
        "vector_vs_scalar_engine_ticks": {
            "min": 2.0, "enforced": not quick,
        },
        "defaults_vs_seed_campaign": {
            "min": 4.0, "enforced": not quick,
        },
    }
    return {
        "bench": "perf_engine",
        "mode": "quick" if quick else "full",
        "cpu_count": cores,
        "scenario": (
            f"{SCENARIO_HOURS:g}h Manhattan x{scale} "
            f"({vec['fleet_size']} drivers, "
            f"{vec['clients']} clients, {TICK_S:g}s ticks)"
        ),
        "legs": legs,
        "sweep": sweep,
        "speedup": speedup,
        "thresholds": thresholds,
        "truth_equivalent": equivalent,
        "sweep_deterministic": sweep["digests_match"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small fleet / few ticks, for CI regression checks",
    )
    parser.add_argument("--scale", type=int, default=None,
                        help="fleet multiplier override")
    parser.add_argument("--ticks", type=int, default=None,
                        help="measured ticks override")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)
    if args.ticks is not None and args.ticks <= 0:
        parser.error("--ticks must be positive")
    if args.scale is not None and args.scale <= 0:
        parser.error("--scale must be positive")

    result = run_bench(
        quick=args.quick, scale=args.scale, ticks=args.ticks,
        seed=args.seed,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(result, indent=2) + "\n"
    args.out.write_text(blob)
    ROOT_OUT_PATH.write_text(blob)

    lines: List[str] = [f"scenario: {result['scenario']}"]
    legs = result["legs"]
    for key in ("engine_ticks_per_s", "ping_rounds_per_s",
                "campaign_ticks_per_s"):
        lines.append(
            f"{key:22s} "
            + "  ".join(
                f"{name} {legs[name][key]:8.2f}" for name in LEGS
            )
        )
    thresholds = result["thresholds"]
    threshold_failures: List[str] = []
    for name, value in result["speedup"].items():
        bound = thresholds.get(name)
        note = ""
        if bound is not None:
            ok = value >= bound["min"]
            if not ok and bound["enforced"]:
                threshold_failures.append(name)
            note = (
                f"  (min {bound['min']:g}x"
                + ("" if bound["enforced"] else ", unenforced")
                + ("" if ok else ", BELOW")
                + ")"
            )
        lines.append(f"{name:34s} {value:5.2f}x{note}")
    sweep = result["sweep"]
    lines.append(
        f"sweep: {sweep['campaigns']} campaigns, jobs={sweep['jobs']}, "
        f"sequential {sweep['sequential_wall_s']:.2f}s"
        + (
            f", parallel {sweep['parallel_wall_s']:.2f}s"
            if sweep["parallel_wall_s"] is not None
            else ", parallel skipped (single core)"
        )
    )
    lines.append(
        "truth equivalent: "
        + ("yes" if result["truth_equivalent"] else "NO — BUG")
    )
    lines.append(
        "sweep deterministic: "
        + ("yes" if result["sweep_deterministic"] else "NO — BUG")
    )
    if threshold_failures:
        lines.append(
            "ENFORCED THRESHOLDS BELOW MINIMUM: "
            + ", ".join(threshold_failures)
        )
    print("\n".join(lines))
    print(f"wrote {args.out} (and {ROOT_OUT_PATH})")
    ok = (
        result["truth_equivalent"]
        and result["sweep_deterministic"]
        and not threshold_failures
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
