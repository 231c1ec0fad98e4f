"""``campaign_x20`` and ``metro_x100``: lock-step campaigns via ``Fleet.run``.

Both drive the paper's apparatus (42 placed clients pinging in
lock-step) against a scaled Manhattan engine with its default flags.
``campaign_x20`` pings every car type every 5 s, so the ping round
(``api``) dominates; ``metro_x100`` pings UberX every 60 s over five
times the fleet, so the engine tick dominates.

The measured window is a run of fixed-length ``Fleet.run`` chunks;
throughput is the median of the chunks' rates, so a stall of the host
in one chunk does not move it.  Each chunk's log is checked and folded
into a digest, then dropped, so memory does not grow with throughput.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.marketplace.config import CityConfig, manhattan_config
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.measurement.fleet import Fleet, MarketplaceWorld
from repro.measurement.placement import place_clients
from repro.measurement.records import CampaignLog
from repro.parallel.orchestrator import truth_digest

from perfbench.common import (
    OUT_DIR,
    Outcome,
    clock,
    peak_rss_mb,
    quantile_ms,
    scalar,
    span_ms,
    timed_setups,
    timing,
)
from perfbench.stats import mean_or_none
from perfbench.tracer import Tracer

#: Cars a ping reply may list per type (the paper's nearest eight).
MAX_CARS = 8


@dataclasses.dataclass(frozen=True)
class CampaignShape:
    name: str
    scale: int
    car_types: Optional[Tuple[CarType, ...]]
    interval_s: float
    warmup_s: float
    chunk_s: float


SHAPES = {
    "campaign_x20": CampaignShape(
        "campaign_x20", 20, None, 5.0, warmup_s=300.0, chunk_s=300.0
    ),
    "metro_x100": CampaignShape(
        "metro_x100", 100, (CarType.UBERX,), 60.0, warmup_s=120.0,
        chunk_s=300.0,
    ),
}


def scaled_manhattan(scale: int) -> CityConfig:
    """Manhattan with fleet and demand scaled *scale*-fold."""
    cfg = manhattan_config()
    return dataclasses.replace(
        cfg,
        fleet={ct: n * scale for ct, n in cfg.fleet.items()},
        peak_requests_per_hour=cfg.peak_requests_per_hour * scale,
    )


@dataclasses.dataclass
class Setup:
    engine: MarketplaceEngine
    fleet: Fleet
    world: MarketplaceWorld


def build(shape: CampaignShape, seed: int) -> Setup:
    """Engine construction, warm-up and client placement."""
    config = scaled_manhattan(shape.scale)
    engine = MarketplaceEngine(config, seed=seed)
    engine.run(shape.warmup_s)
    fleet = Fleet(
        place_clients(config.region),
        car_types=shape.car_types,
        ping_interval_s=shape.interval_s,
    )
    return Setup(engine, fleet, MarketplaceWorld(engine))


def discard(setup: Setup) -> None:
    setup.engine.close()


@dataclasses.dataclass
class Pass:
    """One measured window over a set-up campaign."""

    chunks: int = 0
    rounds: int = 0
    run_wall_s: float = 0.0
    #: Pings answered per wall second, one value per chunk.
    chunk_rates: List[float] = dataclasses.field(default_factory=list)
    failed_pings: int = 0
    samples: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    unique_cars: Set[str] = dataclasses.field(default_factory=set)
    checkpoint: Optional[str] = None
    digest: Optional[str] = None


def check_log(
    log: CampaignLog,
    requested: Tuple[CarType, ...],
    result: Pass,
    digest: "hashlib._Hash",
) -> None:
    """Check every round is well formed and fold it into *digest*."""
    client_ids = log.client_ids
    for record in log.rounds:
        for client_id in client_ids:
            bad = None
            for car_type in requested:
                sample = record.samples.get((client_id, car_type))
                if sample is None:
                    bad = f"no {car_type.value} sample"
                elif len(sample.car_ids) > MAX_CARS:
                    bad = f"{len(sample.car_ids)} {car_type.value} cars"
                elif not all(sample.car_ids):
                    bad = "empty car id"
                elif not sample.multiplier >= 1.0:
                    bad = f"multiplier {sample.multiplier!r}"
                if bad is not None:
                    break
            if bad is not None:
                result.failed_pings += 1
                if len(result.problems) < 5:
                    result.problems.append(
                        f"t={record.t:g} {client_id}: {bad}"
                    )
        result.samples += len(record.samples)
        result.unique_cars.update(record.cars)
        samples = sorted(
            (cid, ct.value, s.multiplier, s.ewt_minutes, s.car_ids)
            for (cid, ct), s in record.samples.items()
        )
        digest.update(
            repr((record.t, samples, sorted(record.cars.items()))).encode()
        )
    result.rounds += len(log.rounds)


def measure(
    shape: CampaignShape,
    setup: Setup,
    seconds: float,
    chunks: Optional[int] = None,
) -> Pass:
    """Run chunks until *seconds* have passed, or exactly *chunks*."""
    engine, fleet, world = setup.engine, setup.fleet, setup.world
    requested = shape.car_types or tuple(engine.config.fleet)
    digest = hashlib.sha256()
    result = Pass()
    start = clock()
    while True:
        t0 = clock()
        log = fleet.run(world, shape.chunk_s, city="manhattan")
        wall = clock() - t0
        result.run_wall_s += wall
        result.chunk_rates.append(len(log.rounds) * len(fleet.clients) / wall)
        result.chunks += 1
        check_log(log, requested, result, digest)
        if result.chunks == 1:
            result.checkpoint = truth_digest(engine) + digest.hexdigest()
        if chunks is not None:
            if result.chunks >= chunks:
                break
        elif clock() - start >= seconds:
            break
    result.digest = truth_digest(engine) + digest.hexdigest()
    return result


def end_to_end(
    setup: Setup,
    result: Pass,
    setup_times: List[float],
) -> Dict[str, Dict[str, Any]]:
    return {
        "pings_per_s": scalar(statistics.median(result.chunk_rates), "1/s"),
        "setup_s": timing(setup_times, unit="s"),
        "peak_rss_mb": scalar(peak_rss_mb(), "MB"),
    }


def trace_campaign(
    setup: Setup, tracer: Tracer, online: List[int]
) -> Dict[str, int]:
    """Wrap each layer's public entry points on this campaign's objects.

    Returns the round, request and car counters ``serve_round`` feeds.
    """
    engine = setup.engine
    counts = {"requests": 0, "rounds": 0, "cars": 0}

    def on_serve(args: Tuple[Any, ...], _kw: Any, replies: Any) -> None:
        online.append(
            sum(engine.online_count(ct) for ct in engine.config.fleet)
        )
        counts["rounds"] += 1
        counts["requests"] += len(args[0])
        counts["cars"] += sum(
            len(status.cars) for reply in replies for status in reply.statuses
        )

    tracer.wrap(engine, "tick", "marketplace.tick")
    tracer.wrap(engine.surge, "maybe_update", "marketplace.surge_update")
    tracer.wrap(engine, "round_query", "marketplace.query")
    tracer.wrap(engine, "round_area_ids", "marketplace.area_ids")
    tracer.wrap(engine, "round_prefetch_views", "api.view_prefetch")
    tracer.wrap(
        setup.world.server, "serve_round", "api.serve_round",
        on_call=on_serve,
    )
    for client in setup.fleet.clients:
        tracer.wrap(client, "absorb", "measurement.absorb")
    return counts


def per_round_sums(durations: List[float], per_round: int) -> List[float]:
    """Sums of consecutive blocks of *per_round* durations: a round
    absorbs one reply per client, in client order."""
    return [
        sum(durations[i:i + per_round])
        for i in range(0, len(durations), per_round)
    ]


def layer_metrics(
    tracer: Tracer,
    setup: Setup,
    result: Pass,
    online: List[int],
    counts: Dict[str, int],
) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics a traced campaign pass yields."""
    wall = result.run_wall_s

    def ms(name: str, q: float = 0.5, self_only: bool = False):
        return span_ms(tracer, name, q, self_only)

    def share(name: str) -> Dict[str, Any]:
        return scalar(sum(tracer.durations(name)) / wall, "ratio")

    return {
        "marketplace.tick_ms_p50": ms("marketplace.tick"),
        "marketplace.tick_ms_p99": ms("marketplace.tick", 0.99),
        "marketplace.tick_share": share("marketplace.tick"),
        "marketplace.surge_update_ms": ms("marketplace.surge_update"),
        "marketplace.query_ms_p50": ms("marketplace.query"),
        "marketplace.area_ids_ms_p50": ms("marketplace.area_ids"),
        "marketplace.ticks": scalar(
            len(tracer.durations("marketplace.tick")), "count"
        ),
        "marketplace.online_drivers": scalar(mean_or_none(online), "count"),
        "marketplace.truth_intervals": scalar(
            len(setup.engine.truth), "count"
        ),
        "api.serve_round_ms_p50": ms("api.serve_round"),
        "api.serve_round_ms_p99": ms("api.serve_round", 0.99),
        "api.serve_round_share": share("api.serve_round"),
        "api.view_prefetch_ms_p50": ms("api.view_prefetch"),
        "api.assembly_self_ms_p50": ms("api.serve_round", self_only=True),
        "api.requests_per_round": scalar(
            counts["requests"] / max(1, counts["rounds"]), "count"
        ),
        "api.cars_per_reply": scalar(
            counts["cars"] / max(1, counts["requests"]), "count"
        ),
        "measurement.absorb_ms_per_round_p50": quantile_ms(
            per_round_sums(
                tracer.durations("measurement.absorb"),
                len(setup.fleet.clients),
            )
        ),
        "measurement.absorb_share": share("measurement.absorb"),
        "measurement.samples": scalar(result.samples, "count"),
        "measurement.unique_cars": scalar(len(result.unique_cars), "count"),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    shape = SHAPES[name]
    if not trace:
        setup, setup_times = timed_setups(
            lambda: build(shape, seed), discard
        )
        result = measure(shape, setup, seconds)
        metrics = end_to_end(setup, result, setup_times)
        problems = list(result.problems)
        per_layer: Dict[str, Dict[str, Any]] = {}
        digest = result.checkpoint
    else:
        # Untraced then traced over the same chunks: the digests must
        # agree and the wall-time ratio is the tracing overhead.
        setup = build(shape, seed)
        plain = measure(shape, setup, seconds / 2)
        discard(setup)
        setup = build(shape, seed)
        tracer = Tracer()
        online: List[int] = []
        counts = trace_campaign(setup, tracer, online)
        result = measure(shape, setup, seconds, chunks=plain.chunks)
        tracer.restore()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(str(OUT_DIR / f"spans-{name}-s{seed}.jsonl"))
        metrics = end_to_end(setup, result, [])
        per_layer = layer_metrics(tracer, setup, result, online, counts)
        per_layer["trace.overhead_ratio"] = scalar(
            result.run_wall_s / plain.run_wall_s, "ratio"
        )
        problems = list(plain.problems) + list(result.problems)
        if plain.digest != result.digest:
            problems.append("traced and untraced digests differ")
        digest = result.checkpoint
    clients = len(setup.fleet.clients)
    sim_s = result.chunks * shape.chunk_s
    record = {
        "workload": name,
        "fleet_size": sum(setup.engine.config.fleet.values()),
        "clients": clients,
        "car_types": "all" if shape.car_types is None else [
            ct.value for ct in shape.car_types
        ],
        "ping_interval_s": shape.interval_s,
        "warmup_s": shape.warmup_s,
        "window_wall_s": result.run_wall_s,
        "window_sim_s": sim_s,
        "rounds": result.rounds,
        "sim_s_per_wall_s": scalar(sim_s / result.run_wall_s, "s/s"),
        "failed_ratio": scalar(
            result.failed_pings / max(1, result.rounds * clients), "ratio"
        ),
        "full_digest": result.digest,
    }
    discard(setup)
    return Outcome(
        attempted=result.rounds * clients,
        failed=result.failed_pings,
        problems=problems,
        digest=digest,
        end_to_end=metrics,
        record=record,
        per_layer=per_layer,
    )
