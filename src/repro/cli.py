"""Command-line interface: run campaigns and analyses from a shell.

Four subcommands mirror the study's workflow:

* ``measure``  — run a measurement campaign against a simulated city and
  save the observation log (JSON lines);
* ``analyze``  — run the audit pipeline over a saved log and print the
  §4/§5 summary (supply, demand, surge stats, jitter);
* ``validate`` — the §3.5 taxi-trace validation experiment;
* ``calibrate`` — the §3.4 visibility-radius experiment;
* ``serve``    — serve the marketplace over real sockets: the REST
  estimates endpoints plus the `pingClient` WebSocket stream
  (``repro.service``), with the §3.2 rate limit enforced as HTTP 429;
* ``worker``   — serve campaigns to a sweep dispatcher over TCP
  (``repro.parallel.cluster``): ``measure --workers host:port,...``
  dials listening workers, ``measure --cluster-listen`` accepts
  ``worker --connect`` instead — outcomes byte-identical to the local
  process-pool sweep either way;
* ``lint``     — static analysis over the source tree: the determinism
  rules (REP001-REP006) plus the concurrency/async hazard rules
  (REP101-REP103, REP105); text, ``--format json``, or
  ``--format sarif`` reports, ``--explain REPxxx`` for rule docs; see
  ``docs/static_analysis.md``.

Examples::

    python -m repro.cli measure --city manhattan --hours 2 \
        --warmup-hours 7 --out mhtn.jsonl
    python -m repro.cli analyze mhtn.jsonl
    python -m repro.cli validate --cabs 300 --hours 2
    python -m repro.cli calibrate --city sf --hour 9
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from typing import List, Optional

from repro.marketplace.config import manhattan_config, sf_config
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.measurement.calibrate import visibility_radius
from repro.measurement.fleet import Fleet, MarketplaceWorld, TaxiWorld
from repro.measurement.placement import place_clients
from repro.measurement.records import CampaignLog


def _config_for(city: str, jitter: float):
    if city == "manhattan":
        return manhattan_config(jitter_probability=jitter)
    if city == "sf":
        return sf_config(jitter_probability=jitter)
    raise SystemExit(f"unknown city {city!r} (use manhattan or sf)")


def _seed_out_path(out: str, seed: int) -> str:
    """Per-seed log path: ``mhtn.jsonl`` -> ``mhtn.s7.jsonl`` for seed 7.

    The seed tag goes before the (possibly double, ``.jsonl.gz``)
    suffix so the compression extension keeps driving the writer.
    """
    base = os.path.basename(out)
    directory = os.path.dirname(out)
    for suffix in (".jsonl.gz", ".jsonl"):
        if base.endswith(suffix):
            stem = base[: -len(suffix)]
            return os.path.join(directory, f"{stem}.s{seed}{suffix}")
    root, ext = os.path.splitext(base)
    return os.path.join(directory, f"{root}.s{seed}{ext}")


def cmd_measure(args: argparse.Namespace) -> int:
    seeds = (
        [int(s) for s in args.seeds.split(",") if s.strip()]
        if args.seeds
        else [args.seed]
    )
    if len(seeds) != len(set(seeds)):
        raise SystemExit("--seeds must be distinct")
    workers = [
        address.strip()
        for address in (args.workers or "").split(",")
        if address.strip()
    ]
    if workers and args.cluster_listen is not None:
        raise SystemExit("--workers and --cluster-listen are "
                         "mutually exclusive")
    cluster_mode = bool(workers) or args.cluster_listen is not None
    if len(seeds) == 1 and args.jobs <= 1 and not cluster_mode:
        # Single campaign: the original in-process path, exactly.
        config = _config_for(args.city, args.jitter)
        engine = MarketplaceEngine(config, seed=seeds[0])
        positions = place_clients(config.region)
        fleet = Fleet(positions, car_types=[CarType.UBERX],
                      ping_interval_s=args.ping_interval)
        print(f"{args.city}: {len(positions)} clients, "
              f"{args.hours:g} h campaign after {args.warmup_hours:g} h "
              "warm-up", file=sys.stderr)
        log = fleet.run(
            MarketplaceWorld(engine),
            duration_s=args.hours * 3600.0,
            city=args.city,
            warmup_s=args.warmup_hours * 3600.0,
        )
        log.save(args.out)
        engine.close()
        print(f"wrote {len(log.rounds)} rounds to {args.out}")
        return 0

    # Sweep: one campaign per seed via the process-pool orchestrator.
    from repro.parallel.orchestrator import CampaignSpec, run_sweep

    specs = [
        CampaignSpec(
            key=f"{args.city}-s{seed}",
            city=args.city,
            seed=seed,
            hours=args.hours,
            warmup_hours=args.warmup_hours,
            ping_interval_s=args.ping_interval,
            jitter=args.jitter,
            out=(
                _seed_out_path(args.out, seed)
                if len(seeds) > 1
                else args.out
            ),
        )
        for seed in seeds
    ]
    if cluster_mode:
        # Cluster dispatch: same specs, same spec-ordered outcomes,
        # byte-identical identity to the local pool below.
        from repro.parallel.cluster import (
            run_cluster_sweep,
            run_listening_sweep,
        )

        if workers:
            print(f"{args.city}: cluster sweep of {len(specs)} "
                  f"campaign(s) over {len(workers)} worker(s)",
                  file=sys.stderr)
            outcomes = run_cluster_sweep(
                specs,
                workers,
                spec_timeout_s=args.spec_timeout,
                max_attempts=args.max_attempts,
            )
        else:
            print(f"{args.city}: cluster sweep of {len(specs)} "
                  f"campaign(s)", file=sys.stderr)
            outcomes = run_listening_sweep(
                specs,
                args.cluster_listen,
                spec_timeout_s=args.spec_timeout,
                max_attempts=args.max_attempts,
                announce=lambda addr: print(
                    f"dispatching on {addr}; attach workers with "
                    f"`repro worker --connect {addr}`",
                    file=sys.stderr, flush=True,
                ),
            )
    else:
        print(f"{args.city}: sweep of {len(specs)} campaign(s), "
              f"jobs={args.jobs}", file=sys.stderr)
        outcomes = run_sweep(specs, jobs=args.jobs)
    failed = 0
    for outcome in outcomes:
        if outcome.ok:
            rounds = int((outcome.metrics or {}).get("rounds", 0))
            print(f"{outcome.key}: wrote {rounds} rounds to "
                  f"{outcome.out_path} "
                  f"(truth {outcome.truth_digest[:12]}...)"
                  if outcome.truth_digest
                  else f"{outcome.key}: ok")
        else:
            failed += 1
            print(f"{outcome.key}: FAILED — {outcome.error}",
                  file=sys.stderr)
    return 0 if failed == 0 else 1


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.cluster import (
        run_worker_connect,
        run_worker_listen,
    )

    if bool(args.connect) == bool(args.listen):
        raise SystemExit("worker: give exactly one of --connect "
                         "or --listen")
    jobs_label = "auto" if args.jobs is None else str(args.jobs)
    try:
        if args.connect:
            print(f"worker: dialing dispatcher at {args.connect} "
                  f"(jobs={jobs_label})", file=sys.stderr)
            count = run_worker_connect(args.connect, jobs=args.jobs)
            if count is None:
                print("worker: shutting down", file=sys.stderr)
            else:
                print(f"worker: sweep done, ran {count} campaign(s)",
                      file=sys.stderr)
        else:
            # The "listening on" line goes to stdout un-buffered: the
            # cluster bench and smoke scripts parse it to learn the
            # bound port when --listen used port 0.
            run_worker_listen(
                args.listen,
                jobs=args.jobs,
                announce=lambda addr: print(
                    f"worker: listening on {addr} (jobs={jobs_label})",
                    flush=True,
                ),
            )
            print("worker: shutting down", file=sys.stderr)
    except KeyboardInterrupt:
        print("worker: shutting down", file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.jitter import detect_jitter_events
    from repro.analysis.supply_demand import estimate_supply_demand
    from repro.analysis.surge_stats import (
        mean_multiplier,
        surge_episodes,
        surge_fraction,
    )

    log = CampaignLog.load(args.log)
    if getattr(args, "full", False):
        from repro.analysis.report import audit_campaign
        print(audit_campaign(log).render())
        return 0
    print(f"campaign: {log.city}, {len(log.rounds)} rounds, "
          f"{len(log.client_positions)} clients, "
          f"{log.ping_interval_s:g} s pings")

    estimates = estimate_supply_demand(log, car_type=CarType.UBERX)
    if len(estimates) > 2:
        supply = [e.supply for e in estimates[1:-1]]
        demand = [e.demand for e in estimates[1:-1]]
        print(f"supply/5min: mean {statistics.mean(supply):.1f}, "
              f"max {max(supply)}")
        print(f"demand/5min: mean {statistics.mean(demand):.1f}, "
              f"max {max(demand)} (upper bound)")

    multipliers: List[float] = []
    durations: List[float] = []
    jitter_count = 0
    for cid in log.client_ids:
        series = log.multiplier_series(cid, CarType.UBERX)
        multipliers.extend(m for _, m in series)
        durations.extend(e.duration_s for e in surge_episodes(series))
        jitter_count += len(detect_jitter_events(series, client_id=cid))
    if multipliers:
        indexed = list(enumerate(multipliers))
        print(f"surge: active {100 * surge_fraction(indexed):.0f}% of "
              f"samples, mean x{mean_multiplier(indexed):.2f}, "
              f"max x{max(multipliers):.1f}")
    if durations:
        print(f"surge episodes: {len(durations)}, median "
              f"{statistics.median(durations) / 60:.1f} min")
    print(f"jitter events detected: {jitter_count}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.geo.regions import midtown_manhattan
    from repro.taxi.generator import (
        TaxiGeneratorParams,
        TaxiTraceGenerator,
    )
    from repro.taxi.replay import TaxiReplayServer
    from repro.validation.validate import validate_against_taxis

    region = midtown_manhattan()
    generator = TaxiTraceGenerator(
        TaxiGeneratorParams(fleet_size=args.cabs, days=1.0),
        seed=args.seed, region=region,
    )
    replay = TaxiReplayServer(generator.generate(), seed=args.seed)
    fleet = Fleet(place_clients(region, radius_m=100.0),
                  ping_interval_s=args.ping_interval)
    log = fleet.run(TaxiWorld(replay), duration_s=args.hours * 3600.0,
                    city="taxi", warmup_s=9 * 3600.0)
    report = validate_against_taxis(log, replay, boundary=region.boundary)
    print(f"cars captured:   {100 * report.car_capture:.1f}%  (paper 97%)")
    print(f"deaths captured: {100 * report.death_capture:.1f}%  (paper 95%)")
    print(f"supply correlation: {report.supply_correlation:.3f}")
    print(f"demand correlation: {report.demand_correlation:.3f}")
    return 0 if report.car_capture > 0.8 else 1


def cmd_tracestats(args: argparse.Namespace) -> int:
    from repro.taxi.stats import compare_traces, summarize_trace

    if args.tlc_csv is not None:
        from repro.taxi.tlc import read_tlc_csv
        trips, read_stats = read_tlc_csv(
            args.tlc_csv, max_rows=args.max_rows
        )
        print(f"read {read_stats.kept}/{read_stats.rows} rows "
              f"({read_stats.bad_times} bad times, "
              f"{read_stats.bad_coordinates} bad coordinates)")
        if not trips:
            print("no usable trips")
            return 1
        summary = summarize_trace(trips)
        print("tlc trace:", summary.describe())
    else:
        from repro.taxi.generator import (
            TaxiGeneratorParams,
            TaxiTraceGenerator,
        )
        generator = TaxiTraceGenerator(
            TaxiGeneratorParams(fleet_size=args.cabs, days=args.days),
            seed=args.seed,
        )
        summary = summarize_trace(generator.generate())
        print("synthetic trace:", summary.describe())

    if args.compare_synthetic and args.tlc_csv is not None:
        from repro.taxi.generator import (
            TaxiGeneratorParams,
            TaxiTraceGenerator,
        )
        generator = TaxiTraceGenerator(
            TaxiGeneratorParams(fleet_size=args.cabs, days=args.days),
            seed=args.seed,
        )
        synthetic = summarize_trace(generator.generate())
        print("\nmetric          tlc        synthetic   ratio")
        for name, va, vb, ratio in compare_traces(summary, synthetic):
            print(f"{name:14s} {va:9.1f}  {vb:10.1f}  {ratio:6.2f}")
    return 0


def cmd_surgemap(args: argparse.Namespace) -> int:
    from repro.api.partner import PartnerView

    config = _config_for(args.city, jitter=0.0)
    engine = MarketplaceEngine(config, seed=args.seed)
    engine.run(args.hour * 3600.0)
    view = PartnerView(engine)
    print(f"{args.city} surge map at {args.hour:g}h "
          "(what the Partner app shows, Fig 1):")
    print(view.render())
    hottest = view.hottest_area()
    if hottest.is_surging:
        print(f"drivers are heading to area {hottest.area_id} "
              f"({hottest.name}, x{hottest.multiplier:.1f})")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _config_for(args.city, jitter=0.0)
    engine = MarketplaceEngine(config, seed=args.seed)
    engine.run(args.hour * 3600.0)
    radius = visibility_radius(
        MarketplaceWorld(engine), config.region.bounding_box.center
    )
    if radius is None:
        print("no cars visible — try a busier hour")
        return 1
    print(f"{args.city} visibility radius at {args.hour:g}h: "
          f"{radius:.0f} m (paper: 247 m MHTN / 387 m SF)")
    spacing = 2 * radius
    clients = place_clients(config.region, radius_m=radius)
    print(f"grid at spacing {spacing:.0f} m -> {len(clients)} clients")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.api.ratelimit import RateLimiter
    from repro.service import AsgiHttpServer, MarketplaceService

    config = _config_for(args.city, args.jitter)
    engine = MarketplaceEngine(config, seed=args.seed)
    if args.hour > 0:
        print(f"{args.city}: warming engine to {args.hour:g}h ...",
              file=sys.stderr)
        engine.run(args.hour * 3600.0)
    service = MarketplaceService(
        engine,
        limiter=RateLimiter(limit=args.rate_limit),
        coalesce_window_s=args.coalesce_ms / 1000.0,
        city=args.city,
    )

    async def _serve() -> None:
        server = AsgiHttpServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving {args.city} (seed {args.seed}, "
              f"t={engine.clock.now:g}s) on "
              f"http://{args.host}:{server.port}")
        print(f"  GET  http://{args.host}:{server.port}/v1/health")
        print(f"  GET  http://{args.host}:{server.port}"
              "/v1/estimates/price?account_id=me&start_lat=..&"
              "start_lon=..&end_lat=..&end_lon=..")
        print(f"  GET  http://{args.host}:{server.port}"
              "/v1/estimates/time?account_id=me&lat=..&lon=..")
        print(f"  GET  http://{args.host}:{server.port}"
              "/v1/surge?account_id=me&lat=..&lon=..")
        print(f"  WS   ws://{args.host}:{server.port}/v1/ping   "
              '{"account_id": "me", "lat": .., "lon": ..}')
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import (
        ALL_CODE_SUMMARIES,
        explain_rule,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )

    if args.explain:
        entry = explain_rule(args.explain.upper())
        if entry is None:
            known = ", ".join(sorted(ALL_CODE_SUMMARIES))
            print(
                f"lint: unknown rule code {args.explain!r} "
                f"(known: {known})",
                file=sys.stderr,
            )
            return 2
        print(entry)
        return 0

    if args.format and args.json and args.format != "json":
        print(f"lint: --json conflicts with --format {args.format}",
              file=sys.stderr)
        return 2
    fmt = args.format or ("json" if args.json else "text")

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    result = run_lint(args.paths)
    if fmt == "json":
        report = render_json(result)
    elif fmt == "sarif":
        report = render_sarif(result)
    else:
        report = render_text(result,
                             show_suppressed=args.show_suppressed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return 1 if result.active else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Peeking Beneath the Hood of Uber — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="run a measurement campaign")
    measure.add_argument("--city", default="manhattan",
                         choices=("manhattan", "sf"))
    measure.add_argument("--hours", type=float, default=2.0)
    measure.add_argument("--warmup-hours", type=float, default=7.0)
    measure.add_argument("--ping-interval", type=float, default=5.0)
    measure.add_argument("--jitter", type=float, default=0.25)
    measure.add_argument("--seed", type=int, default=2015)
    measure.add_argument(
        "--seeds", default=None,
        help="comma-separated seed list — runs one campaign per seed "
             "(logs get a .s<seed> tag) and overrides --seed",
    )
    measure.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for multi-seed sweeps (1 = sequential; "
             "see repro.parallel.orchestrator)",
    )
    measure.add_argument(
        "--workers", default=None, metavar="HOST:PORT[,HOST:PORT...]",
        help="dispatch the sweep to listening `repro worker` processes "
             "over TCP instead of the local process pool — outcomes "
             "are byte-identical either way (see "
             "repro.parallel.cluster)",
    )
    measure.add_argument(
        "--cluster-listen", default=None, metavar="HOST:PORT",
        help="listen here and dispatch to workers that dial in with "
             "`repro worker --connect` (port 0 = ephemeral; the "
             "--workers alternative for workers behind NAT)",
    )
    measure.add_argument(
        "--spec-timeout", type=float, default=None,
        help="cluster only: seconds before an unanswered campaign is "
             "requeued on another worker (default: no timeout)",
    )
    measure.add_argument(
        "--max-attempts", type=int, default=3,
        help="cluster only: assignment attempts per campaign before "
             "the dispatcher records a structured failure outcome "
             "(default 3)",
    )
    measure.add_argument("--out", required=True)
    measure.set_defaults(func=cmd_measure)

    worker = sub.add_parser(
        "worker",
        help="serve campaigns to a sweep dispatcher "
             "(the distributed half of `repro measure --workers`)",
    )
    worker.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="dial a dispatcher started with `repro measure "
             "--cluster-listen`; exits when the sweep is done",
    )
    worker.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="listen for dispatchers (`repro measure --workers`); "
             "port 0 = ephemeral (the bound address is printed); "
             "serves until interrupted",
    )
    worker.add_argument(
        "--jobs", type=int, default=None,
        help="local campaign worker processes (default: min(4, cores))",
    )
    worker.set_defaults(func=cmd_worker)

    analyze = sub.add_parser("analyze", help="audit a saved campaign log")
    analyze.add_argument("log")
    analyze.add_argument(
        "--full", action="store_true",
        help="render the full audit report with charts",
    )
    analyze.set_defaults(func=cmd_analyze)

    validate = sub.add_parser("validate",
                              help="taxi ground-truth validation")
    validate.add_argument("--cabs", type=int, default=300)
    validate.add_argument("--hours", type=float, default=2.0)
    validate.add_argument("--ping-interval", type=float, default=10.0)
    validate.add_argument("--seed", type=int, default=2013)
    validate.set_defaults(func=cmd_validate)

    tracestats = sub.add_parser(
        "tracestats",
        help="summarize a taxi trace (synthetic or real TLC CSV)",
    )
    tracestats.add_argument(
        "tlc_csv", nargs="?", default=None,
        help="path to a 2013-format TLC trip_data CSV "
             "(omit to summarize a synthetic trace)",
    )
    tracestats.add_argument("--cabs", type=int, default=300)
    tracestats.add_argument("--days", type=float, default=1.0)
    tracestats.add_argument("--seed", type=int, default=2013)
    tracestats.add_argument("--max-rows", type=int, default=None)
    tracestats.add_argument(
        "--compare-synthetic", action="store_true",
        help="also generate a synthetic trace and print the ratio table",
    )
    tracestats.set_defaults(func=cmd_tracestats)

    surgemap = sub.add_parser("surgemap",
                              help="render the Partner-app surge map")
    surgemap.add_argument("--city", default="manhattan",
                          choices=("manhattan", "sf"))
    surgemap.add_argument("--hour", type=float, default=18.0)
    surgemap.add_argument("--seed", type=int, default=2015)
    surgemap.set_defaults(func=cmd_surgemap)

    calibrate = sub.add_parser("calibrate",
                               help="visibility-radius experiment")
    calibrate.add_argument("--city", default="manhattan",
                           choices=("manhattan", "sf"))
    calibrate.add_argument("--hour", type=float, default=9.0)
    calibrate.add_argument("--seed", type=int, default=2015)
    calibrate.set_defaults(func=cmd_calibrate)

    serve = sub.add_parser(
        "serve",
        help="serve the marketplace over HTTP/WebSocket "
             "(REST estimates + the pingClient stream)",
    )
    serve.add_argument("--city", default="sf",
                       choices=("manhattan", "sf"))
    serve.add_argument("--hour", type=float, default=9.0,
                       help="simulated hours to warm the engine before "
                            "serving (default 9)")
    serve.add_argument("--seed", type=int, default=2015)
    serve.add_argument("--jitter", type=float, default=0.25)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8015,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--rate-limit", type=int, default=1000,
                       help="REST requests per hour per account "
                            "(the paper's 1000/h cap, §3.2)")
    serve.add_argument("--coalesce-ms", type=float, default=2.0,
                       help="how long the first ping of a round waits "
                            "for concurrent pings to join the batch")
    serve.set_defaults(func=cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="static analysis: determinism (REP001-REP006) and "
             "concurrency/async hazards (REP101-REP103, REP105)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default=None,
                      help="report format (default: text)")
    lint.add_argument("--json", action="store_true",
                      help="shorthand for --format json")
    lint.add_argument("--output", metavar="FILE",
                      help="write the report to FILE instead of stdout")
    lint.add_argument(
        "--show-suppressed", action="store_true",
        help="also list justified-suppressed findings",
    )
    lint.add_argument(
        "--explain", metavar="CODE",
        help="print the documentation entry for a rule code and exit",
    )
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
