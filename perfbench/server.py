"""Server process of the ``serve_x20`` workload.

Serves ``MarketplaceService`` over real sockets on a warmed Manhattan
x20 snapshot with the shipped 2 ms coalesce window.  Prints
``READY <port> <truth digest> <online drivers>`` once it accepts
connections, serves until its standard input closes, then prints one
JSON line: its peak RSS, the round accumulator's counters and, when
traced, its spans.

    python3 perfbench/server.py --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.api import serialize  # noqa: E402
from repro.marketplace.engine import MarketplaceEngine  # noqa: E402
from repro.parallel.orchestrator import truth_digest  # noqa: E402
from repro.service import AsgiHttpServer, MarketplaceService  # noqa: E402

from perfbench.campaign import SHAPES, scaled_manhattan  # noqa: E402
from perfbench.common import peak_rss_mb  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

#: The ``repro serve`` default coalesce window.
COALESCE_WINDOW_S = 0.002
#: Same fleet and warm-up as ``campaign_x20``.
SHAPE = SHAPES["campaign_x20"]


def build_engine(seed: int) -> MarketplaceEngine:
    engine = MarketplaceEngine(scaled_manhattan(SHAPE.scale), seed=seed)
    engine.run(SHAPE.warmup_s)
    return engine


def trace_service(
    service: MarketplaceService, tracer: Tracer
) -> Dict[str, int]:
    """Wrap the layers a request passes through; returns counters."""
    engine = service.engine
    counts = {"requests": 0, "rounds": 0, "cars": 0}

    def on_serve(args: Tuple[Any, ...], _kw: Any, replies: Any) -> None:
        counts["rounds"] += 1
        counts["requests"] += len(args[0])
        counts["cars"] += sum(
            len(status.cars) for reply in replies for status in reply.statuses
        )

    tracer.wrap(engine, "tick", "marketplace.tick")
    tracer.wrap(engine, "round_query", "marketplace.query")
    tracer.wrap(engine, "round_area_ids", "marketplace.area_ids")
    tracer.wrap(engine, "round_prefetch_views", "api.view_prefetch")
    tracer.wrap(
        service.endpoint, "serve_round", "api.serve_round",
        rid_of=lambda args, _kw: [request[0] for request in args[0]],
        on_call=on_serve,
    )
    tracer.wrap(
        service.rounds, "submit", "service.submit",
        rid_of=lambda args, _kw: args[0][0],
    )
    tracer.wrap(serialize, "encode_ping_reply", "api.encode")
    for method in ("time_estimates", "price_estimates"):
        tracer.wrap(
            service.rest, method, "service.rest",
            rid_of=lambda args, _kw: args[0],
        )
    return counts


async def serve(service: MarketplaceService, banner: str) -> None:
    loop = asyncio.get_running_loop()
    stdin_closed = asyncio.Event()

    def wait_stdin() -> None:
        sys.stdin.read()
        loop.call_soon_threadsafe(stdin_closed.set)

    server = AsgiHttpServer(service, host="127.0.0.1", port=0)
    await server.start()
    threading.Thread(target=wait_stdin, daemon=True).start()
    print(f"READY {server.port} {banner}", flush=True)
    try:
        await stdin_closed.wait()
    finally:
        await server.stop()


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    engine = build_engine(args.seed)
    service = MarketplaceService(
        engine, coalesce_window_s=COALESCE_WINDOW_S, city="manhattan"
    )
    tracer = Tracer()
    counts = trace_service(service, tracer) if args.trace else {}
    online = sum(engine.online_count(ct) for ct in engine.config.fleet)
    asyncio.run(serve(service, f"{truth_digest(engine)} {online}"))
    tracer.restore()
    rounds = service.rounds
    print(
        json.dumps(
            {
                "peak_rss_mb": peak_rss_mb(),
                "rounds_served": rounds.rounds_served,
                "requests_served": rounds.requests_served,
                "max_round_size": rounds.max_round_size,
                "truth_intervals": len(engine.truth),
                "counts": counts,
                "missing": tracer.missing,
                "spans": tracer.spans,
            }
        ),
        flush=True,
    )
    engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
