"""``serve_x20``: the socket service at a fixed ping rate, then at capacity.

The server runs in its own process (:mod:`perfbench.server`).  This
process is the load generator: one asyncio thread with at most
``nproc`` connections open, REST included.  Pings go out open-loop at
:data:`PING_RATE` per second over ``nproc - 1`` WebSocket connections
from seeded random points in the region's bounding box, with REST
``estimates`` GETs one at a time at :data:`REST_RATE` per second on the
remaining connection; then the same WebSocket connections run
closed-loop to measure capacity.  Every account id carries the
request's sequence number, so server spans join to client timings.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import select
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import serialize
from repro.api.ping import PingEndpoint
from repro.geo.latlon import LatLon
from repro.marketplace.config import manhattan_config
from repro.service.loadgen import WebSocketClient, http_get

from perfbench import loadgen
from perfbench.common import (
    OUT_DIR,
    ROOT,
    Outcome,
    clock,
    quantile_ms,
    scalar,
    span_ms,
    subprocess_env,
    timed_setups,
    timing,
)
from perfbench.campaign import MAX_CARS, scaled_manhattan
from perfbench.server import SHAPE, build_engine
from perfbench.stats import quantile_or_none
from perfbench.tracer import Tracer

#: The open-loop ping rate.  One WebSocket connection is answered one
#: ping at a time, each waiting out the 2 ms coalesce window, and its
#: closed-loop capacity on a 2-vCPU host ranged from about 95 to 250
#: pings/s; 60/s keeps the fixed load below that knee.
PING_RATE = 60.0
REST_RATE = 4.0
#: Share of the window given to the open-loop phase; the rest is
#: the closed-loop capacity phase.
OPEN_SHARE = 0.5
TIMEOUT_S = 5.0
#: Open-loop replies checked byte for byte against in-process replies.
REFERENCE_SAMPLE = 24
_READY_TIMEOUT_S = 60.0
_EXIT_TIMEOUT_S = 10.0


class ServerProcess:
    """One ``perfbench/server.py`` process, ready to serve."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py"),
             "--seed", str(seed), "--trace", str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
        )
        try:
            line = self._readline(_READY_TIMEOUT_S)
            fields = line.split()
            if len(fields) != 4 or fields[0] != "READY":
                raise RuntimeError(f"server failed to start: {line!r}")
            self.port = int(fields[1])
            self.truth_digest = fields[2]
            self.online = int(fields[3])
        except BaseException:
            self.kill()
            raise

    def _readline(self, timeout_s: float) -> str:
        stdout = self.proc.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], timeout_s)
        if not ready:
            raise RuntimeError("server did not answer in time")
        return stdout.readline()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate(timeout=_EXIT_TIMEOUT_S)

    def stop(self) -> Dict[str, Any]:
        """Close the server's input and collect its final report."""
        try:
            out, _ = self.proc.communicate(timeout=_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop in time") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


BOX = manhattan_config().region.bounding_box


def ping_point(seed: int, seq: int) -> LatLon:
    """Request *seq*'s location: uniform in the region's bounding box."""
    rng = random.Random(f"{seed}:{seq}")
    return LatLon(
        rng.uniform(BOX.south, BOX.north), rng.uniform(BOX.west, BOX.east)
    )


def account(seq: int) -> str:
    return f"b{seq:07d}"


def check_ping_reply(body: bytes, types: Sequence[str]) -> str:
    """``"ok"`` for a well-formed ping reply, else ``"malformed"``."""
    try:
        reply = json.loads(body)
        statuses = reply["statuses"]
        if [s["type"] for s in statuses] != list(types):
            return "malformed"
        for status in statuses:
            cars = status["cars"]
            if len(cars) > MAX_CARS or not all(c["id"] for c in cars):
                return "malformed"
            if not status["surge_multiplier"] >= 1.0:
                return "malformed"
    except (ValueError, KeyError, TypeError):
        return "malformed"
    return loadgen.OK


def check_rest_reply(status: int, body: bytes, key: str) -> str:
    if status == 429 or status >= 500:
        return "refused"
    try:
        if status != 200 or not json.loads(body)[key]:
            return "malformed"
    except (ValueError, KeyError, TypeError):
        return "malformed"
    return loadgen.OK


class Load:
    """The generator's side of one serve pass."""

    def __init__(self, seed: int, seconds: float, types: Sequence[str]):
        self.seed = seed
        self.seconds = seconds
        self.types = list(types)
        self.open_s = seconds * OPEN_SHARE
        n_pings = int(PING_RATE * self.open_s)
        self.ping_offsets = [i / PING_RATE for i in range(n_pings)]
        self.rest_offsets = [
            i / REST_RATE for i in range(int(REST_RATE * self.open_s))
        ]
        self.connections = max(1, (os.cpu_count() or 1) - 1)

    def ping_text(self, seq: int) -> str:
        point = ping_point(self.seed, seq)
        return json.dumps(
            {"account_id": account(seq), "lat": point.lat, "lon": point.lon}
        )

    async def run(self, port: int) -> Dict[str, Any]:
        clients = [
            await WebSocketClient.connect("127.0.0.1", port, "/v1/ping")
            for _ in range(self.connections)
        ]
        pipes = [
            loadgen.PipelinedConnection(c.send_text, c.receive_text)
            for c in clients
        ]
        try:
            return await self._phases(port, pipes)
        finally:
            for pipe in pipes:
                await pipe.aclose()
            for client in clients:
                await client.close()

    async def _phases(
        self, port: int, pipes: List[loadgen.PipelinedConnection]
    ) -> Dict[str, Any]:
        def issuer(pipe: loadgen.PipelinedConnection) -> loadgen.Issue:
            async def issue(seq: int) -> Tuple[str, bytes]:
                body = (await pipe.request(self.ping_text(seq))).encode()
                return check_ping_reply(body, self.types), body

            return issue

        issuers = [issuer(pipe) for pipe in pipes]

        async def round_robin(seq: int) -> Tuple[str, bytes]:
            return await issuers[seq % len(issuers)](seq)

        async def rest(seq: int) -> Tuple[str, bytes]:
            start = ping_point(self.seed, -1 - seq)
            acct = f"r{seq:07d}"
            if seq % 2 == 0:
                target = (f"/v1/estimates/time?account_id={acct}"
                          f"&lat={start.lat!r}&lon={start.lon!r}")
                key = "times"
            else:
                end = ping_point(self.seed, -2 - seq)
                target = (f"/v1/estimates/price?account_id={acct}"
                          f"&start_lat={start.lat!r}&start_lon={start.lon!r}"
                          f"&end_lat={end.lat!r}&end_lon={end.lon!r}")
                key = "prices"
            response = await http_get("127.0.0.1", port, target)
            return check_rest_reply(
                response.status, response.body, key
            ), response.body

        start = clock()
        pings, rests = await asyncio.gather(
            loadgen.open_loop(self.ping_offsets, round_robin, TIMEOUT_S),
            loadgen.serial_open_loop(self.rest_offsets, rest, TIMEOUT_S),
        )
        capacity, capacity_wall = await loadgen.closed_loop(
            issuers,
            self.seconds - self.open_s,
            TIMEOUT_S,
            first_seq=len(self.ping_offsets),
        )
        return {
            "pings": pings,
            "rest": rests,
            "capacity": capacity,
            "capacity_wall_s": capacity_wall,
            "window_s": clock() - start,
        }


def reference_check(
    seed: int, load: Load, pings: List[loadgen.Request]
) -> List[str]:
    """Compare a seeded sample of replies with in-process replies."""
    engine = build_engine(seed)
    endpoint = PingEndpoint(engine)
    rng = random.Random(seed + 7919)
    sample = rng.sample(pings, min(REFERENCE_SAMPLE, len(pings)))
    problems = []
    for request in sample:
        expected = serialize.encode_ping_reply(
            endpoint.ping(
                account(request.seq), ping_point(seed, request.seq)
            )
        )
        if request.body != expected:
            problems.append(f"ping {request.seq}: reply differs in-process")
    engine.close()
    return problems[:5]


def one_pass(
    seed: int, seconds: float, server: ServerProcess
) -> Tuple[Load, Dict[str, Any], Dict[str, Any]]:
    types = [ct.value for ct in manhattan_config().fleet]
    load = Load(seed, seconds, types)
    try:
        phases = asyncio.run(load.run(server.port))
    except BaseException:
        server.kill()
        raise
    report = server.stop()
    return load, phases, report


def reply_digest(server: ServerProcess, pings: List[loadgen.Request]) -> str:
    """The served snapshot's truth digest plus every open-loop reply."""
    digest = hashlib.sha256(server.truth_digest.encode())
    for request in pings:
        digest.update(request.body)
    return digest.hexdigest()


def capacity_rps(phases: Dict[str, Any]) -> float:
    """Closed-loop pings answered per second (median over the phase)."""
    return loadgen.median_rate(phases["capacity"])


def client_metrics(phases: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """What the generator saw: latency from due time, and capacity."""
    latencies = [r.latency for r in phases["pings"]]
    return {
        "ping_p50_ms": timing(latencies),
        "ping_p99_ms": timing_at(latencies, 0.99),
        "ping_capacity_rps": scalar(capacity_rps(phases), "1/s"),
        "rest_p50_ms": timing([r.latency for r in phases["rest"]]),
        "loadgen_late_ms_p99": timing_at(
            [r.late for r in phases["pings"]], 0.99
        ),
    }


def timing_at(values_s: List[float], q: float) -> Dict[str, Any]:
    """Quantile *q* of *values_s* in ms, with its sample count."""
    return dict(quantile_ms(values_s, q), n=len(values_s))


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    plain: Optional[Dict[str, Any]] = None
    if not trace:
        server, setup_times = timed_setups(
            lambda: ServerProcess(seed, trace=False), ServerProcess.stop
        )
        load, phases, report = one_pass(seed, seconds, server)
    else:
        # Untraced then traced over the same requests: the replies must
        # agree, and the capacity ratio is the tracing overhead.
        setup_times = []
        untraced = ServerProcess(seed, trace=False)
        _, plain, _ = one_pass(seed, seconds / 2, untraced)
        plain_digest = reply_digest(untraced, plain["pings"])
        server = ServerProcess(seed, trace=True)
        load, phases, report = one_pass(seed, seconds / 2, server)
    attempted = phases["pings"] + phases["rest"] + phases["capacity"]
    failed = [r for r in attempted if r.status != loadgen.OK]
    problems = [f"request {r.seq}: {r.status}" for r in failed][:5]
    problems += reference_check(seed, load, phases["pings"])
    digest = reply_digest(server, phases["pings"])
    if plain is not None and plain_digest != digest:
        problems.append("traced and untraced digests differ")
    metrics = {
        "pings_per_s": scalar(capacity_rps(phases), "1/s"),
        "setup_s": timing(setup_times, unit="s"),
        "peak_rss_mb": scalar(report["peak_rss_mb"], "MB"),
    }
    record = {
        "workload": name,
        "fleet_size": sum(scaled_manhattan(SHAPE.scale).fleet.values()),
        "ping_connections": load.connections,
        "ping_rate_per_s": PING_RATE,
        "rest_rate_per_s": REST_RATE,
        "open_loop_s": load.open_s,
        "capacity_s": phases["capacity_wall_s"],
        "window_wall_s": phases["window_s"],
        "failed_ratio": scalar(loadgen.failed_ratio(attempted), "ratio"),
        "rounds_served": report["rounds_served"],
        "requests_served": report["requests_served"],
        "max_round_size": report["max_round_size"],
        **client_metrics(phases),
    }
    per_layer: Dict[str, Dict[str, Any]] = {}
    if plain is not None:
        per_layer = layer_metrics(server, report, phases)
        seen = client_metrics(plain)
        per_layer["loadgen.ping_p50_ms"] = seen["ping_p50_ms"]
        per_layer["loadgen.ping_p99_ms"] = seen["ping_p99_ms"]
        per_layer["loadgen.rest_p50_ms"] = seen["rest_p50_ms"]
        per_layer["trace.overhead_ratio"] = scalar(
            capacity_rps(plain) / capacity_rps(phases), "ratio"
        )
    return Outcome(
        attempted=len(attempted),
        failed=len(failed),
        problems=problems,
        digest=digest,
        end_to_end=metrics,
        record=record,
        per_layer=per_layer,
    )


def layer_metrics(
    server: ServerProcess,
    report: Dict[str, Any],
    phases: Dict[str, Any],
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from the traced server's spans."""
    tracer = Tracer()
    tracer.spans.extend(tuple(s) for s in report["spans"])
    tracer.missing.extend(report["missing"])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(str(OUT_DIR / "spans-serve_x20-server.jsonl"))
    counts = report["counts"]

    def ms(name: str, q: float = 0.5, self_only: bool = False):
        return span_ms(tracer, name, q, self_only)

    submit = {s[4]: s[2] - s[1] for s in tracer.spans
              if s[0] == "service.submit"}
    served = {}
    for s in tracer.spans:
        if s[0] == "api.serve_round":
            for acct in s[4]:
                served[acct] = s[2] - s[1]
    waits = [submit[a] - served[a] for a in submit if a in served]
    encode = tracer.durations("api.encode")
    encode_p50 = quantile_or_none(encode, 0.5) or 0.0
    transport = []
    for request in phases["pings"] + phases["capacity"]:
        acct = account(request.seq)
        if request.status == loadgen.OK and acct in submit:
            rtt = request.done - request.sent
            transport.append(rtt - submit[acct] - encode_p50)
    window = phases["window_s"]
    pings = phases["pings"]
    refused = sum(
        r.status == "refused"
        for r in phases["pings"] + phases["rest"] + phases["capacity"]
    )
    return {
        "marketplace.tick_ms_p50": ms("marketplace.tick"),
        "marketplace.tick_ms_p99": ms("marketplace.tick", 0.99),
        "marketplace.tick_share": scalar(
            sum(tracer.durations("marketplace.tick")) / window, "ratio"
        ),
        "marketplace.query_ms_p50": ms("marketplace.query"),
        "marketplace.area_ids_ms_p50": ms("marketplace.area_ids"),
        "marketplace.ticks": scalar(
            len(tracer.durations("marketplace.tick")), "count"
        ),
        "marketplace.online_drivers": scalar(server.online, "count"),
        "marketplace.truth_intervals": scalar(
            report["truth_intervals"], "count"
        ),
        "api.serve_round_ms_p50": ms("api.serve_round"),
        "api.serve_round_ms_p99": ms("api.serve_round", 0.99),
        "api.serve_round_share": scalar(
            sum(tracer.durations("api.serve_round")) / window, "ratio"
        ),
        "api.view_prefetch_ms_p50": ms("api.view_prefetch"),
        "api.assembly_self_ms_p50": ms(
            "api.serve_round", self_only=True
        ),
        "api.requests_per_round": scalar(
            counts["requests"] / max(1, counts["rounds"]), "count"
        ),
        "api.cars_per_reply": scalar(
            counts["cars"] / max(1, counts["requests"]), "count"
        ),
        "api.encode_ms_p50": ms("api.encode"),
        "service.submit_ms_p50": quantile_ms(list(submit.values())),
        "service.coalesce_wait_ms_p50": quantile_ms(waits),
        "service.round_size_mean": scalar(
            report["requests_served"] / max(1, report["rounds_served"]),
            "count",
        ),
        "service.transport_ms_p50": quantile_ms(transport),
        "service.rest_ms_p50": ms("service.rest"),
        "service.refused": scalar(refused, "count"),
        "loadgen.late_ms_p99": quantile_ms([r.late for r in pings], 0.99),
        "loadgen.sent": scalar(
            len(pings) + len(phases["rest"]) + len(phases["capacity"]),
            "count",
        ),
    }
