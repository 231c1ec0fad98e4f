"""Fleet orchestration: run a measurement campaign against a world.

A *world* is the thing being measured: it owns simulated time and a ping
server.  :class:`MarketplaceWorld` wraps the Uber-like engine,
:class:`TaxiWorld` the trace replayer — the fleet code is identical for
both, which is the whole point of the paper's validation design (§3.5).

The paper pings every 5 seconds.  Long campaigns here may widen the
interval (e.g. 30 s) to trade fidelity for runtime; every analysis that
needs 5-second resolution (jitter) runs shorter campaigns at full rate.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Optional, Sequence, Tuple

from repro.geo.latlon import LatLon
from repro.api.ping import PingEndpoint, PingServer
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.measurement.client import MeasurementClient
from repro.measurement.records import CampaignLog, RoundRecord
from repro.taxi.replay import TaxiReplayServer


class World(abc.ABC):
    """Simulated time plus a ping server to measure."""

    @property
    @abc.abstractmethod
    def server(self) -> PingServer:
        """The service endpoint clients ping."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current simulated time in seconds."""

    @abc.abstractmethod
    def advance(self, dt: float) -> None:
        """Run the world forward *dt* seconds."""


class MarketplaceWorld(World):
    """The Uber-like marketplace as a measurable world."""

    def __init__(self, engine: MarketplaceEngine, nearest_k: int = 8) -> None:
        self.engine = engine
        self._server = PingEndpoint(engine, nearest_k=nearest_k)

    @property
    def server(self) -> PingServer:
        return self._server

    @property
    def now(self) -> float:
        return self.engine.clock.now

    def advance(self, dt: float) -> None:
        self.engine.run(dt)


class TaxiWorld(World):
    """The taxi-trace replayer as a measurable world."""

    def __init__(self, replay: TaxiReplayServer) -> None:
        self.replay = replay

    @property
    def server(self) -> PingServer:
        return self.replay

    @property
    def now(self) -> float:
        return self.replay.now

    def advance(self, dt: float) -> None:
        self.replay.advance(dt)


class Fleet:
    """A set of measurement clients run in lock-step.

    Parameters
    ----------
    positions:
        One measurement point per client; IDs are assigned ``c00``,
        ``c01``, ... in position order.
    car_types:
        Types each client records.  ``None`` records everything the
        service offers (what the real app does); restricting to
        ``[CarType.UBERX]`` makes week-scale campaigns much faster and
        changes nothing for UberX-only analyses.
    ping_interval_s:
        Seconds between ping rounds (5 s in the paper).
    """

    def __init__(
        self,
        positions: Sequence[LatLon],
        car_types: Optional[Sequence[CarType]] = None,
        ping_interval_s: float = 5.0,
    ) -> None:
        if not positions:
            raise ValueError("a fleet needs at least one client")
        if ping_interval_s <= 0:
            raise ValueError("ping interval must be positive")
        self.clients = [
            MeasurementClient(f"c{i:02d}", pos, car_types)
            for i, pos in enumerate(positions)
        ]
        self.ping_interval_s = ping_interval_s

    @property
    def positions(self) -> Dict[str, LatLon]:
        return {c.client_id: c.location for c in self.clients}

    def measure_round(self, server: PingServer) -> RoundRecord:
        """One synchronized ping round across all clients.

        Served through :meth:`PingServer.serve_round`, so a server with
        a batched round path answers the whole fleet in one vectorized
        pass; the default implementation pings per client.  Either way
        the replies — and hence the round record — are identical.
        """
        replies = server.serve_round(
            [(c.client_id, c.location, c.car_types) for c in self.clients]
        )
        samples = {}
        cars: Dict[str, Tuple[float, float]] = {}
        for client, reply in zip(self.clients, replies):
            client_samples, client_cars = client.absorb(reply)
            for car_type, sample in client_samples.items():
                samples[(client.client_id, car_type)] = sample
            cars.update(client_cars)
        return RoundRecord(
            t=server.current_time(), samples=samples, cars=cars
        )

    def run(
        self,
        world: World,
        duration_s: float,
        city: str = "unknown",
        warmup_s: float = 0.0,
    ) -> CampaignLog:
        """Run a campaign: advance the world, ping, repeat.

        ``warmup_s`` lets the world settle (supply ramp-up, first surge
        intervals) before logging starts — the equivalent of the paper's
        data-cleaning of partial first days (§4.1).

        **Threading contract: single-threaded per campaign.**  One
        campaign = one thread driving this loop.  The parallel layer
        works only *above* it (:func:`repro.parallel.run_sweep` runs
        whole campaigns in separate processes, each with its own
        Fleet), never across it.  Campaign-level mutable state (the log, client
        sample memories, any attached
        :class:`~repro.measurement.scheduler.RequestScheduler`) is
        therefore only ever touched from the campaign's own thread;
        the scheduler additionally locks its budget accounting in case
        a future probe driver breaks this convention.

        The round count is fixed up front as an integer and each advance
        targets ``start + round_index * interval`` absolutely, so
        accumulated float error can neither add nor drop a round: the
        old ``now += interval`` loop emitted e.g. 61 rounds for a
        (6 s, 0.1 s) campaign starting at t=0 but 60 starting at t=600,
        purely from representation error.  (When the interval is shorter
        than the world's internal tick the world may overshoot a target
        time; the zero-clamped advance then skips ahead, same as the old
        loop did.)
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if warmup_s > 0:
            world.advance(warmup_s)
        log = CampaignLog(
            city=city,
            client_positions=dict(self.positions),
            ping_interval_s=self.ping_interval_s,
        )
        interval = self.ping_interval_s
        total_rounds = max(1, math.ceil(duration_s / interval - 1e-9))
        start = world.now
        for k in range(total_rounds):
            log.rounds.append(self.measure_round(world.server))
            world.advance(max(0.0, start + (k + 1) * interval - world.now))
        return log
