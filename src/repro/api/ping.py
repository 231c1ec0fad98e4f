"""The `pingClient` endpoint.

After authenticating, the Client app sends a `pingClient` message every
5 seconds carrying the user's geolocation; the server replies with, per
car type: the nearest eight cars (randomized ID, location, recent path
vector), the EWT, and the surge multiplier (§3.3).

:class:`PingServer` is the minimal interface — the measurement fleet only
depends on it, so the same fleet code measures the marketplace simulator
*and* the taxi-trace replayer used for validation (§3.5), exactly as the
paper reuses its methodology across both.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.latlon import LatLon
from repro.api.models import CarView, PingReply, TypeStatus
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType

#: One client's ping for a lock-step round: (account_id, location,
#: car_types or None for every type served here).
PingRequest = Tuple[str, LatLon, Optional[Sequence[CarType]]]


class PingServer(abc.ABC):
    """Anything that can answer a `pingClient` message."""

    @abc.abstractmethod
    def ping(
        self,
        account_id: str,
        location: LatLon,
        car_types: Optional[Sequence[CarType]] = None,
    ) -> PingReply:
        """Answer one ping from *account_id* at *location*.

        *car_types* restricts the response to the given types; ``None``
        means every type the service offers here.  (The real endpoint
        always returned all types; restricting is a measurement-side
        optimization that changes nothing the analysis consumes.)
        """

    @abc.abstractmethod
    def current_time(self) -> float:
        """The service's clock, in simulated seconds."""

    def serve_round(
        self, requests: Sequence[PingRequest]
    ) -> List[PingReply]:
        """Answer one lock-step round of pings, one reply per request.

        The fleet pings in lock-step (every client, same instant, every
        5 s — §3.3), so a server may exploit the round structure to
        share work across clients.  The default is the semantic
        definition: N independent :meth:`ping` calls, in request order.
        Overrides must return reply-for-reply identical results.
        """
        return [
            self.ping(account_id, location, car_types)
            for account_id, location, car_types in requests
        ]


class PingEndpoint(PingServer):
    """`pingClient` served from a live marketplace engine."""

    def __init__(self, engine: MarketplaceEngine, nearest_k: int = 8) -> None:
        if nearest_k <= 0:
            raise ValueError("nearest_k must be positive")
        self.engine = engine
        self.nearest_k = nearest_k
        # Per-driver CarView memo.  A car's served view only changes
        # when it moves (every step builds a fresh LatLon object) or
        # re-identifies (new session token), but a whole fleet of
        # clients observes it between moves; building the frozen view
        # once per change serves every observer from the cache.  Swept
        # against live session tokens (see _sweep_departed) so week-
        # scale campaigns don't accumulate views of departed identities.
        self._views: Dict[int, CarView] = {}

    def current_time(self) -> float:
        return self.engine.clock.now

    def _sweep_departed(self) -> None:
        """Evict memoized views whose public identity is gone.

        Every driver death/re-identification strands the old token's
        view in the memo; unswept, a week-scale campaign grows it with
        each of those events.  Amortized: only runs once the memo
        outgrows twice the online fleet.  Behaviour-neutral — every
        evicted entry fails the freshness check in :meth:`_view_for`
        and would be rebuilt before serving anyway.
        """
        views = self._views
        engine = self.engine
        online = sum(
            engine.online_count(car_type)
            for car_type in engine.config.fleet
        )
        if len(views) <= 2 * online + 16:
            return
        stale = [
            driver_id
            for driver_id, view in views.items()
            if engine.driver_by_id(driver_id).session_token != view.car_id
        ]
        for driver_id in stale:
            del views[driver_id]

    def _view_for(self, driver) -> CarView:
        view = self._views.get(driver.driver_id)
        if (
            view is None
            or view.car_id != driver.session_token
            or view.location is not driver.location
        ):
            view = CarView(
                car_id=driver.session_token,
                location=driver.location,
                path=driver.path_triples(),
            )
            self._views[driver.driver_id] = view
        return view

    def ping(
        self,
        account_id: str,
        location: LatLon,
        car_types: Optional[Sequence[CarType]] = None,
    ) -> PingReply:
        engine = self.engine
        self._sweep_departed()
        if car_types is None:
            car_types = list(engine.config.fleet)
        statuses = []
        view_for = self._view_for
        for car_type in car_types:
            # One spatial query serves both the car list and the EWT.
            nearest, ewt = engine.nearest_cars_with_ewt(
                location, car_type, k=self.nearest_k
            )
            # A driver without a session token has no public identity
            # and must never be served: emitting "" would collapse every
            # such car into one colliding ID, corrupting the unique-car
            # supply counts and death-based demand estimates (§3.3).
            cars = tuple(
                view_for(d) for d in nearest if d.session_token
            )
            statuses.append(
                TypeStatus(
                    car_type=car_type,
                    cars=cars,
                    ewt_minutes=ewt,
                    surge_multiplier=engine.observed_multiplier(
                        account_id, location, car_type
                    ),
                )
            )
        return PingReply(
            timestamp=engine.clock.now,
            location=location,
            statuses=tuple(statuses),
        )

    def serve_round(
        self, requests: Sequence[PingRequest]
    ) -> List[PingReply]:
        """One vectorized pass over a whole lock-step round.

        One distance matrix per (fleet, car type) against every ping
        location (:meth:`MarketplaceEngine.round_query`), one batched
        point→area gather, and per-account jitter staleness resolved
        once per round — instead of N independent :meth:`ping` calls
        re-deriving all three.  Reply-for-reply bit-identical to the per-client path (the flag-matrix tests
        enforce it); falls back to it when the engine declines the
        batch query (``use_batched_ping`` off, or scalar step mode).
        """
        engine = self.engine
        self._sweep_departed()
        if not requests:
            return []
        lats = np.array(
            [location.lat for _, location, _ in requests],
            dtype=np.float64,
        )
        lons = np.array(
            [location.lon for _, location, _ in requests],
            dtype=np.float64,
        )
        all_types = list(engine.config.fleet)
        # The batch computes one distance matrix per car type, so it
        # only pays for the union of what the round actually asks for.
        # `None` contributes "all types" to that union explicitly — a
        # mixed round is still a union, not a silent widening to the
        # whole fleet when only a subset is needed.
        all_set = set(all_types)
        seen = set()
        needed: List[CarType] = []
        for _, _, car_types in requests:
            for car_type in (
                all_types if car_types is None else car_types
            ):
                if car_type not in seen:
                    seen.add(car_type)
                    needed.append(car_type)
            if seen >= all_set:
                # A request may restrict to a type the fleet doesn't
                # field, so `seen` can exceed the fleet; the union is
                # complete once it *covers* the fleet.
                break
        batch = engine.round_query(lats, lons, self.nearest_k, needed)
        if batch is None:
            return [
                self.ping(account_id, location, car_types)
                for account_id, location, car_types in requests
            ]
        area_ids = engine.round_area_ids(lats, lons)
        now = engine.clock.now
        drivers = engine.drivers
        # The engine does not advance while a round is served, so one
        # freshness check per served driver covers the whole round —
        # the per-(location, type, rank) lookups below are then plain
        # dict hits.  Tokenless drivers get no entry: a driver with no
        # session token has no public identity and is filtered exactly
        # as in ping().
        views: Dict[int, CarView] = {}
        view_for = self._view_for
        engine.round_prefetch_views(batch.served_rows)
        for row in batch.served_rows:
            driver = drivers[row]
            if driver.session_token:
                views[row] = view_for(driver)
        # Jitter staleness is a pure function of (account, interval),
        # so one probe per account serves every car type this round.
        stale_memo: Dict[str, bool] = {}
        replies = []
        for i, (account_id, location, car_types) in enumerate(requests):
            if account_id not in stale_memo:
                stale_memo[account_id] = engine.jitter.is_stale(
                    account_id, now
                )
            stale = stale_memo[account_id]
            area_id = area_ids[i]
            statuses = []
            for car_type in (
                all_types if car_types is None else car_types
            ):
                seg = batch.segment(car_type)
                rows_i = seg[1][i] if seg is not None else []
                if rows_i:
                    ewt: Optional[float] = engine.ewt_from_nearest(
                        (seg[0][i][0], rows_i[0])  # type: ignore[index]
                    )
                    cars = tuple(
                        [
                            view
                            for row in rows_i
                            if (view := views.get(row)) is not None
                        ]
                    )
                else:
                    ewt = None
                    cars = ()
                statuses.append(
                    TypeStatus(
                        car_type=car_type,
                        cars=cars,
                        ewt_minutes=ewt,
                        surge_multiplier=engine.round_observed_multiplier(
                            account_id, location, car_type, area_id, stale
                        ),
                    )
                )
            replies.append(
                PingReply(
                    timestamp=now,
                    location=location,
                    statuses=tuple(statuses),
                )
            )
        return replies
