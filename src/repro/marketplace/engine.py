"""The marketplace simulation engine.

Binds geography, drivers, demand, dispatch, and surge pricing into a
deterministic fixed-step loop.  One engine simulates one city.  Each tick
(default 5 s, matching the Client app ping period):

1. the surge engine publishes new multipliers if its 5-minute clock fired;
2. the online driver pool is relaxed toward its diurnal target (with a
   small surge incentive on arrivals, §5.5);
3. ride requests are generated, priced, possibly converted, and dispatched
   to the nearest idle driver;
4. every online driver advances (cruising, driving to pickup, on trip);
5. per-area supply/EWT observations are fed to the surge engine, and
   ground truth is logged per 5-minute interval.

**Public car identities.**  A car's public token is refreshed every time
it (re)enters the idle pool — on coming online *and* after each dropoff —
which is why the paper can treat a disappearing car as a fulfilled ride
("death") and why unique-ID counts are a strict upper bound on true
supply (§3.3, Fig 9 caption).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geo.index import AreaIndex, PointIndex
from repro.geo.latlon import EARTH_RADIUS_M, LatLon
from repro.geo.regions import SurgeAreaDef
from repro.marketplace.clock import SimClock
from repro.marketplace.config import CityConfig
from repro.marketplace.dispatch import Dispatcher
from repro.marketplace.driver import Driver, DriverState, Trip
from repro.marketplace.fleet_array import FleetArray, RoundNearest
from repro.marketplace.rider import DemandModel, RideRequest, _poisson
from repro.marketplace.surge import SurgeEngine
from repro.marketplace.jitter import JitterBug
from repro.marketplace.types import FARE_TABLE, CarType

METERS_PER_MILE = 1609.344


@dataclass
class IntervalTruth:
    """Ground truth for one 5-minute interval (for validation and benches)."""

    interval_index: int
    start_s: float
    online_by_type: Dict[CarType, int] = field(default_factory=dict)
    distinct_online_uberx: int = 0
    fulfilled_by_area: Dict[int, int] = field(default_factory=dict)
    requests_by_area: Dict[int, int] = field(default_factory=dict)
    priced_out: int = 0
    unfulfilled: int = 0
    mean_idle_uberx_by_area: Dict[int, float] = field(default_factory=dict)
    multipliers: Dict[int, float] = field(default_factory=dict)
    mean_ewt_by_area: Dict[int, float] = field(default_factory=dict)

    @property
    def fulfilled_total(self) -> int:
        return sum(self.fulfilled_by_area.values())


@dataclass
class CompletedTrip:
    """Bookkeeping record of one completed ride."""

    rider_id: int
    car_type: CarType
    pickup: LatLon
    dropoff: LatLon
    requested_at: float
    completed_at: float
    surge_multiplier: float
    fare_usd: float


class MarketplaceEngine:
    """Deterministic simulation of one city's ride-sharing marketplace."""

    def __init__(
        self,
        config: CityConfig,
        seed: int = 0,
        use_spatial_index: bool = True,
        use_vectorized_step: bool = True,
        use_batched_ping: bool = True,
    ) -> None:
        self.config = config
        self.use_spatial_index = use_spatial_index
        self.use_vectorized_step = use_vectorized_step
        # Batched round serving (PingEndpoint.serve_round answers a whole
        # fleet's ping round from one FleetArray.round_nearest pass).
        # Like the other flags it must only ever change speed: all
        # eight flag combinations produce bit-identical ping replies,
        # truth logs, trip ledgers, and RNG state (enforced in tier-1 by
        # the tests/test_perf_regression.py flag matrix).  It only takes
        # effect on the vectorized step path; scalar engines serve
        # per-client regardless (see round_query).
        self.use_batched_ping = use_batched_ping
        # The per-driver PointIndex is only maintained on the scalar
        # step path: the vectorized path answers nearest-k queries
        # directly off the fleet arrays (identical (distance, id)
        # ordering), so index upkeep there would be pure overhead.
        # Like `use_spatial_index`, `use_vectorized_step` must only ever
        # change speed: all four flag combinations produce bit-identical
        # truth logs, trip ledgers, and ping replies (enforced in
        # tier-1 by tests/test_perf_regression.py).
        self._maintain_index = use_spatial_index and not use_vectorized_step
        self.rng = random.Random(seed)
        self.clock = SimClock(
            start_weekday=config.start_weekday, tick_seconds=5.0
        )
        self.dispatcher = Dispatcher()
        self.demand = DemandModel(
            region=config.region,
            profile=config.demand_profile,
            peak_requests_per_hour=config.peak_requests_per_hour,
            type_mix=dict(config.type_mix),
            elasticity=config.demand_elasticity,
            wait_out_fraction=config.wait_out_fraction,
        )
        area_ids = [a.area_id for a in config.region.surge_areas]
        self.surge = SurgeEngine(
            area_ids, config.surge, random.Random(seed + 1)
        )
        self.jitter = JitterBug(config.jitter, seed=seed + 2)
        self._adjacency = config.region.adjacency()
        self._area_list: Tuple[SurgeAreaDef, ...] = tuple(
            config.region.surge_areas
        )
        self._centroids: Dict[int, LatLon] = {
            a.area_id: a.polygon.centroid() for a in self._area_list
        }

        # Spatial indexes over the two hot queries (point -> area and
        # k-nearest idle driver).  Queries through them are pure reads
        # with brute-force-identical ordering, so `use_spatial_index`
        # only changes speed, never behaviour; the flag keeps the linear
        # scans available for equivalence tests and benchmarks.
        # Each per-type PointIndex holds exactly the *dispatchable*
        # (idle) drivers of that type: membership is updated on
        # online/offline transitions, on dispatch, and as trips
        # complete, so queries need no predicate and never touch busy
        # drivers.
        box = config.region.bounding_box
        ref_lat = (box.south + box.north) / 2.0
        self._area_index: Optional[AreaIndex] = (
            AreaIndex([(a.area_id, a.polygon) for a in self._area_list])
            if use_spatial_index
            else None
        )
        # Cell size per type targets ~6 points per cell at full fleet
        # (measured optimum for k=8 queries): the ring walk then
        # touches tens of candidates over a handful of cells, and stays
        # efficient from toy fleets to the scaled scenarios the
        # benchmarks run.  (Cell size only affects speed, never
        # results.)
        width_m = (
            math.radians(box.east - box.west)
            * EARTH_RADIUS_M
            * math.cos(math.radians(ref_lat))
        )
        height_m = math.radians(box.north - box.south) * EARTH_RADIUS_M
        area_m2 = max(1.0, width_m * height_m)
        self._driver_index: Dict[CarType, PointIndex] = (
            {
                car_type: PointIndex(
                    cell_m=min(
                        250.0,
                        max(
                            40.0,
                            math.sqrt(area_m2 * 6.0 / max(1, count)),
                        ),
                    ),
                    ref_lat=ref_lat,
                )
                for car_type, count in config.fleet.items()
            }
            if self._maintain_index
            else {}
        )

        # Build the full driver pool (offline initially).
        self.drivers: List[Driver] = []
        ids = itertools.count(1)
        for car_type, count in config.fleet.items():
            for _ in range(count):
                self.drivers.append(
                    Driver(
                        driver_id=next(ids),
                        car_type=car_type,
                        location=self.demand.sample_point(self.rng),
                        speed_mps=config.driver.speed_mps,
                    )
                )
        # id -> Driver for the serving layer.  Ids happen to be dense
        # 1..N today, but nothing outside the engine may assume that:
        # consumers go through driver_by_id() instead of indexing the
        # list positionally.
        self._driver_by_id: Dict[int, Driver] = {
            d.driver_id: d for d in self.drivers
        }
        self._offline_by_type: Dict[CarType, List[Driver]] = {}
        self._online_by_type: Dict[CarType, List[Driver]] = {}
        for car_type in config.fleet:
            self._offline_by_type[car_type] = [
                d for d in self.drivers if d.car_type is car_type
            ]
            self._online_by_type[car_type] = []

        # Vectorized fleet stepping (structure-of-arrays; see
        # repro.marketplace.fleet_array).  Attaching the FleetArray
        # turns Driver.location into a lazy array-backed view.
        self._vec: Optional[FleetArray] = None
        if use_vectorized_step:
            self._vec = FleetArray(self.drivers)
            # Point→area resolution for the batched observe phase.  The
            # AreaIndex answers exactly like the brute first-match
            # polygon scan, so building one here is behaviour-neutral
            # even in the `use_spatial_index=False` combination.
            self._vec_area = (
                self._area_index
                if self._area_index is not None
                else AreaIndex(
                    [(a.area_id, a.polygon) for a in self._area_list]
                )
            )
            self._centroid_lat = np.array(
                [c.lat for c in self._centroids.values()],
                dtype=np.float64,
            )
            self._centroid_lon = np.array(
                [c.lon for c in self._centroids.values()],
                dtype=np.float64,
            )
            # Interval-distinct online UberX, as a seen-bits array (the
            # scalar path accumulates a set of driver ids; only the
            # count reaches the truth log).
            self._seen_online_x = np.zeros(len(self.drivers), dtype=bool)

        # Ground-truth logging.
        self.truth: List[IntervalTruth] = []
        self.completed_trips: List[CompletedTrip] = []
        self._current_truth = IntervalTruth(interval_index=0, start_s=0.0)
        self._interval_online_uberx: Set[int] = set()
        self._interval_ewt_acc: Dict[int, List[float]] = {
            a: [] for a in area_ids
        }
        self._interval_idle_acc: Dict[int, Tuple[float, int]] = {
            a: (0.0, 0) for a in area_ids
        }

        # City-wide demand-burst level (AR(1), stepped per interval).
        self._burst_level = 1.0
        self._burst_rng = random.Random(seed + 3)

        # Warm-up: pre-seed the online pool at the midnight target so the
        # first simulated hours aren't an artificial cold start.
        self._seed_initial_supply()

    def close(self) -> None:
        """End-of-run hook; a no-op.

        The engine is one serial path holding only heap state, so there
        is nothing to release.  Campaign runners, benchmarks and the CLI
        call it when a run ends, and it stays so they remain valid.
        """

    # ------------------------------------------------------------------
    # Supply management
    # ------------------------------------------------------------------
    def _target_online(self, car_type: CarType) -> float:
        frac = self.config.online_fraction.level(
            self.clock.hour_of_day, self.clock.is_weekend
        )
        mults = self.surge.multipliers()
        # A region may legitimately have zero surge areas (e.g. a
        # driver-set-pricing city): no areas means no surge incentive,
        # not a ZeroDivisionError.
        mean_excess = (
            sum(m - 1.0 for m in mults.values()) / len(mults)
            if mults
            else 0.0
        )
        boost = 1.0 + self.config.driver.surge_supply_incentive * mean_excess
        return self.config.fleet[car_type] * frac * boost

    def _seed_initial_supply(self) -> None:
        for car_type in self.config.fleet:
            target = int(round(self._target_online(car_type)))
            for _ in range(target):
                self._bring_one_online(car_type)

    def _bring_one_online(self, car_type: CarType) -> Optional[Driver]:
        pool = self._offline_by_type[car_type]
        if not pool:
            return None
        driver = pool.pop(self.rng.randrange(len(pool)))
        driver.location = self.demand.sample_point(self.rng)
        session = self.rng.expovariate(
            1.0 / self.config.driver.mean_session_s
        )
        driver.come_online(self.clock.now, max(300.0, session), self.rng)
        self._online_by_type[car_type].append(driver)
        if self._maintain_index:
            self._driver_index[car_type].insert(
                driver.driver_id, driver.location, driver
            )
        if self._vec is not None:
            self._vec.on_online(driver, self.clock.now)
        return driver

    def _manage_supply(self, dt: float) -> None:
        tau = self.config.driver.supply_tau_s
        for car_type in self.config.fleet:
            online = self._online_by_type[car_type]
            target = self._target_online(car_type)
            deficit = target - len(online)
            if deficit > 0:
                arrivals = _poisson(dt * deficit / tau, self.rng)
                for _ in range(arrivals):
                    self._bring_one_online(car_type)
            elif deficit < -2:
                # Over target: idle drivers sign off early at a matching
                # hazard, keeping the pool tracking the diurnal curve down
                # as well as up.
                departures = _poisson(dt * (-deficit) / tau, self.rng)
                idle = [d for d in online if d.is_dispatchable]
                for _ in range(min(departures, len(idle))):
                    driver = idle.pop(self.rng.randrange(len(idle)))
                    self._take_offline(driver)

    def _take_offline(self, driver: Driver) -> None:
        if self._vec is not None:
            # The object keeps its final position across the offline
            # gap (release_supply re-onlines drivers in place).
            self._vec.refresh_location(driver)
        driver.go_offline()
        self._online_by_type[driver.car_type].remove(driver)
        self._offline_by_type[driver.car_type].append(driver)
        if self._maintain_index:
            # A driver signing off right after a dropoff was removed
            # from the idle index when dispatched and never re-entered.
            index = self._driver_index[driver.car_type]
            if driver.driver_id in index:
                index.remove(driver.driver_id)
        if self._vec is not None:
            self._vec.on_offline(driver)

    # ------------------------------------------------------------------
    # Experiment hooks: supply withholding (the collusion attack)
    # ------------------------------------------------------------------
    def withhold_supply(
        self,
        car_type: CarType,
        count: int,
        area_id: Optional[int] = None,
    ) -> List[int]:
        """Take up to *count* idle drivers offline and return their ids.

        The paper warns the black-box surge algorithm is "vulnerable to
        exploitation ... possibly by colluding groups of drivers" [2]:
        drivers who sign off together shrink measured supply, trigger
        surge, then sign back on to harvest the multiplier.  This hook
        (with :meth:`release_supply`) stages that attack in experiments;
        the production loop never calls it.
        """
        if count < 0:
            raise ValueError("count cannot be negative")
        candidates = [
            d for d in self.idle_drivers(car_type)
            if area_id is None or self.area_id_of(d.location) == area_id
        ]
        self.rng.shuffle(candidates)
        withheld = []
        for driver in candidates[:count]:
            self._take_offline(driver)
            withheld.append(driver.driver_id)
        return withheld

    def release_supply(self, driver_ids: Sequence[int]) -> int:
        """Bring specific withheld drivers back online; returns how many."""
        wanted = set(driver_ids)
        restored = 0
        for car_type, pool in self._offline_by_type.items():
            for driver in [d for d in pool if d.driver_id in wanted]:
                pool.remove(driver)
                session = self.rng.expovariate(
                    1.0 / self.config.driver.mean_session_s
                )
                driver.come_online(
                    self.clock.now, max(300.0, session), self.rng
                )
                self._online_by_type[car_type].append(driver)
                if self._maintain_index:
                    self._driver_index[car_type].insert(
                        driver.driver_id, driver.location, driver
                    )
                if self._vec is not None:
                    self._vec.on_online(driver, self.clock.now)
                restored += 1
        return restored

    # ------------------------------------------------------------------
    # Pricing lookups
    # ------------------------------------------------------------------
    def area_id_of(self, location: LatLon) -> Optional[int]:
        if self._area_index is not None:
            return self._area_index.locate(location)
        return self._area_id_brute(location)

    def _area_id_brute(self, location: LatLon) -> Optional[int]:
        """Linear first-match scan (reference path for equivalence tests)."""
        for area in self._area_list:
            if area.polygon.contains(location):
                return area.area_id
        return None

    def _index_for(self, car_type: CarType) -> Optional[PointIndex]:
        """The live driver index for *car_type*, or None when the scans
        are served another way (brute mode, or off the fleet arrays)."""
        return (
            self._driver_index.get(car_type)
            if self._maintain_index
            else None
        )

    def true_multiplier(self, location: LatLon, car_type: CarType) -> float:
        """The multiplier billing actually uses (never jittered)."""
        if not car_type.surge_eligible:
            return 1.0
        area_id = self.area_id_of(location)
        if area_id is None:
            return 1.0
        return self.surge.multiplier(area_id)

    def observed_multiplier(
        self, account_id: str, location: LatLon, car_type: CarType
    ) -> float:
        """What a given client account is served — jitter bug included."""
        if not car_type.surge_eligible:
            return 1.0
        area_id = self.area_id_of(location)
        if area_id is None:
            return 1.0
        if self.jitter.is_stale(account_id, self.clock.now):
            return self.surge.previous_multiplier(area_id)
        return self.surge.multiplier(area_id)

    # ------------------------------------------------------------------
    # Car/EWT views (consumed by the API layer)
    # ------------------------------------------------------------------
    def idle_drivers(self, car_type: CarType) -> List[Driver]:
        return [
            d for d in self._online_by_type.get(car_type, ())
            if d.is_dispatchable
        ]

    def nearest_cars(
        self, location: LatLon, car_type: CarType, k: int = 8
    ) -> List[Driver]:
        if self._vec is not None:
            drivers = self.drivers
            return [
                drivers[row]
                for _, row in self._vec.nearest_rows(location, car_type, k)
            ]
        return self.dispatcher.nearest_idle(
            self._online_by_type.get(car_type, ()),
            location,
            car_type,
            k=k,
            index=self._index_for(car_type),
        )

    def estimate_wait_minutes(
        self, location: LatLon, car_type: CarType
    ) -> Optional[float]:
        if self._vec is not None:
            res = self._vec.nearest_rows(location, car_type, 1)
            if not res:
                return None
            return self.ewt_from_nearest(res[0])
        est = self.dispatcher.estimate_wait(
            self._online_by_type.get(car_type, ()),
            location,
            car_type,
            index=self._index_for(car_type),
        )
        return None if est is None else est.minutes

    def nearest_cars_with_ewt(
        self, location: LatLon, car_type: CarType, k: int = 8
    ) -> Tuple[List[Driver], Optional[float]]:
        """Nearest cars plus the EWT, from a single spatial query.

        The head of the nearest list *is* the nearest idle driver, so
        the EWT can be derived from it directly — one query serves both
        halves of a `pingClient` reply instead of two.  Results are
        identical to calling :meth:`nearest_cars` and
        :meth:`estimate_wait_minutes` separately.
        """
        if self._vec is not None:
            res = self._vec.nearest_rows(location, car_type, k)
            if not res:
                return [], None
            drivers = self.drivers
            cars = [drivers[row] for _, row in res]
            return cars, self.ewt_from_nearest(res[0])
        cars = self.nearest_cars(location, car_type, k=k)
        if not cars:
            return cars, None
        return cars, self.dispatcher.ewt_for(cars[0], location).minutes

    def ewt_from_nearest(self, nearest: Tuple[float, int]) -> float:
        """EWT from an already-computed ``(distance_m, row)`` nearest
        pair — the same arithmetic as ``Dispatcher.ewt_for`` without
        re-reading the driver's location (the array distance is
        bit-identical to ``fast_distance_m``).  Public so the batched
        round-serving path (:meth:`round_query` consumers) can derive
        EWTs from the shared distance matrix."""
        dist, row = nearest
        seconds = (
            dist / self.drivers[row].speed_mps
            + self.dispatcher.pickup_overhead_s
        )
        return max(1.0, seconds / 60.0)

    # ------------------------------------------------------------------
    # Batched round serving (consumed by PingEndpoint.serve_round)
    # ------------------------------------------------------------------
    def round_query(
        self,
        lats: np.ndarray,
        lons: np.ndarray,
        k: int,
        car_types: Optional[Iterable[CarType]] = None,
    ) -> Optional["RoundNearest"]:
        """Top-k nearest dispatchable rows for a whole round of ping
        locations, or ``None`` when the batch path is unavailable.

        Gated on ``use_batched_ping`` here (not in the API layer) so
        the flag's behaviour lives next to the flag: when it is off —
        or the engine runs the scalar step path and has no FleetArray —
        callers fall back to per-client :meth:`nearest_cars_with_ewt`,
        which produces bit-identical results (see
        ``FleetArray.round_nearest``).  *car_types* limits the batch to
        the types the round will serve.
        """
        if not self.use_batched_ping or self._vec is None:
            return None
        return self._vec.round_nearest(lats, lons, k, car_types)

    def round_prefetch_views(self, rows: Sequence[int]) -> None:
        """Bulk-warm object-side caches for the rows a round will view.

        Delegates to :meth:`FleetArray.prefetch_rows`; a no-op on the
        scalar path (which never reaches the batch serving loop).
        """
        if self._vec is not None:
            self._vec.prefetch_rows(rows)

    def round_area_ids(
        self, lats: np.ndarray, lons: np.ndarray
    ) -> List[Optional[int]]:
        """Surge-area ids for a whole round of ping locations.

        One vectorized point→area gather, identical per element to
        :meth:`area_id_of` (``AreaIndex.locate_codes`` reproduces the
        brute first-match scan exactly).  Only called on the batch path,
        where ``_vec_area`` is always attached.
        """
        area_list = self._area_list
        if not area_list:
            return [None] * int(lats.size)
        codes = self._vec_area.locate_codes(lats, lons)
        return [
            area_list[c].area_id if c >= 0 else None
            for c in codes.tolist()
        ]

    def round_observed_multiplier(
        self,
        account_id: str,
        location: LatLon,
        car_type: CarType,
        area_id: Optional[int],
        stale: bool,
    ) -> float:
        """:meth:`observed_multiplier` with the per-round shared work
        (area lookup, jitter staleness) hoisted out by the caller.

        Overridable hook: pricing engines that redefine
        ``observed_multiplier`` (e.g. ``DriverSetPricingEngine``) must
        override this too, or the batched path would diverge from the
        per-client path.  The base implementation is byte-for-byte the
        ``observed_multiplier`` logic with the precomputed inputs.
        """
        if not car_type.surge_eligible:
            return 1.0
        if area_id is None:
            return 1.0
        if stale:
            return self.surge.previous_multiplier(area_id)
        return self.surge.multiplier(area_id)

    def online_count(self, car_type: CarType) -> int:
        return len(self._online_by_type.get(car_type, ()))

    def driver_by_id(self, driver_id: int) -> Driver:
        """The driver with the given public id.

        The serving layer holds per-driver memos keyed by id (e.g. the
        ``PingEndpoint`` view cache); this accessor owns the id->object
        mapping so those memos stay correct even if driver ids ever
        stop being dense ``1..N`` list positions.
        """
        return self._driver_by_id[driver_id]

    def sync_fleet(self) -> None:
        """Flush lazily-stepped array state back into Driver objects.

        Never required for correctness — ``Driver.location`` and the
        path accessors self-refresh on read — but handy before bulk
        object-level inspection (tests, ad-hoc analysis).  No-op on the
        scalar step path.
        """
        if self._vec is not None:
            self._vec.sync_all()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the marketplace by one clock step."""
        dt = self.clock.tick_seconds
        now = self.clock.tick()

        # Interval rollover for ground-truth logging.
        interval = self.clock.interval_index()
        if interval != self._current_truth.interval_index:
            self._finish_interval(interval)
            self._step_burst()

        self.surge.maybe_update(now)
        self._manage_supply(dt)
        self._generate_and_dispatch(now, dt)
        self._step_drivers(now, dt)
        self._post_step(now, dt)
        self._observe(now)

    def run(self, seconds: float) -> None:
        """Simulate *seconds* of marketplace time."""
        end = self.clock.now + seconds
        while self.clock.now < end:
            self.tick()

    def run_days(self, days: float) -> None:
        self.run(days * 86_400.0)

    # ------------------------------------------------------------------
    def _step_burst(self) -> None:
        """Advance the AR(1) demand-burst level once per interval."""
        p = self.config.burst
        level = 1.0 + p.rho * (self._burst_level - 1.0)
        level += self._burst_rng.gauss(0.0, p.sigma)
        self._burst_level = min(max(level, p.floor), p.cap)

    @property
    def burst_level(self) -> float:
        """The current exogenous demand multiplier (events/weather)."""
        return self._burst_level

    def _generate_and_dispatch(self, now: float, dt: float) -> None:
        requests = self.demand.generate(
            now,
            dt,
            self.clock.hour_of_day,
            self.clock.is_weekend,
            self.rng,
            multiplier_at=self.true_multiplier,
            rate_scale=self._burst_level,
        )
        truth = self._current_truth
        for request in requests:
            area_id = self.area_id_of(request.pickup)
            if area_id is not None:
                truth.requests_by_area[area_id] = (
                    truth.requests_by_area.get(area_id, 0) + 1
                )
                # The pricing signal weighs *placed* requests fully
                # and walked-away riders partially.  Surge onset thus
                # suppresses most of the signal that caused it — the
                # collapse half of the spike-and-collapse pattern the
                # paper measured — while the residual (plus bursts)
                # lets sustained events ramp the multiplier up in
                # capped steps (the staircase half, why jitter mostly
                # *drops* prices, §5.2).
                weight = (
                    1.0 if request.converted
                    else self.config.priced_out_demand_weight
                )
                self.surge.observe_demand(area_id, weight)
            if not request.converted:
                truth.priced_out += 1
                continue
            driver = self._dispatch_request(request, now)
            if driver is None:
                truth.unfulfilled += 1
                continue
            if self._maintain_index:
                # Booked: no longer dispatchable, leaves the idle index
                # until the trip completes.
                self._driver_index[request.car_type].remove(
                    driver.driver_id
                )
            if area_id is not None:
                truth.fulfilled_by_area[area_id] = (
                    truth.fulfilled_by_area.get(area_id, 0) + 1
                )

    def _dispatch_request(
        self, request: RideRequest, now: float
    ) -> Optional[Driver]:
        """Book the nearest idle driver for *request*, if close enough.

        The vectorized branch replicates :meth:`Dispatcher.dispatch`
        operation for operation — same nearest-1 ordering, same radius
        rule on the same distance float, same Trip — against the fleet
        arrays instead of an object scan or PointIndex.
        """
        vec = self._vec
        if vec is None:
            return self.dispatcher.dispatch(
                request,
                self._online_by_type.get(request.car_type, ()),
                now,
                index=self._index_for(request.car_type),
            )
        res = vec.nearest_rows(request.pickup, request.car_type, 1)
        if not res:
            return None
        dist, row = res[0]
        if dist > self.dispatcher.max_radius_m:
            return None
        driver = self.drivers[row]
        trip = Trip(
            pickup=request.pickup,
            dropoff=request.dropoff,
            requested_at=now,
            rider_id=request.rider_id,
            surge_multiplier=request.multiplier_seen,
        )
        driver.assign(trip)
        vec.on_assign(driver, trip)
        return driver

    def _step_drivers(self, now: float, dt: float) -> None:
        if self._vec is not None:
            self._step_drivers_vec(now, dt)
            return
        decision_p = dt / self.config.driver.cruise_decision_s
        use_index = self._maintain_index
        for car_type, online in self._online_by_type.items():
            index = self._driver_index[car_type] if use_index else None
            # Iterate over a copy: completions can trigger sign-off which
            # mutates the online list.
            for driver in list(online):
                completed = driver.step(now, dt, self.rng)
                if completed is not None:
                    self._account_trip(driver, completed, now)
                    if driver.wants_to_leave(now):
                        self._take_offline(driver)
                        continue
                    # Reappear as a brand-new public car identity.
                    driver.come_back_idle(now, self.rng)
                elif (
                    driver.state is DriverState.IDLE
                    and driver.wants_to_leave(now)
                ):
                    self._take_offline(driver)
                    continue
                if index is not None:
                    # Sync idle-only membership with the state this step
                    # produced: idle drivers track their move (cheap:
                    # usually a same-cell update) and a just-completed
                    # trip re-enters the pool; busy drivers were removed
                    # at dispatch and stay out.
                    if driver.state is DriverState.IDLE:
                        if driver.driver_id in index:
                            index.move(driver.driver_id, driver.location)
                        else:
                            index.insert(
                                driver.driver_id, driver.location, driver
                            )
                if (
                    driver.state is DriverState.IDLE
                    and driver.cruise_target is None
                    and self.rng.random() < decision_p
                ):
                    self._choose_cruise_target(driver)

    def _step_drivers_vec(self, now: float, dt: float) -> None:
        """Array-stepped equivalent of :meth:`_step_drivers`.

        Phase 1 (:meth:`FleetArray.begin_step`) advances every
        target-driven mover with batched array ops — no RNG there.  The
        loop below then visits, *in exactly the scalar iteration order*
        (online lists per car type, snapshot copies), only the drivers
        whose scalar step would consume RNG or trigger an event: idle
        wobblers (2 gauss draws), trip completions (re-identification
        token), cruise-target arrivals and post-event decision draws,
        and session expiries.  Wobble offsets whose position nothing
        reads this tick are deferred and batch-applied in
        :meth:`FleetArray.finish_step`; offsets a relocation decision
        (or sign-off) is about to read are applied inline with `math`
        arithmetic that matches the batched numpy path bit-for-bit.
        """
        vec = self._vec
        rng = self.rng
        decision_p = dt / self.config.driver.cruise_decision_s
        masks = vec.begin_step(now, dt)
        wobble = masks.wobble
        cruise_arrived = masks.cruise_arrived
        completed = masks.completed
        leave = vec.planned_off <= now
        needs = completed | wobble | cruise_arrived | (masks.idle_like & leave)
        defer_rows: List[int] = []
        defer_north: List[float] = []
        defer_east: List[float] = []
        wobbled_rows: List[int] = []
        gauss = rng.gauss
        random_ = rng.random
        for online in self._online_by_type.values():
            for d in list(online):
                r = d._row
                if not needs[r]:
                    continue
                if completed[r]:
                    trip = d.trip
                    d.trip = None
                    d.state = DriverState.IDLE
                    d.trips_completed += 1
                    self._account_trip(d, trip, now)
                    if leave[r]:
                        self._take_offline(d)
                        continue
                    # Reappear as a brand-new public car identity.
                    d.come_back_idle(now, rng)
                    vec.on_back_idle(d, now)
                    if random_() < decision_p:
                        self._choose_cruise_target(d)
                        vec.set_target_from(d)
                elif wobble[r]:
                    north = gauss(0.0, 5.0)
                    east = gauss(0.0, 5.0)
                    if leave[r]:
                        vec.apply_offset(r, north, east)
                        self._take_offline(d)
                        continue
                    wobbled_rows.append(r)
                    if random_() < decision_p:
                        # The relocation policy reads the post-wobble
                        # position, so this offset cannot be deferred.
                        vec.apply_offset(r, north, east)
                        self._choose_cruise_target(d)
                        vec.set_target_from(d)
                    else:
                        defer_rows.append(r)
                        defer_north.append(north)
                        defer_east.append(east)
                elif cruise_arrived[r]:
                    if leave[r]:
                        self._take_offline(d)
                        continue
                    d.cruise_target = None
                    if random_() < decision_p:
                        self._choose_cruise_target(d)
                        vec.set_target_from(d)
                else:
                    # An idle cruiser (target not yet reached) whose
                    # session expired: the scalar path signs it off
                    # right after its move.
                    self._take_offline(d)
        vec.finish_step(now, defer_rows, defer_north, defer_east, wobbled_rows)

    def _post_step(self, now: float, dt: float) -> None:
        """Hook for engine variants (e.g. driver-set pricing); no-op."""

    def _account_trip(
        self, driver: Driver, trip: Trip, now: float
    ) -> None:
        driver.last_trip_at = now
        meters = trip.pickup.fast_distance_m(trip.dropoff)
        minutes = meters / driver.speed_mps / 60.0
        fare = FARE_TABLE[driver.car_type].fare(
            miles=meters / METERS_PER_MILE,
            minutes=minutes,
            surge_multiplier=trip.surge_multiplier,
        )
        driver.earnings_usd += FARE_TABLE[driver.car_type].driver_payout(
            miles=meters / METERS_PER_MILE,
            minutes=minutes,
            surge_multiplier=trip.surge_multiplier,
        )
        self.completed_trips.append(
            CompletedTrip(
                rider_id=trip.rider_id,
                car_type=driver.car_type,
                pickup=trip.pickup,
                dropoff=trip.dropoff,
                requested_at=trip.requested_at,
                completed_at=now,
                surge_multiplier=trip.surge_multiplier,
                fare_usd=fare,
            )
        )

    def _choose_cruise_target(self, driver: Driver) -> None:
        """Idle relocation policy: flock to surge, else drift to demand."""
        behavior = self.config.driver
        my_area = self.area_id_of(driver.location)
        if my_area is not None and driver.car_type.surge_eligible:
            my_mult = self.surge.multiplier(my_area)
            best_neighbor = None
            best_mult = my_mult + 0.2  # the paper's >= 0.2 threshold (§5.5)
            for neighbor in self._adjacency.get(my_area, ()):
                m = self.surge.multiplier(neighbor)
                if m >= best_mult:
                    best_mult = m
                    best_neighbor = neighbor
            if (
                best_neighbor is not None
                and self.rng.random() < behavior.flock_probability
            ):
                centroid = self._centroids[best_neighbor]
                area = self.config.region.area_by_id(best_neighbor)
                target = centroid.offset(
                    north_m=self.rng.gauss(0.0, 200.0),
                    east_m=self.rng.gauss(0.0, 200.0),
                )
                # A flocking driver heads *into* the surging area, not to
                # a jittered point that may fall across its border.
                driver.cruise_target = (
                    target if area.contains(target) else centroid
                )
                return
        if self.rng.random() < behavior.hotspot_attraction:
            driver.cruise_target = self.demand.sample_point(self.rng)
            return
        wander = driver.location.offset(
            north_m=self.rng.gauss(0.0, 400.0),
            east_m=self.rng.gauss(0.0, 400.0),
        )
        # Drivers work the city: wandering never leads out of the region
        # for good (a driver nudged outside heads back to demand).
        if self.config.region.boundary.contains(wander):
            driver.cruise_target = wander
        else:
            driver.cruise_target = self.demand.sample_point(self.rng)

    # ------------------------------------------------------------------
    # Observation / ground truth
    # ------------------------------------------------------------------
    def _observe(self, now: float) -> None:
        if self._vec is not None:
            self._observe_vec(now)
            return
        # Per-area idle UberX supply + EWT at area centroids feed both the
        # surge engine and the ground-truth log.
        idle_counts = {a.area_id: 0 for a in self._area_list}
        for driver in self.idle_drivers(CarType.UBERX):
            area_id = self.area_id_of(driver.location)
            if area_id is not None:
                idle_counts[area_id] += 1
        for area_id, count in idle_counts.items():
            self.surge.observe_supply(area_id, count)
            total, n = self._interval_idle_acc[area_id]
            self._interval_idle_acc[area_id] = (total + count, n + 1)
        for area_id, centroid in self._centroids.items():
            ewt = self.estimate_wait_minutes(centroid, CarType.UBERX)
            if ewt is not None:
                self.surge.observe_ewt(area_id, ewt)
                self._interval_ewt_acc[area_id].append(ewt)
        for driver in self._online_by_type.get(CarType.UBERX, ()):
            self._interval_online_uberx.add(driver.driver_id)

    def _observe_vec(self, now: float) -> None:
        """Batched :meth:`_observe`: same observations, same order.

        Per-area idle counts come from one vectorized point→area gather
        (:meth:`AreaIndex.locate_codes` — exactly the first-match answer
        the scalar loop computes per driver); per-centroid EWTs from one
        distance matrix whose row-wise argmin reproduces the
        ``(distance, driver_id)`` nearest-1 tie-break because idle rows
        are id-ordered.  The surge engine is fed per area in the same
        area-list order as the scalar loop.
        """
        vec = self._vec
        area_list = self._area_list
        idle_x = vec.idle_rows(CarType.UBERX)
        if area_list:
            codes = self._vec_area.locate_codes(
                vec.lat[idle_x], vec.lon[idle_x]
            )
            counts = np.bincount(
                codes[codes >= 0], minlength=len(area_list)
            )
            for i, area in enumerate(area_list):
                area_id = area.area_id
                count = int(counts[i])
                self.surge.observe_supply(area_id, count)
                total, n = self._interval_idle_acc[area_id]
                self._interval_idle_acc[area_id] = (total + count, n + 1)
            if idle_x.size:
                cla = self._centroid_lat
                clo = self._centroid_lon
                la = vec.lat[idle_x]
                lo = vec.lon[idle_x]
                x = np.radians(clo[:, None] - lo[None, :]) * np.cos(
                    np.radians((la[None, :] + cla[:, None]) / 2.0)
                )
                y = np.radians(cla[:, None] - la[None, :])
                dist = EARTH_RADIUS_M * np.sqrt(x * x + y * y)
                j = np.argmin(dist, axis=1)
                dmin = dist[np.arange(len(area_list)), j]
                seconds = (
                    dmin / vec.speed[idle_x[j]]
                    + self.dispatcher.pickup_overhead_s
                )
                minutes = np.maximum(1.0, seconds / 60.0)
                for i, area in enumerate(area_list):
                    ewt = minutes[i].item()
                    self.surge.observe_ewt(area.area_id, ewt)
                    self._interval_ewt_acc[area.area_id].append(ewt)
        self._seen_online_x[vec.online_mask_rows(CarType.UBERX)] = True

    def _finish_interval(self, new_interval: int) -> None:
        truth = self._current_truth
        truth.online_by_type = {
            t: len(v) for t, v in self._online_by_type.items()
        }
        if self._vec is not None:
            truth.distinct_online_uberx = int(self._seen_online_x.sum())
            self._seen_online_x[:] = False
        else:
            truth.distinct_online_uberx = len(self._interval_online_uberx)
        truth.multipliers = self.surge.multipliers()
        truth.mean_idle_uberx_by_area = {
            a: (total / n if n else 0.0)
            for a, (total, n) in self._interval_idle_acc.items()
        }
        truth.mean_ewt_by_area = {
            a: (sum(v) / len(v) if v else 0.0)
            for a, v in self._interval_ewt_acc.items()
        }
        self.truth.append(truth)
        area_ids = [a.area_id for a in self._area_list]
        self._current_truth = IntervalTruth(
            interval_index=new_interval,
            start_s=new_interval * 300.0,
        )
        self._interval_online_uberx = set()
        self._interval_ewt_acc = {a: [] for a in area_ids}
        self._interval_idle_acc = {a: (0.0, 0) for a in area_ids}
