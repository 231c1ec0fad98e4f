"""Driver-set pricing: the Sidecar alternative (§5.5 discussion).

"Another alternative would be for Uber to adopt Sidecar's pricing
approach, in which drivers set their own prices independently.  This
free-market approach obviates the need for a complex, opaque algorithm
and empowers customers to accept or decline fares at will."

:class:`DriverSetPricingEngine` swaps the surge engine out of the
pricing path: the multiplier a rider sees is the *nearest idle driver's*
personal rate.  Drivers adjust their rate from their own utilization —
busy drivers creep their price up, idle drivers discount back toward
(and slightly below) base.  There are no surge areas, no 5-minute clock,
and no jitter bug in this mode; the §3 measurement apparatus runs
unchanged against it, which is exactly why the paper notes such data is
hard to audit systematically ("these additional variables make it
difficult to systematically collect price information", §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.geo.latlon import LatLon
from repro.marketplace.config import CityConfig
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType


@dataclass(frozen=True)
class DriverSetParams:
    """How drivers move their personal rates.

    Every ~``decision_s`` a driver reviews their rate: if their last
    fare was within ``busy_minutes`` they raise it by ``step`` (demand
    is there — charge more); if they have idled past ``slow_minutes``
    they cut by ``step``.  Rates live in ``[floor, cap]`` — Sidecar
    drivers could discount below the base fare.
    """

    step: float = 0.1
    busy_minutes: float = 6.0
    slow_minutes: float = 18.0
    floor: float = 0.8
    cap: float = 3.0
    decision_s: float = 120.0

    def __post_init__(self) -> None:
        if not 0.0 < self.floor <= 1.0 <= self.cap:
            raise ValueError("rates must satisfy 0 < floor <= 1 <= cap")
        if self.busy_minutes >= self.slow_minutes:
            raise ValueError("busy threshold must precede slow threshold")
        if self.step <= 0:
            raise ValueError("step must be positive")


class DriverSetPricingEngine(MarketplaceEngine):
    """The marketplace with free-market per-driver pricing."""

    def __init__(
        self,
        config: CityConfig,
        seed: int = 0,
        pricing: Optional[DriverSetParams] = None,
        use_spatial_index: bool = True,
        use_vectorized_step: bool = True,
        use_batched_ping: bool = True,
    ) -> None:
        super().__init__(
            config,
            seed=seed,
            use_spatial_index=use_spatial_index,
            use_vectorized_step=use_vectorized_step,
            use_batched_ping=use_batched_ping,
        )
        self.pricing = pricing if pricing is not None else DriverSetParams()

    # ------------------------------------------------------------------
    # Pricing path: the nearest candidate driver's own rate.
    # ------------------------------------------------------------------
    def true_multiplier(self, location: LatLon, car_type: CarType) -> float:
        if not car_type.surge_eligible:
            return 1.0
        nearest = self.nearest_cars(location, car_type, k=1)
        if not nearest:
            return 1.0
        return nearest[0].personal_rate

    def observed_multiplier(
        self, account_id: str, location: LatLon, car_type: CarType
    ) -> float:
        # No surge areas, no server cache — nothing to serve stale.
        return self.true_multiplier(location, car_type)

    def round_observed_multiplier(
        self,
        account_id: str,
        location: LatLon,
        car_type: CarType,
        area_id: Optional[int],
        stale: bool,
    ) -> float:
        # The batched path precomputes surge inputs this pricing mode
        # ignores; defer to the per-client lookup so the batch flag
        # stays behaviour-neutral here too.
        return self.observed_multiplier(account_id, location, car_type)

    # ------------------------------------------------------------------
    # Rate dynamics
    # ------------------------------------------------------------------
    def _post_step(self, now: float, dt: float) -> None:
        p = self.pricing
        review_probability = dt / p.decision_s
        for online in self._online_by_type.values():
            for driver in online:
                if not driver.is_dispatchable:
                    continue
                if self.rng.random() >= review_probability:
                    continue
                anchor = driver.last_trip_at
                if anchor is None:
                    anchor = driver.online_since or now
                idle_minutes = (now - anchor) / 60.0
                if idle_minutes <= p.busy_minutes:
                    driver.personal_rate = min(
                        p.cap, driver.personal_rate + p.step
                    )
                elif idle_minutes >= p.slow_minutes:
                    driver.personal_rate = max(
                        p.floor, driver.personal_rate - p.step
                    )

    def rate_distribution(
        self, car_type: CarType = CarType.UBERX
    ) -> List[float]:
        """Current personal rates of idle drivers (for analysis)."""
        return [
            d.personal_rate for d in self.idle_drivers(car_type)
        ]
