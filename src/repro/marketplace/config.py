"""Calibrated city scenarios.

The two scenarios encode the contrasts the paper measured (§4.2):

* **SF has ~58 % more Ubers than Manhattan** (mostly UberX), yet *surges
  far more often* (no-surge 43 % of the time in SF vs 86 % in Manhattan)
  and higher (observed max 4.1 vs 2.8) — demand presses much harder on
  supply in SF, consistent with Uber carrying 71 % of SF "taxi" rides vs
  29 % in NYC.
* **Manhattan has more luxury cars** (XL/BLACK/SUV) and a sizeable UberT
  (ordinary taxi) population; type ranking in both cities is
  X >> BLACK > SUV > XL with a handful of rare types (~4 cars).
* **SF's 2am "last call" surge spike** and weekday morning-rush surge
  peaks; Manhattan surge builds from 3pm through evening rush, weekends
  peak noon-3pm (tourists).

Rates here are calibrated against the paper's reported magnitudes
(fulfilled demand ~100 rides/hour in midtown, EWT averaging ~3 minutes,
surge mean 1.07 in Manhattan vs 1.36 in SF) — see
``benchmarks/bench_fig08_timeseries.py`` and EXPERIMENTS.md for how close
each run lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.geo.regions import CityRegion, downtown_sf, midtown_manhattan
from repro.marketplace.jitter import JitterParams
from repro.marketplace.rider import DiurnalProfile
from repro.marketplace.surge import SurgeParams
from repro.marketplace.types import CarType


@dataclass(frozen=True)
class DriverBehavior:
    """Supply-side behavioural constants."""

    speed_mps: float
    mean_session_s: float
    #: Relaxation time for the online pool to track its diurnal target.
    supply_tau_s: float
    #: Fractional boost to the online target per unit of surge above 1 —
    #: the paper found a small positive new-driver response (§5.5).
    surge_supply_incentive: float
    #: Probability per cruise decision that an idle driver relocates
    #: toward a neighbouring area surging >= 0.2 above their own.
    flock_probability: float
    #: Probability per cruise decision of heading toward a hotspot
    #: (otherwise the driver wanders).
    hotspot_attraction: float
    #: Seconds between idle-cruise decisions.
    cruise_decision_s: float = 60.0


@dataclass(frozen=True)
class BurstParams:
    """City-wide demand-burst process (events, weather, last call).

    An AR(1) level updated every surge interval::

        level <- 1 + rho * (level - 1) + N(0, sigma),  clamped

    Bursts persist for tens of minutes (rho ~ 0.75 keeps a shock alive
    for ~15 minutes), long enough for the surge engine's capped ramps to
    climb several steps before the burst passes — the staircase-up /
    collapse-down shape the paper's duration and jitter analyses expose.
    Uber's surge patent lists exactly such exogenous drivers ("weather,
    and road traffic", §2).
    """

    rho: float = 0.75
    sigma: float = 0.3
    floor: float = 0.3
    cap: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.sigma < 0:
            raise ValueError("sigma cannot be negative")
        if not 0.0 < self.floor <= 1.0 <= self.cap:
            raise ValueError("need 0 < floor <= 1 <= cap")


@dataclass(frozen=True)
class CityConfig:
    """Everything the engine needs to simulate one city."""

    region: CityRegion
    fleet: Dict[CarType, int]
    online_fraction: DiurnalProfile
    demand_profile: DiurnalProfile
    peak_requests_per_hour: float
    type_mix: Dict[CarType, float]
    demand_elasticity: float
    wait_out_fraction: float
    driver: DriverBehavior
    surge: SurgeParams
    jitter: JitterParams
    start_weekday: int = 0
    burst: BurstParams = BurstParams()
    #: Weight of a priced-out (non-converted) request in the surge
    #: engine's demand signal.  Converted requests weigh 1.0; the
    #: operator still *sees* walked-away riders (app opens, declined
    #: quotes) but weighs them below placed requests.
    priced_out_demand_weight: float = 0.4

    def total_fleet(self) -> int:
        return sum(self.fleet.values())


# ----------------------------------------------------------------------
# Shared diurnal shapes
# ----------------------------------------------------------------------
def _weekday_demand() -> Tuple[Tuple[float, float], ...]:
    """Two rush-hour humps over a daytime plateau."""
    return (
        (0.0, 0.22), (2.0, 0.12), (4.0, 0.08), (6.0, 0.45), (8.0, 1.00),
        (10.0, 0.62), (12.0, 0.70), (14.0, 0.62), (16.0, 0.88), (18.0, 1.00),
        (20.0, 0.70), (22.0, 0.45),
    )


def _weekend_demand() -> Tuple[Tuple[float, float], ...]:
    """Midday tourist peak, busy nightlife evening."""
    return (
        (0.0, 0.50), (2.0, 0.35), (4.0, 0.10), (8.0, 0.25), (10.0, 0.55),
        (12.0, 0.95), (14.0, 1.00), (16.0, 0.80), (18.0, 0.75), (20.0, 0.80),
        (22.0, 0.70),
    )


def _sf_weekday_demand() -> Tuple[Tuple[float, float], ...]:
    """SF adds the 2am last-call spike the paper observed (§4.2)."""
    return (
        (0.0, 0.35), (1.8, 0.75), (2.2, 0.70), (3.0, 0.15), (5.0, 0.12),
        (6.0, 0.55), (8.0, 1.00), (10.0, 0.60), (12.0, 0.68), (14.0, 0.60),
        (16.0, 0.85), (18.0, 1.00), (20.0, 0.72), (22.0, 0.50),
    )


def _sf_weekend_demand() -> Tuple[Tuple[float, float], ...]:
    return (
        (0.0, 0.60), (1.8, 1.00), (2.2, 0.95), (3.0, 0.25), (6.0, 0.10),
        (9.0, 0.30), (12.0, 0.80), (14.0, 0.85), (17.0, 0.70), (20.0, 0.75),
        (22.0, 0.70),
    )


def _online_fraction() -> DiurnalProfile:
    """Fraction of the driver pool online through the day.

    Supply tracks demand loosely (drivers anticipate busy periods) but
    with less dynamic range — that mismatch is what creates surge windows.
    """
    weekday = (
        (0.0, 0.16), (3.0, 0.08), (5.0, 0.14), (7.0, 0.30), (9.0, 0.34),
        (12.0, 0.30), (15.0, 0.32), (18.0, 0.36), (21.0, 0.26), (23.0, 0.18),
    )
    weekend = (
        (0.0, 0.22), (3.0, 0.10), (6.0, 0.08), (9.0, 0.18), (12.0, 0.28),
        (15.0, 0.30), (18.0, 0.30), (21.0, 0.28), (23.0, 0.24),
    )
    return DiurnalProfile(weekday=weekday, weekend=weekend)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def manhattan_config(
    jitter_probability: float = 0.25, start_weekday: int = 4
) -> CityConfig:
    """Midtown Manhattan, April 3-17 2015 analogue (campaign starts Friday).

    Surges rarely (no-surge ~86 %), max multiplier ~2.8, mean ~1.07.
    """
    fleet = {
        CarType.UBERX: 130,
        CarType.UBERXL: 14,
        CarType.UBERBLACK: 50,
        CarType.UBERSUV: 26,
        CarType.UBERT: 90,
        CarType.UBERFAMILY: 6,
        CarType.UBERRUSH: 6,
        CarType.UBERWAV: 5,
    }
    type_mix = {
        CarType.UBERX: 100.0,
        CarType.UBERXL: 4.0,
        CarType.UBERBLACK: 14.0,
        CarType.UBERSUV: 6.0,
        CarType.UBERT: 20.0,
        CarType.UBERFAMILY: 1.0,
        CarType.UBERRUSH: 1.0,
        CarType.UBERWAV: 0.5,
    }
    return CityConfig(
        region=midtown_manhattan(),
        fleet=fleet,
        online_fraction=_online_fraction(),
        demand_profile=DiurnalProfile(
            weekday=_weekday_demand(), weekend=_weekend_demand()
        ),
        peak_requests_per_hour=110.0,
        type_mix=type_mix,
        demand_elasticity=1.8,
        wait_out_fraction=0.5,
        driver=DriverBehavior(
            speed_mps=5.0,
            mean_session_s=2.0 * 3600.0,
            supply_tau_s=900.0,
            surge_supply_incentive=0.25,
            flock_probability=0.12,
            hotspot_attraction=0.55,
        ),
        surge=SurgeParams(
            gain=2.2,
            pressure_floor=0.55,
            noise_sigma=0.038,
            shared_noise_fraction=0.2,
            pressure_sharing=0.1,
            max_step_up=0.4,
            cap=3.0,
        ),
        jitter=JitterParams(probability=jitter_probability),
        start_weekday=start_weekday,
        burst=BurstParams(rho=0.75, sigma=0.3, cap=3.5),
    )


def sf_config(
    jitter_probability: float = 0.25, start_weekday: int = 5
) -> CityConfig:
    """Downtown SF, April 18 - May 2 2015 analogue (starts Saturday).

    58 % more cars than Manhattan but demand-strained: surging the
    majority of the time, mean multiplier ~1.36, observed max ~4.1.
    """
    fleet = {
        CarType.UBERX: 230,
        CarType.UBERXL: 10,
        CarType.UBERBLACK: 28,
        CarType.UBERSUV: 15,
        CarType.UBERFAMILY: 5,
        CarType.UBERPOOL: 20,
        CarType.UBERRUSH: 4,
        CarType.UBERWAV: 3,
    }
    type_mix = {
        CarType.UBERX: 100.0,
        CarType.UBERXL: 3.0,
        CarType.UBERBLACK: 8.0,
        CarType.UBERSUV: 4.0,
        CarType.UBERFAMILY: 1.0,
        CarType.UBERPOOL: 8.0,
        CarType.UBERRUSH: 0.8,
        CarType.UBERWAV: 0.4,
    }
    return CityConfig(
        region=downtown_sf(),
        fleet=fleet,
        online_fraction=_online_fraction(),
        demand_profile=DiurnalProfile(
            weekday=_sf_weekday_demand(), weekend=_sf_weekend_demand()
        ),
        peak_requests_per_hour=260.0,
        type_mix=type_mix,
        demand_elasticity=1.0,
        wait_out_fraction=0.5,
        driver=DriverBehavior(
            speed_mps=6.0,
            mean_session_s=2.0 * 3600.0,
            supply_tau_s=900.0,
            surge_supply_incentive=0.25,
            flock_probability=0.12,
            hotspot_attraction=0.55,
        ),
        surge=SurgeParams(
            gain=2.6,
            pressure_floor=0.30,
            ewt_weight=0.18,
            ewt_floor_minutes=3.0,
            noise_sigma=0.085,
            shared_noise_fraction=0.75,
            pressure_sharing=0.6,
            lockstep_probability=0.93,
            max_step_up=0.6,
            cap=4.2,
        ),
        jitter=JitterParams(probability=jitter_probability),
        start_weekday=start_weekday,
        burst=BurstParams(rho=0.78, sigma=0.45, cap=4.5),
    )
