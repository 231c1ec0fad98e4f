"""Structure-of-arrays fleet state for vectorized driver stepping.

The scalar engine advances every online driver as an individual Python
object each 5-second tick — after PR 1's spatial index removed the query
bottleneck, that per-object stepping became the dominant cost of a
campaign (≈86 % of tick time on the ``bench_perf_engine`` Manhattan ×20
scenario).  This module keeps the whole fleet's mutable hot state in
flat numpy arrays (positions, state enums, navigation targets, trip
dropoffs, path-vector ring buffers, session deadlines) so the engine can
advance *all* target-driven movers — drivers en route to a pickup, on a
trip, or cruising toward a relocation target — with a handful of
vectorized array operations per tick.

**Bit-identity contract.**  ``use_vectorized_step`` must only ever change
speed, never behaviour: same-seed ``IntervalTruth`` logs, trip ledgers,
and ping replies are bit-identical to the scalar path (enforced by
``tests/test_fleet_array.py`` and the tier-1 flag-matrix check).  Two
design rules make that possible:

* Every float the arrays produce is computed with the exact operation
  sequence the scalar code uses, restricted to primitives numpy
  reproduces bit-for-bit (``+ - * /``, ``sqrt``, ``sin``/``cos``,
  ``radians``/``degrees`` — verified on this toolchain; notably *not*
  ``hypot`` or ``log``, which is why ``equirectangular_m`` is written in
  ``sqrt(x*x + y*y)`` form).
* The shared ``random.Random`` stream is only ever consumed from an
  ordered per-driver loop in the engine, in exactly the scalar
  iteration order (online lists, per car type).  The vectorized phase
  handles the RNG-free majority (movement); the loop handles the small
  minority that draws — idle wobbles, cruise decisions, sign-offs, and
  post-trip re-identification — and defers position writes back into the
  arrays.

**Lazy object sync.**  Driver objects stay the source of truth for
everything evented (tokens, trips, earnings, session bookkeeping); the
arrays are the source of truth for anything movement touches (location,
path ring, the batched EN_ROUTE→ON_TRIP transition, cruise-target
clearing on arrival).  ``Driver.location`` is a descriptor that calls
:meth:`FleetArray.refresh_location` on read and
:meth:`FleetArray.location_written` on write, and the path accessors
call :meth:`FleetArray.refresh_path`, so dispatch, ``api/ping.py``, the
taxi replayer, and tests observe unchanged objects with no explicit
flush.  :meth:`sync_all` force-flushes everything (used by tests and
ad-hoc analysis).

One caveat of laziness: ``LatLon`` range validation happens at
materialization time (on read) rather than at each step, so a
pathological config that wobbles a driver past the poles raises on first
read instead of mid-step.  City-scale regions cannot get near that.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.latlon import EARTH_RADIUS_M, LatLon
from repro.marketplace.driver import (
    PATH_VECTOR_LEN,
    Driver,
    DriverState,
    Trip,
)
from repro.marketplace.types import CarType

#: Integer codes for :class:`DriverState` as stored in the state array.
OFFLINE, IDLE, EN_ROUTE, ON_TRIP = 0, 1, 2, 3

#: The dispatchable-rows cache: (version, rows_all, {car_type: (start,
#: end) into rows_all}, lat[rows_all], lon[rows_all]).
_DispatchStruct = Tuple[
    int,
    np.ndarray,
    Dict[CarType, Tuple[int, int]],
    np.ndarray,
    np.ndarray,
]

_STATE_CODE = {
    DriverState.OFFLINE: OFFLINE,
    DriverState.IDLE: IDLE,
    DriverState.EN_ROUTE: EN_ROUTE,
    DriverState.ON_TRIP: ON_TRIP,
}

class StepMasks:
    """Boolean row masks produced by :meth:`FleetArray.begin_step`.

    ``wobble``          idle drivers with no cruise target (they draw
                        2 gauss GPS-wobble offsets in the ordered loop);
    ``cruise_arrived``  idle drivers whose cruise target was reached
                        this tick (target cleared, decision draw due);
    ``completed``       drivers whose trip reached its dropoff (state
                        already IDLE in the arrays; the engine finalizes
                        the object, accounts the fare, and re-identifies
                        or signs the driver off);
    ``idle_like``       every row that is IDLE after the move phase and
                        subject to the scalar path's session-expiry
                        check (wobblers plus all cruise movers).
    """

    __slots__ = ("wobble", "cruise_arrived", "completed", "idle_like")

    def __init__(
        self,
        wobble: np.ndarray,
        cruise_arrived: np.ndarray,
        completed: np.ndarray,
        idle_like: np.ndarray,
    ) -> None:
        self.wobble = wobble
        self.cruise_arrived = cruise_arrived
        self.completed = completed
        self.idle_like = idle_like


class RoundNearest:
    """Top-k nearest dispatchable rows for every (ping location, car
    type) pair of one batched serving round.

    Produced by :meth:`FleetArray.round_nearest`: one distance matrix
    per (fleet, car type) against *all* ping locations, with the top-k
    extraction done in one stable-argsort pass per type.  ``nearest(i,
    car_type)`` then returns exactly what
    :meth:`FleetArray.nearest_rows` returns for location *i* — the same
    ``(distance, driver_id)`` ordering on the same floats — from plain
    list indexing.  ``served_rows`` is the ascending union of every row
    any location will be served, so a caller can refresh per-driver
    state (view memos, token checks) once per round instead of once per
    (location, type, rank).
    """

    __slots__ = ("_per_type", "served_rows")

    def __init__(
        self,
        per_type: Dict[CarType, Tuple[List[List[float]], List[List[int]]]],
        served_rows: Sequence[int] = (),
    ) -> None:
        self._per_type = per_type
        self.served_rows = served_rows

    def segment(
        self, car_type: CarType
    ) -> Optional[Tuple[List[List[float]], List[List[int]]]]:
        """Per-type ``(distances, rows)`` row-major lists, or ``None``
        when the type has no dispatchable rows (or was not queried)."""
        return self._per_type.get(car_type)

    def nearest(
        self, i: int, car_type: CarType
    ) -> List[Tuple[float, int]]:
        """The per-location result, shaped like ``nearest_rows``."""
        seg = self._per_type.get(car_type)
        if seg is None:
            return []
        dists, rows = seg
        return list(zip(dists[i], rows[i]))


class FleetArray:
    """All fleets' mutable hot state, columnar.

    Rows are ``driver_id - 1`` (engine ids are contiguous from 1), so a
    driver's row never changes and per-type row sets are static.
    """

    def __init__(self, drivers: Sequence[Driver]) -> None:
        n = len(drivers)
        self.n = n
        self.drivers = list(drivers)
        self.lat = np.empty(n, dtype=np.float64)
        self.lon = np.empty(n, dtype=np.float64)
        self.state = np.zeros(n, dtype=np.int8)
        self.speed = np.empty(n, dtype=np.float64)
        #: Current navigation target: the pickup while EN_ROUTE, the
        #: dropoff while ON_TRIP, the cruise target while IDLE with
        #: ``has_target`` set.
        self.tgt_lat = np.zeros(n, dtype=np.float64)
        self.tgt_lon = np.zeros(n, dtype=np.float64)
        self.has_target = np.zeros(n, dtype=bool)
        #: Stashed trip dropoff, promoted to the navigation target when
        #: an EN_ROUTE driver reaches the pickup (the batched
        #: EN_ROUTE→ON_TRIP transition).
        self.drop_lat = np.zeros(n, dtype=np.float64)
        self.drop_lon = np.zeros(n, dtype=np.float64)
        #: Session deadline (`planned_offline_at`); +inf while offline.
        self.planned_off = np.full(n, np.inf, dtype=np.float64)
        # Path-vector ring buffers: the last PATH_VECTOR_LEN appends.
        # ``path_cnt`` counts appends since the last reset; the slot of
        # append k is k % PATH_VECTOR_LEN.
        self.path_t = np.zeros((n, PATH_VECTOR_LEN), dtype=np.float64)
        self.path_lat = np.zeros((n, PATH_VECTOR_LEN), dtype=np.float64)
        self.path_lon = np.zeros((n, PATH_VECTOR_LEN), dtype=np.float64)
        self.path_cnt = np.zeros(n, dtype=np.int64)
        # Lazy-sync dirty flags, per row.
        self.stale_loc = np.zeros(n, dtype=bool)
        self.stale_path = np.zeros(n, dtype=bool)

        # Static per-type row sets (fleet composition never changes).
        self.type_code: Dict[CarType, int] = {}
        ctype = np.empty(n, dtype=np.int16)
        for i, d in enumerate(drivers):
            if d.driver_id != i + 1:
                raise ValueError(
                    "FleetArray requires contiguous driver ids from 1"
                )
            if d.car_type not in self.type_code:
                self.type_code[d.car_type] = len(self.type_code)
            ctype[i] = self.type_code[d.car_type]
        self.ctype = ctype
        self.rows_by_type: Dict[CarType, np.ndarray] = {
            ct: np.nonzero(ctype == code)[0]
            for ct, code in self.type_code.items()
        }
        # Per-type idle row cache for the nearest-k / dispatch queries;
        # membership changes only at evented transitions, so the cache
        # survives whole ping rounds.
        self._idle_rows: Dict[CarType, np.ndarray] = {}
        #: Bumped on any position or idle-membership change; keys the
        #: idle-struct and shared-distance caches below.
        self._version = 0
        # (version, rows_all, {type: (start, end)}, lat[rows], lon[rows]):
        # every dispatchable row across all types, grouped by type, with
        # coordinates gathered once.  A ping queries 8 types from one
        # location, so one struct (and one distance evaluation, cached in
        # ``_query``) serves the whole reply.
        self._struct: Optional[_DispatchStruct] = None
        self._query: Optional[Tuple[float, float, np.ndarray]] = None
        #: Monotone per-row ring version; keys the ring-built
        #: ``path_triples`` cache on the driver object.
        self.path_ver = np.zeros(n, dtype=np.int64)

        for i, d in enumerate(drivers):
            loc = d.__dict__["_loc"]
            self.lat[i] = loc.lat
            self.lon[i] = loc.lon
            self.speed[i] = d.speed_mps
            self.state[i] = _STATE_CODE[d.state]
            d._fleet = self
            d._row = i

    # ------------------------------------------------------------------
    # Lazy object sync
    # ------------------------------------------------------------------
    def refresh_location(self, d: Driver) -> None:
        """Pull the driver's array position (and the movement-coupled
        state) back into the object, if stale."""
        r = d._row
        if not self.stale_loc[r]:
            return
        self.stale_loc[r] = False
        d.__dict__["_loc"] = LatLon(self.lat[r].item(), self.lon[r].item())
        # The only lazily-applied state change is the batched
        # EN_ROUTE→ON_TRIP promotion; everything else is evented on the
        # object at the moment it happens.
        if self.state[r] == ON_TRIP and d.state is DriverState.EN_ROUTE:
            d.state = DriverState.ON_TRIP
        if not self.has_target[r] and d.cruise_target is not None:
            d.cruise_target = None

    def location_written(self, d: Driver, value: LatLon) -> None:
        """Mirror an object-side location assignment into the arrays."""
        r = d._row
        self.lat[r] = value.lat
        self.lon[r] = value.lon
        self.stale_loc[r] = False
        self._version += 1

    def path_triples_of(self, d: Driver) -> Tuple[
        Tuple[float, float, float], ...
    ]:
        """Serve ``Driver.path_triples`` straight from the ring arrays.

        The serving layer reads triples once per viewed driver per tick;
        rebuilding the deque (5 ``LatLon`` constructions) just to
        flatten it again is the single hottest part of a vec-mode ping
        round, so the flat tuple is built directly from the ring and
        memoized against :attr:`path_ver`.  The deque stays stale until
        something reads it through :meth:`refresh_path`.
        """
        r = d._row
        if not self.stale_path[r]:
            # Deque is current (freshly synced or evented) — the plain
            # object-side memo applies.
            if d._path_cache is None:
                d._path_cache = tuple(
                    (t, p.lat, p.lon) for t, p in d.path
                )
            return d._path_cache
        ver = self.path_ver[r]
        if d._path_cache is not None and d.__dict__.get("_ring_ver") == ver:
            return d._path_cache
        cnt = int(self.path_cnt[r])
        m = PATH_VECTOR_LEN if cnt >= PATH_VECTOR_LEN else cnt
        ts = self.path_t[r].tolist()
        las = self.path_lat[r].tolist()
        los = self.path_lon[r].tolist()
        cache = tuple(
            (
                ts[k % PATH_VECTOR_LEN],
                las[k % PATH_VECTOR_LEN],
                los[k % PATH_VECTOR_LEN],
            )
            for k in range(cnt - m, cnt)
        )
        d._path_cache = cache
        d.__dict__["_ring_ver"] = ver
        return cache

    def prefetch_rows(self, rows: Sequence[int]) -> None:
        """Bulk-warm the object-side location and path-triple caches.

        Exactly equivalent to calling :meth:`refresh_location` and
        :meth:`path_triples_of` row by row, but the numpy scalar
        extraction (one ``.item()`` / row-``tolist()`` per driver) is
        amortized into whole-array gathers.  The batched serving path
        calls this once per round over every row it is about to view,
        so the per-driver fills inside ``_view_for`` become cache hits.
        """
        if not len(rows):
            return
        idx = np.asarray(rows, dtype=np.int64)
        drivers = self.drivers
        stale = idx[self.stale_loc[idx]]
        if stale.size:
            self.stale_loc[stale] = False
            las = self.lat[stale].tolist()
            los = self.lon[stale].tolist()
            promote = (self.state[stale] == ON_TRIP).tolist()
            clear_tgt = (~self.has_target[stale]).tolist()
            for j, r in enumerate(stale.tolist()):
                d = drivers[r]
                d.__dict__["_loc"] = LatLon(las[j], los[j])
                if promote[j] and d.state is DriverState.EN_ROUTE:
                    d.state = DriverState.ON_TRIP
                if clear_tgt[j] and d.cruise_target is not None:
                    d.cruise_target = None
        # Ring-side path triples: same memo discipline as
        # path_triples_of — rebuild only where the ring version moved,
        # leave ``stale_path`` set (the deque itself stays lazy).
        stale_p = self.stale_path[idx].tolist()
        vers = self.path_ver[idx].tolist()
        need: List[int] = []
        for j, r in enumerate(idx.tolist()):
            if not stale_p[j]:
                continue
            d = drivers[r]
            if (
                d._path_cache is not None
                and d.__dict__.get("_ring_ver") == vers[j]
            ):
                continue
            need.append(r)
        if need:
            narr = np.asarray(need, dtype=np.int64)
            ts2 = self.path_t[narr].tolist()
            las2 = self.path_lat[narr].tolist()
            los2 = self.path_lon[narr].tolist()
            cnts = self.path_cnt[narr].tolist()
            pv = self.path_ver[narr].tolist()
            for j, r in enumerate(need):
                d = drivers[r]
                cnt = cnts[j]
                m = PATH_VECTOR_LEN if cnt >= PATH_VECTOR_LEN else cnt
                ts = ts2[j]
                la = las2[j]
                lo = los2[j]
                d._path_cache = tuple(
                    (
                        ts[k % PATH_VECTOR_LEN],
                        la[k % PATH_VECTOR_LEN],
                        lo[k % PATH_VECTOR_LEN],
                    )
                    for k in range(cnt - m, cnt)
                )
                d.__dict__["_ring_ver"] = pv[j]

    def refresh_path(self, d: Driver) -> None:
        """Rebuild the object's path deque from the ring, if stale."""
        r = d._row
        if not self.stale_path[r]:
            return
        self.stale_path[r] = False
        cnt = int(self.path_cnt[r])
        m = PATH_VECTOR_LEN if cnt >= PATH_VECTOR_LEN else cnt
        path = d.path
        path.clear()
        t_row = self.path_t[r]
        la_row = self.path_lat[r]
        lo_row = self.path_lon[r]
        for k in range(cnt - m, cnt):
            s = k % PATH_VECTOR_LEN
            path.append(
                (
                    t_row[s].item(),
                    LatLon(la_row[s].item(), lo_row[s].item()),
                )
            )
        d._path_cache = None

    def sync_driver(self, d: Driver) -> None:
        self.refresh_location(d)
        self.refresh_path(d)

    def sync_all(self) -> None:
        """Flush every stale row back into its Driver object."""
        for r in np.nonzero(self.stale_loc | self.stale_path)[0]:
            self.sync_driver(self.drivers[r])

    # ------------------------------------------------------------------
    # Evented transitions (engine hooks)
    # ------------------------------------------------------------------
    def on_online(self, d: Driver, now: float) -> None:
        """Driver just came online (location already pushed via setter)."""
        r = d._row
        self.state[r] = IDLE
        self.has_target[r] = False
        self.planned_off[r] = d.planned_offline_at
        self._reset_ring(r, now)
        self._idle_rows.pop(d.car_type, None)
        self._version += 1

    def on_offline(self, d: Driver) -> None:
        """Driver just signed off (object already refreshed + cleared)."""
        r = d._row
        self.state[r] = OFFLINE
        self.has_target[r] = False
        self.planned_off[r] = np.inf
        self.path_cnt[r] = 0
        self.stale_loc[r] = False
        self.stale_path[r] = False
        self._idle_rows.pop(d.car_type, None)
        self._version += 1

    def on_assign(self, d: Driver, trip: Trip) -> None:
        """Driver just accepted a trip: navigate to the pickup, stash
        the dropoff for the batched promotion at arrival."""
        r = d._row
        self.state[r] = EN_ROUTE
        self.tgt_lat[r] = trip.pickup.lat
        self.tgt_lon[r] = trip.pickup.lon
        self.drop_lat[r] = trip.dropoff.lat
        self.drop_lon[r] = trip.dropoff.lon
        self.has_target[r] = False
        self._idle_rows.pop(d.car_type, None)
        self._version += 1

    def on_back_idle(self, d: Driver, now: float) -> None:
        """Driver re-identified after a dropoff: fresh path vector."""
        self._reset_ring(d._row, now)

    def set_target_from(self, d: Driver) -> None:
        """Mirror the object's cruise target into the arrays."""
        r = d._row
        target = d.cruise_target
        if target is None:
            self.has_target[r] = False
        else:
            self.tgt_lat[r] = target.lat
            self.tgt_lon[r] = target.lon
            self.has_target[r] = True

    def _reset_ring(self, r: int, now: float) -> None:
        self.path_t[r, 0] = now
        self.path_lat[r, 0] = self.lat[r]
        self.path_lon[r, 0] = self.lon[r]
        self.path_cnt[r] = 1
        self.path_ver[r] += 1
        self.stale_path[r] = False

    # ------------------------------------------------------------------
    # The vectorized step
    # ------------------------------------------------------------------
    def begin_step(self, now: float, dt: float) -> StepMasks:
        """Phase 1: advance every target-driven mover in one shot.

        Replicates ``Driver._drive_toward`` / ``Driver._cruise`` for the
        RNG-free population with bit-identical arithmetic: the same
        equirectangular distance (sqrt form), the same arrival rule
        (``dist <= step or dist <= 1.0`` → snap exactly onto the
        target), the same interpolation, and the idle half-speed factor
        applied as ``speed * (dt * 0.5)`` exactly as the scalar path
        does.  Arrivals trigger the batched transitions; all movers get
        their path-ring append.  Returns the masks the engine's ordered
        RNG loop consumes.
        """
        self._version += 1
        n = self.n
        st = self.state
        has_tgt = self.has_target
        idle = st == IDLE
        wobble = idle & ~has_tgt
        masks = StepMasks(
            wobble,
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=bool),
            wobble.copy(),
        )
        mv = np.nonzero((st == EN_ROUTE) | (st == ON_TRIP) | (idle & has_tgt))[0]
        if not mv.size:
            return masks
        lat = self.lat
        lon = self.lon
        la = lat[mv]
        lo = lon[mv]
        tla = self.tgt_lat[mv]
        tlo = self.tgt_lon[mv]
        # equirectangular_m(location, target), vectorized verbatim.
        x = np.radians(tlo - lo) * np.cos(np.radians((la + tla) / 2.0))
        y = np.radians(tla - la)
        dist = EARTH_RADIUS_M * np.sqrt(x * x + y * y)
        st_mv = st[mv]
        idle_mv = st_mv == IDLE
        step = np.where(
            idle_mv,
            self.speed[mv] * (dt * 0.5),
            self.speed[mv] * dt,
        )
        arrived = (dist <= step) | (dist <= 1.0)
        frac = step / np.where(arrived, 1.0, dist)
        lat[mv] = np.where(arrived, tla, la + (tla - la) * frac)
        lon[mv] = np.where(arrived, tlo, lo + (tlo - lo) * frac)
        arr_rows = mv[arrived]
        if arr_rows.size:
            st_arr = st_mv[arrived]
            pickup = arr_rows[st_arr == EN_ROUTE]
            if pickup.size:
                st[pickup] = ON_TRIP
                self.tgt_lat[pickup] = self.drop_lat[pickup]
                self.tgt_lon[pickup] = self.drop_lon[pickup]
            done = arr_rows[st_arr == ON_TRIP]
            if done.size:
                st[done] = IDLE
                masks.completed[done] = True
                self._idle_rows.clear()
            ca = arr_rows[st_arr == IDLE]
            if ca.size:
                has_tgt[ca] = False
                masks.cruise_arrived[ca] = True
        masks.idle_like[mv[idle_mv]] = True
        self._ring_append(mv, now)
        self.stale_loc[mv] = True
        return masks

    def apply_offset(self, r: int, north_m: float, east_m: float) -> None:
        """Apply one wobble offset immediately (scalar ``LatLon.offset``
        arithmetic on the array slots; bit-identical to the deferred
        batch in :meth:`finish_step`)."""
        la = self.lat[r]
        dlat = math.degrees(north_m / EARTH_RADIUS_M)
        dlon = math.degrees(
            east_m / (EARTH_RADIUS_M * math.cos(math.radians(la)))
        )
        self.lat[r] = la + dlat
        self.lon[r] = self.lon[r] + dlon
        self.stale_loc[r] = True
        self._version += 1

    def finish_step(
        self,
        now: float,
        defer_rows: List[int],
        defer_north: List[float],
        defer_east: List[float],
        wobbled_rows: List[int],
    ) -> None:
        """Phase 3: batch-apply deferred wobble offsets and append the
        surviving wobblers' path-ring entries."""
        if defer_rows:
            rows = np.array(defer_rows, dtype=np.int64)
            north = np.array(defer_north, dtype=np.float64)
            east = np.array(defer_east, dtype=np.float64)
            la = self.lat[rows]
            self.lat[rows] = la + np.degrees(north / EARTH_RADIUS_M)
            self.lon[rows] = self.lon[rows] + np.degrees(
                east / (EARTH_RADIUS_M * np.cos(np.radians(la)))
            )
        if wobbled_rows:
            rows = np.array(wobbled_rows, dtype=np.int64)
            self._ring_append(rows, now)
            self.stale_loc[rows] = True
        self._version += 1

    def _ring_append(self, rows: np.ndarray, now: float) -> None:
        """Append one path-ring entry for every row in *rows*."""
        slots = self.path_cnt[rows] % PATH_VECTOR_LEN
        self.path_t[rows, slots] = now
        self.path_lat[rows, slots] = self.lat[rows]
        self.path_lon[rows, slots] = self.lon[rows]
        self.path_cnt[rows] += 1
        self.path_ver[rows] += 1
        self.stale_path[rows] = True

    # ------------------------------------------------------------------
    # Vectorized queries
    # ------------------------------------------------------------------
    def idle_rows(self, car_type: CarType) -> np.ndarray:
        """Rows of the currently dispatchable drivers of *car_type*,
        ascending (so position order is driver-id order)."""
        rows = self._idle_rows.get(car_type)
        if rows is None:
            all_rows = self.rows_by_type.get(car_type)
            if all_rows is None:
                rows = np.empty(0, dtype=np.int64)
            else:
                rows = all_rows[self.state[all_rows] == IDLE]
            self._idle_rows[car_type] = rows
        return rows

    def online_mask_rows(self, car_type: CarType) -> np.ndarray:
        """Rows of the currently online drivers of *car_type*."""
        all_rows = self.rows_by_type.get(car_type)
        if all_rows is None:
            return np.empty(0, dtype=np.int64)
        return all_rows[self.state[all_rows] != OFFLINE]

    def distances_to(
        self, rows: np.ndarray, location: LatLon
    ) -> np.ndarray:
        """Equirectangular metres from each row to *location*,
        bit-identical to ``LatLon.fast_distance_m``."""
        la = self.lat[rows]
        lo = self.lon[rows]
        x = np.radians(location.lon - lo) * np.cos(
            np.radians((la + location.lat) / 2.0)
        )
        y = np.radians(location.lat - la)
        return EARTH_RADIUS_M * np.sqrt(x * x + y * y)

    def _dispatchable_struct(self) -> _DispatchStruct:
        """Every dispatchable row, grouped by car type, coordinates
        gathered — rebuilt only when :attr:`_version` moves."""
        s = self._struct
        if s is not None and s[0] == self._version:
            return s
        bounds: Dict[CarType, Tuple[int, int]] = {}
        segments = []
        pos = 0
        for ct in self.type_code:
            rows = self.idle_rows(ct)
            bounds[ct] = (pos, pos + rows.size)
            pos += rows.size
            segments.append(rows)
        rows_all = (
            np.concatenate(segments) if segments
            else np.empty(0, dtype=np.int64)
        )
        s = (
            self._version,
            rows_all,
            bounds,
            self.lat[rows_all],
            self.lon[rows_all],
        )
        self._struct = s
        self._query = None
        return s

    def nearest_rows(
        self, location: LatLon, car_type: CarType, k: int
    ) -> List[Tuple[float, int]]:
        """The k nearest idle rows as ``(distance_m, row)``, ordered by
        ``(distance, driver_id)`` exactly like the brute scan and the
        PointIndex query.

        A `pingClient` reply queries every car type from one location,
        so distances to *all* dispatchable rows are evaluated in a
        single numpy pass and memoized per ``(position state, query
        point)``; each per-type call then only pays for its own top-k
        selection on a slice.
        """
        if k <= 0:
            return []
        _, rows_all, bounds, la_all, lo_all = self._dispatchable_struct()
        seg = bounds.get(car_type)
        if seg is None or seg[0] == seg[1]:
            return []
        qlat = location.lat
        qlon = location.lon
        q = self._query
        if q is not None and q[0] == qlat and q[1] == qlon:
            d_all = q[2]
        else:
            # equirectangular_m, vectorized verbatim (elementwise, so
            # values are identical whatever the batch grouping).
            x = np.radians(qlon - lo_all) * np.cos(
                np.radians((la_all + qlat) / 2.0)
            )
            y = np.radians(qlat - la_all)
            d_all = EARTH_RADIUS_M * np.sqrt(x * x + y * y)
            self._query = (qlat, qlon, d_all)
        s0, s1 = seg
        d = d_all[s0:s1]
        rows = rows_all[s0:s1]
        if rows.size <= k:
            order = np.argsort(d, kind="stable")[:k]
        else:
            # Cheap pre-cut at the kth smallest distance, then a stable
            # sort of the (tiny) candidate set; ties at the cut survive
            # into the sort, so (distance, id) ordering is exact.
            cut = np.partition(d, k - 1)[k - 1]
            cand = np.nonzero(d <= cut)[0]
            order = cand[np.argsort(d[cand], kind="stable")][:k]
        return list(zip(d[order].tolist(), rows[order].tolist()))

    def round_nearest(
        self,
        lats: np.ndarray,
        lons: np.ndarray,
        k: int,
        car_types: Optional[Iterable[CarType]] = None,
    ) -> RoundNearest:
        """Batch :meth:`nearest_rows` over one round of ping locations.

        One distance matrix per (fleet, car type) — ``(n locations ×
        type's dispatchable rows)``, evaluated with the elementwise
        ``equirectangular_m`` arithmetic of the per-query path, so every
        entry is the identical float — followed by one stable argsort
        per type segment.  The k smallest by ``(distance, position)``
        per row are exactly the candidates the per-query
        partition-and-cut selection keeps, so replies served off this
        struct are bit-identical to per-client serving.

        *car_types* restricts the work to the types the round will
        actually serve (a type-restricted measurement fleet only needs
        one segment); ``None`` computes every type.
        """
        per_type: Dict[
            CarType, Tuple[List[List[float]], List[List[int]]]
        ] = {}
        if k <= 0 or lats.size == 0:
            return RoundNearest(per_type)
        _, rows_all, bounds, la_all, lo_all = self._dispatchable_struct()
        if rows_all.size == 0:
            return RoundNearest(per_type)
        wanted_items = (
            list(bounds.items())
            if car_types is None
            else [
                (ct, bounds[ct]) for ct in car_types if ct in bounds
            ]
        )
        lats_col = lats[:, None]
        lons_col = lons[:, None]
        served: List[np.ndarray] = []
        for ct, (s0, s1) in wanted_items:
            if s1 <= s0:
                continue
            la = la_all[None, s0:s1]
            lo = lo_all[None, s0:s1]
            # equirectangular_m, vectorized verbatim (elementwise, so
            # each matrix entry equals the per-query 1-D evaluation).
            x = np.radians(lons_col - lo) * np.cos(
                np.radians((la + lats_col) / 2.0)
            )
            y = np.radians(lats_col - la)
            dist = EARTH_RADIUS_M * np.sqrt(x * x + y * y)
            # Stable argsort orders by (distance, segment position) =
            # (distance, driver id); its first k are the per-query
            # partition+cut+stable-sort winners, tie-break included.
            order = np.argsort(dist, axis=1, kind="stable")[:, :k]
            d_sel = np.take_along_axis(dist, order, axis=1)
            rows_sel = rows_all[s0:s1][order]
            served.append(rows_sel.ravel())
            per_type[ct] = (d_sel.tolist(), rows_sel.tolist())
        served_rows = (
            np.unique(np.concatenate(served)).tolist() if served else ()
        )
        return RoundNearest(per_type, served_rows)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def headings_deg(self) -> np.ndarray:
        """Instantaneous heading per driver, degrees clockwise from
        north (NaN when stationary or with fewer than two path points).

        Derived from the last path-ring segment; diagnostic only — the
        simulation itself never consumes headings.
        """
        out = np.full(self.n, np.nan, dtype=np.float64)
        cnt = self.path_cnt
        ok = np.nonzero(cnt >= 2)[0]
        if not ok.size:
            return out
        last = (cnt[ok] - 1) % PATH_VECTOR_LEN
        prev = (cnt[ok] - 2) % PATH_VECTOR_LEN
        la1 = self.path_lat[ok, prev]
        lo1 = self.path_lon[ok, prev]
        la2 = self.path_lat[ok, last]
        lo2 = self.path_lon[ok, last]
        dy = np.radians(la2 - la1)
        dx = np.radians(lo2 - lo1) * np.cos(np.radians((la1 + la2) / 2.0))
        moved = (dx != 0.0) | (dy != 0.0)
        out[ok[moved]] = np.degrees(
            np.arctan2(dx[moved], dy[moved])
        ) % 360.0
        return out
