"""Process-pool orchestration of independent measurement campaigns.

The paper's workload shape is *many independent deterministic runs*:
43-client fleets for four weeks in two cities, a 172-client taxi
validation, multi-seed replications, ablation sweeps, the figure-bench
suite.  Campaigns never share state — each gets its own engine, its own
seed, its own truth log — so they parallelize across worker *processes*
with no coordination beyond the result hand-back.

Contracts:

* **Per-campaign seeding.**  A :class:`CampaignSpec` carries its own
  seed; :func:`execute_campaign` builds a fresh engine from it, so a
  sweep's campaigns are bit-identical to running each spec alone (and
  to the ``jobs=1`` sequential path — tier-1 enforced).
* **Structured hand-back.**  Workers return a JSON-serializable
  :class:`CampaignOutcome` (truth digest + scalar metrics), never live
  engines or logs — large artefacts go to disk via ``spec.out``.
* **Crash isolation.**  A campaign that raises yields an error outcome
  carrying the exception and traceback; sibling campaigns complete
  unaffected, and a broken worker process is likewise reported per
  campaign rather than poisoning the sweep.
* **Deterministic merge.**  :func:`run_sweep` returns outcomes in
  *spec order* (specs are keyed, keys must be unique), whatever order
  the workers finish in.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.marketplace.config import CityConfig, manhattan_config, sf_config
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.measurement.fleet import Fleet, MarketplaceWorld
from repro.measurement.placement import place_clients

#: Default cap on worker processes when ``jobs`` is left unset: enough
#: to keep a sweep busy, small enough not to oversubscribe typical CI
#: boxes.
DEFAULT_WORKER_CAP = 4

#: City name -> config factory, the same names ``repro measure --city``
#: accepts.  Factories take the jitter probability.
CITY_CONFIGS: Dict[str, Callable[[float], CityConfig]] = {
    "manhattan": lambda jitter: manhattan_config(jitter_probability=jitter),
    "sf": lambda jitter: sf_config(jitter_probability=jitter),
}


@dataclass(frozen=True)
class CampaignSpec:
    """One independent campaign in a sweep.

    Plain picklable data — specs cross the process boundary.  ``key``
    must be unique within a sweep; it names the campaign in outcomes
    and fixes the merge order.
    """

    key: str
    city: str
    seed: int
    hours: float
    warmup_hours: float = 0.0
    ping_interval_s: float = 5.0
    jitter: float = 0.25
    max_clients: Optional[int] = None
    #: Save the campaign log here (JSON lines; ``.gz`` compresses).
    #: ``None`` keeps the run digest-only — nothing hits disk.
    out: Optional[str] = None
    #: Engine perf-flag overrides as ``(name, value)`` pairs, e.g.
    #: ``(("use_batched_ping", False),)``.  Restricted to the engine's
    #: ``use_*`` flags; anything else is a spec error (reported as a
    #: structured outcome, not a crash).
    engine_flags: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("spec key must be non-empty")


@dataclass(frozen=True)
class CampaignOutcome:
    """What one campaign handed back (JSON-serializable throughout).

    ``ok`` campaigns carry a truth digest (sha256 over the engine's
    canonical IntervalTruth stream — the golden-campaign hash shape)
    and scalar metrics; failed ones carry the error and its traceback.
    ``wall_s`` is per-campaign wall time — measurement metadata for
    straggler-skew reporting, deliberately *outside* the deterministic
    identity (see :meth:`identity`) and optional in the JSON schema so
    pre-existing recorded outcomes stay loadable.
    """

    key: str
    ok: bool
    truth_digest: Optional[str] = None
    metrics: Optional[Dict[str, float]] = None
    out_path: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    wall_s: Optional[float] = None

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    def identity(self) -> Dict[str, object]:
        """The deterministic fields — everything except ``wall_s``.

        Byte-identity checks (local vs pooled vs cluster-dispatched
        sweeps) compare these: digests, metrics, spec key, failure
        shape.  Wall time legitimately differs between runs and hosts,
        so it is metadata, never identity.
        """
        payload = asdict(self)
        del payload["wall_s"]
        return payload


_ALLOWED_FLAGS = frozenset(
    {
        "use_spatial_index",
        "use_vectorized_step",
        "use_batched_ping",
    }
)


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker-process count for a sweep or a cluster worker.

    ``None`` picks ``min(DEFAULT_WORKER_CAP, cpu_count)``; an explicit
    count is honoured as given.
    """
    if workers is None:
        return max(1, min(DEFAULT_WORKER_CAP, os.cpu_count() or 1))
    if workers < 1:
        raise ValueError("parallel workers must be >= 1")
    return workers


def truth_digest(engine: MarketplaceEngine) -> str:
    """sha256 over the engine's canonical IntervalTruth stream.

    The same sorted-key JSON shape the golden-campaign test hashes:
    equal digests mean bit-identical truth logs, which is the currency
    every bit-identity check in this repo trades in.
    """
    payload = [
        {
            "interval_index": t.interval_index,
            "start_s": t.start_s,
            "online_by_type": {
                ct.name: n
                for ct, n in sorted(
                    t.online_by_type.items(), key=lambda kv: kv[0].name
                )
            },
            "distinct_online_uberx": t.distinct_online_uberx,
            "fulfilled_by_area": {
                str(k): v for k, v in sorted(t.fulfilled_by_area.items())
            },
            "requests_by_area": {
                str(k): v for k, v in sorted(t.requests_by_area.items())
            },
            "priced_out": t.priced_out,
            "unfulfilled": t.unfulfilled,
            "mean_idle_uberx_by_area": {
                str(k): v
                for k, v in sorted(t.mean_idle_uberx_by_area.items())
            },
            "multipliers": {
                str(k): v for k, v in sorted(t.multipliers.items())
            },
            "mean_ewt_by_area": {
                str(k): v for k, v in sorted(t.mean_ewt_by_area.items())
            },
        }
        for t in engine.truth
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def execute_campaign(spec: CampaignSpec) -> CampaignOutcome:
    """Run one campaign start to finish; never raises.

    Module-level and spec-in/outcome-out so it pickles cleanly as a
    :class:`~concurrent.futures.ProcessPoolExecutor` work item.  Any
    exception — bad spec, engine error, disk error on save — becomes a
    structured error outcome; crash isolation is this function's job,
    so a sweep's other campaigns never see a sibling's failure.
    """
    started = time.perf_counter()  # repro: noqa=REP002 -- wall_s is measurement metadata (straggler skew), excluded from outcome identity; never feeds simulation state
    try:
        factory = CITY_CONFIGS.get(spec.city)
        if factory is None:
            raise ValueError(
                f"unknown city {spec.city!r} "
                f"(use one of {sorted(CITY_CONFIGS)})"
            )
        flags = dict(spec.engine_flags)
        unknown = sorted(set(flags) - _ALLOWED_FLAGS)
        if unknown:
            raise ValueError(f"unknown engine flags: {unknown}")
        config = factory(spec.jitter)
        engine = MarketplaceEngine(
            config, seed=spec.seed, **cast(Dict[str, Any], flags)
        )
        positions = place_clients(
            config.region, max_clients=spec.max_clients
        )
        fleet = Fleet(
            positions,
            car_types=[CarType.UBERX],
            ping_interval_s=spec.ping_interval_s,
        )
        log = fleet.run(
            MarketplaceWorld(engine),
            duration_s=spec.hours * 3600.0,
            city=spec.city,
            warmup_s=spec.warmup_hours * 3600.0,
        )
        if spec.out is not None:
            log.save(spec.out)
        metrics: Dict[str, float] = {
            "rounds": float(len(log.rounds)),
            "clients": float(len(log.client_positions)),
            "truth_intervals": float(len(engine.truth)),
            "trips_completed": float(len(engine.completed_trips)),
        }
        digest = truth_digest(engine)
        engine.close()
        return CampaignOutcome(
            key=spec.key,
            ok=True,
            truth_digest=digest,
            metrics=metrics,
            out_path=spec.out,
            wall_s=time.perf_counter() - started,  # repro: noqa=REP002 -- wall_s is measurement metadata (straggler skew), excluded from outcome identity; never feeds simulation state
        )
    except BaseException as exc:  # noqa: BLE001 - isolation is the contract
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return CampaignOutcome(
            key=spec.key,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(),
            wall_s=time.perf_counter() - started,  # repro: noqa=REP002 -- wall_s is measurement metadata (straggler skew), excluded from outcome identity; never feeds simulation state
        )


def ensure_unique_keys(specs: Sequence[CampaignSpec]) -> None:
    """Reject duplicate campaign keys with a clear error at submit time.

    Keys name outcomes and fix the merge order; a duplicate would
    silently alias cache files and merge slots.  Shared by
    :func:`run_sweep` and the cluster dispatcher so both entry points
    enforce the same contract before any work is assigned.
    """
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate campaign keys: {dupes}")


def run_sweep(
    specs: Sequence[CampaignSpec],
    jobs: Optional[int] = None,
) -> List[CampaignOutcome]:
    """Execute independent campaigns, one outcome per spec, spec order.

    ``jobs=None`` resolves through :func:`resolve_workers`
    (``min(4, cpu_count)``); ``jobs=1`` — or a single spec — runs
    sequentially in-process, which is also the bit-identity reference
    the parallel path must match.  Worker crashes that kill the process
    itself (so :func:`execute_campaign` couldn't catch them) surface as
    error outcomes for the campaigns that were lost — as do failures of
    ``submit`` itself — while completed siblings keep their results:
    every spec yields exactly one outcome, no matter where the failure
    struck.  The merge is by spec position — completion order can never
    reorder or drop a campaign.
    """
    specs = list(specs)
    ensure_unique_keys(specs)
    if not specs:
        return []
    effective_jobs = min(resolve_workers(jobs), len(specs))
    if effective_jobs <= 1:
        return [execute_campaign(spec) for spec in specs]
    outcomes: Dict[str, CampaignOutcome] = {}
    with ProcessPoolExecutor(max_workers=effective_jobs) as executor:
        # Guarded submission: ``executor.submit`` itself can raise (a
        # pool already broken by a dead worker, interpreter shutdown).
        # An unguarded comprehension would let that escape with every
        # not-yet-submitted spec silently dropped — no outcome at all,
        # violating the crash-isolation contract above.  Each failed
        # submit becomes that spec's structured error outcome instead,
        # and the remaining specs still get their turn.
        futures: Dict[Future[CampaignOutcome], CampaignSpec] = {}
        for spec in specs:
            try:
                futures[executor.submit(execute_campaign, spec)] = spec
            except BaseException as exc:  # noqa: BLE001 - see above
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                outcomes[spec.key] = CampaignOutcome(
                    key=spec.key,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback_module.format_exc(),
                )
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                spec = futures[future]
                try:
                    outcomes[spec.key] = future.result()
                except BaseException as exc:  # BrokenProcessPool et al.
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    outcomes[spec.key] = CampaignOutcome(
                        key=spec.key,
                        ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=traceback_module.format_exc(),
                    )
    return [outcomes[spec.key] for spec in specs]
