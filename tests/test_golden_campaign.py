"""Golden-campaign regression: a pinned end-to-end measure→analyze run.

A tiny fixed-seed downtown-SF campaign runs the entire pipeline — engine
ticks, measurement-fleet ping rounds, supply/demand estimation, surge
and jitter analysis — and the result is hashed against a checked-in
digest (``tests/golden/campaign_digest.json``).  Any change to simulator
behaviour, the serving layer, or the analysis pipeline that alters a
single bit of the ``IntervalTruth`` stream or the audit-report scalars
fails this test, which is exactly the point: behaviour changes must be
*deliberate* and visible in review, not side effects.

Regenerating after a deliberate behaviour change is one command::

    PYTHONPATH=src python tests/test_golden_campaign.py --regen

which rewrites the digest file (commit it alongside the change).  The
digest also stores the human-readable scalars so a mismatch shows
*what* moved, not just that something did.

Float caveat: the digest pins bit-exact float behaviour on the
toolchain CI runs (CPython float + numpy, IEEE-754 doubles).  A libm
with different ``sin``/``cos`` rounding could shift last bits; if CI
ever migrates platforms, regenerate.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / (
    "campaign_digest.json"
)

from repro.analysis.report import audit_campaign
from repro.marketplace.config import sf_config
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.measurement.fleet import Fleet, MarketplaceWorld
from repro.measurement.placement import place_clients

#: Campaign shape: 10 simulated minutes of warmup then 30 minutes
#: measured, 6 clients pinging UberX every 15 s.  Small enough for
#: tier-1, long enough for surge intervals, trips, jitter events, and
#: the supply/demand estimator to all engage.
SEED = 29
WARMUP_S = 600.0
DURATION_S = 1800.0
PING_INTERVAL_S = 15.0
MAX_CLIENTS = 6


def run_golden_campaign():
    """The pinned campaign, end to end; returns (engine, log, report)."""
    cfg = sf_config(jitter_probability=0.25)
    engine = MarketplaceEngine(cfg, seed=SEED)
    fleet = Fleet(
        place_clients(cfg.region, max_clients=MAX_CLIENTS),
        car_types=[CarType.UBERX],
        ping_interval_s=PING_INTERVAL_S,
    )
    world = MarketplaceWorld(engine)
    log = fleet.run(
        world, duration_s=DURATION_S, city="sf-golden", warmup_s=WARMUP_S
    )
    report = audit_campaign(log, boundary=cfg.region.boundary)
    return engine, log, report


def _truth_payload(engine) -> list:
    """The IntervalTruth stream as plain sorted-key JSON material."""
    return [
        {
            "interval_index": t.interval_index,
            "start_s": t.start_s,
            "online_by_type": {
                ct.name: n for ct, n in sorted(
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


def _report_scalars(engine, report) -> dict:
    return {
        "rounds": report.rounds,
        "clients": report.clients,
        "surge_active_fraction": report.surge_active_fraction,
        "mean_multiplier": report.mean_multiplier,
        "max_multiplier": report.max_multiplier,
        "clock_period_s": report.clock_period_s,
        "clock_phase_s": report.clock_phase_s,
        "episode_count": len(report.episode_durations_s),
        "episode_total_s": sum(report.episode_durations_s),
        "ewt_count": len(report.ewts),
        "ewt_mean_minutes": (
            statistics.mean(report.ewts) if report.ewts else None
        ),
        "jitter_event_count": len(report.jitter_events),
        "supply_series": [list(p) for p in report.supply_series],
        "demand_series": [list(p) for p in report.demand_series],
        "trips_completed": len(engine.completed_trips),
    }


def build_digest() -> dict:
    """Run the campaign and condense it into the golden payload."""
    engine, _, report = run_golden_campaign()
    payload = {
        "truth": _truth_payload(engine),
        "report": _report_scalars(engine, report),
    }
    engine.close()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(blob.encode("ascii")).hexdigest(),
        "scenario": (
            f"sf_config seed={SEED} warmup={WARMUP_S:g}s "
            f"duration={DURATION_S:g}s ping={PING_INTERVAL_S:g}s "
            f"clients={MAX_CLIENTS}"
        ),
        "report": payload["report"],
        "truth_intervals": len(payload["truth"]),
    }


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(build_digest(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


def test_golden_campaign_digest_unchanged():
    assert GOLDEN_PATH.exists(), (
        "golden digest missing; regenerate with\n"
        "  PYTHONPATH=src python tests/test_golden_campaign.py --regen"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    current = build_digest()
    # Compare the scalars first: on a mismatch this names what moved
    # instead of only showing two unequal hashes.
    assert current["report"] == golden["report"]
    assert current["truth_intervals"] == golden["truth_intervals"]
    assert current["digest"] == golden["digest"]


def test_golden_campaign_is_nontrivial():
    """The pinned scenario must keep exercising the full pipeline —
    a degenerate golden run (no trips, no surge) would pin nothing."""
    golden = json.loads(GOLDEN_PATH.read_text())
    report = golden["report"]
    assert report["rounds"] > 100
    assert report["trips_completed"] > 0
    assert report["ewt_count"] > 0
    assert report["surge_active_fraction"] > 0.0
    assert len(report["supply_series"]) > 0


if __name__ == "__main__":
    if "--regen" in sys.argv[1:]:
        regenerate()
    else:
        print(__doc__)
        raise SystemExit(2)
