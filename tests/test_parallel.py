"""The parallel execution layer: the campaign orchestrator.

Two contracts under test:

* **Sweeps are deterministic and isolated** — the orchestrator returns
  outcomes in spec order whatever the completion order, a crashing
  campaign yields a structured error without poisoning siblings, and
  process-pool campaigns are bit-identical to sequential ones.
* **Campaign-level state survives threads** — scheduler budget
  accounting stays exact under adversarial multi-thread use.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from concurrent.futures import Future

import pytest

from repro.measurement.scheduler import RequestScheduler
from repro.parallel.orchestrator import (
    CampaignOutcome,
    CampaignSpec,
    execute_campaign,
    resolve_workers,
    run_sweep,
)


# ----------------------------------------------------------------------
# The campaign orchestrator
# ----------------------------------------------------------------------
def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(7) == 7
    assert resolve_workers(None) >= 1
    assert resolve_workers(None) <= 4
    with pytest.raises(ValueError):
        resolve_workers(0)


def _tiny_spec(key: str, city: str = "manhattan", seed: int = 3,
               hours: float = 0.05, **kwargs) -> CampaignSpec:
    return CampaignSpec(
        key=key, city=city, seed=seed, hours=hours, max_clients=4,
        **kwargs,
    )


def test_execute_campaign_returns_structured_outcome():
    outcome = execute_campaign(_tiny_spec("one"))
    assert outcome.ok
    assert outcome.key == "one"
    assert outcome.truth_digest and len(outcome.truth_digest) == 64
    assert outcome.metrics is not None
    assert outcome.metrics["rounds"] > 0
    assert outcome.metrics["clients"] == 4
    # The whole outcome must survive a JSON round-trip: workers hand
    # records, not objects, across the process boundary.
    assert json.loads(json.dumps(outcome.to_json()))["ok"] is True


def test_execute_campaign_is_seed_deterministic():
    # Long enough for at least one 5-minute IntervalTruth record —
    # an empty truth stream would make every digest trivially equal.
    a = execute_campaign(_tiny_spec("a", seed=21, hours=0.15))
    b = execute_campaign(_tiny_spec("b", seed=21, hours=0.15))
    c = execute_campaign(_tiny_spec("c", seed=22, hours=0.15))
    assert a.metrics["truth_intervals"] >= 1
    assert a.truth_digest == b.truth_digest
    assert a.truth_digest != c.truth_digest


def test_crashing_campaign_is_reported_not_swallowed():
    """A failing campaign in a parallel sweep yields a structured error
    record — with the exception and traceback — while every sibling
    completes, and the merged order still matches the spec order."""
    specs = [
        _tiny_spec("good-1", seed=5),
        _tiny_spec("bad", city="atlantis", seed=5),
        _tiny_spec("good-2", city="sf", seed=5),
    ]
    outcomes = run_sweep(specs, jobs=2)
    assert [o.key for o in outcomes] == ["good-1", "bad", "good-2"]
    good1, bad, good2 = outcomes
    assert good1.ok and good2.ok
    assert not bad.ok
    assert bad.error is not None and "atlantis" in bad.error
    assert bad.traceback is not None and "ValueError" in bad.traceback
    assert good1.truth_digest and good2.truth_digest


def test_sweep_parallel_matches_sequential():
    specs = [
        _tiny_spec("m-5", seed=5),
        _tiny_spec("m-6", seed=6),
        _tiny_spec("s-5", city="sf", seed=5),
    ]
    sequential = run_sweep(specs, jobs=1)
    parallel = run_sweep(specs, jobs=3)
    assert [o.key for o in sequential] == [o.key for o in parallel]
    assert [o.truth_digest for o in sequential] == [
        o.truth_digest for o in parallel
    ]
    assert [o.metrics for o in sequential] == [
        o.metrics for o in parallel
    ]


def test_merge_order_is_spec_order_not_completion_order():
    """Campaigns with wildly different durations: the long one is
    submitted first and finishes last, but still comes back first."""
    specs = [
        CampaignSpec(key="long", city="manhattan", seed=2, hours=0.2,
                     max_clients=4),
        _tiny_spec("short-1", seed=2),
        _tiny_spec("short-2", seed=3),
    ]
    outcomes = run_sweep(specs, jobs=3)
    assert [o.key for o in outcomes] == ["long", "short-1", "short-2"]
    assert all(o.ok for o in outcomes)


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError, match="duplicate campaign keys"):
        run_sweep([_tiny_spec("x"), _tiny_spec("x")], jobs=1)
    # The shared submit-time audit names the offending keys and leaves
    # distinct sweeps alone (cluster dispatch reuses the same helper).
    from repro.parallel.orchestrator import ensure_unique_keys

    with pytest.raises(ValueError, match=r"\['x'\]"):
        ensure_unique_keys([_tiny_spec("x"), _tiny_spec("y"),
                            _tiny_spec("x", seed=9)])
    ensure_unique_keys([_tiny_spec("x"), _tiny_spec("y")])


def test_outcome_wall_s_is_metadata_not_identity():
    """``wall_s`` rides on every outcome (success and failure) for
    straggler-skew reporting, but stays out of ``identity()`` — wall
    time varies per run, digests and metrics must not."""
    ok = execute_campaign(_tiny_spec("timed"))
    assert ok.wall_s is not None and ok.wall_s > 0
    failed = execute_campaign(_tiny_spec("broken", city="atlantis"))
    assert failed.wall_s is not None and failed.wall_s >= 0
    for outcome in (ok, failed):
        payload = outcome.to_json()
        assert payload["wall_s"] == outcome.wall_s
        identity = outcome.identity()
        assert "wall_s" not in identity
        assert identity == {
            k: v for k, v in payload.items() if k != "wall_s"
        }


def test_outcome_json_schema_is_backward_compatible():
    """Outcome records written before wall_s existed still load: the
    field is optional with a None default, never required."""
    legacy = {
        "key": "old", "ok": True, "truth_digest": "d" * 64,
        "metrics": {"rounds": 2.0}, "out_path": None,
        "error": None, "traceback": None,
    }
    revived = CampaignOutcome(**legacy)
    assert revived.wall_s is None
    assert json.loads(json.dumps(revived.to_json()))["wall_s"] is None


def test_unknown_engine_flag_is_a_structured_error():
    """Unknown flags fail the campaign as a structured outcome — among
    them the retired parallel knobs, so an old sweep spec that still
    carries one is refused rather than silently run serial."""
    for name, value in (
        ("use_warp_drive", True),
        ("use_parallel_ping", True),
        ("parallel_workers", 2),
        ("use_sharded_state", True),
        ("state_shards", 2),
        ("shard_executor", "process"),
    ):
        spec = _tiny_spec("flagged", engine_flags=((name, value),))
        outcome = execute_campaign(spec)
        assert not outcome.ok, name
        assert outcome.error is not None
        assert name in outcome.error


def test_engine_flags_reach_the_engine():
    """A flags-off campaign must be bit-identical to defaults — the
    flag plumbing exists so sweeps can run ablations, and the flags
    must only ever change speed."""
    defaults = execute_campaign(_tiny_spec("defaults", seed=9, hours=0.15))
    ablation = execute_campaign(
        _tiny_spec(
            "ablation", seed=9, hours=0.15,
            engine_flags=(
                ("use_spatial_index", False),
                ("use_vectorized_step", False),
                ("use_batched_ping", False),
            ),
        )
    )
    assert defaults.ok and ablation.ok
    assert defaults.metrics["truth_intervals"] >= 1
    assert defaults.truth_digest == ablation.truth_digest


def test_empty_sweep():
    assert run_sweep([], jobs=4) == []


def test_campaign_log_written_by_worker(tmp_path):
    out = tmp_path / "c.jsonl"
    outcome = execute_campaign(_tiny_spec("logged", out=str(out)))
    assert outcome.ok
    assert outcome.out_path == str(out)
    from repro.measurement.records import CampaignLog

    log = CampaignLog.load(out)
    assert len(log.rounds) == int(outcome.metrics["rounds"])


def test_save_failure_is_a_structured_error(tmp_path):
    """A disk error *after* a successful run (unwritable out path) must
    still come back as an error outcome, not an exception — the save is
    inside the crash-isolation boundary."""
    out = tmp_path / "no_such_dir" / "c.jsonl"
    outcome = execute_campaign(_tiny_spec("diskless", out=str(out)))
    assert not outcome.ok
    assert outcome.error is not None
    assert outcome.traceback is not None
    assert "no_such_dir" in outcome.traceback


def _exit_worker(spec: CampaignSpec) -> CampaignOutcome:
    """Stand-in campaign runner that kills its worker process outright
    for the sentinel key — the one crash ``execute_campaign`` can never
    catch, which is exactly the branch ``run_sweep`` must absorb."""
    if spec.key == "boom":
        os._exit(13)
    return execute_campaign(spec)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched worker function needs fork inheritance",
)
def test_worker_process_death_is_a_structured_outcome(monkeypatch):
    """A worker that dies mid-campaign (hard exit, OOM kill, segfault)
    breaks the process pool; ``run_sweep`` must turn that into
    per-campaign error outcomes in spec order instead of raising."""
    from repro.parallel import orchestrator

    monkeypatch.setattr(orchestrator, "execute_campaign", _exit_worker)
    specs = [_tiny_spec("boom", seed=5), _tiny_spec("ok", seed=5)]
    outcomes = orchestrator.run_sweep(specs, jobs=2)
    assert [o.key for o in outcomes] == ["boom", "ok"]
    boom, ok = outcomes
    assert not boom.ok
    assert boom.error is not None and "BrokenProcessPool" in boom.error
    assert boom.traceback is not None
    # The sibling either finished before the pool broke (and keeps its
    # result) or was lost with the pool (and gets its own structured
    # error) — in neither case does run_sweep raise or drop it.
    if ok.ok:
        assert ok.truth_digest
    else:
        assert ok.error is not None and "BrokenProcessPool" in ok.error


class _FlakySubmitExecutor:
    """ProcessPoolExecutor stand-in whose ``submit`` raises for specs
    keyed ``bad*`` — modelling a pool broken between submissions — and
    otherwise resolves inline with a completed Future."""

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, spec):
        if spec.key.startswith("bad"):
            raise RuntimeError(f"submit refused for {spec.key}")
        future: Future = Future()
        future.set_result(fn(spec))
        return future


def test_submit_failure_is_a_structured_outcome(monkeypatch):
    """``executor.submit`` itself can raise (pool already broken,
    interpreter shutdown).  Every spec must still yield exactly one
    outcome in spec order: failed submits as structured errors, the
    specs submitted *after* the failure unaffected — an unguarded
    submit loop would have dropped them silently."""
    from repro.parallel import orchestrator

    monkeypatch.setattr(
        orchestrator, "ProcessPoolExecutor", _FlakySubmitExecutor
    )
    specs = [
        _tiny_spec("ok-1", seed=3),
        _tiny_spec("bad-2", seed=3),
        _tiny_spec("ok-3", seed=3),
        _tiny_spec("bad-4", seed=3),
    ]
    outcomes = orchestrator.run_sweep(specs, jobs=2)
    assert [o.key for o in outcomes] == ["ok-1", "bad-2", "ok-3", "bad-4"]
    ok1, bad2, ok3, bad4 = outcomes
    assert ok1.ok and ok1.truth_digest
    assert ok3.ok and ok3.truth_digest == ok1.truth_digest
    for bad in (bad2, bad4):
        assert not bad.ok
        assert bad.error is not None and "submit refused" in bad.error
        assert bad.traceback is not None


def test_prefetch_campaigns_writes_identical_cache_files(
    tmp_path, monkeypatch
):
    """Sweep-written bench cache files must be byte-identical to the
    ones the in-process ``campaign()`` path writes — otherwise a cold
    parallel prefetch would silently change bench inputs."""
    import sys
    from pathlib import Path

    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    import _shared

    params = {
        "city": "manhattan",
        "days": 0.01,
        "ping_interval_s": 30.0,
        "warmup_s": 0.0,
        "seed": 77,
    }
    key = _shared.campaign_key(**params)

    monkeypatch.setattr(_shared, "CACHE_DIR", tmp_path / "sweep")
    monkeypatch.setattr(_shared, "_memory_cache", {})
    (tmp_path / "sweep").mkdir()
    assert _shared.prefetch_campaigns([params], jobs=2) == 1
    sweep_bytes = _shared.campaign_cache_path(key).read_bytes()
    # Prefetch with a warm cache is a no-op.
    assert _shared.prefetch_campaigns([params], jobs=2) == 0

    monkeypatch.setattr(_shared, "CACHE_DIR", tmp_path / "inline")
    monkeypatch.setattr(_shared, "_memory_cache", {})
    (tmp_path / "inline").mkdir()
    _shared.campaign(**params)
    inline_bytes = _shared.campaign_cache_path(key).read_bytes()

    assert sweep_bytes == inline_bytes


def test_prefetch_raises_on_failed_campaign(tmp_path, monkeypatch):
    import sys
    from pathlib import Path

    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    import _shared

    monkeypatch.setattr(_shared, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(_shared, "_memory_cache", {})
    with pytest.raises(RuntimeError, match="prefetch failed"):
        _shared.prefetch_campaigns(
            [{"city": "nowhere", "days": 0.01, "seed": 1}], jobs=1
        )


# ----------------------------------------------------------------------
# Campaign-level state: scheduler accounting
# ----------------------------------------------------------------------
def test_scheduler_accounting_is_thread_safe():
    """Adversarial use: concurrent account_for calls must neither lose
    nor double-count spend (the read-modify-write is locked)."""
    scheduler = RequestScheduler(limit_per_hour=100_000)
    accounts = [f"a{i}" for i in range(4)]
    n_threads, per_thread = 8, 200
    errors = []

    def hammer():
        try:
            for _ in range(per_thread):
                assert scheduler.account_for(accounts, now=10.0)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert scheduler.total_spent(now=10.0) == n_threads * per_thread
