"""Tier-1 perf regression: the engine's speed flags must stay speedups.

Drives :func:`bench_perf_engine.run_bench` in ``--quick`` mode — a small
fleet and a handful of ticks, seconds not minutes — and asserts the
properties the full bench enforces across the scalar/vector ×
brute/index × batched/per-client flag matrix (``use_spatial_index`` ×
``use_vectorized_step`` × ``use_batched_ping``):

* same seed, any flag combination ⇒ identical truth logs, trip ledgers,
  ping replies, and engine RNG state (this is the hard contract; it
  also runs unmarked so plain tier-1 covers it);
* the default configuration (all flags on) is not slower end-to-end
  than the seed's scalar linear-scan engine;
* vectorized stepping is not slower than scalar stepping on engine
  ticks;
* batched round serving is not slower than the per-client vectorized
  ping path;
* orchestrator sweeps are bit-deterministic: the same specs run
  sequentially and through the process pool yield identical truth
  digests.

The speedup floors here are deliberately conservative (quick mode runs a
fleet far below the scale where the optimisations shine; the full bench
shows >= 3x on the PR 1/2 headline ratios and >= 1.5x on the batched
round ratio): they exist to catch a regression that makes a flag
*pessimal*, not to benchmark the machine running CI.  The process-pool
sweep floor (``sweep_parallel_vs_sequential``) is a physical claim
about multi-core machines — the bench JSON records it with ``enforced``
gated on ``cpu_count >= 4``, and this module only asserts it where
enforced.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_perf_engine import ALL_COMBOS, LEGS, check_equivalence, run_bench


def test_combo_matrix_is_complete():
    """The equivalence sweep must cover the full three-flag matrix."""
    assert len(ALL_COMBOS) == 8
    assert len({tuple(sorted(c.items())) for c in ALL_COMBOS}) == 8
    for combo in ALL_COMBOS:
        assert set(combo) == {
            "use_spatial_index",
            "use_vectorized_step",
            "use_batched_ping",
        }


@pytest.mark.perf
def test_quick_bench_equivalent_and_not_slower():
    result = run_bench(quick=True)
    assert result["truth_equivalent"]
    assert result["sweep_deterministic"]
    speedup = result["speedup"]
    # Defaults must beat the seed end-to-end even at toy scale.
    assert speedup["defaults_vs_seed_campaign"] >= 1.0
    # Vectorized stepping must never be pessimal vs the scalar step.
    assert speedup["vector_vs_scalar_engine_ticks"] >= 1.1
    # Batched round serving (use_batched_ping) must never be pessimal
    # vs per-client vectorized pings.
    assert speedup["batched_vs_perclient_ping_rounds"] >= 1.0
    # The process-pool sweep floor only binds where the bench marks it
    # enforced (>= 4 cores, full mode) — quick mode and small CI boxes
    # record the ratio without asserting physics they can't exhibit.
    # Still require the number to exist and be positive.
    bound = result["thresholds"]["sweep_parallel_vs_sequential"]
    assert speedup["sweep_parallel_vs_sequential"] > 0
    if bound["enforced"]:
        assert speedup["sweep_parallel_vs_sequential"] >= bound["min"]
    # Every leg must have produced sane throughput numbers.
    for name in LEGS:
        assert result["legs"][name]["engine_ticks_per_s"] > 0
    # The sweep leg must have run all its campaigns successfully.
    assert result["sweep"]["all_ok"]


def test_same_seed_truth_equivalence():
    """No flag combination may change behaviour, only speed.

    Runs the full eight-way ``use_spatial_index`` ×
    ``use_vectorized_step`` × ``use_batched_ping`` matrix on a small
    scenario: identical ``IntervalTruth`` streams, trip ledgers, ping
    replies, and engine RNG state bit for bit.  This is the tier-1
    enforcement of the contract the vectorized step and the batched
    round-serving path are built on.
    """
    assert check_equivalence(scale=1, ticks=30, seed=19)
