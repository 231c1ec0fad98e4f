"""Parallel execution layer: campaign sweeps, local and across hosts.

The engine itself is one serial path; the one parallel grain kept is
whole independent campaigns.

* :mod:`repro.parallel.orchestrator` — a process-pool runner for
  *independent* campaigns (multi-seed replications, dual-city runs,
  ablation sweeps): per-campaign seeding, structured JSON-serializable
  results (truth digests + metrics), crash isolation with per-campaign
  error capture, and a deterministic merge ordered by campaign key.
  Exposed as ``repro measure --jobs N`` and the :func:`run_sweep` API
  the benchmarks adopt.

* :mod:`repro.parallel.cluster` (+ :mod:`repro.parallel.wire`) — the
  multi-host extension of the orchestrator: an asyncio TCP
  dispatcher/worker pair (``repro measure --workers`` /
  ``repro worker``) that distributes the same :class:`CampaignSpec`s
  over length-prefixed canonical-JSON frames and merges
  :class:`CampaignOutcome`s in spec order, byte-identical to a local
  :func:`run_sweep` — including requeue-on-death with exactly-once
  merge (tier-1 enforced).
"""

from typing import Any

__all__ = [
    # Re-exported lazily below: importing the package stays free of the
    # engine, which the orchestrator imports.
    "CampaignSpec",
    "CampaignOutcome",
    "run_sweep",
    "execute_campaign",
    "truth_digest",
    "ensure_unique_keys",
    "resolve_workers",
    "SweepDispatcher",
    "ClusterWorker",
    "run_cluster_sweep",
]

_ORCHESTRATOR_NAMES = frozenset(
    {
        "CampaignSpec",
        "CampaignOutcome",
        "run_sweep",
        "execute_campaign",
        "truth_digest",
        "ensure_unique_keys",
        "resolve_workers",
    }
)

_CLUSTER_NAMES = frozenset(
    {"SweepDispatcher", "ClusterWorker", "run_cluster_sweep"}
)


def __getattr__(name: str) -> Any:  # pragma: no cover - lazy re-export
    if name in _ORCHESTRATOR_NAMES:
        from repro.parallel import orchestrator

        return getattr(orchestrator, name)
    if name in _CLUSTER_NAMES:
        from repro.parallel import cluster

        return getattr(cluster, name)
    raise AttributeError(name)
