"""Campaign orchestration: parallel attack-matrix runs with resume.

The paper's evaluation (§VII) is a matrix — attacks × controllers ×
fail modes — and this package is the machinery that runs such matrices
at scale:

* :mod:`repro.campaign.spec` — a declarative :class:`CampaignSpec`
  (Python dict, JSON, XML, or ``.py`` file) that expands the matrix into
  run descriptors with deterministic run IDs;
* :mod:`repro.campaign.runner` — a multiprocessing pool executing runs
  in parallel with per-run seeded isolation, per-run timeouts, and
  bounded retry on worker failure;
* :mod:`repro.campaign.scheduler` — the service shape of the pool: a
  long-lived :class:`CampaignScheduler` accepting specs while running,
  streaming each durable record to subscribers and a follow-mode JSONL
  tail, folding aggregates incrementally, and checkpointing the store;
* :mod:`repro.campaign.preflight` — lint every cell's attack before any
  worker is spawned, rejecting defective cells with per-cell diagnostics
  in the result store;
* :mod:`repro.campaign.store` — an append-only JSONL
  :class:`ResultStore` keyed by run ID, so an interrupted campaign
  resumes by skipping completed runs;
* :mod:`repro.campaign.shardstore` — the same ledger sharded across
  ``<store>.d/shard-NN.jsonl`` by run-ID hash, with a persisted resume
  index (O(new records) cold resume) and tombstone-policy compaction;
* :mod:`repro.campaign.aggregate` — per-cell streaming aggregates
  (count, mean, p50/p95 via a fixed-size quantile digest);
* :mod:`repro.campaign.report` — aggregation into paper-style security
  metrics (throughput/latency deltas vs. a passthrough baseline,
  Table II unauthorized-access windows) and Fig. 10–12-style summaries.

The CLI front-end is ``repro campaign
run|status|report|serve|watch|submit``.
"""

from repro.campaign.aggregate import (
    CampaignAggregator,
    CellAggregate,
    QuantileDigest,
)
from repro.campaign.preflight import (
    lint_descriptors,
    partition_pending,
    rejection_error,
)
from repro.campaign.report import CampaignReport, build_report
from repro.campaign.runner import (
    CampaignRunner,
    CampaignSummary,
    run_campaign,
)
from repro.campaign.scheduler import (
    CampaignJob,
    CampaignScheduler,
    stream_path_for,
)
from repro.campaign.shardstore import (
    ShardedResultStore,
    is_sharded_path,
    open_store,
    shard_for,
)
from repro.campaign.spec import (
    CampaignSpec,
    RunDescriptor,
    load_spec,
    run_id_for,
)
from repro.campaign.store import RECORD_SCHEMA, ResultStore, make_record

__all__ = [
    "CampaignAggregator",
    "CampaignJob",
    "CampaignReport",
    "CampaignRunner",
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignSummary",
    "CellAggregate",
    "QuantileDigest",
    "RECORD_SCHEMA",
    "ResultStore",
    "RunDescriptor",
    "ShardedResultStore",
    "build_report",
    "is_sharded_path",
    "lint_descriptors",
    "load_spec",
    "make_record",
    "open_store",
    "partition_pending",
    "rejection_error",
    "run_campaign",
    "run_id_for",
    "shard_for",
    "stream_path_for",
]
