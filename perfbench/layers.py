"""Per-layer metrics: which entry points are timed, and what they yield.

Each metric is named after the module whose public methods it times
(``service.ingest`` -> ``ingest.*``, ``net.supervisor`` ->
``supervisor.*``, ...).  Every metric is reported on every workload; a
layer that does not run on a workload reports 0.
"""

from __future__ import annotations

import numpy as np

from repro.durable.manager import DurabilityManager
from repro.net.fabric import FabricPool
from repro.net.supervisor import HostJournal, Supervisor
from repro.replication.sender import ReplicationSender
from repro.service.aggregator import StreamingAggregator
from repro.service.batcher import MicroBatcher
from repro.service.ingest import IngestService
from repro.service.ledger import BudgetLedger
from repro.workers.handles import WorkerHandle

#: Per-layer metric -> unit, in report order.
UNITS = {
    "ingest.calls": "count",
    "ingest.self_ns_per_claim": "ns/claim",
    "ingest.rejected": "count",
    "ledger.charges": "count",
    "ledger.self_ns_per_claim": "ns/claim",
    "ledger.denied": "count",
    "shard.pumps": "count",
    "shard.self_ns_per_claim": "ns/claim",
    "batcher.batches": "count",
    "batcher.claims_per_batch": "claims/batch",
    "batcher.self_ns_per_claim": "ns/claim",
    "durable.log_batch_ns_per_claim": "ns/claim",
    "durable.log_charge_ns_per_claim": "ns/claim",
    "durable.commit_ns_per_claim": "ns/claim",
    "durable.checkpoint_ms_max": "ms",
    "durable.records": "count",
    "durable.charge_records": "count",
    "durable.fsyncs": "count",
    "durable.wal_bytes_per_claim": "B/claim",
    "durable.compacted_bytes_per_claim": "B/claim",
    "aggregator.ingest_ns_per_claim": "ns/claim",
    "aggregator.refreshes": "count",
    "aggregator.refresh_ms_p50": "ms",
    "snapshot.self_ms_p50": "ms",
    "snapshot.refresh_share": "fraction",
    "workers.frames": "count",
    "workers.bytes_per_claim": "B/claim",
    "workers.send_ns_per_claim": "ns/claim",
    "workers.sync_wait_ms": "ms",
    "supervisor.journal_ns_per_claim": "ns/claim",
    "supervisor.journal_bytes_per_claim": "B/claim",
    "supervisor.captures": "count",
    "supervisor.capture_ms_total": "ms",
    "supervisor.restarts": "count",
    "replication.bytes_per_claim": "B/claim",
    "replication.groups": "count",
    "replication.reconnects": "count",
    "replication.lag_lsn_max": "records",
    "replication.catchup_ms": "ms",
    "obs.overhead_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.closure": "fraction",
}


def _count_batches(tracer, args, result) -> None:
    batches = result if isinstance(result, list) else [result]
    for batch in batches:
        if batch is not None:
            tracer.count("batcher.batches", 1)
            tracer.count("batcher.claims", batch.values.size)


def _count_frame(tracer, args, result) -> None:
    tracer.count("workers.bytes", len(args[1].to_bytes()))


def _count_journal(tracer, args, result) -> None:
    tracer.count("supervisor.journal_bytes", len(args[2]))


#: (class, method, span name, hook) for every timed entry point.
ENTRY_POINTS = (
    (IngestService, "submit", "ingest", None),
    (IngestService, "submit_columns", "ingest", None),
    (BudgetLedger, "admit", "ledger", None),
    (BudgetLedger, "can_admit", "ledger", None),
    (IngestService, "pump", "shard", None),
    (IngestService, "flush", "shard", None),
    (MicroBatcher, "add_columns", "batcher", _count_batches),
    (MicroBatcher, "flush", "batcher", _count_batches),
    (DurabilityManager, "log_batch", "durable.log_batch", None),
    (DurabilityManager, "log_charge", "durable.log_charge", None),
    (DurabilityManager, "log_refresh", "durable.commit", None),
    (DurabilityManager, "after_pump", "durable.commit", None),
    (DurabilityManager, "sync", "durable.commit", None),
    (DurabilityManager, "checkpoint", "durable.checkpoint", None),
    (StreamingAggregator, "ingest", "aggregator.ingest", None),
    (StreamingAggregator, "refresh", "aggregator.refresh", None),
    (IngestService, "snapshot", "snapshot", None),
    (WorkerHandle, "send_batch", "workers.send", _count_frame),
    (FabricPool, "sync", "workers.sync", None),
    (HostJournal, "record", "supervisor.journal", _count_journal),
    (Supervisor, "checkpoint", "supervisor.capture", None),
    (ReplicationSender, "wait_replicated", "replication.wait", None),
)


def install(tracer) -> None:
    for cls, method, name, hook in ENTRY_POINTS:
        tracer.wrap(cls, method, name, hook)


def metrics(
    summary: dict,
    counters: dict,
    evidence: dict,
    traced,
    *,
    wall_untraced: float,
    wall_traced: float,
    wall_no_obs: float,
) -> dict:
    """Per-layer metrics of one traced phase.

    ``traced`` is the traced phase's :class:`~perfbench.workloads.Run`;
    the three walls are the summed round clocks of the untraced,
    traced and ``obs=False`` phases, which ran identical rounds.
    """
    claims = max(sum(traced.round_claims), 1)
    service = evidence.get("counters", {})

    def span(name: str) -> dict:
        return summary.get(name, {"calls": 0, "self_ns": 0.0,
                                  "total_ns": 0.0,
                                  "durations": np.zeros(0),
                                  "self": np.zeros(0),
                                  "index": np.zeros(0, np.int64)})

    def per_claim(name: str) -> float:
        return span(name)["self_ns"] / claims

    def p50_ms(values) -> float:
        return float(np.median(values)) / 1e6 if len(values) else 0.0

    parent = summary["_parent"]
    duration = summary["_duration"]
    snapshot = span("snapshot")
    refresh = span("aggregator.refresh")
    under_read = np.isin(parent[refresh["index"]], snapshot["index"])
    read_total = snapshot["total_ns"]
    batches = counters.get("batcher.batches", 0)
    out = {
        "ingest.calls": span("ingest")["calls"],
        "ingest.self_ns_per_claim": per_claim("ingest"),
        "ingest.rejected": len(traced.refused),
        "ledger.charges": service.get("ledger.admitted", 0),
        "ledger.self_ns_per_claim": per_claim("ledger"),
        "ledger.denied": service.get("ledger.denied", 0),
        "shard.pumps": span("shard")["calls"],
        "shard.self_ns_per_claim": per_claim("shard"),
        "batcher.batches": batches,
        "batcher.claims_per_batch": (
            counters.get("batcher.claims", 0) / batches if batches else 0.0
        ),
        "batcher.self_ns_per_claim": per_claim("batcher"),
        "durable.log_batch_ns_per_claim": per_claim("durable.log_batch"),
        "durable.log_charge_ns_per_claim": per_claim("durable.log_charge"),
        "durable.commit_ns_per_claim": per_claim("durable.commit"),
        "durable.checkpoint_ms_max": (
            float(span("durable.checkpoint")["durations"].max()) / 1e6
            if span("durable.checkpoint")["calls"] else 0.0
        ),
        "durable.records": service.get("durable.records", 0),
        "durable.charge_records": service.get("durable.charge_records", 0),
        "durable.fsyncs": service.get("durable.fsyncs", 0),
        "durable.wal_bytes_per_claim": evidence.get(
            "wal_bytes_per_claim", 0.0
        ),
        "durable.compacted_bytes_per_claim": evidence.get(
            "compacted_bytes_per_claim", 0.0
        ),
        "aggregator.ingest_ns_per_claim": per_claim("aggregator.ingest"),
        "aggregator.refreshes": refresh["calls"],
        # Read-forced refreshes only: flushes also call refresh() on
        # every campaign, mostly with nothing staged.
        "aggregator.refresh_ms_p50": p50_ms(refresh["durations"][under_read]),
        "snapshot.self_ms_p50": p50_ms(snapshot["self"]),
        "snapshot.refresh_share": (
            float(refresh["durations"][under_read].sum()) / read_total
            if read_total else 0.0
        ),
        "workers.frames": span("workers.send")["calls"],
        "workers.bytes_per_claim": counters.get("workers.bytes", 0) / claims,
        "workers.send_ns_per_claim": per_claim("workers.send"),
        "workers.sync_wait_ms": span("workers.sync")["total_ns"] / 1e6,
        "supervisor.journal_ns_per_claim": per_claim("supervisor.journal"),
        "supervisor.journal_bytes_per_claim": (
            counters.get("supervisor.journal_bytes", 0) / claims
        ),
        "supervisor.captures": span("supervisor.capture")["calls"],
        "supervisor.capture_ms_total": (
            span("supervisor.capture")["total_ns"] / 1e6
        ),
        "supervisor.restarts": service.get("supervisor.restarts", 0),
        "replication.bytes_per_claim": (
            service.get("replication.bytes", 0) / claims
        ),
        "replication.groups": service.get("replication.groups", 0),
        "replication.reconnects": service.get("replication.reconnects", 0),
        "replication.lag_lsn_max": traced.lag_lsn_max,
        "replication.catchup_ms": (
            float(np.median(traced.catchup_seconds)) * 1e3
            if traced.catchup_seconds else 0.0
        ),
        "obs.overhead_frac": wall_untraced / wall_no_obs - 1.0,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "trace.closure": (
            float(duration[parent < 0].sum()) / 1e9 / wall_untraced
        ),
    }
    return out
