"""Throughput/latency measurement harness for the ingestion service.

Shared by the ``repro service-bench`` CLI subcommand and
``benchmarks/bench_service_throughput.py``.  Three measured paths:

* **bulk** — pre-resolved columnar chunks through
  ``IngestService.submit_columns`` (the gateway hot path);
* **submissions** — protocol-shaped ``ClaimSubmission`` objects through
  ``IngestService.submit`` (the crowdsensing adapter path);
* **baseline** — the classic per-message ``AggregationServer``:
  JSON-serialised transport, per-object submission lists, one full
  truth-discovery fit at finalise.

The bulk and submission paths run the truth-discovery ``method`` under
test (``--method`` on the CLI; CRH, GTM, or CATD), so the whole
pipeline — including the multi-process worker comparison and its
bitwise check — exercises that method's streaming backend.

A fourth, per-method section (:func:`bench_method_reads`) compares the
*read path* of the streaming and full-refit backends on one large
campaign: identical traffic into both, periodic snapshot reads along
the stream, and a final read on the fully loaded campaign.  The
full-refit backend pays O(total claims) per dirty read; the streaming
backends answer from O(S x N) sufficient statistics — the section
reports the measured per-read latencies, the speedup, and the dense
streaming-vs-batch agreement RMSE for the method.

Traffic is materialised before the clock starts, so the numbers measure
ingestion and aggregation only.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.crowdsensing.campaign import CampaignSpec
from repro.crowdsensing.server import AggregationServer
from repro.crowdsensing.transport import InProcessTransport
from repro.durable.oracle import ledger_key
from repro.obs.registry import percentile_from_counts
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.loadgen import LoadGenerator
from repro.service.topology import Topology
from repro.privacy.ldp import LDPGuarantee
from repro.truthdiscovery.claims import ClaimMatrix
from repro.truthdiscovery.registry import create_method
from repro.truthdiscovery.streaming import STREAMING_ESTIMATORS

#: Reference-fit kwargs per method for the agreement check.  The
#: streaming CRH estimator shares the *squared*-distance CRH fixed
#: point (not the default per-object-normalised distance); GTM and
#: CATD defaults already match their streaming counterparts.
_REFERENCE_KWARGS = {"crh": {"distance": "squared"}}


def _percentile_ms(latencies: np.ndarray, q: float) -> float:
    if latencies.size == 0:
        return 0.0
    return float(np.percentile(latencies, q) * 1e3)


def _family_percentile_ms(snapshot, name: str, q: float) -> float:
    """Histogram percentile merged across a family's label children.

    ``RegistrySnapshot.histogram_percentile`` addresses one series;
    the per-shard latency families (``repro_batch_flush_seconds{shard}``
    and friends) want the service-wide percentile, which is just the
    percentile of the element-wise summed bucket counts.
    """
    counts = None
    for (series, _labels), hist in snapshot.histograms.items():
        if series != name:
            continue
        if counts is None:
            counts = list(hist["counts"])
        else:
            counts = [a + b for a, b in zip(counts, hist["counts"])]
    if counts is None or sum(counts) == 0:
        return 0.0
    return float(percentile_from_counts(counts, q) * 1e3)


def _bench_bulk(
    *,
    total_claims: int,
    num_campaigns: int,
    users_per_campaign: int,
    objects_per_campaign: int,
    num_shards: int,
    max_batch: int,
    chunk_size: int,
    seed: int,
    method: str = "crh",
    workers: int = 0,
    hosts: int = 0,
    supervise: bool = True,
    start_method: str = "spawn",
    midstream=None,
    obs: bool = True,
    trace_sample_every: int = 0,
    trace_output=None,
    metrics_server=None,
) -> tuple[dict, dict]:
    """One bulk-path run; returns (metrics, final truths per campaign).

    With ``workers > 0`` the clock covers ``sync_workers()`` too, so
    multi-process throughput counts *aggregated* claims — not frames
    parked in a pipe — and is directly comparable to the in-process
    run.  ``hosts > 0`` runs the same traffic over the socket shard
    fabric (``repro serve-shard`` subprocesses) instead of the pipe
    pool.  ``midstream`` is called once with the service at the
    halfway chunk — the failover benchmark uses it to kill a shard
    host inside the measured window.  The final truths are snapshotted
    outside the clock; the caller uses them for the bitwise checks.

    ``obs=False`` runs with the telemetry layer compiled out (the
    null registry) — the overhead measurement compares the two.  A
    ``metrics_server`` is pointed at this run's live registry for its
    duration and frozen on our last snapshot before the service
    closes, so a concurrent scraper always gets an answer.
    """
    config = ServiceConfig(
        num_shards=num_shards,
        max_batch=max_batch,
        obs=obs,
        trace_sample_every=trace_sample_every,
    )
    if hosts > 0:
        topology = Topology.fabric(hosts, supervise=supervise)
    elif workers > 0:
        topology = Topology.workers(workers, start_method=start_method)
    else:
        topology = Topology.in_process()
    service = IngestService(config, topology=topology)
    if metrics_server is not None:
        metrics_server.set_provider(service.metrics_snapshot)
    per_campaign_chunks = []
    generators = []
    per_campaign = max(total_claims // num_campaigns, 1)
    for c in range(num_campaigns):
        gen = LoadGenerator(
            f"bulk-c{c}",
            num_users=users_per_campaign,
            num_objects=objects_per_campaign,
            random_state=seed + c,
        )
        generators.append(gen)
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=users_per_campaign,
            user_ids=gen.user_ids,
            method=method,
        )
        per_campaign_chunks.append(
            list(gen.column_chunks(per_campaign, chunk_size=chunk_size))
        )
    # Interleave arrivals round-robin across campaigns, the way real
    # traffic mixes — campaign-sequential replay would keep exactly one
    # shard (and so one worker) busy at a time.
    chunks = [
        chunk
        for group in itertools.zip_longest(*per_campaign_chunks)
        for chunk in group
        if chunk is not None
    ]

    start = time.perf_counter()
    for i, chunk in enumerate(chunks):
        service.submit_columns(
            chunk.campaign_id, chunk.user_slots, chunk.object_slots,
            chunk.values,
        )
        if i % 16 == 15:
            service.pump()
        if midstream is not None and i == len(chunks) // 2:
            midstream(service)
            midstream = None
    service.flush()
    service.sync_workers()
    elapsed = time.perf_counter() - start

    truths = {
        gen.campaign_id: service.snapshot(gen.campaign_id).truths
        for gen in generators
    }
    accepted = service.stats.claims_accepted
    lats = service.batch_latencies()
    fabric = service.fabric_stats() if hosts > 0 else None
    obs_snapshot = service.metrics_snapshot() if obs else None
    if trace_output is not None and trace_sample_every > 0:
        service.telemetry.traces.dump(trace_output)
    if metrics_server is not None:
        metrics_server.freeze()
    service.close()
    metrics = {
        "claims": int(accepted),
        "seconds": elapsed,
        "claims_per_sec": accepted / max(elapsed, 1e-9),
        "batches": int(lats.size),
        "batch_latency_p50_ms": _percentile_ms(lats, 50),
        "batch_latency_p99_ms": _percentile_ms(lats, 99),
        "workers": workers,
        "stats": service.stats.as_dict(),
    }
    if obs_snapshot is not None:
        metrics["batch_flush_p50_ms"] = _family_percentile_ms(
            obs_snapshot, "repro_batch_flush_seconds", 50
        )
        metrics["batch_flush_p99_ms"] = _family_percentile_ms(
            obs_snapshot, "repro_batch_flush_seconds", 99
        )
        metrics["queue_wait_p99_ms"] = _family_percentile_ms(
            obs_snapshot, "repro_queue_wait_seconds", 99
        )
    if trace_sample_every > 0:
        metrics["traces_sampled"] = len(service.telemetry.traces)
    if fabric is not None:
        metrics["hosts"] = hosts
        metrics["supervision"] = fabric.get("supervision")
    return metrics, truths


def _bench_submissions(
    *,
    total_claims: int,
    users_per_campaign: int,
    objects_per_campaign: int,
    claims_per_submission: int,
    num_shards: int,
    max_batch: int,
    seed: int,
    method: str = "crh",
) -> dict:
    config = ServiceConfig(num_shards=num_shards, max_batch=max_batch)
    service = IngestService(config)
    gen = LoadGenerator(
        "subs-c0",
        num_users=users_per_campaign,
        num_objects=objects_per_campaign,
        claims_per_submission=claims_per_submission,
        random_state=seed,
    )
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=users_per_campaign,
        user_ids=gen.user_ids,
        method=method,
    )
    num_submissions = max(total_claims // claims_per_submission, 1)
    submissions = gen.submissions(num_submissions)

    start = time.perf_counter()
    for i, sub in enumerate(submissions):
        service.submit(sub)
        if i % 1024 == 1023:
            service.pump()
    service.flush()
    elapsed = time.perf_counter() - start

    accepted = service.stats.claims_accepted
    lats = service.batch_latencies()
    return {
        "claims": int(accepted),
        "seconds": elapsed,
        "claims_per_sec": accepted / max(elapsed, 1e-9),
        "batches": int(lats.size),
        "batch_latency_p50_ms": _percentile_ms(lats, 50),
        "batch_latency_p99_ms": _percentile_ms(lats, 99),
    }


def _bench_baseline(
    *,
    total_claims: int,
    users_per_campaign: int,
    objects_per_campaign: int,
    claims_per_submission: int,
    seed: int,
) -> dict:
    gen = LoadGenerator(
        "base-c0",
        num_users=users_per_campaign,
        num_objects=objects_per_campaign,
        claims_per_submission=claims_per_submission,
        random_state=seed,
    )
    num_submissions = max(total_claims // claims_per_submission, 1)
    submissions = gen.submissions(num_submissions)
    spec = CampaignSpec(
        campaign_id=gen.campaign_id,
        object_ids=gen.object_ids,
        lambda2=1.0,
        deadline=1e9,
        min_contributors=1,
    )
    transport = InProcessTransport(random_state=seed)
    server = AggregationServer(transport)

    start = time.perf_counter()
    sent = server.announce_campaign(spec, list(gen.user_ids))
    transport.drain_until_idle()
    for sub in submissions:
        transport.send(sub.user_id, server.node_id, sub)
    transport.drain_until_idle()
    server.collect()
    server.finalise(spec, assignments_sent=sent, announce=False)
    elapsed = time.perf_counter() - start

    claims = num_submissions * claims_per_submission
    return {
        "claims": int(claims),
        "seconds": elapsed,
        "claims_per_sec": claims / max(elapsed, 1e-9),
    }


def streaming_agreement_rmse(
    *,
    method: str = "crh",
    num_users: int = 60,
    num_objects: int = 40,
    refine_sweeps: int = 40,
    seed: int = 2020,
) -> float:
    """RMSE between service streaming truths and a full batch refit.

    Uses a dense, duplicate-free round (every user claims every object
    once) so both estimators see identical evidence; the batch
    reference is the registry ``method`` (with the squared-distance
    variant for CRH, whose fixed point StreamingCRH shares).
    """
    config = ServiceConfig(
        num_shards=1,
        max_batch=256,
        refine_sweeps=refine_sweeps,
        refine_every=10**9,  # refine once, at snapshot time
    )
    service = IngestService(config)
    gen = LoadGenerator(
        f"dense-{method}-c0",
        num_users=num_users,
        num_objects=num_objects,
        random_state=seed,
    )
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=num_users,
        user_ids=gen.user_ids,
        method=method,
        aggregator="streaming",
    )
    round_subs = gen.dense_round()
    for sub in round_subs:
        service.submit(sub)
    snapshot = service.snapshot(gen.campaign_id)

    claims = ClaimMatrix.from_submissions(
        round_subs, user_ids=gen.user_ids, object_ids=gen.object_ids
    )
    reference = create_method(
        method, **_REFERENCE_KWARGS.get(method, {})
    ).fit(claims)
    return float(
        np.sqrt(np.mean((snapshot.truths - reference.truths) ** 2))
    )


def bench_method_reads(
    *,
    method: str,
    total_claims: int = 1_000_000,
    num_users: int = 400,
    num_objects: int = 64,
    num_reads: int = 16,
    max_batch: int = 2048,
    chunk_size: int = 2048,
    seed: int = 2020,
) -> dict:
    """Streaming vs full-refit read-path comparison for one method.

    Streams identical traffic into two single-shard services — one
    forced onto the streaming backend, one onto full-refit — taking
    ``num_reads`` snapshot reads spread along the stream plus a final
    read on the fully loaded campaign.  Every read lands on a dirty
    aggregator (claims arrived since the previous read), so the full
    backend pays its real refit each time.  Returns per-backend read
    latencies, the streaming-over-full speedups, and the dense
    streaming-vs-batch agreement RMSE.
    """
    gen = LoadGenerator(
        f"reads-{method}",
        num_users=num_users,
        num_objects=num_objects,
        random_state=seed,
    )
    chunks = list(gen.column_chunks(total_claims, chunk_size=chunk_size))
    read_interval = max(len(chunks) // max(num_reads, 1), 1)
    sections = {}
    for backend in ("streaming", "full"):
        config = ServiceConfig(num_shards=1, max_batch=max_batch)
        service = IngestService(config)
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=num_users,
            user_ids=gen.user_ids,
            method=method,
            aggregator=backend,
        )
        read_seconds = []
        start = time.perf_counter()
        for i, chunk in enumerate(chunks):
            service.submit_columns(
                chunk.campaign_id, chunk.user_slots, chunk.object_slots,
                chunk.values,
            )
            if i % 8 == 7:
                service.pump()
            # Interim reads along the stream; never on the last chunk,
            # so the final read below always measures a dirty read of
            # the whole campaign.
            if (i + 1) % read_interval == 0 and i + 1 < len(chunks):
                t0 = time.perf_counter()
                service.snapshot(gen.campaign_id)
                read_seconds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        service.snapshot(gen.campaign_id)
        final_read = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        state = service.campaign_state(gen.campaign_id)
        reads = np.asarray(read_seconds + [final_read])
        sections[backend] = {
            "claims": int(service.stats.claims_accepted),
            "reads": int(reads.size),
            "read_ms_mean": float(reads.mean() * 1e3),
            "read_ms_max": float(reads.max() * 1e3),
            "final_read_ms": final_read * 1e3,
            "wall_seconds": elapsed,
            "aggregator_refreshes": int(state.aggregator.refreshes),
            "aggregator_refresh_seconds": float(
                state.aggregator.refresh_seconds
            ),
            "snapshot_read_seconds": service.stats.snapshot_read_seconds,
        }
    streaming, full = sections["streaming"], sections["full"]
    return {
        "method": method,
        "claims": total_claims,
        "num_users": num_users,
        "num_objects": num_objects,
        "streaming": streaming,
        "full": full,
        "read_speedup_mean": (
            full["read_ms_mean"] / max(streaming["read_ms_mean"], 1e-9)
        ),
        "read_speedup_final": (
            full["final_read_ms"] / max(streaming["final_read_ms"], 1e-9)
        ),
        "streaming_vs_batch_rmse": streaming_agreement_rmse(
            method=method, seed=seed
        ),
    }


def _kill_one_host(service) -> None:
    """SIGKILL the first shard-host subprocess and reap it."""
    victim = service.worker_pool.handles[0]
    os.kill(victim.process.pid, signal.SIGKILL)
    victim.process.join(10.0)


def _bench_durable_ack(
    *,
    total_claims: int,
    users_per_campaign: int,
    objects_per_campaign: int,
    num_shards: int,
    max_batch: int,
    chunk_size: int,
    seed: int,
    method: str,
    trace_output=None,
    metrics_server=None,
) -> dict:
    """Small WAL-attached run: append-to-durable-ack latency percentiles.

    Runs the bulk path with a ``fsync=batch`` write-ahead log into a
    throwaway directory and reads the per-group commit latency
    percentiles from the ``repro_wal_commit_seconds{fsync=batch}``
    histogram the telemetry layer drains from the WAL — the same
    series a live scrape sees, exercised end to end.  With
    ``trace_output`` set the run samples submission traces, which here
    carry all five stage timestamps including the real durable-ack
    stamp, and dumps them as a JSON artifact.
    """
    from repro.durable.manager import DurabilityConfig, DurabilityManager

    tmp = Path(tempfile.mkdtemp(prefix="repro-service-bench-wal-"))
    try:
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp / "wal", fsync="batch")
        )
        # Bulk traffic is chunk-granular — one "submission" per column
        # chunk, so only a handful per run; sample 1-in-2 so the
        # artifact actually carries traces.
        config = ServiceConfig(
            num_shards=num_shards,
            max_batch=max_batch,
            trace_sample_every=2 if trace_output is not None else 0,
        )
        service = IngestService(
            config, topology=Topology.in_process(durability=manager)
        )
        if metrics_server is not None:
            metrics_server.set_provider(service.metrics_snapshot)
        gen = LoadGenerator(
            "durable-ack-c0",
            num_users=users_per_campaign,
            num_objects=objects_per_campaign,
            random_state=seed,
        )
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=users_per_campaign,
            user_ids=gen.user_ids,
            method=method,
        )
        chunks = list(gen.column_chunks(total_claims, chunk_size=chunk_size))
        start = time.perf_counter()
        for i, chunk in enumerate(chunks):
            service.submit_columns(
                chunk.campaign_id, chunk.user_slots, chunk.object_slots,
                chunk.values,
            )
            if i % 8 == 7:
                service.pump()
        service.flush()
        manager.sync()
        elapsed = time.perf_counter() - start
        # One more pump after the final sync so the last committed
        # group is drained into the histogram and the durable-ack
        # watermark resolves any still-pending traces.
        service.pump()
        snapshot = service.metrics_snapshot()
        if trace_output is not None:
            service.telemetry.traces.dump(trace_output)
        if metrics_server is not None:
            metrics_server.freeze()
        p50 = snapshot.histogram_percentile(
            "repro_wal_commit_seconds", 50, fsync="batch"
        )
        p99 = snapshot.histogram_percentile(
            "repro_wal_commit_seconds", 99, fsync="batch"
        )
        accepted = service.stats.claims_accepted
        metrics = {
            "claims": int(accepted),
            "seconds": elapsed,
            "claims_per_sec": accepted / max(elapsed, 1e-9),
            "fsync": "batch",
            "commit_groups": int(service.stats.wal_commit_groups),
            "durable_ack_p50_ms": (p50 or 0.0) * 1e3,
            "durable_ack_p99_ms": (p99 or 0.0) * 1e3,
        }
        if trace_output is not None:
            metrics["traces_sampled"] = len(service.telemetry.traces)
            metrics["trace_output"] = str(trace_output)
        service.close()
        manager.close()
        return metrics
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _bench_replication(
    *,
    total_claims: int,
    users_per_campaign: int,
    objects_per_campaign: int,
    num_shards: int,
    max_batch: int,
    chunk_size: int,
    seed: int,
    method: str,
    replicas: int,
    sync: str = "async",
    num_reads: int = 32,
    metrics_server=None,
) -> dict:
    """WAL-shipping replication: read fan-out, lag, promotion check.

    Runs the bulk path on a primary whose WAL ships to ``replicas``
    warm standbys (``repro standby`` subprocesses via
    ``Topology.replicated``), then measures the read paths against
    each other: primary snapshot reads pay a ``durability.sync()``
    fsync each, replica reads are served from the standby's
    continuously replayed aggregators over one RPC.  After the read
    section the first standby is promoted and its truths and spent
    privacy budget are checked bitwise against the primary's at the
    replicated watermark — the same invariant the CI kill-test asserts
    across a real SIGKILL.
    """
    import time as _time

    from repro.durable.manager import DurabilityConfig, DurabilityManager

    tmp = Path(tempfile.mkdtemp(prefix="repro-service-bench-repl-"))
    service = None
    try:
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp / "wal", fsync="batch")
        )
        config = ServiceConfig(num_shards=num_shards, max_batch=max_batch)
        service = IngestService(
            config,
            ledger=BudgetLedger(epsilon_cap=1e9),
            topology=Topology.replicated(
                standbys=replicas, durability=manager, sync=sync
            ),
        )
        if metrics_server is not None:
            metrics_server.set_provider(service.metrics_snapshot)
        gen = LoadGenerator(
            "repl-c0",
            num_users=users_per_campaign,
            num_objects=objects_per_campaign,
            random_state=seed,
        )
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=users_per_campaign,
            user_ids=gen.user_ids,
            method=method,
            cost=LDPGuarantee(epsilon=1e-6, delta=0.0),
        )
        chunks = list(gen.column_chunks(total_claims, chunk_size=chunk_size))
        start = time.perf_counter()
        for i, chunk in enumerate(chunks):
            service.submit_columns(
                chunk.campaign_id, chunk.user_slots, chunk.object_slots,
                chunk.values,
            )
            if i % 8 == 7:
                service.pump()
        service.flush()
        manager.sync()
        ingest_elapsed = time.perf_counter() - start

        sender = service.replication

        def _await_acks() -> int:
            lsn = manager.wal.durable_lsn
            deadline = _time.monotonic() + 120.0
            while sender.min_ack_lsn() < lsn:
                if _time.monotonic() > deadline:
                    raise RuntimeError(
                        f"standbys did not reach LSN {lsn} within 120 s "
                        f"(acked {sender.min_ack_lsn()})"
                    )
                _time.sleep(0.02)
            return lsn

        t0 = _time.monotonic()
        _await_acks()
        catchup_seconds = _time.monotonic() - t0

        clients = [h.client() for h in service.standbys.handles]
        try:
            # Dirty-read throughput: every read races a fresh write —
            # the scenario read replicas exist for.  A primary snapshot
            # must force the tail batch into the log and block on the
            # durable-ack watermark (write + fsync per read); a replica
            # read is one RPC against the standby's continuously
            # replayed aggregators and never touches the primary's log.
            # The write between reads is identical in both phases, and
            # only the read call itself is on the clock.
            read_chunks = list(
                gen.column_chunks(2 * num_reads * 64, chunk_size=64)
            )
            primary_read_seconds = 0.0
            for chunk in read_chunks[:num_reads]:
                service.submit_columns(
                    chunk.campaign_id, chunk.user_slots,
                    chunk.object_slots, chunk.values,
                )
                t0 = time.perf_counter()
                service.snapshot(gen.campaign_id)
                primary_read_seconds += time.perf_counter() - t0
            replica_read_seconds = 0.0
            for i, chunk in enumerate(read_chunks[num_reads:]):
                service.submit_columns(
                    chunk.campaign_id, chunk.user_slots,
                    chunk.object_slots, chunk.values,
                )
                t0 = time.perf_counter()
                clients[i % len(clients)].snapshot(gen.campaign_id)
                replica_read_seconds += time.perf_counter() - t0

            # Quiesce, then check every replica serves the primary's
            # truths bit for bit once the stream is fully applied.
            service.flush()
            manager.sync()
            watermark = _await_acks()
            primary_snap = service.snapshot(gen.campaign_id)
            replica_snaps = []
            for client in clients:
                deadline = _time.monotonic() + 30.0
                while True:
                    snap = client.snapshot(gen.campaign_id)
                    # Acks precede apply; give the standby a beat to
                    # fold the last shipped group into its aggregators.
                    if (
                        snap.claims_ingested >= primary_snap.claims_ingested
                        or _time.monotonic() > deadline
                    ):
                        break
                    _time.sleep(0.02)
                replica_snaps.append(snap)
            replica_match = all(
                np.array_equal(
                    np.asarray(snap.truths, dtype=np.float64),
                    np.asarray(primary_snap.truths, dtype=np.float64),
                )
                for snap in replica_snaps
            )
            stats = sender.stats()
            ship_lats = np.asarray(
                [v for link in sender.links for v in list(link.ship_latencies)]
            )
            if metrics_server is not None:
                metrics_server.freeze()

            # Promotion: stop shipping, promote standby 0, and compare
            # its state against the primary's at the watermark.
            ledger_records = (
                service.ledger.to_records()
                if service.ledger is not None
                else None
            )
            sender.close()
            promoter = clients[0]
            promote_report = promoter.promote()
            promoted_snap = promoter.snapshot(gen.campaign_id)
            promoted_status = promoter.status()
            promotion_match = bool(
                np.array_equal(
                    np.asarray(promoted_snap.truths, dtype=np.float64),
                    np.asarray(primary_snap.truths, dtype=np.float64),
                )
            )
            budget_match = bool(
                ledger_records is None
                or ledger_key(promoted_status["ledger"]["records"])
                == ledger_key(ledger_records)
            )
        finally:
            for client in clients:
                client.close()

        primary_rate = num_reads / max(primary_read_seconds, 1e-9)
        replica_rate = num_reads / max(replica_read_seconds, 1e-9)
        return {
            "replicas": replicas,
            "sync": sync,
            "claims": int(service.stats.claims_accepted),
            "ingest_seconds": ingest_elapsed,
            "claims_per_sec": (
                service.stats.claims_accepted / max(ingest_elapsed, 1e-9)
            ),
            "watermark_lsn": int(watermark),
            "catchup_seconds": catchup_seconds,
            "reads": num_reads,
            "primary_reads_per_sec": primary_rate,
            "replica_reads_per_sec": replica_rate,
            "read_fanout_vs_primary": replica_rate / max(primary_rate, 1e-9),
            "replica_truths_match_bitwise": bool(replica_match),
            "promotion_truths_match_bitwise": promotion_match,
            "budget_spent_matches": budget_match,
            "promotion_seconds": promote_report["seconds"],
            "promoted_records_applied": promote_report["records_applied"],
            "records_shipped": sum(
                s["records_shipped"] for s in stats["standbys"]
            ),
            "bytes_shipped": sum(
                s["bytes_shipped"] for s in stats["standbys"]
            ),
            "reconnects": sum(s["reconnects"] for s in stats["standbys"]),
            "semi_sync_timeouts": stats["semi_sync_timeouts"],
            "ship_p50_ms": _percentile_ms(ship_lats, 50),
            "ship_p99_ms": _percentile_ms(ship_lats, 99),
        }
    finally:
        if service is not None:
            service.close()
        # Standby dirs default to <primary>.standby<i>, siblings of
        # tmp/wal — still inside tmp, so one rmtree gets everything.
        shutil.rmtree(tmp, ignore_errors=True)


def run_service_bench(
    *,
    total_claims: int = 400_000,
    submission_claims: int = 80_000,
    baseline_claims: int = 20_000,
    num_shards: int = 4,
    num_campaigns: int = 8,
    users_per_campaign: int = 200,
    objects_per_campaign: int = 48,
    claims_per_submission: int = 8,
    max_batch: int = 2048,
    chunk_size: int = 2048,
    seed: int = 2020,
    method: str = "crh",
    read_methods: tuple = ("crh", "gtm", "catd"),
    read_claims: int = 1_000_000,
    num_reads: int = 16,
    workers: int = 0,
    hosts: int = 0,
    replicas: int = 0,
    replication_sync: str = "async",
    start_method: str = "spawn",
    smoke: bool = False,
    metrics_port=None,
    trace_output=None,
) -> dict:
    """Run all measured paths and return a JSON-serialisable summary.

    ``method`` is the truth-discovery method the bulk and submission
    campaigns run (any streaming-capable method: CRH, GTM, or CATD).
    ``workers > 0`` adds a multi-process bulk run over the *same*
    chunk sequence next to the in-process one, plus a bitwise
    truth-agreement check between the two.  ``hosts > 0`` adds two
    more runs over the socket shard fabric: a clean one (bitwise
    check against the in-process truths) and a failover one in which
    a shard host is SIGKILLed at the halfway chunk — reporting the
    supervisor's measured recovery time and whether the recovered
    truths still match bit for bit.  ``replicas > 0`` adds the
    WAL-shipping replication section (:func:`_bench_replication`):
    replica-read fan-out vs primary reads, replication lag, and a
    promotion bitwise check.  ``read_methods`` selects
    the per-method streaming-vs-full-refit read benchmarks
    (:func:`bench_method_reads`, ``read_claims`` claims each).
    ``smoke`` shrinks every workload to a few thousand claims so CI
    can exercise the full code path (including the worker spawn path)
    in seconds.

    ``metrics_port`` starts a live :class:`~repro.obs.MetricsServer`
    on ``127.0.0.1`` for the whole benchmark — each measured service
    becomes its provider while it runs, and a frozen snapshot of the
    last one serves the gaps in between, so an external scraper (CI's
    mid-run check, ``repro top``) always gets an answer.
    ``trace_output`` dumps sampled submission traces (with real
    durable-ack timestamps, from the WAL-attached run) as JSON.

    Two observability sections ride along: ``obs_overhead`` re-runs
    the bulk path with telemetry disabled and reports the throughput
    delta, and ``durable`` measures append-to-durable-ack commit
    percentiles off the scraped histogram itself.
    """
    if method not in STREAMING_ESTIMATORS:
        raise ValueError(
            f"method must be streaming-capable "
            f"({sorted(STREAMING_ESTIMATORS)}), got {method!r}"
        )
    if smoke:
        total_claims = min(total_claims, 24_000)
        submission_claims = min(submission_claims, 8_000)
        baseline_claims = min(baseline_claims, 4_000)
        read_claims = min(read_claims, 30_000)
        num_reads = min(num_reads, 4)
    durable_claims = min(total_claims // 2, 60_000)
    metrics_server = None
    if metrics_port is not None:
        from repro.obs.exposition import MetricsServer

        metrics_server = MetricsServer(port=metrics_port)
    try:
        return _run_service_bench(
            total_claims=total_claims,
            submission_claims=submission_claims,
            baseline_claims=baseline_claims,
            num_shards=num_shards,
            num_campaigns=num_campaigns,
            users_per_campaign=users_per_campaign,
            objects_per_campaign=objects_per_campaign,
            claims_per_submission=claims_per_submission,
            max_batch=max_batch,
            chunk_size=chunk_size,
            seed=seed,
            method=method,
            read_methods=read_methods,
            read_claims=read_claims,
            num_reads=num_reads,
            workers=workers,
            hosts=hosts,
            replicas=replicas,
            replication_sync=replication_sync,
            start_method=start_method,
            smoke=smoke,
            durable_claims=durable_claims,
            trace_output=trace_output,
            metrics_server=metrics_server,
        )
    finally:
        if metrics_server is not None:
            metrics_server.close()


def _run_service_bench(
    *,
    total_claims,
    submission_claims,
    baseline_claims,
    num_shards,
    num_campaigns,
    users_per_campaign,
    objects_per_campaign,
    claims_per_submission,
    max_batch,
    chunk_size,
    seed,
    method,
    read_methods,
    read_claims,
    num_reads,
    workers,
    hosts,
    replicas,
    replication_sync,
    start_method,
    smoke,
    durable_claims,
    trace_output,
    metrics_server,
) -> dict:
    bulk, bulk_truths = _bench_bulk(
        total_claims=total_claims,
        num_campaigns=num_campaigns,
        users_per_campaign=users_per_campaign,
        objects_per_campaign=objects_per_campaign,
        num_shards=num_shards,
        max_batch=max_batch,
        chunk_size=chunk_size,
        seed=seed,
        method=method,
        metrics_server=metrics_server,
    )
    # Instrumentation overhead: interleaved obs-on/obs-off pairs, best
    # rate of each.  Single runs are tens of milliseconds, so run-to-
    # run scheduler noise dwarfs the real cost; best-of-N on both
    # sides measures the achievable rate each way.
    overhead_reps = 2
    enabled_rates = [bulk["claims_per_sec"]]
    disabled_rates = []
    for _ in range(overhead_reps):
        overhead_kwargs = dict(
            total_claims=total_claims,
            num_campaigns=num_campaigns,
            users_per_campaign=users_per_campaign,
            objects_per_campaign=objects_per_campaign,
            num_shards=num_shards,
            max_batch=max_batch,
            chunk_size=chunk_size,
            seed=seed,
            method=method,
        )
        disabled, _ = _bench_bulk(obs=False, **overhead_kwargs)
        disabled_rates.append(disabled["claims_per_sec"])
        enabled, _ = _bench_bulk(**overhead_kwargs)
        enabled_rates.append(enabled["claims_per_sec"])
    obs_overhead = {
        "claims_per_sec_enabled": max(enabled_rates),
        "claims_per_sec_disabled": max(disabled_rates),
        "overhead_fraction": 1.0
        - max(enabled_rates) / max(max(disabled_rates), 1e-9),
        "reps": overhead_reps,
    }
    bulk_workers = None
    workers_match = None
    if workers > 0:
        bulk_workers, worker_truths = _bench_bulk(
            total_claims=total_claims,
            num_campaigns=num_campaigns,
            users_per_campaign=users_per_campaign,
            objects_per_campaign=objects_per_campaign,
            num_shards=num_shards,
            max_batch=max_batch,
            chunk_size=chunk_size,
            seed=seed,
            method=method,
            workers=workers,
            start_method=start_method,
            metrics_server=metrics_server,
        )
        workers_match = all(
            np.array_equal(bulk_truths[cid], worker_truths[cid])
            for cid in bulk_truths
        )
    bulk_hosts = None
    hosts_match = None
    failover = None
    if hosts > 0:
        bulk_hosts, hosts_truths = _bench_bulk(
            total_claims=total_claims,
            num_campaigns=num_campaigns,
            users_per_campaign=users_per_campaign,
            objects_per_campaign=objects_per_campaign,
            num_shards=num_shards,
            max_batch=max_batch,
            chunk_size=chunk_size,
            seed=seed,
            method=method,
            hosts=hosts,
            metrics_server=metrics_server,
        )
        hosts_match = all(
            np.array_equal(bulk_truths[cid], hosts_truths[cid])
            for cid in bulk_truths
        )
        failover_metrics, failover_truths = _bench_bulk(
            total_claims=total_claims,
            num_campaigns=num_campaigns,
            users_per_campaign=users_per_campaign,
            objects_per_campaign=objects_per_campaign,
            num_shards=num_shards,
            max_batch=max_batch,
            chunk_size=chunk_size,
            seed=seed,
            method=method,
            hosts=hosts,
            midstream=_kill_one_host,
        )
        supervision = failover_metrics["supervision"]
        failover = {
            "restarts": supervision["restarts"],
            "recovery_seconds": supervision["last_failover_seconds"],
            "truths_match_bitwise": bool(
                all(
                    np.array_equal(bulk_truths[cid], failover_truths[cid])
                    for cid in bulk_truths
                )
            ),
            "claims_per_sec": failover_metrics["claims_per_sec"],
        }
    replication = None
    if replicas > 0:
        replication = _bench_replication(
            total_claims=durable_claims,
            users_per_campaign=users_per_campaign,
            objects_per_campaign=objects_per_campaign,
            num_shards=num_shards,
            max_batch=max_batch,
            chunk_size=chunk_size,
            seed=seed,
            method=method,
            replicas=replicas,
            sync=replication_sync,
            metrics_server=metrics_server,
        )
    submissions = _bench_submissions(
        total_claims=submission_claims,
        users_per_campaign=users_per_campaign,
        objects_per_campaign=objects_per_campaign,
        claims_per_submission=claims_per_submission,
        num_shards=num_shards,
        max_batch=max_batch,
        seed=seed,
        method=method,
    )
    baseline = _bench_baseline(
        total_claims=baseline_claims,
        users_per_campaign=users_per_campaign,
        objects_per_campaign=objects_per_campaign,
        claims_per_submission=claims_per_submission,
        seed=seed,
    )
    durable = _bench_durable_ack(
        total_claims=durable_claims,
        users_per_campaign=users_per_campaign,
        objects_per_campaign=objects_per_campaign,
        num_shards=num_shards,
        max_batch=max_batch,
        chunk_size=chunk_size,
        seed=seed,
        method=method,
        trace_output=trace_output,
        metrics_server=metrics_server,
    )
    methods = {
        m: bench_method_reads(
            method=m,
            total_claims=read_claims,
            num_reads=num_reads,
            max_batch=max_batch,
            chunk_size=chunk_size,
            seed=seed,
        )
        for m in read_methods
    }
    # The per-method section already ran the dense agreement check for
    # every read method; only recompute when the bench method was
    # excluded from read_methods.
    if method in methods:
        rmse = methods[method]["streaming_vs_batch_rmse"]
    else:
        rmse = streaming_agreement_rmse(method=method, seed=seed)
    report = {
        "config": {
            "total_claims": total_claims,
            "submission_claims": submission_claims,
            "baseline_claims": baseline_claims,
            "num_shards": num_shards,
            "num_campaigns": num_campaigns,
            "users_per_campaign": users_per_campaign,
            "objects_per_campaign": objects_per_campaign,
            "claims_per_submission": claims_per_submission,
            "max_batch": max_batch,
            "chunk_size": chunk_size,
            "seed": seed,
            "method": method,
            "read_methods": list(read_methods),
            "read_claims": read_claims,
            "num_reads": num_reads,
            "workers": workers,
            "hosts": hosts,
            "replicas": replicas,
            "smoke": smoke,
        },
        "bulk": bulk,
        "submissions": submissions,
        "baseline": baseline,
        "speedup_bulk_vs_baseline": (
            bulk["claims_per_sec"] / max(baseline["claims_per_sec"], 1e-9)
        ),
        "speedup_submissions_vs_baseline": (
            submissions["claims_per_sec"]
            / max(baseline["claims_per_sec"], 1e-9)
        ),
        "streaming_vs_batch_rmse": rmse,
        "methods": methods,
        "obs_overhead": obs_overhead,
        "durable": durable,
    }
    if metrics_server is not None:
        report["metrics_url"] = metrics_server.url
    if bulk_workers is not None:
        report["bulk_workers"] = bulk_workers
        report["speedup_workers_vs_single"] = bulk_workers[
            "claims_per_sec"
        ] / max(bulk["claims_per_sec"], 1e-9)
        report["workers_truths_match_bitwise"] = bool(workers_match)
    if bulk_hosts is not None:
        report["bulk_hosts"] = bulk_hosts
        report["speedup_hosts_vs_single"] = bulk_hosts[
            "claims_per_sec"
        ] / max(bulk["claims_per_sec"], 1e-9)
        report["hosts_truths_match_bitwise"] = bool(hosts_match)
        report["failover"] = failover
    if replication is not None:
        report["replication"] = replication
    if bulk_workers is not None or bulk_hosts is not None:
        # Extra processes can only beat the single process when the
        # hardware can actually run them in parallel; record what was
        # available so readers can judge the speedup numbers.
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-POSIX
            cpus = os.cpu_count() or 1
        report["available_cpus"] = cpus
    return report


def format_summary(report: dict) -> str:
    """Human-readable rendering of :func:`run_service_bench` output."""
    lines = [
        "service ingestion benchmark",
        "---------------------------",
        (
            f"bulk path:        {report['bulk']['claims_per_sec']:>12,.0f}"
            f" claims/s  ({report['bulk']['claims']:,} claims, "
            f"{report['bulk']['batches']} batches)"
        ),
        (
            f"submission path:  "
            f"{report['submissions']['claims_per_sec']:>12,.0f}"
            f" claims/s  ({report['submissions']['claims']:,} claims)"
        ),
    ]
    if "bulk_workers" in report:
        bw = report["bulk_workers"]
        lines.append(
            f"bulk, {bw['workers']} workers: "
            f"{bw['claims_per_sec']:>12,.0f}"
            f" claims/s  ({report['speedup_workers_vs_single']:.2f}x "
            f"single-process, truths bitwise "
            f"{'equal' if report['workers_truths_match_bitwise'] else 'DIFFER'})"
        )
    if "bulk_hosts" in report:
        bh = report["bulk_hosts"]
        fo = report["failover"]
        lines += [
            (
                f"bulk, {bh['hosts']} hosts:   "
                f"{bh['claims_per_sec']:>12,.0f}"
                f" claims/s  ({report['speedup_hosts_vs_single']:.2f}x "
                f"single-process, truths bitwise "
                f"{'equal' if report['hosts_truths_match_bitwise'] else 'DIFFER'})"
            ),
            (
                f"failover:         recovered in "
                f"{fo['recovery_seconds']:.2f} s "
                f"({fo['restarts']} restart(s), truths bitwise "
                f"{'equal' if fo['truths_match_bitwise'] else 'DIFFER'})"
            ),
        ]
    lines += [
        (
            f"baseline server:  {report['baseline']['claims_per_sec']:>12,.0f}"
            f" claims/s  ({report['baseline']['claims']:,} claims)"
        ),
        (
            f"speedup:          "
            f"{report['speedup_bulk_vs_baseline']:.1f}x bulk, "
            f"{report['speedup_submissions_vs_baseline']:.1f}x submissions"
        ),
        (
            f"batch latency:    "
            f"p50 {report['bulk']['batch_latency_p50_ms']:.3f} ms, "
            f"p99 {report['bulk']['batch_latency_p99_ms']:.3f} ms"
        ),
        (
            f"streaming vs batch {report['config'].get('method', 'crh')} "
            f"RMSE: {report['streaming_vs_batch_rmse']:.2e}"
        ),
    ]
    if "batch_flush_p99_ms" in report["bulk"]:
        lines.append(
            f"flush histogram:  "
            f"p50 {report['bulk']['batch_flush_p50_ms']:.3f} ms, "
            f"p99 {report['bulk']['batch_flush_p99_ms']:.3f} ms "
            f"(from repro_batch_flush_seconds)"
        )
    if "obs_overhead" in report:
        oo = report["obs_overhead"]
        lines.append(
            f"obs overhead:     "
            f"{oo['overhead_fraction']:+.1%} claims/s "
            f"({oo['claims_per_sec_enabled']:,.0f} on vs "
            f"{oo['claims_per_sec_disabled']:,.0f} off)"
        )
    if "durable" in report:
        d = report["durable"]
        lines.append(
            f"durable ack:      "
            f"p50 {d['durable_ack_p50_ms']:.2f} ms, "
            f"p99 {d['durable_ack_p99_ms']:.2f} ms "
            f"(fsync={d['fsync']}, {d['commit_groups']} groups)"
        )
    if "replication" in report:
        rp = report["replication"]
        lines += [
            (
                f"replication ({rp['replicas']} standby(s), "
                f"{rp['sync']}): "
                f"{rp['claims_per_sec']:>12,.0f} claims/s ingest, "
                f"ship p99 {rp['ship_p99_ms']:.2f} ms"
            ),
            (
                f"replica reads:    "
                f"{rp['replica_reads_per_sec']:>12,.0f} reads/s vs "
                f"{rp['primary_reads_per_sec']:,.0f} on the primary "
                f"({rp['read_fanout_vs_primary']:.2f}x, truths bitwise "
                f"{'equal' if rp['replica_truths_match_bitwise'] else 'DIFFER'})"
            ),
            (
                f"promotion:        {rp['promotion_seconds']:.3f} s to "
                f"LSN {rp['watermark_lsn']} (truths bitwise "
                f"{'equal' if rp['promotion_truths_match_bitwise'] else 'DIFFER'}, "
                f"budget "
                f"{'preserved' if rp['budget_spent_matches'] else 'LOST'})"
            ),
        ]
    if "metrics_url" in report:
        lines.append(f"metrics endpoint: {report['metrics_url']}")
    for name, section in report.get("methods", {}).items():
        lines += [
            "",
            (
                f"read path [{name}], {section['claims']:,} claims, "
                f"{section['streaming']['reads']} reads:"
            ),
            (
                f"  streaming: mean {section['streaming']['read_ms_mean']:.3f} ms, "
                f"final {section['streaming']['final_read_ms']:.3f} ms"
            ),
            (
                f"  full refit: mean {section['full']['read_ms_mean']:.3f} ms, "
                f"final {section['full']['final_read_ms']:.3f} ms"
            ),
            (
                f"  speedup: {section['read_speedup_mean']:.1f}x mean, "
                f"{section['read_speedup_final']:.1f}x final; "
                f"streaming vs batch RMSE "
                f"{section['streaming_vs_batch_rmse']:.2e}"
            ),
        ]
    return "\n".join(lines)
