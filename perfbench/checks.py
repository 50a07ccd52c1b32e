"""After the clock: collect each workload's evidence, then gate on it.

:func:`finish` runs outside every clock.  It takes the final reads,
measures storage from the directory contents, closes the service
(stopping every host and standby it started), records peak RSS and
runs the offline oracles: crash recovery for ``device-durable``, an
in-process replay of the logged op sequence for ``bulk-fabric`` and
``read-mix``.  :func:`evaluate` turns the evidence into gate failures;
it is a pure function, so the self-test can corrupt evidence and
watch the gates trip.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

import numpy as np

from perfbench import workloads as wl
from repro.durable.recovery import RecoveryManager
from repro.replication.client import ReplicaReadClient


def peak_rss_kib(who) -> int:
    return resource.getrusage(who).ru_maxrss  # KiB on Linux


def service_counters(service) -> dict:
    """Cumulative layer counters the service keeps itself."""
    out = {}
    if service.ledger is not None:
        out["ledger.admitted"] = service.ledger.admitted
        out["ledger.denied"] = service.ledger.denied
    if service.durability is not None:
        wal = service.durability.wal
        out["durable.records"] = wal.records_written
        out["durable.charge_records"] = service.durability.charges_logged
        out["durable.fsyncs"] = wal.syncs
    pool = service.worker_pool
    supervisor = getattr(pool, "supervisor", None)
    if supervisor is not None:
        out["supervisor.restarts"] = supervisor.restarts
    if service.replication is not None:
        links = service.replication.stats()["standbys"]
        out["replication.bytes"] = sum(s["bytes_shipped"] for s in links)
        out["replication.groups"] = sum(s["groups_shipped"] for s in links)
        out["replication.reconnects"] = sum(s["reconnects"] for s in links)
    return out


def _standby_truths(service, primary: dict, claims: dict) -> dict:
    """Each campaign's truths read off the standby once it applied
    everything the primary aggregated."""
    truths = {}
    address = service.standbys.handles[0].address
    with ReplicaReadClient(address) as client:
        for cid in primary:
            deadline = time.monotonic() + 60.0
            while True:
                snap = client.snapshot(cid)
                if snap.claims_ingested >= claims[cid]:
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"standby never applied {cid} ({snap.claims_ingested}"
                        f" of {claims[cid]} claims)"
                    )
                time.sleep(0.01)
            truths[cid] = np.array(snap.truths, copy=True)
    return truths


def finish(run: wl.Run, directory: Path, *, oracles: bool = True) -> dict:
    """Final reads, storage, close, RSS and oracles; returns evidence.

    ``oracles=False`` skips the gates' expensive halves (used for the
    paired phases of a traced run, which are not gated).
    """
    service = run.service
    workload = run.workload
    evidence = {"refused": list(run.refused)}
    try:
        final = wl.final_truths(run)
        evidence["final"] = final
        # This process's peak so far: the after-run tools below
        # (compaction, recovery, replay) must not count toward it.
        own_rss = peak_rss_kib(resource.RUSAGE_SELF)
        if workload.ledger:
            evidence["spent_live"] = wl.spent_by_user(service.ledger)
        if workload.topology == "replicated" and oracles:
            durability = service.durability
            durability.sync()
            lsn = durability.wal.durable_lsn
            if not service.replication.wait_replicated(lsn, timeout=120.0):
                raise RuntimeError(f"standby did not ack lsn {lsn}")
            claims = {
                cid: service.campaign_state(cid).aggregator.claims_ingested
                for cid in final
            }
            evidence["standby"] = _standby_truths(service, final, claims)
        if workload.durable:
            wal_dir = service.durability.directory
            accepted = service.stats.claims_accepted
            evidence["wal_bytes_per_claim"] = (
                wl.wal_segment_bytes(wal_dir) / accepted
            )
            service.durability.compact()
            evidence["compacted_bytes_per_claim"] = (
                wl.directory_bytes(wal_dir) / accepted
            )
        evidence["counters"] = {
            key: value - run.counters_before.get(key, 0)
            for key, value in service_counters(service).items()
        }
    finally:
        service.close()
    # Children (hosts, standbys) count once they exited, at close().
    children_rss = peak_rss_kib(resource.RUSAGE_CHILDREN)
    evidence["peak_rss_mb"] = (own_rss + children_rss) / 1024.0
    if not oracles:
        return evidence
    if workload.durable and workload.ledger:
        recovered = RecoveryManager(directory / "wal").recover()
        try:
            recovered_service = recovered.service
            evidence["recovered"] = {
                cid: np.array(
                    recovered_service.snapshot(cid).truths, copy=True
                )
                for cid in final
            }
            evidence["spent_recovered"] = wl.spent_by_user(
                recovered.service.ledger
            )
        finally:
            recovered.service.close()
        evidence["spent_expected"] = wl.expected_spent(run)
    if not workload.durable:
        evidence["replayed"] = wl.replay(run)
    return evidence


# ----------------------------------------------------------------------
def _bitwise(label: str, expected: dict, actual: dict) -> list[str]:
    failures = []
    for cid, truths in expected.items():
        other = actual.get(cid)
        if other is None:
            failures.append(f"{label}: {cid} missing")
        elif not np.array_equal(
            np.asarray(truths, dtype=np.float64).view(np.uint64),
            np.asarray(other, dtype=np.float64).view(np.uint64),
        ):
            failures.append(f"{label}: {cid} truths differ")
    return failures


def _spent(label: str, expected: dict, actual: dict) -> list[str]:
    failures = []
    for user in sorted(set(expected) | set(actual)):
        if expected.get(user, 0.0) != actual.get(user, 0.0):
            failures.append(
                f"{label}: {user} spent {actual.get(user, 0.0)!r}, "
                f"expected {expected.get(user, 0.0)!r}"
            )
    return failures


def evaluate(workload: wl.Workload, evidence: dict) -> list[str]:
    """Every gate failure for one run (empty when all gates pass)."""
    failures = [
        f"refused call {k}: {reason}" for k, reason in evidence["refused"]
    ]
    final = evidence["final"]
    if workload.name == "device-durable":
        failures += _bitwise("recovery", final, evidence["recovered"])
        expected = evidence["spent_expected"]
        failures += _spent("live budget", expected, evidence["spent_live"])
        failures += _spent(
            "recovered budget", expected, evidence["spent_recovered"]
        )
    elif workload.name == "bulk-fabric":
        failures += _bitwise("in-process replay", final, evidence["replayed"])
    elif workload.name == "bulk-replicated":
        failures += _bitwise("standby", final, evidence["standby"])
    elif workload.name == "read-mix":
        if wl.digest(final) != wl.digest(evidence["replayed"]):
            failures.append("read-mix: truths digest differs from replay")
    return failures
