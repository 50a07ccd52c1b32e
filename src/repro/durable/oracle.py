"""The independent WAL-replay oracle drills, benches and tests judge by.

:func:`replay_primary_prefix` rebuilds a (possibly dead) primary's
state straight off its log directory, through the same
:class:`~repro.durable.recovery.RecordApplier` recovery and standbys
use — an arbiter that shares no process with either side of a
replication stream.  :func:`ledger_key` is the order-free form in
which two ledgers' spent budgets are compared.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union


def replay_primary_prefix(directory: Union[str, Path], up_to_lsn: int):
    """A fresh in-process service holding every record up to
    ``up_to_lsn`` of the log in ``directory`` (checkpoints ignored)."""
    from repro.durable import records as rec
    from repro.durable.recovery import RecordApplier
    from repro.durable.wal import read_wal
    from repro.service.ingest import IngestService, ServiceConfig
    from repro.service.ledger import BudgetLedger

    service = None
    applier = None
    for record in read_wal(directory).records:
        if record.lsn > up_to_lsn:
            break
        if record.rtype == rec.CONFIG:
            if service is None:
                body = record.decode()
                caps = body.get("ledger")
                service = IngestService(
                    ServiceConfig(**body["service_config"]),
                    ledger=(
                        None
                        if caps is None
                        else BudgetLedger(
                            caps["epsilon_cap"],
                            delta_cap=caps["delta_cap"],
                        )
                    ),
                )
                applier = RecordApplier(service)
            continue
        applier.apply(record)
    if service is None:
        raise RuntimeError(f"no CONFIG record in {directory}")
    return service


def ledger_key(records) -> list:
    """Sorted ``(user_id, epsilon, delta)`` of ``BudgetLedger.to_records()``
    output: spent totals must match exactly, while record order is an
    insertion-order artifact (admission order on a primary, log order
    on a replay)."""
    return sorted(
        (r["user_id"], r["epsilon"], r["delta"]) for r in records
    )
