"""Columnar CHARGE records: the body, v2 replay, and when charges land.

Charges are buffered under the ledger lock and written as one record
before any batch, at every group commit and inside checkpoints.  The
costs here are not powers of two, so a charge lost or replayed twice
changes a spent total's bits, and ledgers are compared exactly.
"""

import os
import sys
import threading
import time

import pytest

from repro.crowdsensing.messages import ClaimSubmission
from repro.durable import (
    DurabilityConfig,
    DurabilityManager,
    RecoveryManager,
)
from repro.durable import records as rec
from repro.durable.oracle import ledger_key, replay_primary_prefix
from repro.durable.wal import WriteAheadLog, read_wal
from repro.privacy.ldp import LDPGuarantee
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.topology import Topology

COST = LDPGuarantee(epsilon=0.01, delta=1e-9)
OBJECTS = tuple(f"o{j}" for j in range(6))


def durable_service(directory, *, fsync="batch", max_users=64, **config):
    manager = DurabilityManager(
        DurabilityConfig(directory=directory, fsync=fsync, **config)
    )
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=32),
        topology=Topology.in_process(durability=manager),
        ledger=BudgetLedger(epsilon_cap=1e9),
    )
    service.register_campaign(
        "c0", OBJECTS, max_users=max_users, aggregator="streaming",
        cost=COST,
    )
    return service, manager


def sub(user, k=0):
    return ClaimSubmission(
        campaign_id="c0",
        user_id=user,
        object_ids=OBJECTS[:3],
        values=(0.5 + k, 1.5, -2.0),
    )


def charge_records(directory):
    return [
        r for r in read_wal(directory).records if r.rtype == rec.CHARGE
    ]


class TestChargeBody:
    def test_round_trip_keeps_order_and_exact_floats(self):
        charges = [
            ("u1", 0.01, 1e-9, "c0"),
            ("u2", 0.1 + 0.2, 0.0, "c1"),
            ("u1", 0.01, 1e-9, "c0"),
            (7, 0.3, 0.0, "c1"),
        ]
        body = rec.WalRecord(
            lsn=1, rtype=rec.CHARGE, payload=rec.encode_charges(charges)
        ).decode()
        assert len(body["costs"]) == 3
        assert rec.decode_charges(body) == charges

    def test_a_shared_cost_is_written_once(self):
        charges = [(f"u{i}", 0.01, 0.0, "c0") for i in range(5)]
        body = rec.WalRecord(
            lsn=1, rtype=rec.CHARGE, payload=rec.encode_charges(charges)
        ).decode()
        assert body["costs"] == [[0.01, 0.0, "c0"]]
        assert rec.decode_charges(body) == charges

    def test_v2_body_decodes_to_one_charge(self):
        body = {"user_id": "u1", "epsilon": 0.5, "delta": 0.0,
                "label": "c0"}
        assert rec.decode_charges(body) == [("u1", 0.5, 0.0, "c0")]

    @pytest.mark.parametrize(
        "body",
        [
            {"users": ["u1"], "costs": [[0.1, 0.0, ""]]},
            {"users": ["u1"], "costs": [], "cost": [0]},
            {"users": ["u1", "u2"], "costs": [[0.1, 0.0, ""]] * 2,
             "cost": [0]},
            {"users": ["u1"], "costs": [[0.1, 0.0]], "cost": [0]},
            {"user_id": "u1"},
        ],
        ids=["no-cost-column", "no-costs", "short-cost-column",
             "cost-without-label", "v2-missing-epsilon"],
    )
    def test_malformed_body_is_a_record_error(self, body):
        with pytest.raises(rec.RecordError):
            rec.decode_charges(body)


class TestV2LogsRecover:
    def test_per_submission_v2_charges_recover_to_the_same_ledger(
        self, tmp_path
    ):
        service, manager = durable_service(tmp_path)
        service.close()
        manager.close()
        reference = BudgetLedger(epsilon_cap=1e9)
        wal = WriteAheadLog(tmp_path, start_lsn=manager.last_lsn + 1)
        for i in range(40):
            user = f"user{i % 7}"
            cost = LDPGuarantee(epsilon=0.01 * (1 + i % 3), delta=1e-9)
            assert reference.admit(user, cost, label="c0").admitted
            wal.append(
                rec.CHARGE,
                rec.encode_json_payload(
                    {
                        "user_id": user,
                        "epsilon": cost.epsilon,
                        "delta": cost.delta,
                        "label": "c0",
                    }
                ),
            )
        # A v3 body after the v2 ones: one log holding both.
        v3 = [(f"user{i}", COST.epsilon, COST.delta, "c0") for i in range(9)]
        for user, *_ in v3:
            assert reference.admit(user, COST, label="c0").admitted
        wal.append(rec.CHARGE, rec.encode_charges(v3))
        wal.close()
        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.report.checkpoint_lsn == 0
        assert recovered.report.charges_replayed == 49
        assert recovered.service.ledger.to_records() == reference.to_records()
        recovered.service.close()


class TestWritePoints:
    def test_one_record_per_pump_written_before_its_batches(self, tmp_path):
        service, manager = durable_service(tmp_path)
        for i in range(24):
            assert service.submit(sub(f"user{i % 9}", i)).ok
        assert manager.charges_logged == 24
        assert charge_records(tmp_path) == []  # buffered until the pump
        service.pump()
        records = read_wal(tmp_path).records
        charges = [r for r in records if r.rtype == rec.CHARGE]
        batches = [r for r in records if r.rtype == rec.BATCH]
        assert len(charges) == 1 and batches
        assert len(rec.decode_charges(charges[0].decode())) == 24
        assert charges[0].lsn < batches[0].lsn
        service.close()
        manager.close()

    def test_always_fsync_charge_is_logged_before_submit_returns(
        self, tmp_path
    ):
        service, manager = durable_service(tmp_path, fsync="always")
        assert service.submit(sub("user1")).ok
        records = charge_records(tmp_path)
        assert [rec.decode_charges(r.decode()) for r in records] == [
            [("user1", COST.epsilon, COST.delta, "c0")]
        ]
        service.close()
        manager.close()

    def test_checkpoint_while_buffered_neither_loses_nor_double_counts(
        self, tmp_path
    ):
        service, manager = durable_service(tmp_path)
        ledger = service.ledger
        for i in range(30):
            assert service.submit(sub(f"user{i % 11}", i)).ok
        service.pump()
        for i in range(17):  # admitted, charged, still buffered
            assert service.submit(sub(f"user{i % 5}", i)).ok
        manager.checkpoint()
        checkpoint_lsn = manager.checkpoints.load_latest().lsn
        assert all(r.lsn <= checkpoint_lsn for r in charge_records(tmp_path))
        for i in range(13):
            assert service.submit(sub(f"user{i % 13 + 3}", i)).ok
        service.pump()
        manager.sync()
        live = ledger.to_records()
        # Crash: nothing closed.  Recovery restores the checkpointed
        # ledger, then replays only the charges above it.
        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.report.charges_replayed == 13
        assert recovered.service.ledger.to_records() == live
        recovered.service.close()
        service.close()
        manager.close()


def test_concurrent_producers_pumps_and_checkpoints(tmp_path):
    """More producer threads than cores, a short switch interval, and
    pumps plus checkpoints running meanwhile: after recovery every
    admitted charge is counted exactly once."""
    producers = 2 * (os.cpu_count() or 1) + 2
    deadline = time.monotonic() + 2.0
    service, manager = durable_service(
        tmp_path, max_users=5 * producers, checkpoint_every_claims=96
    )
    ledger = service.ledger
    admitted = [dict() for _ in range(producers)]
    stop = threading.Event()
    errors = []

    def produce(p):
        try:
            k = 0
            while time.monotonic() < deadline:
                user = f"p{p}-u{k % 5}"
                if service.submit(sub(user, k)).ok:
                    admitted[p][user] = admitted[p].get(user, 0) + 1
                k += 1
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def pump_and_checkpoint():
        try:
            n = 0
            while not stop.is_set():
                service.pump()
                n += 1
                if n % 7 == 0:
                    manager.checkpoint()
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pumper = threading.Thread(target=pump_and_checkpoint)
        threads = [
            threading.Thread(target=produce, args=(p,))
            for p in range(producers)
        ]
        pumper.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "producer hung"
        stop.set()
        pumper.join(timeout=60)
        assert not pumper.is_alive(), "pump thread hung"
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not errors, errors
    service.pump()
    manager.sync()
    assert manager.checkpoints_written > 0
    counts = {u: n for per in admitted for u, n in per.items()}
    assert manager.charges_logged == sum(counts.values()) > 0
    live = ledger.to_records()
    for user, count in counts.items():
        expected = 0.0
        for _ in range(count):
            expected += COST.epsilon
        assert ledger.spent(user).epsilon == expected
    # The log alone, checkpoints ignored, holds each charge once...
    logged = [
        charge
        for record in charge_records(tmp_path)
        for charge in rec.decode_charges(record.decode())
    ]
    assert len(logged) == manager.charges_logged
    replayed = replay_primary_prefix(tmp_path, manager.last_lsn)
    assert ledger_key(replayed.ledger.to_records()) == ledger_key(live)
    replayed.close()
    # ...and so does checkpoint + suffix.
    recovered = RecoveryManager(tmp_path).recover()
    assert ledger_key(recovered.service.ledger.to_records()) == ledger_key(
        live
    )
    recovered.service.close()
    service.close()
    manager.close()
