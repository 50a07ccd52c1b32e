"""The device path: submit() validation, and the pump's joined columns.

``submit()`` queues a device submission as ``(slot, object slots,
values)`` lists and ``Shard.pump`` joins each campaign's queued
submissions into one set of columns per pump.  The reference here adds
every submission to its own :class:`MicroBatcher` one at a time, the
way a per-item pump would; batches, truths, weights, contributor
counts and trace stamps must come out identical.
"""

import math
from collections import deque

import numpy as np
import pytest

from repro.crowdsensing.messages import ClaimSubmission
from repro.durable import DurabilityConfig
from repro.durable import records as rec
from repro.durable.wal import read_wal
from repro.service.aggregator import make_aggregator
from repro.service.batcher import MicroBatcher
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.topology import Topology


def sub(campaign="c1", user="u1", objects=("o0", "o1"), values=(1.0, 2.0)):
    return ClaimSubmission(
        campaign_id=campaign, user_id=user,
        object_ids=tuple(objects), values=tuple(values),
    )


@pytest.mark.parametrize(
    "bad",
    ["x", None, [1, 2], 10**400, math.nan, math.inf, -math.inf],
    ids=["str", "none", "list", "huge-int", "nan", "inf", "-inf"],
)
def test_unconvertible_value_is_a_counted_rejection(bad):
    service = IngestService(ServiceConfig(num_shards=1))
    service.register_campaign("c1", ("o0", "o1"), max_users=4)
    result = service.submit(sub(values=(1.0, bad)))
    assert (result.accepted, result.rejected, result.reason) == (
        0, 2, "invalid-value"
    )
    stats = service.stats
    assert stats.submissions == 1
    assert stats.rejected_invalid_value == 2
    assert stats.claims_accepted == 0
    assert service.queue_depths() == [0]


def test_boolean_values_are_accepted():
    service = IngestService(ServiceConfig(num_shards=1))
    service.register_campaign("c1", ("o0", "o1"), max_users=4)
    assert service.submit(sub(values=(True, False))).ok
    service.flush()
    assert service.campaign_state("c1").claims_accepted == 2


# ----------------------------------------------------------------------
# Coalesced pump vs a per-submission reference
MAX_BATCH = 16
NUM_OBJECTS = 10
MAX_USERS = 30
SAMPLE_EVERY = 7


def _traffic(seed, count):
    """Interleaved submissions over three campaigns; ``c2`` also gets a
    few bulk chunks, and only ``c0`` assigns user slots on first use."""
    rng = np.random.default_rng(seed)
    objects = tuple(f"o{j}" for j in range(NUM_OBJECTS))
    ops = []
    for i in range(count):
        c = int(rng.integers(0, 3))
        if c == 2 and i % 11 == 0:
            n = int(rng.integers(5, 40))
            ops.append((
                "bulk", "c2",
                rng.integers(0, MAX_USERS, size=n).astype(np.int64),
                rng.integers(0, NUM_OBJECTS, size=n).astype(np.int64),
                rng.normal(size=n),
            ))
            continue
        k = int(rng.integers(1, 9))
        picked = rng.choice(NUM_OBJECTS, size=k, replace=False)
        ops.append((
            "device",
            ClaimSubmission(
                campaign_id=f"c{c}",
                user_id=f"user{int(rng.integers(0, MAX_USERS))}",
                object_ids=tuple(objects[j] for j in picked),
                values=tuple(float(v) for v in rng.normal(size=k)),
            ),
        ))
    return objects, ops


class _Reference:
    """Per-submission model of the service: shard queues with
    drop-oldest eviction, and one MicroBatcher add per item."""

    def __init__(self, service, objects, registered_users):
        self.objects = {o: j for j, o in enumerate(objects)}
        self.capacity = service.config.queue_capacity
        self.shard_of = service.shard_of
        self.queues = [deque() for _ in range(service.num_shards)]
        self.users = {
            c: ({u: i for i, u in enumerate(table)} if table else {})
            for c, table in registered_users.items()
        }
        cfg = service.config
        self.batchers = {c: MicroBatcher(MAX_BATCH) for c in self.users}
        self.aggregators = {
            c: make_aggregator(
                MAX_USERS, len(objects), kind="streaming",
                decay=cfg.decay, refine_sweeps=cfg.refine_sweeps,
                refine_every=cfg.refine_every,
            )
            for c in self.users
        }
        self.batches = {c: [] for c in self.users}
        self.by_slot = {
            c: np.zeros(MAX_USERS, dtype=np.int64) for c in self.users
        }
        #: trace id -> (campaign, index of the batch holding its first
        #: claim), for submissions that reached the batcher.
        self.trace_batch = {}

    def submit(self, op, trace_id):
        if op[0] == "device":
            s = op[1]
            table = self.users[s.campaign_id]
            # Slots are assigned at submit time, evicted or not.
            slot = table.setdefault(s.user_id, len(table))
            n = len(s.values)
            item = (
                s.campaign_id,
                np.full(n, slot, dtype=np.int64),
                np.asarray([self.objects[o] for o in s.object_ids],
                           dtype=np.int64),
                np.asarray(s.values, dtype=float),
                trace_id,
            )
        else:
            _, cid, users, objs, values = op
            item = (cid, users, objs, values, trace_id)
        queue = self.queues[self.shard_of(item[0])]
        if len(queue) >= self.capacity:
            queue.popleft()
        queue.append(item)

    def pump(self):
        for queue in self.queues:
            while queue:
                cid, users, objs, values, trace_id = queue.popleft()
                if trace_id is not None:
                    self.trace_batch[trace_id] = (
                        cid, len(self.batches[cid])
                    )
                for batch in self.batchers[cid].add_columns(
                    users, objs, values
                ):
                    self._ingest(cid, batch)
                np.add.at(self.by_slot[cid], users, 1)

    def flush(self):
        self.pump()
        for cid, batcher in self.batchers.items():
            tail = batcher.flush()
            if tail is not None:
                self._ingest(cid, tail)
            self.aggregators[cid].refresh()

    def _ingest(self, cid, batch):
        self.batches[cid].append(batch)
        self.aggregators[cid].ingest(batch)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize(
    "overflow,queue_capacity,pump_every",
    [("reject", 4096, 13), ("drop_oldest", 9, 17)],
)
def test_joined_pump_matches_per_submission_reference(
    tmp_path, overflow, queue_capacity, pump_every
):
    objects, ops = _traffic(seed=3, count=600)
    service = IngestService(
        ServiceConfig(
            num_shards=2,
            max_batch=MAX_BATCH,
            queue_capacity=queue_capacity,
            overflow=overflow,
            refine_every=64,
            trace_sample_every=SAMPLE_EVERY,
        ),
        topology=Topology.in_process(
            durability=DurabilityConfig(directory=tmp_path)
        ),
    )
    registered = {
        "c0": None,
        "c1": [f"user{i}" for i in range(MAX_USERS)],
        "c2": [f"user{i}" for i in range(MAX_USERS)],
    }
    for cid, users in registered.items():
        service.register_campaign(
            cid, objects, max_users=MAX_USERS, user_ids=users,
            aggregator="streaming",
        )
    reference = _Reference(service, objects, registered)
    try:
        for k, op in enumerate(ops, start=1):
            if op[0] == "device":
                result = service.submit(op[1])
            else:
                result = service.submit_columns(*op[1:])
            assert result.ok, result
            sampled = k % SAMPLE_EVERY == 0
            reference.submit(op, k // SAMPLE_EVERY if sampled else None)
            if k % pump_every == 0:
                service.pump()
                reference.pump()
        service.flush()
        reference.flush()
        dropped = sum(shard.items_dropped for shard in service._shards)
        if overflow == "drop_oldest":
            assert dropped > 0, "the case must evict"
        else:
            assert dropped == 0

        logged = {cid: [] for cid in registered}
        batch_lsns = {cid: [] for cid in registered}
        for record in read_wal(tmp_path).records:
            if record.rtype == rec.BATCH:
                item = record.decode()
                logged[item.campaign_id].append(item)
                batch_lsns[item.campaign_id].append(record.lsn)
        for cid in registered:
            expected = reference.batches[cid]
            assert len(logged[cid]) == len(expected), cid
            for got, want in zip(logged[cid], expected):
                assert np.array_equal(got.user_slots, want.users)
                assert np.array_equal(got.object_slots, want.objects)
                assert np.array_equal(_bits(got.values), _bits(want.values))
            state = service.campaign_state(cid)
            ref_agg = reference.aggregators[cid]
            assert np.array_equal(
                _bits(state.aggregator.truths()), _bits(ref_agg.truths())
            ), cid
            assert np.array_equal(
                _bits(state.aggregator.weights()), _bits(ref_agg.weights())
            ), cid
            assert np.array_equal(state.claims_by_slot, reference.by_slot[cid])

        traces = service.telemetry.traces.records()
        stamped = {t["trace_id"]: t["lsn"] for t in traces}
        assert reference.trace_batch, "no sampled submission was pumped"
        for trace_id, (cid, index) in reference.trace_batch.items():
            assert stamped.get(trace_id) == batch_lsns[cid][index], trace_id
    finally:
        service.close()
