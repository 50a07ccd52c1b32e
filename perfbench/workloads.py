"""The benchmark's four workloads and the closed loop that drives them.

Every workload is a closed loop: one producer thread calls the
service synchronously (submit -> pump -> snapshot), so the next call
is made only after the previous one returned.  Traffic comes from
:class:`repro.service.LoadGenerator` (with ``lambda2`` set, so claims
carry the paper's exponential-variance perturbation) and is built
before any clock starts; the service only ever sees the generated
inputs, cycled in order.

A run is a sequence of *rounds*.  Each round submits a fixed number of
items on the workload's pump/read schedule and ends with the
workload's completion barrier; the round clock stops only after the
barrier, and :func:`check_barrier` verifies (outside the clock) that
every accepted claim had reached its aggregator when it stopped.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.durable.manager import DurabilityConfig
from repro.durable.wal import list_segments
from repro.privacy.ldp import LDPGuarantee
from repro.service import (
    BudgetLedger,
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)

#: Per-claim perturbation rate of Algorithm 2 (variance ~ Exp(lambda2)).
LAMBDA2 = 2.0
#: Per-submission privacy charge on device-durable.  A power of two, so
#: a user's composed epsilon is an exact float and the budget gate can
#: demand equality, not closeness.
COST = LDPGuarantee(epsilon=2.0 ** -10, delta=0.0)

#: Seed of the campaign arrival order (fixed; see build_traffic).
ARRIVAL_ORDER_SEED = 20200707
#: Rounds run before the measured window of every phase (at least;
#: see Workload.warmup_seconds).
WARMUP_ROUNDS = 2

#: Op codes of the replay log (non-negative entries are item indices).
PUMP, FLUSH = -1, -2
READ0 = -3  # READ0 - c reads campaign c


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload (``full`` for timing, ``tiny`` for tests)."""

    campaigns: int
    users: int
    objects: int
    items_per_campaign: int
    chunk: int  # claims per item (ignored for submissions)
    round_items: int
    pump_every: int
    read_every: int
    checkpoint_every: int = 0


@dataclass
class Workload:
    name: str
    why: str
    topology: str  # "in_process" | "fabric" | "replicated"
    methods: tuple  # aggregation method per campaign (cycled)
    submissions: bool  # protocol submit() vs bulk submit_columns()
    ledger: bool
    durable: bool
    setups: int  # set-ups per run; setup_s is their median
    full: Shape
    tiny: Shape
    #: Unmeasured warm-up time of a full-size phase.  On bulk-replicated
    #: the first seconds page-fault heavily (tens of thousands of minor
    #: faults per round while the allocator settles) and run ~40%
    #: slower, for a different number of rounds in every run.
    warmup_seconds: float = 1.0

    def shape(self, size: str) -> Shape:
        return self.full if size == "full" else self.tiny

    @property
    def barrier(self) -> tuple:
        """Completion barrier steps, in order, inside every round clock."""
        return {
            "in_process": ("flush",),
            "fabric": ("flush", "sync_workers"),
            "replicated": ("flush", "wait_replicated"),
        }[self.topology]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="device-durable",
            why=(
                "8-claim device submissions through submit() with budget "
                "charges and the WAL: validation, admission and "
                "per-submission charge records dominate, no remote layer"
            ),
            topology="in_process",
            methods=("crh",),
            submissions=True,
            ledger=True,
            durable=True,
            setups=21,
            full=Shape(4, 2000, 64, 8192, 8, 4096, 256, 512, 262144),
            tiny=Shape(4, 200, 32, 256, 8, 256, 32, 128, 2048),
        ),
        Workload(
            name="bulk-fabric",
            why=(
                "2048-claim column chunks into a supervised 2-host socket "
                "fabric: frame encode, socket send, journal copies, "
                "captures and remote aggregation"
            ),
            topology="fabric",
            methods=("crh",),
            submissions=False,
            ledger=False,
            durable=False,
            setups=3,
            full=Shape(8, 1000, 50, 48, 2048, 256, 4, 64),
            tiny=Shape(8, 150, 32, 4, 256, 32, 8, 16),
        ),
        Workload(
            name="read-mix",
            why=(
                "GTM and CATD campaigns read after every two chunks: "
                "dirty-snapshot refinement beside ingest, so work moved "
                "between reads and writes shows"
            ),
            topology="in_process",
            methods=("gtm", "catd"),
            submissions=False,
            ledger=False,
            durable=False,
            setups=21,
            full=Shape(2, 400, 160, 64, 1024, 64, 2, 2),
            tiny=Shape(2, 150, 32, 8, 256, 16, 2, 2),
        ),
        Workload(
            name="bulk-replicated",
            why=(
                "bulk chunks into a WAL primary shipping to one async "
                "standby: micro-batching, large batch records, group "
                "commit and log shipping, no charge records"
            ),
            topology="replicated",
            methods=("crh",),
            submissions=False,
            ledger=False,
            durable=True,
            setups=5,
            full=Shape(8, 1000, 50, 48, 2048, 256, 4, 64),
            tiny=Shape(8, 150, 32, 4, 256, 32, 8, 16),
            warmup_seconds=8.0,
        ),
    )
}


# ----------------------------------------------------------------------
# Traffic
@dataclass
class Traffic:
    """Generated inputs, campaigns mixed in a fixed random order."""

    generators: list
    methods: list
    items: list  # ClaimSubmission or ColumnChunk
    campaign: list  # campaign index per item

    @property
    def campaign_ids(self) -> list:
        return [g.campaign_id for g in self.generators]


def build_traffic(workload: Workload, shape: Shape, seed: int) -> Traffic:
    children = np.random.SeedSequence(seed).spawn(shape.campaigns)
    generators, methods, per_campaign = [], [], []
    for c in range(shape.campaigns):
        method = workload.methods[c % len(workload.methods)]
        gen = LoadGenerator(
            f"{workload.name}-{method}-c{c}",
            num_users=shape.users,
            num_objects=shape.objects,
            lambda2=LAMBDA2,
            random_state=np.random.default_rng(children[c]),
        )
        if workload.submissions:
            items = gen.submissions(shape.items_per_campaign)
        else:
            items = list(
                gen.column_chunks(
                    shape.items_per_campaign * shape.chunk,
                    chunk_size=shape.chunk,
                )
            )
        generators.append(gen)
        methods.append(method)
        per_campaign.append(items)
    # Arrivals mix campaigns in a random order: a strict round-robin
    # would advance every campaign in lockstep, so their refinements
    # (every refine_every claims) would all land in the same pump.  The
    # order is part of the workload's shape, the same for every seed:
    # a seed changes the claims, not which pumps meet a refinement.
    tagged = [(c, item) for c, items in enumerate(per_campaign)
              for item in items]
    rng = np.random.default_rng(ARRIVAL_ORDER_SEED)
    order = rng.permutation(len(tagged))
    campaign = [tagged[i][0] for i in order]
    items = [tagged[i][1] for i in order]
    return Traffic(generators, methods, items, campaign)


# ----------------------------------------------------------------------
# Service construction (timed as setup_s)
def make_service(
    workload: Workload,
    shape: Shape,
    traffic: Traffic,
    directory: Optional[Path],
    *,
    obs: bool = True,
    topology: Optional[str] = None,
) -> IngestService:
    """Construct, start and register: everything ``setup_s`` covers.

    ``topology`` overrides the workload's (the replays run the same
    registrations in-process and volatile).
    """
    kind = topology or workload.topology
    durability = None
    if workload.durable and topology is None:
        durability = DurabilityConfig(
            directory=directory / "wal",
            fsync="batch",
            checkpoint_every_claims=shape.checkpoint_every,
        )
    if kind == "fabric":
        top = Topology.fabric(2)
    elif kind == "replicated":
        top = Topology.replicated(1, durability=durability, sync="async")
    else:
        top = Topology.in_process(durability=durability)
    ledger = BudgetLedger(epsilon_cap=1e9) if workload.ledger else None
    service = IngestService(
        ServiceConfig(obs=obs), topology=top, ledger=ledger
    )
    try:
        for gen, method in zip(traffic.generators, traffic.methods):
            service.register_campaign(
                gen.campaign_id,
                gen.object_ids,
                max_users=gen.num_users,
                user_ids=None if workload.submissions else gen.user_ids,
                method=method,
                cost=COST if workload.ledger else None,
            )
    except BaseException:
        service.close()
        raise
    return service


# ----------------------------------------------------------------------
# The closed loop
class AckTracker:
    """Per-call ack latency: call start until the return of the first
    pump/flush/snapshot after which its claims were handed to their
    aggregator (claims reach the aggregator in order per campaign, so
    one cumulative offset per campaign identifies them)."""

    def __init__(self, states: list) -> None:
        self._states = states
        self._accepted = [0] * len(states)
        self._pending = [deque() for _ in states]
        self.samples: list[float] = []

    def submitted(self, campaign: int, claims: int, started: float) -> None:
        self._accepted[campaign] += claims
        self._pending[campaign].append((self._accepted[campaign], started))

    def settle(self) -> None:
        now = time.perf_counter()
        samples = self.samples
        for state, queue in zip(self._states, self._pending):
            if queue:
                handed = state.claims_accepted - state.batcher.pending
                while queue and queue[0][0] <= handed:
                    samples.append(now - queue.popleft()[1])

    @property
    def outstanding(self) -> int:
        return sum(len(q) for q in self._pending)


@dataclass
class Run:
    """State of one measured phase."""

    workload: Workload
    shape: Shape
    traffic: Traffic
    service: IngestService
    tracer: object = None
    cursor: int = 0
    attempted: int = 0
    refused: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    round_seconds: list = field(default_factory=list)
    round_claims: list = field(default_factory=list)
    read_seconds: list = field(default_factory=list)
    catchup_seconds: list = field(default_factory=list)
    lag_lsn_max: int = 0
    #: Service counters when the measured window opened.
    counters_before: dict = field(default_factory=dict)
    acks: AckTracker = None

    def __post_init__(self) -> None:
        self.acks = AckTracker(
            [self.service.campaign_state(c) for c in self.traffic.campaign_ids]
        )


def run_round(run: Run) -> None:
    """One round: items on the pump/read schedule, then the barrier.

    The clock runs from the round's first call until the barrier's
    last step returned.
    """
    service = run.service
    traffic, shape = run.traffic, run.shape
    submissions = run.workload.submissions
    items, campaigns = traffic.items, traffic.campaign
    cids = traffic.campaign_ids
    pool = len(items)
    acks, ops, tracer = run.acks, run.ops, run.tracer
    perf = time.perf_counter
    submit = service.submit
    submit_columns = service.submit_columns
    claims = 0
    start = perf()
    for k in range(run.cursor, run.cursor + shape.round_items):
        item = items[k % pool]
        c = campaigns[k % pool]
        if tracer is not None:
            tracer.request_id = k
        t0 = perf()
        if submissions:
            result = submit(item)
        else:
            result = submit_columns(
                item.campaign_id, item.user_slots, item.object_slots,
                item.values,
            )
        run.attempted += 1
        ops.append(k)
        if result.rejected:
            run.refused.append((k, result.reason))
        else:
            acks.submitted(c, result.accepted, t0)
            claims += result.accepted
        if (k + 1) % shape.pump_every == 0:
            service.pump()
            acks.settle()
            ops.append(PUMP)
        if (k + 1) % shape.read_every == 0:
            target = (k // shape.read_every) % len(cids)
            t0 = perf()
            service.snapshot(cids[target])
            run.read_seconds.append(perf() - t0)
            acks.settle()
            run.attempted += 1
            ops.append(READ0 - target)
    run.cursor += shape.round_items
    steps, lsn = barrier(run)
    stop = perf()
    run.round_seconds.append(stop - start)
    run.round_claims.append(claims)
    check_barrier(run, steps, lsn)


def barrier(run: Run) -> tuple[tuple, int]:
    """The workload's completion barrier; returns (steps run, lsn)."""
    service = run.service
    steps = []
    lsn = 0
    service.flush()
    run.acks.settle()
    run.ops.append(FLUSH)
    steps.append("flush")
    if run.workload.topology == "fabric":
        service.sync_workers()
        steps.append("sync_workers")
    elif run.workload.topology == "replicated":
        sender = service.replication
        if run.tracer is not None:
            run.lag_lsn_max = max(
                run.lag_lsn_max,
                max(s["lag_lsn"] for s in sender.stats()["standbys"]),
            )
        lsn = service.durability.wal.durable_lsn
        t0 = time.perf_counter()
        if not sender.wait_replicated(lsn, timeout=120.0):
            raise RuntimeError(f"standby did not ack lsn {lsn} in 120 s")
        run.catchup_seconds.append(time.perf_counter() - t0)
        steps.append("wait_replicated")
    return tuple(steps), lsn


def check_barrier(run: Run, steps: tuple, lsn: int) -> None:
    """Fail unless the round clock covered the whole completion barrier.

    This is what makes the workloads' clocks comparable: in every
    topology the clock stops only once each accepted claim is
    aggregated where it lives (in-process aggregator, remote host, or
    acknowledged by the standby).
    """
    service = run.service
    if steps != run.workload.barrier:
        raise RuntimeError(
            f"clock covered {steps}, expected {run.workload.barrier}"
        )
    if any(service.queue_depths()):
        raise RuntimeError("clock stopped with claims still queued")
    for cid in run.traffic.campaign_ids:
        if service.campaign_state(cid).batcher.pending:
            raise RuntimeError(f"clock stopped with {cid} claims batched")
    if run.acks.outstanding:
        raise RuntimeError("clock stopped with unacknowledged calls")
    if run.workload.topology == "replicated":
        if service.replication.min_ack_lsn() < lsn:
            raise RuntimeError("clock stopped before the standby ack")


def warm_up(run: Run, seconds: float = 0.0) -> None:
    """Unmeasured rounds (``WARMUP_ROUNDS``, and more until ``seconds``
    passed), so start-up transients (first allocations, a standby's
    first catch-up) stay out of every metric.  Calls and refusals
    still count, and the replay log keeps them."""
    start = time.perf_counter()
    rounds = 0
    while rounds < WARMUP_ROUNDS or time.perf_counter() - start < seconds:
        run_round(run)
        rounds += 1
    for samples in (run.round_seconds, run.round_claims, run.read_seconds,
                    run.catchup_seconds, run.acks.samples):
        samples.clear()
    run.lag_lsn_max = 0


def run_phase(
    run: Run, *, seconds: Optional[float] = None, rounds: Optional[int] = None
) -> None:
    """Rounds until ``seconds`` of wall time passed or ``rounds`` ran."""
    start = time.perf_counter()
    while True:
        run_round(run)
        if rounds is not None and len(run.round_seconds) >= rounds:
            return
        if seconds is not None and time.perf_counter() - start >= seconds:
            return


# ----------------------------------------------------------------------
# After the clock: final reads, storage, evidence for the gates
def final_truths(run: Run) -> dict:
    truths = {}
    for c, cid in enumerate(run.traffic.campaign_ids):
        truths[cid] = np.array(run.service.snapshot(cid).truths, copy=True)
        run.ops.append(READ0 - c)
    return truths


def truth_rmse(traffic: Traffic, truths: dict) -> float:
    errors = []
    for gen in traffic.generators:
        estimate = truths[gen.campaign_id]
        seen = np.isfinite(estimate)
        diff = estimate[seen] - gen.truths[seen]
        errors.append(float(np.sqrt(np.mean(diff * diff))))
    return float(np.mean(errors))


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def wal_segment_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in list_segments(path))


def replay(run: Run) -> dict:
    """Re-run the logged op sequence of a volatile bulk run on a fresh
    in-process service; returns the truths of each campaign's last read."""
    traffic = run.traffic
    service = make_service(
        run.workload, run.shape, traffic, None, topology="in_process"
    )
    items, cids = traffic.items, traffic.campaign_ids
    pool = len(items)
    truths = {}
    try:
        for op in run.ops:
            if op >= 0:
                item = items[op % pool]
                service.submit_columns(
                    item.campaign_id, item.user_slots, item.object_slots,
                    item.values,
                )
            elif op == PUMP:
                service.pump()
            elif op == FLUSH:
                service.flush()
            else:
                cid = cids[READ0 - op]
                truths[cid] = np.array(
                    service.snapshot(cid).truths, copy=True
                )
    finally:
        service.close()
    return truths


def digest(truths: dict) -> str:
    h = hashlib.sha256()
    for cid in sorted(truths):
        h.update(cid.encode())
        h.update(np.ascontiguousarray(truths[cid], dtype=np.float64).tobytes())
    return h.hexdigest()


def expected_spent(run: Run) -> dict:
    """Each user's exact spent epsilon: cost x accepted submissions."""
    items = run.traffic.items
    pool = len(items)
    refused = {k for k, _ in run.refused}
    counts: dict = {}
    for k in range(run.cursor):
        if k not in refused:
            user = items[k % pool].user_id
            counts[user] = counts.get(user, 0) + 1
    return {user: COST.epsilon * n for user, n in counts.items()}


def spent_by_user(ledger) -> dict:
    return {r["user_id"]: r["epsilon"] for r in ledger.to_records()}


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
