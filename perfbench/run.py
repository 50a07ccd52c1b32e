"""The service benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload device-durable --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``device-durable``, ``bulk-fabric``, ``read-mix``,
``bulk-replicated`` (``--workload all`` runs each in turn; see
``perfbench/workloads.py`` for what each exercises).  The load is one
closed-loop producer thread driving the public ``IngestService`` /
``Topology`` API; traffic is generated from ``--seed`` before any
clock starts.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` reports the per-layer metrics instead: it runs
an untraced phase for a third of ``--seconds``, then the same rounds
with spans installed on the layers' public methods, then the same
rounds with ``ServiceConfig(obs=False)``; overheads compare the three.

Every run checks its workload's outputs (bitwise truth and budget
gates, outside the clock).  Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
gate passed, 1 when a gate failed, 2 when the program cannot be
imported from ``src/`` next to this directory.

Scratch files live under ``.perfbench_work/`` in the repository root;
span dumps of traced runs stay there as ``trace-<workload>-<seed>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: End-to-end metrics of every workload -> unit (BENCHMARK.json order).
END_TO_END = {
    "claims_per_s": "claims/s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "read_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "truth_rmse": "value",
}
#: Reads needed before a read p99 is reported (ten samples beyond it).
P99_MIN_SAMPLES = 1000


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile_ms(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) * 1e3 if len(samples) else 0.0


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# ----------------------------------------------------------------------
def build(workload, shape, traffic, directory: Path, *, setups: int, obs=True):
    """Set up ``setups`` times (closing all but the last); returns the
    last service and every set-up's seconds."""
    from perfbench import workloads as wl

    seconds = []
    service = None
    for i in range(setups):
        if service is not None:
            service.close()
            wl.remove_tree(directory / f"setup{i - 1}")
        start = time.perf_counter()
        service = wl.make_service(
            workload, shape, traffic, directory / f"setup{i}", obs=obs
        )
        seconds.append(time.perf_counter() - start)
    return service, seconds, directory / f"setup{setups - 1}"


def phase(workload, shape, traffic, directory, *, setups=1, obs=True,
          tracer=None, seconds=None, rounds=None, oracles=True):
    """Set up, warm up, run measured rounds, finish; returns (run,
    evidence, setup times)."""
    from perfbench import checks, layers
    from perfbench import workloads as wl

    service, setup_seconds, home = build(
        workload, shape, traffic, directory, setups=setups, obs=obs
    )
    run = wl.Run(workload, shape, traffic, service)
    try:
        wl.warm_up(run, workload.warmup_seconds
                   if shape is workload.full else 0.0)
        run.counters_before = checks.service_counters(service)
        if tracer is not None:
            run.tracer = tracer
            layers.install(tracer)
        try:
            wl.run_phase(run, seconds=seconds, rounds=rounds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except BaseException:
        service.close()
        raise
    evidence = checks.finish(run, home, oracles=oracles)
    return run, evidence, setup_seconds


def end_to_end(run, evidence, setup_seconds) -> dict:
    import numpy as np

    from perfbench import workloads as wl

    acks = run.acks.samples
    return {
        "claims_per_s": float(np.median(
            np.asarray(run.round_claims) / np.asarray(run.round_seconds)
        )),
        "ack_p50_ms": percentile_ms(acks, 50),
        "ack_p99_ms": percentile_ms(acks, 99),
        "read_p50_ms": percentile_ms(run.read_seconds, 50),
        "setup_s": float(np.median(setup_seconds)),
        "peak_rss_mb": evidence["peak_rss_mb"],
        "truth_rmse": wl.truth_rmse(run.traffic, evidence["final"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """One benchmark run; returns the result object (plus report lines)."""
    from perfbench import checks, layers, tracing
    from perfbench import workloads as wl

    workload = wl.WORKLOADS[name]
    shape = workload.shape(size)
    directory = WORK / f"{name}-{seed}-{os.getpid()}"
    wl.remove_tree(directory)
    directory.mkdir(parents=True)
    lines = []
    try:
        traffic = wl.build_traffic(workload, shape, seed)
        if not trace:
            run, evidence, setup_seconds = phase(
                workload, shape, traffic, directory / "run",
                setups=workload.setups, seconds=seconds,
            )
            metrics = end_to_end(run, evidence, setup_seconds)
            units = dict(END_TO_END)
            lines += describe(run, evidence, metrics, setup_seconds)
        else:
            untraced, _, _ = phase(
                workload, shape, traffic, directory / "untraced",
                seconds=seconds / 3.0, oracles=False,
            )
            rounds = len(untraced.round_seconds)
            tracer = tracing.Tracer()
            run, evidence, _ = phase(
                workload, shape, traffic, directory / "traced",
                tracer=tracer, rounds=rounds,
            )
            no_obs, _, _ = phase(
                workload, shape, traffic, directory / "no-obs",
                obs=False, rounds=rounds, oracles=False,
            )
            columns = tracer.columns()
            WORK.mkdir(exist_ok=True)
            tracer.dump(WORK / f"trace-{name}-{seed}.npz", columns)
            metrics = layers.metrics(
                tracer.summary(columns), tracer.counters, evidence, run,
                wall_untraced=sum(untraced.round_seconds),
                wall_traced=sum(run.round_seconds),
                wall_no_obs=sum(no_obs.round_seconds),
            )
            units = dict(layers.UNITS)
            lines.append(f"rounds per phase: {rounds}; spans: "
                         f"{len(columns['start'])}")
        failures = checks.evaluate(workload, evidence)
    finally:
        wl.remove_tree(directory)
    lines += [f"gate FAILED: {f}" for f in failures] or ["gates: all passed"]
    failed = len(run.refused)
    return {
        "lines": lines,
        "result": {
            "correct": not failures,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {
                key: {"value": float(metrics[key]), "unit": units[key]}
                for key in units
            },
        },
        "evidence": evidence,
    }


def describe(run, evidence, metrics, setup_seconds) -> list[str]:
    """Report lines: every end-to-end metric with its unit and counts."""
    lines = []
    for key, unit in END_TO_END.items():
        lines.append(f"{key} = {fmt(metrics[key])} {unit}")
    lines.append(
        f"  samples: rounds={len(run.round_seconds)} "
        f"acks={len(run.acks.samples)} (p99 has "
        f"{len(run.acks.samples) // 100} beyond) "
        f"reads={len(run.read_seconds)} setups={len(setup_seconds)}"
    )
    reads = run.read_seconds
    if len(reads) >= P99_MIN_SAMPLES:
        lines.append(f"read_p99_ms = {fmt(percentile_ms(reads, 99))} ms "
                     f"({len(reads)} reads)")
    if run.catchup_seconds:
        catchup = statistics.median(run.catchup_seconds) * 1e3
        lines.append(f"replica_catchup_ms = {fmt(catchup)} ms "
                     f"(median of {len(run.catchup_seconds)} barriers)")
    for key in ("wal_bytes_per_claim", "compacted_bytes_per_claim"):
        if key in evidence:
            lines.append(f"{key} = {fmt(evidence[key])} B")
    error_rate = len(run.refused) / run.attempted
    lines.append(f"error_rate = {fmt(error_rate)} fraction "
                 f"({len(run.refused)} of {run.attempted} calls)")
    return lines


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path[:0] = [str(ROOT), str(src)]
    try:
        import repro.service  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    from perfbench import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in wl.WORKLOADS:
            parser.error(f"unknown workload {name!r}; "
                         f"choose from {sorted(wl.WORKLOADS)} or all")
    print("environment: " + json.dumps(environment(args.seed)), flush=True)
    results = []
    for name in names:
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace})", flush=True)
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for line in out["lines"]:
            print(line, flush=True)
        results.append(out["result"])
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{key}": value
                for name, r in zip(names, results)
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
