"""Self-test of the benchmark, on tiny sizes of every workload.

    python3 perfbench/selftest.py

For each workload it runs the benchmark untraced and traced and
checks that every metric ``BENCHMARK.json`` names is reported with its
unit and a finite value, that every gate passes and no call failed.
Then it corrupts the evidence the gates judge — one truth moved by one
ulp, and (on ``device-durable``) one user's spent budget off by one
charge — and checks that the gates fail.  Exits 0 when all of that
holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _problems_with(result: dict, expected: dict) -> list[str]:
    problems = []
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(
            f"metrics {sorted(set(metrics) ^ set(expected))} "
            f"missing or unexpected"
        )
    for key, unit in expected.items():
        entry = metrics.get(key)
        if entry is None:
            continue
        if entry["unit"] != unit:
            problems.append(f"{key}: unit {entry['unit']!r}, want {unit!r}")
        if not math.isfinite(entry["value"]):
            problems.append(f"{key}: value {entry['value']!r}")
    if not result["correct"]:
        problems.append("gates failed")
    if result["failed"] or result["attempted"] < 1:
        problems.append(
            f"{result['failed']} of {result['attempted']} calls failed"
        )
    return problems


def _corruptions(workload, evidence: dict) -> dict:
    """Tampered copies of the evidence that the gates must reject."""
    import numpy as np

    from perfbench import workloads as wl

    out = {}
    moved = copy.deepcopy(evidence)
    cid = sorted(moved["final"])[0]
    truths = moved["final"][cid]
    truths[0] = np.nextafter(truths[0], np.inf)
    out["truth moved by one ulp"] = moved
    if workload.ledger:
        spent = copy.deepcopy(evidence)
        user = sorted(spent["spent_live"])[0]
        spent["spent_live"][user] += wl.COST.epsilon
        out["spent budget off by one charge"] = spent
    return out


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import checks, layers, run
    from perfbench import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if declared_e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if declared_layers != layers.UNITS:
        problems.append("BENCHMARK.json per_layer differs from layers.py")
    declared_workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared_workloads != {n: w.why for n, w in wl.WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for name, workload in wl.WORKLOADS.items():
        for trace, expected in ((False, run.END_TO_END), (True, layers.UNITS)):
            out = run.run_workload(name, 7, 0.6, trace, size="tiny")
            found = _problems_with(out["result"], expected)
            problems += [f"{name} trace={int(trace)}: {p}" for p in found]
            print(f"{name} trace={int(trace)}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            if trace:
                continue
            for label, bad in _corruptions(workload, out["evidence"]).items():
                if not checks.evaluate(workload, bad):
                    problems.append(f"{name}: gates accepted a {label}")
                else:
                    print(f"{name}: gates reject a {label}", flush=True)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
