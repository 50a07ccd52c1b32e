"""Service benchmark: closed-loop workloads, gates and layer spans.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>``.
"""
