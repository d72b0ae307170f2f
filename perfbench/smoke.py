#!/usr/bin/env python3
"""Smoke check of the benchmark itself at toy sizes (n = 64).

    python3 perfbench/smoke.py

Runs each workload's command untraced and traced, and fails unless every
run is correct (which includes every traced binding being found) and
reports exactly the metrics that BENCHMARK.json lists.  Takes about fifteen
seconds.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    spec = run.SPEC
    if set(run.WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        raise SystemExit("BENCHMARK.json and run.WORKLOADS name different workloads")
    want = {
        trace: {m["name"] for m in spec[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    for name in run.WORKLOADS:
        for trace in (False, True):
            record = run.measure(name, seed=1, seconds=0, trace=trace, toy=True)
            result = record["result"]
            got = set(result["metrics"])
            if not result["correct"] or got != want[trace]:
                raise SystemExit(
                    f"{name} trace={int(trace)}: problems {record['problems']}, "
                    f"metrics differ from BENCHMARK.json: {sorted(got ^ want[trace])}"
                )
            print(f"ok {name} trace={int(trace)}: {len(got)} metrics, n={record['provenance']['graph_n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
