"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are declared in ``BENCHMARK.json`` at the root.  The
library is imported from ``src/`` of the same checkout, never from an
installed copy.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  A
layer that does not run on a workload reports 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_library() -> None:
    """Put the checkout's ``src`` first on the path and import from it only."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"benchmark: no library sources under {source}")
    sys.path[:0] = [source, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"benchmark: repro imported from {repro.__file__}, not {source}")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process shared memory starts, if it runs.

    The shard arena's shared-memory segments start multiprocessing's
    resource tracker; every segment is unlinked by now, so stopping it
    leaves no process behind when the run ends.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    declared = _declared()
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_library()

    from perfbench import workloads
    from _shared import host_info  # benchmarks/ is put on the path by perfbench

    trace = bool(args.trace)
    if args.workload == "ems-clude":
        report = workloads.run_ems(args.seed, args.seconds, trace)
    else:
        report = workloads.run_serving(args.workload, args.seed, args.seconds, trace, ROOT)
    _stop_resource_tracker()

    table = declared["per_layer"] if trace else declared["end_to_end"]
    values = {metric["name"]: 0.0 for metric in table} if trace else {}
    produced = report.per_layer if trace else report.end_to_end
    unknown = set(produced) - {metric["name"] for metric in table}
    if unknown:
        raise SystemExit(f"benchmark: undeclared metrics {sorted(unknown)}")
    values.update(produced)
    missing = [m["name"] for m in table if m["name"] not in values]
    invalid = [name for name, value in values.items() if not math.isfinite(value)]
    if missing or invalid:
        raise SystemExit(f"benchmark: missing {missing}, not finite {invalid}")

    print(f"host: {json.dumps(host_info())}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{key}={value}" for key, value in report.notes.items()))
    for metric in table:
        print(f"  {metric['name']:<28} {values[metric['name']]:.6g} {metric['unit']}")
    result = {
        "correct": report.tally.failed == 0,
        "attempted": report.tally.attempted,
        "failed": report.tally.failed,
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in table
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
