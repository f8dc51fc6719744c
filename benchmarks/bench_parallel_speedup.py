"""Speedup-vs-workers of the cluster-parallel execution engine.

Runs the speedup-vs-cores scenario on the T = 64 benchmark workload
(:func:`repro.bench.workloads.parallel_speedup_workload`): each algorithm is
decomposed once with the in-process serial executor and once per worker
count with the process-pool :class:`~repro.exec.ParallelExecutor`, and the
measured wall-clock times are reported side by side.  Every parallel run is
verified bitwise-identical to the serial run before its timing is accepted —
a wrong-but-fast engine scores zero.

The parallelism exposed is structural: BF ships T independent snapshot
units, CLUDE/CINC one unit per cluster, INC a single chain (included as the
no-parallelism control).  Achieved speedup is therefore bounded by
min(workers, units, usable cores); the results file records the host's
usable core count and says what the parallel rows can show on it.

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py \
        [--snapshots 64] [--workers 1 2 4] [--output results/parallel_speedup.md]
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Dict, List, Tuple

from repro.bench.workloads import parallel_speedup_workload
from repro.core.bf import decompose_sequence_bf
from repro.core.cinc import decompose_sequence_cinc
from repro.core.clude import decompose_sequence_clude
from repro.core.inc import decompose_sequence_inc
from repro.exec import ParallelExecutor, canonical_sequence_state

from _shared import host_info_line, parallel_caveat

ALPHA = 0.95

ALGORITHMS = {
    "BF": lambda matrices, executor: decompose_sequence_bf(matrices, executor=executor),
    "INC": lambda matrices, executor: decompose_sequence_inc(matrices, executor=executor),
    "CINC": lambda matrices, executor: decompose_sequence_cinc(
        matrices, alpha=ALPHA, executor=executor
    ),
    "CLUDE": lambda matrices, executor: decompose_sequence_clude(
        matrices, alpha=ALPHA, executor=executor
    ),
}


def run(snapshots: int, worker_counts: List[int]) -> Tuple[List[str], List[List[str]]]:
    workload = parallel_speedup_workload(snapshots=snapshots)
    matrices = workload.matrices
    header = [
        "algorithm",
        "units",
        "serial wall (s)",
        *[f"{w}w wall (s)" for w in worker_counts],
        *[f"{w}w speedup" for w in worker_counts],
        "bitwise",
    ]
    rows: List[List[str]] = []
    for name, runner in ALGORITHMS.items():
        serial = runner(matrices, None)
        reference = canonical_sequence_state(serial)
        units = serial.cluster_count
        walls: Dict[int, float] = {}
        identical = True
        for workers in worker_counts:
            parallel = runner(matrices, ParallelExecutor(workers=workers))
            walls[workers] = parallel.wall_time
            identical = identical and canonical_sequence_state(parallel) == reference
        rows.append(
            [
                name,
                str(units),
                f"{serial.wall_time:.3f}",
                *[f"{walls[w]:.3f}" for w in worker_counts],
                *[f"{serial.wall_time / walls[w]:.2f}x" for w in worker_counts],
                "yes" if identical else "NO — INVALID RUN",
            ]
        )
        print(f"  {name}: serial {serial.wall_time:.3f}s, "
              + ", ".join(f"{w}w {walls[w]:.3f}s" for w in worker_counts)
              + f", bitwise={'ok' if identical else 'FAILED'}")
    return header, rows


def format_markdown(
    header: List[str], rows: List[List[str]], snapshots: int, workers: int
) -> str:
    lines = [
        "# Parallel execution engine: speedup vs. workers",
        "",
        f"- date: {time.strftime('%Y-%m-%d')}",
        host_info_line(),
        f"- workload: `parallel_speedup_workload(snapshots={snapshots})` "
        f"(synthetic RWR matrices, n=150, T={snapshots})",
        "- wall times from `SequenceResult.wall_time`; every parallel run verified "
        "bitwise-identical to serial before timing was accepted",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines += [
        "",
        "Speedup is bounded by min(workers, work units, usable cores): BF exposes "
        "T units, CINC/CLUDE one per cluster, INC a single chain (control). "
        + parallel_caveat(workers),
        "",
    ]
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshots", type=int, default=64)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--output", type=str, default=None,
                        help="optional markdown file to record the results in")
    args = parser.parse_args()

    print(host_info_line())
    print(f"parallel speedup benchmark: T={args.snapshots}, "
          f"workers={args.workers}, cores={os.cpu_count()}")
    header, rows = run(args.snapshots, list(args.workers))
    markdown = format_markdown(header, rows, args.snapshots, max(args.workers))
    print()
    print(markdown)
    if args.output:
        output_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), args.output) \
            if not os.path.isabs(args.output) else args.output
        os.makedirs(os.path.dirname(output_path), exist_ok=True)
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"recorded: {output_path}")


if __name__ == "__main__":
    main()
