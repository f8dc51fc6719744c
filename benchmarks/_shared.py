"""Shared workloads and cached sweeps for the benchmark suite.

Every ``bench_fig*.py`` module regenerates one figure of the paper.  Several
figures share the same underlying runs (e.g. Figures 6, 7 and 8 all come from
the α sweep on the Wiki and DBLP workloads), so this module builds each
workload and each sweep exactly once per pytest session and caches the
results.

Scales are chosen so the whole suite finishes in a few minutes of pure
Python.  They are far below the paper's dataset sizes (see DESIGN.md for the
substitution rationale); the quantities reported are the same ones the paper
plots, and EXPERIMENTS.md records how the measured shapes compare with the
published ones.
"""

from __future__ import annotations

import contextlib
import functools
import os
import platform
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.runner import AlgorithmReport, WorkloadRunner
from repro.bench.workloads import Workload
from repro.datasets.dblp import DBLPConfig, generate_dblp_egs
from repro.datasets.patent import PatentConfig, generate_patent_dataset
from repro.datasets.wiki import WikiConfig, generate_wiki_egs
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.matrixkind import MatrixKind

def host_info() -> Dict[str, object]:
    """CPU/platform facts every recorded benchmark result self-describes with.

    ``usable_cpus`` is the count this *process* may actually run on
    (``os.process_cpu_count()`` where available — 3.13+ — else the
    scheduling affinity mask), which is the honest number for parallel
    runs: with fewer usable cores than workers, the extra workers add
    dispatch overhead, not speedup (see :func:`parallel_caveat`).
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    usable: Optional[int] = None
    if process_cpu_count is not None:
        usable = process_cpu_count()
    if usable is None:
        try:
            usable = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            usable = os.cpu_count()
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
    }


def host_info_line() -> str:
    """One markdown bullet recording :func:`host_info` in a results file."""
    info = host_info()
    return (
        f"- machine: {info['platform']}, python {info['python']}, "
        f"{info['usable_cpus']} usable CPU core(s) of {info['cpu_count']} visible"
    )


def parallel_caveat(workers: int) -> str:
    """One sentence on what a run with up to ``workers`` processes can show here.

    Derived from :func:`host_info`'s ``usable_cpus``, so a results file
    recorded on any host describes that host.
    """
    usable = host_info()["usable_cpus"] or 1
    cores = f"{usable} usable core{'s' if usable != 1 else ''}"
    if usable == 1:
        return (
            f"This host has {cores}: parallel rows measure process dispatch "
            "overhead, not speedup."
        )
    if usable < workers:
        return (
            f"This host has {cores}: rows with more than {usable} workers add "
            "dispatch overhead on top of at most a "
            f"{usable}x speedup."
        )
    return (
        f"This host has {cores}, at least one per worker: parallel rows can "
        "show real speedup, net of dispatch overhead."
    )


#: α values swept in Figures 6-8 (the paper sweeps 0.90 … 1.00).
ALPHAS: List[float] = [0.90, 0.94, 0.98, 1.00]

#: β values swept in Figure 10.
BETAS: List[float] = [0.0, 0.05, 0.1, 0.2, 0.3]

#: ΔE values swept in Figure 9 (scaled to the benchmark graph size).
DELTA_ES: List[int] = [8, 16, 24, 32]

#: Benchmark-scale stand-in for the paper's Wikipedia dataset.
WIKI_BENCH_CONFIG = WikiConfig(
    pages=400,
    snapshots=50,
    initial_links=2000,
    final_links=2500,
    churn_per_day=2,
    tracked_page=17,
    event_gain_day=12,
    event_dilute_day=30,
    seed=42,
)

#: Benchmark-scale stand-in for the paper's DBLP dataset (symmetric matrices).
DBLP_BENCH_CONFIG = DBLPConfig(
    authors=220,
    snapshots=40,
    initial_papers=330,
    papers_per_day=2,
    max_authors_per_paper=3,
    seed=13,
)

#: Smaller symmetric workload for the LUDEM-QC sweep (β-clustering re-runs
#: Markowitz many times, so the sequence is kept shorter).
DBLP_QC_CONFIG = DBLPConfig(
    authors=150,
    snapshots=20,
    initial_papers=220,
    papers_per_day=2,
    max_authors_per_paper=3,
    seed=13,
)

#: Case-study patent dataset configuration (Figure 11).
PATENT_BENCH_CONFIG = PatentConfig()


@functools.lru_cache(maxsize=None)
def wiki_runner() -> WorkloadRunner:
    """Workload runner for the Wiki benchmark workload (BF cached inside)."""
    egs = generate_wiki_egs(WIKI_BENCH_CONFIG)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.RANDOM_WALK)
    return WorkloadRunner(Workload(name="wiki-bench", matrices=list(ems), symmetric=False))


@functools.lru_cache(maxsize=None)
def dblp_runner() -> WorkloadRunner:
    """Workload runner for the DBLP benchmark workload."""
    egs = generate_dblp_egs(DBLP_BENCH_CONFIG)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.SYMMETRIC_WALK)
    return WorkloadRunner(Workload(name="dblp-bench", matrices=list(ems), symmetric=True))


@functools.lru_cache(maxsize=None)
def dblp_qc_runner() -> WorkloadRunner:
    """Workload runner for the (smaller) LUDEM-QC workload."""
    egs = generate_dblp_egs(DBLP_QC_CONFIG)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.SYMMETRIC_WALK)
    return WorkloadRunner(Workload(name="dblp-qc-bench", matrices=list(ems), symmetric=True))


@functools.lru_cache(maxsize=None)
def patent_dataset():
    """The patent case-study dataset (Figure 11)."""
    return generate_patent_dataset(PATENT_BENCH_CONFIG)


@functools.lru_cache(maxsize=None)
def baseline_report(dataset: str, algorithm: str) -> AlgorithmReport:
    """BF / INC report for a dataset (cached; these take no parameter)."""
    runner = wiki_runner() if dataset == "wiki" else dblp_runner()
    return runner.evaluate(algorithm)


@functools.lru_cache(maxsize=None)
def alpha_report(dataset: str, algorithm: str, alpha: float) -> AlgorithmReport:
    """CINC / CLUDE report for one α value on one dataset (cached)."""
    runner = wiki_runner() if dataset == "wiki" else dblp_runner()
    return runner.evaluate(algorithm, alpha=alpha)


def alpha_sweep(dataset: str, algorithm: str, alphas: Sequence[float] = ALPHAS) -> List[AlgorithmReport]:
    """Reports of an algorithm across the α sweep for a dataset."""
    return [alpha_report(dataset, algorithm, alpha) for alpha in alphas]


@functools.lru_cache(maxsize=None)
def beta_report(algorithm: str, beta: float) -> AlgorithmReport:
    """CINC-QC / CLUDE-QC report for one β value (cached)."""
    return dblp_qc_runner().evaluate_qc(algorithm, beta=beta)


def beta_sweep(algorithm: str, betas: Sequence[float] = tuple(BETAS)) -> List[AlgorithmReport]:
    """Reports of a QC algorithm across the β sweep."""
    return [beta_report(algorithm, beta) for beta in betas]


def series_from_reports(reports: Sequence[AlgorithmReport], field: str) -> List[float]:
    """Extract one numeric column from a list of reports."""
    return [float(getattr(report, field)) for report in reports]


def percentile_of(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a sample list (``0.0`` when empty).

    ``fraction`` in ``[0, 1]``; nearest-rank (no interpolation) keeps every
    reported value an actually-observed one, matching
    :meth:`repro.query.planner.BatchResult.loss_estimate_percentile`.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must lie in [0, 1], got {fraction}")
    if not samples:
        return 0.0
    import math

    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def _read_rss_bytes() -> Optional[int]:
    """Current resident set size in bytes, or ``None`` when unreadable.

    Reads ``/proc/self/statm`` (Linux; resident pages × page size) so the
    sampler needs no third-party dependency.  Falls back to
    ``resource.getrusage`` peak RSS (coarser: high-water mark, not current)
    and finally to ``None`` on exotic platforms — memory tracking is an
    observation, never a benchmark failure.
    """
    try:
        with open("/proc/self/statm") as statm:
            resident_pages = int(statm.read().split()[1])
        import resource

        return resident_pages * resource.getpagesize()
    except (OSError, ValueError, IndexError, ImportError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(usage) * 1024  # Linux reports KiB
    except (ImportError, OSError, ValueError):
        return None


class MemoryMonitor:
    """Background-thread RSS sampler: peak plus a coarse timeline.

    Scale claims should include memory, not just wall-clock; wrapping a
    benchmark phase in a monitor (or the :func:`track_memory` context
    manager) records the process RSS every ``interval`` seconds on a daemon
    thread and reduces it to a peak and a ``(elapsed seconds, bytes)``
    timeline for the report.  Sampling is passive — it never affects the
    measured workload beyond one sleeping thread.
    """

    def __init__(self, interval: float = 0.05) -> None:
        if interval <= 0.0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self._interval = float(interval)
        self._samples: List[Tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    def _sample_once(self) -> None:
        rss = _read_rss_bytes()
        if rss is not None:
            self._samples.append((time.perf_counter() - self._started_at, rss))

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample_once()

    def start(self) -> "MemoryMonitor":
        """Begin sampling (records one sample immediately)."""
        if self._thread is not None:
            raise RuntimeError("MemoryMonitor already started")
        self._started_at = time.perf_counter()
        self._stop.clear()
        self._sample_once()
        self._thread = threading.Thread(
            target=self._run, name="bench-memory-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (records one final sample)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._sample_once()

    @property
    def samples(self) -> List[Tuple[float, int]]:
        """The recorded ``(elapsed seconds, RSS bytes)`` timeline."""
        return list(self._samples)

    @property
    def peak_rss(self) -> int:
        """Largest sampled RSS in bytes (``0`` when sampling was unavailable)."""
        return max((rss for _, rss in self._samples), default=0)

    @property
    def peak_rss_mib(self) -> float:
        """Peak RSS in MiB."""
        return self.peak_rss / (1024.0 * 1024.0)

    def timeline_summary(self, buckets: int = 8) -> str:
        """A compact ``start → … → end`` MiB rendering of the timeline."""
        if not self._samples:
            return "(no samples)"
        step = max(1, len(self._samples) // buckets)
        picked = self._samples[::step]
        if picked[-1] != self._samples[-1]:
            picked.append(self._samples[-1])
        return " → ".join(f"{rss / 2**20:.1f}" for _, rss in picked) + " MiB"


@contextlib.contextmanager
def track_memory(interval: float = 0.05) -> Iterator[MemoryMonitor]:
    """Sample RSS on a background thread for the duration of a ``with`` block."""
    monitor = MemoryMonitor(interval=interval).start()
    try:
        yield monitor
    finally:
        monitor.stop()


def single_run(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark.

    The heavy sequence decompositions are not micro-benchmarks; re-running
    them dozens of times would make the suite unusable.  ``pedantic`` with a
    single round records one timing sample while keeping the benchmark
    machinery (and its reporting) intact.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
