"""The four workloads: what each runs, how it is timed, how it is checked.

``ems-clude``
    The paper's experiment: CLUDE (alpha = 0.95) decomposes the Wiki-like
    sequence, then a block of right-hand sides is solved on every snapshot.
    Bennett-dominated; runs no planner, server or shard code.
``serve-sharded``
    ``MeasureServer(shards=2, register_lineage=False)`` over a mixed-measure,
    mixed-damping stream on an evolving chain: almost every group is a
    cold Markowitz + symbolic + Crout factorization, run in the shard
    workers; the result cache and refresh are bypassed.
``serve-hot``
    Zipf-skewed bursts over a few hot keys, each after an ``admit_update``
    (lineage refresh on), with a ``FactorStore`` checkpointed every few
    bursts on the serving thread: refresh, result cache, sweeps and store.

A run repeats short rounds for the given number of seconds, each from
scratch.  An EMS round composes the sequence (set-up), decomposes it and
solves.  A serving round builds the stream and a fresh server (set-up,
which includes spawning the shard pool) for every pass of the stream, so
every pass starts cold.  ``serve-hot`` is open loop: one pass sends the
stream at a fixed offered rate of 150 qps, well under its capacity, and
latency is timed from each request's due time; a second pass submits the
whole stream at once to measure capacity.  ``serve-sharded`` is one client
that sends a snapshot's 14 queries at once and the next snapshot's when
they are answered (the one-batch-per-snapshot shape of the shard
benchmark): latency is timed from the burst's send, and capacity is the
pass's queries over its wall time.

Every time figure is read from a run's repeats with
:func:`perfbench.loadgen.quiet`, their lower decile: ``setup_s`` over every
untraced set-up, latency percentiles over the rounds' per-pass
percentiles, capacity over the pass wall times.  The per-pass statistics
keep the program's own spread (a slow SALSA factorization, a checkpoint
stall); the lower decile across passes removes the host's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import resource
import shutil
import tempfile
import time
from collections import Counter
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import inputs
from perfbench.loadgen import Sent, closed_loop, median, open_loop, quiet
from perfbench.spans import LayerTotals, SpanRecorder, instrument
from _shared import percentile_of
from repro.core.clude import decompose_sequence_clude
from repro.lu.validate import solve_residual
from repro.query.planner import QueryPlanner, plan_batch
from repro.serve import MeasureServer
from repro.shard.router import ShardRouter
from repro.store.factorstore import FactorStore

#: CLUDE's similarity threshold in the paper's headline experiment.
ALPHA = 0.95
#: Largest residual ``|A x - b|_inf`` accepted for an EMS answer.
RESIDUAL_TOLERANCE = 1e-8
#: Refresh-produced answers agree with a cold reference to this relative
#: tolerance; cold and sharded answers must be bitwise equal instead.
REFRESH_TOLERANCE = 1e-9

TIERS = ("hit", "store_restore", "verbatim_reuse", "corrected_reuse", "refresh", "cold")

clock = time.perf_counter


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed (error or wrong answer); never retried."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


@dataclasses.dataclass
class Report:
    """What one run measured."""

    tally: Tally
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    #: human-readable facts printed before the result line
    notes: Dict[str, object]


def run_rounds(
    seconds: float, trace: bool, round_fn: Callable[[bool], object]
) -> List[Tuple[bool, object]]:
    """Repeat ``round_fn(traced)`` for about ``seconds``.

    A new round starts only while at least half a typical round still fits.
    With tracing, rounds alternate untraced / traced, so one run yields both
    the per-layer split and the tracing overhead; it runs at least one of
    each.
    """
    started = clock()
    rounds: List[Tuple[bool, object]] = []
    durations: List[float] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = clock()
        rounds.append((traced, round_fn(traced)))
        durations.append(clock() - began)
        enough = len(rounds) >= (2 if trace else 1)
        if enough and clock() - started + 0.5 * median(durations) > seconds:
            return rounds


def _maybe_traced(traced: bool):
    if not traced:
        return contextlib.nullcontext(None)
    return instrument(SpanRecorder())


def peak_rss_mib(children_kib: float = 0.0) -> float:
    """Peak resident set of this process plus ``children_kib``, in MiB."""
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kib + children_kib) / 1024.0


def _children_peak_kib() -> float:
    """Summed peak resident set (VmHWM) of this process's live children."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += float(line.split()[1])
        except OSError:
            continue
    return total


def _merge_totals(target: Dict[str, LayerTotals], spans: Dict[str, LayerTotals]) -> None:
    for name, layer in spans.items():
        into = target.setdefault(name, LayerTotals())
        into.calls += layer.calls
        into.units += layer.units
        into.total_s += layer.total_s
        into.self_s += layer.self_s


def _span_metrics(spans: Dict[str, LayerTotals], passes: int) -> Dict[str, float]:
    """Span metrics per pass of the workload, under their published names."""
    def get(name: str) -> LayerTotals:
        return spans.get(name, LayerTotals())

    metrics: Dict[str, float] = {}
    # lu spans nest (a cold crout_decompose runs its own symbolic pass), so
    # each lu layer reports its self time and no second is counted twice.
    for layer in ("ordering", "symbolic", "numeric", "bennett"):
        metrics[f"lu.{layer}_s"] = get(f"lu.{layer}").self_s / passes
        metrics[f"lu.{layer}_calls"] = get(f"lu.{layer}").calls / passes
    metrics["lu.sweep_s"] = get("lu.sweep").self_s / passes
    metrics["lu.sweep_cols"] = get("lu.sweep").units / passes
    metrics["core.clustering_s"] = get("core.clustering").total_s / passes
    metrics["query.execute_s"] = get("query.execute").self_s / passes
    for tier in TIERS:
        metrics[f"query.tier_s.{tier}"] = get(f"query.tier.{tier}").total_s / passes
    metrics["store.checkpoint_s"] = get("store.checkpoint").total_s / passes
    metrics["shard.execute_s"] = get("shard.execute").total_s / passes
    return metrics


def _traced_spans(rounds: List[Tuple[bool, object]]) -> Dict[str, LayerTotals]:
    """Span totals summed over the traced rounds."""
    spans: Dict[str, LayerTotals] = {}
    for is_traced, outcome in rounds:
        if is_traced:
            _merge_totals(spans, outcome.spans)
    return spans


def _overhead(
    rounds: List[Tuple[bool, object]], walls: Callable[[object], List[float]]
) -> float:
    """Traced over untraced wall, each the lower decile of its repeats, minus 1.

    ``walls`` gives the wall times of one round's timed passes.
    """
    plain = [wall for traced, r in rounds if not traced for wall in walls(r)]
    traced = [wall for is_traced, r in rounds if is_traced for wall in walls(r)]
    return quiet(traced) / quiet(plain) - 1.0


# ---------------------------------------------------------------------- #
# ems-clude
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class EmsRound:
    setup_s: float
    decompose_s: float
    solve_s: float
    #: seconds from submitting the sequence to each snapshot's answers
    latencies: List[float]
    failed_snapshots: List[bool]
    mean_fill: float
    untimed_s: float
    clusters: int
    spans: Dict[str, LayerTotals]

    @property
    def wall_s(self) -> float:
        return self.decompose_s + self.solve_s


def _ems_round(seed: int, traced: bool) -> EmsRound:
    began = clock()
    matrices, block = inputs.compose_ems(seed)
    setup = clock() - began
    with _maybe_traced(traced) as recorder:
        started = clock()
        result = decompose_sequence_clude(matrices, alpha=ALPHA)
        decomposed = clock()
        answers = []
        stamps = []
        for index in range(len(result)):
            answers.append(result.solve_many(index, block))
            stamps.append(clock())
    failed = [
        not all(
            solve_residual(matrix, answer[:, column], block[:, column]) <= RESIDUAL_TOLERANCE
            for column in range(block.shape[1])
        )
        for matrix, answer in zip(matrices, answers)
    ]
    return EmsRound(
        setup_s=setup,
        decompose_s=decomposed - started,
        solve_s=stamps[-1] - decomposed,
        latencies=[stamp - started for stamp in stamps],
        failed_snapshots=failed,
        mean_fill=float(np.mean(result.fill_sizes)),
        untimed_s=result.wall_time - result.timing.total_time,
        clusters=result.cluster_count,
        spans=recorder.totals() if recorder is not None else {},
    )


def run_ems(seed: int, seconds: float, trace: bool) -> Report:
    rounds = run_rounds(seconds, trace, lambda traced: _ems_round(seed, traced))
    tally = Tally()
    for _, outcome in rounds:
        for failed in outcome.failed_snapshots:
            tally.record(not failed)
    plain = [outcome for traced, outcome in rounds if not traced]
    answers = len(plain[0].latencies) * inputs.EMS_COLUMNS
    end_to_end = {
        "setup_s": quiet([o.setup_s for o in plain]),
        "latency_p50_ms": quiet([percentile_of(o.latencies, 0.50) for o in plain]) * 1e3,
        "latency_p95_ms": quiet([percentile_of(o.latencies, 0.95) for o in plain]) * 1e3,
        "capacity_qps": answers / quiet([o.wall_s for o in plain]),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = {
        "inputs": inputs.stream_digest(inputs.compose_ems(seed)),
        "rounds": len(rounds),
        "latency_samples": sum(len(o.latencies) for o in plain),
        "decompose_s": quiet([o.decompose_s for o in plain]),
        "solve_s": quiet([o.solve_s for o in plain]),
        "mean_fill": plain[0].mean_fill,
    }
    per_layer: Dict[str, float] = {}
    if trace:
        traced = sum(1 for is_traced, _ in rounds if is_traced)
        per_layer = _span_metrics(_traced_spans(rounds), traced)
        per_layer.update({
            "core.clusters": float(plain[0].clusters),
            "core.untimed_s": quiet([o.untimed_s for o in plain]),
            "ems.decompose_s": notes["decompose_s"],
            "ems.solve_s": notes["solve_s"],
            "ems.mean_fill": notes["mean_fill"],
            "trace.overhead_frac": _overhead(rounds, lambda o: [o.wall_s]),
        })
    return Report(tally, end_to_end, per_layer, notes)


# ---------------------------------------------------------------------- #
# Serving workloads
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class ServingConfig:
    stream: Callable[[int], List[inputs.Operation]]
    #: open-loop offered rate in queries per second; ``None``: one client
    #: sends a snapshot's queries at once and waits for them (closed loop)
    rate: Optional[float]
    server_kwargs: Dict[str, object]
    #: answers must be bitwise equal to the serial reference (else: tolerance)
    bitwise: bool
    #: attach a FactorStore in a fresh directory
    store: bool = False


SERVING: Dict[str, ServingConfig] = {
    "serve-sharded": ServingConfig(
        stream=inputs.cold_stream,
        rate=None,
        server_kwargs={"register_lineage": False, "shards": 2},
        bitwise=True,
    ),
    "serve-hot": ServingConfig(
        stream=inputs.hot_stream,
        rate=150.0,
        server_kwargs={"max_batch": 32, "max_wait_ms": 5.0, "register_lineage": True},
        bitwise=False,
        store=True,
    ),
}


def reference_answers(operations: Sequence[inputs.Operation]) -> List[Optional[np.ndarray]]:
    """Exact answers from a serial planner replaying the stream.

    No lineage is registered, so every answer comes from a cold
    factorization: bitwise what the exact serving contract promises for
    cold and sharded serving, and the exact value refresh approximates.
    """
    planner = QueryPlanner()
    answers: List[Optional[np.ndarray]] = [None] * len(operations)
    pending: List[int] = []

    def flush() -> None:
        if pending:
            batch = [operations[i].query for i in pending]
            for position, answer in zip(pending, planner.run(batch).results):
                answers[position] = answer
            pending.clear()

    for index, operation in enumerate(operations):
        if operation.kind == "query":
            pending.append(index)
        else:
            flush()
    flush()
    return answers


def busiest_share(operations: Sequence[inputs.Operation], shards: int) -> float:
    """Share of the stream's distinct systems the busiest shard owns."""
    router = ShardRouter(shards)
    keys = {
        group.key
        for group in plan_batch([op.query for op in operations if op.kind == "query"]).groups
    }
    owners = Counter(router.shard_of(key) for key in keys)
    return max(owners.values()) / len(keys)


@dataclasses.dataclass
class Phase:
    """One pass of a freshly built stream through one fresh server."""

    #: the stream sent, kept until its answers are checked
    operations: Optional[List[inputs.Operation]]
    is_query: List[bool]
    sent: List[Sent]
    setup_s: float
    wall_s: float
    queue_s: List[float]
    solve_s: List[float]
    batches: int
    batch_failures: int
    resolutions: Dict[str, int]
    cache_info: Dict[str, int]
    dispatch: Dict[str, int]
    store_files: int
    store_bytes: int
    children_kib: float

    def query_records(self) -> List[Sent]:
        return [r for r, query in zip(self.sent, self.is_query) if query]


@dataclasses.dataclass
class ServingRound:
    """The passes of one round: latency is read from the first, capacity
    from the last (a closed-loop round has one pass that gives both)."""

    phases: List[Phase]
    spans: Dict[str, LayerTotals]

    @property
    def latency_phase(self) -> Phase:
        return self.phases[0]

    @property
    def capacity_phase(self) -> Phase:
        return self.phases[-1]


def _sender(server: MeasureServer, operation: inputs.Operation) -> Callable[[], Future]:
    if operation.kind == "query":
        return lambda: server.submit(operation.query)
    if operation.kind == "update":
        return lambda: server.admit_update(operation.snapshot)
    return server.checkpoint


def _schedule(operations: Sequence[inputs.Operation], rate: Optional[float]) -> List[float]:
    """Due offsets of evenly spaced queries at ``rate`` per second
    (``None``: all at once); a write rides the next query's slot."""
    offsets = []
    queries = 0
    for operation in operations:
        offsets.append(queries / rate if rate else 0.0)
        if operation.kind == "query":
            queries += 1
    return offsets


def _bursts(operations: Sequence[inputs.Operation]) -> List[List[int]]:
    """Positions of the stream cut where the snapshot changes; a write is a
    burst of its own."""
    groups: List[List[int]] = []
    previous = None
    for index, operation in enumerate(operations):
        snapshot = operation.query.snapshot if operation.kind == "query" else None
        if snapshot is None or snapshot is not previous:
            groups.append([])
        groups[-1].append(index)
        previous = snapshot
    return groups


def _set_up(
    config: ServingConfig, seed: int, workdir: str
) -> Tuple[List[inputs.Operation], MeasureServer, Optional[str]]:
    """Build the stream and a server: the set-up every pass starts with.

    Returns the stream, the server and the factor store's directory, if any.
    """
    operations = config.stream(seed)
    kwargs = dict(config.server_kwargs)
    root = None
    if config.store:
        root = tempfile.mkdtemp(dir=workdir)
        kwargs["store"] = FactorStore(root)
    return operations, MeasureServer(**kwargs), root


def _run_phase(config: ServingConfig, seed: int, workdir: str, backlog: bool) -> Phase:
    """Set up, then send the stream: as the workload's client does, or with
    ``backlog`` all at once."""
    began = clock()
    operations, server, root = _set_up(config, seed, workdir)
    setup = clock() - began
    senders = [_sender(server, operation) for operation in operations]
    try:
        if config.rate is None and not backlog:
            sent = closed_loop([[senders[i] for i in burst] for burst in _bursts(operations)])
        else:
            rate = None if backlog else config.rate
            sent = open_loop(list(zip(_schedule(operations, rate), senders)))
        stats = server.stats()
        records = server.request_records()
        planner = server.planner
        dispatch = planner.dispatch_info() if hasattr(planner, "dispatch_info") else {}
        children = _children_peak_kib()
    finally:
        server.close()
    store_files = store_bytes = 0
    if root is not None:
        for entry in os.scandir(root):
            if entry.is_file():
                store_files += 1
                store_bytes += entry.stat().st_size
        shutil.rmtree(root, ignore_errors=True)
    return Phase(
        operations=operations,
        is_query=[op.kind == "query" for op in operations],
        sent=sent,
        setup_s=setup,
        wall_s=max(record.done for record in sent) - sent[0].due,
        queue_s=[r.queue for r in records],
        solve_s=[r.solve for r in records],
        batches=stats.batches,
        batch_failures=stats.batch_failures,
        resolutions=dict(stats.resolutions),
        cache_info=dict(stats.planner_cache_info),
        dispatch=dispatch,
        store_files=store_files,
        store_bytes=store_bytes,
        children_kib=children,
    )


def _answer_ok(answer, expected: np.ndarray, bitwise: bool) -> bool:
    if not isinstance(answer, np.ndarray) or answer.shape != expected.shape:
        return False
    if bitwise:
        return answer.tobytes() == expected.tobytes()
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(answer - expected))) <= REFRESH_TOLERANCE * scale


def _check_phase(
    phase: Phase, reference: Sequence[Optional[np.ndarray]], bitwise: bool, tally: Tally
) -> None:
    """Count every operation of ``phase``, then drop its answers.

    Answers and the stream are released as soon as they are checked, so
    the peak resident set does not grow with the number of rounds a run
    fits in.
    """
    for record, operation, expected in zip(phase.sent, phase.operations, reference):
        future = record.future
        if future.exception() is not None:
            tally.record(False)
        elif operation.kind == "query":
            tally.record(_answer_ok(future.result(), expected, bitwise))
        elif operation.kind == "update":
            tally.record(future.result() is operation.snapshot)
        else:
            tally.record(isinstance(future.result(), int) and future.result() > 0)
        record.future = None
    phase.operations = None


def _serving_round(
    config: ServingConfig,
    seed: int,
    workdir: str,
    reference: Sequence[Optional[np.ndarray]],
    tally: Tally,
    traced: bool,
) -> ServingRound:
    with _maybe_traced(traced) as recorder:
        phases = [_run_phase(config, seed, workdir, backlog=False)]
        if config.rate is not None:
            phases.append(_run_phase(config, seed, workdir, backlog=True))
    outcome = ServingRound(phases, recorder.totals() if recorder is not None else {})
    for phase in outcome.phases:
        _check_phase(phase, reference, config.bitwise, tally)
    return outcome


def _serving_layer_metrics(
    rounds: List[Tuple[bool, ServingRound]], operations, shards: int
) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds, per pass of the stream."""
    traced = [outcome for is_traced, outcome in rounds if is_traced]
    phases = [phase for outcome in traced for phase in outcome.phases]
    count = len(phases)
    metrics = _span_metrics(_traced_spans(rounds), count)

    def total(get: Callable[[Phase], float]) -> float:
        return float(sum(get(phase) for phase in phases))

    def info(name: str) -> float:
        return total(lambda p: p.cache_info.get(name, 0))

    batches = total(lambda p: p.batches)
    for tier in TIERS:
        metrics[f"query.tier.{tier}"] = total(lambda p: p.resolutions.get(tier, 0)) / count
    result_lookups = info("result_hits") + info("result_misses")
    factor_lookups = info("hits") + info("misses")
    metrics["query.groups_per_batch"] = total(lambda p: sum(p.resolutions.values())) / batches
    metrics["query.result_hit_rate"] = (
        info("result_hits") / result_lookups if result_lookups else 0.0
    )
    metrics["query.factor_hit_rate"] = info("hits") / factor_lookups if factor_lookups else 0.0
    metrics["query.refresh_fallbacks"] = info("refresh_fallbacks") / count
    # The admission window is measured under the client's load, not a backlog.
    open_phases = [outcome.latency_phase for outcome in traced]
    queue = [q for p in open_phases for q in p.queue_s]
    metrics["serve.queue_p50_ms"] = percentile_of(queue, 0.50) * 1e3
    metrics["serve.queue_p95_ms"] = percentile_of(queue, 0.95) * 1e3
    metrics["serve.solve_p50_ms"] = (
        percentile_of([s for p in open_phases for s in p.solve_s], 0.50) * 1e3
    )
    metrics["serve.batches"] = batches / count
    metrics["serve.mean_batch"] = total(lambda p: len(p.queue_s)) / batches
    metrics["serve.batch_failures"] = total(lambda p: p.batch_failures) / count
    stored = total(lambda p: p.store_files)
    metrics["store.saves"] = info("spills") / count
    metrics["store.saves_per_system"] = info("spills") / stored if stored else 0.0
    metrics["store.bytes"] = total(lambda p: p.store_bytes) / count
    metrics["shard.tasks"] = total(lambda p: p.dispatch.get("tasks_dispatched", 0)) / count
    metrics["shard.task_bytes"] = (
        total(lambda p: p.dispatch.get("task_bytes_shipped", 0)) / count
    )
    metrics["shard.member_bytes"] = (
        total(lambda p: p.dispatch.get("member_bytes_shipped", 0)) / count
    )
    metrics["shard.busiest_share"] = busiest_share(operations, shards) if shards > 1 else 0.0
    return metrics


def _latency_percentile(rounds: Sequence[ServingRound], fraction: float) -> float:
    """Lower decile, over ``rounds``, of each latency pass's percentile."""
    return quiet([
        percentile_of([r.latency for r in outcome.latency_phase.query_records()], fraction)
        for outcome in rounds
    ])


def run_serving(name: str, seed: int, seconds: float, trace: bool, root: str) -> Report:
    config = SERVING[name]
    shards = int(config.server_kwargs.get("shards", 1))
    operations = config.stream(seed)
    reference = reference_answers(operations)
    tally = Tally()
    began = clock()
    # Factor stores live inside the checkout and are removed with the run.
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=root) as workdir:
        rounds = run_rounds(
            seconds - (clock() - began), trace,
            lambda traced: _serving_round(config, seed, workdir, reference, tally, traced),
        )

    phases = [phase for _, o in rounds for phase in o.phases]
    plain = [outcome for traced, outcome in rounds if not traced]
    queries = sum(1 for op in operations if op.kind == "query")
    end_to_end = {
        "setup_s": quiet([phase.setup_s for o in plain for phase in o.phases]),
        "latency_p50_ms": _latency_percentile(plain, 0.50) * 1e3,
        "latency_p95_ms": _latency_percentile(plain, 0.95) * 1e3,
        "capacity_qps": queries / quiet([o.capacity_phase.wall_s for o in plain]),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mib": peak_rss_mib(max(phase.children_kib for phase in phases)),
    }
    lates = [r.late for _, o in rounds for r in o.latency_phase.sent]
    notes = {
        "inputs": inputs.stream_digest(operations),
        "rounds": len(rounds),
        "latency_samples": queries * len(plain),
        "loop": "closed" if config.rate is None else "open",
        "offered_qps": config.rate,
    }
    per_layer: Dict[str, float] = {}
    if trace:
        per_layer = _serving_layer_metrics(rounds, operations, shards)
        per_layer.update({
            "loadgen.late_p95_ms": percentile_of(lates, 0.95) * 1e3,
            "trace.overhead_frac": _overhead(
                rounds, lambda o: [o.capacity_phase.wall_s]
            ),
        })
    else:
        notes["late_p95_ms"] = percentile_of(lates, 0.95) * 1e3
    return Report(tally, end_to_end, per_layer, notes)
