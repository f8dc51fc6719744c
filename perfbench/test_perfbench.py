"""Tests of the benchmark's own machinery (run with the tier-1 suite)."""

from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import Future

import pytest

from perfbench import inputs, spans, workloads
from perfbench.loadgen import closed_loop, open_loop, quiet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("build", [inputs.cold_stream, inputs.hot_stream, inputs.compose_ems])
def test_seed_determines_the_inputs(build):
    first = inputs.stream_digest(build(3))
    assert inputs.stream_digest(build(3)) == first
    assert inputs.stream_digest(build(4)) != first


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)
    with recorder.span("outer"):
        clock.now += 1.0
        with recorder.span("inner"):
            clock.now += 2.0
            with recorder.span("leaf", units=5):
                clock.now += 4.0
        clock.now += 8.0
        with recorder.span("inner"):
            clock.now += 16.0
    totals = recorder.totals()
    assert totals["outer"].total_s == 31.0
    assert totals["outer"].self_s == 31.0 - 6.0 - 16.0
    assert totals["inner"].calls == 2
    assert totals["inner"].total_s == 22.0
    assert totals["inner"].self_s == 22.0 - 4.0
    assert totals["leaf"].self_s == 4.0
    assert totals["leaf"].units == 5
    parents = {span.name: span.parent for span in recorder.spans}
    assert parents["outer"] is None


def test_instrument_wraps_then_restores_every_entry_point():
    before = spans.current_bindings()
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        during = spans.current_bindings()
        for binding, original in before.items():
            assert during[binding] is not original, binding
            assert during[binding].__wrapped__ is original, binding
    assert spans.current_bindings() == before
    for binding, original in before.items():
        assert spans.current_bindings()[binding] is original


def test_instrument_records_layers_of_a_real_call():
    from repro.core.clude import decompose_sequence_clude

    matrices, block = inputs.compose_ems(0)
    with spans.instrument(spans.SpanRecorder()) as recorder:
        result = decompose_sequence_clude(matrices[:4], alpha=0.95)
        result.solve_many(0, block)
    totals = recorder.totals()
    assert totals["lu.ordering"].calls == result.cluster_count
    assert totals["lu.bennett"].calls == 4 - result.cluster_count
    assert totals["lu.sweep"].units == block.shape[1]


def test_lu_layers_count_a_cold_factorization_once():
    # A cold factorization runs symbolic_decomposition inside crout_decompose.
    import repro.core.bf as bf

    matrices, _ = inputs.compose_ems(0)
    with spans.instrument(spans.SpanRecorder()) as recorder:
        began = time.perf_counter()
        bf.crout_decompose(matrices[0])
        wall = time.perf_counter() - began
    metrics = workloads._span_metrics(recorder.totals(), 1)
    assert metrics["lu.symbolic_calls"] == metrics["lu.numeric_calls"] == 1
    assert metrics["lu.symbolic_s"] > 0.0
    assert metrics["lu.symbolic_s"] + metrics["lu.numeric_s"] <= wall


def test_open_loop_latency_counts_from_the_due_time():
    clock = FakeClock()

    def late_sleep(seconds):
        clock.now += seconds + 0.5  # the generator oversleeps by 0.5 s

    def send():
        clock.now += 0.1  # service time
        future = Future()
        future.set_result(None)
        return future

    sent = open_loop([(0.0, send), (1.0, send)], clock=clock, sleep=late_sleep)
    assert sent[1].late == pytest.approx(0.5)
    assert sent[1].latency == pytest.approx(0.6)
    assert sent[1].done - sent[1].sent == pytest.approx(0.1)


def test_metric_names_are_well_formed_and_declared_once():
    declared = _declared()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in declared["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert "setup_s" in names
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert set(workloads._span_metrics({}, 1)) <= per_layer
    assert {w["name"] for w in declared["workloads"]} == {"ems-clude", *workloads.SERVING}


def test_schedule_spaces_queries_and_bursts_cut_per_snapshot():
    operations = inputs.hot_stream(1)[:3] + inputs.cold_stream(1)[12:16]
    # hot: update, query, query; cold: two queries of snapshot 0, two of 1
    assert workloads._schedule(operations, 2.0) == [0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    assert set(workloads._schedule(operations, None)) == {0.0}
    assert workloads._bursts(operations) == [[0], [1, 2], [3, 4], [5, 6]]


def test_closed_loop_sends_a_group_once_the_previous_is_answered():
    clock = FakeClock()

    def send():
        clock.now += 0.25  # service time, answered before the next send
        future = Future()
        future.set_result(None)
        return future

    sent = closed_loop([[send, send], [send]], clock=clock)
    assert [record.due for record in sent] == [0.0, 0.0, 0.5]
    assert [record.latency for record in sent] == [0.25, 0.5, 0.25]
    assert all(record.late == 0.0 for record in sent)


def test_quiet_reads_the_lower_decile():
    assert quiet([float(v) for v in range(20, 0, -1)]) == 2.0
    assert quiet([5.0]) == 5.0
