"""Open-loop load generation and the statistics used for every report.

Independent users do not wait for each other, so the generator sends each
operation at its due time whatever the server is doing; a stalled server
builds a queue.  Latency is timed from the due time, not from the moment
the generator managed to send, so a generator stall is charged to every
request it delayed — and how late the generator ran is reported on its own.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Sequence, Tuple

from _shared import percentile_of

#: Seconds an operation may take before the generator gives up on the run.
TIMEOUT_S = 120.0


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median: always one of the samples."""
    return percentile_of(samples, 0.5)


#: Rank of the repeats a run reads its time figures from: the lower decile.
QUIET_FRACTION = 0.1


def quiet(samples: Sequence[float]) -> float:
    """Lower decile (nearest rank) of a run's repeats of one timing.

    The hosts this benchmark runs on are shared, and a neighbour's load
    only ever slows a repeat down: on a shared 2-vCPU virtual machine the
    same interpreter-bound loop takes from 1.0x to 2.2x its fastest time
    depending on the second it runs in.  A median follows the share of slow
    seconds a run happened to get; the lower decile of many short repeats
    reads the program's speed on the run's quieter seconds (the reasoning
    behind ``timeit``'s best-of-N), while resting on more than the single
    fastest repeat.  Stretches that are slow throughout (20 s to minutes at
    1.6x to 2x on that machine) still move the whole run.  For a rate, pass
    durations and invert.
    """
    return percentile_of(samples, QUIET_FRACTION)


@dataclasses.dataclass
class Sent:
    """One operation the generator sent, with its timing."""

    index: int
    due: float
    sent: float
    future: Future = None
    done: float = math.nan
    stamped: threading.Event = dataclasses.field(default_factory=threading.Event)

    def stamp(self, when: float) -> None:
        self.done = when
        self.stamped.set()

    @property
    def latency(self) -> float:
        """Seconds from the due time to completion."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent after the due time."""
        return self.sent - self.due


def open_loop(
    operations: Sequence[Tuple[float, Callable[[], Future]]],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Sent]:
    """Send each ``(offset_s, send)`` at ``start + offset_s``; wait for all.

    ``send`` submits one operation and returns its future.  Completion is
    stamped by a done-callback, which runs on the thread that resolves the
    future, so the stamp does not wait for this generator.
    """
    start = clock()
    sent: List[Sent] = []
    for index, (offset, send) in enumerate(operations):
        due = start + offset
        pause = due - clock()
        if pause > 0:
            sleep(pause)
        record = Sent(index=index, due=due, sent=clock())
        record.future = send()
        record.future.add_done_callback(lambda _f, r=record: r.stamp(clock()))
        sent.append(record)
    # A future's waiters wake before its callbacks run: wait for the stamp.
    for record in sent:
        if not record.stamped.wait(TIMEOUT_S):
            raise TimeoutError(f"operation {record.index} did not complete in {TIMEOUT_S} s")
    return sent


def closed_loop(
    groups: Sequence[Sequence[Callable[[], Future]]],
    clock: Callable[[], float] = time.perf_counter,
) -> List[Sent]:
    """Send each group's operations at once; the next group once all are done.

    One client that issues a batch of requests and waits for their answers
    before the next: a request's latency is timed from its group's send.
    """
    sent: List[Sent] = []
    for group in groups:
        due = clock()
        records = []
        for send in group:
            record = Sent(index=len(sent), due=due, sent=due)
            record.future = send()
            record.future.add_done_callback(lambda _f, r=record: r.stamp(clock()))
            records.append(record)
            sent.append(record)
        for record in records:
            if not record.stamped.wait(TIMEOUT_S):
                raise TimeoutError(f"operation {record.index} did not complete in {TIMEOUT_S} s")
    return sent
