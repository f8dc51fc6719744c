"""Execution engine: plan a sequence decomposition, run it serially or in parallel.

The cluster partition the paper's algorithms build is an exact parallelism
boundary; this package turns it into an execution plan of independent work
units and provides two interchangeable executors — :class:`SerialExecutor`
(the default, reproducing historical behaviour) and
:class:`ParallelExecutor` (a process pool), whose outputs are
bitwise-identical by construction and by differential test.
"""

from repro.exec.executors import (
    ExecutionOutcome,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    canonical_sequence_state,
    merge_unit_results,
    reduce_timings,
    resolve_executor,
)
from repro.exec.plan import (
    PLANNABLE_ALGORITHMS,
    ExecutionPlan,
    WorkUnit,
    plan_bf,
    plan_clustered,
    plan_inc,
)
from repro.exec.units import UnitResult, execute_unit

__all__ = [
    "PLANNABLE_ALGORITHMS",
    "ExecutionPlan",
    "WorkUnit",
    "plan_bf",
    "plan_inc",
    "plan_clustered",
    "UnitResult",
    "execute_unit",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ExecutionOutcome",
    "canonical_sequence_state",
    "merge_unit_results",
    "reduce_timings",
    "resolve_executor",
]
