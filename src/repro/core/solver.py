"""High-level facade: decompose an EMS once, answer many queries fast.

:class:`EMSSolver` wires together the pieces a downstream user needs: pick an
algorithm (BF / INC / CINC / CLUDE), decompose every matrix of an evolving
matrix sequence, and then answer arbitrarily many ``A_i x = b`` queries with
forward/backward substitution — the use case motivating the whole paper
(measure time series over an evolving graph sequence).

When built with graph context (:meth:`EMSSolver.from_graphs`), the solver
also plugs into the query-planning layer: :meth:`EMSSolver.seed_planner`
pre-populates a :class:`~repro.query.planner.QueryPlanner` factor cache with
the sequence's decompositions (one entry per EMS index, under
:meth:`system_token`), and :meth:`plan` / :meth:`execute` answer
heterogeneous measure batches against those factors with zero extra
factorizations — every planner lookup is a counted cache hit.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.bf import decompose_sequence_bf
from repro.core.cinc import decompose_sequence_cinc
from repro.core.clude import decompose_sequence_clude
from repro.core.inc import decompose_sequence_inc
from repro.core.result import SequenceResult
from repro.errors import MeasureError
from repro.exec.executors import Executor
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.matrixkind import DEFAULT_DAMPING, MatrixKind
from repro.graphs.snapshot import GraphSnapshot
from repro.query.batch import QueryBatch
from repro.query.planner import BatchResult, QueryPlan, QueryPlanner
from repro.query.spec import FactorizedSystem, Query, SystemKey

if TYPE_CHECKING:
    from repro.policy import ReusePolicy

#: Signature of a sequence decomposition routine.
SequenceAlgorithm = Callable[..., SequenceResult]

#: The algorithm registry keyed by canonical (upper-case) name.
ALGORITHMS: Dict[str, SequenceAlgorithm] = {
    "BF": decompose_sequence_bf,
    "INC": decompose_sequence_inc,
    "CINC": decompose_sequence_cinc,
    "CLUDE": decompose_sequence_clude,
}


def available_algorithms() -> List[str]:
    """Return the names of the registered sequence-decomposition algorithms."""
    return sorted(ALGORITHMS)


class EMSSolver:
    """Decompose an evolving matrix sequence and answer linear-system queries.

    Parameters
    ----------
    ems:
        The evolving matrix sequence.
    algorithm:
        One of :func:`available_algorithms` (case insensitive); defaults to
        ``"CLUDE"``.
    alpha:
        Similarity threshold for the cluster-based algorithms.
    executor:
        How to schedule the decomposition's work units: ``None`` (default)
        runs serially in-process, an ``int`` is a process-pool worker count,
        or pass an :class:`~repro.exec.executors.Executor` instance.  The
        decomposition is bitwise-identical regardless of the executor.
    policy:
        Reuse policy installed on planners this solver creates
        (:meth:`seed_planner` / :attr:`planner`).  ``None`` (default) keeps
        serving exact; a :class:`~repro.policy.qc.QCPolicy` lets batches
        against snapshots *near* the decomposed sequence be answered from
        the seeded factors within the policy's similarity/loss gates.

    Examples
    --------
    >>> from repro.graphs import generate_synthetic_egs, SyntheticEGSConfig
    >>> from repro.graphs import EvolvingMatrixSequence
    >>> egs = generate_synthetic_egs(SyntheticEGSConfig(nodes=60, edge_pool_size=360,
    ...                                                 average_degree=3, delta_edges=10,
    ...                                                 snapshots=5))
    >>> ems = EvolvingMatrixSequence.from_graphs(egs)
    >>> solver = EMSSolver(ems, algorithm="CLUDE", alpha=0.9)
    >>> result = solver.decompose()
    >>> len(result) == len(ems)
    True
    """

    def __init__(
        self,
        ems: EvolvingMatrixSequence,
        algorithm: str = "CLUDE",
        alpha: float = 0.95,
        executor: Union[Executor, int, None] = None,
        policy: Optional["ReusePolicy"] = None,
    ) -> None:
        name = algorithm.upper()
        if name not in ALGORITHMS:
            raise MeasureError(
                f"unknown algorithm {algorithm!r}; available: {', '.join(available_algorithms())}"
            )
        self._ems = ems
        self._algorithm_name = name
        self._alpha = alpha
        self._executor = executor
        self._policy = policy
        self._result: Optional[SequenceResult] = None
        # Graph context (snapshots + matrix kind + damping) is only ever set
        # by from_graphs, which composes the EMS itself — so the context can
        # never disagree with how the matrices were actually built.
        self._egs: Optional[EvolvingGraphSequence] = None
        self._kind: MatrixKind = MatrixKind.RANDOM_WALK
        self._damping: float = DEFAULT_DAMPING
        self._planner: Optional[QueryPlanner] = None

    @classmethod
    def from_graphs(
        cls,
        egs: EvolvingGraphSequence,
        kind: MatrixKind = MatrixKind.RANDOM_WALK,
        damping: float = DEFAULT_DAMPING,
        algorithm: str = "CLUDE",
        alpha: float = 0.95,
        executor: Union[Executor, int, None] = None,
        policy: Optional["ReusePolicy"] = None,
    ) -> "EMSSolver":
        """Build the solver from a graph sequence, keeping the graph context.

        The context (snapshots, matrix kind, damping) is what lets the
        solver seed query planners and answer measure batches directly; an
        EMS alone cannot, because queries are phrased against snapshots.
        This is the only way to attach graph context: the EMS is composed
        here from exactly that context, so the seeded factors always belong
        to the matrices the queries describe.
        """
        ems = EvolvingMatrixSequence.from_graphs(egs, kind=kind, damping=damping)
        solver = cls(
            ems, algorithm=algorithm, alpha=alpha, executor=executor, policy=policy
        )
        solver._egs = egs
        solver._kind = kind
        solver._damping = damping
        return solver

    @property
    def ems(self) -> EvolvingMatrixSequence:
        """The matrix sequence being solved."""
        return self._ems

    @property
    def algorithm(self) -> str:
        """The selected algorithm name."""
        return self._algorithm_name

    @property
    def result(self) -> Optional[SequenceResult]:
        """The decomposition result, or ``None`` before :meth:`decompose` runs."""
        return self._result

    def decompose(self) -> SequenceResult:
        """Run the selected algorithm over the EMS (idempotent)."""
        if self._result is None:
            runner = ALGORITHMS[self._algorithm_name]
            if self._algorithm_name in ("CINC", "CLUDE"):
                self._result = runner(
                    list(self._ems), alpha=self._alpha, executor=self._executor
                )
            else:
                self._result = runner(list(self._ems), executor=self._executor)
        return self._result

    def solve(self, index: int, b: Sequence[float]) -> np.ndarray:
        """Solve ``A_index x = b`` (decomposing first if necessary)."""
        result = self.decompose()
        return result.solve(index, b)

    def solve_many(self, index: int, block) -> np.ndarray:
        """Solve ``A_index X = B`` for an ``(n, k)`` block of right-hand sides.

        One batched forward/backward sweep answers all ``k`` queries; each
        result column is bitwise identical to :meth:`solve` of that column.
        """
        result = self.decompose()
        return result.solve_many(index, block)

    def solve_series(self, b: Sequence[float]) -> np.ndarray:
        """Solve every snapshot against the same right-hand side.

        Returns an array of shape ``(T, n)`` whose row ``i`` is the solution
        for snapshot ``i`` — the raw material of a measure time series.
        """
        result = self.decompose()
        return np.array(result.solve_all(b))

    def solve_series_batched(self, block) -> np.ndarray:
        """Solve every snapshot against an ``(n, k)`` block of right-hand sides.

        Issues one batched solve per snapshot instead of ``k`` scalar solves —
        the fast path for multi-seed PageRank/RWR/PPR time series.  Returns an
        array of shape ``(T, n, k)``; slice ``[:, :, c]`` is bitwise identical
        to :meth:`solve_series` of column ``c``.
        """
        result = self.decompose()
        return np.array(result.solve_all_many(block))

    # ------------------------------------------------------------------ #
    # Query-planner integration
    # ------------------------------------------------------------------ #
    def system_token(self, index: int) -> Tuple[Hashable, ...]:
        """Return the system-key token pinning a query to EMS index ``index``.

        Tokens are per-index (not per-content), so an EGS that repeats a
        snapshot still resolves each index to exactly the factors the
        decomposition stored for it.
        """
        if not 0 <= index < len(self._ems):
            raise MeasureError(f"snapshot index {index} out of bounds for T={len(self._ems)}")
        return ("ems", id(self), int(index))

    def seed_planner(self, planner: Optional[QueryPlanner] = None) -> QueryPlanner:
        """Seed a query planner's factor cache with this solver's factors.

        One :class:`~repro.query.spec.FactorizedSystem` per EMS index is
        installed under ``(system_token(i), kind, damping)``, so planner
        groups that target this sequence are answered without any new
        factorization — the measure-series fast path.  Each token is also
        bound to its snapshot (:meth:`QueryPlanner.bind_snapshot`), so an
        approximate reuse policy can score the seeded systems as candidates
        for answering *similar* snapshots beyond the sequence.  Requires
        graph context (:meth:`from_graphs`): a bare-EMS solver cannot know
        which ``(kind, damping)`` its matrices encode, and seeding under a
        guessed key would answer queries from the wrong system.  The
        solver's ``policy`` only applies when a fresh planner is created
        here; an existing planner keeps its own policy.  The solver's
        ``executor`` schedules :meth:`decompose` only: planner misses are
        resolved in-process.
        """
        if self._egs is None:
            raise MeasureError(
                "this EMSSolver has no graph context; build it with "
                "EMSSolver.from_graphs to seed query planners"
            )
        result = self.decompose()
        if planner is None:
            planner = QueryPlanner(policy=self._policy)
        for index, matrix in enumerate(self._ems):
            decomposition = result[index]
            token = self.system_token(index)
            planner.cache.seed(
                SystemKey(
                    system=token,
                    kind=self._kind,
                    damping=self._damping,
                ),
                FactorizedSystem(matrix, decomposition.ordering, decomposition.factors),
            )
            planner.bind_snapshot(token, self._egs[index])
        return planner

    @property
    def planner(self) -> QueryPlanner:
        """The lazily-seeded query planner bound to this solver's factors."""
        if self._planner is None:
            self._planner = self.seed_planner()
        return self._planner

    def register_evolution(
        self,
        new_snapshot: GraphSnapshot,
        from_index: Optional[int] = None,
    ) -> QueryPlanner:
        """Register ``new_snapshot`` as an evolution of one decomposed snapshot.

        The serving continuation of a measure series: when the graph keeps
        evolving after the sequence was decomposed, queries against the
        evolved head should not pay a cold factorization.  This registers a
        lineage from EMS index ``from_index`` (default: the last index) to
        ``new_snapshot`` on the bound planner, so the first batch touching
        ``new_snapshot`` Bennett-refreshes the seeded factors of that index
        — answers match a cold factorization within numerical tolerance (the
        refresh may also fall back, e.g. when CLUDE's static pattern cannot
        absorb the delta's fill-in; see ``cache_info()``'s counters).

        Returns the bound planner for chaining/inspection.
        """
        if self._egs is None:
            raise MeasureError(
                "this EMSSolver has no graph context; build it with "
                "EMSSolver.from_graphs to register snapshot evolutions"
            )
        index = len(self._ems) - 1 if from_index is None else int(from_index)
        if not 0 <= index < len(self._ems):
            raise MeasureError(
                f"snapshot index {index} out of bounds for T={len(self._ems)}"
            )
        planner = self.planner
        planner.register_evolution(
            self._egs[index], new_snapshot, old_system=self.system_token(index)
        )
        return planner

    def planner_cache_info(self) -> Dict[str, int]:
        """Per-group factor-cache statistics of the bound planner."""
        return self.planner.cache_info()

    def _attach_tokens(self, batch: Union[QueryBatch, Sequence[Query]]) -> QueryBatch:
        """Pin batch queries to this solver's factors where possible.

        Queries without an explicit ``system_token`` whose snapshot is one of
        the solver's snapshots (content match, first index wins) and whose
        ``(kind, damping)`` agree with the solver's are rewritten to that
        index's token; everything else is left untouched and will be
        factorized on demand by the planner.
        """
        if self._egs is None:
            raise MeasureError(
                "this EMSSolver has no graph context; build it with "
                "EMSSolver.from_graphs to plan measure queries"
            )
        index_of = {}
        for index, snapshot in enumerate(self._egs):
            index_of.setdefault(snapshot, index)
        from repro.query.spec import get_spec

        queries: List[Query] = []
        for query in batch:
            spec = get_spec(query.measure)
            if (
                query.system_token is None
                and query.damping == self._damping
                and spec.kind is self._kind
                and spec.build_matrix is None
                and not spec.matrix_params
                and query.snapshot in index_of
            ):
                query = dataclasses.replace(
                    query, system_token=self.system_token(index_of[query.snapshot])
                )
            queries.append(query)
        return QueryBatch(queries)

    def plan(self, batch: Union[QueryBatch, Sequence[Query]]) -> QueryPlan:
        """Group a measure batch against this solver's factor cache."""
        return self.planner.plan(self._attach_tokens(batch))

    def execute(self, plan: QueryPlan) -> BatchResult:
        """Execute a planned batch through the seeded planner."""
        return self.planner.execute(plan)

    def run_batch(self, batch: Union[QueryBatch, Sequence[Query]]) -> BatchResult:
        """Plan and execute a measure batch in one call."""
        return self.execute(self.plan(batch))

    def verify(self, tolerance: float = 1e-7) -> float:
        """Return the maximum solve residual across snapshots for a probe query.

        A cheap end-to-end self-check: solves each snapshot against the
        all-ones right-hand side and reports ``max_i ||A_i x_i - b||_inf``.
        """
        result = self.decompose()
        b = np.ones(self._ems.n, dtype=float)
        worst = 0.0
        for index, matrix in enumerate(self._ems):
            x = result.solve(index, b)
            residual = float(np.max(np.abs(matrix.matvec(x) - b)))
            worst = max(worst, residual)
        if worst > tolerance:
            raise MeasureError(
                f"solver verification failed: residual {worst} exceeds tolerance {tolerance}"
            )
        return worst
