"""The resolution ladder: how a planned miss group gets its answer.

The paper's contribution is a *ladder* of ways to answer a proximity query
over an evolving-graph sequence — exact cached factors, quality-controlled
reuse of a similar snapshot's factors, rank-``k`` corrected reuse, Bennett
delta refresh, cold factorization.  This module makes that ladder a
first-class object instead of six private planner methods:

* :class:`ResolutionTier` — the uniform step interface:
  ``try_resolve(group, ctx) -> Resolution | None``.  A tier either serves
  the group (returning *how* in a :class:`Resolution`) or passes it down.
* Six concrete tiers, in serving-precedence order: :class:`HitTier`,
  :class:`StoreRestoreTier`, :class:`VerbatimReuseTier`,
  :class:`CorrectedReuseTier`, :class:`RefreshTier`, :class:`ColdTier`.
* :class:`CandidateScan` — the memoized scan over cached system keys that
  the two reuse tiers share (one scan discipline, two scoring rules).
* :class:`ResolutionLadder` — the ordered walk.  Stages run *tier-major*
  (every pending group through one tier before the next tier sees the
  leftovers) except the hit/store-restore pair, which is fused
  *group-major* so a store restore lands between the neighbouring groups'
  memory lookups exactly as :meth:`FactorCache.lookup` interleaved them —
  the cache's LRU recency order (and with it the reuse tiers'
  deterministic tie-breaking) is part of the bitwise contract.

The ladder reports per-tier serve counts under the tier *names*
(``resolutions={tier_name: count}`` in
:class:`~repro.query.planner.PlannerStats`); the historical counters
(``cache_hits``, ``qc_reuses``, ``corrected_reuses``, ``refreshes``,
``factorizations``) are derived views of that mapping.
"""

from __future__ import annotations

import abc
import dataclasses
from collections import OrderedDict
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

from repro.errors import FactorizationError, MeasureError, SingularMatrixError
from repro.graphs.delta import GraphDelta
from repro.graphs.matrixkind import MatrixKind, damping_delta, system_delta
from repro.graphs.snapshot import GraphSnapshot
from repro.lu.smw import WoodburyCorrector
from repro.query.cache import FactorCache, apply_refresh_delta
from repro.query.spec import FactorizedSystem, SystemKey, get_spec
from repro.sparse.types import Entries

if TYPE_CHECKING:  # runtime imports are lazy (repro.policy sits above this
    # package) or would be circular (the planner imports this module).
    from repro.policy import CorrectionDecision, ReuseDecision, ReusePolicy
    from repro.query.planner import PlannedGroup


@dataclasses.dataclass(frozen=True)
class ApproximationRecord:
    """Audit trail of one QC-approximated group: what was traded, for what.

    Every batch answered under an approximate :class:`~repro.policy.base.
    ReusePolicy` reports one record per group that was served from another
    system's factors, so callers can see exactly which positions of the
    result are approximate and at what certified cost.

    Attributes
    ----------
    positions:
        Batch positions answered from the reused factors.
    system:
        The :class:`~repro.query.spec.SystemKey` identity the queries asked
        for (snapshot or sequence token).
    parent_system:
        The identity of the cached system that actually answered.
    similarity:
        Snapshot similarity the candidate passed (``>= policy alpha``).
    loss_estimate:
        Certified relative-deviation bound of the raw answers
        (``<= policy loss bound``); see
        :func:`repro.core.quality.reuse_loss_bound`.
    policy:
        Name of the policy that licensed the approximation.
    rank:
        Number of delta columns applied exactly by a Sherman–Morrison–
        Woodbury correction over the parent's factors (``0`` for verbatim
        reuse — the parent's answer served unchanged).
    mode:
        How the group was served: ``"verbatim"`` (step-2 policy reuse),
        ``"corrected"`` (rank-``k`` corrected reuse across snapshots) or
        ``"cross-damping"`` (same snapshot answered across damping factors,
        possibly corrected).
    """

    positions: Tuple[int, ...]
    system: Hashable
    parent_system: Hashable
    similarity: float
    loss_estimate: float
    policy: str
    rank: int = 0
    mode: str = "verbatim"


@dataclasses.dataclass(frozen=True)
class Resolution:
    """How one planned group gets answered: the tier's verdict.

    Attributes
    ----------
    tier:
        Name of the :class:`ResolutionTier` that served the group — the key
        its serve is counted under in ``PlannerStats.resolutions``.
    solver:
        The object whose :meth:`solve_many` answers the group's RHS block —
        the group's own :class:`~repro.query.spec.FactorizedSystem`, a
        borrowed parent system, or a :class:`~repro.lu.smw.
        WoodburyCorrector`.
    cache_base:
        The system key finalized answers are result-cached under: the
        group's own key for exact tiers, the *parent's* key for verbatim
        reuse (the answers are, byte for byte, the parent's own), ``None``
        to bypass the result cache (rank-``k`` corrected answers belong to
        no cached system).
    approximate:
        Whether the answers are policy approximations (the reuse tiers);
        finalize steps that read the query's own snapshot then bypass the
        result cache.
    record:
        The audit record for approximate serves, ``None`` otherwise.
    """

    tier: str
    solver: FactorizedSystem
    cache_base: Optional[SystemKey]
    approximate: bool = False
    record: Optional[ApproximationRecord] = None


@dataclasses.dataclass
class ResolutionContext:
    """Planner collaborators a tier may consult while resolving a group.

    One context is built per :meth:`~repro.query.planner.QueryPlanner.
    execute` call and threaded through every tier — tiers hold no planner
    state of their own beyond their scan memos.
    """

    #: the planner's factor cache (lookups, peeks, refresh commits)
    cache: FactorCache
    #: the reuse policy gating the approximate tiers
    policy: "ReusePolicy"
    #: whether a lineage-less miss may scan for the nearest cached parent
    auto_refresh: bool
    #: registered evolutions: new system identity -> (old identity, old, new)
    lineage: Dict[Hashable, Tuple[Hashable, GraphSnapshot, GraphSnapshot]]
    #: resolves a cached key to the snapshot its system was composed from
    snapshot_of: Callable[[SystemKey], Optional[GraphSnapshot]]


class CandidateScan:
    """The memoized cached-key scan the two reuse tiers share.

    Both reuse tiers answer a miss group from a cached *candidate* system:
    they iterate the cached keys, skip structurally ineligible ones (other
    matrix kinds, parameterized or custom-built matrices, unknown or
    differently-sized snapshots), score the rest through a tier-specific
    rule, and keep the policy-preferred decision — ties keep the
    first-seen candidate, so the scan is deterministic for a given cache
    state (the cache's LRU order is the iteration order).

    Scan outcomes — including "no candidate" — are memoized per ``(kind,
    damping, child snapshot)`` until :meth:`clear` (the planner clears on
    any factor-cache change or snapshot binding), so steady-state repeated
    batches pay the full delta-scoring scan once, not per batch.  The memo
    is LRU-bounded at :data:`MEMO_LIMIT` distinct combinations.
    """

    #: Bound on the candidate-scan memo (distinct (kind, damping, child)
    #: combinations remembered between cache changes).
    MEMO_LIMIT = 128

    def __init__(self) -> None:
        self._memo: "OrderedDict[Tuple, Optional[Tuple]]" = OrderedDict()

    def clear(self) -> None:
        """Forget every memoized outcome (the candidate set changed)."""
        self._memo.clear()

    def lookup(
        self,
        group: "PlannedGroup",
        ctx: ResolutionContext,
        score: Callable[[SystemKey, GraphSnapshot, GraphSnapshot], Optional[Tuple]],
        finalize: Optional[Callable[[Tuple], Optional[Tuple]]] = None,
    ) -> Optional[Tuple]:
        """Return the memoized (or freshly scanned) best candidate outcome.

        ``score(candidate_key, parent_snapshot, child_snapshot)`` returns
        ``None`` to reject a candidate or a tuple whose second element is
        the policy decision (arbitrated via ``decision.preferable_to``).
        ``finalize`` maps the winning tuple to the memoized value — e.g.
        building the Woodbury corrector once so the memo holds the
        expensive part; it may return ``None`` (memoized as "no
        candidate").
        """
        key = group.key
        if key.matrix_builder is not None or key.matrix_params:
            return None
        child = group.queries[0].snapshot
        memo_key = (key.kind, key.damping, child)
        if memo_key in self._memo:
            self._memo.move_to_end(memo_key)
            return self._memo[memo_key]
        best: Optional[Tuple] = None
        for candidate in ctx.cache.keys():
            if (
                candidate.kind is not key.kind
                or candidate.matrix_params
                or candidate.matrix_builder is not None
            ):
                continue
            parent = ctx.snapshot_of(candidate)
            if parent is None or parent.n != child.n:
                continue
            scored = score(candidate, parent, child)
            if scored is None:
                continue
            if best is None or scored[1].preferable_to(best[1]):
                best = scored
        found = best if finalize is None else (
            None if best is None else finalize(best)
        )
        self._memo[memo_key] = found
        while len(self._memo) > self.MEMO_LIMIT:
            self._memo.popitem(last=False)
        return found


class ResolutionTier(abc.ABC):
    """One rung of the ladder: serve a group or pass it down.

    Tiers are stateless between batches except for scan memos (cleared
    through :meth:`clear_memos` whenever the factor cache changes).  The
    bulk tiers (:class:`RefreshTier`, :class:`ColdTier`) override
    :meth:`resolve_batch` to work through all their groups in one pass;
    their ``try_resolve`` is the singleton special case.
    """

    #: the tier's stable name: its key in ``PlannerStats.resolutions``
    name: str = ""

    @abc.abstractmethod
    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        """Serve ``group`` from this tier, or return ``None`` to fall through."""

    def resolve_batch(
        self, groups: Sequence["PlannedGroup"], ctx: ResolutionContext
    ) -> Tuple[Dict[SystemKey, Resolution], List["PlannedGroup"]]:
        """Walk ``groups`` through this tier in order.

        Returns the resolutions keyed by group key (insertion order = group
        order) and the groups falling through to the next tier, their
        relative order preserved.
        """
        resolved: Dict[SystemKey, Resolution] = {}
        remaining: List["PlannedGroup"] = []
        for group in groups:
            resolution = self.try_resolve(group, ctx)
            if resolution is None:
                remaining.append(group)
            else:
                resolved[group.key] = resolution
        return resolved, remaining

    def clear_memos(self) -> None:
        """Drop any memoized scan state (the candidate set changed)."""


class HitTier(ResolutionTier):
    """Serve a group whose own factors are cached in memory (precedence 1)."""

    name = "hit"

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        system = ctx.cache.lookup_memory(group.key)
        if system is None:
            return None
        return Resolution(tier=self.name, solver=system, cache_base=group.key)


class StoreRestoreTier(ResolutionTier):
    """Restore a memory-missed group's factors from the disk store.

    Must run fused group-major right after :class:`HitTier` (the default
    ladder does): :meth:`FactorCache.restore_from_store` refines the miss
    that :meth:`FactorCache.lookup_memory` just counted, and the restore's
    install must land between the neighbouring groups' memory lookups to
    preserve the cache's exact LRU recency order.  A no-op without a store.
    """

    name = "store_restore"

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        system = ctx.cache.restore_from_store(group.key)
        if system is None:
            return None
        return Resolution(tier=self.name, solver=system, cache_base=group.key)


class VerbatimReuseTier(ResolutionTier):
    """Answer from a similar cached system's factors *unchanged* (precedence 3).

    The paper's bounded quality-loss trade applied to serving: an
    approximate :class:`~repro.policy.base.ReusePolicy` (e.g.
    :class:`~repro.policy.qc.QCPolicy`) licenses serving a miss group from
    a cached similar snapshot's factors outright — no numerical work, an
    :class:`ApproximationRecord` in the audit trail.  Exact policies skip
    this tier entirely.  The borrowed system is deliberately NOT installed
    in the factor cache under the miss key: the cache maps a key to factors
    of *that* system, and aliasing would turn a bounded approximation into
    a silent cache hit.
    """

    name = "verbatim_reuse"

    def __init__(self) -> None:
        self._scan = CandidateScan()

    def clear_memos(self) -> None:
        self._scan.clear()

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        if ctx.policy.is_exact:
            return None
        found = self._scan.lookup(group, ctx, self._scorer(group.key, ctx))
        if found is None:
            return None
        parent_key, decision = found
        system = ctx.cache.peek(parent_key)
        if system is None:  # pragma: no cover - memo cleared on eviction
            return None
        # Freshen recency (the parent is in active use) without touching
        # the pinned per-group hit/miss accounting.
        ctx.cache.touch(parent_key)
        return Resolution(
            tier=self.name,
            solver=system,
            cache_base=parent_key,
            approximate=True,
            record=ApproximationRecord(
                positions=group.positions,
                system=group.key.system,
                parent_system=parent_key.system,
                similarity=decision.similarity,
                loss_estimate=decision.loss_estimate,
                policy=ctx.policy.name,
            ),
        )

    @staticmethod
    def _scorer(
        key: SystemKey, ctx: ResolutionContext
    ) -> Callable[[SystemKey, GraphSnapshot, GraphSnapshot], Optional[Tuple]]:
        """Build the scan's scoring rule: same damping, policy-admitted.

        Only kind-composed keys participate (the scan already filters
        those); the decision is the policy's
        :meth:`~repro.policy.base.ReusePolicy.evaluate_reuse` over the full
        snapshot delta.
        """

        def score(
            candidate: SystemKey, parent: GraphSnapshot, child: GraphSnapshot
        ) -> Optional[Tuple[SystemKey, "ReuseDecision"]]:
            if candidate.damping != key.damping:
                return None
            if not ctx.policy.prefilter(parent, child):
                return None
            delta = GraphDelta.between(parent, child)
            decision = ctx.policy.evaluate_reuse(
                parent, child, kind=key.kind, damping=key.damping, delta=delta
            )
            if decision is None:
                return None
            return (candidate, decision)

        return score


class CorrectedReuseTier(ResolutionTier):
    """Answer via rank-``k`` SMW correction of a cached system (precedence 4).

    Two candidate families share the scan, the bound machinery and the
    memo:

    * **same damping, different snapshot** — the verbatim scan's
      candidates, but judged by :meth:`~repro.policy.base.ReusePolicy.
      correct` against the *residual* of ``ΔA = system_delta(parent,
      child)`` after its ``k`` dominant columns, instead of against the
      full delta;
    * **same snapshot, different damping** — a cached ``(kind, snapshot,
      d')`` system whose delta to the miss is ``(d' - d)·M``
      (:func:`~repro.graphs.matrixkind.damping_delta`).  The corrected
      system mixes columns damped at ``d`` and ``d'``, so the
      conservative amplification constant ``1/(1 - max(d, d'))`` is
      certified (the Laplacian ignores damping entirely: its delta is
      empty and the reuse exact).

    The memo entry holds the *built* corrector (its setup sweeps are the
    expensive part), so steady-state repeated batches pay them once; any
    factor-cache change clears the memo, which also guarantees a held
    corrector never outlives the factors it wraps.  A candidate whose
    capacitance is singular or ill-conditioned is discarded (falls
    through to refresh / cold) rather than served.
    """

    name = "corrected_reuse"

    def __init__(self) -> None:
        self._scan = CandidateScan()

    def clear_memos(self) -> None:
        self._scan.clear()

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        if not getattr(ctx.policy, "supports_correction", False):
            return None
        key = group.key
        certifies = getattr(ctx.policy, "certifies_kind", None)
        if certifies is not None and not certifies(key.kind):
            return None
        found = self._scan.lookup(
            group,
            ctx,
            self._scorer(key, ctx),
            finalize=lambda best: self._build_correction(ctx, *best),
        )
        if found is None:
            return None
        parent_key, decision, mode, solver, cache_base = found
        if decision.rank == 0 and ctx.cache.peek(parent_key) is None:
            # pragma: no cover - memo cleared on eviction
            return None
        # Freshen recency (the parent's factors are in active use; a
        # rank-k corrector reads them on every batch) without touching
        # the pinned per-group hit/miss accounting.
        ctx.cache.touch(parent_key)
        return Resolution(
            tier=self.name,
            solver=solver,
            cache_base=cache_base,
            approximate=True,
            record=ApproximationRecord(
                positions=group.positions,
                system=group.key.system,
                parent_system=parent_key.system,
                similarity=decision.similarity,
                loss_estimate=decision.loss_estimate,
                policy=ctx.policy.name,
                rank=decision.rank,
                mode=mode,
            ),
        )

    @staticmethod
    def _scorer(
        key: SystemKey, ctx: ResolutionContext
    ) -> Callable[[SystemKey, GraphSnapshot, GraphSnapshot], Optional[Tuple]]:
        """Build the scan's scoring rule: residual-correction decisions."""
        from repro.core.similarity import snapshot_similarity

        def score(
            candidate: SystemKey, parent: GraphSnapshot, child: GraphSnapshot
        ) -> Optional[Tuple]:
            if candidate.damping == key.damping:
                if not ctx.policy.prefilter(parent, child):
                    return None
                delta = GraphDelta.between(parent, child)
                similarity = snapshot_similarity(parent, child, delta=delta)
                entries = system_delta(
                    parent, child, kind=key.kind, damping=key.damping, delta=delta
                )
                mode = "corrected"
                amplifier = (
                    0.0 if key.kind is MatrixKind.LAPLACIAN else key.damping
                )
            else:
                if parent != child:
                    return None
                entries = damping_delta(
                    child,
                    key.kind,
                    from_damping=candidate.damping,
                    to_damping=key.damping,
                )
                similarity = 1.0
                mode = "cross-damping"
                amplifier = (
                    0.0
                    if key.kind is MatrixKind.LAPLACIAN
                    else max(key.damping, candidate.damping)
                )
            decision = ctx.policy.correct(
                entries, amplifier_damping=amplifier, similarity=similarity
            )
            if decision is None:
                return None
            return (candidate, decision, mode, entries)

        return score

    @staticmethod
    def _build_correction(
        ctx: ResolutionContext,
        parent_key: SystemKey,
        decision: "CorrectionDecision",
        mode: str,
        entries: Entries,
    ) -> Optional[Tuple]:
        """Materialize a licensed correction into a servable solver.

        Rank 0 needs no numerical setup: the parent's system answers as-is
        (verbatim-grade sharing, cache base = parent key).  Rank ``k``
        gathers the decision's columns of ``ΔA`` into a dense ``(n, k)``
        update block and builds the :class:`~repro.lu.smw.WoodburyCorrector`
        (``k`` triangular sweeps + the capacitance factorization, paid once
        per memo lifetime).  Returns ``None`` when the parent vanished or
        the capacitance check fails — the group then falls through to
        refresh / cold, never serving an uncertified answer.
        """
        parent_system = ctx.cache.peek(parent_key)
        if parent_system is None:  # pragma: no cover - scan just saw the key
            return None
        if decision.rank == 0:
            return (parent_key, decision, mode, parent_system, parent_key)
        n = parent_system.matrix.n
        update = np.zeros((n, decision.rank), dtype=float)
        offsets = {column: t for t, column in enumerate(decision.columns)}
        for (row, column), value in entries.items():
            t = offsets.get(column)
            if t is not None:
                update[row, t] += value
        try:
            corrector = WoodburyCorrector(
                parent_system.factors,
                parent_system.ordering,
                update,
                decision.columns,
            )
        except SingularMatrixError:
            return None
        return (parent_key, decision, mode, corrector, None)


class RefreshTier(ResolutionTier):
    """Bennett-refresh miss groups from their cached lineage parents (precedence 5).

    A bulk tier: each wave prepares every refreshable group's clone, then
    applies the deltas (:func:`~repro.query.cache.apply_refresh_delta`) and
    commits in group order.  Refreshed systems are committed to the factor
    cache under their new keys (unlike the reuse tiers' borrowed factors, a
    refreshed system IS the miss key's system).
    """

    name = "refresh"

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        resolved, _ = self.resolve_batch([group], ctx)
        return resolved.get(group.key)

    def resolve_batch(
        self, groups: Sequence["PlannedGroup"], ctx: ResolutionContext
    ) -> Tuple[Dict[SystemKey, Resolution], List["PlannedGroup"]]:
        """Refresh the groups that have a cached lineage parent.

        Returns the refreshed resolutions and the groups still needing a
        cold factorization — including any whose prepared refresh broke
        down numerically.

        Refreshes run in waves: a group whose registered parent is not
        cached *yet* may be the next link of a lineage chain whose earlier
        link is refreshing in this same batch, so it is deferred until a
        wave commits nothing new.  A group whose lineage parent never
        materializes counts a ``refresh_fallbacks`` (matching
        :meth:`FactorCache.refresh` on a missing parent) and factorizes
        cold.
        """
        resolved: Dict[SystemKey, Resolution] = {}
        cold: List["PlannedGroup"] = []
        pending = list(groups)
        record_provenance = ctx.cache.disk_store is not None
        while pending:
            jobs = []
            deferred: List["PlannedGroup"] = []
            for group in pending:
                parent = self._refresh_parent(group.key, ctx)
                if parent is None:
                    if self._has_lineage(group.key, ctx):
                        deferred.append(group)
                    else:
                        cold.append(group)
                    continue
                old_key, old_snapshot, new_snapshot, graph_delta = parent
                entries = system_delta(
                    old_snapshot,
                    new_snapshot,
                    kind=group.key.kind,
                    damping=group.key.damping,
                    delta=graph_delta,
                )
                working = ctx.cache.prepare_refresh(old_key, entries)
                if working is None:
                    cold.append(group)
                    continue
                query = group.queries[0]
                new_matrix = get_spec(query.measure).system_matrix(
                    query.snapshot, query.damping, query.param_dict
                )
                jobs.append((group, old_key, working, entries, new_matrix))
            committed = 0
            for group, old_key, working, entries, new_matrix in jobs:
                applied = apply_refresh_delta(working, entries)
                if applied is None:
                    ctx.cache.refresh_failed()
                    cold.append(group)
                    continue
                system = FactorizedSystem(new_matrix, working.ordering, working.factors)
                provenance = None
                parent_system = ctx.cache.peek(old_key) if record_provenance else None
                if parent_system is not None:
                    from repro.store.factorstore import RefreshProvenance

                    provenance = RefreshProvenance(old_key, parent_system, applied)
                ctx.cache.commit_refresh(group.key, system, provenance=provenance)
                resolved[group.key] = Resolution(
                    tier=self.name, solver=system, cache_base=group.key
                )
                committed += 1
            if not deferred:
                break
            if committed == 0:
                for group in deferred:
                    ctx.cache.refresh_failed()
                    cold.append(group)
                break
            pending = deferred
        return resolved, cold

    @staticmethod
    def _refresh_parent(
        key: SystemKey, ctx: ResolutionContext
    ) -> Optional[Tuple[SystemKey, GraphSnapshot, GraphSnapshot, GraphDelta]]:
        """Find a cached parent system to delta-refresh ``key`` from.

        Custom-matrix keys never refresh (their composition is opaque to the
        system-delta layer).  Explicit lineage wins; with ``auto_refresh`` a
        snapshot-keyed miss falls back to scanning the cached keys for the
        nearest same-shape snapshot.
        """
        if key.matrix_builder is not None:
            return None
        lineage = ctx.lineage.get(key.system)
        if lineage is not None:
            old_system, old_snapshot, new_snapshot = lineage
            old_key = dataclasses.replace(key, system=old_system)
            if ctx.cache.peek(old_key) is None:
                return None
            return (
                old_key,
                old_snapshot,
                new_snapshot,
                GraphDelta.between(old_snapshot, new_snapshot),
            )
        if not ctx.auto_refresh or not isinstance(key.system, GraphSnapshot):
            return None
        new_snapshot = key.system
        best = None
        for candidate in ctx.cache.keys():
            if (
                candidate.kind is key.kind
                and candidate.damping == key.damping
                and candidate.matrix_params == key.matrix_params
                and candidate.matrix_builder is None
                and isinstance(candidate.system, GraphSnapshot)
                and candidate.system.n == new_snapshot.n
            ):
                delta = GraphDelta.between(candidate.system, new_snapshot)
                if best is None or delta.size < best[3].size:
                    best = (candidate, candidate.system, new_snapshot, delta)
        return best

    @staticmethod
    def _has_lineage(key: SystemKey, ctx: ResolutionContext) -> bool:
        """Whether a refreshable lineage was registered for this key's system."""
        return key.matrix_builder is None and key.system in ctx.lineage


class ColdTier(ResolutionTier):
    """Factorize each remaining group's system matrix once (precedence 6).

    The ladder's floor: never passes a group down.  Every group's system
    matrix is built first, then factorized with
    :meth:`~repro.query.spec.FactorizedSystem.factorize`.  A failed
    factorization is reported, not raised on the spot (one poisoned query
    must not cost its siblings their answers): every healthy group's system
    is cached in group order first, then a single
    :class:`~repro.errors.FactorizationError` carries one annotated report
    per failed group — so a retry without the poisoned queries answers warm
    from the cache.
    """

    name = "cold"

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        resolved, _ = self.resolve_batch([group], ctx)
        return resolved.get(group.key)

    def resolve_batch(
        self, groups: Sequence["PlannedGroup"], ctx: ResolutionContext
    ) -> Tuple[Dict[SystemKey, Resolution], List["PlannedGroup"]]:
        matrices = []
        for group in groups:
            query = group.queries[0]
            matrices.append(
                get_spec(query.measure).system_matrix(
                    query.snapshot, query.damping, query.param_dict
                )
            )
        resolved: Dict[SystemKey, Resolution] = {}
        failures: List[str] = []
        for index, (group, matrix) in enumerate(zip(groups, matrices)):
            try:
                system = FactorizedSystem.factorize(matrix)
            except Exception as error:  # every failure maps to one report
                failures.append(
                    f"factor unit {index} [{self._describe_group(group)}]: "
                    f"{type(error).__name__}: {error}"
                )
                continue
            resolved[group.key] = Resolution(
                tier=self.name, solver=system, cache_base=group.key
            )
            ctx.cache.store(group.key, system)
        if failures:
            raise FactorizationError(failures)
        return resolved, []

    @staticmethod
    def _describe_group(group: "PlannedGroup") -> str:
        """One-line system description for factor-unit failure reports."""
        key = group.key
        query = group.queries[0]
        if isinstance(key.system, GraphSnapshot):
            system = (
                f"snapshot(n={key.system.n}, edges={key.system.edge_count})"
            )
        else:
            system = f"token {key.system!r}"
        parts = [
            f"measure={query.measure!r}",
            f"kind={key.kind.name}",
            f"damping={key.damping}",
            f"system={system}",
        ]
        if key.matrix_params:
            parts.append(f"matrix_params={key.matrix_params!r}")
        return ", ".join(parts)


#: One ladder stage: tiers fused group-major (each pending group walks the
#: stage's tiers in order before the next group starts).
Stage = Tuple[ResolutionTier, ...]


def default_stages() -> Tuple[Stage, ...]:
    """The serving precedence as shipped: hit → store-restore → verbatim →
    corrected → refresh → cold, with the first two fused group-major."""
    return (
        (HitTier(), StoreRestoreTier()),
        (VerbatimReuseTier(),),
        (CorrectedReuseTier(),),
        (RefreshTier(),),
        (ColdTier(),),
    )


class ResolutionLadder:
    """The ordered tier walk resolving every planned group of a batch.

    ``stages`` is a sequence whose elements are either a single
    :class:`ResolutionTier` or a tuple of tiers to fuse group-major.
    Stages run tier-major: every pending group is offered to a stage
    before the next stage sees the leftovers — which is what lets the
    bulk tiers (refresh waves, batched factorization) handle all their
    groups in one pass.  Within a fused stage each group walks the stage's
    tiers in order before the next group starts — the default ladder fuses
    (hit, store-restore) so a disk restore's cache install lands exactly
    where :meth:`FactorCache.lookup` put it.

    A ladder belongs to one planner: the reuse tiers' scan memos are
    cleared through the *owning* planner's factor-cache listeners, so
    sharing a ladder between planners would leak stale scans across
    caches.
    """

    def __init__(
        self,
        stages: Optional[Sequence[Union[ResolutionTier, Sequence[ResolutionTier]]]] = None,
    ) -> None:
        if stages is None:
            normalized = default_stages()
        else:
            normalized = tuple(
                tuple(stage) if isinstance(stage, (tuple, list)) else (stage,)
                for stage in stages
            )
        if not normalized or not any(normalized):
            raise MeasureError("a resolution ladder needs at least one tier")
        names = [tier.name for stage in normalized for tier in stage]
        if len(names) != len(set(names)):
            raise MeasureError(f"resolution tier names must be unique, got {names}")
        self._stages: Tuple[Stage, ...] = normalized

    @property
    def stages(self) -> Tuple[Stage, ...]:
        """The ladder's stages, in precedence order."""
        return self._stages

    @property
    def tiers(self) -> Tuple[ResolutionTier, ...]:
        """Every tier, flattened in precedence order."""
        return tuple(tier for stage in self._stages for tier in stage)

    def tier_names(self) -> Tuple[str, ...]:
        """The tier names, in precedence order (the ``resolutions`` keys)."""
        return tuple(tier.name for tier in self.tiers)

    def clear_memos(self) -> None:
        """Clear every tier's scan memos (the candidate set changed)."""
        for tier in self.tiers:
            tier.clear_memos()

    def resolve(
        self, groups: Sequence["PlannedGroup"], ctx: ResolutionContext
    ) -> Tuple[Dict[SystemKey, Resolution], Dict[str, int], List[ApproximationRecord]]:
        """Resolve every group; return (resolutions, per-tier counts, records).

        ``counts`` holds every tier name (zeros included) in precedence
        order, so the stats surface is shape-stable across batches.
        Audit records accumulate stage-major in group order — verbatim
        records precede corrected records, as the audit trail always has.
        """
        resolved: Dict[SystemKey, Resolution] = {}
        counts: Dict[str, int] = {name: 0 for name in self.tier_names()}
        records: List[ApproximationRecord] = []
        pending: List["PlannedGroup"] = list(groups)
        for stage in self._stages:
            if not pending:
                break
            if len(stage) == 1:
                stage_resolved, pending = stage[0].resolve_batch(pending, ctx)
            else:
                stage_resolved = {}
                remaining: List["PlannedGroup"] = []
                for group in pending:
                    resolution: Optional[Resolution] = None
                    for tier in stage:
                        resolution = tier.try_resolve(group, ctx)
                        if resolution is not None:
                            break
                    if resolution is None:
                        remaining.append(group)
                    else:
                        stage_resolved[group.key] = resolution
                pending = remaining
            for key, resolution in stage_resolved.items():
                resolved[key] = resolution
                counts[resolution.tier] += 1
                if resolution.record is not None:
                    records.append(resolution.record)
        if pending:
            unresolved = ", ".join(repr(group.key) for group in pending)
            raise MeasureError(
                f"resolution ladder exhausted with unresolved groups: {unresolved}"
            )
        return resolved, counts, records
