"""The planner's two caches: factors by system key, answers by RHS digest.

Split out of the planner so the resolution ladder
(:mod:`repro.query.resolution`) and the planner
(:mod:`repro.query.planner`) both build on the same cache surface without
a circular import.

* :class:`FactorCache` holds :class:`~repro.query.spec.FactorizedSystem`
  objects keyed by :class:`~repro.query.spec.SystemKey`, with group-level
  hit/miss accounting, LRU bounding, Bennett delta refresh, listener
  channels, and an optional :class:`~repro.store.factorstore.FactorStore`
  disk tier (spill on eviction, restore on miss, checkpoint on demand).
* :class:`ResultCache` holds *finalized answers* keyed by
  ``(SystemKey, finalize identity, rhs fingerprint)`` so repeated hot
  queries skip the substitution sweep entirely.
"""

from __future__ import annotations

import types
import weakref
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import MeasureError, PatternError, SingularMatrixError, StoreError
from repro.lu.bennett import bennett_update
from repro.query.spec import FactorizedSystem, SystemKey
from repro.sparse.csr import SparseMatrix
from repro.sparse.types import Entries

if TYPE_CHECKING:  # runtime import is lazy: the store package sits above
    # this one in the layering (it imports query.spec).
    from repro.store.factorstore import FactorStore, RefreshProvenance

#: Default ``refresh_threshold``: a system-matrix delta touching more than
#: this fraction of the cached matrix's non-zeros falls back to a cold
#: factorization — beyond it the rank-1 sweeps stop being cheaper than a
#: fresh Markowitz + Crout pass (and a large delta usually means the old
#: ordering misfits the new matrix anyway).
DEFAULT_REFRESH_THRESHOLD = 0.25


def _apply_entry_delta(matrix: SparseMatrix, delta: Entries) -> SparseMatrix:
    """Return ``matrix + ΔA`` for a sparse entry delta in original coordinates."""
    if not delta:
        return matrix
    change = SparseMatrix.from_triples(
        matrix.n, ((i, j, value) for (i, j), value in delta.items())
    )
    return matrix.add(change)


def apply_refresh_delta(working: FactorizedSystem, delta: Entries) -> Optional[Entries]:
    """Bennett-update a cloned system's factors in place by a system delta.

    ``delta`` is in original coordinates; it is mapped through the clone's
    ordering and applied in sorted-key order.  Both refresh paths (the
    ladder's :class:`~repro.query.resolution.RefreshTier` and
    :meth:`FactorCache.refresh`) go through here, so a refreshed system's
    factors and its recorded provenance depend only on the delta's
    content.  Returns the applied (mapped, sorted) delta, or ``None`` when
    the update would fill outside a static factor pattern or a pivot breaks
    down.
    """
    ordering = working.ordering
    mapped = ordering.map_entries(delta) if ordering is not None else delta
    applied = dict(sorted(mapped.items()))
    try:
        bennett_update(working.factors, applied)
    except (PatternError, SingularMatrixError):
        return None
    return applied


class FactorCache:
    """Cache of :class:`FactorizedSystem` objects keyed by :class:`SystemKey`.

    Tracks hits and misses at *group* granularity (one lookup per planned
    group, not per query), which is what the acceptance counters assert
    against.  Entries seeded via :meth:`seed` (e.g. from an EMS
    decomposition) count as ordinary hits when used.

    Parameters
    ----------
    max_systems:
        Optional LRU bound for long-lived serving planners over evolving
        graphs, where every new snapshot is a new key and an unbounded cache
        would grow without limit.  ``None`` (the default) keeps every entry —
        required for the bitwise guarantees of seeded sequence planners: an
        evicted entry is transparently re-factorized from scratch, which is
        still an exact solve but not necessarily bit-identical to the
        decomposition-seeded factors it replaced.  :meth:`seed` refuses to
        overflow the bound (see its docstring) for the same reason.
    refresh_threshold:
        Delta-refresh feasibility gate, as a fraction of the cached system
        matrix's non-zeros: a system delta with more entries than
        ``refresh_threshold * nnz`` is rejected (counted in
        ``refresh_fallbacks``) and the caller cold-factorizes instead.
    store:
        Optional :class:`~repro.store.factorstore.FactorStore` disk tier.
        With a store attached, LRU evictions (and stealing refreshes)
        *spill* the departing system to disk instead of dropping it, a
        memory miss consults the store before reporting a miss to the
        caller (a restored system is installed and returned — the planner
        sees it as a cache hit and skips the cold factorization), and
        :meth:`checkpoint` flushes the whole working set.  Refresh-produced
        systems remember their provenance (parent + applied delta) so their
        spills are compact delta checkpoints.  ``cache_info()`` grows four
        extra counters — ``store_hits`` / ``store_misses`` (partitioning
        the memory misses), ``spills``, and ``restore_fallbacks`` (files
        that existed but could not be restored: corrupt, torn, or replay
        breakdown — served cold instead, never wrong).
    """

    def __init__(
        self,
        max_systems: Optional[int] = None,
        refresh_threshold: float = DEFAULT_REFRESH_THRESHOLD,
        store: Optional["FactorStore"] = None,
    ) -> None:
        if max_systems is not None and max_systems < 1:
            raise MeasureError(f"max_systems must be positive, got {max_systems}")
        if refresh_threshold < 0.0:
            raise MeasureError(
                f"refresh_threshold must be non-negative, got {refresh_threshold}"
            )
        self._systems: "OrderedDict[SystemKey, FactorizedSystem]" = OrderedDict()
        self._max_systems = max_systems
        self._refresh_threshold = float(refresh_threshold)
        self._store = store
        #: refresh lineage per cached key, kept only while a store could
        #: spill it as a delta checkpoint (see RefreshProvenance)
        self._provenance: Dict[SystemKey, "RefreshProvenance"] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._refreshes = 0
        self._refresh_fallbacks = 0
        self._store_hits = 0
        self._store_misses = 0
        self._spills = 0
        self._restore_fallbacks = 0
        #: resolvers returning the live listener or ``None`` once collected
        self._invalidation_listeners: List[
            Callable[[], Optional[Callable[[SystemKey], None]]]
        ] = []
        self._eviction_listeners: List[
            Callable[[], Optional[Callable[[SystemKey], None]]]
        ] = []

    def __len__(self) -> int:
        return len(self._systems)

    def __contains__(self, key: SystemKey) -> bool:
        return key in self._systems

    def keys(self) -> Iterator[SystemKey]:
        """Iterate over the cached system keys (snapshot → key index scans)."""
        return iter(tuple(self._systems))

    @property
    def disk_store(self) -> Optional["FactorStore"]:
        """The attached disk tier, or ``None``.

        (Named ``disk_store`` because :meth:`store` — the historical install
        method — already occupies the ``store`` attribute.)
        """
        return self._store

    def lookup_memory(self, key: SystemKey) -> Optional[FactorizedSystem]:
        """Return the system cached *in memory* and count the hit or miss.

        The memory half of :meth:`lookup` — the resolution ladder's hit
        tier.  A miss is counted here (``misses``) whether or not a store
        later serves the key; :meth:`restore_from_store` refines the miss
        into ``store_hits`` / ``store_misses`` without recounting.
        """
        system = self._systems.get(key)
        if system is not None:
            self._hits += 1
            self._systems.move_to_end(key)
            return system
        self._misses += 1
        return None

    def restore_from_store(self, key: SystemKey) -> Optional[FactorizedSystem]:
        """Restore a memory-missed key from the disk tier, if possible.

        The store half of :meth:`lookup` — the resolution ladder's
        store-restore tier.  Call it only after :meth:`lookup_memory`
        reported a miss: a restorable checkpoint is decoded (or
        delta-replayed), installed, counted as a ``store_hits``, and
        returned.  ``store_misses`` counts the memory misses the store
        could not serve either; among those, ``restore_fallbacks`` counts
        the ones where a checkpoint file existed but failed its checksum or
        its delta replay.  Returns ``None`` (without touching any counter)
        when no store is attached.
        """
        if self._store is None:
            return None
        if key not in self._store:
            self._store_misses += 1
            return None
        restored = self._store.load(key)
        if restored is None:
            self._restore_fallbacks += 1
            self._store_misses += 1
            return None
        self._store_hits += 1
        self._install(key, restored)
        return restored

    def lookup(self, key: SystemKey) -> Optional[FactorizedSystem]:
        """Return the cached system for ``key`` and count the hit or miss.

        With a store attached, a memory miss consults the disk tier before
        giving up — the caller never learns the system was not in memory,
        which is exactly what makes a warm restart answer without cold
        factorizations.  Exactly :meth:`lookup_memory` followed (on a miss)
        by :meth:`restore_from_store`; the ladder planner calls the halves
        directly so each tier's serve is counted under its own name.
        """
        system = self.lookup_memory(key)
        if system is not None:
            return system
        return self.restore_from_store(key)

    def peek(self, key: SystemKey) -> Optional[FactorizedSystem]:
        """Return the cached system without touching counters or recency."""
        return self._systems.get(key)

    def touch(self, key: SystemKey) -> None:
        """Freshen a key's LRU recency without counting a hit or a miss.

        Used by policy-level reuse: a cached system answering *for another
        key* is in active use and must not age towards eviction, but the
        pinned per-group hit/miss accounting (one counted lookup per planned
        group) may not change.
        """
        if key in self._systems:
            self._systems.move_to_end(key)

    def add_invalidation_listener(self, listener: Callable[[SystemKey], None]) -> None:
        """Subscribe to key invalidations (evictions and factor installs).

        The listener fires whenever the factors behind a key can no longer be
        assumed unchanged: the key is evicted (a later re-factorization is
        exact but not necessarily bit-identical), dropped by a stealing
        refresh, or has new factors installed over it.  Planners hang their
        result caches here so derived answers never outlive their factors.

        Bound-method listeners are held **weakly** (their receiver is not
        kept alive by the subscription, and dead subscriptions are pruned),
        so short-lived planners sharing a long-lived factor cache do not
        accumulate; keep the receiving object alive for as long as the
        subscription should fire.  Plain functions are held strongly.
        """
        self._invalidation_listeners.append(self._hold_listener(listener))

    def add_eviction_listener(self, listener: Callable[[SystemKey], None]) -> None:
        """Subscribe to key *removals* only (LRU eviction, steal, clear).

        Unlike :meth:`add_invalidation_listener` — which also fires when new
        factors are installed over a key — this channel fires exactly when a
        key leaves the cache.  Planners use it to prune per-key bookkeeping
        (lineage entries, snapshot bindings) that is only useful while the
        key's system is cached, which is what keeps a long-lived serving
        planner's registries bounded.  The same weak-holding rules as
        invalidation listeners apply.
        """
        self._eviction_listeners.append(self._hold_listener(listener))

    @staticmethod
    def _hold_listener(
        listener: Callable[[SystemKey], None],
    ) -> Callable[[], Optional[Callable[[SystemKey], None]]]:
        if isinstance(listener, types.MethodType):
            return weakref.WeakMethod(listener)
        return lambda _fn=listener: _fn

    @staticmethod
    def _fire(
        listeners: List[Callable[[], Optional[Callable[[SystemKey], None]]]],
        key: SystemKey,
    ) -> None:
        dead = False
        for resolver in listeners:
            listener = resolver()
            if listener is None:
                dead = True
                continue
            listener(key)
        if dead:
            listeners[:] = [
                resolver for resolver in listeners if resolver() is not None
            ]

    def _invalidate(self, key: SystemKey) -> None:
        self._fire(self._invalidation_listeners, key)

    def _evicted(self, key: SystemKey) -> None:
        self._fire(self._eviction_listeners, key)

    def _spill(self, key: SystemKey, system: FactorizedSystem) -> bool:
        """Checkpoint a departing (or flushed) system to the store, if any.

        Uses the recorded refresh provenance for a compact delta checkpoint
        when available, a full checkpoint otherwise.  Unsupported factor
        containers and I/O failures are swallowed — spilling is an
        optimization, never a correctness requirement (the system would
        simply cold-factorize on a later miss).
        """
        if self._store is None:
            return False
        try:
            self._store.save(key, system, self._provenance.get(key))
        except (StoreError, OSError):
            return False
        self._spills += 1
        return True

    def _install(self, key: SystemKey, system: FactorizedSystem) -> None:
        self._invalidate(key)
        # New factors over the key invalidate any recorded refresh lineage
        # (commit_refresh re-records its own right after).
        self._provenance.pop(key, None)
        self._systems[key] = system
        self._systems.move_to_end(key)
        if self._max_systems is not None:
            while len(self._systems) > self._max_systems:
                evicted, dropped = self._systems.popitem(last=False)
                self._evictions += 1
                self._spill(evicted, dropped)
                self._provenance.pop(evicted, None)
                self._invalidate(evicted)
                self._evicted(evicted)

    def seed(self, key: SystemKey, system: FactorizedSystem) -> None:
        """Install a system without touching the counters (pre-population).

        Seeding must never evict: a seeded planner's guarantee is that the
        whole sequence answers from exactly the decomposition-provided
        factors, and a silent LRU eviction of a seeded entry would break it
        without any signal (the evicted index would be transparently — but
        approximately-bitwise-differently — re-factorized).  Seeding a key
        that would overflow ``max_systems`` therefore raises
        :class:`~repro.errors.MeasureError`; raise the bound or use an
        unbounded cache for seeded planners.
        """
        if (
            self._max_systems is not None
            and key not in self._systems
            and len(self._systems) >= self._max_systems
        ):
            raise MeasureError(
                f"seeding would overflow max_systems={self._max_systems} "
                f"(cache already holds {len(self._systems)} systems); seeded "
                "entries must never be evicted — raise max_systems to at "
                "least the number of seeded systems or use an unbounded cache"
            )
        self._install(key, system)

    def store(self, key: SystemKey, system: FactorizedSystem) -> None:
        """Install a freshly factorized system (after a counted miss)."""
        self._install(key, system)

    # ------------------------------------------------------------------ #
    # Delta refresh
    # ------------------------------------------------------------------ #
    def _refresh_feasible(
        self, cached: Optional[FactorizedSystem], delta: Entries
    ) -> bool:
        """Gate a refresh: the parent must be cached and the delta small."""
        if cached is None:
            return False
        return len(delta) <= self._refresh_threshold * max(cached.matrix.nnz, 1)

    def prepare_refresh(
        self, old_key: SystemKey, delta: Entries
    ) -> Optional[FactorizedSystem]:
        """Feasibility-check a refresh and return a mutable clone of the parent.

        ``delta`` is the system-matrix entry delta in *original* (unordered)
        coordinates; only its size matters here.  Returns a clone whose
        factor container may be Bennett-updated in place (see
        :func:`apply_refresh_delta`), or ``None`` — counting a
        ``refresh_fallbacks`` — when the parent is missing or the delta
        exceeds the threshold.
        Hit/miss counters are untouched either way.
        """
        cached = self._systems.get(old_key)
        if not self._refresh_feasible(cached, delta):
            self._refresh_fallbacks += 1
            return None
        return cached.clone()

    def commit_refresh(
        self,
        new_key: SystemKey,
        system: FactorizedSystem,
        provenance: Optional["RefreshProvenance"] = None,
    ) -> None:
        """Install a successfully refreshed system (counted in ``refreshes``).

        ``provenance`` — the parent system and the exact applied delta — is
        remembered (only while a store is attached; it pins the parent
        system in memory) so a later spill of this key writes a compact
        delta checkpoint instead of a full one.
        """
        self._install(new_key, system)
        if provenance is not None and self._store is not None:
            self._provenance[new_key] = provenance
        self._refreshes += 1

    def refresh_failed(self) -> None:
        """Record that a prepared refresh broke down numerically."""
        self._refresh_fallbacks += 1

    def refresh(
        self,
        old_key: SystemKey,
        new_key: SystemKey,
        delta: Entries,
        new_matrix: Optional[SparseMatrix] = None,
        steal: bool = False,
    ) -> Optional[FactorizedSystem]:
        """Derive the system for ``new_key`` from ``old_key`` by Bennett update.

        The paper's INC insight applied to the serving cache: instead of a
        cold factorization for a snapshot that evolved from a cached one by a
        small delta, clone (or, with ``steal=True``, remove and reuse) the
        cached :class:`FactorizedSystem`, apply the sparse system-matrix
        ``delta`` (original coordinates; mapped through the stored ordering
        here) as rank-1 Bennett sweeps, and install the result under
        ``new_key``.

        Returns the refreshed system, or ``None`` with ``refresh_fallbacks``
        incremented when the parent is missing, the delta exceeds
        ``refresh_threshold`` as a fraction of the cached matrix's non-zeros,
        the update would fill outside a static factor pattern
        (:class:`~repro.errors.PatternError`), or a pivot breaks down — the
        caller then falls back to a full factorization.  Every failure mode
        leaves the parent entry intact (``steal`` only takes effect on
        success).  Hit/miss counters are never touched.  ``new_matrix``
        overrides the stored matrix of the result (defaults to
        ``old matrix + delta``).
        """
        # Always sweep on a clone — even when stealing — so a mid-sweep
        # breakdown leaves the parent entry intact and still answering; the
        # old key is dropped only once the refresh has succeeded.
        working = self.prepare_refresh(old_key, delta)
        if working is None:
            return None
        applied = apply_refresh_delta(working, delta)
        if applied is None:
            self.refresh_failed()
            return None
        cached = self._systems[old_key]
        if new_matrix is None:
            new_matrix = _apply_entry_delta(cached.matrix, delta)
        system = FactorizedSystem(new_matrix, working.ordering, working.factors)
        if steal:
            del self._systems[old_key]
            self._spill(old_key, cached)
            self._provenance.pop(old_key, None)
            self._invalidate(old_key)
            self._evicted(old_key)
        provenance: Optional["RefreshProvenance"] = None
        if self._store is not None:
            from repro.store.factorstore import RefreshProvenance

            provenance = RefreshProvenance(old_key, cached, applied)
        self.commit_refresh(new_key, system, provenance=provenance)
        return system

    def checkpoint(self) -> int:
        """Flush every cached system to the store; return the spill count.

        Non-destructive: the working set stays in memory untouched.  A
        warm-booted cache pointed at the same store directory answers the
        flushed keys from disk, bitwise-identically, without a single cold
        factorization.  Raises :class:`~repro.errors.MeasureError` when no
        store is attached.
        """
        if self._store is None:
            raise MeasureError(
                "checkpoint() requires a FactorCache constructed with store=..."
            )
        count = 0
        for key, system in list(self._systems.items()):
            if self._spill(key, system):
                count += 1
        return count

    def cache_info(self) -> Dict[str, int]:
        """Return hit/miss/eviction/refresh/size counters (the reuse statistics).

        With a store attached, four more counters appear: ``store_hits`` /
        ``store_misses`` partition the memory ``misses`` into served-from-
        disk vs truly cold, ``spills`` counts systems checkpointed on
        eviction/steal/:meth:`checkpoint`, and ``restore_fallbacks`` counts
        checkpoint files that existed but could not be restored.  (They are
        omitted entirely for store-less caches, whose ``cache_info()`` stays
        byte-compatible with earlier releases.)
        """
        info = {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "refreshes": self._refreshes,
            "refresh_fallbacks": self._refresh_fallbacks,
            "size": len(self._systems),
        }
        if self._store is not None:
            info.update({
                "store_hits": self._store_hits,
                "store_misses": self._store_misses,
                "spills": self._spills,
                "restore_fallbacks": self._restore_fallbacks,
            })
        return info

    def clear(self) -> None:
        """Drop every cached system and reset the counters.

        The store (if any) is left untouched: ``clear`` empties the memory
        tier, it does not delete checkpoints.  Subsequent lookups may
        therefore still restore from disk.
        """
        while self._systems:
            key, _ = self._systems.popitem(last=False)
            self._provenance.pop(key, None)
            self._invalidate(key)
            self._evicted(key)
        self._provenance.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._refreshes = 0
        self._refresh_fallbacks = 0
        self._store_hits = 0
        self._store_misses = 0
        self._spills = 0
        self._restore_fallbacks = 0


#: Default size of a planner's answer-level result cache.
DEFAULT_RESULT_CACHE_SIZE = 1024

#: A result-cache key: ``(SystemKey, finalize identity, rhs fingerprint)``.
ResultKey = Tuple[SystemKey, Hashable, bytes]


class ResultCache:
    """LRU cache of *finalized answers* keyed by ``(SystemKey, rhs fingerprint)``.

    Serving workloads repeat hot queries; a repeated query should not even
    pay the substitution sweep.  The key is the system identity plus a digest
    of the right-hand-side bytes — so two queries whose specs build the same
    RHS against the same factors share one entry (e.g. an RWR from node ``u``
    and a single-seed PPR at ``u``).  Specs with a post-transform or
    normalization extend the key with their name and parameters, since their
    final answer is not a pure function of ``(system, rhs)``.

    Entries are value-isolated: arrays are copied in on store and copied out
    on hit, so callers may mutate their results freely.  Invalidation is
    driven by the factor cache (:meth:`FactorCache.add_invalidation_listener`):
    whenever a key's factors are evicted, stolen or replaced, every answer
    derived from them is dropped — a re-factorized system is exact but not
    necessarily bit-identical, and a refreshed one is not even that.
    """

    def __init__(self, max_entries: int = DEFAULT_RESULT_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise MeasureError(f"max_entries must be positive, got {max_entries}")
        self._entries: "OrderedDict[ResultKey, np.ndarray]" = OrderedDict()
        self._by_system: Dict[SystemKey, Set[ResultKey]] = {}
        self._max_entries = int(max_entries)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: ResultKey) -> Optional[np.ndarray]:
        """Return a copy of the cached answer, counting the hit or miss."""
        answer = self._entries.get(key)
        if answer is None:
            self._misses += 1
            return None
        self._hits += 1
        self._entries.move_to_end(key)
        return answer.copy()

    def store(self, key: ResultKey, answer: np.ndarray) -> None:
        """Install (a copy of) a freshly computed answer."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = np.array(answer, dtype=float, copy=True)
        self._by_system.setdefault(key[0], set()).add(key)
        while len(self._entries) > self._max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._evictions += 1
            siblings = self._by_system.get(evicted[0])
            if siblings is not None:
                siblings.discard(evicted)
                if not siblings:
                    del self._by_system[evicted[0]]

    def invalidate_system(self, system_key: SystemKey) -> None:
        """Drop every answer derived from one system's factors."""
        for key in self._by_system.pop(system_key, ()):  # type: ignore[arg-type]
            if self._entries.pop(key, None) is not None:
                self._invalidations += 1

    def cache_info(self) -> Dict[str, int]:
        """Return hit/miss/eviction/invalidation/size counters."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
            "size": len(self._entries),
        }

    def clear(self) -> None:
        """Drop every cached answer and reset the counters."""
        self._entries.clear()
        self._by_system.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
