"""Workload inputs, each a pure function of the seed.

The program under test receives only what these functions build.  Every
builder goes through the library's public API (graph snapshots, measure
matrices, queries), and :func:`stream_digest` fingerprints the result so a
test can pin "same seed, same inputs".
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.datasets.wiki import WikiConfig, generate_wiki_egs
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.generators import SyntheticEGSConfig, generate_synthetic_egs
from repro.graphs.matrixkind import MatrixKind
from repro.graphs.snapshot import GraphSnapshot
from repro.query.spec import Query, make_query
from repro.sparse.csr import SparseMatrix

#: The paper's Wiki experiment: the ``WIKI_BENCH_CONFIG`` of the figure
#: benchmarks (50 days, 5 rising to 6.25 links per page) at half its 400
#: pages, so one decomposition takes about 2 s and a run takes the median
#: of several instead of timing one or two.
WIKI_CONFIG = WikiConfig(
    pages=200,
    snapshots=50,
    initial_links=1000,
    final_links=1250,
    churn_per_day=2,
    tracked_page=17,
    event_gain_day=12,
    event_dilute_day=30,
    seed=42,
)

#: Right-hand-side columns solved against every snapshot.
EMS_COLUMNS = 16

#: Seed of the fixed synthetic graphs behind the serving streams.
GRAPH_SEED = 42

#: Cold-serving stream: a mixed-measure, mixed-damping batch per snapshot of
#: a synthetic evolving chain, so nearly every system is new.
COLD_NODES = 120
COLD_SNAPSHOTS = 8
COLD_DAMPINGS = (0.85, 0.6)

#: Hot-serving stream: Zipf-skewed rwr/ppr/pagerank bursts over a few hot
#: keys, one burst per snapshot of a slowly evolving chain.
HOT_NODES = 300
HOT_BURSTS = 6
HOT_QUERIES_PER_BURST = 40
HOT_KEYS = 12
HOT_ZIPF = 1.1
HOT_CHECKPOINT_EVERY = 3


def _relabel(snapshot: GraphSnapshot, labels: np.ndarray) -> GraphSnapshot:
    """``snapshot`` with node ``u`` renamed ``labels[u]``."""
    return GraphSnapshot(
        snapshot.n,
        ((int(labels[u]), int(labels[v])) for u, v in snapshot.edges),
        directed=snapshot.directed,
    )


def compose_ems(seed: int) -> Tuple[List[SparseMatrix], np.ndarray]:
    """The Wiki-like matrix sequence and the right-hand-side block.

    The hyperlink graph is the fixed benchmark dataset; ``seed`` draws a
    relabelling of its pages and the right-hand sides.  Every seed is
    therefore a different input of the same graph, so decomposition cost is
    comparable across seeds instead of following the hub structure a fresh
    preferential-attachment draw happens to produce.
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation(WIKI_CONFIG.pages)
    relabelled = EvolvingGraphSequence(
        _relabel(snapshot, labels) for snapshot in generate_wiki_egs(WIKI_CONFIG)
    )
    ems = EvolvingMatrixSequence.from_graphs(relabelled, kind=MatrixKind.RANDOM_WALK)
    block = rng.random((WIKI_CONFIG.pages, EMS_COLUMNS))
    return list(ems), block


@dataclasses.dataclass(frozen=True)
class Operation:
    """One client operation of a serving stream."""

    #: ``"query"``, ``"update"`` or ``"checkpoint"``
    kind: str
    #: the query (``kind == "query"``)
    query: Query = None
    #: the new head snapshot (``kind == "update"``)
    snapshot: GraphSnapshot = None


def cold_stream(seed: int) -> List[Operation]:
    """Seven measures at two dampings per snapshot: almost every group is cold.

    The evolving chain and the queries' start, seed and target nodes are
    fixed; ``seed`` draws a relabelling of the nodes, so every seed poses
    the same systems under other names and costs the same to serve.
    """
    config = SyntheticEGSConfig(
        nodes=COLD_NODES,
        edge_pool_size=COLD_NODES * 7,
        average_degree=4,
        add_remove_ratio=2,
        delta_edges=max(4, COLD_NODES // 12),
        snapshots=COLD_SNAPSHOTS,
        directed=True,
        seed=GRAPH_SEED,
    )
    labels = np.random.default_rng(seed).permutation(COLD_NODES)
    shape = np.random.default_rng(GRAPH_SEED)
    operations: List[Operation] = []
    for snapshot in generate_synthetic_egs(config).snapshots:
        snapshot = _relabel(snapshot, labels)
        start, target_a, target_b, *seeds = (
            int(labels[v]) for v in shape.choice(COLD_NODES, size=6, replace=False)
        )
        for damping in COLD_DAMPINGS:
            queries = (
                make_query("rwr", snapshot, damping=damping, start_node=start),
                make_query("ppr", snapshot, damping=damping, seeds=tuple(seeds)),
                make_query("pagerank", snapshot, damping=damping),
                make_query("hitting_time", snapshot, damping=damping, target=target_a),
                make_query(
                    "hitting_time_shared", snapshot, damping=damping, target=target_b
                ),
                make_query("salsa_authority", snapshot, damping=damping),
                make_query("salsa_hub", snapshot, damping=damping),
            )
            operations.extend(Operation("query", query=query) for query in queries)
    return operations


def _evolving_chain() -> List[GraphSnapshot]:
    """A random graph with 3 edges added and 2 removed per snapshot."""
    rng = np.random.default_rng(GRAPH_SEED)
    edges = set()
    while len(edges) < HOT_NODES * 3:
        u, v = rng.integers(0, HOT_NODES, size=2)
        if u != v:
            edges.add((int(u), int(v)))
    current = GraphSnapshot(HOT_NODES, edges)
    chain = [current]
    for _ in range(HOT_BURSTS - 1):
        existing = sorted(current.edges)
        removed = {existing[int(rng.integers(0, len(existing)))] for _ in range(2)}
        added = set()
        while len(added) < 3:
            u, v = rng.integers(0, HOT_NODES, size=2)
            if u != v and (int(u), int(v)) not in current.edges:
                added.add((int(u), int(v)))
        current = current.with_edges(added=added, removed=removed)
        chain.append(current)
    return chain


def hot_stream(seed: int) -> List[Operation]:
    """Per snapshot: an update, then a Zipf burst; a checkpoint every few bursts.

    As for :func:`cold_stream`, the chain, the hot keys and the queries are
    fixed and ``seed`` draws a relabelling of the nodes.
    """
    labels = np.random.default_rng(seed).permutation(HOT_NODES)
    shape = np.random.default_rng(GRAPH_SEED)
    chain = [_relabel(snapshot, labels) for snapshot in _evolving_chain()]
    pool = labels[shape.choice(HOT_NODES, size=HOT_KEYS, replace=False)]
    weights = 1.0 / np.power(np.arange(HOT_KEYS, dtype=float) + 1.0, HOT_ZIPF)
    weights /= weights.sum()
    operations: List[Operation] = []
    for burst, snapshot in enumerate(chain, start=1):
        operations.append(Operation("update", snapshot=snapshot))
        keys = shape.choice(pool, size=HOT_QUERIES_PER_BURST, p=weights)
        kinds = shape.random(HOT_QUERIES_PER_BURST)
        for key, kind in zip(keys, kinds):
            node = int(key)
            if kind < 0.6:
                query = make_query("rwr", snapshot, start_node=node)
            elif kind < 0.9:
                other = int(pool[int(shape.integers(0, HOT_KEYS))])
                query = make_query("ppr", snapshot, seeds=(node, other))
            else:
                query = make_query("pagerank", snapshot)
            operations.append(Operation("query", query=query))
        if burst % HOT_CHECKPOINT_EVERY == 0:
            operations.append(Operation("checkpoint"))
    return operations


def _digest_snapshot(digest, snapshot: GraphSnapshot) -> None:
    digest.update(f"g{snapshot.n}:{snapshot.directed}:".encode())
    digest.update(repr(sorted(snapshot.edges)).encode())


def stream_digest(inputs: Union[Sequence[Operation], Tuple[List[SparseMatrix], np.ndarray]]) -> str:
    """Content fingerprint of a workload's inputs."""
    digest = hashlib.blake2b(digest_size=16)
    if isinstance(inputs, tuple):
        matrices, block = inputs
        for matrix in matrices:
            for array in matrix.csr_arrays():
                digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(np.ascontiguousarray(block).tobytes())
        return digest.hexdigest()
    for operation in inputs:
        digest.update(operation.kind.encode())
        if operation.query is not None:
            query = operation.query
            digest.update(repr((query.measure, query.damping, query.params)).encode())
            _digest_snapshot(digest, query.snapshot)
        if operation.snapshot is not None:
            _digest_snapshot(digest, operation.snapshot)
    return digest.hexdigest()
