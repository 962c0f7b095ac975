"""Undirected weighted item co-occurrence graph in one CSR form.

Two items are connected when they appear together in a session; each session
contributes each unordered pair of distinct items once (duplicates collapse
to the item set first). Edge weights are co-occurrence counts normalized by
the global maximum count, so weights live in (0, 1] and the strongest edge
is exactly 1.

The only graph form is CSR arrays holding both directions of every edge.
`CoGraph.from_edges` builds every graph from (k, 3) undirected edges, and
`CoGraph.upper()` returns them as (i, j, w) rows, i < j, in (i, j) order.
`graph.bin` (little-endian): b"COG1", u64 n, u64 edge count, u64 c_max, then
per edge in `upper()` order u64 i, u64 j, f64 w. `graph.txt`: a line
"n edge_count c_max", then one line "i j repr(w)" per edge. Stages read back
only `graph.bin`; `graph.txt` is an export for inspection and other tools.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateGraphError
from .sessiondata import ItemCatalog, SessionCorpus

_BIN_MAGIC = b"COG1"
_BIN_HEADER = struct.Struct("<4sQQQ")
_BIN_EDGE = np.dtype([("i", "<u8"), ("j", "<u8"), ("w", "<f8")])


@dataclass
class CoGraph:
    """CSR adjacency over n nodes; both directions of every edge stored,
    neighbor lists sorted ascending."""

    n: int
    indptr: np.ndarray         # (n+1,) int64
    indices: np.ndarray        # (nnz,) int64, sorted within each row
    weights: np.ndarray        # (nnz,) float64 in (0, 1]
    c_max: int = 0
    X: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self.indices.shape[0] // 2

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dst, src, weight) arrays sorted by (dst, src): row i aggregates
        from its sorted neighbor list."""
        dst = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return dst, self.indices.copy(), self.weights.copy()

    def upper(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, w) arrays of the undirected edges: i < j, sorted by (i, j)."""
        dst, src, w = self.directed_edges()
        keep = dst < src
        return dst[keep], src[keep], w[keep]

    def edge_triples(self) -> list[tuple[int, int, float]]:
        """Sorted (i, j, w) with i < j, one per undirected edge."""
        i, j, w = self.upper()
        return list(zip(i.tolist(), j.tolist(), w.tolist()))

    @classmethod
    def from_edges(cls, n: int, triples, c_max: int = 0,
                   X: np.ndarray | None = None) -> "CoGraph":
        """Build from undirected (i, j, w) edges, any (k, 3) array-like.

        Edge order does not matter. Raises DataError on endpoints that are
        not node ids in [0, n), on self-loops, and on a pair given twice in
        either orientation (a self-loop stores the same entry twice).
        """
        edges = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
        ends = edges[:, :2]
        if n < 0 or np.any((ends != np.floor(ends)) | (ends < 0) | (ends >= n)):
            raise DataError(f"edge endpoint not a node id in [0, {n})")
        i, j = ends.T.astype(np.int64)
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        again = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if again.any():
            raise DataError(f"self-loop or duplicate edge at node {rows[1:][again][0]}")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return cls(int(n), indptr, cols, np.tile(edges[:, 2], 2)[order], int(c_max), X)


def build_cograph(train: SessionCorpus, catalog: ItemCatalog,
                  X: np.ndarray | None = None) -> CoGraph:
    """Count session-level co-occurrences and normalize by the max count."""
    if not len(train):
        raise DataError("cannot build a graph from an empty corpus")
    n = len(catalog)
    items, session = train.items, train.owner()
    outside = (items < 0) | (items >= n)
    if outside.any():
        sid = train.ids[session[outside][0]]
        raise DataError(f"session {sid} references items outside the catalog")
    # distinct items of each session, sorted by (session, item)
    keys = np.unique(session * n + items)
    session, items = keys // n, keys % n
    # every position pairs with each later position of its session
    partners = np.searchsorted(session, session, side="right") - np.arange(len(items)) - 1
    left = np.repeat(np.arange(len(items)), partners)
    right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(partners) - partners, partners)
    pairs, counts = np.unique(items[left] * n + items[right], return_counts=True)
    if not len(pairs):
        raise DegenerateGraphError("no session contains two distinct items")
    c_max = int(counts.max())
    edges = np.column_stack([pairs // n, pairs % n, counts / c_max])
    return CoGraph.from_edges(n, edges, c_max=c_max, X=X)


@dataclass
class NeighborSample:
    """Two-hop fixed-fanout sample rooted at seed nodes.

    hop1 holds the sampled edges feeding the output layer (dst in seeds);
    hop2 feeds the input layer (dst in layer1_nodes, the hop-1 closure, which
    includes the seeds themselves since their first-layer representations
    are needed). input_nodes are the nodes whose raw features are required.
    All node ids are global and node arrays sorted; edge arrays are sorted
    by (dst, src). `sample_neighbors` is the only producer.
    """

    seeds: np.ndarray
    hop1_dst: np.ndarray
    hop1_src: np.ndarray
    hop1_w: np.ndarray
    hop2_dst: np.ndarray
    hop2_src: np.ndarray
    hop2_w: np.ndarray
    layer1_nodes: np.ndarray
    input_nodes: np.ndarray


def _sample_frontier(graph: CoGraph, nodes: np.ndarray, fanout: int | None, rng):
    """CSR entries of the sorted distinct `nodes` as (dst, src, w) in (dst, src)
    order: all of a row's entries, or, for a row longer than `fanout`, the
    `fanout` with the lowest uniform keys (drawn only when some row is)."""
    lo = graph.indptr[nodes]
    deg = graph.indptr[nodes + 1] - lo
    rank = np.arange(deg.sum()) - np.repeat(np.cumsum(deg) - deg, deg)  # within its row
    entry = np.repeat(lo, deg) + rank
    dst = np.repeat(nodes, deg)
    if fanout is not None and deg.max(initial=0) > fanout:
        # rows keep their spans under the (dst, key) sort, so `rank` ranks keys
        by_key = np.lexsort((rng.uniform(size=len(entry)), dst))
        keep = np.sort(by_key[rank < fanout])
        entry, dst = entry[keep], dst[keep]
    return dst, graph.indices[entry], graph.weights[entry]


def sample_neighbors(graph: CoGraph, seeds, fanouts: tuple[int, int] | None,
                     rng: np.random.Generator | None = None) -> NeighborSample:
    """Uniform without-replacement neighbor sampling, two hops.

    A node with at most its hop's fanout neighbors keeps them all (no
    padding). `fanouts=None` keeps every neighbor at both hops and draws
    nothing, so `rng` may then be None. Deterministic for a given generator
    state; sampled edges always exist in the parent graph with identical
    weights.
    """
    f1, f2 = (None, None) if fanouts is None else fanouts
    if fanouts is not None and (f1 < 1 or f2 < 1):
        raise DataError(f"fanouts must be >= 1, got {fanouts}")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size and (seeds.min() < 0 or seeds.max() >= graph.n):
        raise DataError("seed outside the graph")
    h1_dst, h1_src, h1_w = _sample_frontier(graph, seeds, f1, rng)
    closure = np.unique(np.concatenate([seeds, h1_src]))
    h2_dst, h2_src, h2_w = _sample_frontier(graph, closure, f2, rng)
    inputs = np.unique(np.concatenate([closure, h2_src]))
    return NeighborSample(seeds, h1_dst, h1_src, h1_w, h2_dst, h2_src, h2_w, closure, inputs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_graph_text(graph: CoGraph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {graph.num_edges} {graph.c_max}\n")
        fh.writelines(f"{i} {j} {w!r}\n" for i, j, w in graph.edge_triples())


def save_graph_binary(graph: CoGraph, path):
    i, j, w = graph.upper()
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(_BIN_MAGIC, graph.n, len(i), graph.c_max))
        fh.write(np.rec.fromarrays([i, j, w], dtype=_BIN_EDGE).tobytes())


def load_graph_binary(path, nodes: int | None = None) -> CoGraph:
    """The graph in `path`. With `nodes` given, a header that names another
    node count raises DataError before anything is allocated for it. Weights
    must lie in (0, 1] with at least one edge at exactly 1.0, as
    `build_cograph` writes them; other files raise DataError."""
    data = Path(path).read_bytes()
    if len(data) < _BIN_HEADER.size or data[:4] != _BIN_MAGIC:
        raise DataError(f"{path}: not a co-occurrence graph file")
    _, n, m, c_max = _BIN_HEADER.unpack_from(data)
    if nodes is not None and n != nodes:
        raise DataError(f"{path}: header says {n} nodes, the catalog has {nodes} items; "
                        "re-run build-graph after preprocess")
    if len(data) != _BIN_HEADER.size + m * _BIN_EDGE.itemsize:
        raise DataError(f"{path}: {len(data)} bytes do not hold the {m} edges of its header")
    records = np.frombuffer(data, dtype=_BIN_EDGE, offset=_BIN_HEADER.size)
    w = records["w"]
    if not np.all((w > 0.0) & (w <= 1.0)):    # NaN fails both comparisons
        raise DataError(f"{path}: edge weight outside (0, 1]")
    if m and w.max() != 1.0:
        raise DataError(f"{path}: no edge carries the maximal weight 1.0")
    edges = np.column_stack([records["i"], records["j"], w])
    return CoGraph.from_edges(n, edges, c_max=c_max)
