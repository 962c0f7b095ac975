"""Session k-nearest-neighbor recommenders and their graph-embedding extension.

The base recommenders match sessions on exact shared items and score
candidates with binary cosine similarity. The extension instead matches item
*embeddings*: a pair of items counts as similar when their cosine distance
is at or below a threshold, and session similarity becomes the number of
matched pairs normalized by the geometric mean of the session set sizes.
With one-hot embeddings and a threshold below the minimum cross-item
distance this reduces exactly to the base behavior.

find_neighbors is the integration point for further similarity schemes
(decay-weighted variants and the like): they plug in as alternative session
scoring inside it without touching indexing or item scoring.

Index layout (built once by index_sessions; a query then does array work
bounded by its candidate pool, never a pass over all training sessions):

- Recency ranks. ``order[r]`` is the position of the session of recency rank
  ``r`` (0 = newest; ties by session id descending, then by position) and
  ``rank`` is its inverse.
- Session items, CSR. The distinct items of the session at position ``p``
  are ``items[indptr[p]:indptr[p + 1]]``, ascending.
- Newest-first postings. The ranks of the sessions containing item ``x``
  are ``post_ranks[post_indptr[x]:post_indptr[x + 1]]``, ascending. The
  candidate pool is the ``m_sample`` smallest ranks of the union of the
  input items' postings (of the matched items' postings with
  ``expand_pool``), and each posting list is cut to its first ``m_sample``
  entries before the union. The cut is exact: every session newer than a
  pool member s in a list containing s is also in the union, so fewer than
  ``m_sample`` sessions precede s in that list.
- Match lists. The index caches one EmbeddingMatcher, keyed by the identity
  of the embeddings array and by the threshold, so the table is normalised
  once and not on every query. The matcher keeps, for each item queried so
  far, the ascending ids of the items it matches, computed by match_row the
  first time the item is queried: a query then reads its items' lists and
  makes no pass over the catalog, whose cost grows with the catalog size
  times the embedding width. The lists hold at most MATCH_CACHE_ENTRIES ids
  in all (a loose threshold matches O(m) items per item); a list that would
  pass that bound clears the cache first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CHOICES, DEFAULTS
from .errors import ConfigError, DataError
from .sessiondata import SessionCorpus, _offsets, _spans, str_codes

_KNN = DEFAULTS["knn"]
_GCNEXT = _KNN["gcnext"]
# total matched-item ids the match-list cache of one EmbeddingMatcher holds
# (8 bytes each)
MATCH_CACHE_ENTRIES = 1 << 22


@dataclass(frozen=True)
class GcnextConfig:
    enabled: bool = _GCNEXT["enabled"]
    distance_threshold: float = _GCNEXT["distance_threshold"]
    session_scoring: str = _GCNEXT["session_scoring"]
    expand_pool: bool = _GCNEXT["expand_pool"]

    def __post_init__(self):
        if not 0.0 <= self.distance_threshold <= 2.0:
            raise ConfigError(f"distance_threshold must be in [0, 2], got {self.distance_threshold}")
        if self.session_scoring not in CHOICES["knn.gcnext.session_scoring"]:
            raise ConfigError(f"unknown session_scoring {self.session_scoring!r}")


@dataclass(frozen=True)
class KnnConfig:
    k: int = _KNN["k"]
    m_sample: int = _KNN["m_sample"]
    base_mode: str = _KNN["base_mode"]
    gcnext: GcnextConfig = field(default_factory=GcnextConfig)
    k_rec: int = _KNN["k_rec"]
    exclude_input_items: bool = _KNN["exclude_input_items"]

    def __post_init__(self):
        if self.base_mode not in CHOICES["knn.base_mode"]:
            raise ConfigError(f"unknown base_mode {self.base_mode!r}")
        if self.k > self.m_sample:
            raise ConfigError(f"k ({self.k}) must not exceed m_sample ({self.m_sample})")

    @property
    def position_weighting(self) -> bool:
        return self.base_mode == "v-sknn" or (
            self.gcnext.enabled and self.gcnext.session_scoring == "position"
        )


class EmbeddingMatcher:
    """Threshold matching on cosine distance between item embeddings, with
    each queried item's match list cached (see the module docstring)."""

    def __init__(self, embeddings: np.ndarray, threshold: float):
        emb = np.asarray(embeddings, dtype=np.float64)
        norms = np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
        self.source = embeddings
        self.unit = emb / norms
        self.threshold = float(threshold)
        self.m = emb.shape[0]
        self._lists: dict[int, np.ndarray] = {}
        self._entries = 0

    def match_row(self, item: int) -> np.ndarray:
        """Boolean mask over the catalog: cosine distance <= threshold."""
        sims = self.unit @ self.unit[item]
        return (1.0 - sims) <= self.threshold + 1e-12

    def match_list(self, item: int) -> np.ndarray:
        """The ascending ids of the items that `item` matches, cached."""
        found = self._lists.get(item)
        if found is None:
            if not 0 <= item < self.m:
                raise ConfigError(f"no embedding row for item {item}")
            found = np.flatnonzero(self.match_row(item))
            found.flags.writeable = False    # shared by every later query
            if found.size <= MATCH_CACHE_ENTRIES:
                if self._entries + found.size > MATCH_CACHE_ENTRIES:
                    self._lists.clear()
                    self._entries = 0
                self._lists[item] = found
                self._entries += found.size
        return found

    def match_lists(self, items: np.ndarray) -> list[np.ndarray]:
        """match_list of each of `items`."""
        return [self.match_list(x) for x in items.tolist()]


@dataclass(eq=False)
class SessionIndex:
    """Recency ranks, CSR session items and newest-first postings (see the
    module docstring), plus the cached matcher. The session ids and raw item
    order are not kept: positions refer to the indexed corpus."""

    order: np.ndarray          # rank -> position
    rank: np.ndarray           # position -> rank
    indptr: np.ndarray         # position -> slice of items
    items: np.ndarray          # distinct items of each session, ascending
    post_indptr: np.ndarray    # item -> slice of post_ranks
    post_ranks: np.ndarray     # ranks of the sessions holding each item, ascending
    _matcher: EmbeddingMatcher | None = field(default=None, repr=False)

    @property
    def n_items(self) -> int:
        return len(self.post_indptr) - 1

    def matcher(self, embeddings: np.ndarray, threshold: float) -> EmbeddingMatcher:
        """The cached matcher for `embeddings` (by identity) at `threshold`.
        It keeps the match lists of the items queried through it (at most
        MATCH_CACHE_ENTRIES ids); a new array or threshold starts a new one."""
        m = self._matcher
        if m is None or m.source is not embeddings or m.threshold != float(threshold):
            m = self._matcher = EmbeddingMatcher(embeddings, threshold)
        return m


def index_sessions(train: SessionCorpus) -> SessionIndex:
    """Recency ranks, CSR session items and newest-first postings of the
    training sessions."""
    n = len(train)
    if not n:
        raise DataError("cannot index an empty corpus")
    lengths, flat, start_ts = np.diff(train.indptr), train.items, train.start_ts
    if flat.size and flat.min() < 0:
        raise DataError(f"negative item id {flat.min()} in the indexed sessions")
    # ~t = -t - 1 orders newest first like -t but cannot wrap at -2**63;
    # stable, so full ties keep position order
    order = np.lexsort((-str_codes(train.ids), ~start_ts))
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)

    pos = np.repeat(np.arange(n), lengths)
    by = np.lexsort((flat, pos))
    pos, flat = pos[by], flat[by]
    keep = np.ones(flat.size, bool)
    keep[1:] = (pos[1:] != pos[:-1]) | (flat[1:] != flat[:-1])
    pos, items = pos[keep], flat[keep]
    indptr = _offsets(np.bincount(pos, minlength=n))

    n_items = int(items.max()) + 1 if items.size else 0
    by = np.lexsort((rank[pos], items))
    return SessionIndex(order, rank, indptr, items,
                        _offsets(np.bincount(items, minlength=n_items)), rank[pos][by])


@dataclass
class ScoredSession:
    position: int
    similarity: float


def _in_index(index: SessionIndex, items: np.ndarray) -> np.ndarray:
    """Mask of the items within the index's item range."""
    return (items >= 0) & (items < index.n_items)


def _per_catalog_item(index: SessionIndex, matcher: EmbeddingMatcher | None,
                      query: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
    """For each catalog item, the number of the (distinct, ascending) query
    items that match it, or with `values` the largest of their `values`; 0
    where none does. Without GCNext an item matches only itself."""
    if matcher is None:
        out = np.zeros(index.n_items, np.int64)
        inside = _in_index(index, query)
        out[query[inside]] = 1 if values is None else values[inside]
        return out
    lists = matcher.match_lists(query)
    hits = np.concatenate(lists)
    if values is None:
        return np.bincount(hits, minlength=matcher.m)
    out = np.zeros(matcher.m, np.int64)
    np.maximum.at(out, hits, np.repeat(values, [len(found) for found in lists]))
    return out


def _matcher_for(index: SessionIndex, config: KnnConfig,
                 embeddings: np.ndarray | None) -> EmbeddingMatcher | None:
    if not config.gcnext.enabled:
        return None
    if embeddings is None:
        raise ConfigError("gcnext is enabled but no embeddings were supplied")
    return index.matcher(embeddings, config.gcnext.distance_threshold)


def _session_items(index: SessionIndex, positions: np.ndarray,
                   matcher: EmbeddingMatcher | None):
    """(segment starts, lengths, items) of the sessions at `positions`; under
    GCNext every item must have an embedding row."""
    starts = index.indptr[positions]
    lengths = index.indptr[positions + 1] - starts
    indptr, entries = _spans(starts, lengths)
    items = index.items[entries]
    if matcher is not None and items.size and items.max() >= matcher.m:
        raise ConfigError(f"no embedding row for item {items.max()}")
    return indptr[:-1], lengths, items


def _candidate_pool(input_set, index: SessionIndex, config: KnnConfig,
                    matcher: EmbeddingMatcher | None) -> np.ndarray:
    """Recency ranks (ascending) of the `m_sample` newest sessions holding an
    input item, or with `expand_pool` an item matched by one."""
    query = np.array(sorted(input_set), dtype=np.int64)
    if matcher is not None and config.gcnext.expand_pool:
        query = np.unique(np.concatenate([query, *matcher.match_lists(query)]))
    sources = query[_in_index(index, query)]
    lo = index.post_indptr[sources]
    lengths = np.minimum(index.post_indptr[sources + 1] - lo, config.m_sample)
    _, entries = _spans(lo, lengths)
    return np.unique(index.post_ranks[entries])[:config.m_sample]


def find_neighbors(input_items, index: SessionIndex, config: KnnConfig,
                   embeddings: np.ndarray | None = None) -> list[ScoredSession]:
    """Top-k candidate sessions scored by session similarity.

    Ties rank newer sessions first. Input items absent from the index simply
    contribute no exact matches but still take part in embedding matching.
    """
    input_set = frozenset(input_items)
    if not input_set:
        return []
    matcher = _matcher_for(index, config, embeddings)
    query = np.array(sorted(input_set), dtype=np.int64)
    # the pairs a candidate item adds: the number of input items it matches
    matches = _per_catalog_item(index, matcher, query)
    ranks = _candidate_pool(input_set, index, config, matcher)
    if not ranks.size:
        return []
    positions = index.order[ranks]
    starts, sizes, items = _session_items(index, positions, matcher)
    pairs = np.add.reduceat(matches[items], starts)
    hit = pairs > 0
    sims = pairs[hit] / np.sqrt(len(input_set) * sizes[hit])
    best = np.lexsort((ranks[hit], -sims))[:config.k]
    return [ScoredSession(p, s)
            for p, s in zip(positions[hit][best].tolist(), sims[best].tolist())]


def score_items(neighbors: list[ScoredSession], input_items, index: SessionIndex,
                config: KnnConfig, embeddings: np.ndarray | None = None) -> dict[int, float]:
    """score(x) = sum over neighbor sessions containing x of sim * weight.

    With position weighting the weight is p/n, where p is the 1-based input
    position of the latest input item that matches an item of the session.
    """
    if not neighbors:
        return {}
    matcher = _matcher_for(index, config, embeddings)
    positions = np.array([nb.position for nb in neighbors], dtype=np.int64)
    contribution = np.array([nb.similarity for nb in neighbors], dtype=np.float64)
    starts, lengths, items = _session_items(index, positions, matcher)
    if config.position_weighting:
        inputs = np.asarray(tuple(input_items), dtype=np.int64)
        n = len(inputs)
        # each distinct input item and the 1-based position of its last occurrence
        query, first_from_end = np.unique(inputs[::-1], return_index=True)
        last = n - first_from_end
        latest = _per_catalog_item(index, matcher, query, last)
        contribution = contribution * (np.maximum.reduceat(latest[items], starts) / n)
    weights = np.repeat(contribution, lengths)
    live = weights != 0.0
    items, weights = items[live], weights[live]
    # bincount adds in array order, so each item's score sums its
    # contributions in neighbour order
    totals = np.bincount(items, weights=weights)
    scored = np.unique(items)
    return dict(zip(scored.tolist(), totals[scored].tolist()))


@dataclass(frozen=True)
class RankedList:
    """Descending-score item ranking; ties broken by ascending item index."""

    entries: tuple[tuple[int, float], ...]

    def items(self) -> list[int]:
        return [i for i, _ in self.entries]

    def __len__(self):
        return len(self.entries)


def recommend(input_items, index: SessionIndex, config: KnnConfig,
              embeddings: np.ndarray | None = None) -> RankedList:
    """The top `config.k_rec` items for one input session.

    `input_items` may be any iterable; it is read once. Under GCNext the index
    caches the unit rows of `embeddings` and the match list of each item
    queried, keyed by the identity of the array and the threshold: to serve
    changed embeddings, pass a new array rather than editing the one given
    before in place. The lists are bounded by MATCH_CACHE_ENTRIES ids in all.
    """
    input_items = tuple(input_items)
    if not input_items:
        raise DataError("input session must contain at least one item")
    neighbors = find_neighbors(input_items, index, config, embeddings)
    scores = score_items(neighbors, input_items, index, config, embeddings)
    if config.exclude_input_items:
        for item in set(input_items):
            scores.pop(item, None)
    items = np.fromiter(scores.keys(), np.int64, len(scores))
    values = np.fromiter(scores.values(), np.float64, len(scores))
    top = np.lexsort((items, -values))[:config.k_rec]
    return RankedList(tuple(zip(items[top].tolist(), values[top].tolist())))

