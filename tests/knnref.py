"""Per-query session-kNN reference: the straight-line implementation that
`sessgraph.knnrec` had before its index, kept as the exact oracle of the
indexed query path.

Every query scans the recency order of all training sessions, rebuilds a
recency dict, re-normalises the embedding table and counts matched pairs in
a Python double loop. Slow, but each step is the definition, so the indexed
path must reproduce its neighbour lists and scores bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sessgraph.errors import ConfigError, DataError
from sessgraph.knnrec import KnnConfig, RankedList, ScoredSession
from sessgraph.sessiondata import SessionCorpus


@dataclass
class RefSession:
    session_id: str
    items: tuple[int, ...]
    item_set: frozenset[int]
    start_ts: int


@dataclass
class RefIndex:
    sessions: list[RefSession]
    by_item: dict[int, list[int]]          # item -> positions into sessions
    recency_order: list[int]               # newest first, ties by id descending


def index_sessions(train: SessionCorpus) -> RefIndex:
    if not train.sessions:
        raise DataError("cannot index an empty corpus")
    sessions = [
        RefSession(s.session_id, tuple(s.items), frozenset(s.items), s.start_ts)
        for s in train.sessions
    ]
    by_item: dict[int, list[int]] = {}
    for pos, s in enumerate(sessions):
        for item in s.item_set:
            by_item.setdefault(item, []).append(pos)
    recency = sorted(range(len(sessions)),
                     key=lambda p: (sessions[p].start_ts, sessions[p].session_id),
                     reverse=True)
    return RefIndex(sessions, by_item, recency)


class EmbeddingMatcher:
    def __init__(self, embeddings: np.ndarray, threshold: float):
        emb = np.asarray(embeddings, dtype=np.float64)
        norms = np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
        self.unit = emb / norms
        self.threshold = float(threshold)
        self.m = emb.shape[0]

    def check_items(self, items):
        for it in items:
            if it < 0 or it >= self.m:
                raise ConfigError(f"no embedding row for item {it}")

    def match_row(self, item: int) -> np.ndarray:
        sims = self.unit @ self.unit[item]
        return (1.0 - sims) <= self.threshold + 1e-12


def _binary_cosine(a: frozenset, b: frozenset) -> float:
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / math.sqrt(len(a) * len(b))


def candidate_pool(input_set, index: RefIndex, config: KnnConfig,
                   matcher: EmbeddingMatcher | None) -> list[int]:
    positions = set()
    for item in input_set:
        positions.update(index.by_item.get(item, ()))
    if matcher is not None and config.gcnext.expand_pool:
        combined = np.zeros(matcher.m, dtype=bool)
        for item in input_set:
            combined |= matcher.match_row(item)
        for item in np.flatnonzero(combined):
            positions.update(index.by_item.get(int(item), ()))
    pooled = [p for p in index.recency_order if p in positions]
    return pooled[:config.m_sample]


def find_neighbors(input_items, index: RefIndex, config: KnnConfig,
                   embeddings: np.ndarray | None = None) -> list[ScoredSession]:
    input_set = frozenset(input_items)
    if not input_set:
        return []
    matcher = None
    if config.gcnext.enabled:
        if embeddings is None:
            raise ConfigError("gcnext is enabled but no embeddings were supplied")
        matcher = EmbeddingMatcher(embeddings, config.gcnext.distance_threshold)
        matcher.check_items(input_set)
    pool = candidate_pool(input_set, index, config, matcher)

    scored = []
    if matcher is None:
        for pos in pool:
            sim = _binary_cosine(input_set, index.sessions[pos].item_set)
            if sim > 0:
                scored.append(ScoredSession(pos, sim))
    else:
        masks = {item: matcher.match_row(item) for item in input_set}
        for pos in pool:
            cand = index.sessions[pos].item_set
            matcher.check_items(cand)
            pairs = sum(int(masks[x][y]) for x in input_set for y in cand)
            if pairs == 0:
                continue
            r = pairs / math.sqrt(len(input_set) * len(cand))
            scored.append(ScoredSession(pos, r))

    recency_rank = {p: r for r, p in enumerate(index.recency_order)}
    scored.sort(key=lambda s: (-s.similarity, recency_rank[s.position]))
    return scored[:config.k]


def _position_weight(input_items, session: RefSession, matcher, masks) -> float:
    n = len(input_items)
    for pos in range(n, 0, -1):
        item = input_items[pos - 1]
        if matcher is None:
            hit = item in session.item_set
        else:
            hit = bool(np.any([masks[item][y] for y in session.item_set]))
        if hit:
            return pos / n
    return 0.0


def score_items(neighbors: list[ScoredSession], input_items, index: RefIndex,
                config: KnnConfig, embeddings: np.ndarray | None = None) -> dict[int, float]:
    if not neighbors:
        return {}
    matcher = None
    masks = None
    if config.gcnext.enabled:
        if embeddings is None:
            raise ConfigError("gcnext is enabled but no embeddings were supplied")
        matcher = EmbeddingMatcher(embeddings, config.gcnext.distance_threshold)
        masks = {item: matcher.match_row(item) for item in set(input_items)}
    scores: dict[int, float] = {}
    for nb in neighbors:
        session = index.sessions[nb.position]
        if config.position_weighting:
            w = _position_weight(tuple(input_items), session, matcher, masks)
        else:
            w = 1.0
        contribution = nb.similarity * w
        if contribution == 0.0:
            continue
        for item in session.item_set:
            scores[item] = scores.get(item, 0.0) + contribution
    return scores


def recommend(input_items, index: RefIndex, config: KnnConfig,
              embeddings: np.ndarray | None = None) -> RankedList:
    if len(tuple(input_items)) < 1:
        raise DataError("input session must contain at least one item")
    neighbors = find_neighbors(input_items, index, config, embeddings)
    scores = score_items(neighbors, input_items, index, config, embeddings)
    if config.exclude_input_items:
        for item in set(input_items):
            scores.pop(item, None)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return RankedList(tuple(ranked[:config.k_rec]))
