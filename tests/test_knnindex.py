"""The indexed session-kNN query path against the per-query reference in
knnref.py: identical pools, neighbour lists, item scores and ranked lists,
compared with ==, plus the index's matcher cache and its error checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnref
from sessgraph import knnrec as kr
from sessgraph import sessiondata as sd
from sessgraph.errors import ConfigError, DataError

THRESHOLDS = (0.0, 0.2, 0.5, 1.0, 2.0)


def _corpus(item_lists, timestamps, ids):
    return sd.SessionCorpus([sd.Session(sid, tuple(items), t)
                             for items, t, sid in zip(item_lists, timestamps, ids)])


@st.composite
def cases(draw):
    """A small corpus with timestamp and id ties and repeated items, a
    catalog two items wider than the index (those items are in no session),
    integer embeddings with zero rows, a config and a few queries."""
    n_items = draw(st.integers(1, 8))
    m = n_items + 2
    item_lists = draw(st.lists(st.lists(st.integers(0, n_items - 1), min_size=1, max_size=6),
                               min_size=1, max_size=25))
    n = len(item_lists)
    timestamps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ids = [f"s{j}" for j in draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))]
    # 2-d rows in {-1, 0, 1}: distances 0, 1 - 1/sqrt(2), 1, 1 + 1/sqrt(2) and 2
    # meet the thresholds exactly or not at all; a zero row matches nothing
    # below distance 1, not even its own item
    embeddings = np.array(draw(st.lists(st.lists(st.integers(-1, 1), min_size=2, max_size=2),
                                        min_size=m, max_size=m)), dtype=np.float64)
    k = draw(st.integers(1, 8))
    config = kr.KnnConfig(
        k=k, m_sample=k + draw(st.integers(0, 10)),
        base_mode=draw(st.sampled_from(["sknn", "v-sknn"])),
        gcnext=kr.GcnextConfig(draw(st.booleans()), draw(st.sampled_from(THRESHOLDS)),
                               draw(st.sampled_from(["rscore", "position"])),
                               draw(st.booleans())),
        k_rec=draw(st.integers(1, 25)),
        exclude_input_items=draw(st.booleans()),
    )
    queries = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=5),
                            min_size=1, max_size=4))
    return _corpus(item_lists, timestamps, ids), embeddings, config, queries


@settings(max_examples=300)
@given(cases())
def test_indexed_queries_equal_reference(case):
    corpus, embeddings, config, queries = case
    index, ref = kr.index_sessions(corpus), knnref.index_sessions(corpus)
    emb = embeddings if config.gcnext.enabled else None
    matcher = ref_matcher = None
    if emb is not None:
        matcher = index.matcher(emb, config.gcnext.distance_threshold)
        ref_matcher = knnref.EmbeddingMatcher(emb, config.gcnext.distance_threshold)
    for query in queries:
        pool = kr._candidate_pool(frozenset(query), index, config, matcher)
        assert index.order[pool].tolist() == knnref.candidate_pool(
            frozenset(query), ref, config, ref_matcher)

        neighbors = kr.find_neighbors(query, index, config, emb)
        assert neighbors == knnref.find_neighbors(query, ref, config, emb)
        assert kr.score_items(neighbors, query, index, config, emb) == \
            knnref.score_items(neighbors, query, ref, config, emb)
        assert kr.recommend(query, index, config, emb).entries == \
            knnref.recommend(query, ref, config, emb).entries

    # score_items on its own: neighbours of one query scored for the next,
    # so some weights are zero
    for found_for, query in zip(queries, queries[1:]):
        neighbors = knnref.find_neighbors(found_for, ref, config, emb)
        assert kr.score_items(neighbors, query, index, config, emb) == \
            knnref.score_items(neighbors, query, ref, config, emb)


def test_index_keeps_session_views():
    corpus = _corpus([[3, 1, 3], [1, 2]], [5, 5], ["b", "a"])
    index = kr.index_sessions(corpus)
    assert index.items[index.indptr[0]:index.indptr[1]].tolist() == [1, 3]
    assert index.items[index.indptr[1]:index.indptr[2]].tolist() == [1, 2]
    holding = {x: index.order[index.post_ranks[index.post_indptr[x]:index.post_indptr[x + 1]]]
               for x in range(index.n_items)}
    assert {x: p.tolist() for x, p in holding.items()} == {0: [], 1: [0, 1], 2: [1], 3: [0]}
    assert index.order.tolist() == [0, 1]      # equal timestamps: id "b" first
    assert index.rank[index.order].tolist() == [0, 1]


def _random_case(seed, n_items=12, n_sessions=60):
    rng = np.random.default_rng(seed)
    item_lists = [rng.integers(0, n_items, size=rng.integers(2, 6)).tolist()
                  for _ in range(n_sessions)]
    corpus = _corpus(item_lists, rng.integers(0, 50, size=n_sessions).tolist(),
                     [f"s{i}" for i in range(n_sessions)])
    queries = [rng.integers(0, n_items, size=rng.integers(1, 4)).tolist() for _ in range(20)]
    return corpus, queries, rng


@pytest.mark.parametrize("expand", [False, True])
def test_matcher_cache_follows_embeddings_and_threshold(expand):
    corpus, queries, rng = _random_case(3)
    first = rng.normal(size=(12, 4))
    second = first.copy()
    second[:6] = rng.normal(size=(6, 4))
    index = kr.index_sessions(corpus)
    for emb, tau in [(first, 0.4), (second, 0.4), (second, 0.9), (first, 0.4)]:
        config = kr.KnnConfig(k=10, m_sample=30, base_mode="v-sknn",
                              gcnext=kr.GcnextConfig(True, tau, "position", expand))
        fresh = kr.index_sessions(corpus)
        for query in queries:
            assert kr.recommend(query, index, config, emb).entries == \
                kr.recommend(query, fresh, config, emb).entries
        assert index.matcher(emb, tau) is index.matcher(emb, tau)


@pytest.mark.parametrize("tau", [0.0, 0.5, 0.99, 1.0, 1.5])
def test_match_lists_equal_match_rows(tau):
    """Each item's cached list is flatnonzero of its match row. An all-zero
    embedding row sits at distance 1 from every row, itself included, so it
    matches nothing below threshold 1 and everything from 1 on."""
    emb = np.random.default_rng(5).normal(size=(15, 4))
    emb[3] = 0.0
    matcher = kr.EmbeddingMatcher(emb, tau)
    lists = matcher.match_lists(np.arange(15))
    for x, found in enumerate(lists):
        assert found.tolist() == np.flatnonzero(matcher.match_row(x)).tolist()
        assert matcher.match_list(x) is found
    assert lists[3].tolist() == ([] if tau < 1 else list(range(15)))
    assert [3 in found for found in lists] == [tau >= 1] * 15


def test_match_row_runs_once_per_distinct_item(monkeypatch):
    corpus, queries, rng = _random_case(4)
    emb = rng.normal(size=(12, 4))
    calls = []
    match_row = kr.EmbeddingMatcher.match_row

    def counted(self, item):
        calls.append(item)
        return match_row(self, item)

    monkeypatch.setattr(kr.EmbeddingMatcher, "match_row", counted)
    index = kr.index_sessions(corpus)
    config = kr.KnnConfig(k=10, m_sample=30, base_mode="v-sknn",
                          gcnext=kr.GcnextConfig(True, 0.6, "position", True))
    stream = queries * 3
    for query in stream:
        kr.recommend(query, index, config, emb)
    assert sorted(calls) == sorted({x for query in stream for x in query})


@pytest.mark.parametrize("cap", [5, 12, 30])
def test_match_cache_stays_within_its_bound(monkeypatch, cap):
    """At threshold 2 every item matches every item (12 ids a list). A cap
    below one list caches nothing; the others clear the cache when full."""
    monkeypatch.setattr(kr, "MATCH_CACHE_ENTRIES", cap)
    corpus, queries, rng = _random_case(5)
    emb = rng.normal(size=(12, 4))
    index, ref = kr.index_sessions(corpus), knnref.index_sessions(corpus)
    for expand, scoring in [(False, "rscore"), (True, "position")]:
        config = kr.KnnConfig(k=10, m_sample=30,
                              gcnext=kr.GcnextConfig(True, 2.0, scoring, expand))
        for query in queries * 2:
            assert kr.recommend(query, index, config, emb).entries == \
                knnref.recommend(query, ref, config, emb).entries
            matcher = index.matcher(emb, 2.0)
            held = sum(found.size for found in matcher._lists.values())
            assert held == matcher._entries <= cap


def test_pool_candidate_without_embedding_row_is_config_error():
    index = kr.index_sessions(_corpus([[0, 1], [0, 7]], [0, 1], ["a", "b"]))
    config = kr.KnnConfig(gcnext=kr.GcnextConfig(True, 0.5))
    with pytest.raises(ConfigError, match="no embedding row for item 7"):
        kr.find_neighbors([0], index, config, np.eye(3))
    with pytest.raises(ConfigError, match="no embedding row for item 7"):
        # item 1 is in session 0 only; at distance 1 it matches item 0 too
        expand = kr.KnnConfig(gcnext=kr.GcnextConfig(True, 1.0, expand_pool=True))
        kr.recommend([1], index, expand, np.eye(3))


def test_negative_item_is_data_error():
    with pytest.raises(DataError, match="negative item id -1"):
        kr.index_sessions(_corpus([[0, -1]], [0], ["a"]))


def test_oldest_int64_timestamp_ranks_last():
    """Recency order holds at the int64 limits: a start time of -2**63 is
    the oldest, not the newest."""
    index = kr.index_sessions(_corpus([[0], [1], [2]], [10, -2**63, 20], ["a", "b", "c"]))
    assert index.order.tolist() == [2, 0, 1]
    assert index.rank.tolist() == [1, 2, 0]


@pytest.mark.parametrize("ids", [["s\0", "s"], ["s", "s\0"]])
def test_equal_start_times_order_by_id_with_trailing_nul(ids):
    """Ties in start time put the larger id first in str order, as knnref
    does, whatever the file order; numpy's str dtype would drop the NUL."""
    corpus = _corpus([[0], [1]], [5, 5], ids)
    index = kr.index_sessions(corpus)
    assert [ids[p] for p in index.order.tolist()] == ["s\0", "s"]
    assert index.order.tolist() == knnref.index_sessions(corpus).recency_order
