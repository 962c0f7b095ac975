"""Session-kNN tests: inverted-index oracle, r-score arithmetic, the one-hot
degeneracy, threshold monotonicity, and a full-pipeline brute-force oracle."""

import math

import numpy as np
import pytest

from sessgraph import knnrec as kr
from sessgraph import sessiondata as sd
from sessgraph.errors import ConfigError


def _corpus(item_lists, ts=None):
    ts = ts or list(range(len(item_lists)))
    sessions = [sd.Session(f"s{i:04d}", tuple(items), t)
                for i, (items, t) in enumerate(zip(item_lists, ts))]
    return sd.SessionCorpus(sessions)


def _config(**kw):
    gc = kw.pop("gcnext", kr.GcnextConfig())
    defaults = dict(k=100, m_sample=1000, base_mode="sknn", gcnext=gc)
    defaults.update(kw)
    return kr.KnnConfig(**defaults)


# ---------------------------------------------------------------------------
# independent naive implementation (the oracle)
# ---------------------------------------------------------------------------

def naive_recommend(item_lists, timestamps, session_ids, query, cfg,
                    embeddings=None, k_rec=20):
    """Straight-line reimplementation used as the full-pipeline oracle."""
    n = len(item_lists)
    q_set = set(query)
    if embeddings is not None:
        emb = np.asarray(embeddings, float)
        unit = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)

        def dist(x, y):
            return 1.0 - float(unit[x] @ unit[y])

    # candidate pool: most recent sessions sharing an exact item
    shares = [i for i in range(n) if set(item_lists[i]) & q_set]
    if cfg.gcnext.enabled and cfg.gcnext.expand_pool:
        for i in range(n):
            if i in shares:
                continue
            if any(dist(x, y) <= cfg.gcnext.distance_threshold + 1e-12
                   for x in q_set for y in set(item_lists[i])):
                shares.append(i)
    shares.sort(key=lambda i: (timestamps[i], session_ids[i]), reverse=True)
    pool = shares[:cfg.m_sample]

    sims = {}
    for i in pool:
        c_set = set(item_lists[i])
        if not cfg.gcnext.enabled:
            inter = len(q_set & c_set)
            if inter:
                sims[i] = inter / math.sqrt(len(q_set) * len(c_set))
        else:
            pairs = sum(1 for x in q_set for y in c_set
                        if dist(x, y) <= cfg.gcnext.distance_threshold + 1e-12)
            if pairs:
                sims[i] = pairs / math.sqrt(len(q_set) * len(c_set))

    recency = {i: r for r, i in enumerate(sorted(
        range(n), key=lambda i: (timestamps[i], session_ids[i]), reverse=True))}
    neighbors = sorted(sims, key=lambda i: (-sims[i], recency[i]))[:cfg.k]

    scores = {}
    for i in neighbors:
        c_set = set(item_lists[i])
        if cfg.base_mode == "v-sknn" or (cfg.gcnext.enabled and
                                         cfg.gcnext.session_scoring == "position"):
            w = 0.0
            for pos in range(len(query), 0, -1):
                x = query[pos - 1]
                if cfg.gcnext.enabled:
                    hit = any(dist(x, y) <= cfg.gcnext.distance_threshold + 1e-12
                              for y in c_set)
                else:
                    hit = x in c_set
                if hit:
                    w = pos / len(query)
                    break
        else:
            w = 1.0
        if sims[i] * w == 0:
            continue
        for item in c_set:
            scores[item] = scores.get(item, 0.0) + sims[i] * w
    if cfg.exclude_input_items:
        for item in q_set:
            scores.pop(item, None)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k_rec]
    return ranked


def _random_setup(rng, n_items=30, n_sessions=200):
    item_lists = [
        [int(rng.integers(0, n_items)) for _ in range(rng.integers(2, 7))]
        for _ in range(n_sessions)
    ]
    timestamps = [int(rng.integers(0, 1000)) for _ in range(n_sessions)]
    corpus = _corpus(item_lists, timestamps)
    index = kr.index_sessions(corpus)
    ids = [s.session_id for s in corpus.sessions]
    return item_lists, timestamps, ids, index


# ---------------------------------------------------------------------------
# index_sessions
# ---------------------------------------------------------------------------

def _holding(index, item):
    """Positions of the indexed sessions whose posting list holds `item`."""
    if item >= index.n_items:
        return []
    lo, hi = index.post_indptr[item], index.post_indptr[item + 1]
    return sorted(index.order[index.post_ranks[lo:hi]].tolist())


def test_inverted_index_has_both_sessions():
    index = kr.index_sessions(_corpus([[0, 1], [0, 2]]))
    assert _holding(index, 0) == [0, 1]
    assert _holding(index, 1) == [0]


def test_index_matches_linear_scan():
    rng = np.random.default_rng(0)
    item_lists, _, _, index = _random_setup(rng)
    for item in range(30):
        expected = [i for i, items in enumerate(item_lists) if item in set(items)]
        assert _holding(index, item) == expected


def test_query_with_no_matches_is_empty():
    index = kr.index_sessions(_corpus([[0, 1], [1, 2]]))
    assert kr.find_neighbors([99], index, _config()) == []
    assert len(kr.recommend([99], index, _config())) == 0


# ---------------------------------------------------------------------------
# find_neighbors / r-score
# ---------------------------------------------------------------------------

def test_identical_sets_similarity_one():
    index = kr.index_sessions(_corpus([[0, 1, 2]]))
    nbrs = kr.find_neighbors([2, 0, 1], index, _config())
    assert nbrs[0].similarity == pytest.approx(1.0)


def test_rscore_direct_substitution():
    # |S_i| = 4, |S_c| = 9, |T| = 3  ->  r = 3 / (2 * 3) = 0.5
    input_items = [0, 1, 2, 3]
    candidate = list(range(4, 13))
    emb = np.eye(20)
    # make exactly 3 matched pairs: clone candidates 4, 5, 6 onto inputs 0, 1, 2
    emb[4] = emb[0]
    emb[5] = emb[1]
    emb[6] = emb[2]
    index = kr.index_sessions(_corpus([candidate]))
    # no exact overlap, so the candidate must be admitted via embedding matches
    cfg = _config(gcnext=kr.GcnextConfig(True, 0.1, "rscore", expand_pool=True))
    nbrs = kr.find_neighbors(input_items, index, cfg, emb)
    assert nbrs[0].similarity == pytest.approx(0.5)


def test_missing_embedding_row_is_config_error():
    index = kr.index_sessions(_corpus([[0, 1]]))
    cfg = _config(gcnext=kr.GcnextConfig(True, 0.5))
    with pytest.raises(ConfigError, match="item"):
        kr.find_neighbors([5], index, cfg, np.eye(2))


def test_threshold_monotonicity_of_pair_counts():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(12, 4))
    index = kr.index_sessions(_corpus([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 10, 11]]))
    query = [0, 4, 7]
    prev = {}
    for tau in [0.0, 0.3, 0.6, 1.0, 1.5, 2.0]:
        cfg = _config(gcnext=kr.GcnextConfig(True, tau))
        nbrs = kr.find_neighbors(query, index, cfg, emb)
        sims = {n.position: n.similarity for n in nbrs}
        for pos, r in prev.items():
            assert sims.get(pos, 0.0) >= r - 1e-12
        prev = sims


# ---------------------------------------------------------------------------
# score_items / recommend
# ---------------------------------------------------------------------------

def test_single_neighbor_sknn_score():
    index = kr.index_sessions(_corpus([[0, 1]]))
    cfg = _config()
    nbrs = kr.find_neighbors([0, 1], index, cfg)
    scores = kr.score_items(nbrs, [0, 1], index, cfg)
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(1.0)


def test_position_weight_linear_rule():
    # input [a, b]; neighbor contains only a (input position 1) -> w = 0.5
    index = kr.index_sessions(_corpus([[0, 9]]))
    cfg = _config(base_mode="v-sknn")
    nbrs = kr.find_neighbors([0, 1], index, cfg)
    scores = kr.score_items(nbrs, [0, 1], index, cfg)
    sim = nbrs[0].similarity
    assert scores[0] == pytest.approx(sim * 0.5)


def test_recommend_single_training_session():
    index = kr.index_sessions(_corpus([[0, 1, 2]]))
    ranked = kr.recommend([0], index, _config())
    assert ranked.items() == [0, 1, 2]  # equal scores -> ascending item index
    scores = [s for _, s in ranked.entries]
    assert scores[0] == scores[1] == scores[2]


@pytest.mark.parametrize("wrap", [iter, lambda items: (x for x in items)],
                         ids=["iterator", "generator"])
@pytest.mark.parametrize("mode", ["sknn", "v-sknn"])
def test_recommend_reads_a_one_shot_iterable_once(wrap, mode):
    index = kr.index_sessions(_corpus([[1, 2], [1, 3, 4]]))
    cfg = _config(base_mode=mode)
    expected = kr.recommend([1], index, cfg)
    assert len(expected) == 4
    assert kr.recommend(wrap([1]), index, cfg).entries == expected.entries


def test_recommend_excludes_input_when_configured():
    index = kr.index_sessions(_corpus([[0, 1, 2]]))
    ranked = kr.recommend([0], index, _config(exclude_input_items=True))
    assert ranked.items() == [1, 2]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode", ["sknn", "v-sknn"])
def test_full_pipeline_matches_naive(seed, mode):
    rng = np.random.default_rng(seed)
    item_lists, timestamps, ids, index = _random_setup(rng)
    cfg = _config(base_mode=mode, k=20, m_sample=50)
    for _ in range(50):
        query = [int(rng.integers(0, 30)) for _ in range(rng.integers(1, 5))]
        got = kr.recommend(query, index, cfg).entries
        expected = naive_recommend(item_lists, timestamps, ids, query, cfg)
        assert len(got) == len(expected)
        for (gi, gs), (ei, es) in zip(got, expected):
            assert gi == ei
            assert gs == pytest.approx(es, abs=1e-10)


@pytest.mark.parametrize("expand", [False, True])
def test_full_pipeline_gcnext_matches_naive(expand):
    rng = np.random.default_rng(7)
    item_lists, timestamps, ids, index = _random_setup(rng, n_items=20, n_sessions=80)
    emb = rng.normal(size=(20, 6))
    cfg = _config(k=15, m_sample=40,
                  gcnext=kr.GcnextConfig(True, 0.35, "rscore", expand_pool=expand))
    for _ in range(25):
        query = [int(rng.integers(0, 20)) for _ in range(rng.integers(1, 4))]
        got = kr.recommend(query, index, cfg, emb).entries
        expected = naive_recommend(item_lists, timestamps, ids, query, cfg, emb)
        assert [i for i, _ in got] == [i for i, _ in expected]
        for (gi, gs), (ei, es) in zip(got, expected):
            assert gs == pytest.approx(es, abs=1e-10)


# ---------------------------------------------------------------------------
# one-hot degeneracy: gcnext reduces to the base recommender
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["sknn", "v-sknn"])
def test_one_hot_degeneracy(mode):
    rng = np.random.default_rng(11)
    n_items = 25
    item_lists, timestamps, ids, index = _random_setup(rng, n_items=n_items,
                                                       n_sessions=100)
    emb = np.eye(n_items)
    base = _config(base_mode=mode)
    ext = _config(base_mode=mode, gcnext=kr.GcnextConfig(True, 0.5, "rscore"))
    for _ in range(50):
        query = [int(rng.integers(0, n_items)) for _ in range(rng.integers(1, 5))]
        off = kr.recommend(query, index, base)
        on = kr.recommend(query, index, ext, emb)
        assert off.items() == on.items()
        for (i1, s1), (i2, s2) in zip(off.entries, on.entries):
            assert s1 == pytest.approx(s2, abs=1e-10)


def test_r_range_invariant():
    rng = np.random.default_rng(13)
    item_lists, timestamps, ids, index = _random_setup(rng, n_items=15, n_sessions=60)
    emb = rng.normal(size=(15, 5))
    cfg = _config(gcnext=kr.GcnextConfig(True, 1.2, "rscore"))
    for _ in range(20):
        query = list({int(rng.integers(0, 15)) for _ in range(rng.integers(1, 5))})
        for nb in kr.find_neighbors(query, index, cfg, emb):
            cand = set(item_lists[nb.position])
            bound = math.sqrt(len(set(query)) * len(cand))
            assert 0.0 <= nb.similarity <= bound + 1e-12


def test_determinism_across_runs():
    rng = np.random.default_rng(17)
    item_lists, timestamps, ids, index = _random_setup(rng)
    cfg = _config()
    q = [3, 5, 7]
    r1 = kr.recommend(q, index, cfg)
    r2 = kr.recommend(q, index, kr.KnnConfig())
    assert r1.entries == r2.entries

