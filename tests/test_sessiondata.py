"""Corpus preparation tests, with independent brute-force oracles for
sessionization, fixpoint filtering, and prefix expansion."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessgraph import sessiondata as sd
from sessgraph.errors import DataError, EmptyCorpusError, RowError, SchemaError, SplitError

SCHEMA = sd.FeatureSchema((("category", sd.CATEGORICAL), ("price", sd.NUMERIC)))


def _csv(rows):
    return "session_id,item_id,timestamp,category,price\n" + "\n".join(rows) + "\n"


def _raw(sid, items, start=0):
    return sd.RawSession(sid, tuple(items), start)


def _rows(log):
    """The (session_id, item_id, timestamp) of each row of an InteractionLog."""
    return [(log.session_ids[s], log.item_ids[i], t)
            for s, i, t in zip(log.session.tolist(), log.item.tolist(), log.timestamp.tolist())]


def _runs(raw):
    """sessionize's runs as RawSession records."""
    return [sd.RawSession(s.session_id, tuple(raw.item_ids[i] for i in s.items), s.start_ts)
            for s in raw.corpus.sessions]


def brute_force_feature_rows(interactions):
    """Oracle: per item, the feature values of the earliest interaction, the
    first one among equal timestamps."""
    best = {}
    for pos, it in enumerate(interactions):
        key = (it.timestamp, pos)
        if it.item_id not in best or key < best[it.item_id][0]:
            best[it.item_id] = (key, it.feature_values)
    return {item: vals for item, (_, vals) in best.items()}


# ---------------------------------------------------------------------------
# load_interactions
# ---------------------------------------------------------------------------

def test_load_three_valid_rows():
    text = _csv(["s1,a,10,books,3.5", "s1,b,20,music,1.0", "s2,a,30,books,3.5"])
    out = sd.load_interactions(text, SCHEMA)
    assert len(out) == 3
    assert _rows(out) == [("s1", "a", 10), ("s1", "b", 20), ("s2", "a", 30)]
    assert sd.collect_feature_rows(out) == {"a": ("books", "3.5"), "b": ("music", "1.0")}


def test_load_rejects_empty_item_id():
    text = _csv(["s1,a,10,books,3.5", "s1,,20,music,1.0"])
    with pytest.raises(RowError, match="row 2"):
        sd.load_interactions(text, SCHEMA)


def test_load_rejects_empty_session_id():
    # the corpus file starts each line with the session id; an empty one
    # would read back with its first item taken for the id
    text = _csv(["s1,a,10,books,3.5", " ,b,20,music,1.0"])
    with pytest.raises(RowError, match="row 2"):
        sd.load_interactions(text, SCHEMA)


@pytest.mark.parametrize("item", ["a b", "a\tb", "a\u00a0b"])
def test_load_rejects_item_id_with_inner_whitespace(item):
    # embeddings.txt and catalog.ids separate the id from what follows by whitespace
    text = _csv(["s1,a,10,books,3.5", f"s1,{item},20,music,1.0"])
    with pytest.raises(RowError, match="row 2"):
        sd.load_interactions(text, SCHEMA)


def test_load_rejects_bad_timestamp():
    text = _csv(["s1,a,xx,books,3.5"])
    with pytest.raises(RowError, match="row 1"):
        sd.load_interactions(text, SCHEMA)


def test_load_rejects_bad_header():
    text = "item,sid,time,category,price\ns1,a,10,books,3.5\n"
    with pytest.raises(SchemaError):
        sd.load_interactions(text, SCHEMA)


def test_load_accepts_bytes_and_tab_delimiter():
    text = "session_id\titem_id\ttimestamp\tcategory\tprice\ns1\ta\t10\tbooks\t2\n"
    out = sd.load_interactions(text.encode(), SCHEMA, sd.DelimitedFormat("\t"))
    assert _rows(out) == [("s1", "a", 10)]


def test_write_then_load_roundtrip_10k_rows():
    rng = np.random.default_rng(0)
    interactions = [
        sd.Interaction(
            f"s{rng.integers(0, 500)}",
            f"i{rng.integers(0, 200)}",
            int(rng.integers(0, 10**6)),
            (f"c{rng.integers(0, 5)}", str(round(float(rng.uniform(0, 10)), 3))),
        )
        for _ in range(10_000)
    ]
    text = sd.write_interactions(interactions, SCHEMA)
    loaded = sd.load_interactions(text, SCHEMA)
    assert _rows(loaded) == [(it.session_id, it.item_id, it.timestamp) for it in interactions]
    assert sd.collect_feature_rows(loaded) == brute_force_feature_rows(interactions)


# ---------------------------------------------------------------------------
# sessionize
# ---------------------------------------------------------------------------

def test_sessionize_splits_on_gap():
    inter = [sd.Interaction("u", "a", 0, ()), sd.Interaction("u", "b", 100, ()),
             sd.Interaction("u", "c", 2000, ())]
    out = _runs(sd.sessionize(inter, gap_seconds=1800))
    assert [s.items for s in out] == [("a", "b"), ("c",)]
    assert [s.start_ts for s in out] == [0, 2000]


def test_sessionize_single_interaction():
    out = _runs(sd.sessionize([sd.Interaction("u", "a", 5, ())]))
    assert len(out) == 1 and out[0].items == ("a",)


def test_sessionize_rejects_split_name_taken_by_another_session():
    inter = [sd.Interaction("a", "x", 0, ()), sd.Interaction("a", "y", 5000, ()),
             sd.Interaction("a#1", "z", 10, ())]
    with pytest.raises(DataError, match="a#1"):
        sd.sessionize(inter, gap_seconds=1800)
    # a session named like a split run is fine while its own runs are renamed
    inter.append(sd.Interaction("a#1", "w", 9000, ()))
    assert sd.sessionize(inter, gap_seconds=1800).corpus.ids == [
        "a#0", "a#1", "a#1#0", "a#1#1"]


def test_sessionize_no_gap_split_when_disabled():
    inter = [sd.Interaction("u", "a", 0, ()), sd.Interaction("u", "b", 10**9, ())]
    out = sd.sessionize(inter, gap_seconds=None)
    assert len(out) == 1


def brute_force_sessionize(interactions, gap_seconds):
    """O(n^2)-ish oracle: per user, repeatedly pull the earliest remaining
    interaction and start a new session whenever the gap exceeds the limit."""
    users = []
    for it in interactions:
        if it.session_id not in users:
            users.append(it.session_id)
    result = []
    for uid in users:
        remaining = [it for it in interactions if it.session_id == uid]
        ordered = []
        while remaining:
            best = min(range(len(remaining)), key=lambda i: remaining[i].timestamp)
            ordered.append(remaining.pop(best))
        sessions = []
        for it in ordered:
            if sessions and it.timestamp - sessions[-1][-1].timestamp <= gap_seconds:
                sessions[-1].append(it)
            else:
                sessions.append([it])
        for k, run in enumerate(sessions):
            sid = uid if len(sessions) == 1 else f"{uid}#{k}"
            result.append(sd.RawSession(sid, tuple(i.item_id for i in run), run[0].timestamp))
    return result


def test_sessionize_matches_brute_force_on_random_stream():
    rng = np.random.default_rng(7)
    interactions = [
        sd.Interaction(f"u{rng.integers(0, 20)}", f"i{rng.integers(0, 40)}",
                       int(rng.integers(0, 5000)), ())
        for _ in range(500)
    ]
    assert _runs(sd.sessionize(interactions, 300)) == brute_force_sessionize(interactions, 300)


# ---------------------------------------------------------------------------
# filter_corpus
# ---------------------------------------------------------------------------

def test_filter_drops_item_below_support():
    sessions = [_raw(f"s{i}", ["a", "b"]) for i in range(5)] + [_raw("s9", ["a", "c", "b"])]
    # c appears once (< 5): dropped; a, b appear 6 times
    corpus, catalog = sd.filter_corpus(sessions, min_item_support=5)
    assert catalog.external_ids == ["a", "b"]
    assert all(len(s) >= 2 for s in corpus.sessions)


def test_filter_all_singletons_is_empty_error():
    with pytest.raises(EmptyCorpusError):
        sd.filter_corpus([_raw("s1", ["a"]), _raw("s2", ["b"])], min_item_support=1)


def test_filter_cascades_to_fixpoint():
    # b's support hinges on sessions that die once a is removed
    sessions = [
        _raw("s1", ["a", "b"]),
        _raw("s2", ["a", "b"]),
        _raw("s3", ["b", "c"]),
        _raw("s4", ["b", "c"]),
        _raw("s5", ["c", "b"]),
    ]
    corpus, catalog = sd.filter_corpus(sessions, min_item_support=3, min_session_len=2)
    # a has support 2 -> removed -> s1, s2 die -> b support 3 (s3,s4,s5) stays
    assert catalog.external_ids == ["b", "c"]
    assert len(corpus) == 3


def brute_force_filter(raw_sessions, min_support, min_len):
    """Oracle: naively re-apply both filters until an entire pass changes nothing."""
    sessions = [list(s.items) for s in raw_sessions]
    alive = [True] * len(sessions)
    while True:
        before = [tuple(s) for s, a in zip(sessions, alive) if a]
        counts = {}
        for s, a in zip(sessions, alive):
            if a:
                for it in s:
                    counts[it] = counts.get(it, 0) + 1
        for i, (s, a) in enumerate(zip(sessions, alive)):
            if a:
                sessions[i] = [it for it in s if counts.get(it, 0) >= min_support]
                if len(sessions[i]) < min_len:
                    alive[i] = False
        after = [tuple(s) for s, a in zip(sessions, alive) if a]
        if before == after:
            return [
                (raw.session_id, tuple(s))
                for raw, s, a in zip(raw_sessions, sessions, alive)
                if a
            ]


@pytest.mark.parametrize("seed", range(5))
def test_filter_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    sessions = [
        _raw(f"s{i}", [f"i{rng.integers(0, 50)}" for _ in range(rng.integers(1, 8))], int(i))
        for i in range(200)
    ]
    corpus, catalog = sd.filter_corpus(sessions, min_item_support=5, min_session_len=2)
    oracle = brute_force_filter(sessions, 5, 2)
    got = [(s.session_id, tuple(catalog.external_ids[i] for i in s.items))
           for s in corpus.sessions]
    assert got == oracle


def test_filter_is_idempotent():
    rng = np.random.default_rng(3)
    sessions = [
        _raw(f"s{i}", [f"i{rng.integers(0, 30)}" for _ in range(rng.integers(2, 6))], int(i))
        for i in range(150)
    ]
    corpus, catalog = sd.filter_corpus(sessions)
    reraw = [sd.RawSession(s.session_id, tuple(catalog.external_ids[i] for i in s.items),
                           s.start_ts) for s in corpus.sessions]
    corpus2, catalog2 = sd.filter_corpus(reraw)
    assert catalog2.external_ids == catalog.external_ids
    assert [s.items for s in corpus2.sessions] == [s.items for s in corpus.sessions]


# ---------------------------------------------------------------------------
# sessionize and filter_corpus against the oracles on drawn logs
# ---------------------------------------------------------------------------

# ids that collide after gap splitting ("a" -> "a#1"), order differently in
# str and numpy str order ("s" and "s\0"), or are not ASCII
DRAWN_SESSION_IDS = ["a", "a#1", "a#0", "b", "s", "s\x00", "é"]
DRAWN_ITEM_IDS = ["x", "y", "z", "i", "i\x00", "é", "日本"]


@settings(max_examples=300)
@given(rows=st.lists(st.tuples(st.sampled_from(DRAWN_SESSION_IDS),
                               st.sampled_from(DRAWN_ITEM_IDS), st.integers(0, 40)),
                     max_size=40),
       gap=st.one_of(st.none(), st.integers(1, 12)))
def test_sessionize_matches_brute_force_on_drawn_logs(rows, gap):
    interactions = [sd.Interaction(sid, item, ts, ()) for sid, item, ts in rows]
    expected = brute_force_sessionize(interactions, math.inf if gap is None else gap)
    names = [s.session_id for s in expected]
    taken = [name for k, name in enumerate(names) if name in names[:k]]
    if taken:
        # the run whose name an earlier run already holds
        with pytest.raises(DataError, match=re.escape(repr(taken[0]))):
            sd.sessionize(interactions, gap)
    else:
        assert _runs(sd.sessionize(interactions, gap)) == expected


@settings(max_examples=300)
@given(item_lists=st.lists(st.lists(st.sampled_from(DRAWN_ITEM_IDS), min_size=1, max_size=6),
                           min_size=1, max_size=25),
       min_support=st.integers(1, 4), min_len=st.integers(1, 3))
def test_filter_matches_brute_force_on_drawn_sessions(item_lists, min_support, min_len):
    sessions = [_raw(f"s{k}", items, k) for k, items in enumerate(item_lists)]
    oracle = brute_force_filter(sessions, min_support, min_len)
    if not oracle:
        with pytest.raises(EmptyCorpusError):
            sd.filter_corpus(sessions, min_support, min_len)
        return
    corpus, catalog = sd.filter_corpus(sessions, min_support, min_len)
    assert catalog.external_ids == sorted({item for _, items in oracle for item in items})
    assert [(s.session_id, tuple(catalog.external_ids[i] for i in s.items))
            for s in corpus.sessions] == oracle


# ---------------------------------------------------------------------------
# temporal_split
# ---------------------------------------------------------------------------

def _indexed_sessions(n, rng=None, items_per=3, n_items=10):
    rng = rng or np.random.default_rng(0)
    return [
        sd.Session(f"s{i:04d}", tuple(int(rng.integers(0, n_items)) for _ in range(items_per)),
                   int(rng.integers(0, 10**6)))
        for i in range(n)
    ]


def test_split_10_sessions_is_8_1_1():
    corpus = sd.SessionCorpus(_indexed_sessions(10))
    split = sd.temporal_split(corpus)
    assert split.assigned_counts == (8, 1, 1)


def test_split_tie_break_by_session_id():
    sessions = [sd.Session(f"s{i}", (0, 1), 42) for i in range(5)]
    split = sd.temporal_split(sd.SessionCorpus(sessions))
    assert [s.session_id for s in split.train.sessions] == ["s0", "s1", "s2", "s3"]
    assert [s.session_id for s in split.test.sessions] == ["s4"]


def test_split_too_small_errors():
    with pytest.raises(SplitError):
        sd.temporal_split(sd.SessionCorpus(_indexed_sessions(2)))


@pytest.mark.parametrize("n", list(range(3, 41)))
def test_split_fraction_floors_for_all_n(n):
    corpus = sd.SessionCorpus(_indexed_sessions(n))
    split = sd.temporal_split(corpus)
    assert split.assigned_counts[0] == int(0.8 * n)
    assert split.assigned_counts[1] == int(0.1 * n)
    assert sum(split.assigned_counts) == n


def test_split_temporal_ordering_property():
    rng = np.random.default_rng(11)
    for _ in range(10):
        corpus = sd.SessionCorpus(_indexed_sessions(200, rng))
        split = sd.temporal_split(corpus)
        max_train = max(s.start_ts for s in split.train.sessions)
        if split.test.sessions:
            assert max_train <= min(s.start_ts for s in split.test.sessions)
        if split.validation.sessions:
            assert max_train <= min(s.start_ts for s in split.validation.sessions)


def test_split_drops_unseen_items_from_val_test():
    sessions = [sd.Session(f"s{i}", (0, 1), i) for i in range(8)]
    sessions.append(sd.Session("s8", (0, 2), 100))   # val: item 2 unseen in train
    sessions.append(sd.Session("s9", (2, 3), 200))   # test: both unseen -> dropped
    split = sd.temporal_split(sd.SessionCorpus(sessions))
    assert split.assigned_counts == (8, 1, 1)
    assert [s.items for s in split.validation.sessions] == []  # (0, 2) shrinks below 2
    assert [s.items for s in split.test.sessions] == []


def test_restrict_split_reindexes_catalog():
    sessions = [sd.Session(f"s{i}", (1, 3), i) for i in range(9)]
    sessions.append(sd.Session("s9", (1, 3), 50))
    catalog = sd.ItemCatalog(["a", "b", "c", "d"], {"a": 0, "b": 1, "c": 2, "d": 3})
    split = sd.temporal_split(sd.SessionCorpus(sessions))
    new_split, new_catalog = sd.restrict_split_to_train(split, catalog)
    assert new_catalog.external_ids == ["b", "d"]
    assert new_split.train.sessions[0].items == (0, 1)


# ---------------------------------------------------------------------------
# generate_prefixes
# ---------------------------------------------------------------------------

def test_prefix_expansion_basic():
    s = sd.Session("s", (10, 11, 12), 0)
    out = sd.generate_prefixes(s)
    assert out == [sd.PrefixSample((10,), 11), sd.PrefixSample((10, 11), 12)]


def test_prefix_length_two_session():
    assert len(sd.generate_prefixes(sd.Session("s", (1, 2), 0))) == 1


def test_prefix_cap_on_long_session():
    items = tuple(range(60))
    out = sd.generate_prefixes(sd.Session("s", items, 0), max_len=50)
    assert len(out) == 59
    assert all(len(p.prefix) <= 50 for p in out)
    # longest prefixes are suffixes of the session
    last = out[-1]
    assert last.prefix == items[9:59] and last.target == 59

    # brute-force oracle over every position
    for t in range(2, 61):
        expected = items[max(0, t - 1 - 50):t - 1]
        assert out[t - 2].prefix == expected
        assert out[t - 2].target == items[t - 1]


def test_prefix_count_identity():
    rng = np.random.default_rng(5)
    corpus = sd.SessionCorpus(_indexed_sessions(50, rng, items_per=4))
    total = sum(len(s) - 1 for s in corpus.sessions)
    assert len(sd.corpus_prefixes(corpus)) == total


@settings(max_examples=300)
@given(st.lists(st.lists(st.integers(0, 9), max_size=12), max_size=8), st.integers(1, 13))
@example([], 1)
@example([[4], [5, 6], [7]], 1)
@example([[0, 1, 2, 3, 4, 5, 6], [8], [2, 2, 9]], 3)
def test_corpus_prefixes_equal_generate_prefixes(item_lists, max_len):
    """The flat form built from the corpus columns equals generate_prefixes
    over each session record, values and dtypes, for empty corpora, empty and
    one-item sessions and sessions longer than max_len."""
    corpus = sd.SessionCorpus(sd.Session(f"s{j}", tuple(items), j)
                              for j, items in enumerate(item_lists))
    got = sd.corpus_prefixes(corpus, max_len)
    want = sd.FlatPrefixes.of([p for s in corpus.sessions
                               for p in sd.generate_prefixes(s, max_len)])
    for name in ("indptr", "items", "targets"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype == np.int64
        assert g.tolist() == w.tolist()


# ---------------------------------------------------------------------------
# encode_features
# ---------------------------------------------------------------------------

def test_encoding_blocks_and_labels():
    catalog = sd.ItemCatalog.from_ids(["a", "b", "c"])
    rows = {"a": ("x", "1"), "b": ("y", "2"), "c": ("x", "3")}
    X, columns = sd.encode_features(rows, SCHEMA, catalog)
    assert columns == ("category=x", "category=y", "price")
    assert X[:, :2].tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


def test_zscore_closed_form():
    schema = sd.FeatureSchema((("price", sd.NUMERIC),))
    catalog = sd.ItemCatalog.from_ids(["a", "b", "c"])
    X, _ = sd.encode_features({"a": ("1",), "b": ("2",), "c": ("3",)}, schema, catalog)
    np.testing.assert_allclose(X[:, 0], [-1.224744871391589, 0.0, 1.224744871391589],
                               atol=1e-6)


def test_zero_variance_numeric_is_constant_zero():
    schema = sd.FeatureSchema((("price", sd.NUMERIC),))
    catalog = sd.ItemCatalog.from_ids(["a", "b"])
    X, _ = sd.encode_features({"a": ("7",), "b": ("7",)}, schema, catalog)
    assert np.all(X == 0)


def test_encoding_is_deterministic():
    rng = np.random.default_rng(9)
    ids = [f"i{k}" for k in range(30)]
    rows = {i: (f"c{rng.integers(0, 4)}", str(float(rng.uniform()))) for i in ids}
    catalog = sd.ItemCatalog.from_ids(ids)
    X1, _ = sd.encode_features(rows, SCHEMA, catalog)
    X2, _ = sd.encode_features(dict(reversed(list(rows.items()))), SCHEMA, catalog)
    assert np.array_equal(X1, X2)


def _reference_encoding(rows, schema):
    """The per-row rule, one cell at a time: a 1 in the column of the row's
    value among the sorted str values of a categorical feature; for a numeric
    feature, (v - mean) / std with the population std, or 0 when std is 0."""
    cats, stats = {}, {}
    for j, (name, kind) in enumerate(schema.features):
        if kind == sd.CATEGORICAL:
            cats[name] = sorted({str(row[j]) for row in rows})
        else:
            vals = np.array([float(row[j]) for row in rows])
            stats[name] = (float(vals.mean()), float(vals.std()))
    width = sum(len(cats[n]) if k == sd.CATEGORICAL else 1 for n, k in schema.features)
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        col = 0
        for j, (name, kind) in enumerate(schema.features):
            if kind == sd.CATEGORICAL:
                out[i, col + cats[name].index(str(row[j]))] = 1.0
                col += len(cats[name])
            else:
                mean, std = stats[name]
                out[i, col] = (float(row[j]) - mean) / std if std > 0 else 0.0
                col += 1
    labels = []
    for name, kind in schema.features:
        labels += [f"{name}={v}" for v in cats[name]] if kind == sd.CATEGORICAL else [name]
    return out, tuple(labels)


# digit-like strings sort as strings ("10" < "9"), non-ASCII values, and two
# values that differ only by a trailing NUL, which numpy's str dtype would merge
CATEGORY_POOL = ["9", "10", "01", "1", "é", "日本", "Ω", "a", "a\x00", "b b"]


@pytest.mark.parametrize("seed", range(6))
def test_encoding_matches_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    schema = sd.FeatureSchema((("c1", sd.CATEGORICAL), ("price", sd.NUMERIC),
                               ("flat", sd.NUMERIC), ("c2", sd.CATEGORICAL)))
    ids = [f"i{k}" for k in range(int(rng.integers(1, 40)))]
    # draw indices: rng.choice over the strings would make a numpy str array
    rows = {i: (CATEGORY_POOL[rng.integers(len(CATEGORY_POOL))],
                repr(float(rng.normal(5.0, 3.0))), "3.25", CATEGORY_POOL[rng.integers(3)])
            for i in ids}
    catalog = sd.ItemCatalog.from_ids(ids)
    X, columns = sd.encode_features(rows, schema, catalog)
    ref, ref_columns = _reference_encoding([rows[e] for e in catalog.external_ids], schema)
    assert X.tobytes() == ref.tobytes() and X.shape == ref.shape
    assert columns == ref_columns
    assert np.all(X[:, columns.index("flat")] == 0)


def test_trailing_nul_is_its_own_category():
    schema = sd.FeatureSchema((("c", sd.CATEGORICAL),))
    catalog = sd.ItemCatalog.from_ids(["x", "y", "z"])
    X, columns = sd.encode_features({"x": ("a",), "y": ("a\x00",), "z": ("a",)},
                                    schema, catalog)
    assert columns == ("c=a", "c=a\x00")
    assert X.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("rows, error", [
    ({"a": ("x", "1")}, DataError),                                  # no row for b
    ({"a": ("x", "1"), "b": ("y",)}, SchemaError),                   # short row
    ({"a": ("x", "1"), "b": ("y", "2", "3")}, SchemaError),          # long row
    ({"a": ("x", "1"), "b": ("y", "cheap")}, DataError),             # unparseable
    ({"a": ("x", "1"), "b": ("y", "inf")}, DataError),               # non-finite value
    ({"a": ("x", "nan"), "b": ("y", "2")}, DataError),
])
def test_encoding_rejects_bad_rows(rows, error):
    with pytest.raises(error):
        sd.encode_features(rows, SCHEMA, sd.ItemCatalog.from_ids(["a", "b"]))


def test_encoding_rejects_non_finite_result():
    # finite inputs whose sum overflows: the mean is inf, so every z-score is not finite
    schema = sd.FeatureSchema((("price", sd.NUMERIC),))
    rows = {"a": ("1.7e308",), "b": ("1.7e308",), "c": ("-1.7e308",)}
    with np.errstate(all="ignore"), pytest.raises(DataError, match="non-finite"):
        sd.encode_features(rows, schema, sd.ItemCatalog.from_ids(["a", "b", "c"]))
