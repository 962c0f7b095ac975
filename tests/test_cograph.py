"""Co-occurrence graph construction against a brute-force pairwise counter,
sampling behavior, and serialization round-trips."""

import hashlib
import struct

import numpy as np
import pytest

from sessgraph import cograph as cg
from sessgraph import sessiondata as sd
from sessgraph.errors import DataError, DegenerateGraphError

from corpusgen import clustered_interactions


def _corpus(item_lists):
    sessions = [sd.Session(f"s{i}", tuple(items), i) for i, items in enumerate(item_lists)]
    return sd.SessionCorpus(sessions)


def _catalog(n):
    ids = [f"i{k:03d}" for k in range(n)]
    return sd.ItemCatalog(ids, {e: i for i, e in enumerate(ids)})


def brute_force_cooc(item_lists, n):
    """O(n^2) oracle: for every item pair, count sessions containing both."""
    counts = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = sum(1 for items in item_lists if i in set(items) and j in set(items))
            if c:
                counts[(i, j)] = c
    return counts


def test_basic_counts_and_normalization():
    corpus = _corpus([[0, 1], [0, 1], [0, 2]])
    graph = cg.build_cograph(corpus, _catalog(3))
    triples = dict(((i, j), w) for i, j, w in graph.edge_triples())
    assert triples == {(0, 1): 1.0, (0, 2): 0.5}
    assert graph.c_max == 2
    assert graph.degree(1) == 1 and graph.degree(0) == 2


def test_duplicates_collapse_to_item_set():
    graph = cg.build_cograph(_corpus([[0, 0, 1]]), _catalog(2))
    assert graph.edge_triples() == [(0, 1, 1.0)]


def test_degenerate_graph_errors():
    with pytest.raises(DegenerateGraphError):
        cg.build_cograph(_corpus([[0, 0], [1, 1]]), _catalog(2))


@pytest.mark.parametrize("seed", range(5))
def test_matches_brute_force_counter(seed):
    rng = np.random.default_rng(seed)
    item_lists = [
        [int(rng.integers(0, 30)) for _ in range(rng.integers(2, 7))]
        for _ in range(100)
    ]
    graph = cg.build_cograph(_corpus(item_lists), _catalog(30))
    oracle = brute_force_cooc(item_lists, 30)
    c_max = max(oracle.values())
    expected = sorted((i, j, c / c_max) for (i, j), c in oracle.items())
    assert graph.edge_triples() == expected


def test_permutation_invariance():
    rng = np.random.default_rng(42)
    item_lists = [
        [int(rng.integers(0, 20)) for _ in range(rng.integers(2, 6))]
        for _ in range(60)
    ]
    g1 = cg.build_cograph(_corpus(item_lists), _catalog(20))
    shuffled = [list(reversed(items)) for items in reversed(item_lists)]
    g2 = cg.build_cograph(_corpus(shuffled), _catalog(20))
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(g1.weights, g2.weights)


def test_degree_sum_is_twice_edges():
    rng = np.random.default_rng(1)
    item_lists = [[int(rng.integers(0, 15)) for _ in range(4)] for _ in range(40)]
    graph = cg.build_cograph(_corpus(item_lists), _catalog(15))
    assert sum(graph.degree(i) for i in range(graph.n)) == 2 * graph.num_edges


# ---------------------------------------------------------------------------
# neighbor sampling
# ---------------------------------------------------------------------------

def _line_graph(n=6):
    triples = [(i, i + 1, (i + 1) / n) for i in range(n - 1)]
    return cg.CoGraph.from_edges(n, triples, c_max=n)


def test_sample_keeps_all_when_degree_below_fanout():
    graph = _line_graph()
    rng = np.random.default_rng(0)
    s = cg.sample_neighbors(graph, [1], (5, 5), rng)
    assert sorted(s.hop1_src.tolist()) == [0, 2]
    assert len(s.hop1_src) == 2  # no padding


def test_sample_determinism():
    graph = _line_graph()
    s1 = cg.sample_neighbors(graph, [0, 3], (1, 1), np.random.default_rng(7))
    s2 = cg.sample_neighbors(graph, [0, 3], (1, 1), np.random.default_rng(7))
    for a, b in [(s1.hop1_src, s2.hop1_src), (s1.hop2_src, s2.hop2_src)]:
        assert np.array_equal(a, b)


def test_sampled_edges_exist_in_parent_with_same_weight():
    rng = np.random.default_rng(3)
    item_lists = [[int(rng.integers(0, 25)) for _ in range(4)] for _ in range(80)]
    graph = cg.build_cograph(_corpus(item_lists), _catalog(25))
    s = cg.sample_neighbors(graph, np.arange(10), (3, 2), rng)
    parent = {(i, j): w for i, j, w in zip(*graph.directed_edges())}
    for dst, src, w in zip(s.hop1_dst, s.hop1_src, s.hop1_w):
        assert parent[(dst, src)] == w
    for dst, src, w in zip(s.hop2_dst, s.hop2_src, s.hop2_w):
        assert parent[(dst, src)] == w


def test_sample_counts_are_min_degree_fanout():
    rng = np.random.default_rng(5)
    item_lists = [[int(rng.integers(0, 25)) for _ in range(5)] for _ in range(60)]
    graph = cg.build_cograph(_corpus(item_lists), _catalog(25))
    f1, f2 = 4, 2
    for seeds in (np.arange(25), np.arange(0, 25, 3)):
        s = cg.sample_neighbors(graph, seeds, (f1, f2), rng)
        for dst, src, frontier, fanout in [(s.hop1_dst, s.hop1_src, s.seeds, f1),
                                           (s.hop2_dst, s.hop2_src, s.layer1_nodes, f2)]:
            assert np.all(np.diff(dst * graph.n + src) > 0)  # (dst, src) order, distinct
            for node in range(25):
                want = min(graph.degree(node), fanout) if node in frontier else 0
                assert np.sum(dst == node) == want


def test_sample_keeps_each_rows_lowest_keys():
    """Against a per-node loop given the same keys: hop 1 draws one uniform
    per CSR entry of the seeds, and each row keeps its f1 lowest-keyed
    entries, listed in (dst, src) order."""
    rng = np.random.default_rng(6)
    item_lists = [[int(rng.integers(0, 25)) for _ in range(5)] for _ in range(60)]
    graph = cg.build_cograph(_corpus(item_lists), _catalog(25))
    seeds, f1 = np.arange(0, 25, 2), 3
    s = cg.sample_neighbors(graph, seeds, (f1, 2), np.random.default_rng(4))
    keys = iter(np.random.default_rng(4).uniform(size=sum(graph.degree(v) for v in seeds)))
    want = []
    for v in seeds:
        lo, hi = graph.indptr[v], graph.indptr[v + 1]
        row_keys = [next(keys) for _ in range(lo, hi)]
        for k in sorted(np.argsort(row_keys, kind="stable")[:f1]):
            want.append((v, graph.indices[lo + k], graph.weights[lo + k]))
    assert list(zip(s.hop1_dst, s.hop1_src, s.hop1_w)) == want


def test_fanouts_none_keeps_every_entry_and_draws_nothing():
    rng = np.random.default_rng(3)
    item_lists = [[int(rng.integers(0, 25)) for _ in range(4)] for _ in range(50)]
    graph = cg.build_cograph(_corpus(item_lists), _catalog(25))
    seeds = np.array([2, 9, 17])
    dst, src, w = graph.directed_edges()

    def entries(nodes):
        keep = np.isin(dst, nodes)
        return dst[keep], src[keep], w[keep]

    s = cg.sample_neighbors(graph, seeds, None)
    closure = np.unique(np.concatenate([seeds, entries(seeds)[1]]))
    for got, want in [((s.hop1_dst, s.hop1_src, s.hop1_w), entries(seeds)),
                      ((s.hop2_dst, s.hop2_src, s.hop2_w), entries(closure))]:
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    gen = np.random.default_rng(8)
    start = gen.bit_generator.state
    again = cg.sample_neighbors(graph, seeds, None, gen)
    assert gen.bit_generator.state == start
    assert np.array_equal(again.hop2_src, s.hop2_src)


def test_star_center_fanout_one_is_uniform():
    """Monte-Carlo: each leaf drawn with equal frequency, within 3 sigma."""
    n_leaves = 5
    triples = [(0, leaf, 1.0) for leaf in range(1, n_leaves + 1)]
    graph = cg.CoGraph.from_edges(n_leaves + 1, triples, c_max=1)
    rng = np.random.default_rng(123)
    draws = 10_000
    hits = np.zeros(n_leaves + 1)
    for _ in range(draws):
        s = cg.sample_neighbors(graph, [0], (1, 1), rng)
        hits[s.hop1_src[0]] += 1
    p = 1.0 / n_leaves
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(hits[1:] - draws * p) <= 3 * sigma)


def test_isolated_node_yields_empty_lists():
    graph = cg.CoGraph.from_edges(3, [(0, 1, 1.0)], c_max=1)
    s = cg.sample_neighbors(graph, [2], (4, 4), np.random.default_rng(0))
    assert len(s.hop1_dst) == 0
    assert s.layer1_nodes.tolist() == [2]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_and_binary_loaders_identical(tmp_path):
    rng = np.random.default_rng(9)
    item_lists = [[int(rng.integers(0, 20)) for _ in range(4)] for _ in range(70)]
    graph = cg.build_cograph(_corpus(item_lists), _catalog(20))
    tpath, bpath = tmp_path / "g.txt", tmp_path / "g.bin"
    cg.save_graph_text(graph, tpath)
    cg.save_graph_binary(graph, bpath)
    gb = cg.load_graph_binary(bpath)
    assert gb.n == graph.n and gb.c_max == graph.c_max
    assert np.array_equal(gb.indptr, graph.indptr)
    assert np.array_equal(gb.indices, graph.indices)
    assert np.array_equal(gb.weights, graph.weights)
    header = tpath.read_text().split("\n", 1)[0]
    assert header.split() == [str(graph.n), str(graph.num_edges), str(graph.c_max)]
    text_edges = np.loadtxt(tpath, skiprows=1, ndmin=2)
    assert np.array_equal(text_edges, np.column_stack(gb.upper()))


def test_binary_loader_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"nope")
    with pytest.raises(DataError):
        cg.load_graph_binary(p)


# ---------------------------------------------------------------------------
# the CSR constructor and reader robustness
# ---------------------------------------------------------------------------

def _corpusgen_graph():
    """The graph of a fixed corpusgen log, sessionized and filtered."""
    rng = np.random.default_rng(0)
    log = clustered_interactions(rng, n_items=60, n_clusters=4, n_sessions=220,
                                 min_len=3, max_len=6)
    corpus, catalog = sd.filter_corpus(sd.sessionize(log))
    return cg.build_cograph(corpus, catalog)


def test_graph_files_are_pinned(tmp_path):
    """graph.txt and graph.bin hold only integers and divisions of integers,
    so their bytes are the same on every platform."""
    graph = _corpusgen_graph()
    cg.save_graph_text(graph, tmp_path / "graph.txt")
    cg.save_graph_binary(graph, tmp_path / "graph.bin")
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("graph.txt", "graph.bin")}
    assert digest == {
        "graph.txt": "713f062e094d39788d41dd44be677c70479c012d81d250d40d7aee1128311486",
        "graph.bin": "87244132fa135449f8ae3aaf01fda747d1baa29242fb8f5a81553d98b71c883d",
    }


def test_from_edges_ignores_edge_order_and_orientation():
    graph = _corpusgen_graph()
    edges = np.column_stack(graph.upper())
    rng = np.random.default_rng(4)
    shuffled = edges[rng.permutation(len(edges))]
    flip = rng.uniform(size=len(edges)) < 0.5
    shuffled[flip, :2] = shuffled[flip, 1::-1]
    rebuilt = cg.CoGraph.from_edges(graph.n, shuffled, c_max=graph.c_max)
    assert np.array_equal(rebuilt.indptr, graph.indptr)
    assert np.array_equal(rebuilt.indices, graph.indices)
    assert np.array_equal(rebuilt.weights, graph.weights)
    assert rebuilt.edge_triples() == graph.edge_triples()


@pytest.mark.parametrize("triples, match", [
    ([(1, 1, 1.0)], "self-loop"),
    ([(0, 1, 1.0), (1, 0, 0.5)], "duplicate"),
    ([(0, 1, 1.0), (0, 1, 1.0)], "duplicate"),
    ([(0, 3, 1.0)], "node id"),
    ([(-1, 1, 1.0)], "node id"),
    ([(0.5, 1, 1.0)], "node id"),
    ([(0, float("nan"), 1.0)], "node id"),
])
def test_from_edges_rejects_bad_edges(triples, match):
    with pytest.raises(DataError, match=match):
        cg.CoGraph.from_edges(3, triples, c_max=1)


@pytest.mark.parametrize("case", ["magic", "short", "truncated", "trailing", "huge_m",
                                  "endpoint", "nan_weight", "zero_weight", "negative_weight",
                                  "heavy_weight", "no_unit_weight"])
def test_binary_reader_rejects_corrupt_files(tmp_path, case):
    graph = cg.CoGraph.from_edges(4, [(0, 1, 1.0), (0, 2, 0.5), (2, 3, 0.25)], c_max=4)
    cg.save_graph_binary(graph, tmp_path / "g.bin")
    data = (tmp_path / "g.bin").read_bytes()

    def weight(edge, w):
        """`data` with the weight of edge `edge` (in file order) set to `w`."""
        at = 28 + 24 * edge + 16
        return data[:at] + struct.pack("<d", w) + data[at + 8:]

    bad = {
        "magic": b"COG2" + data[4:],
        "short": data[:10],
        "truncated": data[:-5],
        "trailing": data + b"\0",
        "huge_m": data[:12] + struct.pack("<Q", 10**12) + data[20:],
        "endpoint": data[:28] + struct.pack("<Q", 9) + data[36:],
        "nan_weight": weight(1, float("nan")),
        "zero_weight": weight(1, 0.0),
        "negative_weight": weight(1, -1.0),
        "heavy_weight": weight(1, 2.0),
        "no_unit_weight": weight(0, 0.75),
    }[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(bad)
    with pytest.raises(DataError):
        cg.load_graph_binary(path)
