"""Attention layer and skip encoder: dense oracle recomputation,
finite-difference gradient checks, sampling equivalence."""

import hashlib

import numpy as np
import pytest

from sessgraph import cograph as cg
from sessgraph import diffcore as dc
from sessgraph.encoder import LEAKY_SLOPE, Gatv2Layer, SkipEncoder

from test_cograph import _corpusgen_graph
from test_diffcore import finite_diff_grad, rel_err


def random_graph(rng, n=10, p=0.4, d_feat=3):
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                triples.append((i, j, float(rng.uniform(0.1, 1.0))))
    if not triples:
        triples = [(0, 1, 1.0)]
    X = rng.normal(size=(n, d_feat))
    return cg.CoGraph.from_edges(n, triples, c_max=1, X=X), X


def dense_attention_oracle(layer, H, graph, H_src=None):
    """Direct dense recomputation of the attention softmax per node, from
    the concatenated form W_att [h_i || h_j || w_ij]; H_src defaults to H."""
    H = np.asarray(H, float)
    H_src = H if H_src is None else np.asarray(H_src, float)
    out = {}
    W, a = layer.W_att.data, layer.a.data[:, 0]
    for i in range(graph.n):
        lo, hi = graph.indptr[i], graph.indptr[i + 1]
        nbrs, ws = graph.indices[lo:hi], graph.weights[lo:hi]
        if len(nbrs) == 0:
            continue
        logits = []
        for j, w in zip(nbrs, ws):
            cat = np.concatenate([H[i], H_src[j], [w]])
            z = W @ cat
            z = np.where(z > 0, z, LEAKY_SLOPE * z)
            logits.append(a @ z)
        logits = np.array(logits)
        e = np.exp(logits - logits.max())
        alpha = e / e.sum()
        for j, al in zip(nbrs, alpha):
            out[(i, int(j))] = al
    return out


# ---------------------------------------------------------------------------
# attention coefficients
# ---------------------------------------------------------------------------

def test_single_neighbor_alpha_is_one():
    rng = np.random.default_rng(0)
    graph = cg.CoGraph.from_edges(2, [(0, 1, 0.7)], c_max=1)
    layer = Gatv2Layer(d_in=3, d_out=4, rng=rng)
    h = dc.Tensor(rng.normal(size=(2, 3)))
    alpha = layer.coefficients(h, h, graph.directed_edges())
    np.testing.assert_allclose(alpha.data, 1.0, atol=1e-15)


def test_identical_neighbors_split_half():
    rng = np.random.default_rng(1)
    graph = cg.CoGraph.from_edges(3, [(0, 1, 0.5), (0, 2, 0.5)], c_max=2)
    H = np.zeros((3, 3))
    H[1] = H[2] = [1.0, -2.0, 0.5]
    layer = Gatv2Layer(d_in=3, d_out=4, rng=rng)
    h = dc.Tensor(H)
    dst, src, w = graph.directed_edges()
    alpha = layer.coefficients(h, h, (dst, src, w))
    np.testing.assert_allclose(alpha.data[dst == 0], 0.5, atol=1e-15)


def test_coefficients_match_dense_oracle():
    """Same rows on both sides, then distinct dst and src rows as
    encode_sampled passes them, with d_in != d_out and an isolated node."""
    rng = np.random.default_rng(2)
    graph, X = random_graph(rng)
    isolated = cg.CoGraph.from_edges(graph.n + 1, np.column_stack(graph.upper()),
                                     c_max=graph.c_max)
    assert isolated.degree(graph.n) == 0
    H_dst, H_src = rng.normal(size=(2, isolated.n, 5))
    for g, d_in, h_dst, h_src in ((graph, 3, X, X), (isolated, 5, H_dst, H_src)):
        layer = Gatv2Layer(d_in=d_in, d_out=4, rng=rng)
        dst, src, w = g.directed_edges()
        alpha = layer.coefficients(dc.Tensor(h_dst), dc.Tensor(h_src), (dst, src, w))
        oracle = dense_attention_oracle(layer, h_dst, g, h_src)
        assert len(oracle) == len(dst)
        for k in range(len(dst)):
            assert alpha.data[k] == pytest.approx(oracle[(int(dst[k]), int(src[k]))],
                                                  abs=1e-12)


def test_alpha_sums_to_one_per_node():
    rng = np.random.default_rng(3)
    graph, X = random_graph(rng, n=15)
    layer = Gatv2Layer(d_in=3, d_out=4, rng=rng)
    h = dc.Tensor(X)
    dst, src, w = graph.directed_edges()
    alpha = layer.coefficients(h, h, (dst, src, w))
    for i in range(graph.n):
        mask = dst == i
        if mask.any():
            assert abs(alpha.data[mask].sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# layer forward
# ---------------------------------------------------------------------------

def test_isolated_node_outputs_zero():
    rng = np.random.default_rng(4)
    graph = cg.CoGraph.from_edges(3, [(0, 1, 1.0)], c_max=1)
    layer = Gatv2Layer(d_in=2, d_out=4, rng=rng)
    h = dc.Tensor(rng.normal(size=(3, 2)))
    out = layer.forward(h, h, graph.directed_edges(), graph.n).data
    np.testing.assert_array_equal(out[2], 0.0)


def test_single_neighbor_selects_transformed_value():
    """With one neighbor, alpha=1 and the output is PReLU(W_val h_j)."""
    rng = np.random.default_rng(5)
    graph = cg.CoGraph.from_edges(2, [(0, 1, 0.9)], c_max=1)
    H = rng.normal(size=(2, 3))
    layer = Gatv2Layer(d_in=3, d_out=4, rng=rng)
    h = dc.Tensor(H)
    out = layer.forward(h, h, graph.directed_edges(), graph.n).data
    expected = layer.W_val.data @ H[1]
    slope = layer.prelu.data[0]
    expected = np.where(expected >= 0, expected, slope * expected)
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    graph, X = random_graph(rng, n=8)
    layer = Gatv2Layer(d_in=3, d_out=4, rng=rng)
    params = [t for _, t in layer.parameters()]

    def build_loss():
        h = dc.Tensor(X)
        return dc.mean(layer.forward(h, h, graph.directed_edges(), graph.n))

    with dc.Tape() as tape:
        loss = build_loss()
    dc.backward(tape, loss)
    for name, p in layer.parameters():
        fd = finite_diff_grad(lambda: float(build_loss().data), p.data)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(analytic, fd) < 1e-4, name


# ---------------------------------------------------------------------------
# two-layer skip encoder
# ---------------------------------------------------------------------------

def test_empty_graph_encodes_to_zero():
    rng = np.random.default_rng(7)
    graph = cg.CoGraph.from_edges(4, [(0, 1, 1.0)], c_max=1)
    enc = SkipEncoder(d_feat=3, d_hidden=6, d_out=5, rng=rng)
    out = enc.encode_full(rng.normal(size=(4, 3)), graph).data
    # nodes 2, 3 are isolated at both layers
    np.testing.assert_array_equal(out[2], 0.0)
    np.testing.assert_array_equal(out[3], 0.0)


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    graph, X = random_graph(rng, n=12, d_feat=3)
    enc = SkipEncoder(d_feat=3, d_hidden=5, d_out=4, rng=rng)

    def build_loss():
        return dc.mean(enc.encode_full(X, graph))

    with dc.Tape() as tape:
        loss = build_loss()
    dc.backward(tape, loss)
    for name, p in enc.parameters():
        fd = finite_diff_grad(lambda: float(build_loss().data), p.data)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(analytic, fd) < 1e-3, name


def test_sampled_equals_full_when_fanout_exhaustive():
    rng = np.random.default_rng(9)
    graph, X = random_graph(rng, n=14, p=0.5)
    enc = SkipEncoder(d_feat=3, d_hidden=6, d_out=5, rng=rng)
    full = enc.encode_full(X, graph).data
    max_deg = max(graph.degree(i) for i in range(graph.n))
    sample = cg.sample_neighbors(graph, np.arange(graph.n), (max_deg, max_deg),
                                 np.random.default_rng(0))
    sampled = enc.encode_sampled(X, sample).data
    np.testing.assert_allclose(sampled, full, atol=1e-12)


def test_sampled_subset_of_seeds():
    rng = np.random.default_rng(10)
    graph, X = random_graph(rng, n=14, p=0.5)
    enc = SkipEncoder(d_feat=3, d_hidden=6, d_out=5, rng=rng)
    max_deg = max(graph.degree(i) for i in range(graph.n))
    seeds = np.array([3, 7, 11])
    sample = cg.sample_neighbors(graph, seeds, (max_deg, max_deg), np.random.default_rng(1))
    sampled = enc.encode_sampled(X, sample).data
    full = enc.encode_full(X, graph).data
    np.testing.assert_allclose(sampled, full[seeds], atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    graph, X = random_graph(rng, n=10, p=0.5)
    enc = SkipEncoder(d_feat=3, d_hidden=4, d_out=4, rng=rng)
    out = enc.encode_full(X, graph).data

    perm = rng.permutation(graph.n)
    inv = np.argsort(perm)
    triples_p = [(min(int(perm[i]), int(perm[j])), max(int(perm[i]), int(perm[j])), w)
                 for i, j, w in graph.edge_triples()]
    graph_p = cg.CoGraph.from_edges(graph.n, triples_p, c_max=graph.c_max)
    out_p = enc.encode_full(X[inv], graph_p).data
    np.testing.assert_allclose(out_p[perm], out, atol=1e-10)


def test_checkpoint_roundtrip_through_container(tmp_path):
    rng = np.random.default_rng(12)
    enc = SkipEncoder(d_feat=3, d_hidden=4, d_out=4, rng=rng)
    path = tmp_path / "enc.ntc"
    dc.save_tensors(path, enc.state_dict())
    twin = SkipEncoder(d_feat=3, d_hidden=4, d_out=4, rng=np.random.default_rng(99))
    twin.load_state_dict(dc.load_tensors(path))
    graph, X = random_graph(np.random.default_rng(13))
    np.testing.assert_array_equal(enc.encode_full(X, graph).data,
                                  twin.encode_full(X, graph).data)



def test_checkpoint_layout_is_pinned(tmp_path):
    """encoder.ntc keeps its tensor names, order and shapes, and a seeded
    encoder draws the same values: any change to either changes the hash."""
    enc = SkipEncoder(3, 4, 4, rng=np.random.default_rng(0))
    assert [(name, arr.shape) for name, arr in enc.state_dict().items()] == [
        ("layer1.W_val", (4, 3)), ("layer1.W_att", (4, 7)), ("layer1.a", (4, 1)),
        ("layer1.prelu", (1,)), ("skip1.W", (3, 3)),
        ("layer2.W_val", (4, 4)), ("layer2.W_att", (4, 9)), ("layer2.a", (4, 1)),
        ("layer2.prelu", (1,)), ("skip2.W", (4, 3)),
    ]
    path = tmp_path / "encoder.ntc"
    dc.save_tensors(path, enc.state_dict())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "c9437b5e0761676b993bc935632bed407d525dda224dfa62b37726f4cb31810d"


def test_export_bytes_are_pinned():
    """encode_full on a fixed corpusgen graph keeps its bytes. Pinned when
    the attention pre-activation became per-node projections summed per
    edge, which changed the float summation order from the concatenated
    product W_att [h_i || h_j || w_ij]."""
    graph = _corpusgen_graph()
    X = np.random.default_rng(1).normal(size=(graph.n, 3))
    enc = SkipEncoder(3, 4, 4, rng=np.random.default_rng(0))
    out = enc.encode_full(X, graph).data
    assert hashlib.sha256(out.tobytes()).hexdigest() == \
        "c542e0009c03dbbe01c600062325284f8617127f59f687884f948df19d6c1bd7"


def test_tape_holds_no_wide_per_edge_rows():
    """A taped encode_sampled keeps, per layer, at most three outputs with
    one row per edge and more than one column, none wider than d_out: the
    attention never puts a per-edge copy of a node row on the tape."""
    graph = _corpusgen_graph()
    X = np.random.default_rng(1).normal(size=(graph.n, 9))
    enc = SkipEncoder(9, 5, 4, rng=np.random.default_rng(0))
    sample = cg.sample_neighbors(graph, np.arange(0, graph.n, 3), (6, 4),
                                 np.random.default_rng(2))
    spans = []
    for layer in enc.layers:
        def traced(h_dst, h_src, edges, n_dst, _forward=layer.forward, _layer=layer):
            start = len(tape)
            out = _forward(h_dst, h_src, edges, n_dst)
            spans.append((_layer, len(edges[0]), tape._records[start:]))
            return out
        layer.forward = traced
    with dc.Tape() as tape:
        enc.encode_sampled(X, sample)
    assert [n_edges for _, n_edges, _ in spans] == [len(sample.hop2_dst), len(sample.hop1_dst)]
    for layer, n_edges, records in spans:
        per_edge = [out.shape for out, _ in records
                    if out.data.ndim == 2 and out.shape[0] == n_edges and out.shape[1] > 1]
        assert len(per_edge) <= 3, per_edge
        assert all(cols <= layer.d_out for _, cols in per_edge), per_edge
