"""Bootstrap trainer tests: augmentation distributions, loss extremes and
gradients, EMA closed form, and community-structure recovery."""

import numpy as np
import pytest

from sessgraph import bgrl
from sessgraph import cograph as cg
from sessgraph import diffcore as dc
from sessgraph.encoder import SkipEncoder

from test_diffcore import bytes_held_by_tape, finite_diff_grad, rel_err


def two_block_graph(rng, n=100, p_in=0.2, p_out=0.01):
    """Planted two-community graph with block-indicator node features."""
    half = n // 2
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if (i < half) == (j < half) else p_out
            if rng.uniform() < p:
                triples.append((i, j, 1.0))
    X = np.zeros((n, 2))
    X[:half, 0] = 1.0
    X[half:, 1] = 1.0
    return cg.CoGraph.from_edges(n, triples, c_max=1, X=X)


def random_feature_graph(rng, n=20, p=0.3, d_feat=4):
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                triples.append((i, j, float(rng.uniform(0.2, 1.0))))
    X = rng.normal(size=(n, d_feat))
    return cg.CoGraph.from_edges(n, triples, c_max=1, X=X)


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

def test_identity_augmentation():
    rng = np.random.default_rng(0)
    graph = random_feature_graph(rng)
    view = bgrl.augment(graph, bgrl.ViewConfig(0.0, 0.0), rng)
    assert np.array_equal(view.indices, graph.indices)
    assert np.array_equal(view.weights, graph.weights)
    assert np.array_equal(view.X, graph.X)


def test_edge_drop_rate_within_three_sigma():
    rng = np.random.default_rng(1)
    n = 60
    triples = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    triples = triples[:1000]
    graph = cg.CoGraph.from_edges(n, triples, c_max=1, X=np.zeros((n, 2)))
    p = 0.5
    counts = [bgrl.augment(graph, bgrl.ViewConfig(0.0, p), rng).num_edges
              for _ in range(30)]
    sigma = np.sqrt(1000 * p * (1 - p))
    mean_expected = 1000 * (1 - p)
    assert abs(np.mean(counts) - mean_expected) <= 3 * sigma / np.sqrt(len(counts))


def test_augmented_view_stays_symmetric():
    rng = np.random.default_rng(2)
    graph = random_feature_graph(rng, n=25, p=0.4)
    for _ in range(5):
        view = bgrl.augment(graph, bgrl.ViewConfig(0.3, 0.5), rng)
        cg_edges = {(i, j) for i, j, _ in view.edge_triples()}
        dst, src, _ = view.directed_edges()
        directed = set(zip(dst.tolist(), src.tolist()))
        for i, j in cg_edges:
            assert (i, j) in directed and (j, i) in directed


def test_feature_mask_is_column_shared():
    rng = np.random.default_rng(3)
    graph = random_feature_graph(rng, n=10, d_feat=8)
    view = bgrl.augment(graph, bgrl.ViewConfig(0.5, 0.0), rng)
    zeroed = np.all(view.X == 0, axis=0)
    untouched = ~zeroed
    np.testing.assert_array_equal(view.X[:, untouched], graph.X[:, untouched])


# ---------------------------------------------------------------------------
# bgrl_loss
# ---------------------------------------------------------------------------

def _state_for(graph, rng, d=6):
    return bgrl.BgrlState.create(graph.X.shape[1], d, d, rng=rng)


def test_perfect_prediction_gives_zero_loss():
    rng = np.random.default_rng(4)
    graph = random_feature_graph(rng)
    state = _state_for(graph, rng)

    # make the predictor the identity (PReLU slope 1) and the target equal
    # to the online net, so pred(online) == target exactly
    state.predictor.W1.data = np.eye(6)
    state.predictor.W2.data = np.eye(6)
    state.predictor.b1.data[:] = 0
    state.predictor.b2.data[:] = 0
    state.predictor.prelu.data[:] = 1.0
    state.target.load_state_dict(state.online.state_dict())

    seeds = np.arange(graph.n)
    loss = bgrl.bgrl_loss(state, graph, graph, seeds)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_orthogonal_prediction_gives_loss_two():
    rng = np.random.default_rng(5)
    graph = random_feature_graph(rng)
    state = _state_for(graph, rng)
    seeds = np.arange(graph.n)

    # zero the last output row of the online AND target value transforms so
    # every embedding's final coordinate is exactly 0, then point the
    # predictor at that dead axis: cosine is 0 in both directions
    for enc in (state.online, state.target):
        enc.layers[1].W_val.data[-1, :] = 0.0
    state.predictor.W1.data[:] = 0
    state.predictor.W2.data[:] = 0
    state.predictor.b1.data[:] = 0
    state.predictor.b2.data[:] = 0
    state.predictor.b2.data[0, -1] = 1.0
    loss = bgrl.bgrl_loss(state, graph, graph, seeds)
    assert float(loss.data) == pytest.approx(2.0, abs=1e-9)


def test_loss_bounded_zero_to_four():
    rng = np.random.default_rng(6)
    graph = random_feature_graph(rng)
    for seed in range(5):
        state = _state_for(graph, np.random.default_rng(seed))
        v1 = bgrl.augment(graph, bgrl.ViewConfig(0.2, 0.3), rng)
        v2 = bgrl.augment(graph, bgrl.ViewConfig(0.1, 0.4), rng)
        loss = float(bgrl.bgrl_loss(state, v1, v2, np.arange(graph.n)).data)
        assert 0.0 <= loss <= 4.0


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    graph = random_feature_graph(rng, n=20)
    state = _state_for(graph, rng, d=4)
    seeds = np.arange(graph.n)

    def build_loss():
        return bgrl.bgrl_loss(state, graph, graph, seeds)

    with dc.Tape() as tape:
        loss = build_loss()
    dc.backward(tape, loss)
    for name, p in state.trained_parameters():
        fd = finite_diff_grad(lambda: float(build_loss().data), p.data)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(analytic, fd) < 1e-3, name


def test_target_receives_no_gradient():
    rng = np.random.default_rng(8)
    graph = random_feature_graph(rng)
    state = _state_for(graph, rng)
    with dc.Tape() as tape:
        loss = bgrl.bgrl_loss(state, graph, graph, np.arange(graph.n))
    dc.backward(tape, loss)
    for name, p in state.target.parameters():
        assert p.grad is None, f"target parameter {name} received a gradient"
    assert any(p.grad is not None for _, p in state.online.parameters())


def test_loss_tape_holds_no_per_edge_row_array():
    """On a complete graph, where E = n(n - 1) is far above n, a forward over
    every neighbor of a few seeds leaves the tape holding less than one
    (E, d_hidden) float64 array: neither the attention pre-activation nor
    the gathered value rows stay on it."""
    rng = np.random.default_rng(9)
    n, d_hidden = 100, 64
    triples = [(i, j, float(rng.uniform(0.1, 1.0))) for i in range(n) for j in range(i + 1, n)]
    graph = cg.CoGraph.from_edges(n, triples, c_max=1, X=rng.normal(size=(n, 4)))
    state = bgrl.BgrlState.create(4, d_hidden, 16, rng=rng)
    held = bytes_held_by_tape(lambda: bgrl.bgrl_loss(state, graph, graph, np.arange(8)))
    assert held < 2 * graph.num_edges * d_hidden * 8


# ---------------------------------------------------------------------------
# ema_update
# ---------------------------------------------------------------------------

def test_ema_single_step_arithmetic():
    rng = np.random.default_rng(9)
    online = SkipEncoder(3, 4, 4, rng=rng)
    target = online.clone()
    for _, p in target.parameters():
        p.data[:] = 0.0
    for _, p in online.parameters():
        p.data[:] = 1.0
    bgrl.ema_update(target, online, 0.99)
    for _, p in target.parameters():
        np.testing.assert_allclose(p.data, 0.01, atol=1e-15)


def test_ema_decay_one_freezes_target():
    rng = np.random.default_rng(10)
    online = SkipEncoder(3, 4, 4, rng=rng)
    target = online.clone()
    before = {n: p.data.copy() for n, p in target.parameters()}
    for _, p in online.parameters():
        p.data += 123.0
    bgrl.ema_update(target, online, 1.0)
    for n, p in target.parameters():
        np.testing.assert_array_equal(p.data, before[n])


def test_ema_geometric_decay_closed_form():
    rng = np.random.default_rng(11)
    online = SkipEncoder(3, 4, 4, rng=rng)
    target = SkipEncoder(3, 4, 4, rng=np.random.default_rng(12))
    decay = 0.9

    def gap():
        return np.sqrt(sum(
            np.sum((pt.data - po.data) ** 2)
            for (_, pt), (_, po) in zip(target.parameters(), online.parameters())
        ))

    gap0 = gap()
    for k in range(1, 8):
        bgrl.ema_update(target, online, decay)
        assert gap() == pytest.approx(decay ** k * gap0, rel=1e-12)


# ---------------------------------------------------------------------------
# train_embeddings
# ---------------------------------------------------------------------------

def _small_config(**kw):
    defaults = dict(epochs=12, batch_size=64, fanouts=None, lr=5e-3,
                    weight_decay=1e-5, d_hidden=16, d_out=16, seed=0)
    defaults.update(kw)
    return bgrl.TrainConfig(**defaults)


def test_training_separates_two_blocks():
    rng = np.random.default_rng(13)
    graph = two_block_graph(rng)
    result = bgrl.train_embeddings(graph, _small_config(epochs=30))
    norms = np.maximum(np.linalg.norm(result.embeddings, axis=1, keepdims=True), 1e-12)
    emb = result.embeddings / norms
    sims = emb @ emb.T
    half = graph.n // 2
    within = np.concatenate([sims[:half, :half].ravel(), sims[half:, half:].ravel()])
    cross = sims[:half, half:].ravel()
    assert within.mean() - cross.mean() >= 0.2


def test_training_reduces_loss():
    rng = np.random.default_rng(14)
    graph = two_block_graph(rng, n=60)
    result = bgrl.train_embeddings(graph, _small_config(epochs=20))
    losses = result.epoch_losses
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_training_determinism_bit_identical():
    rng = np.random.default_rng(15)
    graph = two_block_graph(rng, n=40)
    r1 = bgrl.train_embeddings(graph, _small_config(epochs=4))
    r2 = bgrl.train_embeddings(graph, _small_config(epochs=4))
    assert np.array_equal(r1.embeddings, r2.embeddings)


def test_training_with_sampling_runs():
    rng = np.random.default_rng(16)
    graph = two_block_graph(rng, n=40)
    result = bgrl.train_embeddings(graph, _small_config(epochs=3, fanouts=(5, 3)))
    assert result.embeddings.shape == (40, 16)
    assert np.all(np.isfinite(result.embeddings))


# ---------------------------------------------------------------------------
# embedding export
# ---------------------------------------------------------------------------

def test_embedding_export_roundtrip(tmp_path):
    from sessgraph.sessiondata import ItemCatalog

    rng = np.random.default_rng(17)
    emb = rng.normal(size=(6, 4))
    ids = [f"item{k}" for k in range(6)]
    catalog = ItemCatalog(ids, {e: i for i, e in enumerate(ids)})
    tpath, bpath = tmp_path / "e.txt", tmp_path / "e.bin"
    bgrl.save_embeddings_text(tpath, emb, catalog)
    bgrl.save_embeddings_binary(bpath, emb, catalog)
    header, *rows = [line.split() for line in tpath.read_text().splitlines()]
    assert header == ["6", "4"]
    assert [r[0] for r in rows] == ids
    assert np.array_equal(np.array([[float(v) for v in r[1:]] for r in rows]), emb)
    eb, idb = bgrl.load_embeddings_binary(bpath)
    assert idb == ids
    assert np.array_equal(eb, emb)


@pytest.mark.parametrize("case", ["magic", "short", "truncated", "trailing", "huge_header",
                                  "bad_id", "non_finite"])
def test_embedding_binary_reader_rejects_corrupt_files(tmp_path, case):
    import struct

    from sessgraph.errors import DataError
    from sessgraph.sessiondata import ItemCatalog

    ids = ["a", "b", "c"]
    path = tmp_path / "e.bin"
    bgrl.save_embeddings_binary(path, np.ones((3, 2)),
                                ItemCatalog(ids, {e: i for i, e in enumerate(ids)}))
    data = path.read_bytes()
    bad = {
        "magic": b"EMB2" + data[4:],
        "short": data[:12],
        "truncated": data[:-3],
        "trailing": data + b"\0",
        "huge_header": data[:4] + struct.pack("<QQ", 10**6, 10**6) + data[20:],
        "bad_id": data[:22] + b"\xff" + data[23:],
        "non_finite": data[:23] + struct.pack("<d", float("nan")) + data[31:],
    }[case]
    path.write_bytes(bad)
    with pytest.raises(DataError):
        bgrl.load_embeddings_binary(path)
