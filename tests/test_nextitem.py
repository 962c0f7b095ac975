"""Next-item model: initialization contract, gradient check, memorization
sanity, tied-weight identity, threshold scan."""

import numpy as np
import pytest

from sessgraph import diffcore as dc
from sessgraph import nextitem as ni
from sessgraph.errors import ShapeError
from sessgraph.sessiondata import PrefixSample

from test_diffcore import finite_diff_grad, rel_err


def test_pretrained_copy_is_exact():
    rng = np.random.default_rng(0)
    src = rng.normal(size=(7, 4))
    table = ni.init_table(ni.PRETRAINED, 7, 4, source=src)
    assert np.array_equal(table.data, src)
    src[0, 0] = 999.0  # the table must hold its own copy
    assert table.data[0, 0] != 999.0


def test_pretrained_shape_mismatch_errors():
    with pytest.raises(ShapeError):
        ni.init_table(ni.PRETRAINED, 5, 4, source=np.zeros((4, 4)))


def test_scaled_uniform_reproducible_and_bounded():
    t1 = ni.init_table(ni.SCALED_UNIFORM, 50, 16, rng=np.random.default_rng(3))
    t2 = ni.init_table(ni.SCALED_UNIFORM, 50, 16, rng=np.random.default_rng(3))
    assert np.array_equal(t1.data, t2.data)
    bound = np.sqrt(6.0 / (50 + 16))
    assert np.all(np.abs(t1.data) <= bound)


def test_tied_weight_identity():
    """Score of item x for prefix [x] is the squared norm of its row."""
    rng = np.random.default_rng(4)
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, 6, 3, rng=rng))
    for x in range(6):
        s = model.scores([x])
        assert s[x] == pytest.approx(float(model.table.data[x] @ model.table.data[x]))


def test_softmax_normalization():
    rng = np.random.default_rng(5)
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, 8, 4, rng=rng))
    s = model.scores([1, 3])
    p = np.exp(s - s.max())
    p /= p.sum()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_item_catalog_loss_is_zero():
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, 1, 3,
                                           rng=np.random.default_rng(0)))
    loss = model.batch_loss(ni.FlatPrefixes.of([PrefixSample((0,), 0)]))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_embedding_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, 5, 3, rng=rng))
    batch = ni.FlatPrefixes.of(
        [PrefixSample((0, 1), 2), PrefixSample((3,), 4), PrefixSample((2, 4, 1), 0)])

    def build_loss():
        return model.batch_loss(batch)

    with dc.Tape() as tape:
        loss = build_loss()
    dc.backward(tape, loss)
    fd = finite_diff_grad(lambda: float(build_loss().data), model.table.data)
    assert rel_err(model.table.grad, fd) < 1e-4


def _list_built_loss(model, prefixes):
    """batch_loss as built from per-prefix Python lists."""
    idx = np.concatenate([np.asarray(p.prefix, dtype=np.int64) for p in prefixes])
    seg = np.repeat(np.arange(len(prefixes)), [len(p.prefix) for p in prefixes])
    inv_len = np.concatenate([np.full(len(p.prefix), 1.0 / len(p.prefix)) for p in prefixes])
    targets = np.array([p.target for p in prefixes], dtype=np.int64)
    rows = dc.gather_rows(model.table, idx)
    pooled = dc.segment_weighted_sum(rows, dc.Tensor(inv_len), seg, len(prefixes))
    logits = dc.matmul(pooled, dc.transpose(model.table))
    return dc.cross_entropy_with_logits(logits, targets)


def _loss_and_grad(model, build):
    model.table.zero_grad()
    with dc.Tape() as tape:
        loss = build()
    dc.backward(tape, loss)
    return loss.data.tobytes(), model.table.grad.tobytes()


def test_flat_prefix_batch_loss_equals_list_built_bitwise():
    rng = np.random.default_rng(8)
    m = 30
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, m, 6, rng=rng))
    prefixes = [PrefixSample(tuple(int(i) for i in rng.integers(0, m, rng.integers(1, 8))),
                             int(rng.integers(0, m))) for _ in range(200)]
    flat = ni.FlatPrefixes.of(prefixes)
    assert len(flat) == 200
    for rows in (np.arange(200), rng.permutation(200)[:64], np.array([5]), np.array([], int)):
        batch = [prefixes[i] for i in rows]
        taken = flat.take(rows)
        expected = ni.FlatPrefixes.of(batch)
        for got, want in zip((taken.indptr, taken.items, taken.targets),
                             (expected.indptr, expected.items, expected.targets)):
            assert np.array_equal(got, want) and got.dtype == want.dtype
        if len(rows):
            assert (_loss_and_grad(model, lambda: model.batch_loss(taken))
                    == _loss_and_grad(model, lambda: _list_built_loss(model, batch)))


def test_target_rank_breaks_ties_by_ascending_index():
    model = ni.NextItemModel(dc.Tensor(np.array([[1.0], [2.0], [1.0], [2.0], [0.5]])))
    # scores against prefix (0,): [1, 2, 1, 2, 0.5]
    assert [model.target_rank((0,), t) for t in range(5)] == [3, 1, 4, 2, 5]
    assert isinstance(model.target_rank((0,), 0), int)


def test_pretrained_table_remains_trainable():
    rng = np.random.default_rng(7)
    src = rng.normal(size=(5, 3))
    model = ni.NextItemModel(ni.init_table(ni.PRETRAINED, 5, 3, source=src))
    result = ni.train_next(model, [PrefixSample((0,), 1)], [],
                           ni.NextTrainConfig(epochs=1, batch_size=1))
    assert not np.array_equal(result.model.table.data, src)


def test_memorizable_corpus_reaches_perfect_hr1():
    """Unique prefix -> target mapping on a tiny catalog is memorized.

    Prefixes have two items so the pooled vector is free to align with the
    target row; with tied weights a single-item prefix can never rank another
    item above itself (its self-score bounds every cross-score).
    """
    rng = np.random.default_rng(8)
    prefixes = [PrefixSample((0, 1), 2), PrefixSample((3, 4), 5), PrefixSample((1, 3), 0)]
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, 6, 8, rng=rng))
    result = ni.train_next(model, prefixes, prefixes,
                           ni.NextTrainConfig(epochs=50, lr=0.05, batch_size=4))
    # HR@1 = 1.0: every target ranks first
    assert [result.model.target_rank(p.prefix, p.target) for p in prefixes] == [1, 1, 1]


def test_training_determinism():
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    prefixes = [PrefixSample((i % 4,), (i + 1) % 4) for i in range(12)]
    m1 = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, 4, 6, rng=rng1))
    m2 = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, 4, 6, rng=rng2))
    cfg = ni.NextTrainConfig(epochs=3, batch_size=4, seed=5)
    r1 = ni.train_next(m1, prefixes, prefixes, cfg)
    r2 = ni.train_next(m2, prefixes, prefixes, cfg)
    assert np.array_equal(r1.model.table.data, r2.model.table.data)
    assert r1.hr_curve == r2.hr_curve


def test_epoch_record_line_format():
    rec = ni.EpochRecord(3, 0.5, 0.25, 0.125, 1.0)
    assert rec.as_line() == "3\t0.500000\t0.250000\t0.125000\t1.000"


# ---------------------------------------------------------------------------
# epochs_to_threshold
# ---------------------------------------------------------------------------

def test_threshold_basic():
    assert ni.epochs_to_threshold([0.1, 0.3, 0.5], 0.3) == 2


def test_threshold_never_reached():
    assert ni.epochs_to_threshold([0.1, 0.2], 0.9) is None


def test_threshold_matches_linear_scan_on_random_curves():
    rng = np.random.default_rng(10)
    for _ in range(30):
        curve = np.sort(rng.uniform(size=rng.integers(1, 15))).tolist()
        thr = float(rng.uniform())
        expected = None
        for i, v in enumerate(curve, start=1):
            if v >= thr:
                expected = i
                break
        assert ni.epochs_to_threshold(curve, thr) == expected
