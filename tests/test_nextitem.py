"""Next-item model: initialization contract, gradient check, batched ranking
against the per-prefix rule, memory held by training and ranking,
memorization sanity, tied-weight identity, threshold scan."""

import tracemalloc

import numpy as np
import pytest

from sessgraph import diffcore as dc
from sessgraph import nextitem as ni
from sessgraph.errors import ShapeError
from sessgraph.sessiondata import PrefixSample

from test_diffcore import bytes_held_by_tape, finite_diff_grad, rel_err


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
    pooled = model.pooled(ni.FlatPrefixes.of([PrefixSample((x,), x) for x in range(6)])).data
    assert np.array_equal(pooled, model.table.data)
    scores = pooled @ model.table.data.T
    assert np.allclose(np.diag(scores), np.sum(model.table.data ** 2, axis=1), rtol=1e-12)


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


def _reference_rank(table, prefix, target):
    """The per-prefix rule: 1-based rank of target under descending score
    against the mean of the prefix rows, ties by ascending index."""
    s = table[np.asarray(prefix)].mean(axis=0) @ table.T
    ts = s[target]
    return 1 + int(np.count_nonzero(s > ts) + np.count_nonzero(s[:target] == ts))


def test_ranks_break_ties_by_ascending_index():
    model = ni.NextItemModel(dc.Tensor(np.array([[1.0], [2.0], [1.0], [2.0], [0.5]])))
    # scores against prefix (0,): [1, 2, 1, 2, 0.5]
    batch = ni.FlatPrefixes.of([PrefixSample((0,), t) for t in range(5)])
    with dc.Tape() as tape:
        ranks = model.ranks(batch, rows=2)
    assert ranks.tolist() == [3, 1, 4, 2, 5] and ranks.dtype == np.int64
    assert len(tape) == 0


def test_ranks_match_per_prefix_rule_on_tied_scores():
    """Integer-valued rows and prefixes of 1, 2 or 4 items keep every score
    exact under both poolings, so ties are common and must break alike."""
    rng = np.random.default_rng(11)
    for m, d in ((9, 2), (40, 3)):
        table = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
        model = ni.NextItemModel(dc.Tensor(table))
        prefixes = [PrefixSample(tuple(int(i) for i in rng.integers(0, m, rng.choice([1, 2, 4]))),
                                 int(rng.integers(0, m))) for _ in range(60)]
        batch = ni.FlatPrefixes.of(prefixes)
        expected = [_reference_rank(table, p.prefix, p.target) for p in prefixes]
        tied = [np.count_nonzero(s == s[p.target]) > 1 for p in prefixes
                for s in [table[list(p.prefix)].mean(axis=0) @ table.T]]
        assert sum(tied) >= len(prefixes) // 4
        for rows in (1, 7, len(batch), len(batch) + 5):
            assert model.ranks(batch, rows).tolist() == expected
    empty = model.ranks(ni.FlatPrefixes.of([]), rows=3)
    assert empty.shape == (0,) and empty.dtype == np.int64
    hr, mrr, ranks = ni.evaluate_ranks(model, ni.FlatPrefixes.of([]), rows=3)
    assert (hr, mrr) == (0.0, 0.0) and ranks.shape == (0,)


def test_ranking_peak_memory_is_at_most_one_training_step():
    """Ranking any number of prefixes in blocks of B holds no more than one
    training step at batch B does."""
    rng = np.random.default_rng(12)
    m, d, B = 500, 32, 1024
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, m, d, rng=rng))
    flat = ni.FlatPrefixes.of(
        [PrefixSample(tuple(int(i) for i in rng.integers(0, m, rng.integers(1, 8))),
                      int(rng.integers(0, m))) for _ in range(3 * B + 17)])

    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def training_step():
        with dc.Tape() as tape:
            loss = model.batch_loss(flat.take(np.arange(B)))
        model.table.zero_grad()
        dc.backward(tape, loss)

    assert peak_bytes(lambda: model.ranks(flat, rows=B)) <= peak_bytes(training_step)


def test_batch_loss_tape_holds_less_than_one_logit_block():
    """After a batch_loss forward at (B, m) the tape keeps less than one
    (B, m) float64 array: it keeps the (B, d) and (m, d) gradients that the
    forward formed from the logits, not the logits."""
    rng = np.random.default_rng(13)
    m, d, B = 2000, 16, 256
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, m, d, rng=rng))
    batch = ni.FlatPrefixes.of(
        [PrefixSample(tuple(int(i) for i in rng.integers(0, m, rng.integers(1, 8))),
                      int(rng.integers(0, m))) for _ in range(B)])
    assert bytes_held_by_tape(lambda: model.batch_loss(batch)) < B * m * 8


def test_pretrained_table_remains_trainable():
    rng = np.random.default_rng(7)
    src = rng.normal(size=(5, 3))
    model = ni.NextItemModel(ni.init_table(ni.PRETRAINED, 5, 3, source=src))
    result = ni.train_next(model, ni.FlatPrefixes.of([PrefixSample((0,), 1)]),
                           ni.FlatPrefixes.of([]), ni.NextTrainConfig(epochs=1, batch_size=1))
    assert not np.array_equal(result.model.table.data, src)


def test_memorizable_corpus_reaches_perfect_hr1():
    """Unique prefix -> target mapping on a tiny catalog is memorized.

    Prefixes have two items so the pooled vector is free to align with the
    target row; with tied weights a single-item prefix can never rank another
    item above itself (its self-score bounds every cross-score).
    """
    rng = np.random.default_rng(8)
    prefixes = ni.FlatPrefixes.of(
        [PrefixSample((0, 1), 2), PrefixSample((3, 4), 5), PrefixSample((1, 3), 0)])
    model = ni.NextItemModel(ni.init_table(ni.SCALED_UNIFORM, 6, 8, rng=rng))
    result = ni.train_next(model, prefixes, prefixes,
                           ni.NextTrainConfig(epochs=50, lr=0.05, batch_size=4))
    # HR@1 = 1.0: every target ranks first
    assert result.model.ranks(prefixes, rows=2).tolist() == [1, 1, 1]


def test_training_determinism():
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    prefixes = ni.FlatPrefixes.of([PrefixSample((i % 4,), (i + 1) % 4) for i in range(12)])
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
