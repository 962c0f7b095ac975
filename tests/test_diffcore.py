"""Gradient checks for every primitive against central finite differences,
plus optimizer and checkpoint behavior."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sessgraph import diffcore as dc
from sessgraph.diffcore.tensor import _finite_or_raise, _record, _scatter_add_rows
from sessgraph.errors import DataError, NumericError, ShapeError

FD_H = 1e-5
FD_TOL = 1e-5


def finite_diff_grad(f, x: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Central-difference gradient of scalar f w.r.t. array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def check_gradients(build_loss, params, tol=FD_TOL):
    """build_loss() runs a fresh forward pass and returns a scalar Tensor."""
    with dc.Tape() as tape:
        loss = build_loss()
    dc.backward(tape, loss)
    for p in params:
        fd = finite_diff_grad(lambda: float(build_loss().data), p.data)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(analytic, fd) < tol, f"gradient mismatch for {p}"


def bytes_held_by_tape(build):
    """Bytes that a tape recorded around build() keeps alive: traced memory
    with the tape minus traced memory after it is dropped."""
    tracemalloc.start()
    try:
        with dc.Tape() as tape:
            build()
        with_tape = tracemalloc.get_traced_memory()[0]
        del tape
        return with_tape - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_matmul_identity():
    b = dc.Tensor(np.arange(12.0).reshape(3, 4))
    out = dc.matmul(dc.Tensor(np.eye(3)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_segment_softmax_singleton_is_one():
    out = dc.segment_softmax(dc.Tensor(np.array([3.7])), np.array([0]))
    assert out.data[0] == pytest.approx(1.0)


def test_segment_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    logits = dc.Tensor(rng.normal(size=20))
    seg = np.sort(rng.integers(0, 5, size=20))
    out = dc.segment_softmax(logits, seg)
    assert np.all(out.data >= 0)
    for s in np.unique(seg):
        assert abs(out.data[seg == s].sum() - 1.0) < 1e-12


def test_cosine_rows_self_is_one():
    rng = np.random.default_rng(1)
    u = dc.Tensor(rng.normal(size=(4, 6)))
    out = dc.cosine_rows(u, u)
    np.testing.assert_allclose(out.data, 1.0, atol=1e-12)


def test_cosine_rows_zero_vector_uses_eps():
    a = dc.Tensor(np.zeros((1, 3)))
    b = dc.Tensor(np.ones((1, 3)))
    out = dc.cosine_rows(a, b)
    assert out.data[0] == 0.0


def test_shape_mismatch_raises_structured_error():
    with pytest.raises(ShapeError, match="matmul"):
        dc.matmul(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((2, 3))))


def test_nan_forward_raises_numeric_error():
    big = dc.Tensor(np.array([[1e308]]))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        dc.matmul(big, dc.Tensor(np.array([[1e308]])))


def test_backward_requires_scalar_loss():
    with dc.Tape() as tape:
        x = dc.Tensor(np.ones((2, 2)), requires_grad=True)
        y = dc.scale(x, 2.0)
    with pytest.raises(ShapeError):
        dc.backward(tape, y)


def test_linear_loss_gradient_is_exact():
    # loss = mean(W @ x) with x fixed: dloss/dW = x_j / (rows*1) outer structure
    x = dc.Tensor(np.array([[1.0], [2.0], [3.0]]))
    w = dc.Tensor(np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 4.0]]), requires_grad=True)
    with dc.Tape() as tape:
        loss = dc.mean(dc.matmul(w, x))
    dc.backward(tape, loss)
    expected = np.tile(x.data[:, 0], (2, 1)) / 2.0
    np.testing.assert_allclose(w.grad, expected, atol=1e-15)


def test_gradients_accumulate_across_backward_calls():
    x = dc.Tensor(np.ones((2, 2)), requires_grad=True)
    with dc.Tape() as tape:
        loss = dc.mean(dc.scale(x, 3.0))
    dc.backward(tape, loss)
    first = x.grad.copy()
    dc.backward(tape, loss)
    np.testing.assert_allclose(x.grad, 2 * first)


# signed zeros, and magnitudes far enough apart that the summation order shows
_SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e16, -1e16, 3.0e300]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def _scatter_cases(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 4))
    n = draw(st.integers(0, 24)) if rows else 0
    idx = np.array(draw(st.lists(st.integers(0, max(rows - 1, 0)), min_size=n, max_size=n)),
                   dtype=np.intp)
    values = np.array(draw(st.lists(_SCATTER_VALUES, min_size=n * cols, max_size=n * cols)),
                      dtype=np.float64).reshape(n, cols)
    return idx, values, rows


@given(_scatter_cases())
def test_scatter_add_rows_is_bitwise_add_at(case):
    idx, values, rows = case
    expected = np.zeros((rows, values.shape[1]))
    np.add.at(expected, idx, values)
    out = _scatter_add_rows(idx, values, rows)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def test_owned_first_gradient_has_the_bytes_of_zeros_plus_g():
    g = np.array([[-0.0, 0.0, 1e-300], [-2.5, 3.0, -1e16]])
    t = dc.Tensor(np.ones((2, 3)))
    t._accumulate(g.copy(), owned=True)
    assert t.grad.tobytes() == (np.zeros((2, 3)) + g).tobytes()
    t._accumulate(g.copy(), owned=True)
    assert t.grad.tobytes() == (np.zeros((2, 3)) + g + g).tobytes()


def _pooled_softmax_loss(table, weights, out_w):
    """A loss through gather_rows, segment_weighted_sum and cross_entropy, plus
    every op output it made. Each leaf gets one gradient term per backward."""
    rows = dc.gather_rows(table, [0, 2, 2, 1, 3])
    pooled = dc.segment_weighted_sum(rows, weights, [0, 0, 1, 1, 1], 2)
    logits = dc.matmul(pooled, out_w)
    loss = dc.cross_entropy_with_logits(logits, [3, 0])
    return loss, [rows, pooled, logits, loss]


def _leaves(seed):
    rng = np.random.default_rng(seed)
    return (dc.Tensor(rng.normal(size=(4, 3)), requires_grad=True),
            dc.Tensor(rng.uniform(0.1, 1.0, size=5), requires_grad=True),
            dc.Tensor(rng.normal(size=(3, 4)), requires_grad=True))


def test_backward_frees_op_output_gradients():
    leaves = _leaves(11)
    with dc.Tape() as tape:
        loss, outputs = _pooled_softmax_loss(*leaves)
    dc.backward(tape, loss)
    assert all(out.grad is None for out, _ in tape._records)
    assert all(out.grad is None for out in outputs)
    assert all(leaf.grad is not None for leaf in leaves)


def test_second_backward_doubles_leaf_gradients_exactly():
    leaves = _leaves(12)
    with dc.Tape() as tape:
        loss, _ = _pooled_softmax_loss(*leaves)
    dc.backward(tape, loss)
    first = [leaf.grad.copy() for leaf in leaves]
    dc.backward(tape, loss)
    for leaf, g in zip(leaves, first):
        assert np.array_equal(leaf.grad, 2 * g)


def test_cross_segment_gradient_is_exactly_zero():
    vals = dc.Tensor(np.random.default_rng(3).normal(size=(4, 2)), requires_grad=True)
    w = dc.Tensor(np.ones(4), requires_grad=True)
    seg = np.array([0, 0, 1, 1])
    with dc.Tape() as tape:
        out = dc.segment_weighted_sum(vals, w, seg, 2)
        loss = dc.mean(dc.gather_rows(out, [0]))  # only segment 0 contributes
    dc.backward(tape, loss)
    assert np.all(vals.grad[2:] == 0.0)
    assert np.all(w.grad[2:] == 0.0)
    assert np.any(vals.grad[:2] != 0.0)


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive
# ---------------------------------------------------------------------------

def _rand(rng, *shape):
    return dc.Tensor(rng.normal(size=shape) + 0.1, requires_grad=True)


@pytest.mark.parametrize("seed", range(3))
def test_fd_matmul(seed):
    rng = np.random.default_rng(seed)
    a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
    check_gradients(lambda: dc.mean(dc.matmul(a, b)), [a, b])


@pytest.mark.parametrize("seed", range(3))
def test_fd_add_and_row_broadcast(seed):
    rng = np.random.default_rng(seed)
    a, b = _rand(rng, 3, 4), _rand(rng, 3, 4)
    bias = _rand(rng, 1, 4)
    check_gradients(lambda: dc.mean(dc.add(dc.add(a, b), bias)), [a, b, bias])


def test_fd_scale_mul_transpose_reshape():
    rng = np.random.default_rng(7)
    a, b = _rand(rng, 2, 5), _rand(rng, 2, 5)

    def loss():
        z = dc.mul(dc.scale(a, 1.7), b)
        return dc.mean(dc.reshape(dc.transpose(z), (10, 1)))

    check_gradients(loss, [a, b])


@pytest.mark.parametrize("seed", range(3))
def test_fd_row_concat_gather(seed):
    rng = np.random.default_rng(seed + 10)
    a, b = _rand(rng, 4, 2), _rand(rng, 4, 3)
    idx = rng.integers(0, 4, size=6)

    def loss():
        cat = dc.row_concat([a, b])
        return dc.mean(dc.gather_rows(cat, idx))

    check_gradients(loss, [a, b])


_EDGE_PAIRS = {
    # every row of a and b is hit more than once, some rows of b never
    "repeated": ([0, 0, 2, 3, 3, 3, 1], [4, 1, 1, 0, 4, 2, 4]),
    "empty": ([], []),
}


@pytest.mark.parametrize("case", sorted(_EDGE_PAIRS))
@pytest.mark.parametrize("seed", range(2))
def test_fd_edge_attention_logits(case, seed):
    rng = np.random.default_rng(seed + 15)
    a, b, v = _rand(rng, 4, 3), _rand(rng, 5, 3), _rand(rng, 1, 3)
    att = _rand(rng, 3, 1)
    a_idx, b_idx = _EDGE_PAIRS[case]
    w = rng.uniform(0.1, 2.0, size=len(a_idx))
    probe = dc.Tensor(rng.normal(size=(len(a_idx), 1)))

    def loss():
        out = dc.edge_attention_logits(a, b, a_idx, b_idx, w, v, att, 0.2)
        out = dc.reshape(out, (len(a_idx), 1))
        return dc.mean(dc.matmul(dc.transpose(dc.mul(out, out)), probe))

    check_gradients(loss, [a, b, v, att])


def test_edge_attention_logits_matches_gathered_rows():
    rng = np.random.default_rng(16)
    a, b, v, att = _rand(rng, 3, 2), _rand(rng, 4, 2), _rand(rng, 1, 2), _rand(rng, 2, 1)
    a_idx, b_idx, w = [2, 0, 2], [1, 3, 1], np.array([0.5, 1.0, -2.0])
    out = dc.edge_attention_logits(a, b, a_idx, b_idx, w, v, att, 0.2)
    pre = a.data[a_idx] + b.data[b_idx] + w[:, None] * v.data
    np.testing.assert_array_equal(out.data, (np.where(pre > 0, pre, 0.2 * pre) @ att.data)[:, 0])
    with pytest.raises(ShapeError, match="edge_attention_logits"):
        dc.edge_attention_logits(a, b, a_idx, [1, 4, 1], w, v, att, 0.2)
    with pytest.raises(ShapeError, match="edge_attention_logits"):
        dc.edge_attention_logits(a, b, a_idx, b_idx, w[:2], v, att, 0.2)
    with pytest.raises(ShapeError, match="edge_attention_logits"):
        dc.edge_attention_logits(a, b, a_idx, b_idx, w, v, _rand(rng, 3, 1), 0.2)


@pytest.mark.parametrize("seed", range(3))
def test_fd_segment_weighted_sum_gathered(seed):
    rng = np.random.default_rng(seed + 55)
    vals = _rand(rng, 4, 3)
    w = dc.Tensor(rng.normal(size=8) + 0.2, requires_grad=True)
    seg = np.sort(rng.integers(0, 4, size=8))
    rows = rng.integers(0, 4, size=8)
    check_gradients(lambda: dc.mean(dc.segment_weighted_sum(vals, w, seg, 5, rows=rows)),
                    [vals, w])


@pytest.mark.parametrize("seed", range(3))
def test_fd_tied_softmax_xent(seed):
    rng = np.random.default_rng(seed + 85)
    h, table = _rand(rng, 4, 3), _rand(rng, 6, 3)
    targets = rng.integers(0, 6, size=4)
    check_gradients(lambda: dc.tied_softmax_xent(h, table, targets), [h, table])


@pytest.mark.parametrize("seed", range(3))
def test_fd_leaky_relu(seed):
    rng = np.random.default_rng(seed + 20)
    a = dc.Tensor(rng.normal(size=(4, 4)) + 0.3, requires_grad=True)
    a.data[np.abs(a.data) < 1e-3] += 0.01  # keep away from the kink
    check_gradients(lambda: dc.mean(dc.leaky_relu(a, 0.2)), [a])


@pytest.mark.parametrize("seed", range(3))
def test_fd_prelu(seed):
    rng = np.random.default_rng(seed + 30)
    a = dc.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    a.data[np.abs(a.data) < 1e-3] += 0.01
    slope = dc.Tensor(np.array([0.25]), requires_grad=True)
    check_gradients(lambda: dc.mean(dc.prelu(a, slope)), [a, slope])


@pytest.mark.parametrize("seed", range(3))
def test_fd_segment_softmax(seed):
    rng = np.random.default_rng(seed + 40)
    logits = dc.Tensor(rng.normal(size=12), requires_grad=True)
    seg = np.sort(rng.integers(0, 4, size=12))
    probe = dc.Tensor(rng.normal(size=(12, 1)))

    def loss():
        alpha = dc.segment_softmax(logits, seg)
        return dc.mean(dc.mul(dc.reshape(alpha, (12, 1)), probe))

    check_gradients(loss, [logits])


@pytest.mark.parametrize("seed", range(3))
def test_fd_segment_weighted_sum(seed):
    rng = np.random.default_rng(seed + 50)
    vals = _rand(rng, 8, 3)
    w = dc.Tensor(rng.normal(size=8) + 0.2, requires_grad=True)
    seg = np.sort(rng.integers(0, 4, size=8))
    check_gradients(lambda: dc.mean(dc.segment_weighted_sum(vals, w, seg, 5)), [vals, w])


@pytest.mark.parametrize("seed", range(3))
def test_fd_l2_normalize(seed):
    rng = np.random.default_rng(seed + 60)
    a = dc.Tensor(rng.normal(size=(4, 3)) + 0.5, requires_grad=True)
    probe = dc.Tensor(rng.normal(size=(4, 3)))
    check_gradients(lambda: dc.mean(dc.mul(dc.l2_normalize(a), probe)), [a])


@pytest.mark.parametrize("seed", range(3))
def test_fd_cosine_rows(seed):
    rng = np.random.default_rng(seed + 70)
    a = dc.Tensor(rng.normal(size=(5, 4)) + 0.3, requires_grad=True)
    b = dc.Tensor(rng.normal(size=(5, 4)) + 0.3, requires_grad=True)
    check_gradients(lambda: dc.mean(dc.cosine_rows(a, b)), [a, b])


@pytest.mark.parametrize("seed", range(3))
def test_fd_cross_entropy(seed):
    rng = np.random.default_rng(seed + 80)
    logits = _rand(rng, 4, 6)
    targets = rng.integers(0, 6, size=4)
    check_gradients(lambda: dc.cross_entropy_with_logits(logits, targets), [logits])


def test_fd_mean():
    rng = np.random.default_rng(90)
    a = _rand(rng, 3, 3)
    check_gradients(lambda: dc.mean(a), [a])


@pytest.mark.parametrize("seed", range(8))
def test_fd_random_composition(seed):
    """Randomly composed graphs of <= 6 primitives agree with finite differences."""
    rng = np.random.default_rng(seed + 100)
    a = _rand(rng, 3, 4)
    b = _rand(rng, 4, 3)
    slope = dc.Tensor(np.array([0.25]), requires_grad=True)
    seg = np.sort(rng.integers(0, 3, size=3))

    def loss():
        z = dc.matmul(a, b)                       # (3, 3)
        z = dc.prelu(z, slope)
        z = dc.add(z, dc.transpose(z))
        w = dc.reshape(dc.gather_rows(z, [0, 1, 2]), (3, 3))
        alpha = dc.segment_softmax(dc.reshape(dc.gather_rows(w, [0]), (3,)), seg)
        pooled = dc.segment_weighted_sum(w, alpha, seg, 3)
        return dc.mean(pooled)

    check_gradients(loss, [a, b, slope], tol=1e-4)


# ---------------------------------------------------------------------------
# recompute-in-backward primitives against the composed paths they replace
# ---------------------------------------------------------------------------

def _edge_pair_sum(a, b, a_idx, b_idx, w, v):
    """a[a_idx] + b[b_idx] + w v as one taped primitive that keeps its (E, d)
    output: the attention's pre-activation before edge_attention_logits."""
    ai, bi = np.asarray(a_idx, dtype=np.intp), np.asarray(b_idx, dtype=np.intp)
    wv = np.asarray(w, dtype=np.float64)
    for t, idx in ((a, ai), (b, bi)):
        if idx.size and (idx.min() < 0 or idx.max() >= t.shape[0]):
            raise ShapeError("edge_pair_sum", t.shape)
    pre = a.data[ai]
    pre += b.data[bi]
    pre += wv[:, None] * v.data
    out = dc.Tensor(pre)
    _finite_or_raise("edge_pair_sum", out.data)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_scatter_add_rows(ai, g, a.shape[0]), owned=True)
        if b.requires_grad:
            b._accumulate(_scatter_add_rows(bi, g, b.shape[0]), owned=True)
        if v.requires_grad:
            v._accumulate((wv @ g)[None, :], owned=True)

    _record(out, (a, b, v), _bw)
    return out


def _attention_graph(seed, n_dst=7, n_src=9):
    """(dst, src, w) sorted by dst: dst 0 has no edge and dst 1 one, the
    others up to six; src rows repeat, and some are never drawn."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 7, size=n_dst)
    counts[:2] = (0, 1)
    dst = np.repeat(np.arange(n_dst), counts)
    return dst, rng.integers(0, n_src, size=len(dst)), rng.uniform(0.1, 2.0, size=len(dst))


def _attention_loss(fused, leaves, graph, probe, n_dst=7):
    """Attention logits, segment softmax and the alpha-weighted sum of
    gathered value rows, fused or composed from single primitives."""
    a, b, v, att, values = leaves
    dst, src, w = graph
    if fused:
        logits = dc.edge_attention_logits(a, b, dst, src, w, v, att, 0.2)
        alpha = dc.segment_softmax(logits, dst)
        agg = dc.segment_weighted_sum(values, alpha, dst, n_dst, rows=src)
    else:
        pre = _edge_pair_sum(a, b, dst, src, w, v)
        logits = dc.reshape(dc.matmul(dc.leaky_relu(pre, 0.2), att), (len(dst),))
        alpha = dc.segment_softmax(logits, dst)
        agg = dc.segment_weighted_sum(dc.gather_rows(values, src), alpha, dst, n_dst)
    return dc.mean(dc.mul(agg, probe))


def _two_backwards(build, leaves):
    """Loss bytes and every leaf gradient's bytes after one and after two
    backward passes over the same tape."""
    for leaf in leaves:
        leaf.zero_grad()
    with dc.Tape() as tape:
        loss = build()
    out = [loss.data.tobytes()]
    for _ in range(2):
        dc.backward(tape, loss)
        out.append([leaf.grad.tobytes() for leaf in leaves])
    return out


@pytest.mark.parametrize("seed", range(6))
def test_edge_attention_and_gathered_sum_equal_composed_path_bitwise(seed):
    rng = np.random.default_rng(seed + 200)
    leaves = [_rand(rng, 7, 5), _rand(rng, 9, 5), _rand(rng, 1, 5), _rand(rng, 5, 1),
              _rand(rng, 9, 4)]
    graph = _attention_graph(seed)
    probe = dc.Tensor(rng.normal(size=(7, 4)))
    fused = _two_backwards(lambda: _attention_loss(True, leaves, graph, probe), leaves)
    composed = _two_backwards(lambda: _attention_loss(False, leaves, graph, probe), leaves)
    assert fused == composed


def test_gathered_sum_weight_gradient_equals_composed_path_bitwise():
    """Leaf weights, empty and one-row segments, and a single row."""
    rng = np.random.default_rng(210)
    values, weights = _rand(rng, 6, 3), _rand(rng, 10)
    seg = np.array([1, 1, 1, 2, 4, 4, 4, 4, 5, 7])
    rows = rng.integers(0, 6, size=10)
    for take in (np.arange(10), np.array([3])):
        w = dc.Tensor(weights.data[take], requires_grad=True)
        fused = _two_backwards(lambda: dc.mean(dc.segment_weighted_sum(
            values, w, seg[take], 8, rows=rows[take])), [values, w])
        composed = _two_backwards(lambda: dc.mean(dc.segment_weighted_sum(
            dc.gather_rows(values, rows[take]), w, seg[take], 8)), [values, w])
        assert fused == composed


def _tied_cases():
    rng = np.random.default_rng(220)
    ints = rng.integers(-2, 3, size=(9, 3)).astype(np.float64)
    ints[4] = ints[7] = ints[0]     # equal rows: every prefix ties on items 0, 4 and 7
    return {
        "random": (rng.normal(size=(6, 4)), rng.normal(size=(11, 4)), rng.integers(0, 11, 6)),
        "one-row": (rng.normal(size=(1, 4)), rng.normal(size=(11, 4)), np.array([3])),
        "tied": (rng.integers(-1, 2, size=(5, 3)).astype(np.float64), ints,
                 np.array([0, 4, 7, 2, 7])),
        "one-item": (rng.normal(size=(3, 2)), rng.normal(size=(1, 2)), np.zeros(3, int)),
    }


@pytest.mark.parametrize("case", sorted(_tied_cases()))
def test_tied_softmax_xent_equals_composed_path_bitwise(case):
    h_data, table_data, targets = _tied_cases()[case]
    h = dc.Tensor(h_data, requires_grad=True)
    table = dc.Tensor(table_data, requires_grad=True)
    fused = _two_backwards(lambda: dc.tied_softmax_xent(h, table, targets), [h, table])
    composed = _two_backwards(lambda: dc.cross_entropy_with_logits(
        dc.matmul(h, dc.transpose(table)), targets), [h, table])
    assert fused == composed


def test_tied_softmax_xent_upstream_gradient_scales_the_leaf_gradients():
    """An upstream gradient other than 1 reaches both leaves: the scaled loss
    passes the finite-difference check, and its gradients are 3 times the
    unscaled ones."""
    rng = np.random.default_rng(225)
    h, table = _rand(rng, 5, 3), _rand(rng, 7, 3)
    targets = rng.integers(0, 7, size=5)
    check_gradients(lambda: dc.scale(dc.tied_softmax_xent(h, table, targets), 3.0),
                    [h, table])
    scaled = [h.grad.copy(), table.grad.copy()]
    for leaf in (h, table):
        leaf.zero_grad()
    with dc.Tape() as tape:
        loss = dc.tied_softmax_xent(h, table, targets)
    dc.backward(tape, loss)
    np.testing.assert_allclose(scaled[0], 3.0 * h.grad, rtol=1e-14, atol=0)
    np.testing.assert_allclose(scaled[1], 3.0 * table.grad, rtol=1e-14, atol=0)


def test_tied_softmax_xent_backward_forms_no_logit_block():
    """The backward over a tied_softmax_xent tape peaks below one (B, m)
    float64 array: the forward formed the gradients while its logits were
    live, and the adjoint does not form them again."""
    rng = np.random.default_rng(226)
    B, m, d = 256, 2000, 16
    h, table = _rand(rng, B, d), _rand(rng, m, d)
    with dc.Tape() as tape:
        loss = dc.tied_softmax_xent(h, table, rng.integers(0, m, size=B))
    tracemalloc.start()
    try:
        dc.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B * m * 8


def test_fused_primitives_raise_where_the_composed_path_raised():
    rng = np.random.default_rng(230)
    a, b, v, att, values = (_rand(rng, 7, 5), _rand(rng, 9, 5), _rand(rng, 1, 5),
                            _rand(rng, 5, 1), _rand(rng, 9, 4))
    dst, src, w = _attention_graph(3)
    probe = dc.Tensor(np.ones((7, 4)))
    a.data[dst[-1]] = np.inf
    values.data[src[0]] = np.nan
    for fused in (True, False):
        with pytest.raises(NumericError):
            _attention_loss(fused, [a, b, v, att, values], (dst, src, w), probe)
        with pytest.raises(NumericError):
            _attention_loss(fused, [_rand(rng, 7, 5), b, v, att, values], (dst, src, w), probe)
    bad_src = src.copy()
    bad_src[0] = 9
    with pytest.raises(ShapeError):
        dc.edge_attention_logits(a, b, dst, bad_src, w, v, att, 0.2)
    with pytest.raises(ShapeError):
        _edge_pair_sum(a, b, dst, bad_src, w, v)
    with pytest.raises(ShapeError):
        dc.segment_weighted_sum(values, dc.Tensor(w), dst, 7, rows=bad_src)
    with pytest.raises(ShapeError):
        dc.segment_weighted_sum(dc.gather_rows(values, bad_src), dc.Tensor(w), dst, 7)

    h, table = _rand(rng, 3, 2), _rand(rng, 5, 2)
    h.data[1, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        dc.tied_softmax_xent(h, table, [0, 1, 2])
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        dc.cross_entropy_with_logits(dc.matmul(h, dc.transpose(table)), [0, 1, 2])
    h = _rand(rng, 3, 2)
    for targets in ([0, 5, 1], [0, -1, 1]):
        with pytest.raises(ShapeError):
            dc.tied_softmax_xent(h, table, targets)
        with pytest.raises(ShapeError):
            dc.cross_entropy_with_logits(dc.matmul(h, dc.transpose(table)), targets)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_adam_first_step_magnitude_is_lr():
    p = dc.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.1, 2.0])
    before = p.data.copy()
    st = dc.OptimizerState([p], lr=0.01)
    dc.adam_step(st, [p])
    step = before - p.data
    np.testing.assert_allclose(np.abs(step), 0.01, rtol=1e-6)
    np.testing.assert_array_equal(np.sign(step), np.sign(p.grad))


def test_adamw_zero_decay_matches_adam_bitwise():
    rng = np.random.default_rng(5)
    init = rng.normal(size=(4, 3))
    p1 = dc.Tensor(init.copy(), requires_grad=True)
    p2 = dc.Tensor(init.copy(), requires_grad=True)
    s1 = dc.OptimizerState([p1], lr=0.05)
    s2 = dc.OptimizerState([p2], lr=0.05, weight_decay=0.0)
    for k in range(25):
        g = rng.normal(size=(4, 3))
        p1.grad = g.copy()
        p2.grad = g.copy()
        dc.adam_step(s1, [p1])
        dc.adamw_step(s2, [p2])
    assert np.array_equal(p1.data, p2.data)


def test_adamw_decay_shrinks_before_delta():
    p = dc.Tensor(np.array([10.0]), requires_grad=True)
    p.grad = np.array([0.0])
    st = dc.OptimizerState([p], lr=0.1, weight_decay=0.5)
    dc.adamw_step(st, [p])
    # decay: 10 - 0.1*0.5*10 = 9.5; zero gradient leaves the Adam delta at 0
    assert p.data[0] == pytest.approx(9.5)


@pytest.mark.parametrize("stepper", [dc.adam_step, dc.adamw_step])
def test_optimizer_converges_on_quadratic(stepper):
    rng = np.random.default_rng(11)
    target = rng.normal(size=(5,))
    p = dc.Tensor(rng.normal(size=(5,)), requires_grad=True)
    st = dc.OptimizerState([p], lr=0.05, weight_decay=0.0)
    for _ in range(600):
        p.grad = 2 * (p.data - target)
        stepper(st, [p])
    assert np.linalg.norm(p.data - target) < 1e-3


def test_optimizer_determinism():
    def run():
        rng = np.random.default_rng(42)
        p = dc.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        st = dc.OptimizerState([p], lr=0.01, weight_decay=0.01)
        for _ in range(10):
            p.grad = rng.normal(size=(3, 3))
            dc.adamw_step(st, [p])
        return p.data

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {
        "layer1.W_val": rng.normal(size=(8, 3)),
        "layer1.a": rng.normal(size=(8,)),
        "scalar": np.asarray(math.pi),
    }
    path = tmp_path / "ckpt.ntc"
    dc.save_tensors(path, tensors)
    loaded = dc.load_tensors(path)
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert np.array_equal(np.asarray(tensors[k]), loaded[k])
        assert loaded[k].dtype == np.float64


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        dc.load_tensors(path)


@pytest.mark.parametrize("case", ["magic", "truncated", "trailing", "short_count",
                                  "huge_shape", "bad_name"])
def test_checkpoint_rejects_corrupt_files(tmp_path, case):
    path = tmp_path / "encoder.ntc"
    dc.save_tensors(path, {"W": np.ones((2, 3)), "b": np.zeros(3)})
    data = path.read_bytes()
    name_at = 4 + 4 + 2   # after magic, count and the first name's length
    shape_at = name_at + 1 + 1   # after the name "W" and its ndim
    path.write_bytes({
        "magic": b"NTC2" + data[4:],
        "truncated": data[:-5],
        "trailing": data + b"\0",
        "short_count": data[:6],
        "huge_shape": data[:shape_at] + struct.pack("<QQ", 2**40, 2**40) + data[shape_at + 16:],
        "bad_name": data[:name_at] + b"\xff" + data[name_at + 1:],
    }[case])
    with pytest.raises(DataError, match="encoder.ntc"):
        dc.load_tensors(path)
