"""Reverse-mode differentiation over 64-bit numpy arrays.

A Tape records primitive operations in execution order; backward() replays
the adjoints in exact reverse order, accumulating gradients additively into
every tensor that has requires_grad set. Primitives called while no tape is
active just compute forward values (inference mode).

All values are float64. Every primitive checks its output for NaN/Inf and
raises NumericError instead of letting poison propagate.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError, ShapeError

_EPS_NORM = 1e-12


class Tensor:
    """A float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        """grad += g, starting from zeros. With owned=True the caller hands
        over g, a new array of grad's shape that nothing else references, and
        a first gradient is kept as g itself rather than copied."""
        if self.grad is None:
            if owned:
                g += 0.0    # turns -0.0 into +0.0, as zeros + g does
                self.grad = g
                return
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive ops; context manager activates it."""

    def __init__(self):
        self._records = []

    def __enter__(self):
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack.pop()
        assert popped is self
        return False

    def record(self, out, backward_fn):
        self._records.append((out, backward_fn))

    def __len__(self):
        return len(self._records)


_tape_stack: list[Tape] = []


def active_tape() -> Tape | None:
    return _tape_stack[-1] if _tape_stack else None


class pause_recording:
    """Context manager: primitives inside compute forward values only."""

    def __enter__(self):
        self._saved = _tape_stack[:]
        _tape_stack.clear()
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack.extend(self._saved)
        return False


def backward(tape: Tape, loss: Tensor):
    """Populate grad slots of every requires_grad tensor reachable from loss.

    Intermediate (op-output) gradients are reset per call, and each one is
    freed as soon as its own adjoint has run, so after the call every op
    output's grad is None and only the leaves hold gradients. Repeated calls
    without zeroing accumulate one full gradient copy into the leaf
    parameters each time. The loss must be scalar.
    """
    if loss.data.size != 1:
        raise ShapeError("backward", loss.shape)
    for out, _ in tape._records:
        out.grad = None
    loss._accumulate(np.ones_like(loss.data))
    for out, fn in reversed(tape._records):
        fn()
        out.grad = None


def zero_grads(params):
    for p in params:
        p.zero_grad()


def _scatter_add_rows(idx: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """out[r] = sum of values[i] over idx[i] == r, added in index order.

    A bincount per column starts each cell at +0.0 and adds its terms in
    input order, as np.add.at into zeros does, so the two agree bit for bit;
    bincount is the faster one.
    """
    out = np.zeros((rows, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(idx, weights=values[:, j], minlength=rows)
    return out


def _finite_or_raise(op: str, out: np.ndarray):
    if not np.all(np.isfinite(out)):
        raise NumericError(f"{op} produced a non-finite value")


def _recording(inputs) -> Tape | None:
    """The tape that an op over `inputs` will be recorded on: the active
    tape if one is active and some input requires a gradient, else None."""
    tape = active_tape()
    if tape is None or not any(t.requires_grad for t in inputs):
        return None
    return tape


def _record(out: Tensor, inputs, backward_fn):
    """Register the adjoint of one primitive if it will be recorded."""
    tape = _recording(inputs)
    if tape is None:
        return
    out.requires_grad = True

    def _run():
        if out.grad is None:
            return
        g = out.grad
        if not np.all(np.isfinite(g)):
            raise NumericError("backward pass produced a non-finite gradient")
        backward_fn(g)

    tape.record(out, _run)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data)
    _finite_or_raise("matmul", out.data)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    _record(out, (a, b), _bw)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a (1, d) row broadcast over a's rows."""
    row_broadcast = (
        a.data.ndim == 2 and b.data.ndim == 2 and b.shape == (1, a.shape[1])
    )
    if a.shape != b.shape and not row_broadcast:
        raise ShapeError("add", a.shape, b.shape)
    out = Tensor(a.data + b.data)
    _finite_or_raise("add", out.data)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0, keepdims=True) if row_broadcast else g)

    _record(out, (a, b), _bw)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    _finite_or_raise("scale", out.data)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * c)

    _record(out, (a,), _bw)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError("mul", a.shape, b.shape)
    out = Tensor(a.data * b.data)
    _finite_or_raise("mul", out.data)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    _record(out, (a, b), _bw)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose", a.shape)
    out = Tensor(a.data.T.copy())

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g.T)

    _record(out, (a,), _bw)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise ShapeError("reshape", a.shape, shape)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    _record(out, (a,), _bw)
    return out


def row_concat(parts: list[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 1."""
    if not parts:
        raise ShapeError("row_concat", ())
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise ShapeError("row_concat", *[p.shape for p in parts])
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    _finite_or_raise("row_concat", out.data)
    widths = [p.shape[1] for p in parts]

    def _bw(g):
        offset = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accumulate(g[:, offset:offset + w])
            offset += w

    _record(out, tuple(parts), _bw)
    return out


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; the adjoint scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2:
        raise ShapeError("gather_rows", a.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("gather_rows", a.shape, (int(idx.min()), int(idx.max())))
    out = Tensor(a.data[idx])

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_scatter_add_rows(idx, g, a.shape[0]))

    _record(out, (a,), _bw)
    return out


def edge_attention_logits(a: Tensor, b: Tensor, a_idx, b_idx, w, v: Tensor, att: Tensor,
                          slope: float) -> Tensor:
    """GATv2 edge logits: out[e] = att^T LeakyReLU(a[a_idx[e]] + b[b_idx[e]] + w[e] v)
    for a (1, d) row v and a (d, 1) column att; a 1-D result of E entries.

    The (E, d) pre-activation exists only inside this call and inside its
    adjoint, which rebuilds it with the same numpy calls, so the tape keeps
    the (E,) logits alone. Values and gradients equal those of the gathered
    sum, leaky_relu, matmul and reshape as separate primitives bit for bit.
    """
    ai = np.asarray(a_idx, dtype=np.intp)
    bi = np.asarray(b_idx, dtype=np.intp)
    wv = np.asarray(w, dtype=np.float64)
    if (v.data.ndim != 2 or v.shape[0] != 1 or a.data.ndim != 2 or b.data.ndim != 2
            or not a.shape[1] == b.shape[1] == v.shape[1] or att.shape != (v.shape[1], 1)):
        raise ShapeError("edge_attention_logits", a.shape, b.shape, v.shape, att.shape)
    if wv.ndim != 1 or not ai.shape == bi.shape == wv.shape:
        raise ShapeError("edge_attention_logits", ai.shape, bi.shape, wv.shape)
    for t, idx in ((a, ai), (b, bi)):
        if idx.size and (idx.min() < 0 or idx.max() >= t.shape[0]):
            raise ShapeError("edge_attention_logits", t.shape,
                             (int(idx.min()), int(idx.max())))
    slope = float(slope)

    def leaky_preactivation():
        """(z, neg): z = LeakyReLU(pre) formed in place of pre, and pre <= 0."""
        z = a.data[ai]
        z += b.data[bi]
        z += wv[:, None] * v.data
        _finite_or_raise("edge_attention_logits", z)
        neg = z <= 0
        np.multiply(z, slope, out=z, where=neg)
        return z, neg

    z, _ = leaky_preactivation()
    logits = z @ att.data
    _finite_or_raise("edge_attention_logits", logits)
    out = Tensor(logits.reshape(len(ai)))

    def _bw(g):
        z, neg = leaky_preactivation()
        g = g.reshape(len(ai), 1)
        if att.requires_grad:
            att._accumulate(z.T @ g)
        del z
        gz = g @ att.data.T
        np.multiply(gz, slope, out=gz, where=neg)
        if a.requires_grad:
            a._accumulate(_scatter_add_rows(ai, gz, a.shape[0]), owned=True)
        if b.requires_grad:
            b._accumulate(_scatter_add_rows(bi, gz, b.shape[0]), owned=True)
        if v.requires_grad:
            v._accumulate((wv @ gz)[None, :], owned=True)

    _record(out, (a, b, v, att), _bw)
    return out


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    slope = float(slope)
    pos = a.data > 0
    out = Tensor(np.where(pos, a.data, slope * a.data))
    _finite_or_raise("leaky_relu", out.data)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * np.where(pos, 1.0, slope))

    _record(out, (a,), _bw)
    return out


def prelu(a: Tensor, slope: Tensor) -> Tensor:
    """PReLU with a single learnable slope shared across all elements."""
    if slope.data.size != 1:
        raise ShapeError("prelu", slope.shape)
    s = float(slope.data.reshape(-1)[0])
    pos = a.data >= 0
    out = Tensor(np.where(pos, a.data, s * a.data))
    _finite_or_raise("prelu", out.data)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * np.where(pos, 1.0, s))
        if slope.requires_grad:
            slope._accumulate(
                np.full_like(slope.data, np.sum(g * np.where(pos, 0.0, a.data)))
            )

    _record(out, (a, slope), _bw)
    return out


def _segment_bounds(segment_ids: np.ndarray):
    if segment_ids.size == 0:
        return np.zeros(0, dtype=np.intp)
    if np.any(np.diff(segment_ids) < 0) or segment_ids.min() < 0:
        raise ShapeError("segment_ids", segment_ids.shape)
    return np.flatnonzero(np.r_[True, np.diff(segment_ids) != 0])


def segment_softmax(logits: Tensor, segment_ids) -> Tensor:
    """Softmax within contiguous runs of sorted segment ids (1-D logits)."""
    seg = np.asarray(segment_ids, dtype=np.intp)
    if logits.data.ndim != 1 or logits.shape[0] != seg.shape[0]:
        raise ShapeError("segment_softmax", logits.shape, seg.shape)
    if seg.size == 0:
        return Tensor(np.zeros(0))
    starts = _segment_bounds(seg)
    # max-shift per segment for stability
    maxes = np.maximum.reduceat(logits.data, starts)
    shifted = logits.data - np.repeat(maxes, np.diff(np.r_[starts, seg.size]))
    e = np.exp(shifted)
    sums = np.add.reduceat(e, starts)
    denom = np.repeat(sums, np.diff(np.r_[starts, seg.size]))
    out = Tensor(e / denom)
    _finite_or_raise("segment_softmax", out.data)
    alpha = out.data

    def _bw(g):
        if logits.requires_grad:
            dot = np.add.reduceat(g * alpha, starts)
            dot_full = np.repeat(dot, np.diff(np.r_[starts, seg.size]))
            logits._accumulate(alpha * (g - dot_full))

    _record(out, (logits,), _bw)
    return out


def segment_weighted_sum(values: Tensor, weights: Tensor, segment_ids, num_segments: int,
                         rows=None) -> Tensor:
    """out[s] = sum over r with segment_ids[r] == s of weights[r] * values[rows[r]],
    with rows[r] = r when rows is None.

    Segments with no rows yield zero rows. segment_ids must be sorted; rows
    are summed in index order so results are reproducible. The gathered
    values[rows] exist only inside this call and its adjoint, which
    scatter-adds into values, so the result and gradients equal those of
    segment_weighted_sum(gather_rows(values, rows), ...) bit for bit.
    """
    seg = np.asarray(segment_ids, dtype=np.intp)
    idx = None if rows is None else np.asarray(rows, dtype=np.intp)
    if values.data.ndim != 2 or weights.data.ndim != 1:
        raise ShapeError("segment_weighted_sum", values.shape, weights.shape)
    gathered_rows = values.shape[:1] if idx is None else idx.shape
    if gathered_rows != seg.shape or weights.shape != seg.shape:
        raise ShapeError("segment_weighted_sum", values.shape, weights.shape, seg.shape)
    if idx is not None and idx.size and (idx.min() < 0 or idx.max() >= values.shape[0]):
        raise ShapeError("segment_weighted_sum", values.shape, (int(idx.min()), int(idx.max())))
    if seg.size and np.any(np.diff(seg) < 0):
        raise ShapeError("segment_ids", seg.shape)
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ShapeError("segment_weighted_sum", seg.shape, (num_segments,))

    weighted = (values.data if idx is None else values.data[idx]) * weights.data[:, None]
    out = Tensor(_scatter_add_rows(seg, weighted, num_segments))
    _finite_or_raise("segment_weighted_sum", out.data)

    def _bw(g):
        g = g[seg]
        if weights.requires_grad:
            weights._accumulate(np.sum(g * (values.data if idx is None else values.data[idx]),
                                       axis=1))
        if values.requires_grad:
            g *= weights.data[:, None]
            values._accumulate(g if idx is None else _scatter_add_rows(idx, g, values.shape[0]),
                               owned=True)

    _record(out, (values, weights), _bw)
    return out


def l2_normalize(a: Tensor) -> Tensor:
    """Normalize each row to unit length; norms below 1e-12 are clamped."""
    if a.data.ndim != 2:
        raise ShapeError("l2_normalize", a.shape)
    norms = np.sqrt(np.sum(a.data * a.data, axis=1))
    clamped = np.maximum(norms, _EPS_NORM)
    out = Tensor(a.data / clamped[:, None])
    _finite_or_raise("l2_normalize", out.data)
    live = norms > _EPS_NORM

    def _bw(g):
        if a.requires_grad:
            dot = np.sum(g * a.data, axis=1)
            grad = g / clamped[:, None]
            grad -= np.where(live, dot / clamped**3, 0.0)[:, None] * a.data
            a._accumulate(grad)

    _record(out, (a,), _bw)
    return out


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Per-row cosine similarity of two equal-shape 2-D tensors -> 1-D."""
    if a.data.ndim != 2 or a.shape != b.shape:
        raise ShapeError("cosine_rows", a.shape, b.shape)
    na = np.maximum(np.sqrt(np.sum(a.data**2, axis=1)), _EPS_NORM)
    nb = np.maximum(np.sqrt(np.sum(b.data**2, axis=1)), _EPS_NORM)
    dots = np.sum(a.data * b.data, axis=1)
    out = Tensor(dots / (na * nb))
    _finite_or_raise("cosine_rows", out.data)
    live_a = np.sqrt(np.sum(a.data**2, axis=1)) > _EPS_NORM
    live_b = np.sqrt(np.sum(b.data**2, axis=1)) > _EPS_NORM

    def _bw(g):
        if a.requires_grad:
            ga = b.data / (na * nb)[:, None]
            ga -= np.where(live_a, dots / (na**3 * nb), 0.0)[:, None] * a.data
            a._accumulate(g[:, None] * ga)
        if b.requires_grad:
            gb = a.data / (na * nb)[:, None]
            gb -= np.where(live_b, dots / (na * nb**3), 0.0)[:, None] * b.data
            b._accumulate(g[:, None] * gb)

    _record(out, (a, b), _bw)
    return out


def mean(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.mean()))
    _finite_or_raise("mean", out.data)
    n = a.data.size

    def _bw(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(g) / n))

    _record(out, (a,), _bw)
    return out


def cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean softmax cross-entropy of (B, m) logits against B target indices."""
    tgt = np.atleast_1d(np.asarray(targets, dtype=np.intp))
    if logits.data.ndim != 2 or tgt.ndim != 1 or tgt.shape[0] != logits.shape[0]:
        raise ShapeError("cross_entropy_with_logits", logits.shape, tgt.shape)
    if tgt.size and (tgt.min() < 0 or tgt.max() >= logits.shape[1]):
        raise ShapeError("cross_entropy_with_logits", logits.shape, (int(tgt.max()),))
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    lse = np.log(np.sum(ez, axis=1)) + zmax[:, 0]
    ce = lse - z[np.arange(z.shape[0]), tgt]
    out = Tensor(np.asarray(ce.mean()))
    _finite_or_raise("cross_entropy_with_logits", out.data)
    batch = z.shape[0]

    def _bw(g):
        if logits.requires_grad:
            # a new array: ez must survive for a repeated backward on this tape
            p = ez / ez.sum(axis=1, keepdims=True)
            p[np.arange(batch), tgt] -= 1.0
            p *= float(g) / batch
            logits._accumulate(p, owned=True)

    _record(out, (logits,), _bw)
    return out


def tied_softmax_xent(h: Tensor, table: Tensor, targets) -> Tensor:
    """Mean softmax cross-entropy of the (B, m) logits h @ table^T against B
    target indices, without keeping the logits.

    The logits are formed once. When the op will be recorded, the forward
    turns their exp'd block into the softmax gradient in place and forms
    both input gradients from it, so at most one (B, m) array is live at a
    time, the tape keeps one (B, d) and one (m, d) array, and the adjoint
    only scales them by the upstream gradient. Without a tape no gradient is
    formed. Under the unit upstream gradient that backward gives a loss,
    loss and gradients equal those of
    cross_entropy_with_logits(matmul(h, transpose(table)), targets) bit for bit.
    """
    tgt = np.atleast_1d(np.asarray(targets, dtype=np.intp))
    if h.data.ndim != 2 or table.data.ndim != 2 or h.shape[1] != table.shape[1]:
        raise ShapeError("tied_softmax_xent", h.shape, table.shape)
    if tgt.ndim != 1 or tgt.shape[0] != h.shape[0]:
        raise ShapeError("tied_softmax_xent", h.shape, tgt.shape)
    if tgt.size and (tgt.min() < 0 or tgt.max() >= table.shape[0]):
        raise ShapeError("tied_softmax_xent", table.shape, (int(tgt.max()),))
    batch = h.shape[0]
    # the C-ordered copy of table^T that transpose(table) makes, so the
    # gemms are those of matmul
    table_t = table.data.T.copy()
    z = h.data @ table_t
    _finite_or_raise("tied_softmax_xent", z)
    target_logits = z[np.arange(batch), tgt]
    zmax = z.max(axis=1, keepdims=True)
    z -= zmax
    np.exp(z, out=z)
    sums = np.sum(z, axis=1)
    ce = np.log(sums) + zmax[:, 0] - target_logits
    out = Tensor(np.asarray(ce.mean()))
    _finite_or_raise("tied_softmax_xent", out.data)
    if _recording((h, table)) is None:
        return out

    # z becomes the softmax gradient in place
    z /= sums[:, None]
    z[np.arange(batch), tgt] -= 1.0
    z *= 1.0 / batch
    gh = z @ table_t.T if h.requires_grad else None
    gt = (h.data.T @ z).T if table.requires_grad else None

    def _bw(g):
        if gh is not None:
            h._accumulate(gh * float(g), owned=True)
        if gt is not None:
            table._accumulate(gt * float(g))

    _record(out, (h, table), _bw)
    return out
