"""Neural next-item model with a swappable embedding-table initialization.

The model is deliberately minimal: a session prefix is mean-pooled over its
item embedding rows, items are scored against the same (tied) table, and
training minimizes full-catalog softmax cross-entropy with Adam. Training,
validation and ranking read prefix samples as `sessiondata.FlatPrefixes`,
the CSR form `corpus_prefixes` builds from a corpus's columns. The loss
is `diffcore.tied_softmax_xent`, which forms the (B, m) logits once and,
while they are live, turns them into the gradients of the pooled prefixes
and of the table, so the tape keeps those two gradients and no logits.
Training and ranking share one pooling, `NextItemModel.pooled`, and ranking
scores a prefix set in blocks of at most one training batch, one block at a
time, so it never holds more scores than a training step forms at once.
The point under test is the initialization contract: the table starts
either from a scaled-uniform draw or as an exact copy of graph-pretrained
embeddings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .config import DEFAULTS
from .errors import NumericError, ShapeError
from .evalkit import rank_metrics
from .sessiondata import FlatPrefixes

SCALED_UNIFORM = "scaled-uniform"
PRETRAINED = "pretrained"
VAL_K = 10      # the cutoff of the per-epoch validation HR/MRR


def init_table(mode: str, m: int, d: int, rng: np.random.Generator | None = None,
               source: np.ndarray | None = None) -> dc.Tensor:
    """Build the m x d embedding table.

    scaled-uniform draws i.i.d. from +-sqrt(6 / (m + d)); pretrained copies
    the source matrix exactly (and requires matching shape).
    """
    if mode == SCALED_UNIFORM:
        if rng is None:
            raise ValueError("scaled-uniform init needs a generator")
        bound = np.sqrt(6.0 / (m + d))
        return dc.Tensor(rng.uniform(-bound, bound, size=(m, d)), requires_grad=True)
    if mode == PRETRAINED:
        if source is None:
            raise ValueError("pretrained init needs a source matrix")
        source = np.asarray(source, dtype=np.float64)
        if source.shape != (m, d):
            raise ShapeError("init_table", source.shape, (m, d))
        return dc.Tensor(source.copy(), requires_grad=True)
    raise ValueError(f"unknown init mode {mode!r}")


class NextItemModel:
    """Mean-pooled session representation with tied input/output embeddings."""

    def __init__(self, table: dc.Tensor):
        self.table = table
        self.m, self.d = table.shape

    def pooled(self, batch: FlatPrefixes) -> dc.Tensor:
        """The mean of each sample's prefix rows, one row per sample."""
        lengths = np.diff(batch.indptr)
        seg = np.repeat(np.arange(len(batch)), lengths)
        inv_len = np.repeat(1.0 / lengths, lengths)
        return dc.segment_weighted_sum(self.table, dc.Tensor(inv_len), seg, len(batch),
                                       rows=batch.items)

    def batch_loss(self, batch: FlatPrefixes) -> dc.Tensor:
        return dc.tied_softmax_xent(self.pooled(batch), self.table, batch.targets)

    def ranks(self, batch: FlatPrefixes, rows: int) -> np.ndarray:
        """1-based rank of each target under descending score, ties by
        ascending index, scoring `rows` samples at a time."""
        ranks = np.empty(len(batch), dtype=np.int64)
        with dc.pause_recording():
            for lo in range(0, len(batch), rows):
                block = batch.take(np.arange(lo, min(lo + rows, len(batch))))
                ranks[lo:lo + len(block)] = self._block_ranks(block)
        return ranks

    def _block_ranks(self, block: FlatPrefixes) -> np.ndarray:
        """ranks() of one block. Its (rows, m) scores are freed before the
        tie mask is formed, and its masks when it returns, so one block's
        arrays are live at a time."""
        s = self.pooled(block).data @ self.table.data.T
        t = block.targets[:, None]
        st = np.take_along_axis(s, t, axis=1)
        hit = s > st
        above = np.count_nonzero(hit, axis=1)
        np.equal(s, st, out=hit)
        del s
        hit &= np.arange(self.m) < t
        return 1 + above + np.count_nonzero(hit, axis=1)


def evaluate_ranks(model: NextItemModel, batch: FlatPrefixes, rows: int):
    """(HR@VAL_K, MRR@VAL_K, ranks) over a prefix set; the metrics are
    (0.0, 0.0) for an empty one."""
    ranks = model.ranks(batch, rows)
    if not len(batch):
        return 0.0, 0.0, ranks
    metrics = rank_metrics(ranks, (VAL_K,))
    return float(metrics[f"HR@{VAL_K}"].mean()), float(metrics[f"MRR@{VAL_K}"].mean()), ranks


@dataclass
class NextTrainConfig:
    epochs: int = DEFAULTS["nextitem"]["epochs"]
    lr: float = DEFAULTS["nextitem"]["lr"]
    batch_size: int = DEFAULTS["nextitem"]["batch_size"]
    seed: int = 0


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_hr: float
    val_mrr: float
    wall_seconds: float

    def as_line(self) -> str:
        return (f"{self.epoch}\t{self.train_loss:.6f}\t{self.val_hr:.6f}"
                f"\t{self.val_mrr:.6f}\t{self.wall_seconds:.3f}")


@dataclass
class NextTrainResult:
    model: NextItemModel
    records: list[EpochRecord]
    val_ranks: np.ndarray | None    # the last epoch's validation ranks; None after 0 epochs

    @property
    def hr_curve(self) -> list[float]:
        return [r.val_hr for r in self.records]


def train_next(model: NextItemModel, train: FlatPrefixes, val: FlatPrefixes,
               config: NextTrainConfig) -> NextTrainResult:
    """Minibatch Adam on cross-entropy; records validation HR/MRR per epoch."""
    rng = np.random.default_rng(config.seed)
    opt = dc.OptimizerState([model.table], lr=config.lr)
    records, val_ranks = [], None
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train))
        losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = train.take(order[lo:lo + config.batch_size])
            try:
                with dc.Tape() as tape:
                    loss = model.batch_loss(batch)
                model.table.zero_grad()
                dc.backward(tape, loss)
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {lo // config.batch_size}: {exc}"
                ) from exc
            del tape    # free the batch's activations before the next batch builds its own
            dc.adam_step(opt, [model.table])
            losses.append(float(loss.data))
        hr, mrr, val_ranks = evaluate_ranks(model, val, config.batch_size)
        records.append(EpochRecord(epoch, float(np.mean(losses)) if losses else 0.0,
                                   hr, mrr, time.perf_counter() - t0))
    return NextTrainResult(model, records, val_ranks)


def epochs_to_threshold(curve, threshold: float) -> int | None:
    """First 1-based epoch whose metric reaches the threshold, else None."""
    for i, v in enumerate(curve, start=1):
        if v >= threshold:
            return i
    return None
