"""Bootstrapped two-view training of the graph encoder.

Two stochastic views of the co-occurrence graph (column-shared feature
masking + symmetric edge dropping) feed an online encoder and an EMA target
encoder. A predictor maps online embeddings toward the target's view of the
other augmentation; the loss is the summed cosine mismatch of both
directions. No negative samples anywhere. Final embeddings come from the
online encoder over the unaugmented graph.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .cograph import CoGraph, sample_neighbors
from .config import DEFAULTS
from .encoder import PRELU_INIT, SkipEncoder, _glorot
from .errors import DataError, NumericError
from .sessiondata import ItemCatalog

_EMBED = DEFAULTS["embed"]


@dataclass(frozen=True)
class ViewConfig:
    feature_mask_prob: float = _EMBED["view1"]["feature_mask_prob"]
    edge_drop_prob: float = _EMBED["view1"]["edge_drop_prob"]

    def __post_init__(self):
        for name in ("feature_mask_prob", "edge_drop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")


@dataclass(frozen=True)
class AugmentationConfig:
    view1: ViewConfig = ViewConfig(**_EMBED["view1"])
    view2: ViewConfig = ViewConfig(**_EMBED["view2"])


def augment(graph: CoGraph, view: ViewConfig, rng: np.random.Generator) -> CoGraph:
    """One stochastic view: zero dropped feature columns (mask shared across
    all nodes) and remove undirected edges i.i.d., keeping symmetry and
    surviving weights unchanged."""
    X = graph.X
    if X is not None:
        keep = rng.uniform(size=X.shape[1]) >= view.feature_mask_prob
        X = X * keep[None, :]
    edges = np.column_stack(graph.upper())
    if view.edge_drop_prob > 0 and len(edges):
        edges = edges[rng.uniform(size=len(edges)) >= view.edge_drop_prob]
    return CoGraph.from_edges(graph.n, edges, c_max=graph.c_max, X=X)


class Predictor:
    """One-hidden-layer perceptron d -> d with PReLU, hidden width d."""

    def __init__(self, d: int, rng: np.random.Generator):
        self.W1 = dc.Tensor(_glorot(rng, d, d), requires_grad=True)
        self.b1 = dc.Tensor(np.zeros((1, d)), requires_grad=True)
        self.prelu = dc.Tensor(np.array([PRELU_INIT]), requires_grad=True)
        self.W2 = dc.Tensor(_glorot(rng, d, d), requires_grad=True)
        self.b2 = dc.Tensor(np.zeros((1, d)), requires_grad=True)

    def parameters(self) -> list[tuple[str, dc.Tensor]]:
        return [("predictor.W1", self.W1), ("predictor.b1", self.b1),
                ("predictor.prelu", self.prelu), ("predictor.W2", self.W2),
                ("predictor.b2", self.b2)]

    def forward(self, z: dc.Tensor) -> dc.Tensor:
        h = dc.prelu(dc.add(dc.matmul(z, self.W1), self.b1), self.prelu)
        return dc.add(dc.matmul(h, self.W2), self.b2)


@dataclass
class BgrlState:
    online: SkipEncoder
    target: SkipEncoder
    predictor: Predictor
    ema_decay: float = _EMBED["ema_decay"]
    optimizer: dc.OptimizerState | None = None

    @classmethod
    def create(cls, d_feat: int, d_hidden: int, d_out: int,
               ema_decay: float = _EMBED["ema_decay"], lr: float = _EMBED["lr"],
               weight_decay: float = _EMBED["weight_decay"],
               rng: np.random.Generator | None = None) -> "BgrlState":
        rng = rng or np.random.default_rng(0)
        online = SkipEncoder(d_feat, d_hidden, d_out, rng=rng)
        target = online.clone()
        predictor = Predictor(d_out, rng)
        state = cls(online, target, predictor, ema_decay)
        params = [t for _, t in state.trained_parameters()]
        state.optimizer = dc.OptimizerState(params, lr=lr, weight_decay=weight_decay)
        return state

    def trained_parameters(self) -> list[tuple[str, dc.Tensor]]:
        return self.online.parameters() + self.predictor.parameters()


def _encode_view(encoder: SkipEncoder, view: CoGraph, seeds: np.ndarray,
                 fanouts: tuple[int, int] | None, rng: np.random.Generator) -> dc.Tensor:
    return encoder.encode_sampled(view.X, sample_neighbors(view, seeds, fanouts, rng))


def bgrl_loss(state: BgrlState, view1: CoGraph, view2: CoGraph, seeds,
              fanouts: tuple[int, int] | None = None,
              rng: np.random.Generator | None = None) -> dc.Tensor:
    """Symmetric bootstrap objective over the seed nodes.

    loss = mean_i [2 - cos(pred(online(v1))_i, target(v2)_i)
                     - cos(pred(online(v2))_i, target(v1)_i)]
    The target branch runs outside the tape, so no gradient ever reaches it.
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    rng = rng or np.random.default_rng(0)
    z1 = _encode_view(state.online, view1, seeds, fanouts, rng)
    z2 = _encode_view(state.online, view2, seeds, fanouts, rng)

    with dc.pause_recording():
        t1 = _encode_view(state.target, view1, seeds, fanouts, rng)
        t2 = _encode_view(state.target, view2, seeds, fanouts, rng)

    p1 = state.predictor.forward(z1)
    p2 = state.predictor.forward(z2)
    cos1 = dc.mean(dc.cosine_rows(p1, t2))
    cos2 = dc.mean(dc.cosine_rows(p2, t1))
    two = dc.Tensor(np.asarray(2.0))
    return dc.add(two, dc.add(dc.scale(cos1, -1.0), dc.scale(cos2, -1.0)))


def ema_update(target: SkipEncoder, online: SkipEncoder,
               decay: float = _EMBED["ema_decay"]):
    """p_target <- decay * p_target + (1 - decay) * p_online, parameter-wise."""
    online_params = dict(online.parameters())
    for name, p in target.parameters():
        p.data = decay * p.data + (1.0 - decay) * online_params[name].data


@dataclass
class TrainConfig:
    epochs: int = _EMBED["epochs"]
    batch_size: int = _EMBED["batch_size"]
    fanouts: tuple[int, int] | None = tuple(_EMBED["fanouts"])
    lr: float = _EMBED["lr"]
    weight_decay: float = _EMBED["weight_decay"]
    ema_decay: float = _EMBED["ema_decay"]
    d_hidden: int = _EMBED["hidden_dim"]
    d_out: int = _EMBED["dim"]
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    seed: int = 0


@dataclass
class TrainResult:
    embeddings: np.ndarray
    encoder: SkipEncoder
    epoch_losses: list[float]


def train_embeddings(graph: CoGraph, config: TrainConfig) -> TrainResult:
    """Full bootstrap training loop; deterministic for a given seed."""
    if graph.X is None:
        raise ValueError("graph has no node feature matrix")
    rng = np.random.default_rng(config.seed)
    state = BgrlState.create(graph.X.shape[1], config.d_hidden, config.d_out,
                             ema_decay=config.ema_decay,
                             lr=config.lr, weight_decay=config.weight_decay, rng=rng)
    params = [t for _, t in state.trained_parameters()]
    epoch_losses: list[float] = []
    loss_history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(graph.n)
        batch_losses = []
        for lo in range(0, graph.n, config.batch_size):
            seeds = np.sort(order[lo:lo + config.batch_size])
            v1 = augment(graph, config.augmentation.view1, rng)
            v2 = augment(graph, config.augmentation.view2, rng)
            try:
                with dc.Tape() as tape:
                    loss = bgrl_loss(state, v1, v2, seeds, config.fanouts, rng)
                value = float(loss.data)
                dc.zero_grads(params)
                dc.backward(tape, loss)
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {lo // config.batch_size}; "
                    f"recent losses: {loss_history[-5:]}"
                ) from exc
            # the tape holds every activation of the batch; free it before the
            # optimizer step rather than when the next batch rebinds it
            del tape, loss
            dc.adamw_step(state.optimizer, params)
            ema_update(state.target, state.online, state.ema_decay)
            batch_losses.append(value)
            loss_history.append(value)
        epoch_losses.append(float(np.mean(batch_losses)))
    embeddings = state.online.encode_full(graph.X, graph).data.copy()
    # the objective is cosine-based, so row scale carries no information;
    # unit rows keep dot-product consumers scale-sane
    embeddings /= np.maximum(np.linalg.norm(embeddings, axis=1, keepdims=True), 1e-12)
    if not np.all(np.isfinite(embeddings)):
        raise NumericError("trained embeddings contain non-finite values")
    norms = np.linalg.norm(embeddings, axis=1)
    if norms.max(initial=0.0) > 1e6:
        raise NumericError(f"embedding norm explosion: max row norm {norms.max()}")
    return TrainResult(embeddings, state.online, epoch_losses)


# ---------------------------------------------------------------------------
# embedding export: embeddings.txt is written only, embeddings.bin is read back
# ---------------------------------------------------------------------------

_EMB_MAGIC = b"EMB1"


def save_embeddings_text(path, embeddings: np.ndarray, catalog: ItemCatalog):
    m, d = embeddings.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {d}\n")
        for i in range(m):
            row = " ".join(repr(float(v)) for v in embeddings[i])
            fh.write(f"{catalog.external_ids[i]} {row}\n")


def save_embeddings_binary(path, embeddings: np.ndarray, catalog: ItemCatalog):
    """Layout: magic 'EMB1', u64 m, u64 d, then per row u16 id-length,
    UTF-8 id bytes, d little-endian float64 values."""
    m, d = embeddings.shape
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<QQ", m, d))
        for i in range(m):
            ident = catalog.external_ids[i].encode("utf-8")
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(np.ascontiguousarray(embeddings[i], dtype="<f8").tobytes())


def load_embeddings_binary(path) -> tuple[np.ndarray, list[str]]:
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:4] != _EMB_MAGIC:
        raise DataError(f"{path}: not an embedding file")
    m, d = struct.unpack_from("<QQ", data, 4)
    if m * (2 + 8 * d) > len(data) - 20:   # each row: u16 id length, d values
        raise DataError(f"{path}: header says {m} x {d}, file has {len(data)} bytes")
    offset = 20
    out = np.zeros((m, d))
    ids = []
    try:
        for i in range(m):
            (ln,) = struct.unpack_from("<H", data, offset)
            offset += 2
            ids.append(data[offset:offset + ln].decode("utf-8"))
            offset += ln
            out[i] = np.frombuffer(data, dtype="<f8", count=d, offset=offset)
            offset += 8 * d
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: truncated or corrupt at row {len(ids)}: {exc}") from None
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes after {m} rows")
    if not np.all(np.isfinite(out)):    # train-embed never writes one
        raise DataError(f"{path}: non-finite embedding value")
    return out, ids
