"""Attention-based graph convolution and the two-layer skip encoder.

Each layer is a single-head GATv2 convolution whose attention width equals
its output width d_out. Per directed edge (i <- j) the attention logit is
a^T LeakyReLU(W_att [h_i || h_j || e_ij]) with W_att of shape
(d_out, 2 d_in + 1) and slope LEAKY_SLOPE. W_att is stored as that one
tensor, but its column blocks W_l, W_r and w_e are applied apart, as
W_l h_i + W_r h_j + e_ij w_e: each node row is projected once, by W_l as a
destination and by W_r as a source, and `diffcore.edge_attention_logits`
adds the two projections and the weight term per edge and applies the
LeakyReLU and a. Coefficients are softmax-normalized over each node's
neighborhood and weight the transformed neighbor values W_val h_j, which
`diffcore.segment_weighted_sum` gathers per edge itself. Both primitives
rebuild their (E, d_out) per-edge arrays in the backward pass, so the tape
keeps only per-edge vectors and per-node rows. A node with no neighbors
gets a zero pre-activation. Each encoder layer receives
its input plus a learned projection of the raw node features (skip
connection) and applies a learnable PReLU.

`encode_sampled` is the one two-layer forward, over a two-hop
`NeighborSample` of seed nodes; `encode_full` runs it on every node with
every neighbor (`fanouts=None`). Edges arrive in (dst, src) order, so each
node sums its neighbors in ascending index order whatever the seeds.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .cograph import CoGraph, NeighborSample, sample_neighbors
from .config import DEFAULTS
from .errors import ShapeError

LEAKY_SLOPE = 0.2
PRELU_INIT = 0.25


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class Gatv2Layer:
    """One single-head attention convolution d_in -> d_out."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.d_out = d_out
        self.W_att = dc.Tensor(_glorot(rng, d_out, 2 * d_in + 1), requires_grad=True)
        self.a = dc.Tensor(_glorot(rng, d_out, 1), requires_grad=True)
        self.W_val = dc.Tensor(_glorot(rng, d_out, d_in), requires_grad=True)
        self.prelu = dc.Tensor(np.array([PRELU_INIT]), requires_grad=True)

    def parameters(self) -> list[tuple[str, dc.Tensor]]:
        return [("W_val", self.W_val), ("W_att", self.W_att), ("a", self.a),
                ("prelu", self.prelu)]

    def coefficients(self, h_dst: dc.Tensor, h_src: dc.Tensor, edges) -> dc.Tensor:
        """Softmax-normalized attention coefficients; edges sorted by (dst, src)."""
        dst_idx, src_idx, w = edges
        d_in = h_src.shape[1]
        blocks = dc.transpose(self.W_att)           # rows: W_l^T, W_r^T, w_e^T
        logits = dc.edge_attention_logits(
            dc.matmul(h_dst, dc.gather_rows(blocks, np.arange(d_in))),
            dc.matmul(h_src, dc.gather_rows(blocks, np.arange(d_in, 2 * d_in))),
            dst_idx, src_idx, w, dc.gather_rows(blocks, [2 * d_in]), self.a, LEAKY_SLOPE)
        return dc.segment_softmax(logits, dst_idx)

    def forward(self, h_dst: dc.Tensor, h_src: dc.Tensor, edges, n_dst: int) -> dc.Tensor:
        """Aggregate src values into dst rows; empty neighborhoods give
        PReLU(0) rows. dst indices in edges must be local to [0, n_dst)."""
        alpha = self.coefficients(h_dst, h_src, edges)
        dst_idx, src_idx, _ = edges
        values = dc.matmul(h_src, dc.transpose(self.W_val))
        agg = dc.segment_weighted_sum(values, alpha, dst_idx, n_dst, rows=src_idx)
        return dc.prelu(agg, self.prelu)


class SkipEncoder:
    """Two attention layers; each layer's input gains X @ W_skip^T."""

    def __init__(self, d_feat: int, d_hidden: int = DEFAULTS["embed"]["hidden_dim"],
                 d_out: int = DEFAULTS["embed"]["dim"], rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.d_feat = d_feat
        self.layers = [
            Gatv2Layer(d_feat, d_hidden, rng),
            Gatv2Layer(d_hidden, d_out, rng),
        ]
        self.W_skip = [
            dc.Tensor(_glorot(rng, d_feat, d_feat), requires_grad=True),
            dc.Tensor(_glorot(rng, d_hidden, d_feat), requires_grad=True),
        ]

    def parameters(self) -> list[tuple[str, dc.Tensor]]:
        out = []
        for k, layer in enumerate(self.layers, start=1):
            out.extend((f"layer{k}.{name}", t) for name, t in layer.parameters())
            out.append((f"skip{k}.W", self.W_skip[k - 1]))
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        for name, t in self.parameters():
            if name not in state:
                raise ShapeError("load_state_dict", (name,))
            if state[name].shape != t.data.shape:
                raise ShapeError("load_state_dict", state[name].shape, t.data.shape)
            t.data = state[name].astype(np.float64).copy()

    def clone(self) -> "SkipEncoder":
        twin = SkipEncoder(self.d_feat, self.layers[0].d_out, self.layers[1].d_out)
        twin.load_state_dict(self.state_dict())
        return twin

    def _layer_input(self, k: int, h_prev: dc.Tensor, x: dc.Tensor) -> dc.Tensor:
        return dc.add(h_prev, dc.matmul(x, dc.transpose(self.W_skip[k])))

    def encode_full(self, X: np.ndarray, graph: CoGraph) -> dc.Tensor:
        """All-node embeddings over the full (unsampled) graph."""
        if X.shape[0] != graph.n or X.shape[1] != self.d_feat:
            raise ShapeError("encode", X.shape, (graph.n, self.d_feat))
        return self.encode_sampled(X, sample_neighbors(graph, np.arange(graph.n), None))

    def encode_sampled(self, X: np.ndarray, sample: NeighborSample) -> dc.Tensor:
        """Seed-node embeddings via the sampled 2-hop closure.

        Rows are ordered by ascending seed id (NeighborSample.seeds order).
        """
        if X.shape[1] != self.d_feat:
            raise ShapeError("encode", X.shape, (self.d_feat,))
        layer1_nodes = sample.layer1_nodes           # nodes needing H1
        input_nodes = sample.input_nodes             # nodes needing raw features
        # relabel global ids to rows of these sorted node arrays
        x_in = dc.Tensor(X[input_nodes])
        h_in = self._layer_input(0, x_in, x_in)
        h1_edges = (
            np.searchsorted(layer1_nodes, sample.hop2_dst),
            np.searchsorted(input_nodes, sample.hop2_src),
            sample.hop2_w,
        )
        h_dst_l1 = dc.gather_rows(h_in, np.searchsorted(input_nodes, layer1_nodes))
        h1 = self.layers[0].forward(h_dst_l1, h_in, h1_edges, len(layer1_nodes))

        x_l1 = dc.Tensor(X[layer1_nodes])
        h2_in = self._layer_input(1, h1, x_l1)
        h2_edges = (
            np.searchsorted(sample.seeds, sample.hop1_dst),
            np.searchsorted(layer1_nodes, sample.hop1_src),
            sample.hop1_w,
        )
        h_dst_l2 = dc.gather_rows(h2_in, np.searchsorted(layer1_nodes, sample.seeds))
        return self.layers[1].forward(h_dst_l2, h2_in, h2_edges, len(sample.seeds))

