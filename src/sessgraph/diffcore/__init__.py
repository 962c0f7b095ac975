from .tensor import (
    Tape,
    Tensor,
    active_tape,
    pause_recording,
    add,
    backward,
    cosine_rows,
    cross_entropy_with_logits,
    edge_attention_logits,
    gather_rows,
    l2_normalize,
    leaky_relu,
    matmul,
    mean,
    mul,
    prelu,
    reshape,
    row_concat,
    scale,
    segment_softmax,
    segment_weighted_sum,
    tied_softmax_xent,
    transpose,
    zero_grads,
)
from .optim import OptimizerState, adam_step, adamw_step
from .checkpoint import load_tensors, save_tensors

__all__ = [
    "Tape", "Tensor", "active_tape", "pause_recording", "backward", "zero_grads",
    "matmul", "add", "scale", "mul", "transpose", "reshape", "row_concat",
    "gather_rows", "edge_attention_logits", "leaky_relu", "prelu", "segment_softmax",
    "segment_weighted_sum", "l2_normalize", "cosine_rows", "mean",
    "cross_entropy_with_logits", "tied_softmax_xent",
    "OptimizerState", "adam_step", "adamw_step",
    "save_tensors", "load_tensors",
]
