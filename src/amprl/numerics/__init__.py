"""Dense float64 tensors, reverse-mode autodiff with a `no_grad` switch for
inference, Adam, the early-stopping training loop, and checkpoint I/O."""
from .tensor import (
    Tensor,
    causal_attention,
    clamp,
    embedding,
    exp,
    gather_last,
    gelu,
    layer_norm,
    log,
    log_softmax,
    matmul,
    minimum,
    no_grad,
    relu,
    sigmoid,
    softmax,
)
from .optim import Adam, check_schedule, train_epochs
from .checkpoint import check_tensors, load_checkpoint, save_checkpoint

__all__ = [
    "Tensor",
    "matmul",
    "softmax",
    "log_softmax",
    "layer_norm",
    "causal_attention",
    "embedding",
    "gather_last",
    "clamp",
    "minimum",
    "no_grad",
    "relu",
    "gelu",
    "sigmoid",
    "log",
    "exp",
    "Adam",
    "check_schedule",
    "train_epochs",
    "save_checkpoint",
    "load_checkpoint",
    "check_tensors",
]
