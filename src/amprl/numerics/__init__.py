"""Dense float64 tensors, reverse-mode autodiff with a `no_grad` switch for
inference, Adam, the early-stopping training loop, and checkpoint I/O.

Importing the package sets glibc's allocator policy for this process once.
Each training step builds and frees a graph of tens of MB; by default glibc
serves blocks that large with mmap and unmaps them on free, and trims the
heap top, so every step would fault the same memory in again. With the
mmap threshold at its 64-bit maximum (32 MiB) and the trim threshold at
1 GiB, freed graph memory stays in the heap for the next step. The policy
acts on this process only; on any other C library it is a no-op.
"""
import ctypes
import platform

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


def _keep_freed_pages() -> tuple[int, ...]:
    """`mallopt`'s return values (1 on success), or () off glibc."""
    if platform.libc_ver()[0] != "glibc":
        return ()
    mallopt = ctypes.CDLL(None).mallopt
    return mallopt(-3, 32 << 20), mallopt(-1, 1 << 30)  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


_MALLOPT_RESULTS = _keep_freed_pages()

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
