"""Traced memory of one SFT step at the benchmark's `MODEL`.

`sft_step_memory` runs one forward and backward of the next-token loss over
32 random peptides of 10-40 residues under tracemalloc, which numpy reports
its array buffers to. It returns the MB (10^6 bytes) the forward leaves alive
while the loss is held, and the peak MB through the end of backward, both
over the bytes traced before the forward. `test_policy.py` bounds the first.
Run as a script it prints both:

    PYTHONPATH=src python tests/graph_memory.py
"""
from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

import numpy as np

from amprl.policy import ModelConfig, PolicyModel, encode_batch, sft_loss
from amprl.sequences import Peptide

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
RESIDUES = "ACDEFGHIKLMNPQRSTVWY"


def benchmark_model() -> dict:
    """The `MODEL` dict of benchmarks/workloads.py, read from its source."""
    for line in WORKLOADS.read_text(encoding="utf-8").splitlines():
        if line.startswith("MODEL = "):
            return ast.literal_eval(line.partition("=")[2].strip())
    raise LookupError(f"no MODEL line in {WORKLOADS}")


def sft_step_memory(n: int = 32, seed: int = 7) -> tuple[float, float]:
    """(MB alive after the forward, peak MB through backward) of one SFT step."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(10, 41, size=n)
    peptides = [Peptide(f"p{i}", "".join(rng.choice(list(RESIDUES), size=int(k))), "natural") for i, k in enumerate(lengths)]
    model = PolicyModel.init(ModelConfig(**benchmark_model()), seed=seed)
    ids = encode_batch(peptides)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = sft_loss(model, ids).mean
        live = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return live / 1e6, peak / 1e6


if __name__ == "__main__":
    live, peak = sft_step_memory()
    print(f"one SFT step at the benchmark MODEL, 32 peptides: {live:.1f} MB alive after the forward, {peak:.1f} MB peak through backward")
