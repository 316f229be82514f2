"""Per-residue encoders that `amprl.sequences.encode` replaced, kept as test oracles.

`encode_batch` filled `amprl.policy`'s token rows one residue at a time from
its own residue map, and `aa_frequency` counted `amprl.evalmetrics`' residue
frequencies the same way. `test_policy.py` and `test_evalmetrics.py` check
the current functions against them for exact equality.
"""
import numpy as np

from amprl.policy import BOS, EOS, PAD
from amprl.sequences import RESIDUES

_RES_TO_ID = {r: i for i, r in enumerate(RESIDUES)}


def encode_batch(peptides):
    width = max(len(p.residues) for p in peptides) + 2
    ids = np.full((len(peptides), width), PAD, dtype=np.int64)
    for i, p in enumerate(peptides):
        ids[i, 0] = BOS
        for j, r in enumerate(p.residues, start=1):
            ids[i, j] = _RES_TO_ID[r]
        ids[i, len(p.residues) + 1] = EOS
    return ids


def aa_frequency(peptides):
    counts = np.zeros(len(RESIDUES), dtype=np.float64)
    for pep in peptides:
        for ch in pep.residues:
            counts[_RES_TO_ID[ch]] += 1.0
    return counts / counts.sum()
