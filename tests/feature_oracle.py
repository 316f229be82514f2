"""Per-peptide builtin features as `amprl.mic.Embedder` computed them before
it featurized whole lists with `np.bincount`, kept as a test oracle.

`test_mic.py` checks `Embedder.features` against it cell for cell.
"""
import numpy as np

from amprl.physchem import DEFAULT_SCALE
from amprl.sequences import RESIDUES

from descriptor_oracle import descriptor_vector

_PAIR_INDEX = {a + b: 20 * i + j for i, a in enumerate(RESIDUES) for j, b in enumerate(RESIDUES)}


def raw_features(p, scale=DEFAULT_SCALE):
    props = descriptor_vector(p, scale)
    head = np.array(
        [
            float(props.length),
            props.hydrophobicity,
            props.hydrophobic_moment,
            props.net_charge,
            props.isoelectric_point,
        ]
    )
    freq = np.zeros(20)
    for r in p.residues:
        freq[RESIDUES.index(r)] += 1.0
    freq /= len(p.residues)
    dipep = np.zeros(400)
    if len(p.residues) > 1:
        for i in range(len(p.residues) - 1):
            dipep[_PAIR_INDEX[p.residues[i : i + 2]]] += 1.0
        dipep /= len(p.residues) - 1
    return np.concatenate([head, freq, dipep])
