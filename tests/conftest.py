"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from amprl.sequences import Peptide

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"


def random_peptides(n, rng, min_len=8, max_len=30, prefix="pep", source="natural"):
    """Uniform random sequences with unique ids and lengths in [min_len, max_len]."""
    out = []
    for i in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        residues = "".join(rng.choice(list(RESIDUES), size=length))
        out.append(Peptide(id=f"{prefix}{i}", residues=residues, source=source))
    return out


def unique_random_peptides(n, rng, min_len=8, max_len=30, prefix="pep", source="natural"):
    """Like random_peptides but with no repeated residue strings."""
    seen = set()
    out = []
    i = 0
    while len(out) < n:
        length = int(rng.integers(min_len, max_len + 1))
        residues = "".join(rng.choice(list(RESIDUES), size=length))
        if residues in seen:
            continue
        seen.add(residues)
        out.append(Peptide(id=f"{prefix}{i}", residues=residues, source=source))
        i += 1
    return out


def near_copy(rng, seq, max_len=40):
    """`seq` after one to three substitutions, insertions or deletions."""
    out = list(seq)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(3))
        k = int(rng.integers(len(out)))
        if op == 0:
            out[k] = rng.choice(list(RESIDUES))
        elif op == 1 and len(out) < max_len:
            out.insert(k, rng.choice(list(RESIDUES)))
        elif op == 2 and len(out) > 1:
            del out[k]
    return "".join(out)


@pytest.fixture
def graph_nodes(monkeypatch):
    """Every `Tensor` made with a node record while the test runs, in order."""
    from amprl.numerics import tensor

    made = []
    real = tensor._node

    def recording(*args):
        out = real(*args)
        if out._record is not None:
            made.append(out)
        return out

    monkeypatch.setattr(tensor, "_node", recording)
    return made


def captured_tensors(loss):
    """Every `Tensor` that a backward closure in `loss`'s graph captures,
    directly or through a function it captures, and the records walked."""
    from amprl.numerics.tensor import Tensor, _Record

    found, records, stack = [], [], [loss._record]
    while stack:
        record = stack.pop()
        if any(record is seen for seen in records):
            continue
        records.append(record)
        stack.extend(p for p in record.parents if isinstance(p, _Record))
        cells = list(record.backward.__closure__ or ())
        while cells:
            value = cells.pop().cell_contents
            if isinstance(value, Tensor):
                found.append(value)
            elif callable(value):
                cells.extend(getattr(value, "__closure__", None) or ())
    return found, records


@pytest.fixture
def tensors_made(monkeypatch):
    """The shape of every `Tensor` constructed while the test runs, in order."""
    from amprl.numerics import tensor

    made = []
    init = tensor.Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.data.shape)

    monkeypatch.setattr(tensor.Tensor, "__init__", recording)
    return made


@pytest.fixture(autouse=True)
def _clear_output_env(monkeypatch):
    # keeps CLI output routing independent of the invoking shell
    monkeypatch.delenv("AMPRL_OUTPUT_DIR", raising=False)
