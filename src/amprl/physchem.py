"""Peptide descriptors: hydrophobicity, hydrophobic moment, charge, isoelectric point.

Two charge models coexist on purpose. Screening and rewards use the integer
formal charge (K/R/H are +1, D/E are -1, termini excluded). The isoelectric
point uses the continuous Henderson-Hasselbalch charge over all ionizable
groups including both termini.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .sequences import DESCRIPTORS, RESIDUES, Peptide, encode

# Eisenberg consensus hydropathy, one value per canonical residue.
EISENBERG_HYDROPATHY = {
    "A": 0.620, "R": -2.530, "N": -0.780, "D": -0.900, "C": 0.290,
    "Q": -0.850, "E": -0.740, "G": 0.480, "H": -0.400, "I": 1.380,
    "L": 1.060, "K": -1.500, "M": 0.640, "F": 1.190, "P": 0.120,
    "S": -0.180, "T": -0.050, "W": 0.810, "Y": 0.260, "V": 1.080,
}

# pKa values for the ionizable side chains and the backbone termini.
PKA = {
    "n_term": 9.69,
    "c_term": 2.34,
    "D": 3.86,
    "E": 4.25,
    "C": 8.33,
    "Y": 10.07,
    "H": 6.00,
    "K": 10.53,
    "R": 12.48,
}

@dataclass(frozen=True)
class ScaleTable:
    """Versioned constant tables; the numbers are data and may be overridden."""

    name: str = "eisenberg-consensus"
    version: str = "1"
    hydropathy: dict[str, float] = field(default_factory=lambda: dict(EISENBERG_HYDROPATHY))
    pka: dict[str, float] = field(default_factory=lambda: dict(PKA))

    def __post_init__(self) -> None:
        missing = [r for r in RESIDUES if r not in self.hydropathy]
        if missing:
            raise ValueError(f"hydropathy table missing residues: {', '.join(missing)}")
        for key, value in self.hydropathy.items():
            if not math.isfinite(value):
                raise ValueError(f"hydropathy for {key!r} is not finite: {value}")
        for key, value in self.pka.items():
            if not (0.0 < value < 14.0):
                raise ValueError(f"pKa for {key!r} out of (0,14): {value}")


DEFAULT_SCALE = ScaleTable()


@dataclass(frozen=True)
class ScaleConfig:
    overrides: str | None = None  # a file for `load_scale_overrides`; null keeps DEFAULT_SCALE


def load_scale_overrides(path: str | Path, base: ScaleTable = DEFAULT_SCALE) -> ScaleTable:
    """Apply key-value overrides from a text file.

    Each non-blank, non-comment line reads `hydropathy <residue> <value>` or
    `pka <group> <value>` where group is a residue letter, n_term, or c_term.
    """
    hydropathy = dict(base.hydropathy)
    pka = dict(base.pka)
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'table key value', got {line!r}")
        table, key, value = parts
        try:
            num = float(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: value {value!r} is not a number") from None
        if table == "hydropathy":
            if key not in RESIDUES:
                raise ValueError(f"{path}:{lineno}: unknown residue {key!r}")
            hydropathy[key] = num
        elif table == "pka":
            if key not in pka:
                raise ValueError(f"{path}:{lineno}: unknown pKa group {key!r}")
            pka[key] = num
        else:
            raise ValueError(f"{path}:{lineno}: unknown table {table!r}")
    return ScaleTable(name=base.name, version=base.version + "+overrides", hydropathy=hydropathy, pka=pka)


# the ionizable groups: a base's term is +1 / (1 + 10^(pH - pKa)), an acid's -1 / (1 + 10^(pKa - pH))
_GROUPS = ("n_term", "c_term", "K", "R", "H", "D", "E", "C", "Y")
_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
# a residue code's column in `_hh_charges`' terms: 0 is both termini, 1-7 the side chains, 8 no charge
_TERM_OF_CODE = np.full(len(RESIDUES) + 1, 8)
_TERM_OF_CODE[[RESIDUES.index(g) for g in _GROUPS[2:]]] = np.arange(1, 8)


def descriptors(peptides: Sequence[Peptide], scale: ScaleTable = DEFAULT_SCALE) -> np.ndarray:
    """Each peptide's five descriptors: an (n, 5) matrix in DESCRIPTORS order.

    The moment puts residue n at n * 100 degrees on the helical wheel. The
    net charge is the formal one; pI is where the Henderson-Hasselbalch
    charge crosses zero. Sums run in sequence order and the pH terms use
    Python's float power, so no row depends on the other rows.
    """
    if not peptides:
        return np.empty((0, len(DESCRIPTORS)))
    codes, lengths = encode([p.residues for p in peptides])
    # + 0.0 turns a -0.0 entry into 0.0, as a sum that starts from 0 does
    h = (np.append([scale.hydropathy[r] for r in RESIDUES], 0.0) + 0.0)[codes]
    angles = [n * math.radians(100.0) for n in range(codes.shape[1])]
    sines = np.cumsum(h * [math.sin(a) for a in angles], axis=1)[:, -1].tolist()
    cosines = np.cumsum(h * [math.cos(a) for a in angles], axis=1)[:, -1].tolist()
    moments = np.divide([math.hypot(s, c) for s, c in zip(sines, cosines)], lengths)
    charges = [np.isin(codes, [RESIDUES.index(r) for r in group]).sum(axis=1) for group in ("KRH", "DE")]
    pis = _isoelectric_points(codes, np.array([scale.pka[g] for g in _GROUPS]))
    return np.column_stack([lengths, np.cumsum(h, axis=1)[:, -1] / lengths, moments, charges[0] - charges[1], pis])


def _hh_charges(columns: np.ndarray, ph: np.ndarray, pka: np.ndarray) -> np.ndarray:
    """Each row's Henderson-Hasselbalch charge at its own pH, summed over its `_TERM_OF_CODE` columns in order."""
    powers = np.reshape([10.0**x for x in ((ph[:, None] - pka) * _SIGN).ravel().tolist()], (len(ph), len(_GROUPS)))
    terms = _SIGN / (1.0 + powers)
    terms = np.column_stack([terms[:, 0] + terms[:, 1], terms[:, 2:], np.zeros(len(ph))])
    return np.cumsum(terms[np.arange(len(ph))[:, None], columns], axis=1)[:, -1]


def _isoelectric_points(codes: np.ndarray, pka: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Bisection on [0,14], one step for all rows still open, until |charge| < tol.

    The charge falls strictly with pH. If it keeps one sign over [0,14], the
    nearer endpoint is the pI.
    """
    columns = np.column_stack([np.zeros(len(codes), dtype=np.int64), _TERM_OF_CODE[codes]])  # the termini first
    pis = np.where(_hh_charges(columns, np.zeros(len(codes)), pka) < 0.0, 0.0, np.nan)
    pis[np.isnan(pis) & (_hh_charges(columns, np.full(len(codes), 14.0), pka) > 0.0)] = 14.0
    live = np.flatnonzero(np.isnan(pis))
    columns, lo, hi = columns[live], np.zeros(live.size), np.full(live.size, 14.0)
    for _ in range(200):
        if not live.size:
            break
        pis[live] = mid = 0.5 * (lo + hi)
        charge = _hh_charges(columns, mid, pka)
        lo, hi = np.where(charge > 0.0, mid, lo), np.where(charge > 0.0, hi, mid)
        open_ = np.abs(charge) >= tol
        live, columns, lo, hi = live[open_], columns[open_], lo[open_], hi[open_]
    return pis


def descriptor_vector(p: Peptide, scale: ScaleTable = DEFAULT_SCALE) -> np.ndarray:
    """All five descriptors of one peptide: its `descriptors` row."""
    return descriptors([p], scale)[0]
