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

from .sequences import RESIDUES, Peptide

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

_BASIC_SIDECHAINS = ("K", "R", "H")
_ACIDIC_SIDECHAINS = ("D", "E", "C", "Y")


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


@dataclass(frozen=True)
class PropertyVector:
    """The five reward descriptors for one peptide."""

    length: int
    hydrophobicity: float
    hydrophobic_moment: float
    net_charge: float
    isoelectric_point: float

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.hydrophobic_moment < 0.0:
            raise ValueError("hydrophobic moment must be >= 0")
        if not (0.0 <= self.isoelectric_point <= 14.0):
            raise ValueError("isoelectric point must lie in [0,14]")
        if abs(self.net_charge) > self.length + 1:
            raise ValueError("net charge exceeds residue count")


def mean_hydrophobicity(p: Peptide, scale: ScaleTable = DEFAULT_SCALE) -> float:
    """Arithmetic mean of per-residue hydropathy values."""
    return sum(scale.hydropathy[r] for r in p.residues) / len(p.residues)


def hydrophobic_moment(p: Peptide, scale: ScaleTable = DEFAULT_SCALE, delta_deg: float = 100.0) -> float:
    """Mean helical-wheel moment with residue n at angle n*delta (n from 0)."""
    delta = math.radians(delta_deg)
    sin_sum = 0.0
    cos_sum = 0.0
    for n, r in enumerate(p.residues):
        h = scale.hydropathy[r]
        sin_sum += h * math.sin(n * delta)
        cos_sum += h * math.cos(n * delta)
    return math.hypot(sin_sum, cos_sum) / len(p.residues)


def net_charge(p: Peptide) -> float:
    """Formal charge: K/R/H count +1, D/E count -1, termini excluded.

    His is +1 by the stated rule even though its pKa sits below pH 7; this
    follows the charge rule as given rather than the pKa table.
    """
    positive = sum(p.residues.count(r) for r in ("K", "R", "H"))
    negative = sum(p.residues.count(r) for r in ("D", "E"))
    return float(positive - negative)


def hh_charge(residues: str, ph: float, scale: ScaleTable = DEFAULT_SCALE) -> float:
    """Continuous Henderson-Hasselbalch charge including both termini."""
    q = 1.0 / (1.0 + 10.0 ** (ph - scale.pka["n_term"]))
    q -= 1.0 / (1.0 + 10.0 ** (scale.pka["c_term"] - ph))
    for r in residues:
        if r in _BASIC_SIDECHAINS:
            q += 1.0 / (1.0 + 10.0 ** (ph - scale.pka[r]))
        elif r in _ACIDIC_SIDECHAINS:
            q -= 1.0 / (1.0 + 10.0 ** (scale.pka[r] - ph))
    return q


def isoelectric_point(p: Peptide, scale: ScaleTable = DEFAULT_SCALE, tol: float = 1e-6) -> float:
    """pH where the continuous charge crosses zero, by bisection on [0,14].

    The charge is strictly decreasing in pH, so the root is unique. If the
    charge keeps one sign over the whole interval the nearer endpoint is
    returned.
    """
    lo, hi = 0.0, 14.0
    if hh_charge(p.residues, lo, scale) < 0.0:
        return 0.0
    if hh_charge(p.residues, hi, scale) > 0.0:
        return 14.0
    mid = 7.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q = hh_charge(p.residues, mid, scale)
        if abs(q) < tol:
            return mid
        if q > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def descriptor_vector(p: Peptide, scale: ScaleTable = DEFAULT_SCALE) -> PropertyVector:
    """Assemble all five descriptors for one peptide."""
    return PropertyVector(
        length=len(p.residues),
        hydrophobicity=mean_hydrophobicity(p, scale),
        hydrophobic_moment=hydrophobic_moment(p, scale),
        net_charge=net_charge(p),
        isoelectric_point=isoelectric_point(p, scale),
    )
