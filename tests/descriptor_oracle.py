"""The per-peptide descriptor formulas `amprl.physchem` used before
`descriptors` computed a whole set in one array pass, kept as a test oracle.

`test_physchem.py` checks `descriptors` against them bit for bit.
"""
import math

from amprl.physchem import DEFAULT_SCALE, ScaleTable
from amprl.sequences import Peptide

from screening_oracle import PropertyVector

_BASIC_SIDECHAINS = ("K", "R", "H")
_ACIDIC_SIDECHAINS = ("D", "E", "C", "Y")


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
