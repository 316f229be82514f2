"""Membrane-assay kinetics analysis: percent-difference normalization against
untreated controls, MaxRel/AUC summaries, and median-split classification
into four mechanistic categories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .sequences import _read_text, write_tsv

CATEGORIES = ("potent", "transient", "gradual", "weak")


@dataclass(frozen=True)
class FluorescenceSeries:
    peptide_id: str
    times: tuple[float, ...]
    sample: tuple[float, ...]
    control: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.peptide_id:
            raise ValueError("peptide_id must be non-empty")
        n = len(self.times)
        if n < 2:
            raise ValueError(f"{self.peptide_id}: need at least two time points")
        if len(self.sample) != n or len(self.control) != n:
            raise ValueError(f"{self.peptide_id}: times, sample, and control lengths differ")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError(f"{self.peptide_id}: time points must be strictly increasing")
        if any(c <= 0.0 for c in self.control):
            raise ValueError(f"{self.peptide_id}: control values must be positive")


@dataclass(frozen=True)
class KineticSummary:
    peptide_id: str
    max_rel: float
    auc: float
    category: str | None = None

    def __post_init__(self) -> None:
        if self.category is not None and self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")


def percent_difference(series: FluorescenceSeries) -> np.ndarray:
    """100 * (sample - control) / control at each time point."""
    sample = np.asarray(series.sample, dtype=np.float64)
    control = np.asarray(series.control, dtype=np.float64)
    return 100.0 * (sample - control) / control


def summarize(series: FluorescenceSeries) -> KineticSummary:
    """Peak percent difference and its trapezoidal integral over time.

    Negative excursions below the control are kept in the integral; the
    normalization formula has no floor.
    """
    pct = percent_difference(series)
    times = np.asarray(series.times, dtype=np.float64)
    return KineticSummary(
        peptide_id=series.peptide_id,
        max_rel=float(pct.max()),
        auc=float(np.trapezoid(pct, times)),
    )


def classify_quadrants(summaries: Sequence[KineticSummary]) -> tuple[list[KineticSummary], dict[str, float]]:
    """Median-split categories; ties at a median fall on the "<=" side.

    potent: max_rel > median and auc > median; transient: only max_rel above;
    gradual: only auc above; weak: neither.
    """
    if len(summaries) < 2:
        raise ValueError("need at least two summaries to split at medians")
    med_max = float(np.median([s.max_rel for s in summaries]))
    med_auc = float(np.median([s.auc for s in summaries]))
    out: list[KineticSummary] = []
    for s in summaries:
        high_peak = s.max_rel > med_max
        high_auc = s.auc > med_auc
        if high_peak and high_auc:
            category = "potent"
        elif high_peak:
            category = "transient"
        elif high_auc:
            category = "gradual"
        else:
            category = "weak"
        out.append(replace(s, category=category))
    return out, {"max_rel": med_max, "auc": med_auc}


ASSAY_COLUMNS = ("peptide_id", "time_min", "sample_fluor", "control_fluor")
SUMMARY_COLUMNS = ("peptide_id", "max_rel", "auc", "category")


def read_assay_tsv(stream: str | Path | IO[str]) -> list[FluorescenceSeries]:
    """Read (peptide_id, time_min, sample_fluor, control_fluor) rows.

    Rows group by peptide id in file order; each group's time points must be
    strictly increasing. A value that is not a finite number raises
    ValueError naming its line. A Path is read as a file and a plain string
    as the TSV text.
    """
    lines = _read_text(stream).splitlines()
    if not lines:
        raise ValueError("assay file is empty")
    header = tuple(lines[0].rstrip("\n").split("\t"))
    if header != ASSAY_COLUMNS:
        raise ValueError(f"expected header {ASSAY_COLUMNS}, got {header}")
    groups: dict[str, list[tuple[float, float, float]]] = {}
    order: list[str] = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"line {n}: expected 4 fields, got {len(parts)}")
        pid = parts[0]
        try:
            t, s, c = (float(v) for v in parts[1:])
        except ValueError as err:
            raise ValueError(f"line {n}: non-numeric value ({err})") from None
        if not all(math.isfinite(v) for v in (t, s, c)):
            raise ValueError(f"line {n}: time and fluorescence must be finite, got {t}, {s}, {c}")
        if pid not in groups:
            groups[pid] = []
            order.append(pid)
        groups[pid].append((t, s, c))
    series = []
    for pid in order:
        rows = groups[pid]
        series.append(
            FluorescenceSeries(
                peptide_id=pid,
                times=tuple(r[0] for r in rows),
                sample=tuple(r[1] for r in rows),
                control=tuple(r[2] for r in rows),
            )
        )
    return series


def write_summaries(summaries: Iterable[KineticSummary], sink: str | Path | IO[str]) -> None:
    rows = [(s.peptide_id, repr(float(s.max_rel)), repr(float(s.auc)), s.category or "") for s in summaries]
    write_tsv(SUMMARY_COLUMNS, rows, sink)
