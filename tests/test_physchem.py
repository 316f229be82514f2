"""Physicochemical descriptors: hydropathy, moment, charge, pI."""
import math
from dataclasses import astuple

import numpy as np
import pytest

from amprl import physchem
from amprl.physchem import (
    DEFAULT_SCALE,
    DESCRIPTORS,
    EISENBERG_HYDROPATHY,
    PKA,
    ScaleTable,
    descriptor_vector,
    descriptors,
    load_scale_overrides,
)
from amprl.sequences import RESIDUES, Peptide, encode

import descriptor_oracle as oracle
import screening_oracle
from conftest import random_peptides


def _pep(residues):
    return Peptide("t", residues, "natural")


def _column(name, peptides, scale=DEFAULT_SCALE):
    return descriptors(peptides, scale)[:, DESCRIPTORS.index(name)]


def _one(name, residues, scale=DEFAULT_SCALE):
    return float(_column(name, [_pep(residues)], scale)[0])


def _moment_oracle(residues, offset=0.0):
    # independent trig implementation; the start-angle offset must not change it
    delta = math.radians(100.0)
    re = sum(DEFAULT_SCALE.hydropathy[r] * math.cos(n * delta + offset) for n, r in enumerate(residues))
    im = sum(DEFAULT_SCALE.hydropathy[r] * math.sin(n * delta + offset) for n, r in enumerate(residues))
    return math.hypot(re, im) / len(residues)


def test_homopolymer_moment_is_zero():
    # 18 * 100 deg = 5 full turns: the wheel vectors cancel exactly
    assert _one("hydrophobic_moment", "L" * 18) == pytest.approx(0.0, abs=1e-9)


def test_moment_matches_trig_oracle_and_rotation_invariance():
    rng = np.random.default_rng(3)
    peptides = random_peptides(50, rng)
    for p, mu in zip(peptides, _column("hydrophobic_moment", peptides)):
        assert mu == pytest.approx(_moment_oracle(p.residues), abs=1e-9)
        assert mu == pytest.approx(_moment_oracle(p.residues, offset=1.2345), abs=1e-9)
        assert mu >= 0.0


def test_moment_depends_on_residue_order():
    ordered, blocked = _column("hydrophobic_moment", [_pep("KLKLKLKLKL"), _pep("KKKKKLLLLL")])
    assert ordered != pytest.approx(blocked, abs=1e-6)


def test_net_charge_counting_rule():
    assert _one("net_charge", "KRH") == 3.0
    assert _one("net_charge", "KDE") == -1.0
    assert _one("net_charge", "GGAG") == 0.0
    assert _one("net_charge", "DDEE") == -4.0


def test_charge_and_hydrophobicity_are_permutation_invariant():
    rng = np.random.default_rng(5)
    peptides, shuffled = random_peptides(20, rng), []
    for p in peptides:
        residues = list(p.residues)
        rng.shuffle(residues)
        shuffled.append(Peptide(p.id, "".join(residues), p.source))
    for p, q in zip(descriptors(peptides), descriptors(shuffled)):
        assert p[3] == q[3]  # net charge
        assert p[1] == pytest.approx(q[1], abs=1e-12)  # hydrophobicity


def test_mean_hydrophobicity_is_table_average():
    t = DEFAULT_SCALE.hydropathy
    assert _one("hydrophobicity", "AIW") == pytest.approx((t["A"] + t["I"] + t["W"]) / 3)


def test_hh_charge_limits_and_monotonicity():
    # the charge formula itself, which `descriptors`' pI bisection relies on
    hh_charge = oracle.hh_charge
    p = "KKDDE"
    # fully protonated at very low pH: 2 Lys + N-term; acids neutral
    assert hh_charge(p, 0.0) == pytest.approx(3.0, abs=0.01)
    # fully deprotonated at very high pH: 2 Asp + Glu + C-term
    assert hh_charge(p, 14.0) == pytest.approx(-4.0, abs=0.03)
    grid = np.linspace(0.0, 14.0, 200)
    values = np.array([hh_charge(p, ph) for ph in grid])
    assert np.all(np.diff(values) < 0.0)


def test_isoelectric_point_is_a_charge_root():
    rng = np.random.default_rng(11)
    peptides = random_peptides(100, rng)
    for p, pi in zip(peptides, _column("isoelectric_point", peptides)):
        assert 0.0 <= pi <= 14.0
        assert abs(oracle.hh_charge(p.residues, pi)) < 1e-4


def test_basic_peptides_have_high_pi_acidic_low():
    assert _one("isoelectric_point", "KKKKKKKK") > 9.0
    assert _one("isoelectric_point", "DDDDDDDD") < 4.5


def test_descriptor_vector_consistency():
    rng = np.random.default_rng(13)
    peptides = random_peptides(10, rng)
    for p, row, listed in zip(peptides, descriptors(peptides), screening_oracle.descriptor_vectors(peptides)):
        v = descriptor_vector(p)
        assert v.tobytes() == row.tobytes()
        assert tuple(v.tolist()) == astuple(listed)
        assert v[0] == len(p.residues)
        assert abs(v[3]) <= v[0] + 1


def test_scale_override_file(tmp_path):
    path = tmp_path / "scale.txt"
    path.write_text("# custom table\nhydropathy A 2.0\npka K 10.0\n")
    sc = load_scale_overrides(path)
    assert sc.hydropathy["A"] == 2.0
    assert sc.pka["K"] == 10.0
    assert sc.hydropathy["W"] == DEFAULT_SCALE.hydropathy["W"]
    assert _one("hydrophobicity", "AA", scale=sc) == pytest.approx(2.0)


def test_scale_override_errors(tmp_path):
    bad_key = tmp_path / "bad_key.txt"
    bad_key.write_text("hydropathy B 1.0\n")
    with pytest.raises(ValueError, match="unknown residue"):
        load_scale_overrides(bad_key)
    bad_shape = tmp_path / "bad_shape.txt"
    bad_shape.write_text("hydropathy A\n")
    with pytest.raises(ValueError, match="expected"):
        load_scale_overrides(bad_shape)
    bad_pka = tmp_path / "bad_pka.txt"
    bad_pka.write_text("pka K 15.0\n")
    with pytest.raises(ValueError, match="out of"):
        load_scale_overrides(bad_pka)


def _oracle_rows(peptides, scale):
    return np.array(
        [
            [
                float(len(p.residues)),
                oracle.mean_hydrophobicity(p, scale),
                oracle.hydrophobic_moment(p, scale),
                oracle.net_charge(p),
                oracle.isoelectric_point(p, scale),
            ]
            for p in peptides
        ]
    )


def test_descriptors_match_the_per_peptide_oracle_bit_for_bit():
    peptides = random_peptides(1000, np.random.default_rng(17), min_len=1, max_len=50)
    peptides += [_pep(r) for r in RESIDUES] + [_pep("R" * 35), _pep("R" * 50)]
    peptides += [_pep(r * 6) for r in "DECYKH"] + [_pep("W" * 50)]
    low_pka = ScaleTable(pka={**PKA, "c_term": 0.01, "D": 0.01, "E": 0.01, "n_term": 0.01})
    hydropathy = ScaleTable(hydropathy={**EISENBERG_HYDROPATHY, "A": 2.0, "K": 3.0, "L": -2.0, "W": -0.0})
    for scale in (DEFAULT_SCALE, low_pka, hydropathy):
        rows = descriptors(peptides, scale)
        assert rows.shape == (len(peptides), len(DESCRIPTORS)) and rows.dtype == np.float64
        assert rows.tobytes() == _oracle_rows(peptides, scale).tobytes()
    # both endpoint branches of the bisection were taken
    assert descriptors([_pep("R" * 35), _pep("R" * 50)])[:, 4].tolist() == [14.0, 14.0]
    assert (descriptors(peptides, low_pka)[:, 4] == 0.0).any()


def test_the_charge_inside_the_bisection_matches_the_oracle_bit_for_bit():
    # a bisection step seldom turns on the last bits of the charge, so the pI
    # comparison above would not see, say, np.power in place of Python's power
    peptides = random_peptides(200, np.random.default_rng(23), min_len=1, max_len=50)
    codes, _ = encode([p.residues for p in peptides])
    columns = np.column_stack([np.zeros(len(codes), dtype=np.int64), physchem._TERM_OF_CODE[codes]])
    ph = np.random.default_rng(29).uniform(0.0, 14.0, len(peptides))
    pka = np.array([DEFAULT_SCALE.pka[g] for g in physchem._GROUPS])
    expected = [oracle.hh_charge(p.residues, x) for p, x in zip(peptides, ph.tolist())]
    assert physchem._hh_charges(columns, ph, pka).tobytes() == np.array(expected).tobytes()


def test_a_row_does_not_depend_on_the_other_rows():
    peptides = random_peptides(30, np.random.default_rng(19), min_len=1, max_len=50)
    together = descriptors(peptides)
    for p, row in zip(peptides, together):
        assert descriptors([p])[0].tobytes() == row.tobytes()


def test_descriptors_of_no_peptides_is_an_empty_matrix():
    assert descriptors([]).shape == (0, len(DESCRIPTORS))


def test_a_non_finite_hydropathy_is_rejected(tmp_path):
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="hydropathy for 'A' is not finite"):
            ScaleTable(hydropathy={**EISENBERG_HYDROPATHY, "A": value})
    path = tmp_path / "scale.txt"
    for residue, value in (("A", "nan"), ("K", "inf"), ("L", "-inf")):
        path.write_text(f"hydropathy {residue} {value}\n")
        with pytest.raises(ValueError, match=f"hydropathy for '{residue}' is not finite: {value}"):
            load_scale_overrides(path)
