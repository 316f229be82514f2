"""Peptide records, FASTA parsing, and annotation serialization."""
import io
import json
from pathlib import Path

import numpy as np
import pytest

from amprl.physchem import descriptors
from amprl.sequences import (
    RESIDUES,
    Peptide,
    PeptideTable,
    encode,
    parse_fasta,
    write_fasta,
    write_json,
    write_records,
)

from conftest import random_peptides


def test_validate_accepts_all_twenty_residues():
    p = Peptide("all", "ACDEFGHIKLMNPQRSTVWY")
    assert p.residues == "ACDEFGHIKLMNPQRSTVWY"
    assert len(p) == 20


def test_validate_uppercases_and_strips():
    (p,) = parse_fasta(">x\n  klwk \n")
    assert p.residues == "KLWK"


def test_validate_rejects_unknown_residue_with_position():
    with pytest.raises(ValueError, match="position 4"):
        Peptide("x", "ACDB")


def test_validate_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        Peptide("x", "")


def test_encode_maps_each_residue_to_its_alphabet_index():
    codes, lengths = encode([RESIDUES, "Y", RESIDUES[::-1][:5]])
    assert codes.shape == (3, 20) and codes.dtype == np.int64
    assert codes[0].tolist() == list(range(20))
    assert codes[1].tolist() == [19] + [20] * 19
    assert codes[2].tolist() == [19, 18, 17, 16, 15] + [20] * 15
    assert lengths.tolist() == [20, 1, 5]


def test_encode_matches_a_per_residue_oracle():
    rng = np.random.default_rng(5)
    seqs = [p.residues for p in random_peptides(50, rng, min_len=1, max_len=40)]
    codes, lengths = encode(seqs)
    assert codes.shape == (50, max(map(len, seqs)))
    for row, n, seq in zip(codes, lengths, seqs):
        assert n == len(seq)
        assert row[:n].tolist() == [RESIDUES.index(r) for r in seq]
        assert np.all(row[n:] == len(RESIDUES))


def test_encode_of_nothing_is_empty():
    codes, lengths = encode([])
    assert codes.shape == (0, 0) and lengths.shape == (0,)


@pytest.mark.parametrize("bad", ["ACDB", "acd", "KLW\u00e9", "K\u0141W", "K W"])
def test_encode_rejects_other_characters(bad):
    with pytest.raises(ValueError, match="residue"):
        encode(["KLW", bad])


def test_peptide_is_frozen_and_source_checked():
    p = Peptide("a", "KKK", "natural")
    with pytest.raises(Exception):
        p.id = "b"
    with pytest.raises(ValueError, match="source"):
        Peptide("a", "KKK", "mystery")


def test_parse_fasta_from_text_and_multiline_bodies():
    text = ">p1 some description\nKKLL\nWWFF\n\n>p2\nACDE\n"
    peps = parse_fasta(text)
    assert [p.id for p in peps] == ["p1", "p2"]
    assert peps[0].residues == "KKLLWWFF"
    assert peps[1].residues == "ACDE"


def test_parse_fasta_errors_are_line_numbered():
    with pytest.raises(ValueError, match="line 1"):
        parse_fasta(["ACDEF", ">x"])
    with pytest.raises(ValueError, match="empty sequence body"):
        parse_fasta([">a", ">b", "KKK"])
    with pytest.raises(ValueError, match=r"line 6: record id 'x' repeats the header at line 1"):
        parse_fasta([">x desc", "KK", "", ">y", "AA", ">x", "WW"])


def test_fasta_round_trip_with_wrapping(tmp_path):
    rng = np.random.default_rng(7)
    peps = random_peptides(20, rng, min_len=8, max_len=120)
    path = tmp_path / "corpus.fasta"
    write_fasta(peps, path, width=60)
    text = path.read_text()
    for line in text.splitlines():
        assert len(line) <= 61
    back = parse_fasta(path)
    assert [(p.id, p.residues) for p in back] == [(p.id, p.residues) for p in peps]


def test_parse_fasta_accepts_path_and_raw_text_distinctly(tmp_path):
    path = tmp_path / "one.fasta"
    path.write_text(">z\nKWKW\n")
    from_path = parse_fasta(path)
    from_text = parse_fasta(">z\nKWKW\n")
    assert from_path[0].residues == from_text[0].residues == "KWKW"


def _one_row(pep, score, external, reasons):
    return PeptideTable([pep], descriptors([pep]), np.array([score]), [external], [reasons])


def test_records_jsonl_round_trip():
    pep = Peptide("a1", "KKLLKK", "generated_sft")
    table = _one_row(pep, 0.7, {"plddt": 0.9}, ())
    buf = io.StringIO()
    write_records(table, "jsonl", buf)
    (line,) = buf.getvalue().splitlines()
    length, *props = descriptors([pep])[0].tolist()
    assert json.loads(line) == {
        "peptide": {"id": "a1", "residues": "KKLLKK", "source": "generated_sft"},
        "properties": {
            "length": length,
            "hydrophobicity": props[0],
            "hydrophobic_moment": props[1],
            "net_charge": props[2],
            "isoelectric_point": props[3],
        },
        "mic_score": 0.7,
        "external_scores": {"plddt": 0.9},
        "verdict": "kept",
        "reject_reasons": [],
    }
    assert isinstance(json.loads(line)["properties"]["length"], int)


def test_records_tsv_columns_and_reasons():
    pep = Peptide("a1", "KKLLKK", "generated_sft")
    buf = io.StringIO()
    write_records(_one_row(pep, 0.39, {}, ("mic_score", "length")), "tsv", buf)
    lines = buf.getvalue().splitlines()
    header = lines[0].split("\t")
    assert header[:2] == ["id", "sequence"]
    assert "mic_score" in header and "verdict" in header
    row = lines[1].split("\t")
    assert row[header.index("reject_reasons")] == "mic_score;length"


def test_rejected_record_requires_reasons():
    # the verdict is written from the reasons: a row is rejected exactly when it has one
    peps = [Peptide("a1", "KKLLKK", "generated_sft"), Peptide("a2", "KWKW")]
    table = PeptideTable(peps, descriptors(peps), np.array([0.1, 0.9]), None, [("mic_score",), ()])
    buf = io.StringIO()
    write_records(table, "jsonl", buf)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [(r["verdict"], r["reject_reasons"]) for r in rows] == [("rejected", ["mic_score"]), ("kept", [])]
    assert table.kept().tolist() == [1]
    assert table.reject([1], "novelty").reasons == [("mic_score",), ("novelty",)]
    assert [r["external_scores"] for r in rows] == [{}, {}]


def test_records_jsonl_is_sorted_and_stable():
    pep = Peptide("a1", "KWKW", "natural")
    table = _one_row(pep, 0.5, {}, ())
    a, b = io.StringIO(), io.StringIO()
    write_records(table, "jsonl", a)
    write_records(table, "jsonl", b)
    assert a.getvalue() == b.getvalue()
    obj = json.loads(a.getvalue())
    assert list(obj) == sorted(obj)


def test_write_json_sorts_keys_indents_two_spaces_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "sub" / "artifact.json"
    write_json({"b": [1, 2.5], "a": {"y": None, "x": "s"}}, path)
    expected = '{\n  "a": {\n    "x": "s",\n    "y": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert path.read_text(encoding="utf-8") == expected
    assert sorted(p.name for p in path.parent.iterdir()) == ["artifact.json"]  # no temp file left behind
    buf = io.StringIO()
    write_json([], buf)
    assert buf.getvalue() == "[]\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_a_nan_or_infinity_and_writes_nothing(tmp_path, value):
    path = tmp_path / "artifact.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json({"history": [{"val_perplexity": value}]}, path)
    assert list(tmp_path.iterdir()) == []
