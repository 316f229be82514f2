"""The six text readers against the copies in `reader_oracle.py` of the code
they replace, and the inputs where the two differ on purpose.

On text without a line separator other than "\\n" and "\\r\\n", each reader
returns what its oracle returns, or raises the same message once the
file's name that now heads it is removed. The inputs are the seeded valid
and junk texts of `test_reader_fuzz.py`, an assay file treated the same
way, and a few hand-written ones; each is read once as a Path and, where
the oracle reads text, once as a str.
"""
import io
import json
import re

import numpy as np
import pytest

import reader_oracle as oracle
from amprl.assay import read_assay_tsv
from amprl.cli import main
from amprl.dataprep import read_cluster_assignments
from amprl.mic import read_labeled_tsv
from amprl.physchem import load_scale_overrides
from amprl.screening import read_external_scores
from amprl.sequences import parse_fasta

from test_reader_fuzz import CLUSTERS, FASTA, LABELED, ROUNDS, SCALE, SCORES, _junk

ASSAY = "peptide_id\ttime_min\tsample_fluor\tcontrol_fluor\np1\t0\t90\t100\np1\t5\t120.5\t100\np2\t0\t1e2\t100\np2\t5\t80\t100\n"
PEPTIDES = parse_fasta(FASTA)

# reader name -> (new reader, oracle, valid text, seed, whether the oracle reads a str as text)
READERS = {
    "parse_fasta": (parse_fasta, oracle.parse_fasta, FASTA, 1, True),
    "read_labeled_tsv": (read_labeled_tsv, oracle.read_labeled_tsv, LABELED, 2, True),
    "read_external_scores": (read_external_scores, oracle.read_external_scores, SCORES, 3, False),
    "read_cluster_assignments": (
        lambda src: read_cluster_assignments(src, PEPTIDES),
        lambda src: oracle.read_cluster_assignments(src, PEPTIDES),
        CLUSTERS,
        4,
        True,
    ),
    "load_scale_overrides": (load_scale_overrides, oracle.load_scale_overrides, SCALE, 5, False),
    "read_assay_tsv": (read_assay_tsv, oracle.read_assay_tsv, ASSAY, 8, True),
}

# what `str.splitlines` ends a line at besides "\n" and "\r\n"
EXTRA_SEPARATORS = re.compile("\r(?!\n)|[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")

HAND_WRITTEN = [
    "",
    "\n\n",
    "  \n\t\n",
    ">a\r\nGLWK\r\n>b\r\nkk\r\n",
    ">a\n\n>b\nKK\n",
    ">a\nGL WK\n",
    ">\nKK\n",
    "sequence\tlabel\nGLWK\tactive\nGLWK\tinactive\n",
    "sequence\tlabel\n\n\n  \tactive\n",
    "sequence\tlabel\nGLWK\n",
    '{"sequence": " glwk ", "scores": {"a": 1}}\n{"sequence": "GLWK", "scores": {}}\n',
    '{"sequence": "GLWK", "scores": {"a": NaN}}\n',
    "p1\tc0\np2\tc0\n",
    "peptide_id\ttime_min\tsample_fluor\tcontrol_fluor\np\t0\t1\t1\np\t0\t1\t1\n",
    "peptide_id\ttime_min\tsample_fluor\tcontrol_fluor\np\t0\tinf\t1\n",
    "hydropathy A x\n",
    "pka Z 3.0\n",
]


def _outcome(read, source):
    """("ok", what `read` returns) or ("error", its ValueError's message)."""
    try:
        return "ok", read(source)
    except ValueError as err:
        return "error", str(err)


def _unheaded(outcome, path):
    """The outcome with the file's name removed from the head of an error message; the
    oracle's `load_scale_overrides` wrote `<file>:N:` where the readers now write `<file> line N:`."""
    kind, value = outcome
    if kind == "error":
        value = re.sub(rf"^{re.escape(str(path))}:(\d+):", r"line \1:", value)
        value = re.sub(rf"^{re.escape(str(path))}(: | )", "", value)
    return kind, value


def _texts(valid, seed):
    rng = np.random.default_rng(seed)
    return [valid, *HAND_WRITTEN, *(_junk(rng, valid) for _ in range(ROUNDS))]


@pytest.mark.parametrize("name", sorted(READERS))
def test_each_reader_matches_the_code_it_replaces(tmp_path, name):
    read, old, valid, seed, old_reads_text = READERS[name]
    compared = 0
    for k, text in enumerate(_texts(valid, seed)):
        if EXTRA_SEPARATORS.search(text):
            continue
        if name == "read_assay_tsv" and not text.split("\n")[0].strip():
            continue  # a blank line before the assay header is now skipped, as every reader skips one
        path = tmp_path / f"input{k}.txt"
        path.write_text(text, encoding="utf-8", newline="")
        expected = _unheaded(_outcome(old, path), path)
        assert _unheaded(_outcome(read, path), path) == expected, text
        assert _outcome(read, text) == (_outcome(old, text) if old_reads_text else expected), text
        if expected[0] == "error" and expected[1].startswith("line "):
            assert _outcome(read, path)[1].startswith(f"{path} line "), text
        compared += 1
    assert compared > ROUNDS // 2


def test_an_error_in_a_file_names_the_file_and_its_line(tmp_path):
    path = tmp_path / "scale.txt"
    path.write_text("# custom\nhydropathy A 2.0\npka Z 3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 3: unknown pKa group 'Z'")):
        load_scale_overrides(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: labeled TSV must start")):
        read_labeled_tsv(path)
    with pytest.raises(ValueError, match="^line 3: unknown pKa group 'Z'$"):
        load_scale_overrides("# custom\nhydropathy A 2.0\npka Z 3.0\n")


def test_a_str_is_read_as_the_text_itself():
    assert read_external_scores('{"sequence": "glwk", "scores": {"a": 1}}\n') == {"GLWK": {"a": 1.0}}
    assert load_scale_overrides("hydropathy A 2.0\n").hydropathy["A"] == 2.0
    assert read_external_scores(io.StringIO('{"sequence": "KK", "scores": {}}\n')) == {"KK": {}}


def test_a_scale_key_that_is_several_residues_is_refused():
    with pytest.raises(ValueError, match="line 1: unknown residue 'AC'"):
        load_scale_overrides("hydropathy AC 2.0\n")


def test_a_raw_line_separator_inside_a_json_string_reads_back(tmp_path):
    path = tmp_path / "scores.jsonl"
    row = {"sequence": "GLWK", "scores": {"note\u2028x\u2029y\x85z": 0.5}}
    path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    assert "\u2028" in path.read_text(encoding="utf-8")
    assert read_external_scores(path) == {"GLWK": {"note\u2028x\u2029y\x85z": 0.5}}


@pytest.mark.parametrize("separator", ["\x0c", "\x85"])
@pytest.mark.parametrize(
    "read, text, message",
    [
        (read_labeled_tsv, "sequence\tlabel\n{sep}KK\tactive\nGLXK\tactive\n", "line 3: invalid residue 'X'"),
        (
            lambda src: read_cluster_assignments(src, PEPTIDES),
            "p1\tc0{sep}\np2\tc1\nzz\tc0\n",
            "line 3: unknown sequence id 'zz'",
        ),
        (read_assay_tsv, ASSAY.replace("120.5\t100\n", "120.5\t100{sep}\n") + "p3\tzero\t1\t1\n", "line 6: non-numeric value"),
    ],
    ids=["labeled", "clusters", "assay"],
)
def test_a_separator_inside_a_row_keeps_the_file_line_numbering(tmp_path, separator, read, text, message):
    text = text.format(sep=separator)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        read(text)
    path = tmp_path / "input.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path} {message}')}"):
        read(path)


def test_eval_names_the_reference_file_that_fails(tmp_path, capsys):
    generated, reference = tmp_path / "ok.fa", tmp_path / "bad.fa"
    generated.write_text(">a\nGLWKKILG\n")
    reference.write_text(">b\nGLXK\n")
    out = tmp_path / "out"
    code = main(["eval", "--generated", str(generated), "--reference", str(reference), "--output-dir", str(out)])
    assert code == 1
    message = f"{reference} line 2: invalid residue 'X' in record 'b'"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads((out / "run_manifest.json").read_text())["error"] == f"error: {message}"
