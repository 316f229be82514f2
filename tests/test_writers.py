"""Artifact writers: one TSV framing, one all-or-nothing file write.

Every TSV writer goes through `sequences.write_tsv`, and every file the
package writes goes through `sequences._write_bytes`. The differential test
compares each writer with the hand-rolled one it replaced
(`tests/writer_oracle.py`), byte for byte.
"""
import ast
import io
import json
from pathlib import Path

import numpy as np
import pytest

import amprl.numerics as nm
from amprl.alignment import SimilarityHit, write_hit_table
from amprl.assay import KineticSummary, write_summaries
from amprl.cli import main
from amprl.evalmetrics import EvalConfig, compare_sets, export_embeddings_tsv, write_comparison_tsv
from amprl.mic import Embedder, LabeledSet, MicConfig, MicModel, write_labeled_tsv
from amprl.physchem import DEFAULT_SCALE, descriptors
from amprl.ppo import LOG_COLUMNS, write_training_log
from amprl.sequences import Peptide, PeptideTable, _write_bytes, _write_text, write_fasta, write_records, write_tsv

import writer_oracle
from conftest import unique_random_peptides
from screening_oracle import AnnotationRecord, descriptor_vectors
from test_text_encoding import SRC, _mode

_PEPS = unique_random_peptides(6, np.random.default_rng(31), min_len=1, max_len=30)
_PEPS[1] = Peptide("pépt-α", _PEPS[1].residues)  # a non-ASCII id
_PROPS = descriptor_vectors(_PEPS, DEFAULT_SCALE)
_RECORDS = [
    AnnotationRecord(_PEPS[1], _PROPS[1], mic_score=0.25, external_scores={"hélicité": 0.5, "b": 1e-300}),
    AnnotationRecord(_PEPS[2], _PROPS[2], mic_score=1.0, verdict="rejected", reject_reasons=("motif:KK", "charge")),
    AnnotationRecord(Peptide(_PEPS[3].id, _PEPS[3].residues, "generated_rl"), _PROPS[3], mic_score=0.0),
]
_UNSCORED = [AnnotationRecord(p, v) for p, v in zip(_PEPS, _PROPS)]  # as `props` writes them


def _as_table(records):
    """The `PeptideTable` of the same rows, for the current writer; the oracle writes the records."""
    peptides = [r.peptide for r in records]
    scores = None if records and records[0].mic_score is None else np.array([r.mic_score for r in records])
    return PeptideTable(
        peptides, descriptors(peptides, DEFAULT_SCALE), scores, [r.external_scores for r in records], [r.reject_reasons for r in records]
    )


def _records_case(records, format):
    return (records, lambda r, s: write_records(_as_table(r), format, s), lambda r, s: writer_oracle.write_records(r, format, s))

_HITS = [
    SimilarityHit("pépt-α", "ref1", 100.0, 12, 3.2e-7, 40.25),
    SimilarityHit("q2", "réf-β", 33.333333333333336, 9, 12.0, 0.0),
]
_SUMMARIES = [
    KineticSummary("pépt-chaud", 1.5, 0.1, "potent"),
    KineticSummary("p2", 0.0, -2.0, None),
    KineticSummary("p3", np.float64(1 / 3), 7, "weak"),
]


def _log_row(iteration, skipped):
    row = {c: float(np.random.default_rng(iteration).normal()) for c in LOG_COLUMNS}
    row.update(iteration=iteration, skipped_updates=skipped, mean_s=np.float64(0.1), frac_active=1)
    return row


def _report(name="gén-set"):
    report, _ = compare_sets(name, _PEPS[:3], _PEPS[2:], EvalConfig(), DEFAULT_SCALE)
    return report


_EMBEDDING = np.random.default_rng(5).normal(size=(len(_PEPS), 4))

# case -> (inputs, current writer, oracle writer); each writer takes (inputs, sink)
CASES = {
    "labeled_tsv": (LabeledSet([(p, k % 2) for k, p in enumerate(_PEPS)]), write_labeled_tsv, writer_oracle.write_labeled_tsv),
    "labeled_tsv_empty": (LabeledSet([]), write_labeled_tsv, writer_oracle.write_labeled_tsv),
    "records_tsv": _records_case(_RECORDS, "tsv"),
    "records_tsv_empty": _records_case([], "tsv"),
    "records_tsv_unscored": _records_case(_UNSCORED, "tsv"),
    "records_jsonl": _records_case(_RECORDS, "jsonl"),
    "records_jsonl_empty": _records_case([], "jsonl"),
    "records_jsonl_unscored": _records_case(_UNSCORED, "jsonl"),
    "hit_table": (_HITS, write_hit_table, writer_oracle.write_hit_table),
    "hit_table_empty": ([], write_hit_table, writer_oracle.write_hit_table),
    "summaries": (_SUMMARIES, write_summaries, writer_oracle.write_summaries),
    "summaries_empty": ([], write_summaries, writer_oracle.write_summaries),
    "training_log": ([_log_row(1, 0), _log_row(2, 3), _log_row(10, 12)], write_training_log, writer_oracle.write_training_log),
    "training_log_empty": ([], write_training_log, writer_oracle.write_training_log),
    "comparison_tsv": (_report(), write_comparison_tsv, writer_oracle.write_comparison_tsv),
    "comparison_tsv_no_pearson": ({**_report("plain"), "pearson": None}, write_comparison_tsv, writer_oracle.write_comparison_tsv),
    "embeddings_tsv": (
        (_PEPS, _EMBEDDING),
        lambda a, s: export_embeddings_tsv(*a, s),
        lambda a, s: writer_oracle.export_embeddings_tsv(*a, s),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_writer_matches_the_hand_rolled_one_byte_for_byte(tmp_path, case):
    inputs, write, oracle = CASES[case]
    write(inputs, tmp_path / "new" / "out")
    oracle(inputs, tmp_path / "old" / "out")
    assert (tmp_path / "new" / "out").read_bytes() == (tmp_path / "old" / "out").read_bytes()
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["out"]
    streams = io.StringIO(), io.StringIO()
    write(inputs, streams[0])
    oracle(inputs, streams[1])
    assert streams[0].getvalue() == streams[1].getvalue()


def test_score_mic_writes_the_hand_rolled_scores_tsv(tmp_path):
    embedder = Embedder()
    embedder.fit(embedder.features(_PEPS))
    model = MicModel.init(embedder, MicConfig(hidden=(4,)), seed=0)
    model.save(tmp_path / "mic.ckpt")
    write_fasta(_PEPS, tmp_path / "in.fasta")
    argv = ["score-mic", "--model", str(tmp_path / "mic.ckpt"), "--input", str(tmp_path / "in.fasta")]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 0
    writer_oracle.write_scores(_PEPS, MicModel.load(tmp_path / "mic.ckpt").score_many(_PEPS), tmp_path / "old.tsv")
    assert (tmp_path / "out" / "scores.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()


@pytest.mark.parametrize(
    "tensors, meta",
    [
        ({"w": nm.Tensor(np.arange(6.0).reshape(2, 3)), "b": np.array([-0.0, 1e-300]), "s": np.float64(3.5)}, {"iteration": 4}),
        ({"poids-é": np.zeros((0, 2))}, {"note": "réglé", "nested": {"b": [1, 2.5, None]}}),
        ({}, None),
    ],
)
def test_save_checkpoint_matches_the_hand_rolled_one_byte_for_byte(tmp_path, tensors, meta):
    nm.save_checkpoint(tmp_path / "new" / "m.ckpt", tensors, meta)
    writer_oracle.save_checkpoint(tmp_path / "old" / "m.ckpt", tensors, meta)
    for name in ("m.ckpt", "m.ckpt.json"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["m.ckpt", "m.ckpt.json"]


def test_write_tsv_frames_rows_and_ends_in_a_newline():
    sink = io.StringIO()
    write_tsv(("a", "b"), [("1", ""), ("é", "x y")], sink)
    assert sink.getvalue() == "a\tb\n1\t\né\tx y\n"
    sink = io.StringIO()
    write_tsv(("a",), [], sink)
    assert sink.getvalue() == "a\n"


@pytest.mark.parametrize("row", [("a\tb", "c"), ("a\nb", "c"), ("a", "b\r"), ("a", "b\u2028"), ("a",), ("a", "b", "c")])
def test_write_tsv_refuses_a_row_that_would_not_read_back_and_writes_nothing(tmp_path, row):
    with pytest.raises(ValueError, match="2 columns"):
        write_tsv(("x", "y"), [("ok", "ok"), row], tmp_path / "t.tsv")
    assert list(tmp_path.iterdir()) == []


def test_unencodable_text_leaves_neither_the_target_nor_a_tmp(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        _write_text(tmp_path / "a.json", "lone \udcc3 surrogate")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "b.json").write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        _write_text(tmp_path / "b.json", "\udcc3")
    assert [p.name for p in tmp_path.iterdir()] == ["b.json"]
    assert (tmp_path / "b.json").read_text(encoding="utf-8") == "old\n"


def test_a_write_that_fails_midway_keeps_the_old_file_and_removes_the_tmp(tmp_path):
    target = tmp_path / "t.bin"
    target.write_bytes(b"old")

    def chunks():
        yield b"new, half"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _write_bytes(target, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]
    assert target.read_bytes() == b"old"


def test_a_failed_checkpoint_save_leaves_no_tmp(tmp_path):
    tensors = {"w": np.ones((2, 2))}
    # the binary's rename fails: its target is a directory
    (tmp_path / "a.ckpt" / "held").mkdir(parents=True)
    with pytest.raises(OSError):
        nm.save_checkpoint(tmp_path / "a.ckpt", tensors)
    # the binary is written, the manifest's rename fails
    (tmp_path / "b.ckpt.json" / "held").mkdir(parents=True)
    with pytest.raises(OSError):
        nm.save_checkpoint(tmp_path / "b.ckpt", tensors)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt", "b.ckpt", "b.ckpt.json"]
    assert (tmp_path / "a.ckpt").is_dir() and (tmp_path / "b.ckpt.json").is_dir()


# --- the one-writer rule ----------------------------------------------------

_WRITE_MODE = frozenset("wax+")


def _writes_a_file(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute)
    if name == "replace":
        return isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os"
    if name != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return False
    # a mode that is not a literal may be a writing one
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(_WRITE_MODE & set(mode.value))


def _file_writes(root=SRC):
    """"<file>:<line>" of each file write under `root` outside `sequences._write_bytes`."""
    out = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.relative_to(root) == Path("sequences.py"):
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_write_bytes":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed and _writes_a_file(node):
                out.append(f"{path.relative_to(root)}:{node.lineno}")
    return out


def test_every_file_write_in_src_goes_through_write_bytes():
    writes = _file_writes()
    assert not writes, f"file writes outside sequences._write_bytes: {writes}"


def test_the_one_writer_check_flags_a_planted_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "\n".join(
            [
                "os.replace(a, b)",  # 1
                "p.write_text(t, encoding='utf-8')",  # 2
                "p.write_bytes(b)",  # 3
                "open(p, 'wb')",  # 4
                "p.open(mode='a', encoding='utf-8')",  # 5
                "open(p, 'r+b')",  # 6
                "open(p, m)",  # 7: a mode that is not a literal may be a writing one
                "open(p)",
                "open(p, 'rb')",
                "p.open('r', encoding='utf-8')",
                "s.replace('a', 'b')",
                "sink.write(text)",
            ]
        )
        + "\n"
    )
    (tmp_path / "sequences.py").write_text(
        "def _write_bytes(path, chunks):\n"
        "    with open(path, 'wb') as f:\n"
        "        f.write(b'')\n"
        "    os.replace(a, b)\n"
        "def _write_text(sink, text):\n"
        "    sink.write_text(text, encoding='utf-8')\n"  # 6
    )
    assert _file_writes(tmp_path) == [f"mod.py:{n}" for n in range(1, 8)] + ["sequences.py:6"]


# --- `amprl eval --name` ----------------------------------------------------


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "line\r", "para\u2029", "\udcc3\udca9"])
def test_eval_rejects_a_name_that_is_not_one_utf8_tsv_cell(tmp_path, capsys, name):
    write_fasta(_PEPS[:3], tmp_path / "in.fasta")
    fasta = str(tmp_path / "in.fasta")
    argv = ["eval", "--generated", fasta, "--reference", fasta, "--name", name, "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "--name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_a_non_utf8_argv_name_under_a_c_locale(tmp_path):
    """Under the C locale, `é` reaches argv as two surrogate-escaped bytes."""
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    write_fasta(_PEPS[:3], tmp_path / "in.fasta")
    fasta = str(tmp_path / "in.fasta")
    argv = ["eval", "--generated", fasta, "--reference", fasta, "--name", "é", "--output-dir", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-m", "amprl.cli", *argv], env=env, capture_output=True)
    assert done.returncode == 2, done.stderr.decode("utf-8", "replace")
    assert b"--name" in done.stderr
    assert not (tmp_path / "out").exists()


def test_eval_keeps_a_plain_non_ascii_name(tmp_path):
    write_fasta(_PEPS[:3], tmp_path / "in.fasta")
    fasta = str(tmp_path / "in.fasta")
    argv = ["eval", "--generated", fasta, "--reference", fasta, "--name", "gén set", "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "out" / "comparison.json").read_text(encoding="utf-8"))["set"] == "gén set"
    rows = (tmp_path / "out" / "comparison.tsv").read_text(encoding="utf-8").splitlines()
    assert all(row.split("\t")[0] == "gén set" and row.count("\t") == 2 for row in rows[1:])
