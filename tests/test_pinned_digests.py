"""Pinned curate artifacts: a small seeded `dataprep` and `screen`, run
through `cli.main`, give the sha256 digests in `curate_digests.json`.

The pinned bytes come from integer alignment, numpy's seeded shuffle of the
clusters and Python's float formatting, and the inputs from a sha256 stream,
so they are the same on any host. A change that moves them updates the table
and says why in CHANGES.md; the failure prints the digests it read.
"""
import hashlib
import itertools
import json
from pathlib import Path

from amprl.cli import main
from amprl.mic import Embedder, MicConfig, MicModel
from amprl.sequences import Peptide, write_fasta

from conftest import RESIDUES

TABLE = Path(__file__).with_name("curate_digests.json")


def _stream(key):
    """The bytes of sha256("key:0"), sha256("key:1"), ..., one at a time."""
    for k in itertools.count():
        yield from hashlib.sha256(f"{key}:{k}".encode()).digest()


def _peptide(key, lo=10, hi=40):
    draw = _stream(key)
    length = lo + next(draw) % (hi - lo + 1)
    return "".join(RESIDUES[next(draw) % 20] for _ in range(length))


def _variant(key, residues, edits):
    """`residues` with `edits` substitutions at positions the stream picks."""
    draw, out = _stream(key), list(residues)
    for _ in range(edits):
        out[next(draw) % len(out)] = RESIDUES[next(draw) % 20]
    return "".join(out)


def _inputs(root):
    """A corpus of 12 four-member families and 30 singletons, 60 references,
    and 20 candidates: 8 near copies of references and 12 new peptides."""
    corpus = []
    for f in range(12):
        founder = _peptide(f"family{f}")
        corpus.append(Peptide(f"fam{f}_0", founder))
        corpus += [Peptide(f"fam{f}_{k}", _variant(f"family{f}_{k}", founder, len(founder) // 5)) for k in range(1, 4)]
    corpus += [Peptide(f"single{i}", _peptide(f"single{i}")) for i in range(30)]
    reference = [Peptide(f"ref{i}", _peptide(f"ref{i}")) for i in range(60)]
    candidates = [Peptide(f"near{i}", _variant(f"near{i}", reference[7 * i].residues, 1)) for i in range(8)]
    candidates += [Peptide(f"new{i}", _peptide(f"new{i}")) for i in range(12)]
    for name, peptides in (("corpus", corpus), ("reference", reference), ("candidates", candidates)):
        write_fasta(peptides, root / f"{name}.fasta")
    embedder = Embedder()
    embedder.fit(embedder.features(corpus[:2]))
    MicModel.init(embedder, MicConfig(hidden=(4,)), seed=0).save(root / "mic.ckpt")
    # every candidate reaches the novelty filter, whatever the classifier scores
    (root / "config.json").write_text(json.dumps({"seed": 5, "screen": {"mic_cutoff": 0.0}}))


def test_curate_artifacts_match_the_pinned_digests(tmp_path, capsys):
    _inputs(tmp_path)
    common = ["--config", str(tmp_path / "config.json")]
    dataprep = ["dataprep", "--input", str(tmp_path / "corpus.fasta"), "--output-dir", str(tmp_path / "dataprep")]
    assert main(dataprep + common) == 0
    screen = ["screen", "--input", str(tmp_path / "candidates.fasta"), "--mic-model", str(tmp_path / "mic.ckpt")]
    screen += ["--reference", str(tmp_path / "reference.fasta"), "--output-dir", str(tmp_path / "screen")]
    assert main(screen + common) == 0
    pinned = json.loads(TABLE.read_text())
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned}
    assert got == pinned, json.dumps(got, indent=2)
    # the near copies are removed and every candidate has a hit row
    rows = [json.loads(line) for line in (tmp_path / "screen" / "screened.jsonl").read_text().splitlines()]
    assert sum(row["verdict"] == "rejected" for row in rows) == 8
    assert len((tmp_path / "screen" / "hits.tsv").read_text().splitlines()) == 1 + 20
