"""Seeded fuzz of the text readers and the checkpoint reader: junk input may
raise only ValueError.

Each text reader gets random printable and control characters, valid files
cut at a random point, and valid files with random characters replaced. The
checkpoint reader gets flipped bytes, truncations and 4-byte fields
overwritten, with the manifest's sha256 recomputed in half the cases so that
the header parsing is reached. Any exception other than ValueError
(UnicodeDecodeError is one) fails the test with its traceback.
"""
import hashlib
import io
import itertools
import json
import re
import string
import struct

import numpy as np
import pytest

from amprl.dataprep import read_cluster_assignments
from amprl.mic import read_labeled_tsv
from amprl.numerics import load_checkpoint, save_checkpoint
from amprl.physchem import load_scale_overrides
from amprl.screening import read_external_scores
from amprl.sequences import parse_fasta

FASTA = ">p1 first\nGLWKKILGKIKAGL\n>p2\nKKLLDDAA\nWWRRHH\n>p3\nfliplvk\n"
LABELED = "sequence\tlabel\nGLWKKILGKIKAGL\tactive\nKKLLDDAAWWRRHH\tinactive\nFLIPLVK\t1\n"
SCORES = '{"sequence": "GLWKKILGKIKAGL", "scores": {"plddt": 0.9, "hemolysis": 1}}\n{"sequence": "kkll", "scores": {}}\n'
CLUSTERS = "# sequence_id\tcluster_id\np1\tc0\np2\tc1\np3\tc0\n"
SCALE = "# custom table\nhydropathy A 2.0\npka K 10.0\npka n_term 9.1\n"

ALPHABET = string.printable + "".join(map(chr, range(32))) + "\x7féßı>\t\n"
ROUNDS = 300


def _junk(rng, valid):
    """One of: random characters, `valid` cut short, or `valid` with characters replaced."""
    kind = rng.integers(3)
    if kind == 0:
        return "".join(rng.choice(list(ALPHABET), size=int(rng.integers(0, 80))))
    if kind == 1:
        return valid[: int(rng.integers(0, len(valid)))]
    chars = list(valid)
    for at in rng.integers(0, len(chars), size=int(rng.integers(1, 6))):
        chars[at] = str(rng.choice(list(ALPHABET)))
    return "".join(chars)


def _fuzz(read, valid, seed):
    read(valid)  # the unmutated file parses
    rng = np.random.default_rng(seed)
    for _ in range(ROUNDS):
        text = _junk(rng, valid)
        try:
            read(text)
        except ValueError:
            pass


def _via_file(tmp_path, read):
    """`read` on a file holding the text; each call writes a new file, since replacing a file's
    content can cost a disk flush on some filesystems (ext4), while creating one does not."""
    names = (tmp_path / f"input{k}.txt" for k in itertools.count())

    def run(text):
        path = next(names)
        path.write_text(text, encoding="utf-8")
        return read(path)

    return run


def test_parse_fasta_raises_only_value_errors():
    _fuzz(parse_fasta, FASTA, seed=1)


def test_read_labeled_tsv_raises_only_value_errors():
    _fuzz(lambda text: read_labeled_tsv(io.StringIO(text), split="train"), LABELED, seed=2)


def test_read_external_scores_raises_only_value_errors(tmp_path):
    _fuzz(_via_file(tmp_path, read_external_scores), SCORES, seed=3)


def test_read_cluster_assignments_raises_only_value_errors():
    peptides = parse_fasta(FASTA)
    _fuzz(lambda text: read_cluster_assignments(io.StringIO(text), peptides), CLUSTERS, seed=4)


def test_load_scale_overrides_raises_only_value_errors(tmp_path):
    _fuzz(_via_file(tmp_path, load_scale_overrides), SCALE, seed=5)


def test_file_readers_reject_bytes_that_are_not_utf8(tmp_path):
    rng = np.random.default_rng(6)
    for read in (read_external_scores, load_scale_overrides, parse_fasta):
        for k in range(20):
            path = tmp_path / f"{read.__name__}{k}.txt"
            path.write_bytes(b"\xff\xfe" + rng.integers(0, 256, size=40, dtype=np.uint8).tobytes())
            try:
                read(path)
            except ValueError:
                pass


def test_a_letter_that_uppercases_to_residues_is_no_residue(tmp_path):
    # "ß".upper() is "SS" and "ı".upper() is "I"
    for letter in "ßı":
        with pytest.raises(ValueError, match=f"line 2: invalid residue '{letter}' in record 'a'"):
            parse_fasta(f">a\nGL{letter}K\n")
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({"sequence": f"GL{letter}K", "scores": {}}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 1: invalid residue '{letter}'"):
            read_external_scores(path)
        with pytest.raises(ValueError, match=f"line 2: invalid residue '{letter}'"):
            read_labeled_tsv(f"sequence\tlabel\nGL{letter}K\tactive\n")
    assert parse_fasta(">a\nglwk\n")[0].residues == "GLWK"


def test_an_external_score_too_large_for_a_float_is_not_finite(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"sequence": "GLWK", "scores": {"plddt": 1' + "0" * 400 + "}}\n")
    with pytest.raises(ValueError, match="line 1: score 'plddt' must be a finite number"):
        read_external_scores(path)


CHECKPOINT = {"bias": np.arange(3.0), "empty": np.zeros((0, 3)), "scale": np.array(2.5), "weight": np.arange(12.0).reshape(4, 3)}
# 4-byte values that make a count, a length or half of a shape field absurd
FIELDS = (0, 1, 2, 1 << 31, (1 << 32) - 1)


def _mutate(rng, blob):
    """`blob` with bytes flipped, cut short, or one 4-byte field overwritten."""
    kind = rng.integers(3)
    if kind == 1:
        return blob[: int(rng.integers(0, len(blob)))]
    out = bytearray(blob)
    if kind == 0:
        for at in rng.integers(0, len(out), size=int(rng.integers(1, 6))):
            out[at] ^= int(rng.integers(1, 256))
    else:
        at = int(rng.integers(0, len(out) - 3))
        value = int(rng.integers(1 << 32)) if rng.integers(2) else FIELDS[rng.integers(len(FIELDS))]
        out[at : at + 4] = struct.pack("<I", value)
    return bytes(out)


def _write_checkpoint(path, blob, manifest, digest):
    path.write_bytes(blob)
    path.with_name(path.name + ".json").write_text(json.dumps({**manifest, "sha256": digest}), encoding="utf-8")


def test_load_checkpoint_raises_only_value_errors(tmp_path):
    save_checkpoint(tmp_path / "valid.ckpt", CHECKPOINT, meta={"step": 3})
    load_checkpoint(tmp_path / "valid.ckpt")  # the unmutated checkpoint loads
    blob = (tmp_path / "valid.ckpt").read_bytes()
    manifest = json.loads((tmp_path / "valid.ckpt.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(7)
    for k in range(1000):
        junk = _mutate(rng, blob)
        digest = hashlib.sha256(junk).hexdigest() if rng.integers(2) else manifest["sha256"]
        path = tmp_path / f"junk{k}.ckpt"
        _write_checkpoint(path, junk, manifest, digest)
        try:
            load_checkpoint(path)
        except ValueError:
            pass


@pytest.mark.parametrize("saved, shape", [((4,), (1 << 63,)), ((4, 3), (1 << 62, 4)), ((4, 3), (0, 1 << 63))])
def test_a_checkpoint_shape_the_file_cannot_hold_names_the_tensor(tmp_path, saved, shape):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(saved)})
    manifest = json.loads(path.with_name("model.ckpt.json").read_text(encoding="utf-8"))
    blob = bytearray(path.read_bytes())
    at = 8 + 8 + 4 + len("w") + 4  # magic, version and count, name length, name, ndim
    blob[at : at + 8 * len(shape)] = struct.pack(f"<{len(shape)}Q", *shape)
    _write_checkpoint(path, bytes(blob), manifest, hashlib.sha256(blob).hexdigest())
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + r"(truncated checkpoint: )?tensor 'w' "):
        load_checkpoint(path)


def test_a_tensor_name_that_is_not_utf8_is_named_as_such(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(3)})
    manifest = json.loads(path.with_name("model.ckpt.json").read_text(encoding="utf-8"))
    blob = bytearray(path.read_bytes())
    at = 8 + 8 + 4  # magic, version and count, name length
    blob[at] = 0xFF
    _write_checkpoint(path, bytes(blob), manifest, hashlib.sha256(blob).hexdigest())
    with pytest.raises(ValueError, match=re.escape(f"{path}: tensor name at byte {at} is not UTF-8")):
        load_checkpoint(path)
