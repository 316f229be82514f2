"""CLI exit codes, output-directory precedence, and artifact layout."""
import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import amprl.cli as cli
import amprl.numerics as nm
from amprl.cli import ENV_OUTPUT_DIR, _build_parser, main
from amprl.mic import Embedder, LabeledSet, MicConfig, MicModel, write_labeled_tsv
from amprl.sequences import Peptide, write_fasta

from conftest import unique_random_peptides

FASTA = ">p1\nGLWKKILGKIKAGL\n>p2\nKKLLDDAAWWRRHH\n"


def _write_fasta(tmp_path, name="in.fasta", text=FASTA):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_bare_invocation_prints_help_and_fails(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    assert main(["props", "--help"]) == 0


def test_unknown_flag_is_usage_error(capsys):
    assert main(["props", "--no-such-flag"]) == 2


def test_props_writes_descriptor_table(tmp_path, capsys):
    fasta = _write_fasta(tmp_path)
    out = tmp_path / "out"
    assert main(["props", "--input", str(fasta), "--output-dir", str(out)]) == 0
    table = (out / "props.tsv").read_text().splitlines()
    assert len(table) == 3  # header + two records
    assert table[1].startswith("p1\t")
    assert (out / "resolved_config.json").exists()
    assert (out / "run_manifest.json").exists()
    assert "props: 2 records" in capsys.readouterr().out


def test_run_manifest_records_the_argv_main_was_given(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "--host-flag"])
    argv = ["props", "--input", str(_write_fasta(tmp_path)), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert (manifest["command"], manifest["argv"]) == ("props", argv)


def test_missing_required_input_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["props", "--output-dir", str(out)]) == 2
    assert "--input is required" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["props", "--input", str(tmp_path / "nope.fasta"), "--output-dir", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err


def _subcommand_files():
    """Each subcommand's declared file flags, {flag: mode}, read from the parser (None marks an optional flag)."""
    subs = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sub.get_default("files") or {} for name, sub in subs.choices.items()}


def _argv_around(tmp_path, command, flag):
    """`command` with every other required flag of `flag`'s mode naming an existing file."""
    files = _subcommand_files()[command]
    argv = [command]
    for other, mode in files.items():
        if other != flag and mode == (files[flag] or ""):
            argv += [other, str(_write_fasta(tmp_path, other[2:]))]
    return argv


def test_every_subcommand_declares_a_required_file_flag():
    # the parametrized tests below read these declarations, so an undeclared flag would go untested
    assert all("" in files.values() for files in _subcommand_files().values())


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, files in _subcommand_files().items() for flag, mode in files.items() if mode == ""],
)
def test_a_missing_required_file_flag_exits_2_and_makes_no_output_directory(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    assert main(_argv_around(tmp_path, command, flag) + ["--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {flag} is required\n"
    assert not out.exists()


def test_repeated_main_calls_parse_each_subcommand_afresh(capsys, monkeypatch):
    # the parser is built once per process, so no call may leave a value in it for the next
    assert _build_parser() is _build_parser()
    parsed = []

    def stop(args):
        parsed.append(vars(args).copy())
        raise cli.ConfigError("parsed")

    monkeypatch.setattr(cli, "_check_files", stop)
    for turn in range(2):
        for command, files in _subcommand_files().items():
            given = {flag: Path(f"{flag[2:]}-{turn}") for flag, mode in files.items() if mode == "" or turn == 0}
            argv = [command] + [part for flag, path in given.items() for part in (flag, str(path))]
            assert main(argv + (["--seed", "5"] if turn == 0 else [])) == 2
            args = parsed.pop()
            assert (args["command"], args["seed"], args["files"]) == (command, 5 if turn == 0 else None, files)
            assert {flag: args[flag[2:].replace("-", "_")] for flag in files} == {flag: given.get(flag) for flag in files}
    assert capsys.readouterr().err == "config error: parsed\n" * 2 * len(_subcommand_files())


@pytest.mark.parametrize("kind", ["absent", "directory"])
@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, files in _subcommand_files().items() for flag in files]
)
def test_an_absent_or_directory_file_path_exits_2_and_makes_no_output_directory(tmp_path, capsys, command, flag, kind):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    out = tmp_path / "out"
    assert main(_argv_around(tmp_path, command, flag) + [flag, str(path), "--output-dir", str(out)]) == 2
    message = f"{flag} not found: {path}" if kind == "absent" else f"{flag} is a directory: {path}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--positives"], "balance mode needs both --positives and --negatives"),
        (["--negatives"], "balance mode needs both --positives and --negatives"),
        (["--input", "--positives"], "balance mode needs both --positives and --negatives"),
        (["--input", "--positives", "--negatives"], "--input and --positives/--negatives are mutually exclusive"),
        (["--positives", "--negatives", "--clusters"], "--clusters and --positives/--negatives are mutually exclusive"),
    ],
)
def test_dataprep_mode_rules_exit_2_and_make_no_output_directory(tmp_path, capsys, flags, message):
    argv = ["dataprep"]
    for flag in flags:
        argv += [flag, str(_write_fasta(tmp_path, flag[2:]))]
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_dataprep_balance_mode_needs_no_input(tmp_path, capsys):
    pos = _write_fasta(tmp_path, "pos.fasta", ">p1\nKKLLKKLLKK\n>p2\nKKWWKKWWKK\n")
    neg = _write_fasta(tmp_path, "neg.fasta", ">n1\nDDAADDAADD\n>n2\nEEGGEEGGEE\n")
    out = tmp_path / "out"
    assert main(["dataprep", "--positives", str(pos), "--negatives", str(neg), "--output-dir", str(out)]) == 0
    assert (out / "balanced.tsv").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_an_output_directory_that_is_a_file_exits_2_before_the_run(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under else blocker
    assert main(["props", "--input", str(_write_fasta(tmp_path)), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: output directory {out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "not a directory\n"


def test_config_unknown_keys_all_reported(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sedd": 1, "model": {"depth": 2}}))
    fasta = _write_fasta(tmp_path)
    code = main(["props", "--input", str(fasta), "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "sedd" in err and "model.depth" in err


def test_config_bad_json_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    code = main(["props", "--input", str(_write_fasta(tmp_path)), "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_runtime_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.fasta"
    bad.write_text(">p1\nGLWBBB\n")  # B is not a residue
    assert main(["props", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_screen_rejects_duplicate_record_ids(tmp_path, capsys):
    model = tmp_path / "mic.ckpt"
    embedder = Embedder()
    embedder.fit(embedder.features([Peptide("a", "GLWKKILGKIKAGL"), Peptide("b", "KKLLDDAAWWRRHH")]))
    MicModel.init(embedder, MicConfig(hidden=(4,)), seed=0).save(model)
    screen = ["screen", "--mic-model", str(model), "--input"]
    assert main(screen + [str(_write_fasta(tmp_path)), "--output-dir", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "screened.jsonl").exists()
    dup = _write_fasta(tmp_path, "dup.fasta", FASTA + ">p1\nKKWWKK\n")
    assert main(screen + [str(dup), "--output-dir", str(tmp_path / "dup")]) == 1
    assert not (tmp_path / "dup" / "screened.jsonl").exists()
    assert "record id 'p1' repeats the header at line 1" in capsys.readouterr().err


def test_screen_ranks_by_the_configured_reward_clamps(tmp_path, capsys):
    # a zero-weight classifier scores every candidate 0.5, so the satisfied
    # property windows decide the order
    embedder = Embedder()
    embedder.fit(embedder.features([Peptide("a", "GLWKKILGKIKAGL"), Peptide("b", "KKLLDDAAWWRRHH")]))
    model = MicModel.init(embedder, MicConfig(hidden=(4,)), seed=0)
    for tensor in model.params.values():
        tensor.data[...] = 0.0
    model.save(tmp_path / "mic.ckpt")
    # net charge 10 and 6: only the second is inside the default charge clamp (-5, 9)
    fasta = _write_fasta(tmp_path, text=">k10\nKKKKKKKKKK\n>kkll\nKKLLKKLLKK\n")
    order = {}
    for name, clamp in (("default", [-5.0, 9.0]), ("override", [9.5, 12.0])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"reward": {"clamp_charge": clamp}}))
        out = tmp_path / name
        argv = ["screen", "--mic-model", str(tmp_path / "mic.ckpt"), "--input", str(fasta), "--config", str(cfg)]
        assert main(argv + ["--output-dir", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "selected.jsonl").read_text().splitlines()]
        order[name] = [row["peptide"]["id"] for row in rows]
    assert order == {"default": ["kkll", "k10"], "override": ["k10", "kkll"]}


def _save_mic(path, seed=0):
    embedder = Embedder()
    embedder.fit(embedder.features([Peptide("a", "GLWKKILGKIKAGL"), Peptide("b", "KKLLDDAAWWRRHH")]))
    MicModel.init(embedder, MicConfig(hidden=(4,)), seed=seed).save(path)
    return path


@pytest.mark.parametrize("value", ["null", "true", '"0.9"', "NaN", "Infinity", "-Infinity"])
def test_screen_rejects_a_score_that_is_not_a_finite_number(tmp_path, capsys, value):
    scores = tmp_path / "scores.jsonl"
    scores.write_text(
        '{"sequence": "GLWKKILGKIKAGL", "scores": {"plddt": 0.9}}\n'
        f'{{"sequence": "KKLLDDAAWWRRHH", "scores": {{"plddt": {value}}}}}\n'
    )
    argv = ["screen", "--mic-model", str(_save_mic(tmp_path / "mic.ckpt")), "--input", str(_write_fasta(tmp_path))]
    argv += ["--external-scores", str(scores), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert f"error: {scores} line 2: score 'plddt' must be a finite number, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "screened.jsonl").exists()


@pytest.mark.parametrize(
    ("second", "message"),
    [("glwkkilgkikagl", "line 2: sequence GLWKKILGKIKAGL repeats line 1"), ("GLWKKIBGKIKAGL", "line 2: invalid residue 'B'")],
)
def test_screen_rejects_a_repeated_or_invalid_external_sequence(tmp_path, capsys, second, message):
    scores = tmp_path / "scores.jsonl"
    scores.write_text(
        '{"sequence": "GLWKKILGKIKAGL", "scores": {"plddt": 0.9}}\n'
        f'{{"sequence": "{second}", "scores": {{"plddt": 0.1}}}}\n'
    )
    argv = ["screen", "--mic-model", str(_save_mic(tmp_path / "mic.ckpt")), "--input", str(_write_fasta(tmp_path))]
    argv += ["--external-scores", str(scores), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert f"error: {scores} {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "screened.jsonl").exists()


@pytest.mark.parametrize("keep", [10, 14, 20, 30, -8])
def test_truncated_checkpoint_exits_one(tmp_path, capsys, keep):
    path = _save_mic(tmp_path / "mic.ckpt")
    path.write_bytes(path.read_bytes()[:keep])
    argv = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {path}: truncated checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.tsv").exists()


def test_a_diverged_sft_run_exits_one_and_writes_no_model(tmp_path, capsys):
    # at lr 10 the validation NLL grows past what exp can hold: no epoch has a finite perplexity
    peptides = unique_random_peptides(24, np.random.default_rng(0), min_len=8, max_len=20)
    write_fasta(peptides[:16], tmp_path / "train.fasta")
    write_fasta(peptides[16:], tmp_path / "val.fasta")
    cfg = tmp_path / "cfg.json"
    model = {"embed_dim": 16, "n_layers": 1, "n_heads": 2, "max_len": 20, "mlp_ratio": 2}
    cfg.write_text(json.dumps({"model": model, "sft": {"epochs": 4, "batch_size": 4, "lr": 10.0, "patience": 4}}))
    out = tmp_path / "out"
    argv = ["sft", "--train", str(tmp_path / "train.fasta"), "--val", str(tmp_path / "val.fasta"), "--config", str(cfg)]
    assert main(argv + ["--output-dir", str(out)]) == 1
    assert "error: perplexity overflows: mean per-token NLL " in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json", "run_manifest.json"]
    assert json.loads((out / "run_manifest.json").read_text())["exit_code"] == 1


def test_manifest_records_the_exit_code_and_error_line_of_a_runtime_failure(tmp_path, capsys):
    path = _save_mic(tmp_path / "mic.ckpt")
    path.write_bytes(path.read_bytes()[:14])
    out = tmp_path / "out"
    assert main(["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path)), "--output-dir", str(out)]) == 1
    line = capsys.readouterr().err.rstrip("\n")
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error"]) == (1, line)
    assert line.startswith(f"error: {path}: truncated checkpoint")
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json", "run_manifest.json"]


def test_a_manifest_that_cannot_be_written_exits_one(tmp_path, capsys, monkeypatch):
    import amprl.cli as cli

    def write_json(payload, path):
        if path.name == "run_manifest.json":
            raise OSError("No space left on device")
        return original(payload, path)

    original = cli.write_json
    monkeypatch.setattr(cli, "write_json", write_json)
    out = tmp_path / "out"
    assert main(["props", "--input", str(_write_fasta(tmp_path)), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert sorted(p.name for p in out.iterdir()) == ["props.tsv", "resolved_config.json"]


def test_checkpoint_with_trailing_bytes_exits_one(tmp_path, capsys):
    path = _save_mic(tmp_path / "mic.ckpt")
    path.write_bytes(path.read_bytes() + b"\0")
    argv = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {path}: 1 byte(s) after the last tensor" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.tsv").exists()


def test_checkpoint_without_its_manifest_exits_one(tmp_path, capsys):
    path = _save_mic(tmp_path / "mic.ckpt")
    path.with_name("mic.ckpt.json").unlink()
    argv = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {path}: its manifest mic.ckpt.json is missing" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.tsv").exists()


def test_checkpoint_whose_manifest_is_not_json_exits_one(tmp_path, capsys):
    path = _save_mic(tmp_path / "mic.ckpt")
    path.with_name("mic.ckpt.json").write_text("{not json")
    argv = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {path}: its manifest mic.ckpt.json is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.tsv").exists()


@pytest.mark.parametrize(
    "drop, add, message",
    [
        ("embed.mean", None, "lacks tensor 'embed.mean', which its mic_config defines"),
        ("embed.std", None, "lacks tensor 'embed.std', which its mic_config defines"),
        ("fc1.w", None, "lacks tensor 'fc1.w', which its mic_config defines"),
        (None, "fc2.w", "holds tensor 'fc2.w', which its mic_config does not define"),
    ],
    ids=["without_embed_mean", "without_embed_std", "without_fc1_w", "with_extra_fc2_w"],
)
def test_classifier_checkpoint_with_wrong_tensor_names_exits_one(tmp_path, capsys, drop, add, message):
    # manifest and sha256 intact: the tensors are re-saved through save_checkpoint
    path = _save_mic(tmp_path / "mic.ckpt")
    tensors, meta = nm.load_checkpoint(path)
    tensors.pop(drop, None)
    if add:
        tensors[add] = np.ones((4, 1))
    nm.save_checkpoint(path, tensors, meta=meta)
    argv = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {path}: checkpoint {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.tsv").exists()


@pytest.mark.parametrize(
    "name, shape, defined",
    [("fc0.w", (425, 3), (425, 4)), ("embed.mean", (7,), (425,))],
    ids=["fc0_w_of_another_width", "embed_mean_of_seven_values"],
)
def test_classifier_checkpoint_with_a_wrong_tensor_shape_exits_one(tmp_path, capsys, name, shape, defined):
    # manifest and sha256 intact: the tensors are re-saved through save_checkpoint
    path = _save_mic(tmp_path / "mic.ckpt")
    tensors, meta = nm.load_checkpoint(path)
    tensors[name] = np.ones(shape)
    nm.save_checkpoint(path, tensors, meta=meta)
    argv = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {path}: tensor {name!r} has shape {shape}, its mic_config defines {defined}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.tsv").exists()


def _edit_meta(path, edit):
    """Apply `edit` to the `meta` of `path`'s manifest; the recorded sha256 covers only the binary, so it stays valid."""
    manifest = path.with_name(path.name + ".json")
    payload = json.loads(manifest.read_text())
    edit(payload["meta"])
    manifest.write_text(json.dumps(payload))


TOY_POLICY = {"embed_dim": 16, "n_layers": 1, "n_heads": 2, "max_len": 10, "mlp_ratio": 2}


@pytest.mark.parametrize(
    "command, edit",
    [
        ("score-mic", lambda meta: meta.update(mic_config={})),
        ("score-mic", lambda meta: meta.update(mic_config=[])),
        ("score-mic", lambda meta: meta["mic_config"].update(hidden="8")),
        ("score-mic", lambda meta: meta["mic_config"].update(threshold="x")),
        ("score-mic", lambda meta: meta["scale"].update(pka={"K": "x"})),
        ("sample", lambda meta: meta["model_config"].update(depth=2)),
        ("sample", lambda meta: meta["model_config"].update(embed_dim="16")),
        ("sample", lambda meta: meta.update(model_config=[])),
    ],
    ids=[
        "mic_config_empty",
        "mic_config_a_list",
        "hidden_a_string",
        "threshold_a_string",
        "pka_a_string",
        "model_config_extra_key",
        "embed_dim_a_string",
        "model_config_a_list",
    ],
)
def test_checkpoint_manifest_with_a_missing_key_or_a_wrong_json_type_exits_one(tmp_path, capsys, command, edit):
    from amprl.policy import ModelConfig, PolicyModel

    if command == "score-mic":
        path = _save_mic(tmp_path / "mic.ckpt")
        argv, artifact = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))], "scores.tsv"
    else:
        path = tmp_path / "policy.ckpt"
        PolicyModel.init(ModelConfig(**TOY_POLICY), seed=3).save(path)
        argv, artifact = ["sample", "--checkpoint", str(path), "-n", "2"], "samples.fasta"
    _edit_meta(path, edit)
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1  # main returned, so no traceback
    section = "mic_config or scale" if command == "score-mic" else "model_config or lora"
    assert capsys.readouterr().err.startswith(f"error: {path}: checkpoint manifest holds a bad {section} (")
    assert not (tmp_path / "out" / artifact).exists()


@pytest.mark.parametrize(
    "drop, add, message",
    [
        ("layer0.attn.wq.lora_a", None, "lacks tensor 'layer0.attn.wq.lora_a', which its manifest defines"),
        (None, "layer0.attn.wk.lora_a", "holds tensor 'layer0.attn.wk.lora_a', which its manifest does not define"),
    ],
    ids=["without_a_named_lora_factor", "with_an_unnamed_lora_factor"],
)
def test_policy_checkpoint_with_wrong_lora_tensors_exits_one(tmp_path, capsys, drop, add, message):
    from amprl.policy import ModelConfig, PolicyModel, attach_lora

    # manifest and sha256 intact: the tensors are re-saved through save_checkpoint
    path = tmp_path / "policy.ckpt"
    config = ModelConfig(embed_dim=16, n_layers=1, n_heads=2, max_len=10, mlp_ratio=2)
    attach_lora(PolicyModel.init(config, seed=3), rank=2, scaling=1.0, targets=("wq",)).save(path)
    tensors, meta = nm.load_checkpoint(path)
    assert meta["lora"]["targets"] == ["layer0.attn.wq"]
    tensors.pop(drop, None)
    if add:
        tensors[add] = np.ones((16, 2))
    nm.save_checkpoint(path, tensors, meta=meta)
    argv = ["sample", "--checkpoint", str(path), "-n", "2", "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert f"error: {path}: checkpoint {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "samples.fasta").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lora: lora.update(rank=2), "tensor 'layer0.attn.wq.lora_a' has shape (16, 4), its manifest defines (16, 2)"),
        (lambda lora: lora.update(rank=8), "tensor 'layer0.attn.wq.lora_a' has shape (16, 4), its manifest defines (16, 8)"),
        (lambda lora: lora["targets"].append("layer0.mlp.w1"), "unknown LoRA targets: w1"),
        (lambda lora: lora["targets"].append("layer1.attn.wq"), "are not the ones attach_lora makes"),
        (lambda lora: lora.update(scaling=0.0), "LoRA scaling must be non-zero"),
        (lambda lora: lora.update(rank=10**12), "LoRA rank 1000000000000 exceeds embed_dim 16"),
    ],
    ids=[
        "rank_below_the_adapters",
        "rank_above_the_adapters",
        "unknown_projection",
        "absent_layer",
        "zero_scaling",
        "rank_above_embed_dim",
    ],
)
def test_policy_manifest_naming_adapters_attach_lora_cannot_make_exits_one(tmp_path, capsys, edit, message):
    from amprl.policy import ModelConfig, PolicyModel, attach_lora

    path = tmp_path / "policy.ckpt"
    attach_lora(PolicyModel.init(ModelConfig(**TOY_POLICY), seed=3), rank=4, scaling=1.0, targets=("wq",)).save(path)
    _edit_meta(path, lambda meta: edit(meta["lora"]))
    argv = ["sample", "--checkpoint", str(path), "-n", "2", "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert not (tmp_path / "out" / "samples.fasta").exists()


def test_checkpoints_with_swapped_manifests_exit_one(tmp_path, capsys):
    # the state of a crash between the binary's rename and the manifest's
    first, second = _save_mic(tmp_path / "a.ckpt", seed=0), _save_mic(tmp_path / "b.ckpt", seed=1)
    manifests = [p.with_name(p.name + ".json") for p in (first, second)]
    texts = [m.read_text() for m in manifests]
    assert texts[0] != texts[1]
    manifests[0].write_text(texts[1])
    manifests[1].write_text(texts[0])
    for path, manifest in zip((first, second), manifests):
        out = tmp_path / f"out_{path.stem}"
        argv = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))]
        assert main(argv + ["--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: sha256 " in err and f"recorded in {manifest.name}" in err
        assert not (out / "scores.tsv").exists()


def test_train_mic_single_class_validation_exits_one(tmp_path, capsys):
    peps = unique_random_peptides(70, np.random.default_rng(0))
    write_labeled_tsv(LabeledSet([(p, i % 2) for i, p in enumerate(peps[:60])], "train"), tmp_path / "train.tsv")
    write_labeled_tsv(LabeledSet([(p, 1) for p in peps[60:]], "val"), tmp_path / "val.tsv")
    out = tmp_path / "out"
    argv = ["train-mic", "--train", str(tmp_path / "train.tsv"), "--val", str(tmp_path / "val.tsv")]
    assert main(argv + ["--output-dir", str(out)]) == 1
    assert "validation set is single-class" in capsys.readouterr().err
    assert not (out / "mic.ckpt").exists()


def test_output_dir_precedence(tmp_path, monkeypatch, capsys):
    fasta = _write_fasta(tmp_path)
    flag_dir = tmp_path / "flag"
    env_dir = tmp_path / "env"
    cfg_dir = tmp_path / "cfg"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"paths": {"outputs": str(cfg_dir)}}))

    monkeypatch.setenv(ENV_OUTPUT_DIR, str(env_dir))
    args = ["props", "--input", str(fasta), "--config", str(cfg)]
    assert main(args + ["--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "props.tsv").exists()
    assert not env_dir.exists() and not cfg_dir.exists()

    assert main(args) == 0
    assert (env_dir / "props.tsv").exists()
    assert not cfg_dir.exists()

    monkeypatch.delenv(ENV_OUTPUT_DIR)
    assert main(args) == 0
    assert (cfg_dir / "props.tsv").exists()


def test_seed_override_lands_in_resolved_config(tmp_path, capsys):
    fasta = _write_fasta(tmp_path)
    out = tmp_path / "out"
    assert main(["props", "--input", str(fasta), "--seed", "42", "--output-dir", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 42


def test_manifest_is_the_only_timestamped_artifact(tmp_path, capsys):
    fasta = _write_fasta(tmp_path)
    out = tmp_path / "out"
    assert main(["props", "--input", str(fasta), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest) == {"command", "argv", "version", "timestamp", "exit_code"}
    assert (manifest["command"], manifest["exit_code"]) == ("props", 0)
    resolved_text = (out / "resolved_config.json").read_text()
    assert "timestamp" not in resolved_text


def test_invalid_section_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reward": {"mix_lambda": 2.0}}))
    code = main(["props", "--input", str(_write_fasta(tmp_path)), "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        (command, section, key, value)
        for command, section in (("sft", "sft"), ("train-mic", "mic"))
        for key, value in (("epochs", 0), ("epochs", 2.5), ("batch_size", 0), ("patience", 0), ("lr", 0.0), ("lr", -1e-3))
    ]
    + [("rl", "ppo", "lr", 0.0), ("rl", "ppo", "lr", -1e-3)],
)
def test_bad_training_schedule_is_config_error(tmp_path, capsys, command, section, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert f"config error: {section}: {key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [("sft", "epochs", "3"), ("mic", "hidden", 5), ("ppo", "lr", "fast")])
def test_config_value_of_the_wrong_type_is_config_error(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    assert main(["sft", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {section}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("discount", -1.0, "discount must lie in [0, 1], got -1.0"),
        ("gae_lambda", 5.0, "gae_lambda must lie in [0, 1], got 5.0"),
        ("ratio_guard", -0.5, "ratio_guard must be positive, got -0.5"),
        ("n_actors", 1, "n_actors must be >= 2, got 1"),
        ("max_len", 0, "max_len must be >= 1, got 0"),
        ("horizon", 1, "horizon must be >= 2, got 1"),
        ("max_logp_gap", -1.0, "max_logp_gap must be positive, got -1.0"),
        ("checkpoint_every", -3, "checkpoint_every must be >= 0, got -3"),
        ("value_coef", -0.5, "value_coef must be >= 0, got -0.5"),
    ],
)
def test_ppo_value_out_of_range_is_config_error(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ppo": {key: value}}))
    out = tmp_path / "o"
    assert main(["props", "--input", str(_write_fasta(tmp_path)), "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert f"config error: ppo: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"dataprep": {"fractions": [0.5, 0.6]}}, "dataprep: split fractions must sum to 1"),
        ({"dataprep": {"min_len": 30, "max_len": 5}}, "dataprep: min_len 30 exceeds max_len 5"),
        ({"dataprep": {"identity_threshold": 7}}, "dataprep: identity threshold must lie in (0,1]"),
        ({"eval": {"jsd_base": 1}}, "eval: log base must exceed 1"),
        ({"eval": {"thresholds": [1.0, 1.0]}}, "eval: distance thresholds must be >= 0 and distinct, got [1.0, 1.0]"),
        ({"eval": {"thresholds": [-1.0]}}, "eval: distance thresholds must be >= 0 and distinct, got [-1.0]"),
        ({"lora": {"rank": 0}}, "lora: LoRA rank must be >= 1, got 0"),
        ({"lora": {"targets": ["wq", "wz"]}}, "lora: unknown LoRA targets: wz"),
        ({"sample": {"temperature": 0}}, "sample: temperature must be positive"),
        ({"sample": {"top_k": 0}}, "sample: top_k must be >= 1 when given"),
        ({"library": {"target_count": 0}}, "library: target_count must be >= 1"),
        ({"seed": 2.5}, "seed must be int, got 2.5"),
        ({"seed": "abc"}, 'seed must be int, got "abc"'),
        ({"paths": {"outputs": 3}}, "paths: outputs must be str, got 3"),
        ({"lora": {"targets": []}}, "lora: LoRA needs at least one target"),
        ({"screen": {"forbidden_motifs": ["KK", ""]}}, "screen: forbidden motif '' must be a non-empty string"),
        ({"screen": {"forbidden_motifs": ["kk"]}}, "screen: forbidden motif 'kk' must be a non-empty string"),
        ({"screen": {"forbidden_motifs": ["KXK"]}}, "screen: forbidden motif 'KXK' must be a non-empty string"),
        ({"scales": {"overrides": "nan.scale"}}, "scales: hydropathy for 'A' is not finite: nan"),
        ({"scales": {"overrides": "inf.scale"}}, "scales: hydropathy for 'K' is not finite: inf"),
        ({"sample": {"top_k": 22}}, "sample: top_k must be >= 1 when given and at most 21 (valid range 1..21), got 22"),
        ({"library": {"top_k": 22}}, "library: top_k must be >= 1 when given and at most 21 (valid range 1..21), got 22"),
        ({"lora": {"scaling": 0}}, "lora: LoRA scaling must be non-zero, got 0.0"),
        ({"mic": {"gamma_focal": -2}}, "mic: gamma_focal must be >= 0, got -2.0"),
        ({"mic": {"alpha_pos": 0}}, "mic: alpha_pos must be positive when given, got 0.0"),
        ({"mic": {"alpha_pos": -1}}, "mic: alpha_pos must be positive when given, got -1.0"),
        ({"mic": {"alpha_neg": 0}}, "mic: alpha_neg must be positive when given, got 0.0"),
        ({"model": {"init_std": 0}}, "model: init_std must be positive, got 0.0"),
        ({"model": {"init_std": -0.02}}, "model: init_std must be positive, got -0.02"),
        ({"screen": {"forbidden_motifs": ["KK", "KK"]}}, "screen: forbidden motif 'KK' is listed more than once"),
        (
            {"screen": {"external_minimums": [["plddt", 0.5], ["plddt", 0.2]]}},
            "screen: external minimum 'plddt' is listed more than once",
        ),
    ],
)
def test_bad_config_value_exits_2_before_writing_anything(tmp_path, capsys, monkeypatch, settings, message):
    monkeypatch.chdir(tmp_path)  # the default output directory
    (tmp_path / "nan.scale").write_text("hydropathy A nan\n")
    (tmp_path / "inf.scale").write_text("hydropathy K inf\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    fasta = _write_fasta(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(["props", "--input", str(fasta), "--config", str(cfg)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("dataprep", "min_len", None, "min_len must be int, got null"),
        ("eval", "thresholds", 3, "thresholds must be list[float], got 3"),
        ("dataprep", "fractions", [0.5, "x", 0.5], 'fractions must be list[float], got [0.5, "x", 0.5]'),
        ("sample", "n", 2.5, "n must be int, got 2.5"),
        ("library", "top_k", True, "top_k must be int | None, got true"),
        ("lora", "targets", "wq", 'targets must be list[str], got "wq"'),
    ],
)
def test_plain_section_value_of_the_wrong_type_is_config_error(tmp_path, capsys, section, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "o"
    assert main(["dataprep", "--input", str(_write_fasta(tmp_path)), "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert f"config error: {section}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_assay_subcommand_end_to_end(tmp_path, capsys):
    table = tmp_path / "assay.tsv"
    table.write_text(
        "peptide_id\ttime_min\tsample_fluor\tcontrol_fluor\n"
        "hot\t0\t100\t100\nhot\t10\t220\t100\nhot\t20\t210\t100\n"
        "cold\t0\t100\t100\ncold\t10\t104\t100\ncold\t20\t101\t100\n"
    )
    out = tmp_path / "out"
    assert main(["assay", "--input", str(table), "--output-dir", str(out)]) == 0
    summary = (out / "assay_summary.tsv").read_text().splitlines()
    assert summary[0].split("\t") == ["peptide_id", "max_rel", "auc", "category"]
    assert len(summary) == 3
    medians = json.loads((out / "assay_medians.json").read_text())
    assert set(medians) == {"max_rel", "auc"}


@pytest.mark.parametrize("row", ["cold\t20\tnan\t100", "cold\tinf\t101\t100", "cold\t20\t101\t-Infinity"])
def test_assay_rejects_a_value_that_is_not_finite(tmp_path, capsys, row):
    # one NaN sample would make both medians NaN and label every peptide weak
    table = tmp_path / "assay.tsv"
    table.write_text(
        "peptide_id\ttime_min\tsample_fluor\tcontrol_fluor\n"
        "hot\t0\t100\t100\nhot\t10\t220\t100\nhot\t20\t210\t100\n"
        f"cold\t0\t100\t100\ncold\t10\t104\t100\n{row}\n"
    )
    out = tmp_path / "out"
    assert main(["assay", "--input", str(table), "--output-dir", str(out)]) == 1
    assert f"error: {table} line 7: time and fluorescence must be finite" in capsys.readouterr().err
    assert not (out / "assay_summary.tsv").exists()


def test_dataprep_subcommand_writes_splits(tmp_path, capsys):
    import numpy as np

    from conftest import random_peptides

    rng = np.random.default_rng(11)
    peps = random_peptides(30, rng, min_len=10, max_len=24)
    fasta = tmp_path / "corpus.fasta"
    write_fasta(peps, fasta)
    out = tmp_path / "out"
    assert main(["dataprep", "--input", str(fasta), "--output-dir", str(out)]) == 0
    for name in ("train.fasta", "val.fasta", "test.fasta", "split_manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "split_manifest.json").read_text())
    assert sum(s["count"] for s in manifest["splits"].values()) == 30


def test_rl_and_build_library_use_the_override_scale(tmp_path, capsys):
    from amprl.physchem import DEFAULT_SCALE, DESCRIPTORS, descriptor_vector, load_scale_overrides
    from amprl.policy import ModelConfig, PolicyModel

    PolicyModel.init(ModelConfig(embed_dim=16, n_layers=1, n_heads=2, max_len=10, mlp_ratio=2), seed=3).save(
        tmp_path / "sft.ckpt"
    )
    embedder = Embedder()
    embedder.fit(embedder.features([Peptide("a", "GLWKKILGKIKAGL"), Peptide("b", "KKLLDDAAWWRRHH")]))
    MicModel.init(embedder, MicConfig(hidden=(4,)), seed=0).save(tmp_path / "mic.ckpt")
    (tmp_path / "scale.txt").write_text("hydropathy K 3.0\nhydropathy L -2.0\n")
    override = load_scale_overrides(tmp_path / "scale.txt")
    section = {
        "ppo": {"iterations": 1, "n_actors": 8, "horizon": 11, "max_len": 10, "minibatch_size": 4, "epochs": 1},
        "screen": {"min_length": 1, "max_length": 10, "batch_size": 16},
        "library": {"target_count": 8},
    }
    logs = {}
    for name, overrides in (("default", None), ("override", str(tmp_path / "scale.txt"))):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**section, "scales": {"overrides": overrides}}))
        out = tmp_path / name
        common = ["--config", str(cfg), "--output-dir", str(out)]
        rl = ["rl", "--sft-checkpoint", str(tmp_path / "sft.ckpt"), "--mic-model", str(tmp_path / "mic.ckpt")]
        assert main(rl + common) == 0
        library = ["build-library", "--checkpoint", str(out / "rl.ckpt"), "--mic-model", str(tmp_path / "mic.ckpt")]
        assert main(library + common) == 0
        header, row = (out / "rl_log.tsv").read_text().splitlines()
        logs[name] = dict(zip(header.split("\t"), row.split("\t")))
        scale = DEFAULT_SCALE if overrides is None else override
        for line in (out / "library.jsonl").read_text().splitlines():
            record = json.loads(line)
            pep = Peptide("x", record["peptide"]["residues"])
            assert record["properties"]["hydrophobicity"] == descriptor_vector(pep, scale)[DESCRIPTORS.index("hydrophobicity")]
    # the same peptides are sampled in both runs; only their hydropathy differs
    assert logs["default"]["mean_charge"] == logs["override"]["mean_charge"]
    assert logs["default"]["mean_hydrophobicity"] != logs["override"]["mean_hydrophobicity"]


TOY_PPO = {"iterations": 1, "n_actors": 8, "horizon": 11, "max_len": 10, "minibatch_size": 4, "epochs": 2}


def _rl_inputs(tmp_path, **sections):
    """An SFT policy, a classifier and a run config for a one-iteration `rl` on the toy policy."""
    from amprl.policy import ModelConfig, PolicyModel

    PolicyModel.init(ModelConfig(**TOY_POLICY), seed=3).save(tmp_path / "sft.ckpt")
    _save_mic(tmp_path / "mic.ckpt")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"ppo": TOY_PPO, **sections}))
    return cfg


def _rl(tmp_path, cfg, checkpoint, out):
    argv = ["rl", "--sft-checkpoint", str(checkpoint), "--mic-model", str(tmp_path / "mic.ckpt")]
    return main(argv + ["--config", str(cfg), "--output-dir", str(out)])


@pytest.mark.parametrize("resume_from", ["rl.ckpt", "policy_iter0001.ckpt"])
def test_rl_from_a_lora_checkpoint_trains_only_its_adapters_and_value_head(tmp_path, capsys, resume_from):
    cfg = _rl_inputs(tmp_path, ppo={**TOY_PPO, "checkpoint_every": 1})
    assert _rl(tmp_path, cfg, tmp_path / "sft.ckpt", tmp_path / "first") == 0
    assert _rl(tmp_path, cfg, tmp_path / "first" / resume_from, tmp_path / "second") == 0
    before, _ = nm.load_checkpoint(tmp_path / "first" / resume_from)
    after, _ = nm.load_checkpoint(tmp_path / "second" / "rl.ckpt")
    assert sorted(before) == sorted(after)
    changed = {name for name in before if before[name].tobytes() != after[name].tobytes()}
    adapters = {name for name in before if ".lora_" in name}
    assert changed - adapters == {"value.w", "value.b"}
    assert changed & adapters  # the resumed run did train


@pytest.mark.parametrize(
    "lora, named",
    [
        ({"rank": 4}, "rank=4"),
        ({"scaling": 2.0}, "scaling=2.0"),
        ({"targets": ["wq", "wk"]}, "targets=('wq', 'wk')"),
    ],
    ids=["rank", "scaling", "targets"],
)
def test_rl_from_a_lora_checkpoint_with_another_lora_section_exits_two(tmp_path, capsys, lora, named):
    from amprl.policy import PolicyModel, attach_lora

    cfg = _rl_inputs(tmp_path, lora={"rank": 2, "scaling": 1.0, "targets": ["wv", "wq"], **lora})
    checkpoint = tmp_path / "lora.ckpt"
    attach_lora(PolicyModel.load(tmp_path / "sft.ckpt"), rank=2, scaling=1.0, targets=("wq", "wv")).save(checkpoint)
    out = tmp_path / "out"
    assert _rl(tmp_path, cfg, checkpoint, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {checkpoint} holds LoRA LoraConfig(rank=2, scaling=1.0, targets=('wq', 'wv'))")
    assert named in err.split("but the run's lora section is LoraConfig(")[1]
    assert not (out / "rl.ckpt").exists() and not (out / "rl_log.tsv").exists()


def test_manifest_records_the_lora_section_mismatch_as_a_config_error(tmp_path, capsys):
    from amprl.policy import PolicyModel, attach_lora

    # the one config error found after resolved_config.json is written: it needs the checkpoint's adapters
    cfg = _rl_inputs(tmp_path, lora={"rank": 4, "scaling": 1.0, "targets": ["wq", "wv"]})
    checkpoint = tmp_path / "lora.ckpt"
    attach_lora(PolicyModel.load(tmp_path / "sft.ckpt"), rank=2, scaling=1.0, targets=("wq", "wv")).save(checkpoint)
    out = tmp_path / "out"
    assert _rl(tmp_path, cfg, checkpoint, out) == 2
    line = capsys.readouterr().err.rstrip("\n")
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["command"], manifest["exit_code"], manifest["error"]) == ("rl", 2, line)
    assert line.startswith(f"config error: {checkpoint} holds LoRA ")
    assert json.loads((out / "resolved_config.json").read_text())["lora"]["rank"] == 4


def test_rl_from_a_lora_checkpoint_runs_when_its_lora_section_names_the_same_adapters(tmp_path, capsys):
    from amprl.policy import PolicyModel, attach_lora

    # the same projections in another order, and a repeated one, make the same adapters
    cfg = _rl_inputs(tmp_path, lora={"rank": 2, "scaling": 1.0, "targets": ["wv", "wq", "wv"]})
    checkpoint = tmp_path / "lora.ckpt"
    attach_lora(PolicyModel.load(tmp_path / "sft.ckpt"), rank=2, scaling=1.0, targets=("wq", "wv")).save(checkpoint)
    assert _rl(tmp_path, cfg, checkpoint, tmp_path / "out") == 0
    assert (tmp_path / "out" / "rl.ckpt").exists()


@pytest.mark.parametrize("empty", ["generated", "reference"])
def test_eval_with_an_empty_set_exits_one(tmp_path, capsys, empty):
    paths = {"generated": _write_fasta(tmp_path, "gen.fasta"), "reference": _write_fasta(tmp_path, "ref.fasta")}
    paths[empty].write_text("")
    out = tmp_path / "out"
    argv = ["eval", "--generated", str(paths["generated"]), "--reference", str(paths["reference"])]
    assert main(argv + ["--output-dir", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "comparison.json").exists()


def test_non_ascii_inputs_are_read_as_utf8_under_a_c_locale(tmp_path):
    """Each input holds a non-ASCII character; the locale's encoding is ASCII."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "amprl.cli", *argv], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")

    def write(name, text):
        (tmp_path / name).write_text(text, encoding="utf-8")
        return str(tmp_path / name)

    peps = unique_random_peptides(10, np.random.default_rng(12), min_len=10, max_len=20)
    fasta = write("in.fasta", "".join(f">{p.id} Défensine n°{k}\n{p.residues}\n" for k, p in enumerate(peps)))
    config = write("cfg.json", json.dumps({"paths": {"outputs": "sortie-é"}}, ensure_ascii=False))
    run("props", "--input", fasta, "--config", config, "--output-dir", str(tmp_path / "props"))
    assert len((tmp_path / "props" / "props.tsv").read_text(encoding="utf-8").splitlines()) == 11

    clusters = write("clusters.tsv", "# grappes à la main\n" + "".join(f"{p.id}\tgroupe-α{k}\n" for k, p in enumerate(peps)))
    run("dataprep", "--input", fasta, "--clusters", clusters, "--output-dir", str(tmp_path / "dataprep"))
    manifest = json.loads((tmp_path / "dataprep" / "split_manifest.json").read_text(encoding="utf-8"))
    assert sum(s["count"] for s in manifest["splits"].values()) == 10

    assay = write(
        "assay.tsv",
        "peptide_id\ttime_min\tsample_fluor\tcontrol_fluor\n"
        "pépt-chaud\t0\t100\t100\npépt-chaud\t10\t220\t100\npépt-froid\t0\t100\t100\npépt-froid\t10\t104\t100\n",
    )
    run("assay", "--input", assay, "--output-dir", str(tmp_path / "assay"))
    summary = (tmp_path / "assay" / "assay_summary.tsv").read_text(encoding="utf-8")
    assert "pépt-chaud\t" in summary and "pépt-froid\t" in summary

    scores = write("scores.jsonl", json.dumps({"sequence": peps[0].residues, "scores": {"hélicité": 0.9}}, ensure_ascii=False) + "\n")
    mic = str(_save_mic(tmp_path / "mic.ckpt"))
    run("screen", "--mic-model", mic, "--input", fasta, "--external-scores", scores, "--output-dir", str(tmp_path / "screen"))
    rows = [json.loads(line) for line in (tmp_path / "screen" / "screened.jsonl").read_text(encoding="utf-8").splitlines()]
    assert rows[0]["external_scores"] == {"hélicité": 0.9}
