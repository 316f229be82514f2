"""CLI exit codes, output-directory precedence, and artifact layout."""
import json

import numpy as np
import pytest

from amprl.cli import ENV_OUTPUT_DIR, main
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


def test_missing_required_input_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["props", "--output-dir", str(out)]) == 2
    assert "--input is required" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["props", "--input", str(tmp_path / "nope.fasta"), "--output-dir", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err


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


def test_checkpoint_with_trailing_bytes_exits_one(tmp_path, capsys):
    path = _save_mic(tmp_path / "mic.ckpt")
    path.write_bytes(path.read_bytes() + b"\0")
    argv = ["score-mic", "--model", str(path), "--input", str(_write_fasta(tmp_path))]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {path}: 1 byte(s) after the last tensor" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.tsv").exists()


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
    assert set(manifest) == {"command", "argv", "version", "timestamp"}
    assert manifest["command"] == "props"
    resolved_text = (out / "resolved_config.json").read_text()
    assert "timestamp" not in resolved_text


def test_invalid_section_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reward": {"mix_lambda": 2.0}}))
    code = main(["props", "--input", str(_write_fasta(tmp_path)), "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


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
    assert "error: line 7: time and fluorescence must be finite" in capsys.readouterr().err
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
    from amprl.physchem import DEFAULT_SCALE, descriptor_vector, load_scale_overrides
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
            assert record["properties"]["hydrophobicity"] == descriptor_vector(pep, scale).hydrophobicity
    # the same peptides are sampled in both runs; only their hydropathy differs
    assert logs["default"]["mean_charge"] == logs["override"]["mean_charge"]
    assert logs["default"]["mean_hydrophobicity"] != logs["override"]["mean_hydrophobicity"]
