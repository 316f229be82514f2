"""Tests of the benchmark itself; run from the repository root with

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests

The whole file takes about three minutes on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import worker  # noqa: E402
from workloads import CLUSTERS_FILE, WORKLOADS  # noqa: E402

SEED = 5


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- the contract ----------------------------------------------------------


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.per_layer_spec()
    for name, _, _ in metrics.per_layer_spec():
        assert metrics.target_of(name)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name):
    proc = run_bench("--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m[0] for m in metrics.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_counts_and_digests_repeat_across_runs():
    counts, digests = [], []
    for _ in range(2):
        proc = run_bench("--workload", "curate", "--seed", str(SEED), "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc)
        assert result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(n for n, _, _ in metrics.per_layer_spec())
        counts.append({n: e["value"] for n, e in result["metrics"].items() if metrics.deterministic(e["unit"])})
        digests.append([line for line in proc.stdout.splitlines() if "artifact digest" in line])
    assert counts[0] == counts[1]
    assert counts[0]["alignment.identity_global.calls"] > 0
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_digest_ignores_only_the_manifest(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.txt").write_text("1")
    (tmp_path / "run_manifest.json").write_text("t0")
    before = worker.digest(tmp_path)
    (tmp_path / "run_manifest.json").write_text("t1")
    assert worker.digest(tmp_path) == before
    (tmp_path / "a" / "x.txt").write_text("2")
    assert worker.digest(tmp_path) != before


# --- each correctness check counts a corrupted artifact as one failure -------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One repetition of each workload, built in-process."""
    built = {}
    for name, workload in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        inputs = work / "inputs"
        inputs.mkdir()
        workload.setup(inputs, SEED)
        ops = worker.Operations()
        restore = worker.capture_clusters(work / CLUSTERS_FILE)
        try:
            worker.run_stages(workload, inputs, work / "rep0", ops)
        finally:
            restore()
        assert not ops.failures
        built[name] = work
    return built


def checked(artifacts, name, tmp_path, corrupt=None) -> worker.Operations:
    work = tmp_path / name
    shutil.copytree(artifacts[name], work)
    if corrupt:
        corrupt(work / "inputs", work / "rep0")
    ops = worker.Operations()
    worker.run_checks(WORKLOADS[name], work / "inputs", work / "rep0", ops)
    return ops


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_intact_artifacts_pass(artifacts, tmp_path, name):
    ops = checked(artifacts, name, tmp_path)
    assert ops.failures == [] and ops.attempted == len(WORKLOADS[name].checks)


def _edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _high_perplexity(inputs, rep):
    _edit_json(rep / "sft" / "sft_history.json", lambda d: d.update(best_val_perplexity=25.0))


def _nan_loss(inputs, rep):
    _edit_json(rep / "sft" / "sft_history.json", lambda d: d["history"][0].update(train_loss=float("nan")))


def _no_auroc(inputs, rep):
    _edit_json(rep / "train-mic" / "mic_metrics.json", lambda d: d.update(auroc=None))


def _duplicate_library_entry(inputs, rep):
    path = rep / "build-library" / "library.fasta"
    lines = path.read_text().splitlines()
    lines[3] = lines[1]
    path.write_text("\n".join(lines) + "\n")


def _changed_base(inputs, rep):
    from amprl.numerics import load_checkpoint, save_checkpoint

    path = rep / "rl" / "rl.ckpt"
    tensors, meta = load_checkpoint(path)
    tensors["layer0.attn.wq"] = tensors["layer0.attn.wq"] + 1e-3
    save_checkpoint(path, tensors, meta=meta)


def _truncated_rl_checkpoint(inputs, rep):
    path = rep / "rl" / "rl.ckpt"
    path.write_bytes(path.read_bytes()[:100])


def _misassigned_member(inputs, rep):
    path = rep.parent / CLUSTERS_FILE
    pairs = [line.split("\t") for line in path.read_text().splitlines()]
    reps = sorted({r for r, _ in pairs})
    # move a representative's first co-member into another cluster
    for i, (r, m) in enumerate(pairs):
        if m != r:
            pairs[i] = [next(x for x in reps if x != r), m]
            break
    path.write_text("\n".join("\t".join(p) for p in pairs) + "\n")


def _flipped_novelty(inputs, rep):
    from amprl.sequences import parse_fasta

    first = parse_fasta(inputs / "candidates.fasta")[0].id
    path = rep / "screen" / "screened.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        if row["peptide"]["id"] == first:
            row["reject_reasons"] = [] if "novelty" in row["reject_reasons"] else ["novelty"]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


@pytest.mark.parametrize(
    "name, corrupt, check",
    [
        ("train", _high_perplexity, "sft"),
        ("train", _nan_loss, "sft"),
        ("train", _no_auroc, "mic"),
        ("generate", _duplicate_library_entry, "library"),
        ("generate", _changed_base, "frozen_base"),
        ("curate", _misassigned_member, "clusters"),
        ("curate", _flipped_novelty, "novelty"),
    ],
)
def test_corrupted_artifact_fails_its_check(artifacts, tmp_path, name, corrupt, check):
    ops = checked(artifacts, name, tmp_path, corrupt)
    assert len(ops.failures) == 1 and ops.failures[0].startswith(f"check {check}:"), ops.failures
    assert ops.attempted == len(WORKLOADS[name].checks)


def test_truncated_checkpoint_fails_the_rescore_check(artifacts, tmp_path):
    ops = checked(artifacts, "generate", tmp_path, _truncated_rl_checkpoint)
    # every check that reads rl.ckpt fails, each once
    assert sorted(f.split(":")[0] for f in ops.failures) == ["check frozen_base", "check sample_rescore"]


def test_rescore_check_catches_a_scorer_that_disagrees(artifacts, tmp_path, monkeypatch):
    import amprl.policy

    original = amprl.policy.sequence_log_probs
    monkeypatch.setattr(amprl.policy, "sequence_log_probs", lambda model, ids: original(model, ids) + 1e-6)
    ops = checked(artifacts, "generate", tmp_path)
    assert [f.split(":")[0] for f in ops.failures] == ["check sample_rescore"]
