"""The three benchmark workloads: seeded inputs, the timed CLI stages, and
the correctness checks run on the artifacts afterwards.

Every input is generated from the workload seed, so the same seed gives the
same bytes. Each workload names its stages in execution order; the first
two are the ones reported as ``first_stage_s`` and ``second_stage_s``.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"

# One reduced transformer for every workload: the default ModelConfig makes
# a single 32-row sample take ~18 s on one core, which would leave room for
# less than one repetition per run.
MODEL = {"embed_dim": 64, "n_layers": 2, "n_heads": 4, "max_len": 40, "mlp_ratio": 4, "init_std": 0.02}
MIN_LEN, MAX_LEN = 10, 40
CLUSTER_IDENTITY = 0.40
PERPLEXITY_LIMIT = 21.0
LOGPROB_TOL = 1e-9


class CheckFailed(Exception):
    """An artifact does not satisfy its workload's correctness check."""


@dataclass(frozen=True)
class Stage:
    name: str
    argv: Callable[[Path, Path], list[str]]  # (inputs dir, repetition dir) -> CLI argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int], None]
    stages: tuple[Stage, ...]
    checks: tuple[tuple[str, Callable[[Path, Path], None]], ...]  # (inputs dir, repetition dir)


# --- seeded input generators -------------------------------------------------


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), zlib.crc32(tag.encode())])


def markov_source(rng: np.random.Generator, concentration: float = 0.3) -> np.ndarray:
    """Row-stochastic 20x20 residue transition matrix; small concentration
    makes each residue favour a few successors, which SFT can learn."""
    return rng.dirichlet(np.full(20, concentration), size=20)


def markov_chain(rng: np.random.Generator, transitions: np.ndarray, length: int) -> str:
    cum = np.cumsum(transitions, axis=1)
    state = int(rng.integers(20))
    chain = [state]
    for u in rng.random(length - 1):
        state = min(int(np.searchsorted(cum[state], u, side="right")), 19)
        chain.append(state)
    return "".join(RESIDUES[s] for s in chain)


def lengths(rng: np.random.Generator, n: int, lo: int = MIN_LEN, hi: int = MAX_LEN) -> list[int]:
    """n lengths spread evenly over lo..hi, in random order: the residues vary
    with the seed but the total work, which grows with length, does not."""
    return [int(x) for x in rng.permutation(np.linspace(lo, hi, n).round())]


def random_residues(rng: np.random.Generator, length: int) -> str:
    return "".join(RESIDUES[i] for i in rng.integers(20, size=length))


def mutate(rng: np.random.Generator, residues: str, rate: float) -> str:
    """Point substitutions at `rate`, plus at most one single-residue indel."""
    out = [RESIDUES[int(rng.integers(20))] if rng.random() < rate else r for r in residues]
    roll = rng.random()
    pos = int(rng.integers(len(out)))
    if roll < 0.25 and len(out) > MIN_LEN:
        del out[pos]
    elif roll < 0.5 and len(out) < MAX_LEN:
        out.insert(pos, RESIDUES[int(rng.integers(20))])
    return "".join(out)


def as_labeled_set(rows: list[tuple[str, int]], split: str):
    from amprl.mic import LabeledSet
    from amprl.sequences import Peptide

    return LabeledSet(items=[(Peptide(f"{split}{i}", s), y) for i, (s, y) in enumerate(rows)], split=split)


def write_config(path: Path, seed: int, **sections) -> None:
    cfg = {"seed": seed % (1 << 31), "model": dict(MODEL)}
    cfg.update(sections)
    path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def labeled_set(rng: np.random.Generator, n: int) -> list[tuple[str, int]]:
    """Two Markov sources, one per class, so the classifier has signal."""
    sources = (markov_source(rng), markov_source(rng))
    return [(markov_chain(rng, sources[i % 2], length), i % 2) for i, length in enumerate(lengths(rng, n))]


def mic_checkpoint(inputs: Path, seed: int, n: int, epochs: int) -> None:
    """Train a small activity classifier for the stages that score peptides."""
    from amprl.config import mic_config, load_config
    from amprl.mic import Embedder, train_mic

    rng = _rng(seed, "mic")
    rows = labeled_set(rng, n)
    cfg = load_config(inputs / "config.json")
    cfg["mic"]["epochs"] = epochs
    cut = (3 * n) // 4
    model, _ = train_mic(as_labeled_set(rows[:cut], "train"), as_labeled_set(rows[cut:], "val"), mic_config(cfg), Embedder())
    model.save(inputs / "mic.ckpt")


# --- train -------------------------------------------------------------------

# Sizes here and below make each reported stage run for about 3-4 s on one
# core of a 2-vCPU Xeon host: stages of a second or less were swamped by
# host noise.
TRAIN_PEPTIDES, VAL_PEPTIDES, SFT_EPOCHS = 128, 32, 5
MIC_TRAIN, MIC_VAL, MIC_EPOCHS = 1500, 300, 30


def setup_train(inputs: Path, seed: int) -> None:
    from amprl.mic import write_labeled_tsv
    from amprl.sequences import Peptide, write_fasta

    rng = _rng(seed, "train")
    source = markov_source(rng)
    corpus = [markov_chain(rng, source, n) for n in lengths(rng, TRAIN_PEPTIDES + VAL_PEPTIDES)]
    write_fasta([Peptide(f"tr{i}", s) for i, s in enumerate(corpus[:TRAIN_PEPTIDES])], inputs / "train.fasta")
    write_fasta([Peptide(f"va{i}", s) for i, s in enumerate(corpus[TRAIN_PEPTIDES:])], inputs / "val.fasta")
    rows = labeled_set(rng, MIC_TRAIN + MIC_VAL)
    write_labeled_tsv(as_labeled_set(rows[:MIC_TRAIN], "train"), inputs / "mic_train.tsv")
    write_labeled_tsv(as_labeled_set(rows[MIC_TRAIN:], "val"), inputs / "mic_val.tsv")
    write_config(
        inputs / "config.json",
        seed,
        sft={"epochs": SFT_EPOCHS, "patience": SFT_EPOCHS, "batch_size": 32, "lr": 3e-3},
        mic={"epochs": MIC_EPOCHS, "patience": MIC_EPOCHS},
    )


def check_sft(inputs: Path, rep: Path) -> None:
    history = json.loads((rep / "sft" / "sft_history.json").read_text())
    for row in history["history"]:
        if not (math.isfinite(row["train_loss"]) and math.isfinite(row["val_perplexity"])):
            raise CheckFailed(f"non-finite SFT loss at epoch {row['epoch']}")
    best = history["best_val_perplexity"]
    if not best < PERPLEXITY_LIMIT:
        raise CheckFailed(f"validation perplexity {best} is not below {PERPLEXITY_LIMIT}")


def check_mic(inputs: Path, rep: Path) -> None:
    metrics = json.loads((rep / "train-mic" / "mic_metrics.json").read_text())
    if metrics.get("auroc") is None:
        raise CheckFailed("classifier AUROC is None")


# --- generate ----------------------------------------------------------------

PPO = {"n_actors": 8, "iterations": 5, "epochs": 2, "minibatch_size": 4, "horizon": MAX_LEN + 1, "max_len": MAX_LEN}
LIBRARY_TARGET, LIBRARY_BATCH = 48, 16
EOS_BIAS = -3.0
CRITIC = ("value.w", "value.b")
CHECK_SAMPLES = 4


def setup_generate(inputs: Path, seed: int) -> None:
    from amprl.policy import EOS, ModelConfig, PolicyModel

    write_config(
        inputs / "config.json",
        seed,
        ppo=dict(PPO),
        screen={"batch_size": LIBRARY_BATCH, "min_length": 1, "max_length": MAX_LEN},
        library={"target_count": LIBRARY_TARGET},
    )
    # Sampling cost follows sequence lengths, not training, so an untrained
    # policy stands in for the SFT checkpoint. Its EOS logit is lowered so
    # most rows run to the residue cap: a batch then takes the same number
    # of decoding steps whatever the seed.
    policy = PolicyModel.init(ModelConfig(**MODEL), seed=seed % (1 << 31))
    policy.params["head.b"].data[EOS] = EOS_BIAS
    policy.save(inputs / "sft.ckpt")
    mic_checkpoint(inputs, seed, n=200, epochs=5)


def check_library(inputs: Path, rep: Path) -> None:
    from amprl.sequences import parse_fasta

    peptides = parse_fasta(rep / "build-library" / "library.fasta")
    residues = [p.residues for p in peptides]
    if len(residues) != LIBRARY_TARGET:
        raise CheckFailed(f"library holds {len(residues)} peptides, expected {LIBRARY_TARGET}")
    if len(set(residues)) != len(residues):
        raise CheckFailed("library peptides are not unique")
    bad = [r for r in residues if not 1 <= len(r) <= MAX_LEN]
    if bad:
        raise CheckFailed(f"{len(bad)} library peptides outside the length window 1..{MAX_LEN}")


def check_frozen_base(inputs: Path, rep: Path) -> None:
    from amprl.numerics import load_checkpoint

    base, _ = load_checkpoint(inputs / "sft.ckpt")
    tuned, _ = load_checkpoint(rep / "rl" / "rl.ckpt")
    tuned_base = {k: v for k, v in tuned.items() if not k.endswith((".lora_a", ".lora_b"))}
    if sorted(tuned_base) != sorted(base):
        raise CheckFailed("rl.ckpt base tensors differ in name from the SFT checkpoint")
    # attach_lora leaves the value head trainable: it is the PPO critic
    changed = [k for k in base if k not in CRITIC and not np.array_equal(base[k], tuned_base[k])]
    if changed:
        raise CheckFailed(f"RL changed frozen base tensors: {', '.join(changed[:3])}")
    if len(tuned) == len(tuned_base):
        raise CheckFailed("rl.ckpt carries no LoRA tensors")


def check_sample_rescore(inputs: Path, rep: Path) -> None:
    from amprl.policy import BOS, PAD, PolicyModel, sample, sequence_log_probs

    model = PolicyModel.load(rep / "rl" / "rl.ckpt")
    draws = sample(model, CHECK_SAMPLES, seed=1)
    width = max(d.tokens.size for d in draws) + 1
    ids = np.full((len(draws), width), PAD, dtype=np.int64)
    ids[:, 0] = BOS
    for i, d in enumerate(draws):
        ids[i, 1 : d.tokens.size + 1] = d.tokens
    rescored = sequence_log_probs(model, ids)
    for i, d in enumerate(draws):
        gap = float(np.max(np.abs(rescored[i, : d.tokens.size] - d.log_probs)))
        if not gap <= LOGPROB_TOL:
            raise CheckFailed(f"sampled log-probs differ from re-scored ones by {gap:.3g} in row {i}")


# --- curate ------------------------------------------------------------------

FAMILIES, FAMILY_SIZE, SINGLETONS = 20, 4, 60
FAMILY_RATE = 0.2
REFERENCE, NEAR_COPIES, NOVEL_QUERIES = 200, 8, 22
NEAR_RATE = 0.04
NOVELTY_SUBSET = 6
CLUSTERS_FILE = "clusters.tsv"  # written next to the repetition dirs


def setup_curate(inputs: Path, seed: int) -> None:
    from amprl.sequences import Peptide, write_fasta

    rng = _rng(seed, "curate")
    corpus: list[Peptide] = []
    for f, length in enumerate(lengths(rng, FAMILIES, MIN_LEN + 5)):
        founder = random_residues(rng, length)
        corpus.append(Peptide(f"fam{f}_0", founder))
        corpus.extend(Peptide(f"fam{f}_{k}", mutate(rng, founder, FAMILY_RATE)) for k in range(1, FAMILY_SIZE))
    corpus.extend(Peptide(f"single{i}", random_residues(rng, n)) for i, n in enumerate(lengths(rng, SINGLETONS)))
    order = rng.permutation(len(corpus))
    write_fasta([corpus[i] for i in order], inputs / "corpus.fasta")

    reference = [random_residues(rng, n) for n in lengths(rng, REFERENCE)]
    write_fasta([Peptide(f"ref{i}", s) for i, s in enumerate(reference)], inputs / "reference.fasta")
    # near copies of references at evenly spaced length ranks, so the total
    # query length, and with it the alignment work, does not depend on the seed
    by_length = sorted(range(REFERENCE), key=lambda i: (len(reference[i]), i))
    picks = [by_length[(2 * k + 1) * REFERENCE // (2 * NEAR_COPIES)] for k in range(NEAR_COPIES)]
    queries = [Peptide(f"near{i}", mutate(rng, reference[j], NEAR_RATE)) for i, j in enumerate(picks)]
    queries += [Peptide(f"novel{i}", random_residues(rng, n)) for i, n in enumerate(lengths(rng, NOVEL_QUERIES))]
    write_fasta([queries[i] for i in rng.permutation(len(queries))], inputs / "candidates.fasta")

    write_config(
        inputs / "config.json",
        seed,
        dataprep={"identity_threshold": CLUSTER_IDENTITY, "min_len": MIN_LEN, "max_len": MAX_LEN},
        # every candidate reaches the novelty filter, so its cost does not
        # hinge on classifier scores
        screen={"mic_cutoff": 0.0},
    )
    mic_checkpoint(inputs, seed, n=200, epochs=5)


def write_clusters(path: Path, clusters) -> None:
    """Cluster membership, which dataprep writes nowhere: "<representative id>\t<member id>" lines."""
    lines = [f"{c.representative.id}\t{m.id}" for c in clusters for m in c.members]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_clusters(inputs: Path, rep: Path) -> None:
    from amprl.alignment import identity_global
    from amprl.sequences import parse_fasta

    by_id = {p.id: p.residues for p in parse_fasta(inputs / "corpus.fasta")}
    pairs = [line.split("\t") for line in (rep.parent / CLUSTERS_FILE).read_text().splitlines()]
    members = [m for _, m in pairs]
    if sorted(members) != sorted(by_id):
        raise CheckFailed("clusters do not partition the input")
    manifest = json.loads((rep / "dataprep" / "split_manifest.json").read_text())
    assigned = [(pid, name) for name, part in manifest["splits"].items() for pid in part["ids"]]
    if sorted(pid for pid, _ in assigned) != sorted(by_id):
        raise CheckFailed("splits do not partition the input")
    split_of = dict(assigned)
    for rep_id, member in pairs:
        if split_of[member] != split_of[rep_id]:
            raise CheckFailed(f"cluster of {rep_id} is split across {split_of[rep_id]} and {split_of[member]}")
        a, b = by_id[member], by_id[rep_id]
        if a != b and identity_global(a, b) < CLUSTER_IDENTITY:
            raise CheckFailed(f"{member} matches its representative {rep_id} below {CLUSTER_IDENTITY}")


def check_novelty(inputs: Path, rep: Path) -> None:
    from amprl.alignment import align_local
    from amprl.config import load_config, screen_config
    from amprl.sequences import parse_fasta

    cfg = screen_config(load_config(inputs / "config.json"))
    reference = parse_fasta(inputs / "reference.fasta")
    verdicts = {}
    for line in (rep / "screen" / "screened.jsonl").read_text().splitlines():
        row = json.loads(line)
        verdicts[row["peptide"]["id"]] = "novelty" in row["reject_reasons"]
    queries = parse_fasta(inputs / "candidates.fasta")[:NOVELTY_SUBSET]
    for query in queries:
        similar = False
        for target in reference:
            aln = align_local(query.residues, target.residues)
            if aln is not None and aln.columns > cfg.novelty_coverage * len(query) and aln.identity >= cfg.novelty_identity:
                similar = True
                break
        if query.id not in verdicts:
            raise CheckFailed(f"screened.jsonl lacks candidate {query.id}")
        if verdicts[query.id] != similar:
            raise CheckFailed(f"novelty decision for {query.id} differs from a scalar align_local recomputation")


def _cli(command: str, inputs: Path, rep: Path, **files: Path) -> list[str]:
    """argv of one stage: shared config, output under the repetition dir,
    and each keyword as a file flag (mic_model -> --mic-model)."""
    argv = [command, "--config", str(inputs / "config.json"), "--output-dir", str(rep / command)]
    for flag, path in files.items():
        argv += ["--" + flag.replace("_", "-"), str(path)]
    return argv


WORKLOADS = {
    "train": Workload(
        name="train",
        why="SFT then classifier training: full backward plus Adam over all parameters, no sampling, no alignment",
        setup=setup_train,
        stages=(
            Stage("sft", lambda i, r: _cli("sft", i, r, train=i / "train.fasta", val=i / "val.fasta")),
            Stage("train-mic", lambda i, r: _cli("train-mic", i, r, train=i / "mic_train.tsv", val=i / "mic_val.tsv")),
        ),
        checks=(("sft", check_sft), ("mic", check_mic)),
    ),
    "generate": Workload(
        name="generate",
        why="PPO then library building: forward-only decoding and LoRA-only gradients, no alignment",
        setup=setup_generate,
        stages=(
            Stage("rl", lambda i, r: _cli("rl", i, r, sft_checkpoint=i / "sft.ckpt", mic_model=i / "mic.ckpt")),
            Stage("build-library", lambda i, r: _cli(
                "build-library", i, r, checkpoint=r / "rl" / "rl.ckpt", mic_model=i / "mic.ckpt")),
        ),
        checks=(("library", check_library), ("frozen_base", check_frozen_base), ("sample_rescore", check_sample_rescore)),
    ),
    "curate": Workload(
        name="curate",
        why="clustering, novelty screening and set comparison: alignment dominates and the policy is absent",
        setup=setup_curate,
        stages=(
            Stage("dataprep", lambda i, r: _cli("dataprep", i, r, input=i / "corpus.fasta")),
            Stage("screen", lambda i, r: _cli(
                "screen", i, r, input=i / "candidates.fasta", mic_model=i / "mic.ckpt", reference=i / "reference.fasta")),
            Stage("eval", lambda i, r: _cli("eval", i, r, generated=i / "corpus.fasta", reference=i / "reference.fasta")),
        ),
        checks=(("clusters", check_clusters), ("novelty", check_novelty)),
    ),
}
