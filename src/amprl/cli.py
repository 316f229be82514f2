"""Command-line entry point for the peptide design pipeline.

Subcommands cover dataset curation, generator and classifier training, RL
tuning, sampling, screening, library construction, distribution evaluation,
and assay analysis. Exit codes: 0 success, 1 runtime error, 2 usage or
config error. Every run writes a resolved-config copy and a run manifest
(the only artifact holding timestamps) into the output directory.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import ConfigError, Run, apply_overrides, build_run, load_config
from .sequences import PeptideTable, parse_fasta, write_fasta, write_json, write_records, write_tsv

ENV_OUTPUT_DIR = "AMPRL_OUTPUT_DIR"


def _require(path: str | None, what: str) -> Path:
    if path is None:
        raise ConfigError(f"{what} is required")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _resolve_output_dir(args, run: Run) -> Path:
    if getattr(args, "output_dir", None):
        chosen = args.output_dir
    elif os.environ.get(ENV_OUTPUT_DIR):
        chosen = os.environ[ENV_OUTPUT_DIR]
    else:
        chosen = run.paths.outputs
    out = Path(chosen)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, argv: list[str], out: Path) -> None:
    manifest = {
        "command": args.command,
        "argv": argv,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    write_json(manifest, out / "run_manifest.json")


# --- subcommand handlers ----------------------------------------------------


def _cmd_props(args, run: Run, out: Path) -> int:
    from .physchem import descriptors

    peptides = parse_fasta(_require(args.input, "--input"))
    write_records(PeptideTable(peptides, descriptors(peptides, run.scales)), "tsv", out / "props.tsv")
    print(f"props: {len(peptides)} records -> {out / 'props.tsv'}")
    return 0


def _cmd_dataprep(args, run: Run, out: Path) -> int:
    from . import dataprep as dp
    from .mic import write_labeled_tsv

    section, seed = run.dataprep, run.seed
    if args.positives or args.negatives:
        if not (args.positives and args.negatives):
            raise ConfigError("balance mode needs both --positives and --negatives")
        if args.input:
            raise ConfigError("--input and --positives/--negatives are mutually exclusive")
        pos = parse_fasta(_require(args.positives, "--positives"))
        neg = parse_fasta(_require(args.negatives, "--negatives"))
        balanced = dp.balance(pos, neg, seed=seed)
        write_labeled_tsv(balanced, out / "balanced.tsv")
        print(f"dataprep: balanced {len(pos)}+{len(neg)} -> {len(balanced)} -> {out / 'balanced.tsv'}")
        return 0

    peptides = parse_fasta(_require(args.input, "--input"))
    kept, rejected = dp.length_filter(peptides, section.min_len, section.max_len)
    if rejected:
        write_fasta(rejected, out / "length_rejected.fasta")
    if not kept:
        raise ValueError("no sequences survive the length filter")
    if args.clusters:
        clusters = dp.read_cluster_assignments(_require(args.clusters, "--clusters"), kept)
    else:
        clusters = dp.greedy_cluster(kept, section.identity_threshold)
    fractions = section.fractions
    splits = dp.split_by_cluster(clusters, fractions, seed=seed)
    names = ("train", "val", "test") if len(fractions) == 3 else tuple(f"split{i}" for i in range(len(fractions)))
    for name, part in zip(names, splits):
        write_fasta(part, out / f"{name}.fasta")
    dp.write_split_manifest(out / "split_manifest.json", names, splits, fractions, seed)
    sizes = ", ".join(f"{name}={len(part)}" for name, part in zip(names, splits))
    print(f"dataprep: {len(peptides)} in, {len(clusters)} clusters, {sizes}")
    return 0


def _cmd_sft(args, run: Run, out: Path) -> int:
    from .policy import PolicyModel, train_sft

    train = parse_fasta(_require(args.train, "--train"))
    val = parse_fasta(_require(args.val, "--val"))
    model = PolicyModel.init(run.model, seed=run.seed)
    result = train_sft(model, train, val, run.sft)
    result.model.save(out / "sft.ckpt")
    write_json(
        {
            "history": result.history,
            "best_epoch": result.best_epoch,
            "best_val_perplexity": result.best_val_perplexity,
        },
        out / "sft_history.json",
    )
    print(f"sft: best val perplexity {result.best_val_perplexity:.4f} at epoch {result.best_epoch}")
    return 0


def _cmd_train_mic(args, run: Run, out: Path) -> int:
    from .mic import Embedder, evaluate, read_labeled_tsv, train_mic

    train = read_labeled_tsv(_require(args.train, "--train"), split="train")
    val = read_labeled_tsv(_require(args.val, "--val"), split="val")
    embedder = Embedder(scale=run.scales)
    model, history = train_mic(train, val, run.mic, embedder)
    model.save(out / "mic.ckpt")
    write_json(history, out / "mic_history.json")
    metrics = evaluate(model, val)
    write_json(metrics, out / "mic_metrics.json")
    print(f"train-mic: val auroc {metrics['auroc']}")
    return 0


def _cmd_score_mic(args, run: Run, out: Path) -> int:
    from .mic import MicModel

    model = MicModel.load(_require(args.model, "--model"))
    peptides = parse_fasta(_require(args.input, "--input"))
    rows = [(p.id, p.residues, repr(float(s))) for p, s in zip(peptides, model.score_many(peptides))]
    write_tsv(("id", "sequence", "mic_score"), rows, out / "scores.tsv")
    print(f"score-mic: {len(peptides)} sequences -> {out / 'scores.tsv'}")
    return 0


def _cmd_sample(args, run: Run, out: Path) -> int:
    from .policy import PolicyModel, sample

    model = PolicyModel.load(_require(args.checkpoint, "--checkpoint"))
    draws = sample(
        model,
        run.sample.n,
        temperature=run.sample.temperature,
        top_k=run.sample.top_k,
        seed=run.seed,
    )
    write_fasta([d.peptide for d in draws], out / "samples.fasta")
    print(f"sample: {len(draws)} sequences -> {out / 'samples.fasta'}")
    return 0


def _cmd_rl(args, run: Run, out: Path) -> int:
    from .mic import MicModel
    from .policy import LoraConfig, PolicyModel, attach_lora
    from .ppo import train_rl

    policy, lora = PolicyModel.load(_require(args.sft_checkpoint, "--sft-checkpoint")), run.lora
    if not policy.lora:
        attach_lora(policy, rank=lora.rank, scaling=lora.scaling, targets=lora.targets, seed=run.seed)
    elif policy.lora_config() != LoraConfig(lora.rank, lora.scaling, tuple(sorted(set(lora.targets)))):
        raise ConfigError(f"{args.sft_checkpoint} holds LoRA {policy.lora_config()}, but the run's lora section is {lora}")
    scorer = MicModel.load(_require(args.mic_model, "--mic-model"))
    policy, logs = train_rl(
        policy,
        scorer,
        run.reward,
        run.ppo,
        seed=run.seed,
        log_sink=out / "rl_log.tsv",
        checkpoint_dir=out if run.ppo.checkpoint_every else None,
        scale=run.scales,
    )
    policy.save(out / "rl.ckpt")
    last = logs[-1] if logs else {}
    print(f"rl: {len(logs)} iterations, final mean reward {last.get('mean_reward')}")
    return 0


def _cmd_screen(args, run: Run, out: Path) -> int:
    from . import screening as sc
    from .alignment import write_hit_table
    from .mic import Embedder, MicModel

    scfg, scale = run.screen, run.scales
    candidates = parse_fasta(_require(args.input, "--input"))
    scorer = MicModel.load(_require(args.mic_model, "--mic-model"))
    external = sc.read_external_scores(_require(args.external_scores, "--external-scores")) if args.external_scores else None
    table = sc.screen(sc.annotate(candidates, scorer, external, scale), scfg)
    hits = []
    if args.reference:
        reference = parse_fasta(_require(args.reference, "--reference"), source="external")
        _, removed, hits = sc.novelty_filter(table, reference, scfg)
        table = table.reject(removed, "novelty")
    write_hit_table(hits, out / "hits.tsv")
    write_records(table, "jsonl", out / "screened.jsonl")
    ranked = sc.prioritize(table, sc.default_property_windows(run.reward), hits)
    selected = ranked
    if len(ranked):
        raw = table.features[ranked]
        selected = sc.diversity_select(ranked, scfg.diversity_k, Embedder(scale).fit(raw).standardize(raw))
    write_fasta([table.peptides[i] for i in selected], out / "selected.fasta")
    write_records(table.take(selected), "jsonl", out / "selected.jsonl")
    print(f"screen: {len(ranked)} kept, {len(table) - len(ranked)} rejected, {len(selected)} selected")
    return 0


def _cmd_build_library(args, run: Run, out: Path) -> int:
    from . import screening as sc
    from .mic import MicModel
    from .policy import PolicyModel

    policy = PolicyModel.load(_require(args.checkpoint, "--checkpoint"))
    scorer = MicModel.load(_require(args.mic_model, "--mic-model"))
    external = sc.read_external_scores(_require(args.external_scores, "--external-scores")) if args.external_scores else None
    table, stats = sc.build_library(
        policy,
        scorer,
        run.library.target_count,
        run.screen,
        seed=run.seed,
        out_dir=out,
        external_scores=external,
        temperature=run.library.temperature,
        top_k=run.library.top_k,
        scale=run.scales,
    )
    print(f"build-library: {len(table)} unique sequences from {stats['sampled_total']} samples")
    return 0


def _cmd_eval(args, run: Run, out: Path) -> int:
    from . import evalmetrics as ev

    generated = parse_fasta(_require(args.generated, "--generated"), source="generated_sft")
    reference = parse_fasta(_require(args.reference, "--reference"))
    report, (gen_emb, ref_emb) = ev.compare_sets(args.name, generated, reference, run.eval, run.scales)
    write_json(report, out / "comparison.json")
    ev.write_comparison_tsv(report, out / "comparison.tsv")
    if args.export_embeddings:
        ev.export_embeddings_tsv(generated, gen_emb, out / "embeddings_generated.tsv")
        ev.export_embeddings_tsv(reference, ref_emb, out / "embeddings_reference.tsv")
    print(f"eval: jsd {report['jsd']:.4f}, pearson {report['pearson']}")
    return 0


def _cmd_assay(args, run: Run, out: Path) -> int:
    from . import assay as ay

    series = ay.read_assay_tsv(_require(args.input, "--input"))
    summaries = [ay.summarize(s) for s in series]
    classified, medians = ay.classify_quadrants(summaries)
    ay.write_summaries(classified, out / "assay_summary.tsv")
    write_json(medians, out / "assay_medians.json")
    counts = {c: sum(1 for s in classified if s.category == c) for c in ay.CATEGORIES}
    print(f"assay: {len(classified)} series, categories {counts}")
    return 0


# --- parser -----------------------------------------------------------------


def _set_name(text: str) -> str:
    """An `eval --name`: one TSV cell, so no tab or line break, and valid UTF-8 (no surrogate-escaped argv byte)."""
    if "\t" in text or "".join(text.splitlines()) != text:
        raise argparse.ArgumentTypeError(f"{text!r} holds a tab or a line break")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"{text!r} is not valid UTF-8") from None
    return text


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run-config file")
    sub.add_argument("--seed", type=int, help="global seed override")
    sub.add_argument("--output-dir", help=f"artifact directory (or ${ENV_OUTPUT_DIR})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="amprl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"amprl {__version__}")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("props", help="compute physicochemical descriptors for a FASTA")
    p.add_argument("--input", help="input FASTA")
    p.set_defaults(handler=_cmd_props)

    p = subs.add_parser("dataprep", help="length-filter, cluster, and split a corpus; or balance two classes")
    p.add_argument("--input", help="FASTA to filter/cluster/split")
    p.add_argument("--clusters", help="external (sequence_id, cluster_id) TSV")
    p.add_argument("--positives", help="FASTA of positive sequences (balance mode)")
    p.add_argument("--negatives", help="FASTA of negative sequences (balance mode)")
    p.set_defaults(handler=_cmd_dataprep)

    p = subs.add_parser("sft", help="supervised fine-tuning of the generator")
    p.add_argument("--train", help="training FASTA")
    p.add_argument("--val", help="validation FASTA")
    p.set_defaults(handler=_cmd_sft)

    p = subs.add_parser("train-mic", help="train the activity classifier")
    p.add_argument("--train", help="labeled training TSV (sequence, label)")
    p.add_argument("--val", help="labeled validation TSV")
    p.set_defaults(handler=_cmd_train_mic)

    p = subs.add_parser("score-mic", help="score sequences with a trained classifier")
    p.add_argument("--model", help="classifier checkpoint")
    p.add_argument("--input", help="input FASTA")
    p.set_defaults(handler=_cmd_score_mic)

    p = subs.add_parser("sample", help="draw sequences from a policy checkpoint")
    p.add_argument("--checkpoint", help="policy checkpoint")
    p.add_argument("-n", type=int, dest="n", help="number of sequences")
    p.add_argument("--temperature", type=float, help="sampling temperature")
    p.add_argument("--top-k", type=int, dest="top_k", help="top-k truncation")
    p.set_defaults(handler=_cmd_sample, overrides={"n": "sample.n", "temperature": "sample.temperature", "top_k": "sample.top_k"})

    p = subs.add_parser("rl", help="PPO fine-tuning against the learned reward")
    p.add_argument("--sft-checkpoint", help="starting policy checkpoint")
    p.add_argument("--mic-model", help="classifier checkpoint used in the reward")
    p.set_defaults(handler=_cmd_rl)

    p = subs.add_parser("screen", help="filter, novelty-check, rank, and diversify candidates")
    p.add_argument("--input", help="candidate FASTA")
    p.add_argument("--mic-model", help="classifier checkpoint")
    p.add_argument("--reference", help="reference FASTA for the novelty filter")
    p.add_argument("--external-scores", help="JSONL of third-party per-sequence scores")
    p.set_defaults(handler=_cmd_screen)

    p = subs.add_parser("build-library", help="sample, deduplicate, and annotate a sequence library")
    p.add_argument("--checkpoint", help="policy checkpoint")
    p.add_argument("--mic-model", help="classifier checkpoint")
    p.add_argument("--external-scores", help="JSONL of third-party per-sequence scores")
    p.add_argument("--target-count", type=int, dest="target_count", help="unique sequences to collect")
    p.set_defaults(handler=_cmd_build_library, overrides={"target_count": "library.target_count"})

    p = subs.add_parser("eval", help="distribution comparison between two sets")
    p.add_argument("--generated", help="generated FASTA")
    p.add_argument("--reference", help="reference FASTA")
    p.add_argument("--name", default="generated", type=_set_name, help="set label used in the report (no tab or line break)")
    p.add_argument("--export-embeddings", action="store_true", help="also write raw embedding TSVs")
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("assay", help="kinetic summaries and quadrant classification")
    p.add_argument("--input", help="assay TSV (peptide_id, time_min, sample_fluor, control_fluor)")
    p.set_defaults(handler=_cmd_assay)

    for sub in subs.choices.values():
        _add_common(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, {"seed": args.seed})
        mapping = getattr(args, "overrides", {})
        apply_overrides(cfg, {dotted: getattr(args, attr) for attr, dotted in mapping.items()})
        run = build_run(cfg)
        out = _resolve_output_dir(args, run)
        write_json(cfg, out / "resolved_config.json")
        _write_manifest(args, argv, out)
        return args.handler(args, run, out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
