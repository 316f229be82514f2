"""Command-line entry point for the peptide design pipeline.

Subcommands cover dataset curation, generator and classifier training, RL
tuning, sampling, screening, library construction, distribution evaluation,
and assay analysis. Exit codes: 0 success, 1 runtime error, 2 usage or
config error. A run refused by its config or file flags writes nothing; a
run that starts writes a resolved-config copy first and a run manifest (the
only artifact holding timestamps; it records the exit code) last.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import ConfigError, Run, apply_overrides, build_run, load_config
from .sequences import PeptideTable, parse_fasta, write_fasta, write_json, write_records, write_tsv

ENV_OUTPUT_DIR = "AMPRL_OUTPUT_DIR"
FAILURES = (ValueError, ArithmeticError, RuntimeError, OSError)  # ConfigError is a ValueError


def _check_files(args) -> None:
    """Refuse a missing, contradictory, absent or directory file flag (each declared by `_file`;
    an optional flag, declared None, belongs to the default mode but may be left out)."""
    given = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in args.files}
    mode = next((m for flag, m in args.files.items() if m and given[flag] is not None), "")
    need = [flag for flag, m in args.files.items() if m == mode]
    for flag in need:
        if given[flag] is None:
            raise ConfigError(f"{mode} mode needs both {' and '.join(need)}" if mode else f"{flag} is required")
    clash = [flag for flag, m in args.files.items() if (m or "") != mode and given[flag] is not None]
    if clash:
        raise ConfigError(f"{'/'.join(clash)} and {'/'.join(need)} are mutually exclusive")
    for flag, path in given.items():
        if path is not None and (path.is_dir() or not path.exists()):
            raise ConfigError(f"{flag} is a directory: {path}" if path.is_dir() else f"{flag} not found: {path}")


def _resolve_output_dir(args, run: Run) -> Path:
    """The flag, else $AMPRL_OUTPUT_DIR, else `paths.outputs`; it is made by the first file written."""
    out = Path(args.output_dir or os.environ.get(ENV_OUTPUT_DIR) or run.paths.outputs)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output directory {out}: {nearest} is not a directory")
    return out


def _report(err: Exception) -> tuple[int, str]:
    """Print a failure's line to stderr; return its exit code (2 for a config error, else 1) and the line."""
    code, line = (2, f"config error: {err}") if isinstance(err, ConfigError) else (1, f"error: {err}")
    print(line, file=sys.stderr)
    return code, line


# --- subcommand handlers ----------------------------------------------------


def _cmd_props(args, run: Run, out: Path) -> None:
    from .physchem import descriptors

    peptides = parse_fasta(args.input)
    write_records(PeptideTable(peptides, descriptors(peptides, run.scales)), "tsv", out / "props.tsv")
    print(f"props: {len(peptides)} records -> {out / 'props.tsv'}")


def _cmd_dataprep(args, run: Run, out: Path) -> None:
    from . import dataprep as dp
    from .mic import write_labeled_tsv

    section, seed = run.dataprep, run.seed
    if args.positives:  # balance mode
        pos = parse_fasta(args.positives)
        neg = parse_fasta(args.negatives)
        balanced = dp.balance(pos, neg, seed=seed)
        write_labeled_tsv(balanced, out / "balanced.tsv")
        print(f"dataprep: balanced {len(pos)}+{len(neg)} -> {len(balanced)} -> {out / 'balanced.tsv'}")
        return

    peptides = parse_fasta(args.input)
    kept, rejected = dp.length_filter(peptides, section.min_len, section.max_len)
    if rejected:
        write_fasta(rejected, out / "length_rejected.fasta")
    if not kept:
        raise ValueError("no sequences survive the length filter")
    if args.clusters:
        clusters = dp.read_cluster_assignments(args.clusters, kept)
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


def _cmd_sft(args, run: Run, out: Path) -> None:
    from .policy import PolicyModel, train_sft

    train = parse_fasta(args.train)
    val = parse_fasta(args.val)
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


def _cmd_train_mic(args, run: Run, out: Path) -> None:
    from .mic import Embedder, evaluate, read_labeled_tsv, train_mic

    train = read_labeled_tsv(args.train, split="train")
    val = read_labeled_tsv(args.val, split="val")
    embedder = Embedder(scale=run.scales)
    model, history = train_mic(train, val, run.mic, embedder)
    model.save(out / "mic.ckpt")
    write_json(history, out / "mic_history.json")
    metrics = evaluate(model, val)
    write_json(metrics, out / "mic_metrics.json")
    print(f"train-mic: val auroc {metrics['auroc']}")


def _cmd_score_mic(args, run: Run, out: Path) -> None:
    from .mic import MicModel

    model = MicModel.load(args.model)
    peptides = parse_fasta(args.input)
    rows = [(p.id, p.residues, repr(float(s))) for p, s in zip(peptides, model.score_many(peptides))]
    write_tsv(("id", "sequence", "mic_score"), rows, out / "scores.tsv")
    print(f"score-mic: {len(peptides)} sequences -> {out / 'scores.tsv'}")


def _cmd_sample(args, run: Run, out: Path) -> None:
    from .policy import PolicyModel, sample

    model = PolicyModel.load(args.checkpoint)
    draws = sample(model, run.sample.n, temperature=run.sample.temperature, top_k=run.sample.top_k, seed=run.seed)
    write_fasta([d.peptide for d in draws], out / "samples.fasta")
    print(f"sample: {len(draws)} sequences -> {out / 'samples.fasta'}")


def _cmd_rl(args, run: Run, out: Path) -> None:
    from .mic import MicModel
    from .policy import LoraConfig, PolicyModel, attach_lora
    from .ppo import train_rl

    policy, lora = PolicyModel.load(args.sft_checkpoint), run.lora
    if not policy.lora:
        attach_lora(policy, rank=lora.rank, scaling=lora.scaling, targets=lora.targets, seed=run.seed)
    elif policy.lora_config() != LoraConfig(lora.rank, lora.scaling, tuple(sorted(set(lora.targets)))):
        raise ConfigError(f"{args.sft_checkpoint} holds LoRA {policy.lora_config()}, but the run's lora section is {lora}")
    scorer = MicModel.load(args.mic_model)
    policy, logs = train_rl(
        policy,
        scorer,
        run.reward,
        run.ppo,
        seed=run.seed,
        log_sink=out / "rl_log.tsv",
        checkpoint_dir=out,
        scale=run.scales,
    )
    policy.save(out / "rl.ckpt")
    print(f"rl: {len(logs)} iterations, final mean reward {logs[-1]['mean_reward']}")


def _cmd_screen(args, run: Run, out: Path) -> None:
    from . import screening as sc
    from .alignment import write_hit_table
    from .mic import Embedder, MicModel

    scfg, scale = run.screen, run.scales
    candidates = parse_fasta(args.input)
    scorer = MicModel.load(args.mic_model)
    external = sc.read_external_scores(args.external_scores) if args.external_scores else None
    table = sc.screen(sc.annotate(candidates, scorer, external, scale), scfg)
    hits = []
    if args.reference:
        reference = parse_fasta(args.reference, source="external")
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


def _cmd_build_library(args, run: Run, out: Path) -> None:
    from . import screening as sc
    from .mic import MicModel
    from .policy import PolicyModel

    policy = PolicyModel.load(args.checkpoint)
    scorer = MicModel.load(args.mic_model)
    external = sc.read_external_scores(args.external_scores) if args.external_scores else None
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


def _cmd_eval(args, run: Run, out: Path) -> None:
    from . import evalmetrics as ev

    generated = parse_fasta(args.generated, source="generated_sft")
    reference = parse_fasta(args.reference)
    report, (gen_emb, ref_emb) = ev.compare_sets(args.name, generated, reference, run.eval, run.scales)
    write_json(report, out / "comparison.json")
    ev.write_comparison_tsv(report, out / "comparison.tsv")
    if args.export_embeddings:
        ev.export_embeddings_tsv(generated, gen_emb, out / "embeddings_generated.tsv")
        ev.export_embeddings_tsv(reference, ref_emb, out / "embeddings_reference.tsv")
    print(f"eval: jsd {report['jsd']:.4f}, pearson {report['pearson']}")


def _cmd_assay(args, run: Run, out: Path) -> None:
    from . import assay as ay

    series = ay.read_assay_tsv(args.input)
    summaries = [ay.summarize(s) for s in series]
    classified, medians = ay.classify_quadrants(summaries)
    ay.write_summaries(classified, out / "assay_summary.tsv")
    write_json(medians, out / "assay_medians.json")
    counts = {c: sum(1 for s in classified if s.category == c) for c in ay.CATEGORIES}
    print(f"assay: {len(classified)} series, categories {counts}")


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
    sub.set_defaults(overrides={"seed": "seed", **(sub.get_default("overrides") or {})})


def _file(sub: argparse.ArgumentParser, flag: str, help: str, optional: bool = False, mode: str = "") -> None:
    """Add a path flag that `main` checks before the run. A required flag belongs to the default
    mode ("") or to a named one (dataprep's balance mode), which giving any of its flags chooses."""
    sub.add_argument(flag, type=Path, help=help)
    sub.set_defaults(files={**(sub.get_default("files") or {}), flag: None if optional else mode})


@functools.cache  # argparse's reference cycles would otherwise pile up for the cyclic collector on each `main`
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="amprl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"amprl {__version__}")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("props", help="compute physicochemical descriptors for a FASTA")
    _file(p, "--input", "input FASTA")
    p.set_defaults(handler=_cmd_props)

    p = subs.add_parser("dataprep", help="length-filter, cluster, and split a corpus; or balance two classes")
    _file(p, "--input", "FASTA to filter/cluster/split")
    _file(p, "--clusters", "external (sequence_id, cluster_id) TSV", optional=True)
    _file(p, "--positives", "FASTA of positive sequences (balance mode)", mode="balance")
    _file(p, "--negatives", "FASTA of negative sequences (balance mode)", mode="balance")
    p.set_defaults(handler=_cmd_dataprep)

    p = subs.add_parser("sft", help="supervised fine-tuning of the generator")
    _file(p, "--train", "training FASTA")
    _file(p, "--val", "validation FASTA")
    p.set_defaults(handler=_cmd_sft)

    p = subs.add_parser("train-mic", help="train the activity classifier")
    _file(p, "--train", "labeled training TSV (sequence, label)")
    _file(p, "--val", "labeled validation TSV")
    p.set_defaults(handler=_cmd_train_mic)

    p = subs.add_parser("score-mic", help="score sequences with a trained classifier")
    _file(p, "--model", "classifier checkpoint")
    _file(p, "--input", "input FASTA")
    p.set_defaults(handler=_cmd_score_mic)

    p = subs.add_parser("sample", help="draw sequences from a policy checkpoint")
    _file(p, "--checkpoint", "policy checkpoint")
    p.add_argument("-n", type=int, dest="n", help="number of sequences")
    p.add_argument("--temperature", type=float, help="sampling temperature")
    p.add_argument("--top-k", type=int, dest="top_k", help="top-k truncation")
    p.set_defaults(handler=_cmd_sample, overrides={"n": "sample.n", "temperature": "sample.temperature", "top_k": "sample.top_k"})

    p = subs.add_parser("rl", help="PPO fine-tuning against the learned reward")
    _file(p, "--sft-checkpoint", "starting policy checkpoint")
    _file(p, "--mic-model", "classifier checkpoint used in the reward")
    p.set_defaults(handler=_cmd_rl)

    p = subs.add_parser("screen", help="filter, novelty-check, rank, and diversify candidates")
    _file(p, "--input", "candidate FASTA")
    _file(p, "--mic-model", "classifier checkpoint")
    _file(p, "--reference", "reference FASTA for the novelty filter", optional=True)
    _file(p, "--external-scores", "JSONL of third-party per-sequence scores", optional=True)
    p.set_defaults(handler=_cmd_screen)

    p = subs.add_parser("build-library", help="sample, deduplicate, and annotate a sequence library")
    _file(p, "--checkpoint", "policy checkpoint")
    _file(p, "--mic-model", "classifier checkpoint")
    _file(p, "--external-scores", "JSONL of third-party per-sequence scores", optional=True)
    p.add_argument("--target-count", type=int, dest="target_count", help="unique sequences to collect")
    p.set_defaults(handler=_cmd_build_library, overrides={"target_count": "library.target_count"})

    p = subs.add_parser("eval", help="distribution comparison between two sets")
    _file(p, "--generated", "generated FASTA")
    _file(p, "--reference", "reference FASTA")
    p.add_argument("--name", default="generated", type=_set_name, help="set label used in the report (no tab or line break)")
    p.add_argument("--export-embeddings", action="store_true", help="also write raw embedding TSVs")
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("assay", help="kinetic summaries and quadrant classification")
    _file(p, "--input", "assay TSV (peptide_id, time_min, sample_fluor, control_fluor)")
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
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    manifest = {"command": args.command, "argv": argv, "version": __version__, "timestamp": stamp}
    try:  # check everything, then record the config
        cfg = load_config(args.config)
        apply_overrides(cfg, {dotted: getattr(args, attr) for attr, dotted in args.overrides.items()})
        run = build_run(cfg)
        _check_files(args)
        out = _resolve_output_dir(args, run)
        write_json(cfg, out / "resolved_config.json")
    except FAILURES as err:
        return _report(err)[0]
    try:  # run
        args.handler(args, run, out)
        manifest["exit_code"] = 0
    except FAILURES as err:
        manifest["exit_code"], manifest["error"] = _report(err)
    try:  # record
        write_json(manifest, out / "run_manifest.json")
    except OSError as err:
        code, _ = _report(err)
        return manifest["exit_code"] or code
    return manifest["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
