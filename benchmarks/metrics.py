"""Metric definitions: the end-to-end metrics of an untraced run, the
per-layer metrics of a traced run, and the end-to-end metric each layer is
expected to move (so an issue can cite both by name).

A workload's stages are reported as ``first_stage_s`` and
``second_stage_s`` because every workload must report every end-to-end
metric; STAGE_ROLES names the CLI stage behind each on each workload.
"""
from __future__ import annotations

import statistics

from tracing import TRACED, span_name

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("first_stage_s", "s", "lower", 0.24),
    ("second_stage_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

STAGE_ROLES = {
    "train": ("sft", "train-mic"),
    "generate": ("rl", "build-library"),
    "curate": ("dataprep", "screen"),
}

STAGES = ("sft", "train-mic", "rl", "build-library", "dataprep", "screen", "eval")

# layer -> (end-to-end metrics it should move, where it does most / least work)
LAYER_TARGETS = {
    "policy": ("second_stage_s@generate (build-library), first_stage_s@generate (rl), first_stage_s@train (sft)",
               "most in generate; none in curate"),
    "numerics": ("first_stage_s@train (sft), peak_rss_mb@train, first_stage_s@generate (rl), second_stage_s@generate (build-library)",
                 "most in train; none in curate"),
    "alignment": ("first_stage_s@curate (dataprep), second_stage_s@curate (screen)", "curate only"),
    "dataprep": ("first_stage_s@curate (dataprep)", "curate only"),
    "screening": ("second_stage_s@curate (screen), second_stage_s@generate (build-library)", "curate, generate"),
    "mic": ("second_stage_s@generate (build-library), first_stage_s@generate (rl), second_stage_s@curate (screen)",
            "light in train"),
    "physchem": ("first_stage_s@generate (rl), second_stage_s@curate (screen)", "generate, curate"),
    "reward": ("first_stage_s@generate (rl)", "generate"),
    "ppo": ("first_stage_s@generate (rl)", "generate only"),
    "evalmetrics": ("peak_rss_mb@curate, wall_s@curate", "curate only"),
    "sequences": ("wall_s", "all"),
    "cli": ("wall_s", "all"),
    "trace": ("none: tracing overhead, traced wall_s minus untraced wall_s", "all"),
}

# Per-layer metrics computed from counters rather than read off one span:
# name -> (unit, better).
DERIVED = {
    "policy.sample.tokens": ("count", "higher"),
    "policy.sample.tokens_per_s": ("1/s", "higher"),
    "numerics.tensors_created": ("count", "lower"),
    "alignment.identity_global.cells": ("count", "lower"),
    "alignment.align_local.cells": ("count", "lower"),
    "alignment.global.cells_per_s": ("1/s", "higher"),
    "alignment.local.cells_per_s": ("1/s", "higher"),
    "dataprep.clusters": ("count", "lower"),
    "dataprep.comparisons": ("count", "lower"),
    "dataprep.join_ratio": ("ratio", "higher"),
    "screening.novelty.similar_ratio": ("ratio", "higher"),
    "screening.library.yield": ("ratio", "higher"),
    "ppo.updates_attempted": ("count", "lower"),
    "ppo.updates_skipped": ("count", "lower"),
    "ppo.update_yield": ("ratio", "higher"),
}
OVERHEAD = "trace.overhead_s"


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, grouped by layer."""
    by_layer: dict[str, list] = {}
    for module, attr, kinds in TRACED:
        span = span_name(module, attr)
        by_layer.setdefault(span.split(".", 1)[0], []).extend(
            (f"{span}.{kind}", "count" if kind == "calls" else "s", "lower") for kind in kinds)
    for name, (unit, better) in DERIVED.items():
        by_layer[name.split(".", 1)[0]].append((name, unit, better))
    by_layer["cli"] = [(f"cli.{stage}.{kind}", "s", "lower") for stage in STAGES for kind in ("wall_s", "cpu_s")]
    by_layer["trace"] = [(OVERHEAD, "s", "lower")]
    return [entry for entries in by_layer.values() for entry in entries]


def target_of(metric: str) -> str:
    return LAYER_TARGETS[metric.split(".", 1)[0]][0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(snapshot: dict, stage_times: dict) -> dict[str, float]:
    """Every per-layer metric but the overhead, from one traced repetition."""
    spans, counts = snapshot["spans"], snapshot["counts"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    for name, _, _ in per_layer_spec():
        base, _, leaf = name.rpartition(".")
        if name in DERIVED:
            values[name] = counts.get(name, 0)
        elif base.startswith("cli."):
            values[name] = stage_times.get(base[4:], {}).get(leaf.removesuffix("_s"), 0.0)
        elif leaf in ("calls", "self_s"):
            values[name] = span(base, leaf)
    values["policy.sample.tokens_per_s"] = _ratio(counts.get("policy.sample.tokens", 0), span("policy.sample", "total_s"))
    values["alignment.global.cells_per_s"] = _ratio(
        counts.get("alignment.identity_global.cells", 0), span("alignment.identity_global", "total_s"))
    values["alignment.local.cells_per_s"] = _ratio(
        counts.get("alignment.align_local.cells", 0), span("alignment.align_local", "total_s"))
    values["dataprep.join_ratio"] = _ratio(counts.get("dataprep.joins", 0), counts.get("dataprep.comparisons", 0))
    values["screening.novelty.similar_ratio"] = _ratio(
        counts.get("screening.novelty.similar", 0), counts.get("screening.novelty.queries", 0))
    values["screening.library.yield"] = _ratio(
        counts.get("screening.library.size", 0), counts.get("screening.library.sampled", 0))
    attempted = counts.get("ppo.updates_attempted", 0)
    values["ppo.update_yield"] = _ratio(attempted - counts.get("ppo.updates_skipped", 0), attempted)
    return values


def deterministic(unit: str) -> bool:
    """Counts and ratios of counts must repeat exactly across traced repetitions."""
    return unit in ("count", "ratio")


def median(values) -> float:
    return float(statistics.median(values))
