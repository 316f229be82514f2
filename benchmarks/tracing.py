"""Per-layer tracing from outside the package.

`Tracer.install` replaces public functions and methods of amprl's modules
with timing wrappers, at every binding that holds them, so ``from X import
f`` copies (``amprl.ppo.sample``, ``amprl.dataprep.identity_global``) are
traced too. Spans are aggregated in memory per name; self time is a span's
duration minus the time covered by its traced children. `uninstall` puts
the originals back.
"""
from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import sys
from collections import Counter
from time import perf_counter

# Every traced callable: (module, attribute, per-layer metrics taken from
# its span). The span is named "<module without amprl.>.<attribute>", with
# the numerics submodules folded into "numerics", e.g. "policy.sample".
CALLS_AND_TIME = ("calls", "self_s")
TRACED = (
    ("amprl.policy", "sample", CALLS_AND_TIME),
    ("amprl.policy", "sft_loss", CALLS_AND_TIME),
    ("amprl.policy", "PolicyModel.values_and_log_probs", CALLS_AND_TIME),
    ("amprl.policy", "train_sft", ("self_s",)),
    ("amprl.numerics.tensor", "Tensor.backward", CALLS_AND_TIME),
    ("amprl.numerics.optim", "Adam.step", CALLS_AND_TIME),
    ("amprl.numerics.tensor", "matmul", CALLS_AND_TIME),
    ("amprl.numerics.tensor", "gelu", CALLS_AND_TIME),
    ("amprl.numerics.tensor", "layer_norm", CALLS_AND_TIME),
    ("amprl.numerics.tensor", "softmax", CALLS_AND_TIME),
    ("amprl.numerics.tensor", "log_softmax", CALLS_AND_TIME),
    ("amprl.numerics.checkpoint", "save_checkpoint", ("self_s",)),
    ("amprl.numerics.checkpoint", "load_checkpoint", ("self_s",)),
    ("amprl.alignment", "identity_global", CALLS_AND_TIME),
    ("amprl.alignment", "align_local", CALLS_AND_TIME),
    ("amprl.dataprep", "greedy_cluster", ("self_s",)),
    ("amprl.screening", "annotate", ("self_s",)),
    ("amprl.screening", "screen", ("self_s",)),
    ("amprl.screening", "novelty_filter", ("self_s",)),
    ("amprl.screening", "prioritize", ("self_s",)),
    ("amprl.screening", "diversity_select", ("self_s",)),
    ("amprl.screening", "build_library", ("self_s",)),
    ("amprl.mic", "train_mic", ("self_s",)),
    ("amprl.mic", "MicModel.score", CALLS_AND_TIME),
    ("amprl.mic", "MicModel.score_many", CALLS_AND_TIME),
    ("amprl.mic", "Embedder.embed", ("calls",)),
    ("amprl.physchem", "descriptor_vector", CALLS_AND_TIME),
    ("amprl.reward", "score_reward", CALLS_AND_TIME),
    ("amprl.ppo", "rollout", ("self_s",)),
    ("amprl.ppo", "compute_advantages", ("self_s",)),
    ("amprl.ppo", "ppo_losses", ("self_s",)),
    ("amprl.ppo", "train_rl", ()),  # traced for its update counters only
    ("amprl.evalmetrics", "compare_sets", ("self_s",)),
    ("amprl.evalmetrics", "embedding_distance_profile", ("self_s",)),
    ("amprl.sequences", "parse_fasta", ("self_s",)),
    ("amprl.sequences", "write_fasta", ("self_s",)),
    ("amprl.sequences", "write_records", ("self_s",)),
)


def span_name(module: str, attr: str) -> str:
    short = module.removeprefix("amprl.")
    if short.startswith("numerics."):
        short = "numerics"
    return f"{short}.{attr}"


# --- counters taken from arguments and results ------------------------------


def _count_identity(tracer, args, kwargs, result):
    tracer.counts["alignment.identity_global.cells"] += len(args[0]) * len(args[1])
    if tracer.active("dataprep.greedy_cluster"):
        tracer.counts["dataprep.comparisons"] += 1


def _count_local(tracer, args, kwargs, result):
    tracer.counts["alignment.align_local.cells"] += len(args[0]) * len(args[1])


def _count_cluster(tracer, args, kwargs, result):
    tracer.counts["dataprep.clusters"] += len(result)
    tracer.counts["dataprep.joins"] += len(args[0]) - len(result)


def _count_sample(tracer, args, kwargs, result):
    tracer.counts["policy.sample.tokens"] += sum(int(s.tokens.size) for s in result)


def _count_novelty(tracer, args, kwargs, result):
    kept, removed, _ = result
    tracer.counts["screening.novelty.queries"] += len(kept) + len(removed)
    tracer.counts["screening.novelty.similar"] += len(removed)


def _count_library(tracer, args, kwargs, result):
    _, stats = result
    tracer.counts["screening.library.size"] += stats["library_size"]
    tracer.counts["screening.library.sampled"] += stats["sampled_total"]


def _count_rl(tracer, args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    _, rows = result
    per_iteration = cfg.epochs * math.ceil(cfg.n_actors / cfg.minibatch_size)
    tracer.counts["ppo.updates_attempted"] += per_iteration * len(rows)
    tracer.counts["ppo.updates_skipped"] += sum(int(row["skipped_updates"]) for row in rows)


HOOKS = {
    "alignment.identity_global": _count_identity,
    "alignment.align_local": _count_local,
    "dataprep.greedy_cluster": _count_cluster,
    "policy.sample": _count_sample,
    "screening.novelty_filter": _count_novelty,
    "screening.build_library": _count_library,
    "ppo.train_rl": _count_rl,
}


class Tracer:
    """Aggregated spans: per name, calls, total seconds and child seconds."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.child: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, seconds covered by traced children]
        self._restore: list[tuple[object, str, object]] = []

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span(self, name: str, fn, hook=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def install(self) -> None:
        modules = [importlib.import_module(m.name) for m in pkgutil.walk_packages(
            importlib.import_module("amprl").__path__, "amprl.")]
        for module_name, attr, _ in TRACED:
            name = span_name(module_name, attr)
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.span(name, original, HOOKS.get(name))
            if path:  # a method: the class holds the only binding
                self._swap(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapper)
        tensor_cls = sys.modules["amprl.numerics.tensor"].Tensor
        init = tensor_cls.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["numerics.tensors_created"] += 1
            init(obj, *args, **kwargs)

        self._swap(tensor_cls, "__init__", counted_init)

    def _swap(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def snapshot(self) -> dict:
        names = sorted(self.calls)
        return {
            "spans": {n: {"calls": self.calls[n], "total_s": self.total[n], "self_s": self.self_s(n)} for n in names},
            "counts": dict(sorted(self.counts.items())),
        }
