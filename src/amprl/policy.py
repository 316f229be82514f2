"""Autoregressive peptide generator: causal transformer, LoRA, SFT, sampling.

Tokenization: residues are their `sequences.encode` codes (0..19 in alphabet
order), EOS=20, BOS=21, PAD=22. The output head covers the 21 emittable
actions (residues + EOS). EOS is masked out at the first generation step so
the model can never emit an empty peptide; that mask is part of the sequence
distribution and is applied identically in sampling, scoring, and training
losses.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import numerics as nm
from .numerics.tensor import _attention, _gelu, _layer_norm, _log_softmax, _softmax, reduce_sum
from .rng import substream
from .sequences import RESIDUES, Peptide, encode

EOS = 20
BOS = 21
PAD = 22
VOCAB = 23
N_ACTIONS = 21
NEG = -1e9

@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 128
    n_layers: int = 4
    n_heads: int = 4
    max_len: int = 50
    mlp_ratio: int = 4
    init_std: float = 0.02

    def __post_init__(self) -> None:
        if min(self.embed_dim, self.n_layers, self.n_heads, self.max_len, self.mlp_ratio) < 1:
            raise ValueError("model dimensions must be positive")
        if self.embed_dim % self.n_heads:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}")
        if not self.init_std > 0.0:  # 0 would zero every normal-initialised weight
            raise ValueError(f"init_std must be positive, got {self.init_std}")

    @property
    def context_len(self) -> int:
        return self.max_len + 2


def encode_batch(peptides: list[Peptide]) -> np.ndarray:
    """The int64 (B, T) ids grid: rows of [BOS, residues..., EOS, PAD...]."""
    if not peptides:
        raise ValueError("cannot encode an empty batch")
    codes, lengths = encode([p.residues for p in peptides])
    ids = np.full((len(peptides), codes.shape[1] + 2), PAD, dtype=np.int64)
    ids[:, 0] = BOS
    ids[:, 1 : codes.shape[1] + 1] = np.where(codes < len(RESIDUES), codes, PAD)
    ids[np.arange(len(peptides)), lengths + 1] = EOS
    return ids


def decode_tokens(tokens: np.ndarray) -> str:
    """Residue string from action ids, stopping at EOS if present."""
    out = []
    for t in tokens:
        if t == EOS:
            break
        out.append(RESIDUES[int(t)])
    return "".join(out)


class PolicyModel:
    """Pre-norm causal transformer over the peptide alphabet with a value head."""

    def __init__(self, config: ModelConfig, params: dict[str, nm.Tensor]):
        self.config = config
        self.params = params
        self.lora: dict[str, tuple[nm.Tensor, nm.Tensor]] = {}  # W -> (A, B): W + (scaling / r) A B, r = A's columns
        self.scaling = 0.0

    # --- construction -----------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "PolicyModel":
        rng = substream(seed, "policy.init")
        params: dict[str, nm.Tensor] = {}
        for name, shape, fill in _base_parameters(config):
            if fill == "normal":
                data = rng.normal(0.0, config.init_std, size=shape)
            else:
                data = np.full(shape, 1.0 if fill == "ones" else 0.0)
            params[name] = nm.Tensor(data, requires_grad=True)
        return cls(config, params)

    def _set_trainable(self) -> None:
        """With adapters, the adapters and the value head (the PPO critic) train; without, every base tensor does."""
        for name, p in self.params.items():
            p.requires_grad = not self.lora or name in ("value.w", "value.b")

    def trainable(self) -> list[nm.Tensor]:
        return [p for p in self.params.values() if p.requires_grad] + [f for pair in self.lora.values() for f in pair]

    def named_tensors(self) -> dict[str, nm.Tensor]:
        out = dict(self.params)
        for name, (a, b) in self.lora.items():
            out[f"{name}.lora_a"], out[f"{name}.lora_b"] = a, b
        return out

    def lora_config(self) -> "LoraConfig | None":
        """The rank, scaling and projections of the adapters, as `attach_lora` takes them."""
        if not self.lora:
            return None
        a, _ = next(iter(self.lora.values()))
        return LoraConfig(a.shape[1], self.scaling, tuple(sorted({name.rsplit(".", 1)[1] for name in self.lora})))

    # --- forward ----------------------------------------------------------

    def _weight(self, name: str) -> nm.Tensor:
        w = self.params[name]
        if name not in self.lora:
            return w
        a, b = self.lora[name]
        return w + nm.matmul(a, b) * (self.scaling / a.shape[1])

    def values_and_log_probs(self, ids: np.ndarray) -> tuple[nm.Tensor, nm.Tensor, np.ndarray]:
        """The policy's one forward: state values (N,) and action log-probs
        (N, 21) of the non-PAD positions of `ids`, and their flat indices.

        Every op runs on these N rows; each layer's attention is one
        `nm.causal_attention` node, which alone visits the padded (B, T)
        grid. That is exact because a position attends to none after it and
        PAD only follows real tokens. EOS is masked at position 0 of every row.
        """
        cfg = self.config
        b, t = ids.shape
        if t > cfg.context_len:
            raise ValueError(f"input length {t} exceeds context {cfg.context_len}")
        if not np.all(ids[:, 0] == BOS):
            raise ValueError("the policy expects BOS-prefixed rows")
        real = ids != PAD
        if np.any(real[:, 1:] & ~real[:, :-1]):
            raise ValueError("the policy expects PAD only after the last real token of a row")
        rows = np.flatnonzero(real)
        x = nm.embedding(self.params["tok_embed"], ids.reshape(-1)[rows]) + nm.embedding(
            self.params["pos_embed"], rows % t
        )
        w = {name: self._weight(name) for name in self.params}
        values, logits = _trunk(
            cfg, w, x, lambda _, q, k, v: nm.causal_attention(q, k, v, rows, (b, t), cfg.n_heads), _TENSOR_OPS
        )
        eos_mask = np.zeros(logits.shape)
        eos_mask[rows % t == 0, EOS] = NEG
        return values, nm.log_softmax(logits + eos_mask, axis=-1), rows

    # --- persistence --------------------------------------------------------

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        info = dict(meta or {})
        info["model_config"] = asdict(self.config)
        if self.lora:
            info["lora"] = {"rank": self.lora_config().rank, "scaling": self.scaling, "targets": sorted(self.lora)}
        nm.save_checkpoint(path, self.named_tensors(), meta=info)

    @classmethod
    def load(cls, path: str | Path) -> "PolicyModel":
        """The saved policy: the tensors `init` and `attach_lora` make for its manifest, at their shapes,
        and the trainable set they imply. The `base_trainable` key of older manifests is ignored."""
        tensors, meta = nm.load_checkpoint(path)
        if "model_config" not in meta:
            raise ValueError(f"{path}: checkpoint manifest lacks model_config")
        try:
            config = ModelConfig(**meta["model_config"])
            model = cls(config, {name: nm.Tensor(np.zeros(shape)) for name, shape, _ in _base_parameters(config)})
            if "lora" in meta:
                lora = meta["lora"]
                projections = tuple(sorted({name.rsplit(".", 1)[-1] for name in lora["targets"]}))
                attach_lora(model, lora["rank"], float(lora["scaling"]), projections)
                if sorted(model.lora) != sorted(lora["targets"]):
                    raise ValueError(f"targets {lora['targets']} are not the ones attach_lora makes for them")
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            raise ValueError(f"{path}: checkpoint manifest holds a bad model_config or lora ({err!r})") from None
        named = model.named_tensors()
        nm.check_tensors(path, tensors, {name: t.shape for name, t in named.items()}, "manifest")
        for name, t in named.items():
            t.data = tensors[name]
        model._set_trainable()
        return model


# The two op sets `_trunk` runs on. The Tensor ops look `nm` up at each
# call, so a wrapper installed there (as benchmarks/tracing.py does) sees them.
_TENSOR_OPS = SimpleNamespace(
    matmul=lambda a, b: nm.matmul(a, b),
    layer_norm=lambda x, g, b: nm.layer_norm(x, g, b),
    gelu=lambda x: nm.gelu(x),
)
# Decoding builds no autodiff graph, and a Tensor per op would slow it by about a quarter.
_ARRAY_OPS = SimpleNamespace(
    matmul=np.matmul,
    layer_norm=lambda x, g, b: _layer_norm(x, g, b)[0],
    gelu=lambda x: _gelu(x)[0],
)


def _trunk(config: ModelConfig, w: dict, x, attend, ops) -> tuple:
    """State values (N,) and action logits (N, 21) of the N embedded rows `x`:
    the pre-norm blocks, final LayerNorm and both heads over `w`, the
    LoRA-merged weights, with `attend(layer, q, k, v)` as each layer's causal
    attention, on `_TENSOR_OPS` (autodiff tensors) or `_ARRAY_OPS` (arrays)."""
    for i in range(config.n_layers):
        pre = f"layer{i}"
        h = ops.layer_norm(x, w[f"{pre}.ln1.g"], w[f"{pre}.ln1.b"])
        q = ops.matmul(h, w[f"{pre}.attn.wq"]) + w[f"{pre}.attn.qb"]
        k = ops.matmul(h, w[f"{pre}.attn.wk"])
        v = ops.matmul(h, w[f"{pre}.attn.wv"]) + w[f"{pre}.attn.vb"]
        x = x + ops.matmul(attend(i, q, k, v), w[f"{pre}.attn.wo"]) + w[f"{pre}.attn.ob"]
        h2 = ops.layer_norm(x, w[f"{pre}.ln2.g"], w[f"{pre}.ln2.b"])
        m = ops.gelu(ops.matmul(h2, w[f"{pre}.mlp.w1"]) + w[f"{pre}.mlp.b1"])
        x = x + ops.matmul(m, w[f"{pre}.mlp.w2"]) + w[f"{pre}.mlp.b2"]
    x = ops.layer_norm(x, w["ln_f.g"], w["ln_f.b"])
    values = ops.matmul(x, w["value.w"]) + w["value.b"]
    return values.reshape((x.shape[0],)), ops.matmul(x, w["head.w"]) + w["head.b"]


def _base_parameters(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, fill) of every base tensor, in the order `init` draws them.

    Keys carry no bias: adding q . b to every score of a softmax row leaves it
    unchanged, so such a bias would get no gradient.
    """
    d = config.embed_dim
    hidden = config.mlp_ratio * d
    specs = [("tok_embed", (VOCAB, d), "normal"), ("pos_embed", (config.context_len, d), "normal")]
    for i in range(config.n_layers):
        pre = f"layer{i}"
        specs += [(f"{pre}.ln1.g", (d,), "ones"), (f"{pre}.ln1.b", (d,), "zeros")]
        for proj in ("wq", "wk", "wv", "wo"):
            specs.append((f"{pre}.attn.{proj}", (d, d), "normal"))
            if proj != "wk":
                specs.append((f"{pre}.attn.{proj[1]}b", (d,), "zeros"))
        specs += [
            (f"{pre}.ln2.g", (d,), "ones"),
            (f"{pre}.ln2.b", (d,), "zeros"),
            (f"{pre}.mlp.w1", (d, hidden), "normal"),
            (f"{pre}.mlp.b1", (hidden,), "zeros"),
            (f"{pre}.mlp.w2", (hidden, d), "normal"),
            (f"{pre}.mlp.b2", (d,), "zeros"),
        ]
    specs += [
        ("ln_f.g", (d,), "ones"),
        ("ln_f.b", (d,), "zeros"),
        ("head.w", (d, N_ACTIONS), "normal"),
        ("head.b", (N_ACTIONS,), "zeros"),
        ("value.w", (d, 1), "normal"),
        ("value.b", (1,), "zeros"),
    ]
    return specs


_LORA_TARGETS = {"wq", "wk", "wv", "wo"}


def _check_lora(rank: int, scaling: float, targets: tuple[str, ...]) -> None:
    if rank < 1:
        raise ValueError(f"LoRA rank must be >= 1, got {rank}")
    if not abs(scaling) > 0.0:  # at 0 both factors get zero gradients, so every lora_b stays 0
        raise ValueError(f"LoRA scaling must be non-zero, got {scaling}")
    if not targets:
        raise ValueError(f"LoRA needs at least one target of {sorted(_LORA_TARGETS)}")
    unknown = [t for t in targets if t not in _LORA_TARGETS]
    if unknown:
        raise ValueError(f"unknown LoRA targets: {', '.join(unknown)}; valid: {sorted(_LORA_TARGETS)}")


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 4
    scaling: float = 1.0
    targets: tuple[str, ...] = ("wq", "wv")

    def __post_init__(self) -> None:
        _check_lora(self.rank, self.scaling, self.targets)


def attach_lora(
    model: PolicyModel,
    rank: int,
    scaling: float,
    targets: tuple[str, ...] = ("wq", "wv"),
    seed: int = 0,
) -> PolicyModel:
    """Add low-rank adapters to the named attention projections (in place).

    The second factor starts at zero, so attaching never changes the forward
    pass. From then on only the adapters and the value head train.
    """
    _check_lora(rank, scaling, targets)
    if rank > model.config.embed_dim:  # such adapters add nothing that rank embed_dim cannot, and only allocate
        raise ValueError(f"LoRA rank {rank} exceeds embed_dim {model.config.embed_dim}")
    for i in range(model.config.n_layers):
        for proj in targets:
            name = f"layer{i}.attn.{proj}"
            d_in, d_out = model.params[name].data.shape
            rng = substream(seed, f"lora.{name}")
            model.lora[name] = (
                nm.Tensor(rng.normal(0.0, 0.02, size=(d_in, rank)), requires_grad=True),
                nm.Tensor(np.zeros((rank, d_out)), requires_grad=True),
            )
    model.scaling = scaling
    model._set_trainable()
    return model


# --- losses and scoring ----------------------------------------------------


@dataclass
class SftLoss:
    total: nm.Tensor
    mean: nm.Tensor
    token_count: int


def sft_loss(model: PolicyModel, ids: np.ndarray) -> SftLoss:
    """Negative log-likelihood of each next token of the ids grid, summed and per-token.

    Reads the packed log-probs of the non-PAD inputs; an EOS input, whose
    target is PAD, is masked out.
    """
    _, log_probs, rows = model.values_and_log_probs(ids[:, :-1])
    targets = ids[:, 1:].reshape(-1)[rows]
    mask = (targets != PAD).astype(np.float64)
    token_lp = nm.gather_last(log_probs, np.where(targets == PAD, 0, targets))
    total = -reduce_sum(token_lp * mask)
    count = int(mask.sum())
    return SftLoss(total=total, mean=total * (1.0 / count), token_count=count)


@nm.no_grad()
def sequence_log_probs(model: PolicyModel, ids: np.ndarray) -> np.ndarray:
    """Per-position log-probs of the realized tokens; PAD targets get 0."""
    _, log_probs, rows = model.values_and_log_probs(ids[:, :-1])
    targets = ids[:, 1:].reshape(-1)[rows]
    real = targets != PAD
    out = np.zeros((ids.shape[0], ids.shape[1] - 1))
    out.reshape(-1)[rows[real]] = log_probs.data[real, targets[real]]
    return out


@nm.no_grad()
def perplexity(model: PolicyModel, peptides: list[Peptide]) -> float:
    """exp(mean per-token negative log-likelihood) over the dataset, in chunks of 64."""
    if not peptides:
        raise ValueError("perplexity needs at least one peptide")
    total = 0.0
    count = 0
    for start in range(0, len(peptides), 64):
        out = sft_loss(model, encode_batch(peptides[start : start + 64]))
        total += out.total.item()
        count += out.token_count
    return float(np.exp(total / count))


# --- SFT training loop -------------------------------------------------------


@dataclass(frozen=True)
class SftConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    patience: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        nm.check_schedule(self)


@dataclass
class SftResult:
    model: PolicyModel
    history: list[dict]
    best_epoch: int
    best_val_perplexity: float


def train_sft(
    model: PolicyModel,
    train: list[Peptide],
    val: list[Peptide],
    config: SftConfig,
) -> SftResult:
    """`nm.train_epochs` on the per-token next-token loss; keeps the
    best-validation-perplexity weights."""
    if not train or not val:
        raise ValueError("train and validation sets must both be non-empty")
    params = model.trainable()
    if not params:
        raise ValueError("model has no trainable parameters")

    def batch_loss(rows):
        out = sft_loss(model, encode_batch([train[i] for i in rows]))
        return out.mean, out.total.item(), out.token_count

    def validate():
        ppl = perplexity(model, val)
        return -ppl, {"val_perplexity": ppl}

    history, best_epoch, best_score = nm.train_epochs(
        params, len(train), batch_loss, validate, config, substream(config.seed, "sft.shuffle")
    )
    return SftResult(model=model, history=history, best_epoch=best_epoch, best_val_perplexity=-best_score)


# --- sampling ---------------------------------------------------------------


def _check_sampling(temperature: float, top_k: int | None) -> None:
    if not temperature > 0.0:  # NaN too
        raise ValueError("temperature must be positive")
    if top_k is not None and not 1 <= top_k <= N_ACTIONS:
        raise ValueError(f"top_k must be >= 1 when given and at most {N_ACTIONS} (valid range 1..{N_ACTIONS}), got {top_k}")


@dataclass(frozen=True)
class SampleConfig:
    n: int = 100
    temperature: float = 1.0
    top_k: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        _check_sampling(self.temperature, self.top_k)


@dataclass
class SampledSequence:
    peptide: Peptide
    tokens: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    entropies: np.ndarray
    terminated: bool


def sample(
    model: PolicyModel,
    n: int,
    temperature: float = 1.0,
    top_k: int | None = None,
    max_len: int | None = None,
    seed: int = 0,
) -> list[SampledSequence]:
    """Draw n sequences, with ids gen0, gen1, ...; per-token log-probs and
    entropies are under the untempered model.

    Each peptide's source is `generated_rl` when the model carries LoRA
    deltas and `generated_sft` otherwise.

    All rows advance in lockstep and uniforms are drawn for every row at every
    step, so row i's outcome does not depend on when other rows finish. A row
    that exhausts the residue budget has EOS forced as its final action (its
    log-prob is still the model's own), and is flagged as not terminated.
    Decoding runs `_trunk` on plain arrays, with LoRA merged once, over a
    key/value cache of the positions fed so far, and gives the same logits
    and state values as the autodiff forward of the whole prefix.
    """
    _check_sampling(temperature, top_k)
    cfg = model.config
    limit = cfg.max_len if max_len is None else min(max_len, cfg.max_len)
    rng = substream(seed, "policy.sample")
    with nm.no_grad():
        w = {name: model._weight(name).data for name in model.params}
    heads = cfg.n_heads
    dh = cfg.embed_dim // heads
    keys, vals = np.zeros((2, cfg.n_layers, n, heads, limit + 1, dh))

    def attend(layer, q, k, v):
        keys[layer, :, :, step] = k.reshape((n, heads, dh))
        vals[layer, :, :, step] = v.reshape((n, heads, dh))
        ctx = _attention(q.reshape((n, heads, 1, dh)), keys[layer, :, :, : step + 1], vals[layer, :, :, : step + 1])[0]
        return ctx.reshape((n, cfg.embed_dim))

    tokens = np.full((n, limit + 1), PAD, dtype=np.int64)
    lps, values, entropies = np.zeros((3, n, limit + 1))
    lengths = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    feed = np.full(n, BOS, dtype=np.int64)

    for step in range(limit + 1):
        step_values, logits = _trunk(cfg, w, w["tok_embed"][feed] + w["pos_embed"][step], attend, _ARRAY_OPS)
        if not (np.all(np.isfinite(logits)) and np.all(np.isfinite(step_values))):
            raise FloatingPointError(f"non-finite result in op 'decode' at step {step}")
        sample_logits = logits / temperature
        if step == 0:  # masked after tempering too, which a large temperature would undo
            logits[:, EOS] = sample_logits[:, EOS] = NEG
        base_lp = _log_softmax(logits)
        if step == limit:
            # residue budget exhausted; EOS is the only remaining action
            sample_logits = np.where(
                np.arange(N_ACTIONS) == EOS, sample_logits, NEG
            )
        if top_k is not None:
            kth = np.partition(sample_logits, -top_k, axis=-1)[:, -top_k][:, None]
            sample_logits = np.where(sample_logits < kth, NEG, sample_logits)
        probs = _softmax(sample_logits)
        u = rng.random(n)
        cum = np.cumsum(probs, axis=-1)
        choices = np.minimum((cum < u[:, None]).sum(axis=-1), N_ACTIONS - 1)
        rows = np.flatnonzero(alive)
        tokens[rows, step] = choices[rows]
        lps[rows, step] = base_lp[rows, choices[rows]]
        values[rows, step] = step_values[rows]
        entropies[rows, step] = -(np.exp(base_lp) * base_lp).sum(axis=-1)[rows]
        lengths[rows] += 1
        feed = np.where(alive, choices, PAD)
        alive &= choices != EOS
        if not alive.any():
            break

    source = "generated_rl" if model.lora else "generated_sft"
    out: list[SampledSequence] = []
    for i in range(n):
        k = int(lengths[i])
        residues = decode_tokens(tokens[i, :k])
        pep = Peptide(id=f"gen{i}", residues=residues, source=source)
        out.append(
            SampledSequence(
                peptide=pep,
                tokens=tokens[i, :k].copy(),
                log_probs=lps[i, :k].copy(),
                values=values[i, :k].copy(),
                entropies=entropies[i, :k].copy(),
                terminated=len(residues) < limit,
            )
        )
    return out

