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

import numpy as np

from . import numerics as nm
from .numerics.tensor import _gelu, _layer_norm, _log_softmax, _softmax, reduce_sum, transpose
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

    @property
    def context_len(self) -> int:
        return self.max_len + 2


@dataclass
class LoraDelta:
    a: nm.Tensor
    b: nm.Tensor
    rank: int
    scaling: float


@dataclass(frozen=True)
class TokenBatch:
    """Rows of [BOS, residues..., EOS, PAD...]; PAD only after EOS."""

    ids: np.ndarray

    def __post_init__(self) -> None:
        ids = self.ids
        if ids.ndim != 2:
            raise ValueError("token batch must be 2-D")
        if not np.all(ids[:, 0] == BOS):
            raise ValueError("every row must start with BOS")
        for row in ids:
            eos_at = np.flatnonzero(row == EOS)
            if eos_at.size != 1:
                raise ValueError("every row must contain exactly one EOS")
            after = row[eos_at[0] + 1 :]
            if after.size and not np.all(after == PAD):
                raise ValueError("only PAD may follow EOS")


def encode_batch(peptides: list[Peptide], pad_to: int | None = None) -> TokenBatch:
    if not peptides:
        raise ValueError("cannot encode an empty batch")
    codes, lengths = encode([p.residues for p in peptides])
    width = codes.shape[1] + 2
    if pad_to is not None:
        width = max(width, pad_to)
    ids = np.full((len(peptides), width), PAD, dtype=np.int64)
    ids[:, 0] = BOS
    ids[:, 1 : codes.shape[1] + 1] = np.where(codes < len(RESIDUES), codes, PAD)
    ids[np.arange(len(peptides)), lengths + 1] = EOS
    return TokenBatch(ids=ids)


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

    def __init__(self, config: ModelConfig, params: dict[str, nm.Tensor], lora: dict[str, LoraDelta] | None = None):
        self.config = config
        self.params = params
        self.lora = lora or {}

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

    def trainable(self) -> list[nm.Tensor]:
        out = [p for p in self.params.values() if p.requires_grad]
        for delta in self.lora.values():
            out.extend([delta.a, delta.b])
        return out

    def named_tensors(self) -> dict[str, nm.Tensor]:
        out = dict(self.params)
        for name, delta in self.lora.items():
            out[f"{name}.lora_a"] = delta.a
            out[f"{name}.lora_b"] = delta.b
        return out

    # --- forward ----------------------------------------------------------

    def _weight(self, name: str) -> nm.Tensor:
        w = self.params[name]
        delta = self.lora.get(name)
        if delta is None:
            return w
        return w + nm.matmul(delta.a, delta.b) * (delta.scaling / delta.rank)

    def forward_hidden(self, ids: np.ndarray) -> tuple[nm.Tensor, np.ndarray]:
        """Final-layer hidden states of the non-PAD positions of `ids`.

        Returns (hidden, rows): hidden is (N, D), one row per non-PAD token
        in row-major order, and rows holds their flat indices into `ids`.
        Every token-wise op runs on these N rows. Only attention visits the
        padded (B, H, T, T) grid, with zeros at PAD; that is exact because a
        position attends to none after it and PAD only follows real tokens.
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
        d = cfg.embed_dim
        heads = cfg.n_heads
        dh = d // heads
        mask = nm.causal_mask(t)

        def grid(a: nm.Tensor) -> nm.Tensor:
            return transpose(nm.place_rows(a, rows, b * t).reshape((b, t, heads, dh)), (0, 2, 1, 3))

        x = nm.embedding(self.params["tok_embed"], ids.reshape(-1)[rows]) + nm.embedding(
            self.params["pos_embed"], rows % t
        )
        for i in range(cfg.n_layers):
            pre = f"layer{i}"
            h = nm.layer_norm(x, self.params[f"{pre}.ln1.g"], self.params[f"{pre}.ln1.b"])
            q = grid(nm.matmul(h, self._weight(f"{pre}.attn.wq")) + self.params[f"{pre}.attn.qb"])
            k = grid(nm.matmul(h, self._weight(f"{pre}.attn.wk")))
            v = grid(nm.matmul(h, self._weight(f"{pre}.attn.wv")) + self.params[f"{pre}.attn.vb"])
            scores = nm.matmul(q, transpose(k)) * (1.0 / np.sqrt(dh)) + mask
            att = nm.softmax(scores, axis=-1)
            ctx = nm.take_rows(transpose(nm.matmul(att, v), (0, 2, 1, 3)).reshape((b * t, d)), rows)
            x = x + nm.matmul(ctx, self._weight(f"{pre}.attn.wo")) + self.params[f"{pre}.attn.ob"]
            h2 = nm.layer_norm(x, self.params[f"{pre}.ln2.g"], self.params[f"{pre}.ln2.b"])
            m = nm.gelu(nm.matmul(h2, self.params[f"{pre}.mlp.w1"]) + self.params[f"{pre}.mlp.b1"])
            x = x + nm.matmul(m, self.params[f"{pre}.mlp.w2"]) + self.params[f"{pre}.mlp.b2"]
        return nm.layer_norm(x, self.params["ln_f.g"], self.params["ln_f.b"]), rows

    def packed_log_probs(self, ids: np.ndarray) -> tuple[nm.Tensor, np.ndarray]:
        """Action log-probs (N, 21) of the non-PAD positions, and their flat indices.

        The EOS action is masked at position 0 of every row.
        """
        hidden, rows = self.forward_hidden(ids)
        return self._action_head(hidden, rows, ids.shape[1]), rows

    def _action_head(self, hidden: nm.Tensor, rows: np.ndarray, width: int) -> nm.Tensor:
        logits = nm.matmul(hidden, self.params["head.w"]) + self.params["head.b"]
        eos_mask = np.zeros(logits.shape)
        eos_mask[rows % width == 0, EOS] = NEG
        return nm.log_softmax(logits + eos_mask, axis=-1)

    def action_log_probs(self, ids: np.ndarray) -> nm.Tensor:
        """Log-probabilities over actions at every position, shape (B, T, 21).

        Rows must start with BOS; the EOS action is masked at position 0.
        PAD positions hold 0.0.
        """
        lp, rows = self.packed_log_probs(ids)
        return _unpack(lp, rows, ids.shape + (N_ACTIONS,))

    def values_and_log_probs(self, ids: np.ndarray) -> tuple[nm.Tensor, nm.Tensor]:
        """One shared-trunk pass: per-position state values (B, T) and action
        log-probs (B, T, 21). PAD positions hold 0.0 in both."""
        hidden, rows = self.forward_hidden(ids)
        values = nm.matmul(hidden, self.params["value.w"]) + self.params["value.b"]
        lp = self._action_head(hidden, rows, ids.shape[1])
        return _unpack(values, rows, ids.shape), _unpack(lp, rows, ids.shape + (N_ACTIONS,))

    # --- persistence --------------------------------------------------------

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        info = dict(meta or {})
        info["model_config"] = asdict(self.config)
        info["base_trainable"] = any(p.requires_grad for p in self.params.values())
        if self.lora:
            first = next(iter(self.lora.values()))
            info["lora"] = {
                "rank": first.rank,
                "scaling": first.scaling,
                "targets": sorted(self.lora),
            }
        nm.save_checkpoint(path, self.named_tensors(), meta=info)

    @classmethod
    def load(cls, path: str | Path) -> "PolicyModel":
        tensors, meta = nm.load_checkpoint(path)
        if "model_config" not in meta:
            raise ValueError(f"{path}: checkpoint manifest lacks model_config")
        config = ModelConfig(**meta["model_config"])
        base_trainable = bool(meta.get("base_trainable", True))
        params = {
            name: nm.Tensor(arr.copy(), requires_grad=base_trainable)
            for name, arr in tensors.items()
            if not name.endswith((".lora_a", ".lora_b"))
        }
        mismatch = sorted(params.keys() ^ {name for name, _, _ in _base_parameters(config)})
        if mismatch:
            name = mismatch[0]
            if name in params:
                raise ValueError(f"{path}: checkpoint holds tensor {name!r}, which its model_config does not define")
            raise ValueError(f"{path}: checkpoint lacks tensor {name!r}, which its model_config defines")
        model = cls(config, params)
        lora_meta = meta.get("lora")
        if lora_meta:
            for target in lora_meta["targets"]:
                model.lora[target] = LoraDelta(
                    a=nm.Tensor(tensors[f"{target}.lora_a"].copy(), requires_grad=True),
                    b=nm.Tensor(tensors[f"{target}.lora_b"].copy(), requires_grad=True),
                    rank=int(lora_meta["rank"]),
                    scaling=float(lora_meta["scaling"]),
                )
        return model


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


def _unpack(packed: nm.Tensor, rows: np.ndarray, shape: tuple[int, ...]) -> nm.Tensor:
    """Packed rows back on the (B, T, ...) grid `shape`, with 0.0 at PAD."""
    return nm.place_rows(packed, rows, shape[0] * shape[1]).reshape(shape)


_LORA_TARGETS = {"wq", "wk", "wv", "wo"}


def attach_lora(
    model: PolicyModel,
    rank: int,
    scaling: float,
    targets: tuple[str, ...] = ("wq", "wv"),
    freeze_base: bool = True,
    seed: int = 0,
) -> PolicyModel:
    """Add low-rank deltas to the named attention projections (in place).

    The second factor starts at zero, so attaching never changes the forward
    pass. With freeze_base the base weights stop receiving gradients.
    """
    if rank < 1:
        raise ValueError(f"LoRA rank must be >= 1, got {rank}")
    unknown = [t for t in targets if t not in _LORA_TARGETS]
    if unknown:
        raise ValueError(f"unknown LoRA targets: {', '.join(unknown)}; valid: {sorted(_LORA_TARGETS)}")
    for i in range(model.config.n_layers):
        for proj in targets:
            name = f"layer{i}.attn.{proj}"
            d_in, d_out = model.params[name].data.shape
            rng = substream(seed, f"lora.{name}")
            model.lora[name] = LoraDelta(
                a=nm.Tensor(rng.normal(0.0, 0.02, size=(d_in, rank)), requires_grad=True),
                b=nm.Tensor(np.zeros((rank, d_out)), requires_grad=True),
                rank=rank,
                scaling=scaling,
            )
    if freeze_base:
        for p in model.params.values():
            p.requires_grad = False
        model.params["value.w"].requires_grad = True
        model.params["value.b"].requires_grad = True
    return model


# --- losses and scoring ----------------------------------------------------


@dataclass
class SftLoss:
    total: nm.Tensor
    mean: nm.Tensor
    token_count: int


def sft_loss(model: PolicyModel, batch: TokenBatch) -> SftLoss:
    """Negative log-likelihood of each next token, summed and per-token.

    Reads the packed log-probs of the non-PAD inputs; an EOS input, whose
    target is PAD, is masked out.
    """
    ids = batch.ids
    log_probs, rows = model.packed_log_probs(ids[:, :-1])
    targets = ids[:, 1:].reshape(-1)[rows]
    mask = (targets != PAD).astype(np.float64)
    token_lp = nm.gather_last(log_probs, np.where(targets == PAD, 0, targets))
    total = -reduce_sum(token_lp * mask)
    count = int(mask.sum())
    return SftLoss(total=total, mean=total * (1.0 / count), token_count=count)


def sequence_log_probs(model: PolicyModel, ids: np.ndarray) -> np.ndarray:
    """Per-position log-probs of the realized tokens; PAD positions get 0."""
    inputs = ids[:, :-1]
    targets = ids[:, 1:]
    mask = targets != PAD
    safe_targets = np.where(mask, targets, 0)
    lp = model.action_log_probs(inputs).data
    picked = np.take_along_axis(lp, safe_targets[..., None], axis=-1)[..., 0]
    return np.where(mask, picked, 0.0)


def perplexity(model: PolicyModel, peptides: list[Peptide], batch_size: int = 64) -> float:
    """exp(mean per-token negative log-likelihood) over the dataset."""
    if not peptides:
        raise ValueError("perplexity needs at least one peptide")
    total = 0.0
    count = 0
    for start in range(0, len(peptides), batch_size):
        chunk = peptides[start : start + batch_size]
        out = sft_loss(model, encode_batch(chunk))
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
    """Adam on the next-token loss; keeps the best-validation-perplexity weights.

    Stops once the epochs since the best validation score reach the patience.
    """
    if not train or not val:
        raise ValueError("train and validation sets must both be non-empty")
    params = model.trainable()
    if not params:
        raise ValueError("model has no trainable parameters")
    opt = nm.Adam(params, lr=config.lr)
    shuffle_rng = substream(config.seed, "sft.shuffle")
    history: list[dict] = []
    best_ppl = float("inf")
    best_epoch = 0
    best_state = [p.data.copy() for p in params]

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train))
        epoch_loss = 0.0
        epoch_tokens = 0
        for start in range(0, len(order), config.batch_size):
            chunk = [train[i] for i in order[start : start + config.batch_size]]
            out = sft_loss(model, encode_batch(chunk))
            opt.zero_grad()
            out.mean.backward()
            opt.step()
            epoch_loss += out.total.item()
            epoch_tokens += out.token_count
        val_ppl = perplexity(model, val)
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / epoch_tokens,
                "val_perplexity": val_ppl,
            }
        )
        if val_ppl < best_ppl:
            best_ppl = val_ppl
            best_epoch = epoch
            best_state = [p.data.copy() for p in params]
        if epoch - best_epoch >= config.patience:
            break

    for p, saved in zip(params, best_state):
        p.data = saved
    return SftResult(model=model, history=history, best_epoch=best_epoch, best_val_perplexity=best_ppl)


# --- sampling ---------------------------------------------------------------


@dataclass
class SampledSequence:
    peptide: Peptide
    tokens: np.ndarray
    log_probs: np.ndarray
    terminated: bool


def sample(
    model: PolicyModel,
    n: int,
    temperature: float = 1.0,
    top_k: int | None = None,
    max_len: int | None = None,
    seed: int = 0,
    source: str = "generated_sft",
    id_prefix: str = "gen",
    id_start: int = 0,
) -> list[SampledSequence]:
    """Draw n sequences; per-token log-probs are under the untempered model.

    All rows advance in lockstep and uniforms are drawn for every row at every
    step, so row i's outcome does not depend on when other rows finish. A row
    that exhausts the residue budget has EOS forced as its final action (its
    log-prob is still the model's own), and is flagged as not terminated.
    Decoding runs on plain arrays through a key/value cache (`_Decoder`) and
    gives the same logits as the autodiff forward of the whole prefix.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1 when given")
    limit = model.config.max_len if max_len is None else min(max_len, model.config.max_len)
    rng = substream(seed, "policy.sample")
    decoder = _Decoder(model, n, limit + 1)

    tokens = np.full((n, limit + 1), PAD, dtype=np.int64)
    lps = np.zeros((n, limit + 1))
    lengths = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    feed = np.full(n, BOS, dtype=np.int64)

    for step in range(limit + 1):
        logits = decoder.step(feed)
        if step == 0:
            logits[:, EOS] = NEG
        base_lp = _log_softmax(logits)
        sample_logits = logits / temperature
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
        lengths[rows] += 1
        feed = np.where(alive, choices, PAD)
        alive &= choices != EOS
        if not alive.any():
            break

    out: list[SampledSequence] = []
    for i in range(n):
        k = int(lengths[i])
        residues = decode_tokens(tokens[i, :k])
        pep = Peptide(id=f"{id_prefix}{id_start + i}", residues=residues, source=source)
        out.append(
            SampledSequence(
                peptide=pep,
                tokens=tokens[i, :k].copy(),
                log_probs=lps[i, :k].copy(),
                terminated=len(residues) < limit,
            )
        )
    return out


class _Decoder:
    """One token per row per step through the policy, on plain arrays.

    LoRA deltas are merged into the attention weights once, with the same
    expression as `PolicyModel._weight`. Each layer keeps the keys and
    values of every position fed so far, so a step attends over the cache
    instead of re-running the prefix. No autodiff graph is built, so the
    logits of each step are checked for finiteness here.
    """

    def __init__(self, model: PolicyModel, n: int, steps: int):
        cfg = model.config
        self.config = cfg
        self.w = {name: p.data for name, p in model.params.items()}
        for name, delta in model.lora.items():
            self.w[name] = self.w[name] + np.matmul(delta.a.data, delta.b.data) * (delta.scaling / delta.rank)
        dh = cfg.embed_dim // cfg.n_heads
        self.cache = [
            (np.zeros((n, cfg.n_heads, steps, dh)), np.zeros((n, cfg.n_heads, steps, dh)))
            for _ in range(cfg.n_layers)
        ]
        self.pos = 0

    def step(self, feed: np.ndarray) -> np.ndarray:
        """Next-action logits (n, 21) after feeding one token per row."""
        cfg, w, t = self.config, self.w, self.pos
        n = feed.shape[0]
        heads = cfg.n_heads
        dh = cfg.embed_dim // heads
        x = w["tok_embed"][feed] + w["pos_embed"][t]
        for i, (k_cache, v_cache) in enumerate(self.cache):
            pre = f"layer{i}"
            h = _layer_norm(x, w[f"{pre}.ln1.g"], w[f"{pre}.ln1.b"])[0]
            q = (np.matmul(h, w[f"{pre}.attn.wq"]) + w[f"{pre}.attn.qb"]).reshape((n, heads, 1, dh))
            k_cache[:, :, t] = np.matmul(h, w[f"{pre}.attn.wk"]).reshape((n, heads, dh))
            v_cache[:, :, t] = (np.matmul(h, w[f"{pre}.attn.wv"]) + w[f"{pre}.attn.vb"]).reshape((n, heads, dh))
            scores = np.matmul(q, np.swapaxes(k_cache[:, :, : t + 1], -1, -2)) * (1.0 / np.sqrt(dh))
            ctx = np.matmul(_softmax(scores), v_cache[:, :, : t + 1]).reshape((n, cfg.embed_dim))
            x = x + np.matmul(ctx, w[f"{pre}.attn.wo"]) + w[f"{pre}.attn.ob"]
            h2 = _layer_norm(x, w[f"{pre}.ln2.g"], w[f"{pre}.ln2.b"])[0]
            m = _gelu(np.matmul(h2, w[f"{pre}.mlp.w1"]) + w[f"{pre}.mlp.b1"])[0]
            x = x + np.matmul(m, w[f"{pre}.mlp.w2"]) + w[f"{pre}.mlp.b2"]
        x = _layer_norm(x, w["ln_f.g"], w["ln_f.b"])[0]
        logits = np.matmul(x, w["head.w"]) + w["head.b"]
        if not np.all(np.isfinite(logits)):
            raise FloatingPointError(f"non-finite result in op 'decode.logits' at step {t}")
        self.pos += 1
        return logits
