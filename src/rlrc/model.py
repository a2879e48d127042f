"""Decoder-only transformer policy over symbolic tokens.

Sequence layout: [observation tokens (instruction first)] [begin-of-action
marker].  The action head produces logits over the action vocabulary at
every position; the action is read at the marker, whose final-block hidden
state also feeds the value head.

A model is its config plus named parameters (`named_params`), and
`PolicyModel.from_params` builds one from such a dict.  A parameter is a
`Tensor`, or, for a decoder matrix of a `quant.QuantizedModel`, a
`quant.QuantizedTensor`: the storage format belongs to the weight, not
to the model.

`forward` is the differentiable forward of training, PPO log-probs and the
value head.  `fast_hidden` / `fast_logits_last` are the one inference
forward, a no-grad pass through rlrc.kernels that greedy evaluation,
serving and the benchmark use.  It serves both kinds of weight, because
the kernels apply every matrix as ``x @ W`` and a quantized weight
implements that product.  It is not `forward` under `no_grad`: the kernel
path is the faster one at batch 1, and tests pin the two paths within 1e-4
of each other.
"""

from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import kernels
from .tensor import (
    Tensor,
    ShapeError,
    add,
    embedding_lookup,
    log_softmax,
    log_softmax_gather,
    matmul,
    mean,
    mul,
    reshape,
    rms_norm,
    silu,
    softmax,
    sum_,
    take_last,
    transpose,
)

EPS_NORM = 1e-6


@dataclass
class ModelConfig:
    d_model: int = 128
    n_layers: int = 6
    n_heads_base: int = 4
    d_ff_base: int = 512
    instruction_vocab: int = 10
    observation_vocab: int = 21
    action_vocab: int = 6
    max_seq_len: int = 32
    seed: int = 0
    # per-layer interior widths; pruning shrinks these
    n_heads: list = field(default_factory=list)
    d_ff: list = field(default_factory=list)

    def __post_init__(self):
        if self.d_model <= 0 or self.n_layers <= 0:
            raise ValueError(f"invalid dims: d_model={self.d_model}, n_layers={self.n_layers}")
        if self.n_heads_base <= 0 or self.d_model % self.n_heads_base != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads_base={self.n_heads_base}"
            )
        if self.action_vocab <= 0 or self.observation_vocab <= 0:
            raise ValueError("vocab sizes must be positive")
        if not self.n_heads:
            self.n_heads = [self.n_heads_base] * self.n_layers
        if not self.d_ff:
            self.d_ff = [self.d_ff_base] * self.n_layers
        if len(self.n_heads) != self.n_layers or len(self.d_ff) != self.n_layers:
            raise ValueError("per-layer width lists must have n_layers entries")
        if min(self.n_heads) < 1 or min(self.d_ff) < 1:
            raise ValueError("per-layer widths must be >= 1")

    @property
    def head_dim(self):
        return self.d_model // self.n_heads_base

    @property
    def bos_action_id(self):
        """Token id of the begin-of-action marker."""
        return self.observation_vocab

    @property
    def action_base(self):
        """First token id of the action range."""
        return self.observation_vocab + 1

    @property
    def total_vocab(self):
        return self.observation_vocab + 1 + self.action_vocab

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown ModelConfig key(s) {sorted(unknown)}")
        return cls(**d)


class DecoderLayer:
    """Weights of one pre-norm decoder block."""

    __slots__ = ("wq", "wk", "wv", "wo", "attn_gain", "wup", "wgate", "wdown", "mlp_gain")

    def __init__(self, wq, wk, wv, wo, attn_gain, wup, wgate, wdown, mlp_gain):
        self.wq, self.wk, self.wv, self.wo = wq, wk, wv, wo
        self.attn_gain = attn_gain
        self.wup, self.wgate, self.wdown = wup, wgate, wdown
        self.mlp_gain = mlp_gain

    def named_params(self, prefix):
        for name in self.__slots__:
            yield f"{prefix}.{name}", getattr(self, name)


class PolicyModel:
    """Token transformer with a prunable interior and an action head."""

    def __init__(self, config, tok_emb, pos_emb, layers, final_gain, w_act):
        self.config = config
        self.tok_emb = tok_emb
        self.pos_emb = pos_emb
        self.layers = layers
        self.final_gain = final_gain
        self.w_act = w_act

    def named_params(self):
        yield "tok_emb", self.tok_emb
        yield "pos_emb", self.pos_emb
        for i, layer in enumerate(self.layers):
            yield from layer.named_params(f"layers.{i}")
        yield "final_gain", self.final_gain
        yield "w_act", self.w_act

    def params(self):
        return [p for _, p in self.named_params()]

    def num_params(self):
        return sum(p.size for p in self.params())

    @classmethod
    def from_params(cls, config, params):
        """Build a model from a {name: parameter} dict keyed as `named_params`."""
        layers = [
            DecoderLayer(*(params[f"layers.{i}.{name}"] for name in DecoderLayer.__slots__))
            for i in range(config.n_layers)
        ]
        return cls(config, params["tok_emb"], params["pos_emb"], layers,
                   params["final_gain"], params["w_act"])

    def copy(self):
        cfg = ModelConfig.from_dict(self.config.to_dict())
        return type(self).from_params(
            cfg, {name: Tensor(p.data.copy(), requires_grad=True)
                  for name, p in self.named_params()})


class ValueHead:
    """Two-layer perceptron d_model -> 64 -> 1 with silu, for the critic."""

    def __init__(self, w1, b1, w2, b2):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def named_params(self):
        yield "value_head.w1", self.w1
        yield "value_head.b1", self.b1
        yield "value_head.w2", self.w2
        yield "value_head.b2", self.b2

    def params(self):
        return [p for _, p in self.named_params()]

    def copy(self):
        return ValueHead(*(Tensor(p.data.copy(), requires_grad=True) for p in self.params()))

    def apply(self, hidden):
        """Scalar value per row of ``hidden`` ((..., d_model) -> (...,))."""
        squeeze = hidden.data.ndim == 1
        if squeeze:
            hidden = reshape(hidden, (1, hidden.data.shape[0]))
        h = add(matmul(hidden, self.w1), self.b1)
        out = add(matmul(silu(h), self.w2), self.b2)
        return reshape(out, () if squeeze else out.data.shape[:-1])


def init_value_head(d_model, seed=0, hidden=64):
    rng = np.random.default_rng(seed)
    def w(fan_in, shape):
        return Tensor((rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32),
                      requires_grad=True)
    return ValueHead(
        w(d_model, (d_model, hidden)),
        Tensor(np.zeros(hidden, dtype=np.float32), requires_grad=True),
        w(hidden, (hidden, 1)),
        Tensor(np.zeros(1, dtype=np.float32), requires_grad=True),
    )


def init_model(config, seed=None):
    """Deterministic scaled-normal init; gains start at one, biases at zero."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    d = config.d_model
    hd = config.head_dim

    def w(fan_in, shape):
        return Tensor((rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32),
                      requires_grad=True)

    def gain():
        return Tensor(np.ones(d, dtype=np.float32), requires_grad=True)

    tok_emb = Tensor((rng.standard_normal((config.total_vocab, d)) * 0.02).astype(np.float32),
                     requires_grad=True)
    pos_emb = Tensor((rng.standard_normal((config.max_seq_len, d)) * 0.02).astype(np.float32),
                     requires_grad=True)
    layers = []
    for li in range(config.n_layers):
        h = config.n_heads[li]
        f = config.d_ff[li]
        layers.append(DecoderLayer(
            w(d, (d, h * hd)), w(d, (d, h * hd)), w(d, (d, h * hd)),
            w(h * hd, (h * hd, d)), gain(),
            w(d, (d, f)), w(d, (d, f)), w(f, (f, d)), gain(),
        ))
    return PolicyModel(config, tok_emb, pos_emb, layers, gain(), w(d, (d, config.action_vocab)))


# ---------------------------------------------------------------------------
# autodiff forward
# ---------------------------------------------------------------------------

def _check_tokens(config, tokens):
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
        squeezed = True
    elif tokens.ndim == 2:
        squeezed = False
    else:
        raise ShapeError(f"token array must be 1-d or 2-d, got shape {tokens.shape}")
    if tokens.shape[1] > config.max_seq_len:
        raise ShapeError(
            f"sequence length {tokens.shape[1]} exceeds max_seq_len {config.max_seq_len}"
        )
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.total_vocab):
        raise IndexError(f"token id out of range [0, {config.total_vocab})")
    return tokens, squeezed


def forward(model, tokens):
    """Differentiable forward pass.

    Returns (logits over the action vocab at each position, final-block
    hidden states after the output norm).  Accepts (S,) or (B, S) int
    tokens; outputs match ((S, A), (S, D)) or ((B, S, A), (B, S, D)).
    """
    cfg = model.config
    tokens, squeezed = _check_tokens(cfg, tokens)
    b, s = tokens.shape
    hd = cfg.head_dim
    x = add(embedding_lookup(model.tok_emb, tokens),
            embedding_lookup(model.pos_emb, np.arange(s)))
    mask = np.triu(np.full((s, s), -1e9, dtype=np.float32), k=1)
    for li, layer in enumerate(model.layers):
        h = cfg.n_heads[li]
        xn = mul(rms_norm(x, -1, EPS_NORM), layer.attn_gain)
        q = transpose(reshape(matmul(xn, layer.wq), (b, s, h, hd)), (0, 2, 1, 3))
        k = transpose(reshape(matmul(xn, layer.wk), (b, s, h, hd)), (0, 2, 1, 3))
        v = transpose(reshape(matmul(xn, layer.wv), (b, s, h, hd)), (0, 2, 1, 3))
        scores = add(mul(matmul(q, transpose(k, (0, 1, 3, 2))), np.float32(1.0 / np.sqrt(hd))), mask)
        ctx = matmul(softmax(scores, -1), v)
        ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b, s, h * hd))
        x = add(x, matmul(ctx, layer.wo))
        xn = mul(rms_norm(x, -1, EPS_NORM), layer.mlp_gain)
        hmid = mul(silu(matmul(xn, layer.wgate)), matmul(xn, layer.wup))
        x = add(x, matmul(hmid, layer.wdown))
    hidden = mul(rms_norm(x, -1, EPS_NORM), model.final_gain)
    logits = matmul(hidden, model.w_act)
    if squeezed:
        logits = reshape(logits, (s, cfg.action_vocab))
        hidden = reshape(hidden, (s, cfg.d_model))
    return logits, hidden


# ---------------------------------------------------------------------------
# fast (no-grad) forward via kernels
# ---------------------------------------------------------------------------

def _array(p):
    """The array behind a parameter: a Tensor's data, else p itself."""
    return p.data if isinstance(p, Tensor) else p


def fast_hidden(model, tokens):
    """Final hidden states (after output norm) on the kernel path; (B,S,D)."""
    cfg = model.config
    tokens, _ = _check_tokens(cfg, tokens)
    b, s = tokens.shape
    x = _array(model.tok_emb)[tokens] + _array(model.pos_emb)[:s]
    x = np.ascontiguousarray(x, dtype=np.float32)
    mask = np.triu(np.full((s, s), -1e9, dtype=np.float32), k=1)
    for li, layer in enumerate(model.layers):
        wq, wk, wv, wo, attn_gain, wup, wgate, wdown, mlp_gain = (
            _array(getattr(layer, name)) for name in DecoderLayer.__slots__)
        x = kernels.attn_block(x, attn_gain, wq, wk, wv, wo, cfg.n_heads[li], cfg.head_dim,
                               mask)
        x = kernels.mlp_block(x, mlp_gain, wup, wgate, wdown)
    x = kernels.rms_rows(x.reshape(b * s, cfg.d_model), _array(model.final_gain))
    return x.reshape(b, s, cfg.d_model)


def fast_logits_last(model, tokens):
    """Action logits at the last position only; (B, A)."""
    hidden = fast_hidden(model, tokens)
    return hidden[:, -1, :] @ _array(model.w_act)


def greedy_actions(model, contexts):
    """Argmax action ids for a batch of contexts ending at a marker position."""
    return np.argmax(fast_logits_last(model, contexts), axis=1)


# ---------------------------------------------------------------------------
# action log-probs and values (autodiff path)
# ---------------------------------------------------------------------------

def batch_logprob_value(model, value_head, contexts, actions, detach_value_input=False):
    """Log-probs and values for a batch of single-token actions.

    ``contexts`` is (B, S) all ending at the marker position; ``actions``
    is (B,).  Returns differentiable ((B,) log-probs, (B,) values, entropy
    scalar).  This is the PPO update path; collection uses the same ops so
    stored and recomputed log-probs agree exactly.  With
    ``detach_value_input`` the critic reads the hidden state through a
    stop-gradient (ablation switch); by default critic gradients flow into
    the shared backbone.
    """
    logits, hidden = forward(model, contexts)
    last_logits = take_last(logits, -1, axis=1)
    lps = log_softmax_gather(last_logits, np.asarray(actions, dtype=np.int64))
    log_p = log_softmax(last_logits, -1)
    p = softmax(last_logits, -1)
    entropy = mul(mean(sum_(mul(p, log_p), axis=1)), -1.0)
    values = None
    if value_head is not None:
        h_last = take_last(hidden, -1, axis=1)
        if detach_value_input:
            h_last = h_last.detach()
        values = value_head.apply(h_last)
    return lps, values, entropy


def build_contexts(config, obs_tokens):
    """Append the begin-of-action marker column to (B, obs_len) tokens."""
    obs = np.asarray(obs_tokens, dtype=np.int64)
    if obs.ndim == 1:
        obs = obs[None, :]
    marker = np.full((obs.shape[0], 1), config.bos_action_id, dtype=np.int64)
    return np.concatenate([obs, marker], axis=1)
