"""Decoder-only transformer policy over symbolic tokens.

Sequence layout: [observation tokens (instruction first)] [begin-of-action
marker].  The action is read at the marker, the last position, whose
final-block hidden state also feeds the value head; the decoder computes
its output there only.

A model is its config plus named parameters (`named_params`), and
`PolicyModel.from_params` builds one from such a dict.  A parameter is a
`Tensor`, or, for a decoder matrix of a `quant.QuantizedModel`, a
`quant.QuantizedTensor`: the storage format belongs to the weight, not
to the model.  `param_shapes` gives every parameter's shape from the
config alone.

`forward` is the one decoder.  Each layer is two autodiff nodes whose
forward bodies are `kernels.attn_block` and `kernels.mlp_block` and whose
backward is hand-written next to them.  Every layer but the last runs over
all positions; the last computes keys and values for all of them and the
rest (queries, attention output, MLP) for the marker row only, and so do
the output norm and the action head.  Training, PPO log-probs, the value
head and Taylor scoring record the nodes; under `no_grad` the same call
runs the kernels and records nothing, which is how `fast_logits_last`
serves.  A quantized weight implements ``x @ W`` for the kernels, so a
quantized model serves through `forward` under `no_grad` and is rejected,
by parameter name, with grad enabled.
"""

from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import kernels
from .tensor import (
    GradError,
    Tensor,
    ShapeError,
    add,
    embedding_lookup,
    fused,
    grad_enabled,
    log_softmax,
    log_softmax_gather,
    matmul,
    mean,
    mul,
    no_grad,
    reshape,
    rms_norm,
    silu,
    softmax,
    sum_,
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
        """A model with its own copy of every Tensor; quantized matrices,
        which nothing updates in place, are shared."""
        cfg = ModelConfig.from_dict(self.config.to_dict())
        return type(self).from_params(
            cfg, {name: Tensor(p.data.copy(), requires_grad=True) if isinstance(p, Tensor) else p
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


def param_shapes(config):
    """{name: shape} of every parameter of a model of ``config``, in
    `named_params` order."""
    d, hd = config.d_model, config.head_dim
    shapes = {"tok_emb": (config.total_vocab, d), "pos_emb": (config.max_seq_len, d)}
    for li, (h, f) in enumerate(zip(config.n_heads, config.d_ff)):
        a = h * hd
        layer = ((d, a), (d, a), (d, a), (a, d), (d,), (d, f), (d, f), (f, d), (d,))
        for name, shape in zip(DecoderLayer.__slots__, layer):
            shapes[f"layers.{li}.{name}"] = shape
    shapes["final_gain"] = (d,)
    shapes["w_act"] = (d, config.action_vocab)
    return shapes


def value_head_shapes(d_model):
    """{name: shape} of the value head's parameters, in `named_params` order."""
    return {"value_head.w1": (d_model, 64), "value_head.b1": (64,),
            "value_head.w2": (64, 1), "value_head.b2": (1,)}


def _init_params(shapes, rng):
    """Scaled-normal matrices (1/sqrt(fan_in)), embeddings N(0, 0.02^2),
    gains one and biases zero; drawn in table order."""
    params = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            data = np.full(shape, 1.0 if name.endswith("gain") else 0.0, dtype=np.float32)
        elif name.endswith("_emb"):
            data = (rng.standard_normal(shape) * 0.02).astype(np.float32)
        else:
            data = (rng.standard_normal(shape) / np.sqrt(shape[0])).astype(np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return params


def init_value_head(d_model, seed=0):
    """Deterministic scaled-normal init; biases start at zero."""
    params = _init_params(value_head_shapes(d_model), np.random.default_rng(seed))
    return ValueHead(*params.values())


def init_model(config, seed=None):
    """Deterministic scaled-normal init; gains start at one."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return PolicyModel.from_params(config, _init_params(param_shapes(config), rng))


# ---------------------------------------------------------------------------
# the decoder
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
    if not 0 < tokens.shape[1] <= config.max_seq_len:
        raise ShapeError(
            f"sequence length {tokens.shape[1]} outside [1, max_seq_len={config.max_seq_len}]"
        )
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.total_vocab):
        raise IndexError(f"token id out of range [0, {config.total_vocab})")
    return tokens, squeezed


def forward(model, tokens):
    """The decoder: action logits and final hidden state at the last position.

    Returns (logits over the action vocab, final-block hidden state after
    the output norm), both at the last position only.  Accepts (S,) or
    (B, S) int tokens; outputs are ((1, A), (1, D)) or ((B, 1, A),
    (B, 1, D)), keeping a length-1 position axis.  Differentiable with grad
    enabled; a quantized model runs only under `no_grad`.
    """
    cfg = model.config
    tokens, squeezed = _check_tokens(cfg, tokens)
    if grad_enabled():
        for name, p in model.named_params():
            if not isinstance(p, Tensor):
                raise GradError(f"{name} is a {type(p).__name__}: quantized models are "
                                "inference-only, run forward under no_grad")
    b, s = tokens.shape
    x = add(embedding_lookup(model.tok_emb, tokens),
            embedding_lookup(model.pos_emb, np.arange(s)))
    mask = np.triu(np.full((s, s), -1e9, dtype=x.data.dtype), k=1)
    last = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        # the last layer's queries are the marker row's: x becomes (B, 1, D)
        x = fused(kernels.attn_block, kernels.attn_block_backward,
                  (x, layer.attn_gain, layer.wq, layer.wk, layer.wv, layer.wo),
                  cfg.n_heads[li], cfg.head_dim, mask[-1:] if li == last else mask)
        x = fused(kernels.mlp_block, kernels.mlp_block_backward,
                  (x, layer.mlp_gain, layer.wup, layer.wgate, layer.wdown))
    hidden = mul(rms_norm(x, -1, EPS_NORM), model.final_gain)
    logits = matmul(hidden, model.w_act)
    if squeezed:
        logits = reshape(logits, (1, cfg.action_vocab))
        hidden = reshape(hidden, (1, cfg.d_model))
    return logits, hidden


def fast_logits_last(model, tokens):
    """Action logits at the last position: `forward` under `no_grad`; (B, A)."""
    with no_grad():
        logits, _ = forward(model, tokens)
    return np.atleast_2d(logits.data[..., -1, :])


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
    scalar), all read at the marker, the one position `forward` computes.
    This is the PPO update path; collection uses the same ops so
    stored and recomputed log-probs agree exactly.  With
    ``detach_value_input`` the critic reads the hidden state through a
    stop-gradient (ablation switch); by default critic gradients flow into
    the shared backbone.
    """
    logits, hidden = forward(model, contexts)
    last_logits = reshape(logits, (-1, model.config.action_vocab))
    lps = log_softmax_gather(last_logits, np.asarray(actions, dtype=np.int64))
    log_p = log_softmax(last_logits, -1)
    p = softmax(last_logits, -1)
    entropy = mul(mean(sum_(mul(p, log_p), axis=1)), -1.0)
    values = None
    if value_head is not None:
        h_last = reshape(hidden, (-1, model.config.d_model))
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
