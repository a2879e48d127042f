"""Decoder-only transformer policy over symbolic tokens.

Sequence layout: [observation tokens (instruction first)] [begin-of-action
marker].  The action is read at the marker, the last position, whose
final-block hidden state also feeds the value head; the decoder computes
its output there only.

A model is its own copy of its config plus one {name: parameter} dict,
`PolicyModel(config, params)`, which must hold exactly the names
`param_shapes` gives from the config alone, and holds them in that order
(`named_params`); a missing or unexpected name is an error that names
it.  A parameter is a `Tensor`, or, for a decoder matrix of a
`quant.QuantizedModel`, a `quant.QuantizedTensor`: the storage format
belongs to the weight, not to the model.

`forward` is the one decoder, a chain of `tensor.fused` nodes over
rlrc.kernels, each with its hand-written backward: the token plus position
embedding (`kernels.embed`), two nodes per layer (`kernels.attn_block`,
`kernels.mlp_block`), the output norm (`kernels.rms_rows`, the same norm
the blocks apply) and the action head (`kernels.linear`).  Every layer but
the last runs over all positions; the last computes keys and values for
all of them and the rest (queries, attention output, MLP) for the marker
row only, and so do the output norm and the action head.  Tokens are
always a (B, S) batch, and `_check_tokens` is the one check of their
shape and ids.  The value head is one `kernels.value_mlp` node, whose
gradients flow into the shared backbone.  SFT, the PPO update
(`batch_logprob_value`) and Taylor scoring record the nodes (Taylor
scoring from its first scored layer up, the rest of its parameters being
constants); under `no_grad` the same call runs the kernels and records
nothing, which is how `fast_logits_last` serves.  A quantized weight
implements ``x @ W`` for the kernels, so a quantized model serves through
`forward` under `no_grad` and is rejected, by parameter name, with grad
enabled.

With nothing recorded, rows are independent: a no-grad call on more than
64 contexts decodes them in 64-row slices and joins the outputs, so
evaluation and held-out losses over hundreds of contexts hold one slice's
temporaries at a time.  Training bounds its graphs the same way, by
backpropagating a chunk of rows at a time (`tensor.backward_in_chunks`).
A chunk is bounded by the activation values its graph saves, not by a
row count: `chunk_rows` gives the rows that fit one budget at the model's
widths, so a dense model's chunks hold half the rows of a 90%-pruned one's.
"""

from dataclasses import dataclass, field, asdict

import numpy as np

from . import kernels
from .tensor import GradError, ShapeError, Tensor, fused, grad_enabled, no_grad


@dataclass
class ModelConfig:
    d_model: int = 128
    n_layers: int = 6
    n_heads_base: int = 4
    d_ff_base: int = 512
    observation_vocab: int = 21
    action_vocab: int = 6
    max_seq_len: int = 32
    seed: int = 0
    # per-layer interior widths; pruning shrinks these
    n_heads: list = field(default_factory=list)
    d_ff: list = field(default_factory=list)

    def __post_init__(self):
        if self.d_model <= 0 or self.n_layers <= 0 or self.max_seq_len <= 0:
            raise ValueError(f"invalid dims: d_model={self.d_model}, n_layers={self.n_layers}, "
                             f"max_seq_len={self.max_seq_len}")
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


# the parameters of one decoder layer, in `named_params` order
LAYER_PARAMS = ("wq", "wk", "wv", "wo", "attn_gain", "wup", "wgate", "wdown", "mlp_gain")


def _checked(params, names):
    """``params`` reordered as ``names``, which it must hold exactly."""
    missing = [name for name in names if name not in params]
    unexpected = [name for name in params if name not in names]
    if missing or unexpected:
        raise ValueError(f"parameters missing {missing}, unexpected {unexpected}")
    return {name: params[name] for name in names}


class PolicyModel:
    """Token transformer with a prunable interior and an action head: its
    own copy of ``config`` and a {name: parameter} dict holding exactly
    `param_shapes`' names, in that order."""

    def __init__(self, config, params):
        self.config = ModelConfig(**config.to_dict())
        self._params = _checked(params, param_shapes(self.config))

    def named_params(self):
        return self._params.items()

    def params(self):
        return list(self._params.values())

    def num_params(self):
        return sum(p.size for p in self.params())

    def copy(self):
        """A model with its own copy of every Tensor; quantized matrices,
        which nothing updates in place, are shared."""
        return type(self)(self.config, {name: Tensor(p.data.copy()) if isinstance(p, Tensor)
                                        else p for name, p in self.named_params()})


class ValueHead:
    """Two-layer perceptron d_model -> 64 -> 1 with silu, for the critic;
    a {name: parameter} dict holding exactly `value_head_shapes`' names."""

    def __init__(self, params):
        # the names do not depend on the width
        self._params = _checked(params, value_head_shapes(0))

    def named_params(self):
        return self._params.items()

    def params(self):
        return list(self._params.values())

    def copy(self):
        return ValueHead({name: Tensor(p.data.copy()) for name, p in self.named_params()})

    def apply(self, hidden):
        """One value per row of ``hidden``, its leading axes flattened:
        (B, 1, d_model) -> (B,); one `kernels.value_mlp` node."""
        return fused(kernels.value_mlp, kernels.value_mlp_backward,
                     (hidden, *self._params.values()))


def param_shapes(config):
    """{name: shape} of every parameter of a model of ``config``, in
    `named_params` order."""
    d, hd = config.d_model, config.head_dim
    shapes = {"tok_emb": (config.total_vocab, d), "pos_emb": (config.max_seq_len, d)}
    for li, (h, f) in enumerate(zip(config.n_heads, config.d_ff)):
        a = h * hd
        layer = ((d, a), (d, a), (d, a), (a, d), (d,), (d, f), (d, f), (f, d), (d,))
        for name, shape in zip(LAYER_PARAMS, layer):
            shapes[f"layers.{li}.{name}"] = shape
    shapes["final_gain"] = (d,)
    shapes["w_act"] = (d, config.action_vocab)
    return shapes


# activation values one autodiff chunk may save, counted as rows x context
# positions x the summed output widths of the decoder matrices; a chunk's
# recorded graph tracks this count to within about 12% (tracemalloc).  The
# budget is a 32-row chunk of 16-position contexts on the recipe's
# 90%-pruned policy (summed width 4,936), so recovery keeps its 32-row
# chunks while the dense default model (9,984) runs 15-row ones, and a
# chunk's graph is about the same size on both.
_CHUNK_VALUES = 32 * 16 * 4936


def chunk_rows(config, context_len):
    """Rows per chunk of `tensor.backward_in_chunks` on contexts of
    ``context_len`` positions: the most whose activation values fit
    `_CHUNK_VALUES` at ``config``'s widths, and at least one."""
    width = sum(shape[1] for name, shape in param_shapes(config).items()
                if name.startswith("layers.") and len(shape) == 2)
    return max(1, _CHUNK_VALUES // (context_len * width))


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
        params[name] = Tensor(data)
    return params


def init_value_head(d_model, seed):
    """Deterministic scaled-normal init; biases start at zero."""
    params = _init_params(value_head_shapes(d_model), np.random.default_rng(seed))
    return ValueHead(params)


def init_model(config):
    """Deterministic scaled-normal init at ``config.seed``; gains start at one."""
    rng = np.random.default_rng(config.seed)
    return PolicyModel(config, _init_params(param_shapes(config), rng))


# ---------------------------------------------------------------------------
# the decoder
# ---------------------------------------------------------------------------

def _check_tokens(config, tokens):
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be a (B, S) batch, got shape {tokens.shape}")
    if not 0 < tokens.shape[1] <= config.max_seq_len:
        raise ShapeError(
            f"sequence length {tokens.shape[1]} outside [1, max_seq_len={config.max_seq_len}]"
        )
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.total_vocab):
        raise IndexError(f"token id out of range [0, {config.total_vocab})")
    return tokens


# contexts per slice of a no-grad `forward`: its temporaries stay one
# slice's size whatever the batch, and serving batches of up to this many
# contexts run in one piece
_SLICE_ROWS = 64


def forward(model, tokens):
    """The decoder: action logits and final hidden state at the last position.

    Returns (logits over the action vocab, final-block hidden state after
    the output norm), both at the last position only.  Takes (B, S) int
    tokens and returns ((B, 1, A), (B, 1, D)), keeping a length-1 position
    axis.  Differentiable with grad enabled; a quantized model runs only
    under `no_grad`.  Under `no_grad`, more than 64 contexts are decoded 64
    at a time and the outputs joined.
    """
    tokens = _check_tokens(model.config, tokens)
    if grad_enabled():
        for name, p in model.named_params():
            if not isinstance(p, Tensor):
                raise GradError(f"{name} is a {type(p).__name__}: quantized models are "
                                "inference-only, run forward under no_grad")
    elif tokens.shape[0] > _SLICE_ROWS:
        slices = [_decode(model, tokens[r:r + _SLICE_ROWS])
                  for r in range(0, tokens.shape[0], _SLICE_ROWS)]
        logits = np.concatenate([lg.data for lg, _ in slices])
        hidden = np.concatenate([h.data for _, h in slices])
        return Tensor(logits, dtype=logits.dtype), Tensor(hidden, dtype=hidden.dtype)
    return _decode(model, tokens)


def _decode(model, tokens):
    """`forward` of checked (B, S) tokens: ((B, 1, A), (B, 1, D))."""
    cfg = model.config
    s = tokens.shape[1]
    tok_emb, pos_emb, *layers, final_gain, w_act = model._params.values()
    x = fused(kernels.embed, kernels.embed_backward, (tok_emb, pos_emb), tokens)
    mask = np.triu(np.full((s, s), -1e9, dtype=x.data.dtype), k=1)
    n = len(LAYER_PARAMS)
    last = cfg.n_layers - 1
    for li in range(cfg.n_layers):
        wq, wk, wv, wo, attn_gain, wup, wgate, wdown, mlp_gain = layers[li * n:(li + 1) * n]
        # the last layer's queries are the marker row's: x becomes (B, 1, D)
        x = fused(kernels.attn_block, kernels.attn_block_backward,
                  (x, attn_gain, wq, wk, wv, wo),
                  cfg.n_heads[li], cfg.head_dim, mask[-1:] if li == last else mask)
        x = fused(kernels.mlp_block, kernels.mlp_block_backward,
                  (x, mlp_gain, wup, wgate, wdown))
    hidden = fused(kernels.rms_rows, kernels.rms_rows_backward, (x, final_gain))
    return fused(kernels.linear, kernels.linear_backward, (hidden, w_act)), hidden


def fast_logits_last(model, tokens):
    """Action logits at the last position: `forward` under `no_grad`; (B, A)."""
    with no_grad():
        logits, _ = forward(model, tokens)
    return logits.data[:, -1, :]


def greedy_actions(model, contexts):
    """Argmax action ids for a batch of contexts ending at a marker position."""
    return np.argmax(fast_logits_last(model, contexts), axis=1)


# ---------------------------------------------------------------------------
# the PPO update's forward pass
# ---------------------------------------------------------------------------

def batch_logprob_value(model, value_head, contexts):
    """Action logits and critic values at the marker of (B, S) contexts.

    Returns differentiable ((B, 1, A) logits, (B,) values): `forward` and
    the value head on its hidden state, so critic gradients flow into the
    shared backbone.  This is the PPO update's forward pass;
    ``kernels.ppo_objective`` turns the logits into the log-probs rollout
    collection stored, with the same `kernels.log_softmax`.
    """
    logits, hidden = forward(model, contexts)
    return logits, value_head.apply(hidden)


def build_contexts(config, obs_tokens):
    """Append the begin-of-action marker column to (B, obs_len) tokens."""
    obs = np.asarray(obs_tokens, dtype=np.int64)
    marker = np.full((obs.shape[0], 1), config.bos_action_id, dtype=np.int64)
    return np.concatenate([obs, marker], axis=1)
