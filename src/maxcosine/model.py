"""LSTM encoder, dropout placement, softmax decision layer, and exact backward
passes for the base and biway architectures."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import SentencePair, LABEL_NAMES
from .embeddings import DEFAULT_OOV_WINDOW, EmbeddingLibrary, embed_sentence
from .matching import EmptySentenceError, match_indices
from .numerics import sigmoid, sigmoid_grad, softmax, tanh_grad

N_LABELS = 3


@dataclass
class ModelConfig:
    embedding_dim: int          # d of the (possibly concatenated) library
    k: int = 300                # LSTM hidden size
    dropout_rate: float = 0.0   # applied to LSTM input and output, train mode only
    biway: bool = False
    bi_embedding: bool = False
    seed: int = 0
    oov_window: int = DEFAULT_OOV_WINDOW

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.k <= 0 or self.embedding_dim <= 0:
            raise ValueError("k and embedding_dim must be positive")

    @property
    def input_dim(self) -> int:
        return 2 * self.embedding_dim


GATES = ("i", "f", "o", "c")


@dataclass
class LstmParams:
    """The four gates stacked in `GATES` order: row block j of `W` and `b` is
    gate GATES[j], and the columns of `W` read [z_t || h_{t-1}]."""

    W: np.ndarray  # (4k, input_dim + k)
    b: np.ndarray  # (4k,)

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // len(GATES)

    @property
    def input_dim(self) -> int:
        return self.W.shape[1] - self.hidden_size


def gate_views(params: LstmParams) -> dict[str, np.ndarray]:
    """Per-gate row views `W_i … W_c, b_i … b_c`: the names under which
    parameters(), backward() and checkpoints expose an LSTM."""
    k = params.hidden_size
    out = {}
    for prefix, arr in (("W", params.W), ("b", params.b)):
        for j, gate in enumerate(GATES):
            out[f"{prefix}_{gate}"] = arr[j * k : (j + 1) * k]
    return out


@dataclass
class SoftmaxParams:
    W_s: np.ndarray  # (3, k) base, (3, 2k) biway
    b_s: np.ndarray  # (3,)


@dataclass
class EncodeTrace:
    """Per-timestep activations cached by the forward pass for BPTT."""

    H: np.ndarray        # (m, input_dim + k) concatenated [dropped z_t || h_{t-1}]
    gates: np.ndarray    # (m, 4k) gate activations i, f, o (sigmoid) and c (tanh)
    c: np.ndarray        # (m, k)
    tanh_c: np.ndarray
    h: np.ndarray
    out_mask: Optional[np.ndarray]  # (k,) inverted-dropout mask on h_m, or None
    h_final: np.ndarray  # h_m after output dropout (train) or identity (eval)

    def __len__(self) -> int:
        return self.H.shape[0]


@dataclass
class ForwardTrace:
    enc_h: EncodeTrace                 # hypothesis-conditioned-on-premise encoder
    enc_p: Optional[EncodeTrace]       # premise-conditioned-on-hypothesis (biway)
    h_out: np.ndarray                  # vector fed to the softmax layer
    probabilities: np.ndarray


class Model:
    def __init__(
        self,
        config: ModelConfig,
        lstm_h: LstmParams,
        softmax_params: SoftmaxParams,
        lstm_p: Optional[LstmParams] = None,
    ):
        if config.biway and lstm_p is None:
            raise ValueError("biway model requires a second LstmParams")
        self.config = config
        self.lstm_h = lstm_h
        self.lstm_p = lstm_p
        self.softmax = softmax_params

    def parameters(self) -> dict[str, np.ndarray]:
        """Live views of every trainable array, in a fixed deterministic order."""
        out: dict[str, np.ndarray] = {}
        groups = [("lstm_h", self.lstm_h)]
        if self.config.biway:
            groups.append(("lstm_p", self.lstm_p))
        for prefix, p in groups:
            for name, view in gate_views(p).items():
                out[f"{prefix}.{name}"] = view
        out["softmax.W_s"] = self.softmax.W_s
        out["softmax.b_s"] = self.softmax.b_s
        return out

    def copy(self) -> "Model":
        return Model(
            config=copy.deepcopy(self.config),
            lstm_h=copy.deepcopy(self.lstm_h),
            softmax_params=copy.deepcopy(self.softmax),
            lstm_p=copy.deepcopy(self.lstm_p),
        )


def _glorot(rng: np.random.Generator, rows: int, shape: tuple[int, int]) -> np.ndarray:
    """Uniform draw with the Glorot limit of a (rows, shape[1]) matrix; a stacked
    matrix of several such blocks consumes the stream as one draw per block would."""
    limit = np.sqrt(6.0 / (rows + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def parameter_count(config: ModelConfig) -> int:
    """Number of float64 values in a model of `config`, as zero_model lays it out."""
    k = config.k
    lstms = 2 if config.biway else 1
    return lstms * len(GATES) * k * (config.input_dim + k + 1) + N_LABELS * (lstms * k + 1)


def zero_model(config: ModelConfig) -> Model:
    """A model with every parameter zero, in the shapes `config` implies."""
    k, n = config.k, config.input_dim + config.k

    def lstm() -> LstmParams:
        return LstmParams(W=np.zeros((len(GATES) * k, n)), b=np.zeros(len(GATES) * k))

    softmax_cols = 2 * k if config.biway else k
    softmax_params = SoftmaxParams(W_s=np.zeros((N_LABELS, softmax_cols)), b_s=np.zeros(N_LABELS))
    return Model(config, lstm(), softmax_params, lstm() if config.biway else None)


def init_model(config: ModelConfig, rng: np.random.Generator) -> Model:
    """Uniform Glorot weights (per gate for the LSTMs), zero biases; biway
    allocates two independent LSTMs."""
    model = zero_model(config)
    for lstm in (model.lstm_h, model.lstm_p):
        if lstm is not None:
            lstm.W = _glorot(rng, config.k, lstm.W.shape)
    model.softmax.W_s = _glorot(rng, N_LABELS, model.softmax.W_s.shape)
    return model


def check_library_dim(config: ModelConfig, lib: EmbeddingLibrary) -> None:
    """Reject a library whose vectors do not have the model's embedding width."""
    if lib.dim != config.embedding_dim:
        raise ValueError(
            f"library dimension {lib.dim} != checkpoint embedding_dim {config.embedding_dim}"
        )


def dropout_mask(rng: np.random.Generator, size, rate: float) -> np.ndarray:
    """Inverted-dropout mask of shape `size`: entries are 0 or 1/(1-rate)."""
    return (rng.random(size) >= rate) / (1.0 - rate)


def encode_sequence(
    params: LstmParams,
    Z: np.ndarray,
    dropout_rate: float,
    train: bool,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, EncodeTrace]:
    """Run the LSTM over the (m, input_dim) augmented sequence from zero state.

    Train mode applies inverted dropout to each input and to the final hidden
    state; eval mode is deterministic and dropout-free. The input projection of
    the whole sequence is one product; the recurrence adds `W_h @ h` per step.
    """
    m = Z.shape[0]
    if m == 0:
        raise ValueError("empty sequence")
    k, n_in = params.hidden_size, params.input_dim
    if Z.shape[1] != n_in:
        raise ValueError(f"input length {Z.shape[1]} != expected {n_in}")
    drop = train and dropout_rate > 0.0
    if drop and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    dt = np.result_type(Z.dtype, params.W.dtype, np.float64)
    Hs = np.zeros((m, n_in + k), dtype=dt)
    # one mask row per timestep, drawn in timestep order
    Hs[:, :n_in] = Z * dropout_mask(rng, Z.shape, dropout_rate) if drop else Z
    gates = Hs[:, :n_in] @ params.W[:, :n_in].T + params.b
    W_h = params.W[:, n_in:]
    cs, tanh_cs, hs = (np.empty((m, k), dtype=dt) for _ in range(3))
    h = np.zeros(k, dtype=dt)
    c = np.zeros(k, dtype=dt)
    for t in range(m):
        Hs[t, n_in:] = h
        a = gates[t]
        a += W_h @ h
        a[: 3 * k] = sigmoid(a[: 3 * k])
        a[3 * k :] = np.tanh(a[3 * k :])
        i, f, o, g = a.reshape(len(GATES), k)
        c = f * c + i * g
        tanh_cs[t] = np.tanh(c)
        h = o * tanh_cs[t]
        cs[t], hs[t] = c, h
    out_mask = dropout_mask(rng, k, dropout_rate) if drop else None
    h_final = h * out_mask if drop else h
    trace = EncodeTrace(
        H=Hs, gates=gates, c=cs, tanh_c=tanh_cs, h=hs, out_mask=out_mask, h_final=h_final
    )
    return h_final, trace


def decide(softmax_params: SoftmaxParams, h: np.ndarray) -> tuple[np.ndarray, int]:
    """Linear layer + softmax; label is the 1-based argmax, ties to the smaller index."""
    if h.shape[0] != softmax_params.W_s.shape[1]:
        raise ValueError(
            f"hidden length {h.shape[0]} != softmax width {softmax_params.W_s.shape[1]}"
        )
    p = softmax_params.W_s @ h + softmax_params.b_s
    probs = softmax(p)
    return probs, int(np.argmax(probs)) + 1


def augment_pair(
    pair: SentencePair, lib: EmbeddingLibrary, config: ModelConfig
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Matching step: the (m, 2d) rows [own || matched] of hypothesis|premise
    always, and of premise|hypothesis when biway. Each sentence is resolved once
    and both directions share it."""
    if not pair.premise_tokens or not pair.hypothesis_tokens:
        raise EmptySentenceError("cannot match against an empty sentence")
    prem = embed_sentence(lib, pair.premise_tokens, config.oov_window)
    hyp = embed_sentence(lib, pair.hypothesis_tokens, config.oov_window)
    z_h = np.hstack([hyp, prem[match_indices(hyp, prem)]])
    z_p = np.hstack([prem, hyp[match_indices(prem, hyp)]]) if config.biway else None
    return z_h, z_p


def forward_from_sequences(
    model: Model,
    Z_h: np.ndarray,
    Z_p: Optional[np.ndarray],
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, ForwardTrace]:
    cfg = model.config
    rate = cfg.dropout_rate
    h_h, enc_h = encode_sequence(model.lstm_h, Z_h, rate, train, rng)
    if cfg.biway:
        if Z_p is None:
            raise ValueError("biway forward needs the premise-side sequence")
        h_p, enc_p = encode_sequence(model.lstm_p, Z_p, rate, train, rng)
        h_out = np.concatenate([h_p, h_h])  # premise-side first
    else:
        enc_p = None
        h_out = h_h
    probs, _ = decide(model.softmax, h_out)
    return probs, ForwardTrace(enc_h=enc_h, enc_p=enc_p, h_out=h_out, probabilities=probs)


def forward(
    model: Model,
    pair: SentencePair,
    lib: EmbeddingLibrary,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Full forward pass: matching, encoding, decision."""
    z_h, z_p = augment_pair(pair, lib, model.config)
    return forward_from_sequences(model, z_h, z_p, train, rng)


def _bptt(params: LstmParams, trace: EncodeTrace, dh_last: np.ndarray) -> LstmParams:
    """Gradients of `params` given dL/dh_m, laid out like `params`."""
    k = params.hidden_size
    W_hT = params.W[:, params.input_dim :].T
    dA = np.empty((len(trace), len(GATES) * k))
    dh = dh_last
    dc = np.zeros(k)
    for t in range(len(trace) - 1, -1, -1):
        i, f, o, g = trace.gates[t].reshape(len(GATES), k)
        tanh_c = trace.tanh_c[t]
        c_prev = trace.c[t - 1] if t > 0 else np.zeros(k)
        dc = dc + dh * o * tanh_grad(tanh_c)
        da_i, da_f, da_o, da_c = dA[t].reshape(len(GATES), k)
        da_i[:] = dc * g * sigmoid_grad(i)
        da_f[:] = dc * c_prev * sigmoid_grad(f)
        da_o[:] = dh * tanh_c * sigmoid_grad(o)
        da_c[:] = dc * i * tanh_grad(g)
        dh = W_hT @ dA[t]
        dc = dc * f
    return LstmParams(W=dA.T @ trace.H, b=dA.sum(axis=0))


def backward(model: Model, trace: ForwardTrace, gold_label: int) -> dict[str, np.ndarray]:
    """Gradients of the cross-entropy loss for one pair, keyed like parameters().

    Embedding vectors receive no gradient; they are fixed inputs.
    """
    if gold_label not in LABEL_NAMES:
        raise ValueError(f"invalid gold label {gold_label}")
    probs = trace.probabilities
    dp = probs.copy()
    dp[gold_label - 1] -= 1.0
    grads: dict[str, np.ndarray] = {
        "softmax.W_s": np.outer(dp, trace.h_out),
        "softmax.b_s": dp.copy(),
    }
    dh_out = model.softmax.W_s.T @ dp
    k = model.config.k
    if model.config.biway:
        dh_p, dh_h = dh_out[:k], dh_out[k:]
        if trace.enc_p.out_mask is not None:
            dh_p = dh_p * trace.enc_p.out_mask
        if trace.enc_h.out_mask is not None:
            dh_h = dh_h * trace.enc_h.out_mask
        for name, g in gate_views(_bptt(model.lstm_p, trace.enc_p, dh_p)).items():
            grads[f"lstm_p.{name}"] = g
    else:
        dh_h = dh_out
        if trace.enc_h.out_mask is not None:
            dh_h = dh_h * trace.enc_h.out_mask
    for name, g in gate_views(_bptt(model.lstm_h, trace.enc_h, dh_h)).items():
        grads[f"lstm_h.{name}"] = g
    return {name: grads[name] for name in model.parameters()}
