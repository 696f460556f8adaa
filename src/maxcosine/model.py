"""LSTM encoder, dropout placement, softmax decision layer, and exact backward
passes for the base and biway architectures."""

from __future__ import annotations

import copy
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .data import SentencePair, LABEL_NAMES
from .embeddings import DEFAULT_OOV_WINDOW, EmbeddingLibrary
from .matching import index_pairs
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
class LstmTrace:
    """Activations of one LSTM over a packed batch, cached for BPTT.

    The batch's sequences are sorted by length, longest first (stable), and laid
    out time-major: rows `steps[t]:steps[t+1]` are timestep t of the sequences
    still running, so the sequence of sorted rank j is at row `steps[t] + j`.
    """

    H: np.ndarray        # (N, input_dim + k) rows [dropped z_t || h_{t-1}]
    gates: np.ndarray    # (N, 4k) gate activations i, f, o (sigmoid) and c (tanh)
    c: np.ndarray        # (N, k)
    tanh_c: np.ndarray
    h: np.ndarray
    steps: np.ndarray    # (T + 1,) first row of each timestep, then N
    order: np.ndarray    # (B,) batch index of each sorted rank
    out_mask: Optional[np.ndarray]  # (B, k) inverted-dropout mask on the final h, or None
    h_final: np.ndarray  # (B, k) in batch order, after output dropout (train)

    def __len__(self) -> int:
        return self.H.shape[0]


@dataclass
class ForwardTrace:
    enc_h: LstmTrace                   # hypothesis-conditioned-on-premise encoder
    enc_p: Optional[LstmTrace]         # premise-conditioned-on-hypothesis (biway)
    h_out: np.ndarray                  # (B, k) or (B, 2k) rows fed to the softmax layer
    probabilities: np.ndarray          # (B, 3)


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


def lstm_forward(
    params: LstmParams, Zs: Sequence[np.ndarray], out_mask: Optional[np.ndarray] = None
) -> LstmTrace:
    """Run the LSTM from zero state over a batch of (m_b, input_dim) sequences.

    The inputs arrive with any input dropout applied; `out_mask` (B, k), if
    given, multiplies each final hidden state. The input projection of all rows
    is one product, and each timestep is one `(n_t, k) @ (k, 4k)` product over
    the n_t sequences still running. The dtype follows the inputs.
    """
    k, n_in = params.hidden_size, params.input_dim
    for Z in Zs:
        if Z.ndim != 2 or Z.shape[1] != n_in:
            raise ValueError(f"input shape {Z.shape} != (m, {n_in})")
    lengths = np.array([Z.shape[0] for Z in Zs], dtype=np.intp)
    if lengths.size == 0 or lengths.min() == 0:
        raise ValueError("empty sequence")
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    B, T, N = len(Zs), ranked[0], int(lengths.sum())
    # running[t] = number of sequences longer than t
    running = B - np.cumsum(np.bincount(lengths, minlength=T))[:T]
    steps = np.concatenate(([0], np.cumsum(running)))
    dt = np.result_type(params.W.dtype, np.float64, *(Z.dtype for Z in Zs))
    H = np.zeros((N, n_in + k), dtype=dt)
    for j, b in enumerate(order):
        H[steps[: ranked[j]] + j, :n_in] = Zs[b]
    gates = np.matmul(H[:, :n_in], params.W[:, :n_in].T)
    gates += params.b
    W_hT = params.W[:, n_in:].T
    c, tanh_c, h = (np.empty((N, k), dtype=dt) for _ in range(3))
    for t in range(T):
        r0, r1 = steps[t], steps[t + 1]
        a = gates[r0:r1]
        if t:
            prev = slice(steps[t - 1], steps[t - 1] + r1 - r0)  # the same sequences at t - 1
            h_prev = H[r0:r1, n_in:]
            h_prev[...] = h[prev]
            a += h_prev @ W_hT
        sigmoid(a[:, : 3 * k], out=a[:, : 3 * k])
        np.tanh(a[:, 3 * k :], out=a[:, 3 * k :])
        i, f, o, g = (a[:, j * k : (j + 1) * k] for j in range(len(GATES)))
        np.multiply(i, g, out=c[r0:r1])
        if t:
            c[r0:r1] += f * c[prev]
        np.tanh(c[r0:r1], out=tanh_c[r0:r1])
        np.multiply(o, tanh_c[r0:r1], out=h[r0:r1])
    h_last = np.empty((B, k), dtype=dt)
    h_last[order] = h[steps[ranked - 1] + np.arange(B)]
    return LstmTrace(
        H=H, gates=gates, c=c, tanh_c=tanh_c, h=h, steps=steps, order=order,
        out_mask=out_mask, h_final=h_last if out_mask is None else h_last * out_mask,
    )


def decide(softmax_params: SoftmaxParams, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear layer + softmax over the last axis of `h`, one (k,) vector or a
    (B, k) batch; labels are the 1-based argmax, ties to the smaller index."""
    if h.shape[-1] != softmax_params.W_s.shape[1]:
        raise ValueError(
            f"hidden length {h.shape[-1]} != softmax width {softmax_params.W_s.shape[1]}"
        )
    probs = softmax(h @ softmax_params.W_s.T + softmax_params.b_s)
    return probs, np.argmax(probs, axis=-1) + 1


def augment_pair(
    pair: SentencePair, lib: EmbeddingLibrary, config: ModelConfig
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Matching step: the (m, 2d) rows [own || matched] of hypothesis|premise
    always, and of premise|hypothesis when biway, gathered from an index of the
    one pair."""
    return index_pairs([pair], lib, config).sequences([0])[0]


def _encoder_passes(
    model: Model,
    seqs: Sequence[tuple[np.ndarray, Optional[np.ndarray]]],
    train: bool,
    rng: Optional[np.random.Generator],
) -> list[tuple[Callable, tuple, int]]:
    """One `lstm_forward` pass per encoder of `model`, as `_run_passes` jobs,
    with any train-mode dropout already drawn and applied."""
    cfg = model.config
    lstms = [model.lstm_h, model.lstm_p] if cfg.biway else [model.lstm_h]
    if cfg.biway and any(z_p is None for _, z_p in seqs):
        raise ValueError("biway forward needs the premise-side sequence")
    inputs = [[seq[side] for seq in seqs] for side in range(len(lstms))]
    out_masks = [None] * len(lstms)
    if train and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        rate, masks = cfg.dropout_rate, [[] for _ in lstms]
        for b in range(len(seqs)):
            for side, Zs in enumerate(inputs):
                dropped = dropout_mask(rng, Zs[b].shape, rate)
                dropped *= Zs[b]
                Zs[b] = dropped
                masks[side].append(dropout_mask(rng, cfg.k, rate))
        out_masks = [np.stack(m) for m in masks]
    return [
        (lstm_forward, (p, Zs, mask), sum(len(Z) for Z in Zs))
        for p, Zs, mask in zip(lstms, inputs, out_masks)
    ]


def _softmax_input(model: Model, h_finals: Sequence[np.ndarray]) -> np.ndarray:
    # premise side first in the biway softmax input
    return np.hstack([h_finals[1], h_finals[0]]) if model.config.biway else h_finals[0]


def _final_states(*args) -> np.ndarray:
    """`lstm_forward(*args).h_final`; the rest of the trace is freed as the pass ends."""
    return lstm_forward(*args).h_final


def forward_batch(
    model: Model,
    seqs: Sequence[tuple[np.ndarray, Optional[np.ndarray]]],
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """(B, 3) probabilities of a batch of `augment_pair` outputs.

    Train mode applies inverted dropout to every input row and to each final
    hidden state. The masks are drawn pair by pair before encoding, in the order
    hypothesis input, hypothesis output, premise input, premise output, so a
    seeded stream is read the same whatever the batch size. Eval mode is
    deterministic and dropout-free. The encoders run one after the other on the
    calling thread: at 32 to 64 rows a step a second thread gained nothing.
    """
    enc = [fn(*args) for fn, args, _ in _encoder_passes(model, seqs, train, rng)]
    h_out = _softmax_input(model, [e.h_final for e in enc])
    probs, _ = decide(model.softmax, h_out)
    trace = ForwardTrace(
        enc_h=enc[0], enc_p=enc[1] if model.config.biway else None, h_out=h_out,
        probabilities=probs,
    )
    return probs, trace


def forward_members(
    models: Sequence[Model], seqs: Sequence[tuple[np.ndarray, Optional[np.ndarray]]]
) -> list[np.ndarray]:
    """Eval-mode (B, 3) probabilities of each model on the same batch, as
    `forward_batch` gives them. All the models' encoders run as one set of
    independent passes, and each pass keeps only its final hidden states."""
    passes = [_encoder_passes(m, seqs, False, None) for m in models]
    jobs = [(_final_states, args, cost) for each in passes for _, args, cost in each]
    finals = iter(_run_passes(jobs))
    return [
        decide(m.softmax, _softmax_input(m, [next(finals) for _ in each]))[0]
        for m, each in zip(models, passes)
    ]


def forward(
    model: Model,
    pair: SentencePair,
    lib: EmbeddingLibrary,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Full forward pass of one pair, a batch of one: matching, encoding,
    decision. Returns its (3,) probabilities."""
    probs, trace = forward_batch(model, [augment_pair(pair, lib, model.config)], train, rng)
    return probs[0], trace


def lstm_backward(
    params: LstmParams, trace: LstmTrace, dh_final: np.ndarray, out: LstmParams
) -> None:
    """Write into `out` the gradients of `params` over the whole batch, given
    dL/dh_final (B, k) in batch order. Each BPTT step is one
    `(n_t, 4k) @ (4k, k)` product, and the weight gradient one `dA^T @ H`."""
    k, n_in = params.hidden_size, params.input_dim
    steps, dt = trace.steps, trace.H.dtype
    running = np.diff(steps)
    dh_last = dh_final if trace.out_mask is None else dh_final * trace.out_mask
    dh_last = dh_last[trace.order]
    W_h = params.W[:, n_in:]
    dA = np.empty((len(trace), len(GATES) * k), dtype=dt)
    dh, dc = (np.empty((len(trace.order), k), dtype=dt) for _ in range(2))
    for t in range(len(running) - 1, -1, -1):
        r0, r1, n = steps[t], steps[t + 1], running[t]
        # the sequences of ranks [ended, n) take their last step here
        ended = running[t + 1] if t + 1 < len(running) else 0
        dh[ended:n] = dh_last[ended:n]
        dc[ended:n] = 0.0
        dh_t, dc_t = dh[:n], dc[:n]
        i, f, o, g = (trace.gates[r0:r1, j * k : (j + 1) * k] for j in range(len(GATES)))
        tanh_c = trace.tanh_c[r0:r1]
        dc_t += dh_t * o * tanh_grad(tanh_c)
        da_i, da_f, da_o, da_c = (dA[r0:r1, j * k : (j + 1) * k] for j in range(len(GATES)))
        da_i[...] = dc_t * g * sigmoid_grad(i)
        if t:
            da_f[...] = dc_t * trace.c[steps[t - 1] : steps[t - 1] + n] * sigmoid_grad(f)
        else:
            da_f[...] = 0.0
        da_o[...] = dh_t * tanh_c * sigmoid_grad(o)
        da_c[...] = dc_t * i * tanh_grad(g)
        if t:
            np.matmul(dA[r0:r1], W_h, out=dh_t)
        dc_t *= f
    np.matmul(dA.T, trace.H, out=out.W)
    np.sum(dA, axis=0, out=out.b)


def backward(
    model: Model, trace: ForwardTrace, labels: Sequence[int], out: Optional[Model] = None
) -> dict[str, np.ndarray]:
    """Gradients of the cross-entropy loss summed over the batch, keyed like
    parameters(). They are written into `out`, a `zero_model` of the same
    config, when given, and into a new one otherwise.

    Embedding vectors receive no gradient; they are fixed inputs.
    """
    probs = trace.probabilities
    if len(labels) != probs.shape[0]:
        raise ValueError(f"{len(labels)} labels for a batch of {probs.shape[0]}")
    for label in labels:
        if label not in LABEL_NAMES:
            raise ValueError(f"invalid gold label {label}")
    if out is None:
        out = zero_model(model.config)
    dp = probs.copy()
    dp[np.arange(len(labels)), np.asarray(labels) - 1] -= 1.0
    np.matmul(dp.T, trace.h_out, out=out.softmax.W_s)
    np.sum(dp, axis=0, out=out.softmax.b_s)
    dh_out = dp @ model.softmax.W_s
    k = model.config.k
    if model.config.biway:
        lstm_backward(model.lstm_p, trace.enc_p, dh_out[:, :k], out.lstm_p)
        dh_out = dh_out[:, k:]
    lstm_backward(model.lstm_h, trace.enc_h, dh_out, out.lstm_h)
    return out.parameters()


# Threads beside the caller that run independent passes: one when this process
# may use two or more cores, none (every pass inline) on one. More were not
# measured, and each running pass holds its own trace. A CPU quota set by a
# cgroup is not read: a process confined to one core's time starts the thread.
_WORKERS = min(len(os.sched_getaffinity(0)) - 1 if hasattr(os, "sched_getaffinity") else 0, 1)


def _new_pool() -> None:
    """Make the pool of `_WORKERS` threads. It starts a thread only when a job is
    submitted, so an import or one-LSTM work starts none. A forked child makes
    its own, as its parent's threads do not exist there."""
    global _pool
    _pool = ThreadPoolExecutor(max(_WORKERS, 1), thread_name_prefix="maxcosine-pass")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _run_passes(jobs: Sequence[tuple[Callable, tuple, int]]) -> list:
    """`fn(*args)` of every `(fn, args, cost)` job, in job order.

    The jobs must not read each other's outputs. The calling thread and up to
    `_WORKERS` worker threads take them costliest first from one queue, and
    each runs whole on one thread on its own arrays, so every result is
    computed exactly as a serial loop computes it. Once all jobs have ended,
    the first error in job order is raised.

    While the jobs run, the caller is held to the first core it may use and
    the workers to the others, and the caller's own core set is given back
    afterwards. Left alone, the kernel could wake the worker onto the caller's
    core and keep both there for seconds, each getting half of one core.
    """
    helpers = min(_WORKERS, len(jobs) - 1)
    if helpers <= 0:
        return [fn(*args) for fn, args, _ in jobs]
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    own = {min(allowed)} if len(allowed) > 1 else allowed
    others = allowed - own
    # sorted() is stable, so equal costs keep job order
    todo = deque(sorted(range(len(jobs)), key=lambda j: -jobs[j][2]))
    results: list = [None] * len(jobs)
    errors: list[Optional[BaseException]] = [None] * len(jobs)

    def drain() -> None:
        while True:
            try:
                j = todo.popleft()  # atomic, so no job is taken twice
            except IndexError:
                return
            fn, args, _ = jobs[j]
            try:
                results[j] = fn(*args)
            except BaseException as exc:  # raised below, once no job is running
                errors[j] = exc

    def help_out() -> None:
        if others:
            os.sched_setaffinity(0, others)  # 0: the calling thread
        drain()

    if others:
        os.sched_setaffinity(0, own)
    try:
        helping = [_pool.submit(help_out) for _ in range(helpers)]
        drain()
        for done in helping:
            done.result()
    finally:
        if others:
            os.sched_setaffinity(0, allowed)
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise error
    return results
