"""LSTM encoder, dropout placement, softmax decision layer, and exact backward
passes for the base and biway architectures."""

from __future__ import annotations

import ctypes  # numpy imports it too
import glob
import itertools
import math
import operator
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .data import SentencePair, LABEL_NAMES
from .embeddings import DEFAULT_OOV_WINDOW, EmbeddingLibrary
from .matching import index_pairs
from .numerics import sigmoid, sigmoid_grad, softmax, tanh_grad

N_LABELS = 3


def check_integers(config, least_values: Sequence[tuple[str, int]]) -> None:
    """Require each named field of `config` to be an integer no less than its
    least value, and store it as a plain int."""
    for name, least in least_values:
        value = getattr(config, name)
        if not hasattr(value, "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
        setattr(config, name, operator.index(value))


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
        check_integers(self, (("k", 1), ("embedding_dim", 1), ("seed", 0), ("oov_window", 0)))

    @property
    def input_dim(self) -> int:
        return 2 * self.embedding_dim

    @property
    def encoders(self) -> tuple[str, ...]:  # checkpoint names: hypothesis|premise first
        return ("lstm_h", "lstm_p") if self.biway else ("lstm_h",)


GATES = ("i", "f", "o", "c")


class Params(dict):
    """Named arrays that are reshaped views of consecutive slices of one flat
    array, `flat`, in insertion order, with no gap or overlap."""

    def __init__(self, flat: np.ndarray, shapes: Sequence[tuple[str, tuple[int, ...]]]):
        sizes = [math.prod(shape) for _, shape in shapes]
        if flat.shape != (sum(sizes),):
            raise ValueError(f"flat array of shape {flat.shape} for {sum(sizes)} values")
        super().__init__(
            (name, flat[end - size : end].reshape(shape))
            for (name, shape), size, end in zip(shapes, sizes, itertools.accumulate(sizes))
        )
        self.flat = flat

    def name_at(self, i: int) -> str:
        """The name of the array that holds `flat[i]`."""
        for name, a in self.items():
            if i < a.size:
                return name
            i -= a.size
        raise IndexError(i)


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
    encoders: list[LstmTrace]          # one per encoder, in `Model.lstms` order
    h_out: np.ndarray                  # (B, k) or (B, 2k) rows fed to the softmax layer
    probabilities: np.ndarray          # (B, 3)

    @property
    def enc_h(self) -> LstmTrace:  # hypothesis-conditioned-on-premise
        return self.encoders[0]

    @property
    def enc_p(self) -> Optional[LstmTrace]:  # premise-conditioned-on-hypothesis, when biway
        return self.encoders[1] if len(self.encoders) > 1 else None


def _layout(config: ModelConfig, per_gate: bool) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every array of a model of `config`, in checkpoint order:
    `lstm_h.W, lstm_h.b, [lstm_p.W, lstm_p.b], softmax.W_s, softmax.b_s`, each
    LSTM array split into its gates' row blocks `W_i … W_c`, `b_i … b_c` when
    `per_gate`."""
    k, n = config.k, config.input_dim + config.k
    out = []
    for lstm in config.encoders:
        for name, shape in (("W", (k, n)), ("b", (k,))):
            if per_gate:
                out += [(f"{lstm}.{name}_{gate}", shape) for gate in GATES]
            else:
                out.append((f"{lstm}.{name}", (len(GATES) * k,) + shape[1:]))
    return out + [("softmax.W_s", (N_LABELS, len(config.encoders) * k)),
                  ("softmax.b_s", (N_LABELS,))]


def parameter_count(config: ModelConfig) -> int:
    """Number of values in a model of `config`, the length of its `theta`."""
    return sum(math.prod(shape) for _, shape in _layout(config, per_gate=False))


class Model:
    """Every parameter is a view of `theta`, one flat array of
    `parameter_count(config)` values in checkpoint order, zeros when not given."""

    def __init__(self, config: ModelConfig, theta: Optional[np.ndarray] = None):
        self.config = config
        self.theta = np.zeros(parameter_count(config)) if theta is None else theta
        arrays = Params(self.theta, _layout(config, per_gate=False))
        self.lstms = [LstmParams(arrays[f"{e}.W"], arrays[f"{e}.b"]) for e in config.encoders]
        self.softmax = SoftmaxParams(arrays["softmax.W_s"], arrays["softmax.b_s"])

    def parameters(self) -> Params:
        """Live views of every trainable array, each LSTM as its per-gate
        `W_i … b_c` row blocks, in checkpoint order over `theta`."""
        return Params(self.theta, _layout(self.config, per_gate=True))


def init_model(config: ModelConfig, rng: np.random.Generator) -> Model:
    """Uniform Glorot weights (per gate for the LSTMs), zero biases; biway
    allocates two independent LSTMs. Each matrix is one draw into `theta`, with
    the stream and values of `rng.uniform(-limit, limit, W.shape)` but no copy."""
    model = Model(config)
    for rows, W in [(config.k, lstm.W) for lstm in model.lstms] + [(N_LABELS, model.softmax.W_s)]:
        limit = np.sqrt(6.0 / (rows + W.shape[1]))
        rng.random(out=W)
        W *= 2 * limit
        W -= limit  # -limit + 2 * limit * u, rounded as `uniform` rounds it
    return model


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
) -> tuple[np.ndarray, ...]:
    """Matching step: one (m, 2d) array of rows [own || matched] per encoder,
    hypothesis|premise, then premise|hypothesis when biway, gathered from an
    index of the one pair."""
    return index_pairs([pair], lib, config).sequences([0])[0]


def _encoder_passes(
    model: Model,
    seqs: Sequence[tuple[np.ndarray, ...]],
    rng: Optional[np.random.Generator],
) -> list[tuple[Callable, tuple, int]]:
    """One `lstm_forward` pass per encoder of `model`, as `_run_passes` jobs,
    with dropout drawn from `rng` and applied when an rng is given."""
    cfg, lstms = model.config, model.lstms
    if any(len(seq) != len(lstms) for seq in seqs):
        raise ValueError(f"a model of {len(lstms)} encoders needs {len(lstms)} sequences a pair")
    inputs = [[seq[side] for seq in seqs] for side in range(len(lstms))]
    out_masks = [None] * len(lstms)
    if rng is not None and cfg.dropout_rate > 0.0:
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


def _softmax_input(h_finals: Sequence[np.ndarray]) -> np.ndarray:
    # the encoders' final states, last encoder first: premise side first when biway
    return np.hstack(h_finals[::-1])


def _final_states(*args) -> np.ndarray:
    """`lstm_forward(*args).h_final`; the rest of the trace is freed as the pass ends."""
    return lstm_forward(*args).h_final


def forward_batch(
    model: Model,
    seqs: Sequence[tuple[np.ndarray, ...]],
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """(B, 3) probabilities of a batch of `augment_pair` outputs.

    With an `rng`, this is train mode: inverted dropout on every input row and
    on each final hidden state, its masks drawn from `rng` pair by pair before
    encoding, in the order hypothesis input, hypothesis output, premise input,
    premise output, so a seeded stream is read the same whatever the batch
    size. Without one, it is eval mode: deterministic and dropout-free.
    The encoders run on the calling thread: no benchmarked workload trains
    biway, and a helper thread started for each of gradcheck's many small
    forwards doubled its time.
    """
    enc = [fn(*args) for fn, args, _ in _encoder_passes(model, seqs, rng)]
    h_out = _softmax_input([e.h_final for e in enc])
    probs, _ = decide(model.softmax, h_out)
    return probs, ForwardTrace(encoders=enc, h_out=h_out, probabilities=probs)


def member_mean(member_probs: Sequence[np.ndarray]) -> np.ndarray:
    """Mean over members of equal-shape float64 arrays. Each coordinate is
    summed in sorted order in extended precision, starting from +0.0, so the
    mean is independent of member order and reduces exactly to the member
    output when all members agree bitwise, or when there is one member."""
    ranked = np.sort(np.stack(member_probs), axis=0)
    start = np.zeros((1,) + ranked.shape[1:])
    total = np.cumsum(np.concatenate([start, ranked]), axis=0, dtype=np.longdouble)[-1]
    return (total / len(ranked)).astype(np.float64)


def forward_members(
    models: Sequence[Model], seqs: Sequence[tuple[np.ndarray, ...]]
) -> np.ndarray:
    """Eval-mode (B, 3) `member_mean` of the models' probabilities on the same
    batch, each member's as `forward_batch` gives them. All the models'
    encoders run as one set of independent passes, and each pass keeps only its
    final hidden states. One model's mean is bitwise its own output."""
    passes = [_encoder_passes(m, seqs, None) for m in models]
    jobs = [(_final_states, args, cost) for each in passes for _, args, cost in each]
    finals = iter(_run_passes(jobs))
    return member_mean([
        decide(m.softmax, _softmax_input([next(finals) for _ in each]))[0]
        for m, each in zip(models, passes)
    ])


def forward(
    model: Model, pair: SentencePair, lib: EmbeddingLibrary
) -> tuple[np.ndarray, ForwardTrace]:
    """Eval-mode forward pass of one pair, a batch of one: matching, encoding,
    decision. Returns its (3,) probabilities."""
    probs, trace = forward_batch(model, [augment_pair(pair, lib, model.config)])
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


def backward(model: Model, trace: ForwardTrace, labels: Sequence[int]) -> Params:
    """The gradient of `training.cross_entropy`, the batch's mean loss, keyed
    like parameters(), as the parameters of a new model of the same config.

    Embedding vectors receive no gradient; they are fixed inputs.
    """
    probs = trace.probabilities
    if len(labels) != probs.shape[0]:
        raise ValueError(f"{len(labels)} labels for a batch of {probs.shape[0]}")
    for label in labels:
        if label not in LABEL_NAMES:
            raise ValueError(f"invalid gold label {label}")
    out = Model(model.config)
    dp = probs.copy()
    dp[np.arange(len(labels)), np.asarray(labels) - 1] -= 1.0
    np.matmul(dp.T, trace.h_out, out=out.softmax.W_s)
    np.sum(dp, axis=0, out=out.softmax.b_s)
    dh_out = dp @ model.softmax.W_s
    # the softmax input holds the encoders' final states, last encoder first
    dh_finals = np.split(dh_out, len(model.lstms), axis=1)[::-1]
    for lstm, enc, dh_final, grad in zip(model.lstms, trace.encoders, dh_finals, out.lstms):
        lstm_backward(lstm, enc, dh_final, grad)
    out.theta /= len(labels)  # the sums above, as the batch mean
    return out.parameters()


# Threads beside the caller that run independent passes: one when this process
# may use two or more cores, none (every pass inline) on one. More were not
# measured, and each running pass holds its own trace. A CPU quota set by a
# cgroup is not read: a process confined to one core's time starts the thread.
_WORKERS = min(len(os.sched_getaffinity(0)) - 1 if hasattr(os, "sched_getaffinity") else 0, 1)


def _keep_freed_memory() -> None:
    """On glibc, serve blocks up to 32 MiB (its own ceiling for the dynamic mmap
    threshold on 64-bit) from the heap, never trim the heap, and give every
    thread the one heap, so each batch and each pass helper reuses the pages
    earlier ones faulted in; RSS stays at one high-water mark. Elsewhere, this
    does nothing."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        glibc = None
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, -1)        # M_TRIM_THRESHOLD: never trim
        mallopt(-8, 1)         # M_ARENA_MAX: no second arena for another thread


_keep_freed_memory()


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread, whatever `OPENBLAS_NUM_THREADS`
    says: a product's rounding depends on how many threads split it, so runs
    give the same bytes in every environment, and the cores are left to
    `_run_passes`. Without a bundled OpenBLAS, this does nothing."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy, so this adds no copy
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                set_threads(1)
                return


_one_blas_thread()

_in_pass = threading.local()  # `stop`, the call's Event, while this thread runs a job


def _run_passes(jobs: Sequence[tuple[Callable, tuple, int]]) -> list:
    """`fn(*args)` of every `(fn, args, cost)` job, in job order.

    The jobs must not read each other's outputs. With `_WORKERS` set and two or
    more jobs, the calling thread and one helper thread, started for this call
    and joined before it returns, take them costliest first from one queue, and
    each runs whole on one thread on its own arrays, so every result is computed
    exactly as a serial loop computes it. A job's own `_run_passes` calls run
    inline on its thread, so no more than two threads ever run passes. Once all
    jobs have ended, the first error in job order is raised. After a
    `KeyboardInterrupt` or `SystemExit`, in a job or while the caller waits, no
    job starts, and a running job that calls `stop_point` raises there.
    """
    if not _WORKERS or len(jobs) < 2 or getattr(_in_pass, "stop", None) is not None:
        return [fn(*args) for fn, args, _ in jobs]
    # sorted() is stable, so equal costs keep job order
    todo = deque(sorted(range(len(jobs)), key=lambda j: -jobs[j][2]))
    results: list = [None] * len(jobs)
    errors: list[Optional[BaseException]] = [None] * len(jobs)
    stop = threading.Event()

    def drain() -> None:
        _in_pass.stop = stop
        while not stop.is_set():
            try:
                j = todo.popleft()  # atomic, so no job is taken twice
            except IndexError:
                return
            fn, args, _ = jobs[j]
            try:
                results[j] = fn(*args)
            except BaseException as exc:  # raised below, once no job is running
                errors[j] = exc
                if not isinstance(exc, Exception):  # an interrupt or exit
                    stop.set()

    # an interrupted Thread.join can mark a thread that still runs as ended
    # (CPython 3.11), so the caller waits for this instead
    helped = threading.Event()

    def run_helper() -> None:
        try:
            drain()
        finally:
            helped.set()

    helper = threading.Thread(target=run_helper, name="maxcosine-pass")
    helper.start()
    try:
        drain()
        while not helped.wait(0.05):  # a SIGINT as a wait starts is seen when it returns
            pass
    except BaseException:  # an interrupt outside a job, as while waiting
        stop.set()
        helped.wait()
        raise
    finally:
        helper.join()  # its drain has returned, or ends at its next stop point
        _in_pass.stop = None
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise error
    return results


def stop_point() -> None:
    """Raise `KeyboardInterrupt` in a `_run_passes` job once its call has been
    interrupted or exited, so a long job, such as an ensemble member, ends at
    its next call here instead of running to its end; elsewhere, return."""
    stop = getattr(_in_pass, "stop", None)
    if stop is not None and stop.is_set():
        raise KeyboardInterrupt
