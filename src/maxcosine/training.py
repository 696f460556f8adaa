"""Cross-entropy objective, Adam optimizer, mini-batch training loop, evaluation."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import SentencePair
from .embeddings import DEFAULT_OOV_WINDOW, EmbeddingLibrary
from .matching import PairIndex, index_pairs
from .model import (
    Model,
    ModelConfig,
    backward,
    check_library_dim,
    forward_batch,
    init_model,
    zero_model,
)
from .numerics import make_rng

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-300  # keeps the loss finite under pathological confidence
EVAL_CHUNK = 64  # validation pairs per batch forward; bounds the trace's memory


class DivergenceError(RuntimeError):
    """Non-finite loss or gradients during training."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 128
    epochs: int = 10
    dropout_rate: float = 0.0
    seed: int = 0
    k: int = 300
    biway: bool = False
    bi_embedding: bool = False
    oov_window: int = DEFAULT_OOV_WINDOW
    # optional early exit once validation accuracy reaches this value
    target_val_accuracy: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.learning_rate > 0.0 and self.epsilon > 0.0):
            raise ValueError("learning_rate and epsilon must be > 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def model_config(self, embedding_dim: int) -> ModelConfig:
        return ModelConfig(
            embedding_dim=embedding_dim,
            k=self.k,
            dropout_rate=self.dropout_rate,
            biway=self.biway,
            bi_embedding=self.bi_embedding,
            seed=self.seed,
            oov_window=self.oov_window,
        )


def pair_losses(probabilities: np.ndarray, gold: Sequence[int]) -> np.ndarray:
    """(B,) loss of each row of a (B, 3) batch, each bitwise what cross_entropy
    gives for that pair alone: 0.0 - log, so that a certain gold label costs +0.0."""
    p = probabilities[np.arange(len(gold)), np.asarray(gold) - 1]
    return 0.0 - np.log(np.maximum(p, LOG_FLOOR))


def cross_entropy(probabilities: Sequence[np.ndarray], gold: Sequence[int]) -> float:
    """Mean negative log-probability of the gold label over the batch."""
    if len(probabilities) == 0:
        raise ValueError("empty batch")
    if len(probabilities) != len(gold):
        raise ValueError("batch size mismatch between predictions and labels")
    total = 0.0
    for probs, label in zip(probabilities, gold):
        total -= np.log(max(probs[label - 1], LOG_FLOOR))
    return total / len(probabilities)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    # two work arrays per parameter shape, shared by every parameter of that shape
    scratch: dict[tuple, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.items()},
            v={k: np.zeros_like(a) for k, a in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One Adam update with bias correction, of `params`, `state.m` and `state.v`
    in place. It does the textbook formula's operations in its order, so the
    result is bitwise that of m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g,
    theta -= lr m_hat / (sqrt(v_hat) + eps), without allocating per step."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in {name}")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, theta in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        if theta.shape not in state.scratch:
            state.scratch[theta.shape] = (np.empty_like(theta), np.empty_like(theta))
        s, u = state.scratch[theta.shape]
        np.multiply(g, 1.0 - b1, out=s)
        m *= b1
        m += s
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v *= b2
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += config.epsilon
        np.divide(m, bc1, out=u)
        u *= config.learning_rate
        u /= s
        theta -= u


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # (3, 3) counts, rows gold, cols predicted
    total: int


@dataclass
class TrainResult:
    best_model: Model
    best_epoch: int
    best_val_accuracy: float
    history: list[EpochMetrics] = field(default_factory=list)


def evaluate(
    pairs: Sequence[SentencePair],
    model: Model,
    lib: EmbeddingLibrary,
    index: Optional[PairIndex] = None,
) -> EvalResult:
    """Accuracy and confusion of `model` on `pairs`, read through `index`, their
    `index_pairs` matching, which is built here when not given."""
    check_library_dim(model.config, lib)
    if index is None:
        index = index_pairs(pairs, lib, model.config)
    confusion = np.zeros((3, 3), dtype=np.int64)
    for start in range(0, len(pairs), EVAL_CHUNK):
        chunk = range(start, min(start + EVAL_CHUNK, len(pairs)))
        probs = forward_batch(model, index.sequences(chunk))[0]
        gold = [pairs[i].label - 1 for i in chunk]
        np.add.at(confusion, (gold, np.argmax(probs, axis=1)), 1)
    total = len(pairs)
    accuracy = float(np.trace(confusion)) / total if total else 0.0
    return EvalResult(accuracy=accuracy, confusion=confusion, total=total)


def train(
    train_pairs: Sequence[SentencePair],
    val_pairs: Sequence[SentencePair],
    config: TrainConfig,
    lib: EmbeddingLibrary,
    metrics_path=None,
    verbose: bool = False,
) -> TrainResult:
    """Seeded mini-batch training; returns the checkpoint with the best validation
    accuracy (ties resolved toward the earlier epoch)."""
    if not train_pairs or not val_pairs:
        raise ValueError("train and validation sets must be non-empty")
    rng = make_rng(config.seed)
    model = init_model(config.model_config(lib.dim), rng)
    # matching reads only frozen vectors, so each set is matched once for the run
    train_index = index_pairs(train_pairs, lib, model.config)
    val_index = index_pairs(val_pairs, lib, model.config)
    params = model.parameters()
    state = AdamState.for_params(params)
    # every batch's gradient is written into this one buffer
    grad_model = zero_model(model.config)
    grads = grad_model.parameters()

    best_model = model.copy()
    best_epoch = 0
    best_acc = -1.0
    history: list[EpochMetrics] = []
    n = len(train_pairs)
    metrics_fh = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            order = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, config.batch_size):
                which = order[start : start + config.batch_size]
                batch = [train_pairs[i] for i in which]
                seqs = train_index.sequences(which)
                probs, trace = forward_batch(model, seqs, train=True, rng=rng)
                losses = pair_losses(probs, [pair.label for pair in batch])
                diverged = [pair.id for pair, loss in zip(batch, losses) if not np.isfinite(loss)]
                if diverged:
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}, "
                        f"pairs {diverged}"
                    )
                for loss in losses:
                    loss_sum += loss
                backward(model, trace, [pair.label for pair in batch], out=grad_model)
                del seqs, trace  # freed before the next batch's are built
                for g in grads.values():
                    g /= len(batch)
                adam_step(params, grads, state, config)
            trained = time.perf_counter()
            train_loss = loss_sum / n
            val = evaluate(val_pairs, model, lib, index=val_index)
            validated = time.perf_counter()
            history.append(EpochMetrics(epoch, train_loss, val.accuracy))
            if metrics_fh:
                metrics_fh.write(f"{epoch}\t{train_loss:.10f}\t{val.accuracy:.6f}\n")
                metrics_fh.flush()
            if verbose:
                log.info(
                    "epoch %d: train_loss=%.6f val_acc=%.4f train_pairs_per_s=%.1f val_s=%.3f",
                    epoch, train_loss, val.accuracy, n / (trained - started), validated - trained,
                )
            if val.accuracy > best_acc:
                best_acc = val.accuracy
                best_epoch = epoch
                best_model = model.copy()
            if (
                config.target_val_accuracy is not None
                and val.accuracy >= config.target_val_accuracy
            ):
                break
    finally:
        if metrics_fh:
            metrics_fh.close()
    return TrainResult(
        best_model=best_model,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
        history=history,
    )
