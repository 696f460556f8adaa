"""Cross-entropy objective, Adam optimizer, mini-batch training loop, evaluation."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .data import SentencePair
from .embeddings import DEFAULT_OOV_WINDOW, EmbeddingLibrary
from .matching import PairIndex, index_pairs
from .model import (
    Model,
    ModelConfig,
    Params,
    backward,
    forward_batch,
    forward_members,
    init_model,
    stop_point,
)
from .numerics import make_rng

if TYPE_CHECKING:
    from .ensemble import Ensemble

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-300  # keeps the loss finite under pathological confidence
EVAL_CHUNK = 64  # evaluation pairs per batch forward; bounds the passes' memory


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

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.learning_rate > 0.0 and self.epsilon > 0.0):
            raise ValueError("learning_rate and epsilon must be > 0")
        self.model_config(embedding_dim=1)  # checks the shared fields by ModelConfig's rules

    def model_config(self, embedding_dim: int) -> ModelConfig:
        """The run's model: each `ModelConfig` field but `embedding_dim` is read from here."""
        shared = [f.name for f in fields(ModelConfig) if f.name != "embedding_dim"]
        return ModelConfig(embedding_dim, **{name: getattr(self, name) for name in shared})


def pair_losses(probabilities: np.ndarray, gold: Sequence[int]) -> np.ndarray:
    """(B,) loss of each row of a (B, 3) batch: minus the log of its gold label's
    probability floored at `LOG_FLOOR`, as 0.0 - log, so a certain label costs +0.0."""
    p = probabilities[np.arange(len(gold)), np.asarray(gold) - 1]
    return 0.0 - np.log(np.maximum(p, LOG_FLOOR))


def cross_entropy(probabilities: Sequence[np.ndarray], gold: Sequence[int]) -> float:
    """Mean of `pair_losses` over the batch."""
    if len(probabilities) == 0:
        raise ValueError("empty batch")
    if len(probabilities) != len(gold):
        raise ValueError("batch size mismatch between predictions and labels")
    return pair_losses(np.asarray(probabilities), gold).sum() / len(gold)


ADAM_CHUNK = 1 << 15  # values updated at a time: a chunk's arrays, 256 KiB each, stay in L2


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, each laid out like the flat parameters
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: Params) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: Params, grads: Params, state: AdamState, config: TrainConfig) -> None:
    """One Adam update with bias correction, of `params`, `state.m` and `state.v`
    in place, over their flat arrays a chunk at a time. It does the textbook
    formula's operations in its order, so the result is bitwise that of
    m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g,
    theta -= lr m_hat / (sqrt(v_hat) + eps).
    A non-finite gradient raises before anything is updated."""
    finite = np.isfinite(grads.flat)
    if not finite.all():
        raise DivergenceError(f"non-finite gradient in {grads.name_at(int(np.argmin(finite)))}")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for start in range(0, params.flat.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        g, m, v = grads.flat[chunk], state.m[chunk], state.v[chunk]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        params.flat[chunk] -= m / bc1 * config.learning_rate / (np.sqrt(v / bc2) + config.epsilon)


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
    model: Union[Model, "Ensemble"],
    lib: EmbeddingLibrary,
    index: Optional[PairIndex] = None,
) -> EvalResult:
    """Accuracy and confusion on `pairs` of `model`, a model or an ensemble,
    read through `index`, their `index_pairs` matching, which is built here
    when not given. Each chunk of `EVAL_CHUNK` pairs is one `forward_members`
    call, so a model scores as a one-member ensemble and an ensemble by the
    mean of its members' probabilities."""
    members = [model] if isinstance(model, Model) else model.members
    if index is None:
        index = index_pairs(pairs, lib, members[0].config)
    confusion = np.zeros((3, 3), dtype=np.int64)
    for start in range(0, len(pairs), EVAL_CHUNK):
        chunk = range(start, min(start + EVAL_CHUNK, len(pairs)))
        probs = forward_members(members, index.sequences(chunk))
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
    indexes: Optional[tuple[PairIndex, PairIndex]] = None,
) -> TrainResult:
    """Seeded mini-batch training for `config.epochs` epochs; returns the
    checkpoint with the best validation accuracy (ties resolved toward the
    earlier epoch). Each epoch is logged at INFO under the run's seed.
    `indexes` are the `index_pairs` matchings of `train_pairs` and `val_pairs`,
    built here when not given."""
    if not train_pairs or not val_pairs:
        raise ValueError("train and validation sets must be non-empty")
    rng = make_rng(config.seed)
    model = init_model(config.model_config(lib.dim), rng)
    # matching reads only frozen vectors, so each set is matched once for the run
    train_index, val_index = indexes or (index_pairs(train_pairs, lib, model.config),
                                         index_pairs(val_pairs, lib, model.config))
    params = model.parameters()
    state = AdamState.for_params(params)
    # epoch 1 always beats best_acc, so this is written before it is returned
    best_model = Model(model.config)
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
            # a diverging step raises DivergenceError; numpy's warnings would add nothing
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, config.batch_size):
                    stop_point()  # an ensemble member ends here once its run is interrupted
                    which = order[start : start + config.batch_size]
                    batch = [train_pairs[i] for i in which]
                    seqs = train_index.sequences(which)
                    labels = [pair.label for pair in batch]
                    probs, trace = forward_batch(model, seqs, rng)
                    losses = pair_losses(probs, labels)
                    diverged = [p.id for p, loss in zip(batch, losses) if not np.isfinite(loss)]
                    if diverged:
                        raise DivergenceError(
                            f"non-finite loss at epoch {epoch}, "
                            f"batch {start // config.batch_size}, pairs {diverged}"
                        )
                    for loss in losses:
                        loss_sum += loss
                    grads = backward(model, trace, labels)
                    grads.flat /= len(batch)
                    adam_step(params, grads, state, config)
                    del seqs, trace, grads  # freed before the next batch's are built
            trained = time.perf_counter()
            train_loss = loss_sum / n
            val = evaluate(val_pairs, model, lib, index=val_index)
            validated = time.perf_counter()
            history.append(EpochMetrics(epoch, train_loss, val.accuracy))
            if metrics_fh:
                metrics_fh.write(f"{epoch}\t{train_loss:.10f}\t{val.accuracy:.6f}\n")
                metrics_fh.flush()
            log.info(
                "seed %d epoch %d: train_loss=%.6f val_acc=%.4f train_pairs_per_s=%.1f val_s=%.3f",
                config.seed, epoch, train_loss, val.accuracy, n / (trained - started),
                validated - trained,
            )
            if val.accuracy > best_acc:
                best_acc = val.accuracy
                best_epoch = epoch
                np.copyto(best_model.theta, model.theta)
    finally:
        if metrics_fh:
            metrics_fh.close()
    return TrainResult(
        best_model=best_model,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
        history=history,
    )
