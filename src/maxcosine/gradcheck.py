"""Finite-difference verification of the full-model backward pass."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import SentencePair
from .embeddings import EmbeddingLibrary
from .matching import index_pairs
from .model import Model, backward, forward_batch
from .numerics import gradient_check
from .training import cross_entropy


def model_gradient_check(
    model: Model,
    pairs: Sequence[SentencePair],
    lib: EmbeddingLibrary,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic BPTT gradients and central differences
    of the mean cross-entropy loss over `pairs`. Dropout must be 0."""
    if model.config.dropout_rate != 0.0:
        raise ValueError("gradient check requires dropout_rate 0")
    # matching does not depend on the trainable parameters, so sequences are fixed
    seqs = index_pairs(pairs, lib, model.config).sequences(range(len(pairs)))
    labels = [pair.label for pair in pairs]

    # the difference quotient cancels ~10 leading digits, so the objective runs in
    # extended precision, on a model whose theta is the perturbed array itself;
    # the analytic side stays plain float64
    seqs_ld = [tuple(Z.astype(np.longdouble) for Z in seq) for seq in seqs]

    def objective(theta: np.ndarray) -> float:
        return cross_entropy(forward_batch(Model(model.config, theta), seqs_ld)[0], labels)

    _, trace = forward_batch(model, seqs)
    analytic = backward(model, trace, labels).flat / len(seqs)
    return gradient_check(objective, model.theta.astype(np.longdouble), analytic, h=h)
