"""Finite-difference verification of the full-model backward pass."""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .data import SentencePair
from .embeddings import EmbeddingLibrary
from .model import Model, augment_pair, backward, forward_batch
from .numerics import gradient_check


def _flatten(arrays: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays.values()])


def _write_back(params: dict[str, np.ndarray], theta: np.ndarray) -> None:
    offset = 0
    for a in params.values():
        a[...] = theta[offset : offset + a.size].reshape(a.shape)
        offset += a.size


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
    params = model.parameters()
    # matching does not depend on the trainable parameters, so sequences are fixed
    seqs = [augment_pair(pair, lib, model.config) for pair in pairs]
    labels = [pair.label for pair in pairs]

    # the difference quotient cancels ~10 leading digits, so the objective runs in
    # extended precision on a shadow copy; the analytic side stays plain float64
    shadow = _cast_model(model, np.longdouble)
    shadow_params = shadow.parameters()
    seqs_ld = [tuple(None if Z is None else Z.astype(np.longdouble) for Z in seq) for seq in seqs]

    def objective(theta: np.ndarray) -> float:
        _write_back(shadow_params, theta)
        probs, _ = forward_batch(shadow, seqs_ld)
        total = np.longdouble(0.0)
        for row, gold in zip(probs, labels):
            total -= np.log(row[gold - 1])
        return total / len(labels)

    theta0 = _flatten(params).astype(np.longdouble)
    _, trace = forward_batch(model, seqs)
    analytic = _flatten(backward(model, trace, labels)) / len(seqs)
    return gradient_check(objective, theta0, analytic, h=h)


def _cast_model(model: Model, dtype) -> Model:
    out = model.copy()
    for part in (out.lstm_h, out.lstm_p, out.softmax):
        if part is None:
            continue
        for f in dataclasses.fields(part):
            setattr(part, f.name, getattr(part, f.name).astype(dtype))
    return out
