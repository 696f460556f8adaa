"""Numeric substrate: activations with derivatives, stable softmax, seeded RNG,
and a central-difference gradient checker."""

from __future__ import annotations

from typing import Callable

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; the same seed yields the same stream on every platform."""
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x, out=None):
    """1 / (1 + exp(-clip(x, -60, 60))), computed in place in `out` when given
    (`out` may be `x` itself). The clip keeps exp() finite; sigmoid is exactly
    0 or 1 in float64 well before |x| = 60."""
    if out is None:
        out = np.empty_like(x, dtype=np.result_type(x, 1.0))
    np.maximum(x, -60.0, out=out)
    np.minimum(out, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out if out.ndim else out[()]


def sigmoid_grad(s):
    """Derivative of sigmoid expressed in terms of its output s."""
    return s * (1.0 - s)


def tanh_grad(t):
    """Derivative of tanh expressed in terms of its output t."""
    return 1.0 - t * t


def softmax(p: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    p = np.asarray(p)
    e = np.exp(p - p.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gradient_check(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    analytic_grad: np.ndarray,
) -> float:
    """Max relative error between analytic_grad and central differences of f at
    float theta, step 1e-5: per coordinate, |a - n| / max(1e-8, |a| + |n|)."""
    h = 1e-5
    theta = np.array(theta)
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        fp = f(theta)
        theta[i] = orig - h
        fm = f(theta)
        theta[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite objective at coordinate {i}")
        numeric[i] = (fp - fm) / (2.0 * h)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ValueError("analytic gradient shape mismatch")
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if theta.size else 0.0
