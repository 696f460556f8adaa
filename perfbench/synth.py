"""Seeded, SNLI-shaped synthetic inputs: sentence pairs, vectors and input files.

Sentence lengths are the log-normal quantiles (i + 0.5) / n, paired and then
put in a seeded order, so every seed draws the same length pairs and a run does
the same amount of LSTM work whatever its seed. The seed decides which words
appear, which tokens are out of vocabulary, and the order of everything.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

LABELS = ("entailment", "contradiction", "neutral")
VOCAB = 20_000      # library word types w0..w{VOCAB-1}, drawn Zipf(1)
OOV_VOCAB = 5_000   # out-of-vocabulary types x0.., also Zipf(1)
COPY_RATE = 0.35    # share of hypothesis tokens copied from the premise


@dataclass(frozen=True)
class Shape:
    """Token statistics of one workload's sentence pairs."""

    premise_mean: float
    hypothesis_mean: float
    tail: float               # sigma of the log-normal lengths; larger is a longer right tail
    oov_rate: float           # share of drawn tokens that no library holds


def lengths(n: int, mean: float, tail: float) -> np.ndarray:
    """The n log-normal length quantiles, in ascending order."""
    mu = math.log(mean) - tail * tail / 2
    inv = statistics.NormalDist().inv_cdf
    return np.array([max(1, round(math.exp(mu + tail * inv((i + 0.5) / n)))) for i in range(n)])


def _zipf(rng: np.random.Generator, n: int, types: int, prefix: str) -> list[str]:
    p = 1.0 / np.arange(1, types + 1)
    return [f"{prefix}{r}" for r in rng.choice(types, size=n, p=p / p.sum())]


def token_pairs(rng: np.random.Generator, n: int, shape: Shape) -> list[tuple[tuple, tuple]]:
    """n (premise, hypothesis) token tuples."""
    # Premise and hypothesis lengths are paired by a fixed permutation, so every
    # seed has the same (premise, hypothesis) length pairs and per-pair costs.
    order = rng.permutation(n)
    plen = lengths(n, shape.premise_mean, shape.tail)[order]
    pairing = np.random.default_rng(0).permutation(n)
    hlen = lengths(n, shape.hypothesis_mean, shape.tail)[pairing][order]
    total = int(plen.sum() + hlen.sum())
    words = _zipf(rng, total, VOCAB, "w")
    oov_words = _zipf(rng, total, OOV_VOCAB, "x")
    oov = rng.random(total) < shape.oov_rate
    fresh = iter(o if is_oov else w for w, o, is_oov in zip(words, oov_words, oov))
    copy = iter(rng.random(int(hlen.sum())) < COPY_RATE)
    pick = iter(rng.random(int(hlen.sum())))
    out = []
    for lp, lh in zip(plen, hlen):
        prem = tuple(next(fresh) for _ in range(lp))
        hyp = []
        for _ in range(lh):
            tok, at = next(fresh), next(pick)
            hyp.append(prem[int(at * lp)] if next(copy) else tok)
        out.append((prem, tuple(hyp)))
    return out


def labels(rng: np.random.Generator, n: int) -> list[int]:
    """Gold labels 1..3 in the program's numbering."""
    return [int(v) for v in rng.integers(1, 4, size=n)]


def vectors(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """GloVe-like values with five decimals, which every format round-trips exactly."""
    return np.round(rng.standard_normal((rows, dim)) * 0.4, 5)


def write_binary_library(path, words: list[str], matrix: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n".encode("ascii"))
        for word, row in zip(words, matrix.astype("<f4")):
            fh.write(word.encode("utf-8") + b" " + row.tobytes() + b"\n")


def _sentence(tokens: tuple) -> str:
    return " ".join(tokens).capitalize() + "."


def _parse(tokens: tuple) -> str:
    return "( " + " ".join(tokens) + " )"


def write_snli(path, pairs) -> None:
    """The pairs as lines in the SNLI 1.0 JSONL layout, which load_snli reads back
    to the same tokens, labels and ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, pair in enumerate(pairs):
            prem, hyp = pair.premise_tokens, pair.hypothesis_tokens
            name = LABELS[pair.label - 1]
            record = {
                "annotator_labels": [name],
                "captionID": f"{i // 3}.jpg#{i % 5}",
                "gold_label": name,
                "pairID": f"{i // 3}.jpg#{i % 5}r{i % 3}",
                "sentence1": _sentence(prem),
                "sentence1_binary_parse": _parse(prem),
                "sentence2": _sentence(hyp),
                "sentence2_binary_parse": _parse(hyp),
            }
            fh.write(json.dumps(record) + "\n")
