"""Max-cosine word matching: for each word of one sentence, the index of the most
cosine-similar word of the other."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .embeddings import cosine


class EmptySentenceError(ValueError):
    """A sentence tokenized to nothing; the pair should be skipped upstream."""


def match_word(query, candidates: Sequence) -> int:
    """Index of the candidate with the highest cosine similarity to query.

    Ties break toward the smallest index.
    """
    if len(candidates) == 0:
        raise ValueError("empty candidate list")
    best, best_sim = 0, -np.inf
    for i, cand in enumerate(candidates):
        sim = cosine(query, cand)
        if sim > best_sim:
            best, best_sim = i, sim
    return best


def match_indices(own: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """(m,) index of the most cosine-similar row of `cand` (n, d) for each row of
    `own` (m, d), as match_word picks it: a zero-norm candidate scores 0, a zero
    query matches index 0, and ties go to the smallest index.

    Similarities are one `cand @ q` product per query row. BLAS can round two
    identical rows (a repeated token) apart in that product, so each row answers
    for the first row with the same bytes.
    """
    if cand.shape[0] == 0:
        raise ValueError("empty candidate list")
    first: dict[bytes, int] = {}
    first_of = np.array([first.setdefault(r.tobytes(), i) for i, r in enumerate(cand)])
    norms = np.linalg.norm(cand, axis=1)
    nonzero = norms != 0.0
    rows, row_norms = cand[nonzero], norms[nonzero]
    sims = np.zeros(cand.shape[0])
    out = np.zeros(own.shape[0], dtype=np.intp)
    for t, q in enumerate(own):
        qn = np.linalg.norm(q)
        if qn != 0.0:
            sims[nonzero] = (rows @ q) / (row_norms * qn)
            out[t] = first_of[np.argmax(sims)]
    return out
