"""Max-cosine word matching: for each word of one sentence, the index of the most
cosine-similar word of the other, and the matching of a whole dataset, done once."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .data import SentencePair
from .embeddings import EmbeddingLibrary, RowTable, cosine

if TYPE_CHECKING:
    from .model import ModelConfig


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

    The similarities of all query rows are one stacked product, a `cand @ q`
    matrix-vector product per query row, and each query's norm is its own dot
    product, as `np.linalg.norm(q)` takes it. BLAS can round two identical rows
    (a repeated token) apart in a product, so each row answers for the first row
    with the same bytes.
    """
    if cand.shape[0] == 0:
        raise ValueError("empty candidate list")
    first: dict[bytes, int] = {}
    first_of = np.array([first.setdefault(r.tobytes(), i) for i, r in enumerate(cand)])
    norms = np.linalg.norm(cand, axis=1)
    nonzero = norms != 0.0
    rows, row_norms = cand[nonzero], norms[nonzero]
    q_norms = np.sqrt(np.matmul(own[:, None, :], own[:, :, None])[:, 0, 0])
    live = q_norms != 0.0
    queries = own[live]
    sims = np.zeros((queries.shape[0], cand.shape[0]))
    sims[:, nonzero] = np.matmul(rows, queries[:, :, None])[:, :, 0] / (
        row_norms * q_norms[live, None]
    )
    out = np.zeros(own.shape[0], dtype=np.intp)
    out[live] = first_of[np.argmax(sims, axis=1)]
    return out


@dataclass
class PairIndex:
    """Sentence pairs matched once. `table` holds the distinct float64 rows their
    tokens resolve to; `hyp[i]` is pair i's (m, 2) int32 table rows
    [own, matched] of hypothesis|premise, and `prem[i]`, when biway, those of
    premise|hypothesis."""

    table: np.ndarray
    hyp: list[np.ndarray]
    prem: Optional[list[np.ndarray]]

    def sequences(self, which: Iterable[int]) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
        """The (z_h, z_p) pairs `augment_pair` gives for the pairs at positions
        `which`: each row is the gather table[own] || table[matched]."""
        table = self.table

        def gather(rows: np.ndarray) -> np.ndarray:
            return table[rows].reshape(len(rows), -1)

        if self.prem is None:
            return [(gather(self.hyp[i]), None) for i in which]
        return [(gather(self.hyp[i]), gather(self.prem[i])) for i in which]


def index_pairs(
    pairs: Sequence[SentencePair], lib: EmbeddingLibrary, config: ModelConfig
) -> PairIndex:
    """The matching of `pairs` that a model of `config` reads: every sentence
    resolved into one row table at its OOV window, and each pair matched, in
    both directions when biway."""
    biway = config.biway
    resolved = RowTable(lib, config.oov_window)
    sentences = []
    for pair in pairs:
        if not pair.premise_tokens or not pair.hypothesis_tokens:
            raise EmptySentenceError("cannot match against an empty sentence")
        sentences.append(
            (resolved.rows(pair.hypothesis_tokens), resolved.rows(pair.premise_tokens))
        )
    table = resolved.array()
    hyp, prem = [], [] if biway else None
    for h, p in sentences:
        h_rows, p_rows = table[h], table[p]
        hyp.append(np.stack([h, p[match_indices(h_rows, p_rows)]], axis=1))
        if biway:
            prem.append(np.stack([p, h[match_indices(p_rows, h_rows)]], axis=1))
    return PairIndex(table, hyp, prem)
