"""Shared builders for synthetic libraries and sentence pairs, and reference
implementations that tests compare the program against."""

import dataclasses
import os
import threading
import warnings

import numpy as np

from maxcosine import model as model_module
from maxcosine.data import SentencePair
from maxcosine.embeddings import EmbeddingFormatError, EmbeddingLibrary
from maxcosine.model import Model, Params


def random_library(rng, n_words=24, dim=8):
    words = [f"w{i}" for i in range(n_words)]
    return EmbeddingLibrary(
        {w: i for i, w in enumerate(words)}, rng.standard_normal((n_words, dim))
    )


def random_pairs(rng, lib, n, min_len=3, max_len=6):
    words = lib.words()
    out = []
    for i in range(n):
        prem = tuple(str(w) for w in rng.choice(words, size=int(rng.integers(min_len, max_len + 1))))
        hyp = tuple(str(w) for w in rng.choice(words, size=int(rng.integers(min_len, max_len + 1))))
        out.append(SentencePair(prem, hyp, label=int(rng.integers(1, 4)), id=i))
    return out


def record_pass_threads(monkeypatch) -> list:
    """The thread of every `model._final_states` pass run from now on, in the
    order they start."""
    seen = []
    final_states = model_module._final_states

    def recorded(*args):
        seen.append(threading.current_thread())
        return final_states(*args)

    monkeypatch.setattr(model_module, "_final_states", recorded)
    return seen


def scaled(lib, c: float) -> EmbeddingLibrary:
    """`lib` with every vector multiplied by `c`."""
    return EmbeddingLibrary(lib.vocab, lib.matrix * c, lib.duplicates_dropped)


def copy_model(model) -> Model:
    """A model of an equal config that owns a copy of `model.theta`."""
    return Model(dataclasses.replace(model.config), model.theta.copy())


def flat_params(arrays) -> Params:
    """Copies of a dict of float64 arrays, as views of one flat array in dict
    order: the layout `Model.parameters()` gives and `adam_step` takes."""
    out = Params(np.zeros(sum(a.size for a in arrays.values())),
                 [(name, a.shape) for name, a in arrays.items()])
    for name, a in arrays.items():
        out[name][...] = a
    return out


def assert_views_tile_theta(model) -> None:
    """Every array of `model`, by name and as the model computes with it, is a
    view of `model.theta`, and each list of them tiles it in checkpoint order
    with no gap or overlap: writing 0, 1, 2, ... into theta reads back so."""
    model.theta[:] = np.arange(model.theta.size)
    blocks = [a for lstm in model.lstms for a in (lstm.W, lstm.b)] + [model.softmax.W_s,
                                                                     model.softmax.b_s]
    for arrays in (list(model.parameters().values()), blocks):
        start = 0
        for a in arrays:
            assert np.array_equal(a.ravel(), np.arange(start, start + a.size))
            start += a.size
        assert start == model.theta.size


def load_binary_oracle(path) -> EmbeddingLibrary:
    """Reference reader for the binary embedding format: reads the header and each
    word one byte at a time. `embeddings.load_binary_format` must equal it, its
    errors and warnings included."""
    with open(path, "rb") as fh:
        header = bytearray()
        while True:
            b = fh.read(1)
            if not b:
                raise EmbeddingFormatError(f"{path}: truncated header")
            if b == b"\n":
                break
            header += b
        fields = bytes(header).split()
        if len(fields) != 2 or not all(f.isdigit() for f in fields):
            raise EmbeddingFormatError(f"{path}: malformed header {bytes(header)!r}")
        count, dim = int(fields[0]), int(fields[1])
        if count < 1 or dim < 1:
            raise EmbeddingFormatError(f"{path}: bad header counts {count} {dim}")
        # a record is at least a space and 4*dim bytes; check before allocating
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if count * (4 * dim + 1) > left:
            raise EmbeddingFormatError(
                f"{path}: truncated: header declares {count} records of dimension {dim}, "
                f"but only {left} bytes follow it"
            )
        vocab: dict[str, int] = {}
        rows = np.empty((count, dim), dtype=np.float64)
        dupes = 0
        n = 0  # records kept; messages number records by file position
        for record in range(count):
            word_bytes = bytearray()
            while True:
                b = fh.read(1)
                if not b:
                    raise EmbeddingFormatError(f"{path}: truncated at record {record}")
                if b == b" ":
                    break
                word_bytes += b
            try:
                word = word_bytes.decode("utf-8")
            except UnicodeDecodeError:
                word = word_bytes.decode("utf-8", errors="replace")
                warnings.warn(f"{path}: invalid UTF-8 in word at record {record}; bytes replaced")
            raw = fh.read(4 * dim)
            if len(raw) != 4 * dim:
                raise EmbeddingFormatError(f"{path}: truncated vector at record {record}")
            vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            # optional record separator
            pos = fh.tell()
            nxt = fh.read(1)
            if nxt and nxt != b"\n":
                fh.seek(pos)
            if word in vocab:
                dupes += 1
                continue
            if not np.isfinite(vec).all():
                raise EmbeddingFormatError(
                    f"{path}: non-finite vector component at record {record}"
                )
            vocab[word] = n
            rows[n] = vec
            n += 1
    return EmbeddingLibrary(vocab, rows[:n], duplicates_dropped=dupes)


def cosine(x, y) -> float:
    """Cosine similarity of two vectors, 0.0 when either has zero norm."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"cosine length mismatch: {x.shape} vs {y.shape}")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


def match_word(query, candidates) -> int:
    """Index of the candidate with the highest cosine similarity to query, ties
    to the smallest index: the matching oracle `matching.match_indices` must
    equal."""
    if len(candidates) == 0:
        raise ValueError("empty candidate list")
    best, best_sim = 0, -np.inf
    for i, cand in enumerate(candidates):
        sim = cosine(query, cand)
        if sim > best_sim:
            best, best_sim = i, sim
    return best


def embed_sentence_reference(lib, tokens, window) -> np.ndarray:
    """(n, d) vectors of a sentence's tokens, resolved the way the program did
    before it indexed datasets: a library row, else the mean of the in-vocab rows
    within +-window, else zeros."""
    ids = np.array([lib.vocab.get(t, -1) for t in tokens], dtype=np.intp)
    known = ids >= 0
    out = np.zeros((len(ids), lib.dim))
    out[known] = lib.matrix[ids[known]]
    for t in np.flatnonzero(~known):
        near = ids[max(0, t - window) : max(0, t + window + 1)]
        near = near[near >= 0]
        if near.size:
            out[t] = lib.matrix[near].mean(axis=0)
    return out


def match_indices_reference(own, cand) -> np.ndarray:
    """Max-cosine matching one query row at a time, one `cand @ q` product and one
    `np.linalg.norm(q)` each: the program's matcher before it stacked the
    queries. Ties and repeated rows go to the first row with the same bytes."""
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


def augment_pair_reference(pair, lib, window, biway):
    """(z_h,), or (z_h, z_p) when biway, of one pair as the program built them
    before it indexed datasets: both sentences resolved, then matched and
    stacked per direction."""
    prem = embed_sentence_reference(lib, pair.premise_tokens, window)
    hyp = embed_sentence_reference(lib, pair.hypothesis_tokens, window)
    z_h = np.hstack([hyp, prem[match_indices_reference(hyp, prem)]])
    if not biway:
        return (z_h,)
    return z_h, np.hstack([prem, hyp[match_indices_reference(prem, hyp)]])
