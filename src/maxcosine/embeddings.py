"""Word-embedding libraries: text and binary loaders, cosine similarity,
concatenation of two libraries, and windowed OOV averaging."""

from __future__ import annotations

import os
import warnings
from typing import Optional, Sequence

import numpy as np

DEFAULT_OOV_WINDOW = 4


class EmbeddingFormatError(ValueError):
    """Raised on malformed embedding files."""


class EmbeddingLibrary:
    """Immutable word -> float64 vector table with precomputed row norms."""

    def __init__(self, vocab: dict[str, int], matrix: np.ndarray, duplicates_dropped: int = 0):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError("matrix must be |V| x d with d > 0")
        if len(vocab) != matrix.shape[0]:
            raise ValueError("vocab size does not match matrix row count")
        if sorted(vocab.values()) != list(range(len(vocab))):
            raise ValueError("vocab indices must be dense and unique")
        self.vocab = dict(vocab)
        self.matrix = matrix
        self.matrix.setflags(write=False)
        self.norms = np.linalg.norm(matrix, axis=1)
        self.norms.setflags(write=False)
        self.duplicates_dropped = duplicates_dropped

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def words(self) -> list[str]:
        out = [""] * len(self)
        for w, i in self.vocab.items():
            out[i] = w
        return out

    def vector(self, word: str) -> np.ndarray:
        return self.matrix[self.vocab[word]]

    def scaled(self, c: float) -> "EmbeddingLibrary":
        return EmbeddingLibrary(self.vocab, self.matrix * c)


def cosine(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"cosine length mismatch: {x.shape} vs {y.shape}")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


def load_text_format(path, expected_dim: Optional[int] = None) -> EmbeddingLibrary:
    """Load `word v1 v2 ... vd` lines; first occurrence of a word wins."""
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    dupes = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            word, fields = parts[0], parts[1:]
            if dim is None:
                dim = len(fields)
                if dim == 0:
                    raise EmbeddingFormatError(f"{path}:{lineno}: no vector components")
                if expected_dim is not None and dim != expected_dim:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: dimension {dim} != expected {expected_dim}"
                    )
            elif len(fields) != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: inconsistent dimension {len(fields)} (expected {dim})"
                )
            if word in vocab:
                dupes += 1
                continue
            try:
                vec = np.array([float(v) for v in fields], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            vocab[word] = len(rows)
            rows.append(vec)
    if not rows:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    return EmbeddingLibrary(vocab, np.vstack(rows), duplicates_dropped=dupes)


def save_text_format(lib: EmbeddingLibrary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(lib.words(), lib.matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def load_binary_format(path) -> EmbeddingLibrary:
    """Load the `|V| d\\n` header + (word SP d*float32-LE [LF]) record format."""
    with open(path, "rb") as fh:
        header = bytearray()
        while True:
            b = fh.read(1)
            if not b:
                raise EmbeddingFormatError(f"{path}: truncated header")
            if b == b"\n":
                break
            header += b
        try:
            count_s, dim_s = header.split()
            count, dim = int(count_s), int(dim_s)
        except ValueError:
            raise EmbeddingFormatError(f"{path}: malformed header {bytes(header)!r}") from None
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
        n = 0
        for _ in range(count):
            word_bytes = bytearray()
            while True:
                b = fh.read(1)
                if not b:
                    raise EmbeddingFormatError(f"{path}: truncated at record {n}")
                if b == b" ":
                    break
                word_bytes += b
            try:
                word = word_bytes.decode("utf-8")
            except UnicodeDecodeError:
                word = word_bytes.decode("utf-8", errors="replace")
                warnings.warn(f"{path}: invalid UTF-8 in word at record {n}; bytes replaced")
            raw = fh.read(4 * dim)
            if len(raw) != 4 * dim:
                raise EmbeddingFormatError(f"{path}: truncated vector at record {n}")
            vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            # optional record separator
            pos = fh.tell()
            nxt = fh.read(1)
            if nxt and nxt != b"\n":
                fh.seek(pos)
            if word in vocab:
                dupes += 1
                continue
            vocab[word] = n
            rows[n] = vec
            n += 1
    return EmbeddingLibrary(vocab, rows[:n], duplicates_dropped=dupes)


def save_binary_format(lib: EmbeddingLibrary, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{len(lib)} {lib.dim}\n".encode("ascii"))
        for word, row in zip(lib.words(), lib.matrix):
            fh.write(word.encode("utf-8") + b" ")
            fh.write(row.astype("<f4").tobytes())
            fh.write(b"\n")


def concat_libraries(a: EmbeddingLibrary, b: EmbeddingLibrary) -> EmbeddingLibrary:
    """Union vocabulary; vector(w) = [a(w) || b(w)], zero half when w is missing
    from one of the libraries."""
    words = a.words() + [w for w in b.words() if w not in a.vocab]
    dim = a.dim + b.dim
    matrix = np.zeros((len(words), dim), dtype=np.float64)
    vocab: dict[str, int] = {}
    for i, w in enumerate(words):
        vocab[w] = i
        if w in a.vocab:
            matrix[i, : a.dim] = a.vector(w)
        if w in b.vocab:
            matrix[i, a.dim :] = b.vector(w)
    return EmbeddingLibrary(vocab, matrix)


def embed_sentence(
    lib: EmbeddingLibrary, tokens: Sequence[str], window: int = DEFAULT_OOV_WINDOW
) -> np.ndarray:
    """(n, d) vectors of a sentence's tokens: the library row of an in-vocab token,
    else the mean of the in-vocab rows within +-window of it, else zeros."""
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
