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
    """Immutable word -> float64 vector table; `duplicates_dropped` counts the
    repeated words its file held, of which the first occurrence was kept."""

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
        return EmbeddingLibrary(self.vocab, self.matrix * c, self.duplicates_dropped)


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


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_text_format(path, expected_dim: Optional[int] = None) -> EmbeddingLibrary:
    """Load `word v1 v2 ... vd` lines; first occurrence of a word wins.

    The first line fixes d. After it a word may contain spaces (840B GloVe has
    `. . .`): each line's last d fields are the vector and the rest is the word,
    unless the rest ends in a number, which makes the line one of surplus components."""
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    dupes = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split() if dim is None else line.rsplit(maxsplit=dim)
            if not parts:
                continue
            word, fields = parts[0].strip(), parts[1:]
            if dim is None:
                dim = len(fields)
                if dim == 0:
                    raise EmbeddingFormatError(f"{path}:{lineno}: no vector components")
                if expected_dim is not None and dim != expected_dim:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: dimension {dim} != expected {expected_dim}"
                    )
            else:
                head = word.split()
                if len(fields) != dim or (len(head) > 1 and _is_number(head[-1])):
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: inconsistent dimension "
                        f"{len(head) - 1 + len(fields)} (expected {dim})"
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
    words = lib.words()
    if words and words[0].split() != [words[0]]:
        # the loader fixes d from the first line by splitting it on whitespace
        raise EmbeddingFormatError(
            f"{path}: the text format cannot start with a word that is empty or "
            f"holds whitespace: {words[0]!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, lib.matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


# Bytes read at a time; the buffer grows past it only for a longer record. It stays
# under glibc's default 128 KiB mmap threshold: freeing larger buffers raises that
# threshold, and the heap then keeps ~2 MiB more resident through the training
# that follows a load.
_BLOCK = 1 << 16
_HEADER_MAX = 1 << 10


def _decode(path, raw: bytes, n: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        warnings.warn(f"{path}: invalid UTF-8 in word at record {n}; bytes replaced")
        return raw.decode("utf-8", errors="replace")


def _add_block(path, vocab: dict[str, int], raw_words: list, vectors: list, rows) -> int:
    """Append one block's records to `vocab` and `rows`, the first occurrence of a word
    winning; returns the number of duplicates dropped."""
    n = len(vocab)
    try:
        # a word holds no space, so one decode of the joined words splits back exactly
        words = b" ".join(raw_words).decode("utf-8").split(" ")
    except UnicodeDecodeError:
        block = {}
    else:
        block = dict(zip(words, range(n, n + len(words))))
    if len(block) == len(raw_words) and vocab.keys().isdisjoint(block):
        vocab.update(block)
        kept = vectors
    else:
        kept = []
        for raw, vec in zip(raw_words, vectors):
            word = _decode(path, raw, len(vocab))
            if word not in vocab:
                vocab[word] = len(vocab)
                kept.append(vec)
    if kept:
        rows[n : len(vocab)] = np.frombuffer(b"".join(kept), dtype="<f4").reshape(len(kept), -1)
    return len(raw_words) - len(kept)


def load_binary_format(path) -> EmbeddingLibrary:
    """Load the `|V| d\\n` header + (word SP d*float32-LE [LF]) record format.

    The header line may be at most `_HEADER_MAX` bytes long. The records are read
    in blocks of `_BLOCK` bytes, never the whole file at once."""
    with open(path, "rb") as fh:
        header = fh.readline(_HEADER_MAX)
        if not header.endswith(b"\n"):
            raise EmbeddingFormatError(f"{path}: truncated header")
        header = header[:-1]
        try:
            count_s, dim_s = header.split()
            count, dim = int(count_s), int(dim_s)
        except ValueError:
            raise EmbeddingFormatError(f"{path}: malformed header {header!r}") from None
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
        buf, pos, eof = b"", 0, False
        words: list[bytes] = []
        vectors: list[memoryview] = []
        for _ in range(count):
            while True:
                sp = buf.find(b" ", pos)
                end = sp + 1 + 4 * dim
                # a whole record, and the byte after it to tell whether an LF ends it
                if sp >= 0 and (end < len(buf) or (eof and end == len(buf))):
                    break
                dupes += _add_block(path, vocab, words, vectors, rows)
                words, vectors = [], []
                if eof:
                    if sp < 0:
                        raise EmbeddingFormatError(f"{path}: truncated at record {len(vocab)}")
                    _decode(path, buf[pos:sp], len(vocab))  # a bad word warns before its vector
                    raise EmbeddingFormatError(f"{path}: truncated vector at record {len(vocab)}")
                more = fh.read(max(_BLOCK, len(buf) - pos))
                buf, pos, eof = buf[pos:] + more, 0, not more
                view = memoryview(buf)
            words.append(buf[pos:sp])
            vectors.append(view[sp + 1 : end])
            # optional record separator
            pos = end + 1 if end < len(buf) and buf[end] == 0x0A else end
        dupes += _add_block(path, vocab, words, vectors, rows)
    return EmbeddingLibrary(vocab, rows[: len(vocab)], duplicates_dropped=dupes)


def save_binary_format(lib: EmbeddingLibrary, path) -> None:
    words = lib.words()
    spaced = next((w for w in words if " " in w), None)
    if spaced is not None:
        # the loader ends a word at its first space
        raise EmbeddingFormatError(
            f"{path}: the binary format cannot hold a word with a space: {spaced!r}"
        )
    with open(path, "wb") as fh:
        fh.write(f"{len(lib)} {lib.dim}\n".encode("ascii"))
        for word, row in zip(words, lib.matrix):
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
