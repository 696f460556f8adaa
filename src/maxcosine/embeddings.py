"""Word-embedding libraries: text and binary loaders, which of the two a file
needs, concatenation of two libraries, and windowed OOV averaging."""

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

    def words(self) -> list[str]:
        out = [""] * len(self)
        for w, i in self.vocab.items():
            out[i] = w
        return out

    def vector(self, word: str) -> np.ndarray:
        return self.matrix[self.vocab[word]]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_text_format(path) -> EmbeddingLibrary:
    """Load `word v1 v2 ... vd` lines, each ended by LF; first occurrence of a word wins.

    A `|V| d` header, a first line of two ASCII-digit fields, fixes d and is skipped
    (`|V|` is not checked); else the first line fixes d. After it a word may contain
    spaces (840B GloVe has `. . .`): each line's last d fields are the vector and the
    rest is the word, unless the rest ends in a number, which makes the line one of
    surplus components. Every component of a kept line must be finite."""
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    dupes = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1 and (header := _header(raw)) is not None:
                dim = header[1]
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise EmbeddingFormatError(f"{path}:{lineno}: not valid UTF-8") from None
            parts = line.split() if dim is None else line.rsplit(maxsplit=dim)
            if not parts:
                continue
            word, fields = parts[0].strip(), parts[1:]
            if dim is None:
                dim = len(fields)
            else:
                head = word.split()
                if len(fields) != dim or (len(head) > 1 and _is_number(head[-1])):
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: inconsistent dimension "
                        f"{len(head) - 1 + len(fields)} (expected {dim})"
                    )
            if dim == 0:
                raise EmbeddingFormatError(f"{path}:{lineno}: no vector components")
            if word in vocab:
                dupes += 1
                continue
            try:
                vec = np.array([float(v) for v in fields], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            if not np.isfinite(vec).all():
                raise EmbeddingFormatError(f"{path}:{lineno}: non-finite vector component")
            vocab[word] = len(rows)
            rows.append(vec)
    if not rows:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    return EmbeddingLibrary(vocab, np.vstack(rows), duplicates_dropped=dupes)


def _text_unreadable(word: str, first: bool) -> Optional[str]:
    """Why `load_text_format` would not read `word` back from a saved line, or None.

    The first line fixes d by a plain whitespace split. A later line splits its
    last d fields off and strips the rest, which must not end in a number. A CR is
    refused, though the loader keeps one inside a later word: other readers end lines at it."""
    try:
        word.encode("utf-8")
    except UnicodeEncodeError:
        return "is not encodable as UTF-8"
    if first:
        return None if word.split() == [word] else "is empty or holds whitespace"
    if "\n" in word or "\r" in word:
        return "holds a line break"
    if not word or word != word.strip():
        return "is empty or has leading or trailing whitespace"
    pieces = word.split()
    if len(pieces) > 1 and _is_number(pieces[-1]):
        return "ends in a number after whitespace"
    return None


def _refuse_non_finite(path, fmt: str, words: list[str], values: np.ndarray) -> None:
    """Raise, naming the first word whose row of `values`, as it would be saved,
    is not finite: the loaders refuse such a file."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EmbeddingFormatError(
            f"{path}: the {fmt} format cannot hold word {i + 1}, {words[i]!r}: "
            "its vector is not finite"
        )


def save_text_format(lib: EmbeddingLibrary, path) -> None:
    """Write `word v1 ... vd` lines atomically; a word the loader would not read
    back as the same word, or a non-finite vector, raises before the file is
    opened."""
    words = lib.words()
    for i, word in enumerate(words):
        why = _text_unreadable(word, first=i == 0)
        if why is not None:
            raise EmbeddingFormatError(
                f"{path}: the text format cannot hold word {i + 1}, {word!r}: it {why}"
            )
    _refuse_non_finite(path, "text", words, lib.matrix)
    from .checkpoint import atomic_write  # checkpoint imports model, which imports this module

    with atomic_write(path) as fh:
        for word, row in zip(words, lib.matrix):
            fh.write((word + " " + " ".join(repr(float(v)) for v in row) + "\n").encode("utf-8"))


# Bytes read at a time; the buffer grows past it only for a longer record. A block's
# buffer, its words and its joined vectors are live at once, so the block size adds
# to the load's peak. With malloc's thresholds fixed at import (see `model`), a
# 20,000 x 300 file loaded with 64 KiB blocks in a median of 79-87 ms and peaked
# 4.3 MiB lower than with 1 MiB blocks, which took 92-96 ms (2 vCPUs, 15 loads).
_BLOCK = 1 << 16
_HEADER_MAX = 1 << 10
_LINE_MAX = 1 << 20  # bytes `is_binary_format` reads of a line after a header


def _header(line: bytes) -> Optional[tuple[int, int]]:
    """(|V|, d) of a `|V| d` header line, two fields of ASCII digits; None for any other line."""
    fields = line.split()  # never an empty field, so the join is digits only if both are
    return tuple(map(int, fields)) if len(fields) == 2 and b"".join(fields).isdigit() else None


def is_binary_format(path) -> bool:
    """Whether `path` holds the binary format rather than text: a `|V| d` header,
    then, past any blank lines, a line that is not UTF-8 ending in d numbers,
    which is how `load_text_format` would split it after the same header."""
    with open(path, "rb") as fh:
        header = _header(fh.readline(_HEADER_MAX))
        line = fh.readline(_LINE_MAX)
        while header and line and not line.decode("utf-8", "replace").split():
            line = fh.readline(_LINE_MAX)
    if header is None:
        return False
    dim = header[1]
    try:
        fields = line.decode("utf-8").split()
    except UnicodeDecodeError:
        return True
    return not (len(fields) > dim and all(map(_is_number, fields[-dim:])))


def _decode(path, raw: bytes, n: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        warnings.warn(f"{path}: invalid UTF-8 in word at record {n}; bytes replaced")
        return raw.decode("utf-8", errors="replace")


def _add_block(path, vocab: dict[str, int], raw_words: list, vectors: list, rows,
               first: int) -> int:
    """Append one block's records, the first of which is record `first` of the file,
    to `vocab` and `rows`, the first occurrence of a word winning; returns the
    number of duplicates dropped. A kept record's vector must be finite."""
    if not raw_words:
        return 0
    n = len(vocab)
    block = np.frombuffer(b"".join(vectors), dtype="<f4").reshape(len(vectors), -1)
    try:
        # a word holds no space, so one decode of the joined words splits back exactly
        words = b" ".join(raw_words).decode("utf-8").split(" ")
    except UnicodeDecodeError:
        words = []
    new = dict(zip(words, range(n, n + len(words))))
    if len(new) == len(raw_words) and vocab.keys().isdisjoint(new) and np.isfinite(block).all():
        vocab.update(new)
        rows[n : len(vocab)] = block
        return 0
    # record by record, so that errors and warnings come in file order
    finite = np.isfinite(block).all(axis=1)
    kept = []
    for i, raw in enumerate(raw_words):
        word = _decode(path, raw, first + i)
        if word not in vocab:
            if not finite[i]:
                raise EmbeddingFormatError(
                    f"{path}: non-finite vector component at record {first + i}"
                )
            vocab[word] = len(vocab)
            kept.append(i)
    rows[n : len(vocab)] = block[kept]
    return len(raw_words) - len(kept)


def load_binary_format(path) -> EmbeddingLibrary:
    """Load the `|V| d\\n` header + (word SP d*float32-LE [LF]) record format.

    The header line may be at most `_HEADER_MAX` bytes long. The records are read
    in blocks of `_BLOCK` bytes, never the whole file at once. Messages number
    records from 0 by their position in the file, dropped duplicates included."""
    with open(path, "rb") as fh:
        header = fh.readline(_HEADER_MAX)
        if not header.endswith(b"\n"):
            raise EmbeddingFormatError(f"{path}: truncated header")
        parsed = _header(header)
        if parsed is None:
            raise EmbeddingFormatError(f"{path}: malformed header {header[:-1]!r}")
        count, dim = parsed
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
        for record in range(count):
            while True:
                sp = buf.find(b" ", pos)
                end = sp + 1 + 4 * dim
                # a whole record, and the byte after it to tell whether an LF ends it
                if sp >= 0 and (end < len(buf) or (eof and end == len(buf))):
                    break
                dupes += _add_block(path, vocab, words, vectors, rows, record - len(words))
                words, vectors = [], []
                if eof:
                    if sp < 0:
                        raise EmbeddingFormatError(f"{path}: truncated at record {record}")
                    _decode(path, buf[pos:sp], record)  # a bad word warns before its vector
                    raise EmbeddingFormatError(f"{path}: truncated vector at record {record}")
                more = fh.read(max(_BLOCK, len(buf) - pos))
                buf, pos, eof = buf[pos:] + more, 0, not more
                view = memoryview(buf)
            words.append(buf[pos:sp])
            vectors.append(view[sp + 1 : end])
            # optional record separator
            pos = end + 1 if end < len(buf) and buf[end] == 0x0A else end
        dupes += _add_block(path, vocab, words, vectors, rows, count - len(words))
    return EmbeddingLibrary(vocab, rows[: len(vocab)], duplicates_dropped=dupes)


def save_binary_format(lib: EmbeddingLibrary, path) -> None:
    """Write the header and one record per word atomically; a word with a space,
    or a vector not finite in float32, raises before the file is opened."""
    words = lib.words()
    spaced = next((w for w in words if " " in w), None)
    if spaced is not None:
        # the loader ends a word at its first space
        raise EmbeddingFormatError(
            f"{path}: the binary format cannot hold a word with a space: {spaced!r}"
        )
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf
        values = lib.matrix.astype("<f4")
    _refuse_non_finite(path, "binary", words, values)
    from .checkpoint import atomic_write  # checkpoint imports model, which imports this module

    with atomic_write(path) as fh:
        fh.write(f"{len(lib)} {lib.dim}\n".encode("ascii"))
        for word, row in zip(words, values):
            fh.write(word.encode("utf-8") + b" ")
            fh.write(row.tobytes())
            fh.write(b"\n")


def concat_libraries(a: EmbeddingLibrary, b: EmbeddingLibrary) -> EmbeddingLibrary:
    """Union vocabulary, `a`'s words then `b`'s others, each in index order;
    vector(w) = [a(w) || b(w)], zero half when w is missing from one of the libraries."""
    b_words = b.words()
    words = a.words() + [w for w in b_words if w not in a.vocab]
    vocab = dict(zip(words, range(len(words))))
    matrix = np.zeros((len(words), a.dim + b.dim), dtype=np.float64)
    matrix[: len(a), : a.dim] = a.matrix
    matrix[[vocab[w] for w in b_words], a.dim :] = b.matrix
    return EmbeddingLibrary(vocab, matrix)


class RowTable:
    """The distinct float64 rows that sentences' tokens resolve to: the library
    row of an in-vocab token, else the mean of the in-vocab rows within +-window
    of it, else zeros. Each row is keyed by the library indices it is the mean
    of: `(i,)` for word i, the in-vocab indices of the window in sentence order
    for an OOV token, `()` for the zero row. Every one-index key reads the
    library row, so an OOV token with one in-vocab neighbour shares that row;
    its mean would differ only where the row holds -0.0, which it makes +0.0."""

    def __init__(self, lib: EmbeddingLibrary, window: int):
        self.lib, self.window = lib, window
        self._slots: dict[tuple[int, ...], int] = {}  # library indices -> table row

    def rows(self, tokens: Sequence[str]) -> np.ndarray:
        """(n,) int32 table rows of a sentence's tokens."""
        vocab, window, slots = self.lib.vocab, self.window, self._slots
        ids = [vocab.get(t, -1) for t in tokens]
        out = np.empty(len(ids), dtype=np.int32)
        for t, i in enumerate(ids):
            key = (i,)
            if i < 0:  # the in-vocab indices of its window, () when there are none
                key = tuple(j for j in ids[max(0, t - window) : t + window + 1] if j >= 0)
            out[t] = slots.setdefault(key, len(slots))
        return out

    def array(self) -> np.ndarray:
        """(R, d) float64 rows, indexed by the values `rows` returned."""
        table = np.zeros((len(self._slots), self.lib.dim))
        single = {slot: key[0] for key, slot in self._slots.items() if len(key) == 1}
        table[list(single)] = self.lib.matrix[list(single.values())]
        for key, slot in self._slots.items():
            if len(key) > 1:
                table[slot] = self.lib.matrix[list(key)].mean(axis=0)
        return table


def embed_sentence(
    lib: EmbeddingLibrary, tokens: Sequence[str], window: int = DEFAULT_OOV_WINDOW
) -> np.ndarray:
    """(n, d) vectors of a sentence's tokens, as `RowTable` resolves them."""
    table = RowTable(lib, window)
    rows = table.rows(tokens)
    return table.array()[rows]
