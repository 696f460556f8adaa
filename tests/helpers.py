"""Shared builders for synthetic libraries and sentence pairs, and reference
implementations that tests compare the program against."""

import os
import warnings

import numpy as np

from maxcosine.data import SentencePair
from maxcosine.embeddings import EmbeddingFormatError, EmbeddingLibrary


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
