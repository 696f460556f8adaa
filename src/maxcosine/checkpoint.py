"""Model checkpoint container.

Layout: 8-byte magic `MCLSTM\\x00\\x01`, an 8-byte little-endian header length,
a UTF-8 JSON header `{"config": {...}, "arrays": [{"name", "shape"}, ...]}`,
then each array's float64 row-major little-endian bytes in header order.
The arrays are `Model.parameters()`, so each LSTM is stored as its per-gate
`W_i … b_c` blocks. Round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import struct
from pathlib import Path

import numpy as np

from .model import Model, ModelConfig, parameter_count, zero_model

MAGIC = b"MCLSTM\x00\x01"


class CheckpointError(ValueError):
    """Raised on unreadable or inconsistent checkpoint files."""


def save_checkpoint(path, model: Model) -> None:
    params = model.parameters()
    header = {
        "config": dataclasses.asdict(model.config),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Read a checkpoint; a file that is not exactly what save_checkpoint writes
    for the config in its header raises CheckpointError naming `path`."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: bad magic (not a checkpoint)")
        raw = fh.read(8)
        if len(raw) != 8:
            raise CheckpointError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<Q", raw)
        size = os.fstat(fh.fileno()).st_size
        if hlen > size - fh.tell():
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            config = ModelConfig(**header["config"])
            entries = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
            # sized from the config before anything is allocated
            need, have = 8 * parameter_count(config), size - fh.tell()
            if need != have:
                raise CheckpointError(
                    f"{path}: config needs {need} bytes of arrays, file has {have}"
                )
            model = zero_model(config)
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CheckpointError(f"{path}: bad header: {exc!r}") from None
        params = model.parameters()
        expected = [(name, view.shape) for name, view in params.items()]
        for got, want in itertools.zip_longest(entries, expected):
            if got != want:
                raise CheckpointError(f"{path}: header lists array {got}, config needs {want}")
        for view in params.values():
            view[...] = np.frombuffer(fh.read(view.nbytes), dtype="<f8").reshape(view.shape)
    return model


@contextlib.contextmanager
def atomic_write(path):
    """Binary file whose bytes replace `path` only when the block completes; if it
    raises, the temporary file is removed and `path` keeps its old contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
