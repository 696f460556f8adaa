"""Model checkpoint container.

Layout: 8-byte magic `MCLSTM\\x00\\x01`, an 8-byte little-endian header length,
a UTF-8 JSON header `{"config": {...}, "arrays": [{"name", "shape"}, ...]}`,
then each array's float64 row-major little-endian bytes in header order.
The arrays are `Model.parameters()`, so each LSTM is stored as its per-gate
`W_i … b_c` blocks. Round-trips are bit-exact.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import struct

import numpy as np

from .model import Model, ModelConfig, zero_model

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
    with open(path, "wb") as fh:
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
        if hlen > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            model = zero_model(ModelConfig(**header["config"]))
            entries = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad header: {exc!r}") from None
        params = model.parameters()
        expected = [(name, view.shape) for name, view in params.items()]
        for got, want in itertools.zip_longest(entries, expected):
            if got != want:
                raise CheckpointError(f"{path}: header lists array {got}, config needs {want}")
        for name, view in params.items():
            raw = fh.read(view.nbytes)
            if len(raw) != view.nbytes:
                raise CheckpointError(f"{path}: truncated array {name}")
            view[...] = np.frombuffer(raw, dtype="<f8").reshape(view.shape)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last array")
    return model
