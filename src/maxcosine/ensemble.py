"""Seed ensembles: homogeneous members trained from distinct seeds, predictions
averaged in probability space."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .data import SentencePair
from .embeddings import EmbeddingLibrary
from .matching import index_pairs
from .model import Model, _run_passes, augment_pair, forward_members
from .training import TrainConfig, TrainResult, train


class ManifestError(ValueError):
    """Raised on unreadable or malformed ensemble manifests."""


@dataclass
class Ensemble:
    members: list[Model]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        ref = dataclasses.replace(self.members[0].config, seed=0)
        for m in self.members[1:]:
            if dataclasses.replace(m.config, seed=0) != ref:
                raise ValueError("ensemble members must share a config (only seeds differ)")


def train_ensemble(
    config: TrainConfig,
    seeds: Sequence[int],
    train_pairs: Sequence[SentencePair],
    val_pairs: Sequence[SentencePair],
    lib: EmbeddingLibrary,
    metrics_dir=None,
) -> tuple[Ensemble, list[TrainResult]]:
    """One `train` run per seed, each a `_run_passes` job, started in seed order;
    a member is fully determined by its seed, so two at once train it unchanged.
    If a member raises, such as a `DivergenceError`, the others run to their end
    (on one core, those after it do not start), then the first failed member's
    error in seed order is raised. After Ctrl-C, no member starts, and one
    training on the helper thread stops at its next batch."""
    if len(set(seeds)) != len(seeds):
        raise ValueError("ensemble seeds must be pairwise distinct")
    metrics = [str(Path(metrics_dir) / f"metrics_seed{s}.tsv") if metrics_dir else None
               for s in seeds]
    # matching reads only what members share (library, biway, OOV window), so
    # both sets are matched once here, not once per member
    model_config = config.model_config(lib.dim)
    indexes = (index_pairs(train_pairs, lib, model_config),
               index_pairs(val_pairs, lib, model_config))
    results = _run_passes([
        (train, (train_pairs, val_pairs, dataclasses.replace(config, seed=s), lib, path,
                 False, indexes), 1)
        for s, path in zip(seeds, metrics)
    ])
    return Ensemble(members=[r.best_model for r in results]), results


def predict_ensemble(
    ensemble: Ensemble, pair: SentencePair, lib: EmbeddingLibrary
) -> tuple[np.ndarray, int]:
    """Arithmetic mean of member probabilities; label with smallest-index tie-break.

    This is `training.evaluate`'s forward on a batch of one: the pair is matched
    once for all members, which differ only in seed, and all members' encoders
    run as one set of independent passes.
    """
    config = ensemble.members[0].config
    mean = forward_members(ensemble.members, [augment_pair(pair, lib, config)])[0]
    return mean, int(np.argmax(mean)) + 1


def save_manifest(path, member_paths: Sequence[str], seeds: Sequence[int]) -> None:
    manifest = {
        "members": [{"checkpoint": str(p), "seed": int(s)} for p, s in zip(member_paths, seeds)]
    }
    with atomic_write(path) as fh:
        fh.write((json.dumps(manifest, indent=2) + "\n").encode("utf-8"))


def load_ensemble(manifest_path) -> Ensemble:
    """Load every member checkpoint a manifest lists; checkpoint paths are
    relative to the manifest's directory unless absolute."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            paths = [entry["checkpoint"] for entry in json.load(fh)["members"]]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ManifestError(f"{manifest_path}: bad manifest: {exc!r}") from None
    if not paths:
        raise ManifestError(f"{manifest_path}: no members")
    for p in paths:
        try:
            usable = isinstance(p, str) and "\0" not in p and os.fsencode(p) != b""
        except UnicodeEncodeError:  # a lone surrogate the file system cannot take
            usable = False
        if not usable:
            raise ManifestError(f"{manifest_path}: member checkpoint {p!r} is not a file path")
    base = Path(manifest_path).parent
    return Ensemble(members=[load_checkpoint(base / p) for p in paths])


def save_ensemble(ensemble: Ensemble, out_dir) -> Path:
    """Each member's checkpoint, named by its seed, and a manifest listing them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [m.config.seed for m in ensemble.members]
    paths = [f"member_seed{seed}.ckpt" for seed in seeds]
    for model, p in zip(ensemble.members, paths):
        save_checkpoint(out / p, model)
    manifest = out / "ensemble.json"
    save_manifest(manifest, paths, seeds)
    return manifest
