"""Command-line entry point: train, eval, predict, match, ensemble-train,
gradcheck, embed-convert."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import checkpoint as ckpt
from . import ensemble as ens
from .data import LABEL_NAMES, SentencePair, load_snli, tokenize
from .embeddings import (
    DEFAULT_OOV_WINDOW,
    EmbeddingLibrary,
    concat_libraries,
    embed_sentence,
    is_binary_format,
    load_binary_format,
    load_text_format,
    save_binary_format,
    save_text_format,
)
from .gradcheck import model_gradient_check
from .matching import match_indices
from .model import ModelConfig, init_model
from .numerics import make_rng
from .training import DivergenceError, TrainConfig, evaluate, train

log = logging.getLogger(__name__)

GRADCHECK_TOLERANCE = 1e-5

# every accepted config-file key and its type: TrainConfig's fields but the
# early-exit target, which has no flag, and bi_embedding, which follows
# embeddings2, then the run's files and options
CONFIG_SCHEMA: dict[str, type] = {
    **{k: ty for k, ty in get_type_hints(TrainConfig).items()
       if k not in ("target_val_accuracy", "bi_embedding")},
    "train_path": str,
    "val_path": str,
    "embeddings": str,
    "embeddings2": str,
    "out_dir": str,
    "seeds": str,
    "max_train_pairs": int,
    "max_val_pairs": int,
}

class CliError(Exception):
    pass


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    # argparse reports this type of error as its own, naming the flag
    raise argparse.ArgumentTypeError(f"not a boolean: {value!r}")


def read_config_file(path) -> dict:
    """Plain `key=value` lines; `#` starts a comment; unknown keys are errors."""
    out = {}
    with open(path, "rb") as fh:  # only LF ends a line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CliError(f"{path}:{lineno}: not valid UTF-8") from None
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise CliError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in CONFIG_SCHEMA:
                raise CliError(f"{path}:{lineno}: unknown config key: {key!r}")
            ty = CONFIG_SCHEMA[key]
            try:
                out[key] = _parse_bool(value) if ty is bool else ty(value)
            except (ValueError, argparse.ArgumentTypeError):
                raise CliError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return out


def resolve_config(args) -> dict:
    """Config-file values overridden by any flags that were actually passed; a
    command with a `--seed` flag falls back to `MAXCOSINE_SEED` for it."""
    cfg = dict(read_config_file(args.config)) if getattr(args, "config", None) else {}
    for key in CONFIG_SCHEMA:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    env_seed = os.environ.get("MAXCOSINE_SEED")
    if "seed" not in cfg and env_seed and hasattr(args, "seed"):
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise CliError(f"bad value for MAXCOSINE_SEED: {env_seed!r}") from None
    return cfg


def load_library(path) -> EmbeddingLibrary:
    """One library file, in the format `is_binary_format` finds in its bytes."""
    lib = load_binary_format(path) if is_binary_format(path) else load_text_format(path)
    log.info(
        "%s: %d words, dimension %d, %d duplicates dropped",
        path, len(lib), lib.dim, lib.duplicates_dropped,
    )
    return lib


def _require_embeddings(cfg: dict) -> None:
    """Check, before any file is read, that the settings name a library."""
    if "embeddings" not in cfg:
        raise CliError("no embeddings path given (embeddings=... or --embeddings)")


def load_libraries(cfg: dict) -> EmbeddingLibrary:
    """The `embeddings` library, concatenated with `embeddings2` when that is given."""
    _require_embeddings(cfg)
    lib = load_library(cfg["embeddings"])
    if "embeddings2" in cfg:
        lib = concat_libraries(lib, load_library(cfg["embeddings2"]))
    return lib


def _load_pairs(path, max_pairs=None) -> list[SentencePair]:
    pairs, report = load_snli(path, max_pairs=max_pairs)
    log.info(
        "%s: %d pairs (%d unknown-label, %d empty-tokenization, %d malformed skipped)",
        path, report.emitted, report.skipped_unknown_label,
        report.skipped_empty_tokenization, report.malformed,
    )
    if not pairs:
        raise CliError(f"{path}: no usable pairs")
    return pairs


def _train_setup(cfg: dict):
    """The training settings, data, library and output directory of a training
    command; every setting is checked before any file is read or made.
    `bi_embedding` is whether `embeddings2` is given."""
    for key in ("train_path", "val_path", "out_dir"):
        if key not in cfg:
            raise CliError(f"missing required setting {key}")
    _require_embeddings(cfg)
    config = TrainConfig(bi_embedding="embeddings2" in cfg,
                         **{f.name: cfg[f.name] for f in fields(TrainConfig) if f.name in cfg})
    train_pairs = _load_pairs(cfg["train_path"], cfg.get("max_train_pairs"))
    val_pairs = _load_pairs(cfg["val_path"], cfg.get("max_val_pairs"))
    lib = load_libraries(cfg)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return config, train_pairs, val_pairs, lib, out_dir


def cmd_train(args) -> int:
    config, train_pairs, val_pairs, lib, out_dir = _train_setup(resolve_config(args))
    result = train(train_pairs, val_pairs, config, lib,
                   metrics_path=out_dir / "metrics.tsv", verbose=True)
    ckpt.save_checkpoint(out_dir / "model.ckpt", result.best_model)
    print(f"best epoch {result.best_epoch}: val_accuracy={result.best_val_accuracy:.4f}")
    print(f"checkpoint: {out_dir / 'model.ckpt'}")
    return 0


def _load_group(path) -> ens.Ensemble:
    """An ensemble manifest, or a checkpoint as a one-member ensemble."""
    with open(path, "rb") as fh:
        is_manifest = fh.read(1) == b"{"
    if is_manifest:
        return ens.load_ensemble(path)
    return ens.Ensemble([ckpt.load_checkpoint(path)])


def cmd_eval(args) -> int:
    lib = load_libraries(resolve_config(args))
    pairs = _load_pairs(args.dataset)
    result = evaluate(pairs, _load_group(args.checkpoint), lib)
    correct = int(np.trace(result.confusion))
    print(f"accuracy: {result.accuracy:.4f} ({correct}/{result.total})")
    print("confusion (rows gold, cols predicted; E C N):")
    for row_label, row in zip("ECN", result.confusion):
        print(f"  {row_label}  " + " ".join(f"{v:7d}" for v in row))
    return 0


def _sentence_pair(args) -> SentencePair:
    """The premise and hypothesis as an unlabelled pair, each of one token or more."""
    prem, hyp = tokenize(args.premise), tokenize(args.hypothesis)
    if not prem or not hyp:
        raise CliError("premise and hypothesis must tokenize to at least one token")
    return SentencePair(tuple(prem), tuple(hyp), label=1, id=0)


def cmd_predict(args) -> int:
    pair = _sentence_pair(args)
    lib = load_libraries(resolve_config(args))
    group = _load_group(args.checkpoint)
    probs, label = ens.predict_ensemble(group, pair, lib)
    for i, name in LABEL_NAMES.items():
        print(f"{name}: {probs[i - 1]:.6f}")
    print(f"label: {LABEL_NAMES[label]}")
    return 0


def cmd_match(args) -> int:
    pair = _sentence_pair(args)
    prem, hyp = pair.premise_tokens, pair.hypothesis_tokens
    cfg = resolve_config(args)
    # checked by the rule a model's window obeys, before the library loads
    window = ModelConfig(1, oov_window=cfg.get("oov_window", DEFAULT_OOV_WINDOW)).oov_window
    lib = load_libraries(cfg)
    prem_rows = embed_sentence(lib, prem, window)
    hyp_rows = embed_sentence(lib, hyp, window)
    for t, idx in enumerate(match_indices(hyp_rows, prem_rows)):
        q, c = hyp_rows[t], prem_rows[idx]
        norms = np.linalg.norm(q) * np.linalg.norm(c)
        cosine = np.dot(q, c) / norms if norms else 0.0  # a zero row scores 0
        print(f"{hyp[t]} -> {prem[idx]} ({cosine:.4f})")
    return 0


def _ensemble_settings(cfg: dict) -> list[int]:
    """The member seeds of `ensemble-train`, a comma-separated list of distinct
    integers."""
    if "seeds" not in cfg:
        raise CliError("missing required setting seeds")
    try:
        seeds = [int(s) for s in cfg["seeds"].split(",") if s.strip()]
    except ValueError:
        raise CliError(f"bad value for seeds: {cfg['seeds']!r}") from None
    if not seeds:
        raise CliError("seeds must name at least one seed")
    if len(set(seeds)) != len(seeds):
        raise CliError(f"seeds must be pairwise distinct, got {cfg['seeds']}")
    return seeds


def cmd_ensemble_train(args) -> int:
    cfg = resolve_config(args)
    seeds = _ensemble_settings(cfg)
    config, train_pairs, val_pairs, lib, out_dir = _train_setup(cfg)
    group, results = ens.train_ensemble(config, seeds, train_pairs, val_pairs, lib,
                                        metrics_dir=out_dir)
    manifest = ens.save_ensemble(group, out_dir)
    for seed, result in zip(seeds, results):
        print(f"seed {seed}: best epoch {result.best_epoch}, "
              f"val_accuracy={result.best_val_accuracy:.4f}")
    print(f"manifest: {manifest}")
    return 0


def cmd_gradcheck(args) -> int:
    for flag in ("dim", "k", "pairs"):
        if getattr(args, flag) < 1:
            raise CliError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    seed = resolve_config(args).get("seed", 0)
    rng = make_rng(seed)
    d, k = args.dim, args.k
    vocab = [f"w{i}" for i in range(24)]
    lib = EmbeddingLibrary(
        {w: i for i, w in enumerate(vocab)}, rng.standard_normal((len(vocab), d))
    )
    pairs = []
    for i in range(args.pairs):
        prem = tuple(rng.choice(vocab, size=rng.integers(3, 7)))
        hyp = tuple(rng.choice(vocab, size=rng.integers(3, 7)))
        pairs.append(SentencePair(prem, hyp, label=int(rng.integers(1, 4)), id=i))
    worst = 0.0
    for biway in (False, True):
        model = init_model(ModelConfig(d, k=k, biway=biway, seed=seed), make_rng(seed))
        err = model_gradient_check(model, pairs, lib)
        worst = max(worst, err)
        print(f"{'biway' if biway else 'base '} max relative error: {err:.3e}")
    ok = worst < GRADCHECK_TOLERANCE
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (tolerance {GRADCHECK_TOLERANCE:g})")
    return 0 if ok else 1


def cmd_embed_convert(args) -> int:
    lib = load_library(args.input)
    if args.to == "text":
        save_text_format(lib, args.output)
    else:
        save_binary_format(lib, args.output)
    print(f"wrote {len(lib)} vectors of dimension {lib.dim} to {args.output}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, keys) -> None:
    p.add_argument("--config", help="key=value config file")
    for key in keys:
        ty = CONFIG_SCHEMA[key]
        flag = "--" + key.replace("_", "-")
        if ty is bool:
            p.add_argument(flag, type=_parse_bool, default=None, metavar="BOOL")
        else:
            p.add_argument(flag, type=ty, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maxcosine")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes flags for the keys it reads; a config file may hold any
    # key, and each command reads only its own, so one file serves every command
    library_keys = ("embeddings", "embeddings2")
    train_keys = [key for key in CONFIG_SCHEMA if key != "seeds"]

    p = sub.add_parser("train", help="train a model, write checkpoint and metrics")
    _add_config_flags(p, train_keys)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or ensemble manifest")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    _add_config_flags(p, library_keys)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one premise/hypothesis pair")
    p.add_argument("checkpoint")
    p.add_argument("premise")
    p.add_argument("hypothesis")
    _add_config_flags(p, library_keys)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("match", help="show max-cosine word alignments")
    p.add_argument("premise")
    p.add_argument("hypothesis")
    _add_config_flags(p, (*library_keys, "oov_window"))
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("ensemble-train", help="train one member per seed")
    _add_config_flags(p, [key for key in CONFIG_SCHEMA if key != "seed"])  # members: seeds
    p.set_defaults(func=cmd_ensemble_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--dim", type=int, default=8, help="embedding dimension")
    p.add_argument("--k", type=int, default=12, help="hidden size")
    p.add_argument("--pairs", type=int, default=2, help="number of random pairs")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("embed-convert", help="convert embedding files text<->binary")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("text", "binary"), required=True)
    p.set_defaults(func=cmd_embed_convert)
    for p in sub.choices.values():
        p.allow_abbrev = False  # a flag only in full: `--seed` is not `--seeds`
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
