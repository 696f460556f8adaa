"""Time `train_ensemble` on a synthetic set and print one JSON line: the wall
seconds of the call, the process's peak RSS and each member's `theta` digest.

    PYTHONPATH=src python scripts/time_train_ensemble.py --biway
    PYTHONPATH=src python scripts/time_train_ensemble.py --serial

Without `--serial` members run as `model._run_passes` jobs (two at a time when
the process may use two or more cores); with it, one at a time. The set is
`--train-pairs` and `--val-pairs` pairs of 6 to 20 words drawn from a
2,000-word library of d = 300, with uniform labels. Run one process per
measurement, so each starts from a fresh heap.
"""

import argparse
import hashlib
import json
import resource
import time

import numpy as np

from maxcosine import model
from maxcosine.data import SentencePair
from maxcosine.embeddings import EmbeddingLibrary
from maxcosine.ensemble import train_ensemble
from maxcosine.training import TrainConfig


def synthetic_pairs(rng, words, n):
    def sentence():
        return tuple(rng.choice(words, size=int(rng.integers(6, 21))).tolist())
    return [SentencePair(sentence(), sentence(), label=int(rng.integers(1, 4)), id=i)
            for i in range(n)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--biway", action="store_true")
    ap.add_argument("--serial", action="store_true")
    ap.add_argument("--members", type=int, default=4)
    ap.add_argument("--train-pairs", type=int, default=2048)
    ap.add_argument("--val-pairs", type=int, default=256)
    ap.add_argument("--epochs", type=int, default=1)
    args = ap.parse_args()
    if args.serial:
        model._WORKERS = 0
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(2000)]
    lib = EmbeddingLibrary({w: i for i, w in enumerate(words)},
                           rng.standard_normal((len(words), 300)))
    train_pairs = synthetic_pairs(rng, words, args.train_pairs)
    val_pairs = synthetic_pairs(rng, words, args.val_pairs)
    config = TrainConfig(k=300, batch_size=128, epochs=args.epochs, dropout_rate=0.1,
                         biway=args.biway)
    started = time.perf_counter()
    group, _ = train_ensemble(config, list(range(1, args.members + 1)), train_pairs,
                              val_pairs, lib)
    wall = time.perf_counter() - started
    print(json.dumps({
        "biway": args.biway, "serial": args.serial, "wall_s": round(wall, 3),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "children_peak_rss_mib": round(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024),
        "theta_sha256": [hashlib.sha256(m.theta.tobytes()).hexdigest()[:16]
                         for m in group.members],
    }))


if __name__ == "__main__":
    main()
