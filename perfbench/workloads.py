"""The benchmark's workloads: a seeded set-up, one timed unit of work, and the
checks on that unit's outputs.

Both are closed loops in one process: each call waits for the previous result
before the next is sent, as a training job or an offline evaluation does. Model
sizes are the paper's, d = k = 300.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from maxcosine import checkpoint, cli, data, embeddings, ensemble, model, training
from maxcosine.numerics import make_rng

import synth

DIM = K = 300
PROB_SUM_TOLERANCE = 1e-12


@dataclass
class Unit:
    """One timed unit of work: a train() call, a pass over the pairs, or an IO round."""

    items: int                 # pairs trained, pairs classified, or IO rounds
    op_ms: list[float]         # wall time of each operation in the unit
    outputs: object = None
    failed: int = 0            # operations whose outputs failed a check
    parts: dict = field(default_factory=dict)  # sub-timings, such as load_ms and save_ms

    @property
    def ns(self) -> int:
        return int(sum(self.op_ms) * 1e6)


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode("ascii")).hexdigest()


def _float32_sha(matrix: np.ndarray) -> str:
    """sha256 of the matrix rounded to float32, as a binary library file holds it,
    and widened back to float64, hashed in blocks so no full copy is made."""
    sha = hashlib.sha256()
    for block in np.array_split(matrix, 20):
        sha.update(block.astype(np.float32).astype(np.float64))
    return sha.hexdigest()


def _library(rng) -> embeddings.EmbeddingLibrary:
    vocab = {f"w{i}": i for i in range(synth.VOCAB)}
    return embeddings.EmbeddingLibrary(vocab, synth.vectors(rng, synth.VOCAB, DIM))


def _pairs(rng, n, shape) -> list[data.SentencePair]:
    gold = synth.labels(rng, n)
    return [data.SentencePair(p, h, label, i + 1)
            for i, ((p, h), label) in enumerate(zip(synth.token_pairs(rng, n, shape), gold))]


def _probs_ok(probs) -> bool:
    finite = bool(np.all(np.isfinite(probs)))
    return finite and abs(float(np.sum(probs)) - 1.0) <= PROB_SUM_TOLERANCE


def describe_pairs(pairs, vocab) -> dict:
    """Measured properties of a pair set, for the benchmark's notes."""
    def stats(lens):
        return {"mean": float(np.mean(lens)), "p90": float(np.percentile(lens, 90))}
    tokens = [t for p in pairs for t in p.premise_tokens + p.hypothesis_tokens]
    distinct = set(tokens)
    return {
        "pairs": len(pairs),
        "premise_len": stats([len(p.premise_tokens) for p in pairs]),
        "hypothesis_len": stats([len(p.hypothesis_tokens) for p in pairs]),
        "oov_token_share": sum(t not in vocab for t in tokens) / len(tokens),
        "distinct_tokens": len(distinct),
        "library_rows": len(vocab),
        "library_rows_referenced": sum(t in vocab for t in distinct),
    }


class Workload:
    """What run.py calls. A workload's state `st` is a dict made by setup()."""

    name: str

    def digests(self, st: dict) -> dict:
        return st["first"]

    def library_bytes(self, st: dict) -> int:
        """Size of the embedding matrix the workload's operations use."""
        return st["lib"].matrix.nbytes


class TrainBase(Workload):
    """One training job on the base model, as `maxcosine train` runs it: load a
    binary embedding library through `cli.load_libraries` and the train and val
    JSONL files through `data.load_snli`, run `training.train`, save the best
    checkpoint. Forward, BPTT and Adam do almost all the work, matching little,
    and file IO a few percent. Two epochs, each followed by validation, so the
    per-epoch re-matching shows."""

    name = "train_base"
    shape = synth.Shape(premise_mean=14, hypothesis_mean=8, tail=0.45, oov_rate=0.02)
    train_pairs, val_pairs, epochs, batch_size, dropout = 32, 16, 2, 32, 0.3

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        lib = _library(rng)
        # Only the vocabulary and a digest of the library stay in memory, so that
        # peak RSS holds one library, the one each job loads, as a real job does.
        st = {"vocab": lib.vocab, "train": _pairs(rng, self.train_pairs, self.shape),
              "val": _pairs(rng, self.val_pairs, self.shape),
              "config": training.TrainConfig(batch_size=self.batch_size, epochs=self.epochs,
                                             dropout_rate=self.dropout, seed=seed, k=K),
              "vectors": workdir / "vectors.bin", "train_path": workdir / "train.jsonl",
              "val_path": workdir / "val.jsonl", "ckpt": workdir / "best.ckpt", "first": None}
        synth.write_binary_library(st["vectors"], list(lib.vocab), lib.matrix)
        st["library_sha"] = _float32_sha(lib.matrix)
        synth.write_snli(st["train_path"], st["train"])
        synth.write_snli(st["val_path"], st["val"])
        training.train(st["train"][:2], st["val"][:1],
                       dataclasses.replace(st["config"], epochs=1), lib)
        return st

    def run(self, st: dict) -> Unit:
        start = time.perf_counter_ns()
        lib = cli.load_libraries({"embeddings": str(st["vectors"])})
        train_set = data.load_snli(st["train_path"])
        val_set = data.load_snli(st["val_path"])
        loaded = time.perf_counter_ns()
        result = training.train(train_set[0], val_set[0], st["config"], lib)
        trained = time.perf_counter_ns()
        checkpoint.save_checkpoint(st["ckpt"], result.best_model)
        end = time.perf_counter_ns()
        return Unit(items=len(train_set[0]) * len(result.history),
                    op_ms=[(end - start) / 1e6], outputs=(lib, train_set, val_set, result),
                    parts={"load_ms": (loaded - start) / 1e6, "train_ms": (trained - loaded) / 1e6,
                           "save_ms": (end - trained) / 1e6})

    def check(self, st: dict, unit: Unit) -> list[str]:
        lib, train_set, val_set, result = unit.outputs
        st["library_bytes"] = lib.matrix.nbytes
        problems = []
        if lib.vocab != st["vocab"] or hashlib.sha256(lib.matrix).hexdigest() != st["library_sha"]:
            problems.append("binary library does not round-trip exactly to float32")
        for split, (pairs, report) in (("train", train_set), ("val", val_set)):
            if pairs != st[split] or not report.consistent() or report.emitted != len(st[split]):
                problems.append(f"{split}: {report} does not read back the pairs written")
        if len(result.history) != self.epochs:
            problems.append(f"ran {len(result.history)} of {self.epochs} epochs")
        if not all(np.isfinite(h.train_loss) for h in result.history):
            problems.append("non-finite training loss")
        val_probs = [model.forward(result.best_model, p, lib)[0] for p in st["val"]]
        if not all(_probs_ok(p) for p in val_probs):
            problems.append("best model's probabilities are not finite or do not sum to 1")
        saved, source = checkpoint.load_checkpoint(st["ckpt"]).parameters(), (
            result.best_model.parameters())
        if list(saved) != list(source) or any(
                a.tobytes() != source[n].tobytes() for n, a in saved.items()):
            problems.append("the saved checkpoint does not load back bit-exact")
        digests = {"checkpoint": _sha(st["ckpt"]),
                   "val_labels": _digest(int(np.argmax(p)) + 1 for p in val_probs)}
        if st["first"] is None:
            st["first"] = digests
        elif digests != st["first"]:
            problems.append("the job is not deterministic: digests differ between calls")
        unit.failed = int(bool(problems))
        return problems

    def library_bytes(self, st: dict) -> int:
        """The library that cli.load_libraries returned, as checked."""
        return st["library_bytes"]

    def named(self, e2e: dict, units: list[Unit]) -> dict:
        return {"train_pairs_per_s": (e2e["throughput_per_s"], "pairs/s"),
                **{name.replace("_ms", "_s"): (
                    statistics.median(u.parts[name] for u in units) / 1e3, "s")
                   for name in ("load_ms", "train_ms", "save_ms")}}

    def properties(self, st: dict) -> dict:
        return {"train": describe_pairs(st["train"], st["vocab"]),
                "val": describe_pairs(st["val"], st["vocab"])}


class EvalEnsembleBiway(Workload):
    """`ensemble.predict_ensemble`, one pair at a time, over three biway members.
    Inference only: no BPTT, Adam or dropout. Matching runs once per member and
    per direction, six times a pair, and the heavier length tail shows in the
    per-pair latency."""

    name = "eval_ensemble_biway"
    shape = synth.Shape(premise_mean=14, hypothesis_mean=8, tail=0.7, oov_rate=0.15)
    pairs, members, sample_every = 128, 3, 16

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        lib = _library(rng)
        pairs = _pairs(rng, self.pairs, self.shape)
        members = []
        for i in range(self.members):
            cfg = model.ModelConfig(embedding_dim=DIM, k=K, biway=True, seed=seed + i)
            members.append(model.init_model(cfg, make_rng(seed + i)))
        group = ensemble.Ensemble(members)
        ensemble.predict_ensemble(group, pairs[0], lib)
        return {"lib": lib, "pairs": pairs, "ensemble": group, "first": None}

    def run(self, st: dict) -> Unit:
        lib, group = st["lib"], st["ensemble"]
        op_ms, outputs = [], []
        for pair in st["pairs"]:
            start = time.perf_counter_ns()
            outputs.append(ensemble.predict_ensemble(group, pair, lib))
            op_ms.append((time.perf_counter_ns() - start) / 1e6)
        return Unit(items=len(op_ms), op_ms=op_ms, outputs=outputs)

    def check(self, st: dict, unit: Unit) -> list[str]:
        bad = {i for i, (probs, _) in enumerate(unit.outputs) if not _probs_ok(probs)}
        problems = [f"{len(bad)} pairs with non-finite probabilities or sum != 1"] if bad else []
        labels = [label for _, label in unit.outputs]
        if st["first"] is None:
            st["first"] = labels
            # the ensemble mean must equal the mean of the members' own forwards
            for i in range(0, len(st["pairs"]), self.sample_every):
                member = [model.forward(m, st["pairs"][i], st["lib"])[0]
                          for m in st["ensemble"].members]
                if not np.allclose(unit.outputs[i][0], np.mean(member, axis=0),
                                   rtol=0.0, atol=1e-12):
                    bad.add(i)
                    problems.append(f"pair {i}: ensemble mean != mean of member forwards")
        changed = {i for i, (a, b) in enumerate(zip(labels, st["first"])) if a != b}
        if changed:
            problems.append(f"{len(changed)} labels differ from the first pass")
        unit.failed = len(bad | changed)
        return problems

    def digests(self, st: dict) -> dict:
        return {"labels": _digest(st["first"])}

    def named(self, e2e: dict, units: list[Unit]) -> dict:
        return {"eval_pairs_per_s": (e2e["throughput_per_s"], "pairs/s"),
                "eval_pair_ms_p50": (e2e["op_ms_p50"], "ms"),
                "eval_pair_ms_p90": (e2e["op_ms_p90"], "ms")}

    def properties(self, st: dict) -> dict:
        return {"eval": describe_pairs(st["pairs"], st["lib"].vocab)}


WORKLOADS = {w.name: w for w in (TrainBase(), EvalEnsembleBiway())}
