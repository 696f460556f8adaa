"""In-memory span tracer, installed from outside the program.

Each span wraps a public function of `maxcosine` at the place its caller looks
the name up, for example `maxcosine.training.forward` rather than
`maxcosine.model.forward`, because the modules import names directly. Nothing
under `src/` is edited. A wrapped name that no longer exists is reported as
absent instead of failing the run, and so is a counter that can no longer read
its call's arguments.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter


def _forward(tr, args, result):
    model, pair = args[0], args[1]
    cfg = model.config
    steps = len(pair.hypothesis_tokens) + (len(pair.premise_tokens) if cfg.biway else 0)
    width = cfg.k * (2 if cfg.biway else 1)
    # four gate matrix-vector products per LSTM step, then the softmax layer
    tr.counts["forward.flop"] += steps * 8 * cfg.k * (cfg.input_dim + cfg.k) + 6 * width
    tr.op_pairs.add((pair.premise_tokens, pair.hypothesis_tokens))


def _backward(tr, args, result):
    model, trace = args[0], args[1]
    cfg = model.config
    steps = sum(len(enc) for enc in (trace.enc_h, trace.enc_p) if enc is not None)
    width = cfg.k * (2 if cfg.biway else 1)
    # per step: four weight outer products accumulated, four transposed products
    tr.counts["backward.flop"] += steps * 16 * cfg.k * (cfg.input_dim + cfg.k) + 12 * width


def _match(tr, args, result):
    tr.op_matches.add((tuple(args[0]), tuple(args[1])))


def _lookup(tr, args, result):
    tr.counts["lookup." + result.source.value] += 1


def _file_size(tr, args, result):
    tr.counts["checkpoint.bytes"] = os.path.getsize(args[0])


def _add(key, amount):
    def count(tr, args, result):
        tr.counts[key] += amount(args, result)
    return count


# (span name, module, attribute where the caller looks it up, counter or None).
# The tracer counts calls per span name itself; counters record the work done.
SPANS = [
    ("training.train", "maxcosine.training", "train",
     _add("train.pairs", lambda a, r: len(a[0]) * len(r.history))),
    ("training.evaluate", "maxcosine.training", "evaluate",
     _add("evaluate.pairs", lambda a, r: len(a[0]))),
    ("training.adam", "maxcosine.training", "adam_step", None),
    ("model.forward", "maxcosine.training", "forward", _forward),
    ("model.forward", "maxcosine.ensemble", "forward", _forward),
    ("model.backward", "maxcosine.training", "backward", _backward),
    ("matching.build", "maxcosine.model", "build_augmented_sequence", _match),
    ("matching.vectors", "maxcosine.matching", "AugmentedSequence.vectors", None),
    ("embeddings.lookup", "maxcosine.matching", "lookup_with_oov", _lookup),
    ("ensemble.predict", "maxcosine.ensemble", "predict_ensemble", None),
    ("cli.load_libraries", "maxcosine.cli", "load_libraries", None),
    ("embeddings.load_binary", "maxcosine.cli", "load_binary_format",
     _add("load_binary.words", lambda a, r: len(r))),
    ("data.load_snli", "maxcosine.data", "load_snli",
     _add("snli.pairs", lambda a, r: len(r[0]))),
    ("checkpoint.save", "maxcosine.checkpoint", "save_checkpoint", _file_size),
]


class Tracer:
    """Spans are [name, start_ns, end_ns, parent index], kept until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.counter_errors: Counter = Counter()  # span name -> calls its counter could not read
        self.op_pairs: set = set()
        self.op_matches: set = set()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in SPANS for the duration of the block."""
        originals = []
        absent = []
        for name, module, attr, count in SPANS:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                absent.append(f"{module}.{attr}")
                continue
            originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, count))
        self.absent = absent
        try:
            yield self
        finally:
            for owner, leaf, original in reversed(originals):
                setattr(owner, leaf, original)

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if count is not None:
                try:
                    count(self, args, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.counter_errors[name] += 1
            return result

        return traced

    def end_op(self) -> None:
        """Close one operation: distinct pairs and matches are counted per operation."""
        self.counts["distinct.pairs"] += len(self.op_pairs)
        self.counts["distinct.matches"] += len(self.op_matches)
        self.op_pairs.clear()
        self.op_matches.clear()

    def times(self) -> tuple[Counter, Counter, Counter, int]:
        """Self ns, inclusive ns and calls per span name, and the ns covered by root spans."""
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter()
        root_ns = 0
        for name, start, end, parent in self.spans:
            dur = end - start
            self_ns[name] += dur
            incl_ns[name] += dur
            calls[name] += 1
            if parent < 0:
                root_ns += dur
            else:
                self_ns[self.spans[parent][0]] -= dur
        return self_ns, incl_ns, calls, root_ns


def _per(a, b):
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, traced_ns: int, untraced_ns: int, ops: int,
                  library_bytes: int) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced operations.

    A layer's time is its self time. `traced_ns` and `untraced_ns` are the wall
    times of the same operations run with and without spans.
    """
    s, incl, n, root_ns = tr.times()
    c = tr.counts
    ms = 1e-6
    fwd, lookups = n["model.forward"], n["embeddings.lookup"]
    return {
        "model.forward.ms_per_pair": _per(s["model.forward"] * ms, fwd),
        "model.forward.gflop_per_s": _per(c["forward.flop"], s["model.forward"]),
        "model.backward.ms_per_pair": _per(s["model.backward"] * ms, n["model.backward"]),
        "model.backward.gflop_per_s": _per(c["backward.flop"], s["model.backward"]),
        "training.adam.ms_per_step": _per(s["training.adam"] * ms, n["training.adam"]),
        "training.adam.steps": _per(n["training.adam"], n["training.train"]),
        "training.loop.self_ms_per_pair": _per(s["training.train"] * ms, c["train.pairs"]),
        "training.evaluate.ms_per_pair": _per(incl["training.evaluate"] * ms,
                                              c["evaluate.pairs"]),
        "matching.ms_per_pair": _per((s["matching.build"] + s["matching.vectors"]) * ms, fwd),
        "matching.calls_per_pair": _per(n["matching.build"], c["distinct.pairs"]),
        "matching.reuse_ratio": _per(c["distinct.matches"], n["matching.build"]),
        "embeddings.lookup.ms_per_pair": _per(s["embeddings.lookup"] * ms, fwd),
        "embeddings.lookups_per_pair": _per(lookups, fwd),
        "embeddings.oov_averaged_share": _per(c["lookup.oov_averaged"], lookups),
        "embeddings.zero_share": _per(c["lookup.zero"], lookups),
        "embeddings.binary_load_words_per_s": _per(c["load_binary.words"] * 1e9,
                                                   s["embeddings.load_binary"]),
        "embeddings.library_mb": library_bytes / 2**20,
        "data.load_pairs_per_s": _per(c["snli.pairs"] * 1e9, s["data.load_snli"]),
        "checkpoint.save_ms": _per(s["checkpoint.save"] * ms, n["checkpoint.save"]),
        "checkpoint.mb": c["checkpoint.bytes"] / 2**20,
        "ensemble.average.ms_per_pair": _per(s["ensemble.predict"] * ms,
                                             n["ensemble.predict"]),
        "cli.self_ms_per_op": _per(s["cli.load_libraries"] * ms, ops),
        "trace.covered_share": _per(root_ns, traced_ns),
        "trace.uncovered_ms_per_op": _per((traced_ns - root_ns) * ms, ops),
        "trace.overhead_share": _per(traced_ns - untraced_ns, untraced_ns),
        "trace.absent_spans": float(len(tr.absent)),
    }
