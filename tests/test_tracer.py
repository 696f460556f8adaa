"""The benchmark's span tracer, run around a tiny training job and an ensemble
prediction: every span it wraps must still be found and every counter must
still read its call. The tracer is loaded from perfbench/ and never changed."""

import types
from pathlib import Path

import pytest

from helpers import random_library, random_pairs
from maxcosine import ensemble, model, training
from maxcosine.numerics import make_rng

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the functions the tracer wraps that no longer exist under their old names
KNOWN_ABSENT = {
    "maxcosine.model.build_augmented_sequence",
    "maxcosine.matching.AugmentedSequence.vectors",
    "maxcosine.matching.lookup_with_oov",
    "maxcosine.training.forward",
    "maxcosine.ensemble.forward",
}


def load_tracer():
    """The tracer module, compiled from its source; no bytecode cache is written."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


@pytest.mark.skipif(not TRACER.exists(), reason="no perfbench/ beside tests/")
def test_tracer_finds_its_spans_around_training_and_ensembles():
    rng = make_rng(50)
    lib = random_library(rng, n_words=20, dim=4)
    pairs = random_pairs(rng, lib, 9)
    cfg = training.TrainConfig(k=3, batch_size=4, epochs=2, dropout_rate=0.2)
    members = [model.init_model(model.ModelConfig(embedding_dim=4, k=3, biway=True, seed=s),
                                make_rng(s)) for s in (1, 2)]
    tracer = load_tracer()
    tr = tracer.Tracer()
    with tr.installed():
        result = training.train(pairs[:6], pairs[6:], cfg, lib)
        ensemble.predict_ensemble(ensemble.Ensemble(members), pairs[0], lib)
    assert set(tr.absent) <= KNOWN_ABSENT
    assert not tr.counter_errors
    _, _, calls, _ = tr.times()
    epochs, batches = len(result.history), 2
    assert calls["training.train"] == 1
    assert calls["training.evaluate"] == epochs
    assert calls["model.backward"] == calls["training.adam"] == epochs * batches
    assert calls["ensemble.predict"] == 1
    assert tr.counts["train.pairs"] == 6 * epochs
    assert tr.counts["evaluate.pairs"] == 3 * epochs
    assert tr.counts["backward.flop"] > 0
