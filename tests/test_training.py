import ctypes
import glob
import os
import platform
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    antonym_task,
    augment_pair_reference,
    flat_params,
    random_library,
    random_pairs,
    record_pass_threads,
)
from maxcosine import matching, model as model_module, training
from maxcosine.model import (
    Model,
    ModelConfig,
    augment_pair,
    backward,
    dropout_mask,
    forward_batch,
    init_model,
)
from maxcosine.numerics import make_rng
from maxcosine.training import (
    LOG_FLOOR,
    AdamState,
    DivergenceError,
    TrainConfig,
    adam_step,
    cross_entropy,
    evaluate,
    pair_losses,
    train,
)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy([np.array([0.0, 1.0, 0.0])], [2]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction(self):
        probs = [np.full(3, 1 / 3)] * 4
        assert cross_entropy(probs, [1, 2, 3, 1]) == pytest.approx(np.log(3), abs=1e-9)

    def test_batch_mean(self):
        a = np.array([0.5, 0.25, 0.25])
        b = np.array([0.1, 0.8, 0.1])
        expected = (-np.log(0.5) - np.log(0.8)) / 2
        assert cross_entropy([a, b], [1, 2]) == pytest.approx(expected, abs=1e-12)

    def test_zero_probability_floored(self):
        loss = cross_entropy([np.array([0.0, 1.0, 0.0])], [1])
        assert np.isfinite(loss)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            cross_entropy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="batch size mismatch"):
            cross_entropy([np.full(3, 1 / 3)] * 2, [1])

    @given(st.lists(st.tuples(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1e-320, np.nan])),
                 min_size=3, max_size=3),
        st.integers(1, 3)), min_size=1, max_size=20))
    def test_pair_losses_equal_a_per_row_reference(self, rows):
        probs = np.array([p for p, _ in rows])
        gold = [label for _, label in rows]
        got = pair_losses(probs, gold)
        want = np.array([0.0 - np.log(max(p[label - 1], LOG_FLOOR)) for p, label in rows])
        assert got.tobytes() == want.tobytes()  # a certain label costs +0.0, not -0.0


def scalar_params(value):
    return flat_params({"theta": np.array([value])})


class TestAdam:
    def cfg(self):
        return TrainConfig()

    def test_zero_gradient_no_change(self):
        params = flat_params({"w": np.array([0.3, -0.2]), "b": np.array([1.0])})
        state = AdamState.for_params(params)
        before = {k: v.copy() for k, v in params.items()}
        adam_step(params, flat_params({"w": np.zeros(2), "b": np.zeros(1)}), state, self.cfg())
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_hand_computed_first_step(self):
        params = scalar_params(0.5)
        state = AdamState.for_params(params)
        adam_step(params, scalar_params(1.0), state, self.cfg())
        expected = 0.5 - 0.001 * (1.0 / (1.0 + 1e-8))
        assert params["theta"][0] == pytest.approx(expected, abs=1e-12)
        assert params["theta"][0] == pytest.approx(0.499, abs=1e-9)

    def test_first_step_bounded_by_learning_rate(self):
        rng = make_rng(0)
        for scale in (1e-6, 1.0, 1e6):
            params = flat_params({"w": rng.standard_normal(20)})
            before = params["w"].copy()
            state = AdamState.for_params(params)
            adam_step(params, flat_params({"w": rng.standard_normal(20) * scale}), state,
                      self.cfg())
            assert np.all(np.abs(params["w"] - before) <= 0.001 * (1 + 1e-6))

    def test_step_counter_increments(self):
        params = scalar_params(0.0)
        state = AdamState.for_params(params)
        for expected_t in (1, 2, 3):
            adam_step(params, scalar_params(0.5), state, self.cfg())
            assert state.t == expected_t

    def test_nonfinite_gradient_aborts(self):
        params = scalar_params(0.0)
        state = AdamState.for_params(params)
        with pytest.raises(DivergenceError):
            adam_step(params, scalar_params(np.nan), state, self.cfg())

    def test_bitwise_equal_to_textbook_formula(self):
        rng = make_rng(3)
        cfg = TrainConfig(learning_rate=0.01)
        params = flat_params({name: rng.standard_normal(shape) for name, shape in
                              (("W_a", (4, 5)), ("W_b", (4, 5)), ("b", (5,)))})
        state = AdamState.for_params(params)
        theta = {name: a.copy() for name, a in params.items()}
        m = {name: np.zeros_like(a) for name, a in params.items()}
        v = {name: np.zeros_like(a) for name, a in params.items()}
        for t in (1, 2, 3):
            grads = {name: rng.standard_normal(a.shape) for name, a in params.items()}
            adam_step(params, flat_params(grads), state, cfg)
            for name, g in grads.items():
                m[name] = 0.9 * m[name] + (1 - 0.9) * g
                v[name] = 0.999 * v[name] + (1 - 0.999) * g * g
                m_hat = m[name] / (1 - 0.9**t)
                v_hat = v[name] / (1 - 0.999**t)
                theta[name] = theta[name] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
                assert np.array_equal(params[name], theta[name])
            assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
            assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))


    @pytest.mark.parametrize("name,at", [("lstm_h.W_i", 0), ("lstm_p.b_o", 0),
                                         ("softmax.W_s", -1), ("softmax.b_s", -1)])
    def test_nonfinite_gradient_names_first_parameter_and_updates_nothing(self, name, at):
        model = init_model(ModelConfig(embedding_dim=2, k=3, biway=True), make_rng(0))
        params, grads = model.parameters(), Model(model.config).parameters()
        grads[name].ravel()[at] = np.nan
        grads["softmax.b_s"][-1] = np.inf  # last in checkpoint order
        state = AdamState.for_params(params)
        before = model.theta.copy()
        with pytest.raises(DivergenceError, match=rf"non-finite gradient in {re.escape(name)}$"):
            adam_step(params, grads, state, self.cfg())
        assert model.theta.tobytes() == before.tobytes() and state.t == 0
        assert not state.m.any() and not state.v.any()

    def test_chunks_update_as_one_pass(self, monkeypatch):
        rng = make_rng(4)
        shapes = {"W": (9, 7), "b": (9,), "c": (2,)}  # 74 values: chunks of 7 end short
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        grads = [flat_params({name: rng.standard_normal(shape) for name, shape in shapes.items()})
                 for _ in range(3)]
        runs = []
        for chunk in (training.ADAM_CHUNK, 7):
            monkeypatch.setattr(training, "ADAM_CHUNK", chunk)
            params = flat_params(start)
            state = AdamState.for_params(params)
            for g in grads:
                adam_step(params, g, state, TrainConfig(learning_rate=0.01))
            runs.append(b"".join(a.tobytes() for a in (params.flat, state.m, state.v)))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("field,value", [
    ("epochs", 0), ("learning_rate", -1.0), ("learning_rate", 0.0), ("learning_rate", float("inf")),
    ("k", 0), ("dropout_rate", 1.5), ("dropout_rate", -0.1), ("oov_window", -1), ("batch_size", 0),
    ("batch_size", 2.5), ("epochs", 2.0),
])
def test_train_config_rejects_nonsense(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_model_config_takes_every_shared_field():
    cfg = TrainConfig(k=7, dropout_rate=0.2, biway=True, bi_embedding=True, seed=9, oov_window=0)
    assert cfg.model_config(6) == ModelConfig(
        embedding_dim=6, k=7, dropout_rate=0.2, biway=True, bi_embedding=True, seed=9,
        oov_window=0,
    )


def memorization_setup(n_pairs=12, seed=5, dim=16):
    rng = make_rng(seed)
    lib = random_library(rng, n_words=30, dim=dim)
    pairs = random_pairs(rng, lib, n_pairs)
    return lib, pairs


class TestTrain:
    def small_config(self, **kw):
        defaults = dict(k=16, batch_size=4, epochs=2, seed=9, dropout_rate=0.0)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_deterministic_across_runs(self):
        lib, pairs = memorization_setup()
        cfg = self.small_config()
        a = train(pairs, pairs[:4], cfg, lib)
        b = train(pairs, pairs[:4], cfg, lib)
        for name, arr in a.best_model.parameters().items():
            assert np.array_equal(arr, b.best_model.parameters()[name])

    def test_embeddings_untouched(self):
        lib, pairs = memorization_setup()
        before = lib.matrix.copy()
        train(pairs, pairs[:4], self.small_config(), lib)
        assert np.array_equal(lib.matrix, before)

    def test_memorizes_small_dataset(self):
        lib, pairs = memorization_setup(n_pairs=10)
        cfg = self.small_config(k=24, epochs=150)
        result = train(pairs, pairs, cfg, lib)
        assert result.best_val_accuracy == 1.0
        losses = [h.train_loss for h in result.history[:5]]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_learns_a_held_out_task(self):
        # memorising is not learning: the test pairs are drawn apart from training's
        lib, (train_pairs, val_pairs, test_pairs) = antonym_task(make_rng(1))
        cfg = TrainConfig(k=24, batch_size=32, learning_rate=0.01, epochs=25, seed=1)
        result = train(train_pairs, val_pairs, cfg, lib)
        assert evaluate(test_pairs, result.best_model, lib).accuracy >= 0.9

    def test_metrics_file_format(self, tmp_path):
        lib, pairs = memorization_setup()
        path = tmp_path / "metrics.tsv"
        train(pairs, pairs[:4], self.small_config(), lib, metrics_path=path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        for i, line in enumerate(lines, start=1):
            epoch, loss, acc = line.split("\t")
            assert int(epoch) == i
            assert np.isfinite(float(loss))
            assert 0.0 <= float(acc) <= 1.0

    def test_verbose_log_has_epoch_timing(self, tmp_path, caplog):
        lib, pairs = memorization_setup()
        path = tmp_path / "metrics.tsv"
        with caplog.at_level("INFO", logger="maxcosine.training"):
            train(pairs, pairs[:4], self.small_config(), lib, metrics_path=path)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        for epoch, line in enumerate(lines, start=1):
            assert line.startswith(f"seed 9 epoch {epoch}: "), line
            assert re.search(r"train_pairs_per_s=\d+\.\d val_s=\d+\.\d{3}$", line), line
        assert all(len(row.split("\t")) == 3 for row in path.read_text().splitlines())

    def test_empty_dataset_rejected(self):
        lib, pairs = memorization_setup()
        with pytest.raises(ValueError):
            train([], pairs, self.small_config(), lib)

    def test_nonfinite_loss_names_pairs(self, monkeypatch):
        lib, pairs = memorization_setup()

        def poisoned(config, rng):
            model = init_model(config, rng)
            model.softmax.W_s[0, 0] = np.nan
            return model

        monkeypatch.setattr(training, "init_model", poisoned)
        with pytest.raises(DivergenceError, match="epoch 1, batch 0") as err:
            train(pairs, pairs[:4], self.small_config(batch_size=len(pairs)), lib)
        named = re.search(r"pairs \[([\d, ]+)\]", str(err.value)).group(1)
        assert sorted(int(i) for i in named.split(",")) == sorted(p.id for p in pairs)

    def test_diverging_run_raises_without_numpy_warnings(self):
        rng = make_rng(2)
        lib = random_library(rng, 20, 6)
        pairs = random_pairs(rng, lib, 12)
        cfg = TrainConfig(k=300, learning_rate=1e300, batch_size=1, epochs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would end the run first
            with pytest.raises(DivergenceError, match="non-finite"):
                train(pairs[:8], pairs[8:], cfg, lib)

    @pytest.mark.parametrize("biway", [False, True])
    def test_batch_reads_dropout_stream_in_pair_order(self, monkeypatch, biway):
        lib, pairs = memorization_setup(n_pairs=6)
        cfg = self.small_config(k=5, batch_size=6, epochs=1, dropout_rate=0.3, biway=biway)
        used, calls = [], []
        monkeypatch.setattr(training, "make_rng", lambda seed: used.append(make_rng(seed)) or used[-1])
        real = training.forward_batch
        monkeypatch.setattr(training, "forward_batch",
                            lambda *a, **kw: calls.append(real(*a, **kw)) or calls[-1])
        train(pairs, pairs[:2], cfg, lib)
        # the reference draws each pair's masks as a batch of one would, in the
        # order hypothesis input, hypothesis output, premise input, premise output
        ref = make_rng(cfg.seed)
        model = init_model(cfg.model_config(lib.dim), ref)
        trace = calls[0][1]  # the training batch; validation follows it
        encoders = [trace.enc_h, trace.enc_p][: 2 if biway else 1]
        for b, i in enumerate(ref.permutation(len(pairs))):
            for Z, enc in zip(augment_pair(pairs[i], lib, model.config), encoders):
                dropout_mask(ref, Z.shape, 0.3)
                assert np.array_equal(enc.out_mask[b], dropout_mask(ref, 5, 0.3))
        assert used[0].bit_generator.state == ref.bit_generator.state

    def test_best_checkpoint_selection_prefers_earlier_on_tie(self):
        lib, pairs = memorization_setup()
        result = train(pairs, pairs[:4], self.small_config(epochs=3), lib)
        accs = [h.val_accuracy for h in result.history]
        best = max(accs)
        assert result.best_epoch == accs.index(best) + 1


class TestEvaluate:
    def test_constant_predictor(self):
        lib, pairs = memorization_setup(n_pairs=20)
        cfg = TrainConfig(k=8)
        model = init_model(cfg.model_config(lib.dim), make_rng(0))
        model.softmax.W_s[...] = 0.0
        model.softmax.b_s[...] = 0.0
        result = evaluate(pairs, model, lib)
        entailment_fraction = sum(p.label == 1 for p in pairs) / len(pairs)
        assert result.accuracy == pytest.approx(entailment_fraction)
        assert result.confusion[:, 1:].sum() == 0  # everything predicted Entailment

    def test_confusion_rows_sum_to_class_counts(self):
        lib, pairs = memorization_setup(n_pairs=25)
        model = init_model(TrainConfig(k=8).model_config(lib.dim), make_rng(1))
        result = evaluate(pairs, model, lib)
        for label in (1, 2, 3):
            assert result.confusion[label - 1].sum() == sum(p.label == label for p in pairs)
        assert 0.0 <= result.accuracy <= 1.0

    def test_order_invariant(self):
        lib, pairs = memorization_setup(n_pairs=15)
        model = init_model(TrainConfig(k=8).model_config(lib.dim), make_rng(2))
        a = evaluate(pairs, model, lib)
        b = evaluate(list(reversed(pairs)), model, lib)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.confusion, b.confusion)

    def test_dimension_mismatch(self):
        lib, pairs = memorization_setup()
        model = init_model(TrainConfig(k=8).model_config(lib.dim + 1), make_rng(0))
        with pytest.raises(ValueError, match="dimension"):
            evaluate(pairs, model, lib)


def test_training_starts_no_thread(one_helper):
    # a base model's training steps and validation run its one LSTM on the calling thread
    rng = make_rng(8)
    lib = random_library(rng, dim=6)
    pairs = random_pairs(rng, lib, 6)
    before = threading.active_count()
    cfg = TrainConfig(k=4, batch_size=3, epochs=2, dropout_rate=0.2)
    train(pairs, pairs[:2], cfg, lib)
    assert threading.active_count() == before


def test_biway_training_equals_serial(monkeypatch, one_helper):
    # biway validation hands one of its two passes to a helper thread; training
    # is bitwise what it is when every pass runs on the calling thread
    rng = make_rng(8)
    lib = random_library(rng, dim=6)
    pairs = random_pairs(rng, lib, 12)
    cfg = TrainConfig(k=4, batch_size=3, epochs=3, dropout_rate=0.2, biway=True)
    before = threading.active_count()
    runs = {}
    seen = record_pass_threads(monkeypatch)
    for workers in (0, 1):
        monkeypatch.setattr(model_module, "_WORKERS", workers)
        runs[workers] = train(pairs, pairs[3:], cfg, lib)
    assert any(t is not threading.current_thread() for t in seen)  # a helper ran
    assert threading.active_count() == before
    serial, parallel = runs[0], runs[1]
    assert serial.best_model.theta.tobytes() == parallel.best_model.theta.tobytes()
    assert [h.val_accuracy for h in serial.history] == [h.val_accuracy for h in parallel.history]
    assert [h.train_loss for h in serial.history] == [h.train_loss for h in parallel.history]


@pytest.mark.parametrize("batches", [1, 2])
def test_epoch_is_the_hand_assembled_adam_steps(batches):
    # one epoch: a permutation, then per batch the train-mode forward on the same
    # stream, the backward (the batch's mean gradient) and one Adam step, whose
    # m, v and t carry over to the next batch
    rng = make_rng(9)
    lib = random_library(rng, dim=6)
    pairs = random_pairs(rng, lib, 6)
    cfg = TrainConfig(k=4, batch_size=6 // batches, epochs=1, dropout_rate=0.2, biway=True,
                      seed=5)
    rng = make_rng(cfg.seed)
    model = init_model(cfg.model_config(lib.dim), rng)
    index = matching.index_pairs(pairs, lib, model.config)
    params = model.parameters()
    state = AdamState.for_params(params)
    order = rng.permutation(len(pairs))
    for start in range(0, len(pairs), cfg.batch_size):
        which = order[start : start + cfg.batch_size]
        _, trace = forward_batch(model, index.sequences(which), rng)
        grads = backward(model, trace, [pairs[i].label for i in which])
        adam_step(params, grads, state, cfg)
    assert state.t == batches
    assert train(pairs, pairs[:2], cfg, lib).best_model.theta.tobytes() == model.theta.tobytes()


class PerBatchMatching:
    """Stands in for a dataset index: it matches every pair again each time a
    batch asks for it, as training did before datasets were indexed."""

    def __init__(self, pairs, lib, config):
        self.pairs, self.lib, self.config = pairs, lib, config

    def sequences(self, which):
        cfg = self.config
        return [augment_pair_reference(self.pairs[i], self.lib, cfg.oov_window, cfg.biway)
                for i in which]


@pytest.mark.parametrize("biway", [False, True])
def test_indexed_training_equals_matching_every_batch(monkeypatch, biway):
    rng = make_rng(12)
    lib = random_library(rng, n_words=20, dim=6)
    pairs = random_pairs(rng, lib, 10)
    pairs += [type(p)(p.premise_tokens + ("oov",), ("oov",) + p.hypothesis_tokens, p.label, 10 + i)
              for i, p in enumerate(pairs[:4])]
    cfg = TrainConfig(k=5, batch_size=4, epochs=3, dropout_rate=0.25, biway=biway, seed=3)
    indexed = train(pairs, pairs[:6], cfg, lib)
    monkeypatch.setattr(training, "index_pairs", PerBatchMatching)
    rematched = train(pairs, pairs[:6], cfg, lib)
    assert [h.train_loss for h in indexed.history] == [h.train_loss for h in rematched.history]
    assert [h.val_accuracy for h in indexed.history] == [h.val_accuracy for h in rematched.history]
    for name, value in indexed.best_model.parameters().items():
        assert value.tobytes() == rematched.best_model.parameters()[name].tobytes()


@pytest.mark.parametrize("biway", [False, True])
def test_run_matches_each_pair_once_whatever_the_epochs(monkeypatch, biway):
    calls = []
    real = matching.match_indices
    monkeypatch.setattr(matching, "match_indices", lambda *a: calls.append(1) or real(*a))
    lib, pairs = memorization_setup(n_pairs=9)
    train_pairs, val_pairs = pairs[:6], pairs[6:]
    directions = 2 if biway else 1
    for epochs in (1, 3):
        calls.clear()
        cfg = TrainConfig(k=4, batch_size=4, epochs=epochs, biway=biway)
        assert len(train(train_pairs, val_pairs, cfg, lib).history) == epochs
        assert len(calls) == directions * (len(train_pairs) + len(val_pairs))


# Two train() calls whose batch arrays are several MiB: the packed input rows of
# one 128-pair batch of 10-token hypotheses are 1280 x 900 float64, 9.2 MB.
SECOND_TRAIN_FAULTS = """
import resource
from helpers import random_library, random_pairs
from maxcosine.numerics import make_rng
from maxcosine.training import TrainConfig, train

rng = make_rng(0)
lib = random_library(rng, n_words=200, dim=300)
pairs = random_pairs(rng, lib, 128, min_len=10, max_len=10)
config = TrainConfig(k=300, batch_size=128, epochs=1)
train(pairs, pairs[:32], config, lib)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(pairs, pairs[:32], config, lib)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc settings are made on glibc only")
def test_second_train_call_reuses_the_heap():
    """A fresh process, so the allocator starts from its import-time state. The
    first call faults in the heap; the second reuses it instead of mapping each
    batch's arrays again (~10,300 faults a call when glibc maps and unmaps them)."""
    assert int(run_fresh(SECOND_TRAIN_FAULTS).stdout) < 1000


def run_fresh(script: str, blas_threads: Optional[str] = "1") -> subprocess.CompletedProcess:
    """`script` run in a new interpreter that imports this checkout and the test
    helpers, with `OPENBLAS_NUM_THREADS` set to `blas_threads`, or unset for None."""
    tests = Path(__file__).resolve().parent
    src = Path(model_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)]),
           "OPENBLAS_NUM_THREADS": blas_threads}
    if blas_threads is None:
        del env["OPENBLAS_NUM_THREADS"]
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=300)


# The best theta of a small biway run with dropout, as hex of its bytes.
BEST_THETA_OF_A_RUN = """
from helpers import random_library, random_pairs
from maxcosine.numerics import make_rng
from maxcosine.training import TrainConfig, train

rng = make_rng(600)
lib = random_library(rng, n_words=20, dim=8)
pairs = random_pairs(rng, lib, 12)
config = TrainConfig(k=8, batch_size=4, epochs=2, dropout_rate=0.3, biway=True, seed=600)
print(train(pairs, pairs[:4], config, lib).best_model.theta.tobytes().hex())
"""


def test_runs_in_separate_processes_give_identical_checkpoints(monkeypatch):
    """Two interpreters whose string hashing differs train to the same bytes, as
    the README promises of identical runs, not only two runs in one process."""
    runs = []
    for hash_seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        runs.append(run_fresh(BEST_THETA_OF_A_RUN).stdout)
    assert runs[0] == runs[1] and len(runs[0]) > 1


# The best theta of a base run whose products are wide enough for OpenBLAS to
# split them over threads, as a digest of its bytes.
THETA_OF_WIDE_PRODUCTS = """
import hashlib
from helpers import random_library, random_pairs
from maxcosine.numerics import make_rng
from maxcosine.training import TrainConfig, train

rng = make_rng(9)
lib = random_library(rng, n_words=200, dim=50)
pairs = random_pairs(rng, lib, 64)
config = TrainConfig(k=100, batch_size=64, epochs=1, seed=9)
print(hashlib.sha256(train(pairs, pairs[:4], config, lib).best_model.theta.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                               "numpy.libs", "*openblas*")),
                    reason="numpy without its bundled OpenBLAS")
def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_variable():
    """Importing the package sets numpy's OpenBLAS to one thread, so a run gives
    the same bytes with `OPENBLAS_NUM_THREADS` unset, 1 or 2 (unset and 2 split
    these products over two threads, and round them apart, without it)."""
    runs = {threads: run_fresh(THETA_OF_WIDE_PRODUCTS, threads).stdout
            for threads in (None, "1", "2")}
    assert len(set(runs.values())) == 1, runs


def test_blas_setting_is_a_no_op_without_a_bundled_openblas(monkeypatch):
    def no_library(*args):
        raise AssertionError("opened a library with no bundled OpenBLAS")

    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert model_module._one_blas_thread() is None


# Biway ensemble passes on the caller and one helper thread, then glibc's
# per-arena report, which it prints to stderr.
ARENAS_AFTER_HELPER_PASSES = """
import ctypes
from helpers import random_library, random_pairs
from maxcosine import model as model_module
from maxcosine.ensemble import Ensemble, predict_ensemble
from maxcosine.model import ModelConfig, init_model
from maxcosine.numerics import make_rng

model_module._WORKERS = 1
rng = make_rng(0)
lib = random_library(rng, n_words=40, dim=8)
config = ModelConfig(embedding_dim=8, k=8, biway=True)
ensemble = Ensemble([init_model(config, make_rng(seed)) for seed in (1, 2)])
for pair in random_pairs(rng, lib, 3):
    predict_ensemble(ensemble, pair, lib)
ctypes.CDLL(None).malloc_stats()
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc settings are made on glibc only")
def test_pass_helper_allocates_from_the_one_arena():
    """A helper thread's arrays come from the caller's heap, not from a second
    arena with its own high-water mark."""
    stats = run_fresh(ARENAS_AFTER_HELPER_PASSES).stderr
    assert len(re.findall(r"^Arena \d+:", stats, flags=re.M)) == 1


@pytest.mark.parametrize("confstr", [None, ValueError, AttributeError])
def test_malloc_settings_are_a_no_op_off_glibc(monkeypatch, confstr):
    """Without glibc's version string, no C library is opened and nothing is raised."""
    def no_glibc(name):
        if confstr is None:
            return None
        raise confstr(name)

    def no_library(*args):
        raise AssertionError("opened a C library off glibc")

    monkeypatch.setattr(os, "confstr", no_glibc)
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert model_module._keep_freed_memory() is None
