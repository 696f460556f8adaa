import hashlib
import dataclasses
import json
import math
import re
import signal
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import assert_views_tile_theta, copy_model, random_library, random_pairs
from maxcosine import model as model_module
from maxcosine.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from maxcosine.data import SentencePair
from maxcosine.embeddings import EmbeddingLibrary
from maxcosine.gradcheck import model_gradient_check
from maxcosine.model import (
    Model,
    ModelConfig,
    SoftmaxParams,
    augment_pair,
    backward,
    decide,
    dropout_mask,
    forward,
    forward_batch,
    init_model,
    lstm_forward,
    parameter_count,
)
from maxcosine.numerics import make_rng


def small_model(d=8, k=12, biway=False, dropout=0.0, seed=0):
    cfg = ModelConfig(embedding_dim=d, k=k, biway=biway, dropout_rate=dropout, seed=seed)
    return init_model(cfg, make_rng(seed))


@pytest.mark.parametrize("field,value", [
    ("k", 0), ("embedding_dim", 0), ("dropout_rate", 1.0), ("oov_window", -1),
    ("seed", -1), ("oov_window", 1.5), ("k", 2.0),
])
def test_model_config_rejects_nonsense(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        ModelConfig(**{"embedding_dim": 4, field: value})


class TestInit:
    def test_shapes_base(self):
        model = small_model(d=300, k=300)
        assert len(model.lstms) == 1
        assert model.lstms[0].W.shape == (1200, 900)
        assert model.lstms[0].b.shape == (1200,)
        assert model.softmax.W_s.shape == (3, 300)

    def test_shapes_biway(self):
        model = small_model(d=300, k=300, biway=True)
        assert model.softmax.W_s.shape == (3, 600)
        assert len(model.lstms) == 2 and model.lstms[1].W.shape == (1200, 900)

    def test_biases_zero_weights_bounded(self):
        model = small_model(d=6, k=5)
        assert np.all(model.lstms[0].b == 0) and np.all(model.softmax.b_s == 0)
        limit = math.sqrt(6.0 / (5 + 17))  # per gate: (k, input_dim + k)
        assert np.all(np.abs(model.lstms[0].W) <= limit)

    def test_parameters_are_gate_row_views(self):
        model = small_model(d=2, k=3)
        params = model.parameters()
        params["lstm_h.W_o"][...] = 7.0
        params["lstm_h.b_f"][...] = 5.0
        assert np.all(model.lstms[0].W[6:9] == 7.0) and np.sum(model.lstms[0].W == 7.0) == 3 * 7
        assert np.all(model.lstms[0].b[3:6] == 5.0) and np.sum(model.lstms[0].b == 5.0) == 3

    def test_same_seed_bitwise_identical(self):
        a, b = small_model(seed=42), small_model(seed=42)
        for name, arr in a.parameters().items():
            assert np.array_equal(arr, b.parameters()[name])


def reference_lstm_step(params, z, h_prev, c_prev):
    """Independent scalar-loop recomputation of one LSTM step."""
    k = len(h_prev)
    H = list(z) + list(h_prev)
    def pre(gate, j):
        row = gate * k + j  # gate row blocks i, f, o, c
        return sum(a * b for a, b in zip(params.W[row], H)) + params.b[row]
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h, c = [0.0] * k, [0.0] * k
    for j in range(k):
        i, f, o, g = sig(pre(0, j)), sig(pre(1, j)), sig(pre(2, j)), math.tanh(pre(3, j))
        c[j] = f * c_prev[j] + i * g
        h[j] = o * math.tanh(c[j])
    return np.array(h), np.array(c)


def packed_rows(trace, b):
    """Rows of the batch's sequence `b` in a packed LstmTrace, in time order."""
    rank = int(np.flatnonzero(trace.order == b)[0])
    return trace.steps[:-1][np.diff(trace.steps) > rank] + rank


class TestEncodeSequence:
    @pytest.mark.parametrize("train", [False, True])
    def test_matches_scalar_oracle(self, train):
        rng = make_rng(8)
        model = small_model(d=2, k=3, dropout=0.4, seed=8)
        # one sequence, then a batch of mixed lengths with a tie and a length 1
        for lengths in ([6], [3, 1, 6, 6, 2]):
            seqs = [(rng.standard_normal((m, 4)),) for m in lengths]
            _, trace = forward_batch(model, seqs, make_rng(9) if train else None)
            enc = trace.enc_h
            # the oracle draws the masks pair by pair as one step at a time would:
            # each input, then h_m
            masks = make_rng(9)
            for b, (Z,) in enumerate(seqs):
                rows = packed_rows(enc, b)
                h, c = np.zeros(3), np.zeros(3)
                for t in range(len(Z)):
                    z = Z[t] * dropout_mask(masks, 4, 0.4) if train else Z[t]
                    h, c = reference_lstm_step(model.lstms[0], z, h, c)
                    assert np.max(np.abs(enc.h[rows[t]] - h)) < 1e-12
                    assert np.max(np.abs(enc.c[rows[t]] - c)) < 1e-12
                expected = h * dropout_mask(masks, 3, 0.4) if train else h
                assert np.max(np.abs(enc.h_final[b] - expected)) < 1e-12

    def test_zero_params_zero_state(self):
        model = small_model(d=3, k=4)
        model.lstms[0].W[...] = 0.0
        trace = lstm_forward(model.lstms[0], [np.ones((3, 6)), np.ones((1, 6))])
        assert np.all(trace.h_final == 0) and np.all(trace.c == 0)

    def test_gate_and_output_ranges(self):
        rng = make_rng(3)
        model = small_model(d=4, k=6)
        Zs = [rng.standard_normal((20, 8)), rng.standard_normal((5, 8))]
        trace = lstm_forward(model.lstms[0], Zs)
        sigmoid_gates = trace.gates[:, : 3 * 6]
        assert np.all(sigmoid_gates > 0) and np.all(sigmoid_gates < 1)
        assert np.all(trace.h > -1) and np.all(trace.h < 1)

    def test_dimension_mismatch(self):
        model = small_model(d=3, k=4)
        with pytest.raises(ValueError):
            lstm_forward(model.lstms[0], [np.ones((2, 6)), np.ones((2, 5))])

    def test_dropout_zero_train_equals_eval(self):
        rng = make_rng(0)
        model = small_model(d=3, k=4)
        seqs = [(rng.standard_normal((m, 6)),) for m in (5, 2)]
        p_train, t_train = forward_batch(model, seqs, make_rng(1))
        p_eval, t_eval = forward_batch(model, seqs)
        assert np.array_equal(t_train.enc_h.h_final, t_eval.enc_h.h_final)
        assert np.array_equal(p_train, p_eval)

    def test_eval_ignores_dropout_rate(self):
        rng = make_rng(0)
        seqs = [(rng.standard_normal((m, 6)),) for m in (4, 1)]
        a, _ = forward_batch(small_model(d=3, k=4, dropout=0.5), seqs)
        b, _ = forward_batch(small_model(d=3, k=4, dropout=0.0), seqs)
        assert np.array_equal(a, b)

    def test_empty_sequence(self):
        model = small_model(d=3, k=4)
        for Zs in ([np.zeros((0, 6))], [np.ones((2, 6)), np.zeros((0, 6))], []):
            with pytest.raises(ValueError):
                lstm_forward(model.lstms[0], Zs)

    def test_inverted_dropout_expectation(self):
        # per-coordinate mean of the mask over many draws stays near 1
        rng = make_rng(77)
        masks = np.stack([dropout_mask(rng, 8, 0.5) for _ in range(10**5)])
        mean = masks.mean(axis=0)
        assert np.max(np.abs(mean - 1.0)) < 0.01

    def test_trace_lengths(self):
        rng = make_rng(0)
        model = small_model(d=3, k=4)
        Z = rng.standard_normal((7, 6))
        trace = lstm_forward(model.lstms[0], [Z])
        assert len(trace) == 7
        assert trace.h.shape == (7, 4)
        # time-major, longest first: timesteps 0-2 hold both sequences, then only the longer
        trace = lstm_forward(model.lstms[0], [Z[:3], Z])
        assert len(trace) == 10 and trace.order.tolist() == [1, 0]
        assert trace.steps.tolist() == [0, 2, 4, 6, 7, 8, 9, 10]


@pytest.mark.parametrize("biway", [False, True])
@pytest.mark.parametrize("lengths", [[1, 1, 1], [4, 4, 4], [7, 3, 1, 5], [2, 1, 4, 7]],
                         ids=["ones", "equal", "longest_first", "longest_last"])
def test_batch_gradient_is_mean_of_single_pair_gradients(lengths, biway):
    rng = make_rng(30)
    model = small_model(d=3, k=5, biway=biway, dropout=0.3, seed=30)
    seqs = [
        (rng.standard_normal((m_h, 6)), rng.standard_normal((m_p, 6)))[: 1 + biway]
        for m_h, m_p in zip(lengths, lengths[::-1])
    ]
    labels = [int(x) for x in rng.integers(1, 4, len(seqs))]
    _, trace = forward_batch(model, seqs, make_rng(1))
    batch = backward(model, trace, labels)
    # one pair at a time from the same stream draws the same masks
    singles = make_rng(1)
    total = {name: 0.0 for name in batch}
    for seq, label in zip(seqs, labels):
        _, one = forward_batch(model, [seq], singles)
        for name, g in backward(model, one, [label]).items():
            total[name] = total[name] + g
    assert all(np.any(total[f"{lstm}.W_i"]) for lstm in ("lstm_h", "lstm_p")[: 1 + biway])
    for name, g in batch.items():
        ref = total[name] / len(seqs)
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), name


class TestDecide:
    def test_zero_params_tie_breaks_to_entailment(self):
        sp = SoftmaxParams(W_s=np.zeros((3, 4)), b_s=np.zeros(3))
        probs, label = decide(sp, np.ones(4))
        assert np.allclose(probs, 1 / 3)
        assert label == 1

    def test_bias_dominates(self):
        sp = SoftmaxParams(W_s=np.zeros((3, 4)), b_s=np.array([0.0, 0.0, 10.0]))
        probs, label = decide(sp, np.zeros(4))
        assert label == 3
        assert probs[2] == pytest.approx(0.999909, abs=1e-5)
        assert probs[0] == pytest.approx(4.54e-5, rel=1e-2)

    def test_probabilities_sum_to_one(self):
        rng = make_rng(4)
        sp = SoftmaxParams(W_s=rng.standard_normal((3, 5)), b_s=rng.standard_normal(3))
        for _ in range(50):
            probs, _ = decide(sp, rng.standard_normal(5))
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        sp = SoftmaxParams(W_s=np.zeros((3, 4)), b_s=np.zeros(3))
        with pytest.raises(ValueError):
            decide(sp, np.zeros(5))


class TestForward:
    def test_eval_mode_deterministic(self):
        rng = make_rng(5)
        lib = random_library(rng, dim=6)
        pair = random_pairs(rng, lib, 1)[0]
        model = small_model(d=6, k=5, dropout=0.4)
        a, _ = forward(model, pair, lib)
        b, _ = forward(model, pair, lib)
        assert np.array_equal(a, b)
        assert a.shape == (3,)

    def test_each_pair_needs_one_sequence_per_encoder(self):
        Z = np.ones((2, 6))
        for biway, seq in ((True, (Z,)), (False, (Z, Z))):
            with pytest.raises(ValueError, match="sequences a pair"):
                forward_batch(small_model(d=3, k=4, biway=biway), [seq])

    def test_biway_zeroed_premise_columns_reduce_to_hypothesis_decision(self):
        rng = make_rng(6)
        lib = random_library(rng, dim=6)
        pair = random_pairs(rng, lib, 1)[0]
        model = small_model(d=6, k=5, biway=True)
        model.softmax.W_s[:, :5] = 0.0  # premise-side columns
        probs_biway, trace = forward(model, pair, lib)
        base = Model(ModelConfig(embedding_dim=6, k=5))
        base.lstms[0].W[...], base.lstms[0].b[...] = model.lstms[0].W, model.lstms[0].b
        base.softmax.W_s[...], base.softmax.b_s[...] = model.softmax.W_s[:, 5:], model.softmax.b_s
        probs_base, _ = forward(base, pair, lib)
        assert np.allclose(probs_biway, probs_base, atol=1e-12)

    def test_failed_vs_succeeded_premises(self):
        # hypothesis-side augmented sequences can coincide for two premises that
        # differ only in an antonym pair, while premise-side sequences differ
        d = 4
        vecs = {
            "john": [1.0, 0.0, 0.0, 0.0],
            "passed": [0.0, 1.0, 0.0, 0.0],
            "pass": [0.0, 1.0, 0.0, 0.0],
            "passing": [0.0, 1.0, 0.0, 0.0],
            "the": [0.0, 0.0, 1.0, 0.0],
            "exam": [0.0, 0.0, 0.9, 0.5],
            "failed": [0.1, 0.6, 0.0, 0.8],
            "succeeded": [0.1, 0.6, 0.0, -0.8],
            "to": [0.0, 0.0, 0.1, 1.0],
            "in": [0.0, 0.0, 0.1, 1.0],
        }
        lib = EmbeddingLibrary(
            {w: i for i, w in enumerate(vecs)}, np.array(list(vecs.values()))
        )
        hyp = ("john", "passed", "the", "exam")
        prem1 = ("john", "failed", "to", "pass", "the", "exam")
        prem2 = ("john", "succeeded", "in", "passing", "the", "exam")
        config = ModelConfig(embedding_dim=d, k=1, biway=True)
        hyp_given_1, prem1_given_hyp = augment_pair(SentencePair(prem1, hyp, 1, 0), lib, config)
        hyp_given_2, prem2_given_hyp = augment_pair(SentencePair(prem2, hyp, 1, 0), lib, config)
        assert np.array_equal(hyp_given_1, hyp_given_2)
        assert not np.array_equal(prem1_given_hyp, prem2_given_hyp)


class TestIndependentPasses:
    def test_worker_error_reaches_caller(self, one_helper):
        both = threading.Barrier(2, timeout=10)  # the jobs run at once: one on the helper
        raised = []

        def job():
            both.wait()
            if threading.current_thread() is not threading.main_thread():
                raised.append(ValueError("worker pass failed"))
                raise raised[-1]
            return "caller"

        threads = threading.active_count()
        with pytest.raises(ValueError) as info:
            model_module._run_passes([(job, (), 1), (job, (), 1)])
        assert len(raised) == 1 and info.value is raised[0]
        assert threading.active_count() == threads  # the failed helper was joined

        def echo(i):
            both.wait()
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)  # the caller waits longer than one of its wait slices
            return i

        # results come back in job order, whatever order the jobs were taken in
        assert model_module._run_passes([(echo, (0,), 1), (echo, (1,), 2)]) == [0, 1]

    def test_a_jobs_own_passes_run_on_its_thread(self, one_helper):
        def job():
            inner = model_module._run_passes([(threading.current_thread, (), 1)] * 2)
            return inner == [threading.current_thread()] * 2

        threads = threading.active_count()
        assert model_module._run_passes([(job, (), 1)] * 2) == [True, True]
        assert threading.active_count() == threads

    def test_an_interrupt_starts_no_further_job(self, one_helper):
        both = threading.Barrier(2, timeout=10)  # jobs 0 and 1 run at once, one a thread
        ran = []

        def job(i):
            if i < 2:
                both.wait()
                if threading.current_thread() is not threading.main_thread():
                    raise KeyboardInterrupt
                # the caller's job ends once the helper has stopped
                helper = next((t for t in threading.enumerate() if t.name == "maxcosine-pass"),
                              None)
                if helper is not None:
                    helper.join(timeout=10)
                    assert not helper.is_alive()
            ran.append(i)

        with pytest.raises(KeyboardInterrupt):
            model_module._run_passes([(job, (i,), 3 - i) for i in range(3)])
        assert len(ran) == 1 and 2 not in ran

    def test_an_interrupt_stops_a_long_job_on_the_helper(self, one_helper):
        # Ctrl-C reaches only the caller; the helper's job, such as an ensemble
        # member, ends at its next stop point instead of running to its end
        started = threading.Event()
        stopped = []

        def job():
            if threading.current_thread() is threading.main_thread():
                assert started.wait(timeout=10)
                raise KeyboardInterrupt
            started.set()
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    model_module.stop_point()
                except KeyboardInterrupt:
                    stopped.append(True)
                    raise
                time.sleep(0.001)

        with pytest.raises(KeyboardInterrupt):
            model_module._run_passes([(job, (), 1)] * 2)
        assert stopped == [True]

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupt_while_the_caller_waits_stops_the_helpers_job(self, one_helper):
        both = threading.Barrier(2, timeout=10)  # each thread holds one job
        caller_done = threading.Event()
        stopped = []

        def job():
            both.wait()
            if threading.current_thread() is threading.main_thread():
                caller_done.set()  # the caller then waits for the helper
                return
            assert caller_done.wait(timeout=10)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    model_module.stop_point()
                except KeyboardInterrupt:
                    stopped.append(True)
                    raise
                time.sleep(0.001)

        with pytest.raises(KeyboardInterrupt):
            model_module._run_passes([(job, (), 1)] * 2)
        assert stopped == [True]

    def test_stop_point_outside_a_job_returns(self):
        assert model_module.stop_point() is None

    def test_every_job_runs_once_under_contention(self, monkeypatch):
        monkeypatch.setattr(model_module, "_WORKERS", 1)
        runs = [0] * 64

        def job(j):
            runs[j] += 1  # one slot per job: a job taken twice counts 2
            return j

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                jobs = [(job, (j,), j % 5) for j in range(len(runs))]
                assert model_module._run_passes(jobs) == list(range(len(runs)))
        finally:
            sys.setswitchinterval(interval)
        assert runs == [50] * len(runs)


class TestBackward:
    def test_softmax_bias_gradient_identity(self):
        rng = make_rng(7)
        lib = random_library(rng, dim=6)
        pair = random_pairs(rng, lib, 1)[0]
        model = small_model(d=6, k=5)
        model.softmax.W_s[...] = 0.0
        model.softmax.b_s[...] = 0.0
        _, trace = forward_batch(model, [augment_pair(pair, lib, model.config)], make_rng(0))
        grads = backward(model, trace, [2])
        expected = np.full(3, 1 / 3)
        expected[1] -= 1.0
        assert np.allclose(grads["softmax.b_s"], expected, atol=1e-12)

    def test_gradcheck_base(self):
        rng = make_rng(10)
        lib = random_library(rng, dim=8)
        pairs = random_pairs(rng, lib, 2)
        model = small_model(d=8, k=12, seed=10)
        assert model_gradient_check(model, pairs, lib) < 1e-5

    def test_gradcheck_biway(self):
        rng = make_rng(11)
        lib = random_library(rng, dim=8)
        pairs = random_pairs(rng, lib, 2)
        model = small_model(d=8, k=12, biway=True, seed=11)
        assert model_gradient_check(model, pairs, lib) < 1e-5

    def test_gradcheck_rejects_dropout(self):
        rng = make_rng(12)
        lib = random_library(rng, dim=8)
        pairs = random_pairs(rng, lib, 1)
        model = small_model(d=8, k=4, dropout=0.3)
        with pytest.raises(ValueError):
            model_gradient_check(model, pairs, lib)

    def test_each_call_returns_its_own_gradients(self):
        rng = make_rng(14)
        lib = random_library(rng, dim=6)
        pairs = random_pairs(rng, lib, 2)
        model = small_model(d=6, k=4, biway=True)
        _, trace = forward(model, pairs[0], lib)
        first = backward(model, trace, [pairs[0].label])
        kept = first.flat.copy()
        _, trace = forward(model, pairs[1], lib)
        second = backward(model, trace, [pairs[1].label])
        assert not np.shares_memory(first.flat, second.flat)
        assert first.flat.tobytes() == kept.tobytes() != second.flat.tobytes()

    def test_invalid_label(self):
        rng = make_rng(13)
        lib = random_library(rng, dim=6)
        pair = random_pairs(rng, lib, 1)[0]
        model = small_model(d=6, k=4)
        _, trace = forward_batch(model, [augment_pair(pair, lib, model.config)], make_rng(0))
        with pytest.raises(ValueError):
            backward(model, trace, [0])

    def test_label_count_must_match_batch(self):
        rng = make_rng(13)
        lib = random_library(rng, dim=6)
        pair = random_pairs(rng, lib, 1)[0]
        model = small_model(d=6, k=4)
        _, trace = forward_batch(model, [augment_pair(pair, lib, model.config)], make_rng(0))
        with pytest.raises(ValueError, match=re.escape("2 labels for a batch of 1")):
            backward(model, trace, [1, 2])


@pytest.mark.parametrize("biway", [False, True])
class TestParameterBuffer:
    def test_parameters_tile_theta_in_checkpoint_order(self, biway):
        model = small_model(d=3, k=4, biway=biway)
        lstms = ("lstm_h", "lstm_p")[: 1 + biway]
        assert list(model.parameters()) == [
            f"{lstm}.{w}_{gate}" for lstm in lstms for w in "Wb" for gate in "ifoc"
        ] + ["softmax.W_s", "softmax.b_s"]
        assert model.theta.shape == (parameter_count(model.config),)
        assert_views_tile_theta(model)

    def test_copy_owns_its_theta(self, biway):
        model = small_model(d=3, k=4, biway=biway)
        twin = copy_model(model)
        assert twin.theta.tobytes() == model.theta.tobytes()
        assert not np.shares_memory(twin.theta, model.theta)
        assert_views_tile_theta(twin)


def per_array_checkpoint(model) -> bytes:
    """A checkpoint as it was written before the flat buffer: the header, then
    each array of parameters() on its own."""
    params = model.parameters()
    header = {
        "config": dataclasses.asdict(model.config),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.values())
    return MAGIC + struct.pack("<Q", len(blob)) + blob + arrays


@pytest.mark.parametrize("kind", ["base", "biway", "bi_embedding"])
def test_checkpoint_loads_and_resaves_byte_identical(tmp_path, kind):
    cfg = ModelConfig(embedding_dim=6 if kind == "bi_embedding" else 3, k=4,
                      biway=kind == "biway", bi_embedding=kind == "bi_embedding", seed=5)
    model = init_model(cfg, make_rng(5))
    model.theta[:] = make_rng(6).standard_normal(model.theta.size)  # biases too
    old = tmp_path / "old.ckpt"
    old.write_bytes(per_array_checkpoint(model))
    back = load_checkpoint(old)
    assert back.config == cfg and back.theta.tobytes() == model.theta.tobytes()
    save_checkpoint(tmp_path / "new.ckpt", back)
    assert (tmp_path / "new.ckpt").read_bytes() == old.read_bytes()


class TestCheckpoint:
    @pytest.mark.parametrize("biway", [False, True])
    def test_round_trip_bit_exact(self, tmp_path, biway):
        model = small_model(d=7, k=6, biway=biway, dropout=0.3, seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        back = load_checkpoint(path)
        assert back.config == model.config
        for name, arr in model.parameters().items():
            assert np.array_equal(back.parameters()[name], arr)

    def test_numpy_integer_config_saves_as_ints(self, tmp_path):
        model = small_model(d=np.int64(4), k=np.int32(3), seed=np.int64(5))
        assert [type(model.config.k), type(model.config.seed)] == [int, int]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        assert load_checkpoint(path).config == model.config

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = small_model(d=4, k=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_fresh_checkpoint_bytes_pinned(self, tmp_path):
        # the digest of the per-gate-array format as written before the gates were stacked
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_model(ModelConfig(embedding_dim=4, k=3, biway=True), make_rng(0)))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "fdff6c101abf038b09813bd19f0681d33949a51dec644624995f27dc78870a10"

    @pytest.mark.parametrize("corrupt", [
        lambda data: data[:12],
        lambda data: data[:8] + struct.pack("<Q", 5) + b"{nope",
        lambda data: _edit_header(data, lambda h: h["config"].update(bogus=1)),
        lambda data: data + b"\x00",
        lambda data: _edit_header(data, lambda h: h["arrays"][0].update(name="lstm_h.W_x")),
        lambda data: _edit_header(data, lambda h: h["arrays"][0]["shape"].reverse()),
        lambda data: _edit_header(data, lambda h: h["config"].update(k=1000000)),
        lambda data: _edit_header(data, lambda h: h["config"].update(oov_window=-1)),
        lambda data: data[:8] + struct.pack("<Q", 200_000) + b"[" * 100_000 + b"]" * 100_000,
        lambda data: _edit_header(data, lambda h: h["config"].update(oov_window=1.5)),
        lambda data: _edit_header(data, lambda h: h["config"].update(seed=-1)),
    ], ids=["short_header", "bad_json", "unknown_config_key", "trailing_bytes",
            "renamed_array", "reshaped_array", "huge_k", "negative_oov_window", "deep_json",
            "fractional_oov_window", "negative_seed"])
    def test_corrupt_file_raises_checkpoint_error(self, tmp_path, corrupt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_model(d=4, k=3))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_model(d=4, k=3))
        before = path.read_bytes()
        model = small_model(d=4, k=3, seed=1)
        params = model.parameters()
        monkeypatch.setattr(model, "parameters", lambda: params)
        monkeypatch.setattr(model, "theta", Unwritable())  # written after the header
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


header_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_checkpoints(draw, seeds):
    """Bytes near a checkpoint of `seeds`: one edited and cut, or its magic and a
    header of any JSON, config values of any type included, then its arrays, or
    any bytes at all."""
    kind = draw(st.sampled_from(["edit", "header", "config", "raw"]))
    data = bytearray(draw(st.sampled_from(seeds)))
    (hlen,) = struct.unpack("<Q", data[8:16])
    if kind == "edit":
        for i, byte in draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                               st.integers(0, 255)), max_size=4)):
            data[i] = byte
        return bytes(data[: draw(st.none() | st.integers(0, len(data)))])
    if kind == "raw":
        return draw(st.binary(max_size=64))
    if kind == "header":
        blob = json.dumps(draw(header_values)).encode()
    else:
        header = json.loads(data[16 : 16 + hlen])
        for key in draw(st.lists(st.sampled_from(sorted(header["config"]) + ["x"]),
                                 max_size=2)):
            header["config"][key] = draw(header_values)
        blob = json.dumps(header).encode()
    length = draw(st.sampled_from([len(blob)]) | st.integers(0, 2**64 - 1))
    return bytes(data[:8]) + struct.pack("<Q", length) + blob + bytes(data[16 + hlen :])


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """The bytes of a small base and a small biway checkpoint."""
    out = []
    for biway in (False, True):
        path = tmp_path_factory.mktemp("seed") / "seed.ckpt"
        save_checkpoint(path, small_model(d=2, k=2, biway=biway))
        out.append(path.read_bytes())
    return out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_bytes_end_in_model_or_checkpoint_error(tmp_path_factory, checkpoint_bytes, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(data.draw(damaged_checkpoints(checkpoint_bytes)))
    try:
        model = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(model, Model)


class Unwritable:
    """A parameter array whose bytes cannot be produced."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("disk full")


def _edit_header(data, edit):
    """Re-encode a checkpoint's JSON header after `edit` mutates it in place."""
    (hlen,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    return data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen :]


