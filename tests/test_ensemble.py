import dataclasses
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import random_library, random_pairs, record_pass_threads
from maxcosine import ensemble as ensemble_module, model as model_module, training
from maxcosine.checkpoint import CheckpointError, save_checkpoint
from maxcosine.ensemble import (
    Ensemble,
    ManifestError,
    load_ensemble,
    predict_ensemble,
    save_ensemble,
    save_manifest,
    train_ensemble,
)
from maxcosine.matching import index_pairs
from maxcosine.model import decide, forward, forward_batch, init_model, member_mean
from maxcosine.numerics import make_rng
from maxcosine.training import EVAL_CHUNK, DivergenceError, TrainConfig, evaluate, train


def setup(n_pairs=10, seed=3):
    rng = make_rng(seed)
    lib = random_library(rng, n_words=20, dim=8)
    pairs = random_pairs(rng, lib, n_pairs)
    return lib, pairs


def quick_config(**kw):
    defaults = dict(k=8, batch_size=4, epochs=1, dropout_rate=0.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainEnsemble:
    def test_duplicate_seeds_rejected(self):
        lib, pairs = setup()
        with pytest.raises(ValueError, match="distinct"):
            train_ensemble(quick_config(), [1, 2, 1], pairs, pairs[:3], lib)

    def test_members_reproducible(self):
        lib, pairs = setup()
        cfg = quick_config()
        a, _ = train_ensemble(cfg, [4, 5], pairs, pairs[:3], lib)
        b, _ = train_ensemble(cfg, [4, 5], pairs, pairs[:3], lib)
        for ma, mb in zip(a.members, b.members):
            for name, arr in ma.parameters().items():
                assert np.array_equal(arr, mb.parameters()[name])

    def test_each_member_logs_its_epochs_under_its_seed(self, caplog, one_helper):
        lib, pairs = setup()
        with caplog.at_level("INFO", logger="maxcosine.training"):
            train_ensemble(quick_config(epochs=2), [1, 2], pairs, pairs[:3], lib)
        lines = sorted(r.getMessage().split(":")[0] for r in caplog.records)
        assert lines == ["seed 1 epoch 1", "seed 1 epoch 2", "seed 2 epoch 1", "seed 2 epoch 2"]

    def test_distinct_seeds_give_distinct_members(self):
        lib, pairs = setup()
        group, _ = train_ensemble(quick_config(), [7, 8], pairs, pairs[:3], lib)
        a, b = group.members
        assert any(
            not np.array_equal(arr, b.parameters()[name])
            for name, arr in a.parameters().items()
        )

    def test_mismatched_members_rejected(self):
        lib, _ = setup()
        m1 = init_model(quick_config(k=8, seed=1).model_config(lib.dim), make_rng(1))
        m2 = init_model(quick_config(k=9, seed=2).model_config(lib.dim), make_rng(2))
        with pytest.raises(ValueError, match="config"):
            Ensemble(members=[m1, m2])

    def test_no_members_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            Ensemble([])


class TestPredictEnsemble:
    def test_single_member_equals_decide(self):
        lib, pairs = setup()
        model = init_model(quick_config(seed=2).model_config(lib.dim), make_rng(2))
        group = Ensemble(members=[model])
        probs_e, label_e = predict_ensemble(group, pairs[0], lib)
        probs_m, trace = forward(model, pairs[0], lib)
        _, label_m = decide(model.softmax, trace.h_out)
        assert np.array_equal(probs_e, probs_m)
        assert label_e == label_m

    def test_identical_members_equal_single(self):
        lib, pairs = setup()
        model = init_model(quick_config(seed=2).model_config(lib.dim), make_rng(2))
        single, _ = predict_ensemble(Ensemble(members=[model]), pairs[0], lib)
        triple, _ = predict_ensemble(Ensemble(members=[model] * 3), pairs[0], lib)
        assert np.array_equal(single, triple)

    def test_member_order_invariant(self):
        lib, pairs = setup()
        members = [
            init_model(quick_config(seed=s).model_config(lib.dim), make_rng(s))
            for s in (1, 2, 3)
        ]
        fwd, _ = predict_ensemble(Ensemble(members=members), pairs[0], lib)
        rev, _ = predict_ensemble(Ensemble(members=members[::-1]), pairs[0], lib)
        assert np.array_equal(fwd, rev)

    def test_mean_on_simplex(self):
        lib, pairs = setup()
        members = [
            init_model(quick_config(seed=s).model_config(lib.dim), make_rng(s))
            for s in (4, 5, 6, 7)
        ]
        for pair in pairs:
            probs, _ = predict_ensemble(Ensemble(members=members), pair, lib)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_tie_breaks_to_smaller_label(self):
        # hand oracle: averaging (1,0,0) and (0,1,0) yields a tie broken to label 1
        mean = np.array([0.5, 0.5, 0.0])
        assert int(np.argmax(mean)) + 1 == 1

    def test_hand_average(self):
        got = np.mean([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]], axis=0)
        assert np.allclose(got, [0.3, 1 / 3, 11 / 30], atol=1e-12)


def loop_mean(member_probs):
    """The per-coordinate loop `member_mean` replaced: a sorted extended-precision sum."""
    mean = np.empty(len(member_probs[0]))
    for j in range(len(mean)):
        total = np.longdouble(0.0)
        for v in sorted(p[j] for p in member_probs):
            total += v
        mean[j] = float(total / len(member_probs))
    return mean


# ties, signed zeros and subnormals, beside arbitrary finite values
mean_coordinates = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1 / 3, 0.5, 1.0]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(mean_coordinates, min_size=3, max_size=3), min_size=1, max_size=7))
def test_member_mean_bitwise_equals_sorted_loop(members):
    member_probs = [np.array(p) for p in members]
    assert member_mean(member_probs).tobytes() == loop_mean(member_probs).tobytes()


def biway_members(lib, seeds):
    return [
        init_model(quick_config(biway=True, seed=s).model_config(lib.dim), make_rng(s))
        for s in seeds
    ]


def test_parallel_members_equal_serial(monkeypatch, one_helper):
    lib, pairs = setup()
    group = Ensemble(members=biway_members(lib, (1, 2, 3)))
    threads = threading.active_count()
    outputs = {}
    seen = record_pass_threads(monkeypatch)
    for workers in (0, 1):
        monkeypatch.setattr(model_module, "_WORKERS", workers)
        outputs[workers] = [predict_ensemble(group, pair, lib) for pair in pairs]
    assert any(t is not threading.current_thread() for t in seen)  # a helper ran
    assert threading.active_count() == threads
    for (serial, serial_label), (parallel, label) in zip(outputs[0], outputs[1]):
        assert serial.tobytes() == parallel.tobytes() and serial_label == label


def test_members_trained_on_two_threads_equal_serial(monkeypatch, one_helper):
    # each member trains whole on the caller or the helper, and its biway
    # validation passes run on that member's thread
    lib, pairs = setup()
    config = quick_config(biway=True, dropout_rate=0.2)
    threads = threading.active_count()
    thetas = {}
    seen = record_pass_threads(monkeypatch)
    for workers in (0, 1):
        monkeypatch.setattr(model_module, "_WORKERS", workers)
        group, _ = train_ensemble(config, [1, 2, 3], pairs, pairs[:3], lib)
        thetas[workers] = [m.theta.tobytes() for m in group.members]
    assert len(set(seen)) == 2  # the caller and one helper, nothing nested
    assert threading.active_count() == threads
    assert thetas[0] == thetas[1]


def test_diverging_member_raises_its_error_after_the_others_end(monkeypatch, one_helper):
    lib, pairs = setup()
    real_backward, real_train = training.backward, ensemble_module.train
    ended, raised = [], []

    def backward(model, trace, labels):
        grads = real_backward(model, trace, labels)
        if model.config.seed == 2:
            grads.flat[0] = np.nan
        return grads

    def train(*args):
        try:
            result = real_train(*args)
        except DivergenceError as exc:
            raised.append(exc)
            raise
        ended.append(args[2].seed)
        return result

    monkeypatch.setattr(training, "backward", backward)
    monkeypatch.setattr(ensemble_module, "train", train)
    threads = threading.active_count()
    with pytest.raises(DivergenceError) as info:
        train_ensemble(quick_config(), [1, 2, 3], pairs, pairs[:3], lib)
    assert len(raised) == 1 and info.value is raised[0]
    assert sorted(ended) == [1, 3]
    assert threading.active_count() == threads


def test_members_equal_their_own_train_runs_from_one_matching(monkeypatch, one_helper):
    # members share the matching of each set, built once, and each trains to
    # the bytes of a `train` call that matches both sets itself
    lib, pairs = setup()
    config = quick_config(biway=True, dropout_rate=0.2)
    alone = [train(pairs, pairs[:3], dataclasses.replace(config, seed=s), lib) for s in (1, 2)]
    calls = []
    index_pairs = ensemble_module.index_pairs

    def counted(*args):
        calls.append(args[0])
        return index_pairs(*args)

    monkeypatch.setattr(ensemble_module, "index_pairs", counted)
    monkeypatch.setattr(training, "index_pairs", counted)
    group, results = train_ensemble(config, [1, 2], pairs, pairs[:3], lib)
    assert calls == [pairs, pairs[:3]]
    for member, result, own in zip(group.members, results, alone):
        assert member.theta.tobytes() == own.best_model.theta.tobytes()
        assert result.history == own.history


def test_an_interrupted_ensemble_stops_the_member_on_the_helper(monkeypatch, one_helper):
    # Ctrl-C reaches only the caller's member; the helper's member ends at its
    # next batch instead of training all of its 150 steps, and no third starts
    lib, pairs = setup()
    main = threading.main_thread()
    real_backward = training.backward
    helper_steps = []
    helper_started = threading.Event()

    def backward(model, trace, labels):
        if threading.current_thread() is main:
            assert helper_started.wait(timeout=10)
            raise KeyboardInterrupt
        helper_steps.append(model.config.seed)
        helper_started.set()
        return real_backward(model, trace, labels)

    monkeypatch.setattr(training, "backward", backward)
    config = quick_config(epochs=50)  # 10 pairs at batch 4: 3 steps an epoch
    with pytest.raises(KeyboardInterrupt):
        train_ensemble(config, [1, 2, 3], pairs, pairs[:3], lib)
    assert 1 <= len(helper_steps) < 150 and len(set(helper_steps)) == 1


def _predict_all(group, pairs, lib):
    return [(probs.tobytes(), label) for probs, label in
            (predict_ensemble(group, pair, lib) for pair in pairs)]


def test_forked_child_predicts_as_parent(one_helper):
    # a child forked after the parent ran passes on helper threads predicts as the parent did
    lib, pairs = setup(n_pairs=4)
    group = Ensemble(members=biway_members(lib, (1, 2)))
    in_parent = _predict_all(group, pairs, lib)
    out = {}

    def fork_and_predict():
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            out["forked"] = pool.submit(_predict_all, group, pairs, lib).result()

    runner = threading.Thread(target=fork_and_predict, daemon=True)
    runner.start()
    runner.join(timeout=120)
    if runner.is_alive():  # a hung child: end it
        for child in multiprocessing.active_children():
            child.terminate()
        runner.join(timeout=30)
        pytest.fail("a forked child hung")
    assert out["forked"] == in_parent


def recorded_evaluate(monkeypatch, pairs, scored, lib):
    """`evaluate(pairs, scored, lib)` and the (n, 3) probabilities it scored,
    read from its `forward_members` calls."""
    seen = []
    real = training.forward_members
    monkeypatch.setattr(training, "forward_members", lambda *a: seen.append(real(*a)) or seen[-1])
    result = evaluate(pairs, scored, lib)
    monkeypatch.setattr(training, "forward_members", real)
    return result, np.concatenate(seen)


def confusion_of(pairs, labels):
    confusion = np.zeros((3, 3), dtype=np.int64)
    for pair, label in zip(pairs, labels):
        confusion[pair.label - 1, label - 1] += 1
    return confusion


@pytest.mark.parametrize("caller", ["forward", "predict_ensemble", "evaluate"])
def test_library_of_another_width_is_refused(caller):
    lib, pairs = setup(n_pairs=2)
    model = init_model(quick_config(biway=True).model_config(lib.dim + 2), make_rng(0))
    score = {
        "forward": lambda: forward(model, pairs[0], lib),
        "predict_ensemble": lambda: predict_ensemble(Ensemble([model]), pairs[0], lib),
        "evaluate": lambda: evaluate(pairs, model, lib),
    }[caller]
    with pytest.raises(ValueError, match=r"^library dimension 8 != checkpoint embedding_dim 10$"):
        score()


class TestOneEvaluationPath:
    GROUPS = {"base": (False, (1,)), "biway": (True, (1,)), "biway_x3": (True, (1, 2, 3))}

    @pytest.mark.parametrize("n", [1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1])
    @pytest.mark.parametrize("kind", list(GROUPS))
    def test_evaluate_equals_per_pair_predictions(self, monkeypatch, kind, n):
        biway, seeds = self.GROUPS[kind]
        lib, pairs = setup(n_pairs=n, seed=n)
        group = Ensemble([init_model(quick_config(biway=biway, seed=s).model_config(lib.dim),
                                     make_rng(s)) for s in seeds])
        result, batched = recorded_evaluate(monkeypatch, pairs, group, lib)
        per_pair = [predict_ensemble(group, pair, lib) for pair in pairs]
        probs = np.stack([p for p, _ in per_pair])
        assert np.abs(batched - probs).max() <= 1e-12
        # a batched label may differ from the per-pair one only on a near-tie
        labels = [int(np.argmax(row)) + 1 for row in batched]
        for row, label, (_, alone) in zip(probs, labels, per_pair):
            if label != alone:
                assert abs(row[label - 1] - row[alone - 1]) <= 2e-12
        assert np.array_equal(result.confusion, confusion_of(pairs, labels))
        assert result.total == n and result.accuracy == np.trace(result.confusion) / n

    @pytest.mark.parametrize("biway", [False, True])
    def test_model_scores_as_its_one_member_ensemble(self, monkeypatch, biway):
        lib, pairs = setup(n_pairs=EVAL_CHUNK + 9, seed=4)
        model = init_model(quick_config(biway=biway, seed=5).model_config(lib.dim), make_rng(5))
        alone, alone_probs = recorded_evaluate(monkeypatch, pairs, model, lib)
        grouped, grouped_probs = recorded_evaluate(monkeypatch, pairs, Ensemble([model]), lib)
        assert alone_probs.tobytes() == grouped_probs.tobytes()
        assert np.array_equal(alone.confusion, grouped.confusion)
        assert alone.accuracy == grouped.accuracy
        # evaluate's forward before ensembles shared it: forward_batch per chunk
        index = index_pairs(pairs, lib, model.config)
        chunks = [range(s, min(s + EVAL_CHUNK, len(pairs))) for s in range(0, len(pairs),
                                                                            EVAL_CHUNK)]
        before = np.concatenate([forward_batch(model, index.sequences(c))[0] for c in chunks])
        assert alone_probs.tobytes() == before.tobytes()


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        lib, pairs = setup()
        group, _ = train_ensemble(quick_config(), [1, 2], pairs, pairs[:3], lib)
        manifest = save_ensemble(group, tmp_path / "ens")
        back = load_ensemble(manifest)
        assert len(back.members) == 2
        for ma, mb in zip(group.members, back.members):
            for name, arr in ma.parameters().items():
                assert np.array_equal(arr, mb.parameters()[name])

    def test_save_refuses_members_of_one_seed(self, tmp_path):
        # both would be written to member_seed1.ckpt, and the first one lost
        lib, _ = setup()
        config = quick_config(seed=1).model_config(lib.dim)
        group = Ensemble([init_model(config, make_rng(s)) for s in (1, 2)])
        with pytest.raises(ValueError, match=re.escape("distinct seeds to be saved, got [1, 1]")):
            save_ensemble(group, tmp_path / "ens")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", [
        "{}",
        '{"members": [{"seed": 1}]}',
        '{"members": 3}',
        '[{"checkpoint": "a.ckpt"}]',
        '{"members": [',
        '{"members": []}',
        '{"members": ' + "[" * 100_000,
        '{"members": [{"checkpoint": ""}]}',
        '{"members": [{"checkpoint": 3}]}',
        '{"members": [{"checkpoint": null}]}',
        '{"members": [{"checkpoint": "a\\u0000b"}]}',
        '{"members": [{"checkpoint": "\\ud800"}]}',
    ], ids=["empty_object", "entry_without_checkpoint", "members_not_a_list", "top_level_list",
            "invalid_json", "no_members", "deep_nesting", "empty_checkpoint",
            "number_checkpoint", "null_checkpoint", "nul_in_checkpoint",
            "unencodable_checkpoint"])
    def test_bad_manifest_raises_manifest_error(self, tmp_path, text):
        path = tmp_path / "ensemble.json"
        path.write_text(text)
        with pytest.raises(ManifestError, match=re.escape(str(path))):
            load_ensemble(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ensemble.json"
        save_manifest(path, ["a.ckpt"], [1])
        before = path.read_bytes()

        def failing_dumps(*args, **kwargs):
            raise OSError("disk full")

        # raises inside the write, after the temporary file is open
        monkeypatch.setattr(json, "dumps", failing_dumps)
        with pytest.raises(OSError, match="disk full"):
            save_manifest(path, ["b.ckpt"], [2])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ensemble.json"]


manifest_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# a member's field: a real checkpoint, a missing file, a directory, an empty or
# unusable path, or any JSON value
member_fields = st.sampled_from(
    ["member.ckpt", "missing.ckpt", ".", "", "\0", "\ud800", "member.ckpt/x"]
) | manifest_values


@st.composite
def manifests(draw):
    """The text of a manifest whose members' fields take any value, or of any JSON."""
    if draw(st.booleans()):
        return json.dumps(draw(manifest_values))
    members = draw(st.lists(
        st.dictionaries(st.sampled_from(["checkpoint", "seed", "x"]), member_fields, max_size=3)
        | manifest_values, max_size=3))
    return json.dumps({"members": members})


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """A directory holding one small member checkpoint, member.ckpt."""
    out = tmp_path_factory.mktemp("manifests")
    lib, _ = setup()
    save_checkpoint(out / "member.ckpt",
                    init_model(quick_config(seed=1).model_config(lib.dim), make_rng(1)))
    return out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=manifests())
def test_any_manifest_ends_in_ensemble_or_typed_error(manifest_dir, text):
    path = manifest_dir / "ensemble.json"
    path.write_text(text)
    try:
        group = load_ensemble(path)
    except ManifestError as exc:
        assert str(path) in str(exc)
    except OSError as exc:  # a member path that names no file to read
        assert exc.filename is not None
    except CheckpointError:  # a file that is not a checkpoint
        pass
    else:
        assert all(m.theta.size for m in group.members)
