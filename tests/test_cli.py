import argparse
import json
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxcosine import cli
from maxcosine.checkpoint import load_checkpoint
from maxcosine.cli import (
    CONFIG_SCHEMA, CliError, _train_setup, build_parser, load_library, main, read_config_file,
    resolve_config,
)
from maxcosine.data import LABEL_NAMES, SentencePair, load_snli
from maxcosine.embeddings import (
    EmbeddingLibrary, load_binary_format, load_text_format, save_binary_format,
)
from maxcosine.ensemble import load_ensemble, predict_ensemble
from maxcosine.numerics import make_rng


@pytest.fixture
def workspace(tmp_path):
    """Tiny embeddings file and SNLI-style dataset."""
    rng = make_rng(0)
    words = [f"w{i}" for i in range(12)]
    emb = tmp_path / "emb.txt"
    with open(emb, "w") as fh:
        for w in words:
            fh.write(w + " " + " ".join(f"{v:.6f}" for v in rng.standard_normal(6)) + "\n")
    labels = ["entailment", "contradiction", "neutral"]
    data = tmp_path / "data.jsonl"
    with open(data, "w") as fh:
        for i in range(12):
            prem = " ".join(str(w) for w in rng.choice(words, 4))
            hyp = " ".join(str(w) for w in rng.choice(words, 3))
            fh.write(
                json.dumps(
                    {"gold_label": labels[i % 3], "sentence1": prem, "sentence2": hyp}
                )
                + "\n"
            )
    return tmp_path, emb, data


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=3\nnot_a_key=1\n")
    with pytest.raises(CliError, match=re.escape(f"{cfg}:2: unknown config key: 'not_a_key'")):
        read_config_file(cfg)


@pytest.mark.parametrize("line, message", [
    ("biway = maybe", "bad value for biway: 'maybe'"),
    ("epochs = x", "bad value for epochs: 'x'"),
    ("no_such_key = 1", "unknown config key: 'no_such_key'"),
    ("bi_embedding = true", "unknown config key: 'bi_embedding'"),  # follows embeddings2
    ("embedding_format = text", "unknown config key: 'embedding_format'"),  # found from bytes
    ("workers = 2", "unknown config key: 'workers'"),  # members run as threads
    ("beta1 = 0.9", "unknown config key: 'beta1'"),  # Adam runs at its published constants
    ("beta2 = 0.999", "unknown config key: 'beta2'"),
    ("epsilon = 1e-8", "unknown config key: 'epsilon'"),
    ("epochs", "expected key=value, got 'epochs'"),
])
def test_bad_config_file_line_names_its_location(workspace, capsys, line, message):
    tmp_path, emb, _ = workspace
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# a comment\n{line}\n")
    with pytest.raises(CliError, match=re.escape(f"{cfg}:2: {message}")):
        read_config_file(cfg)
    assert main(["match", "w0", "w1", "--config", str(cfg), "--embeddings", str(emb)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


def test_config_file_line_that_is_not_utf8_names_its_location(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes("epochs = 2  # café\n".encode() + b"out_dir = run\xff\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: not valid UTF-8\n"


@pytest.mark.parametrize("argv, message", [
    (["train", "--biway", "maybe"], "argument --biway: not a boolean: 'maybe'"),
    (["ensemble-train", "--biway", "2"], "argument --biway: not a boolean: '2'"),
    (["train", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
])
def test_bad_flag_value_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n") and "Traceback" not in err


def test_raw_cr_inside_a_config_line_does_not_split_it(tmp_path):
    cfg = tmp_path / "cr.cfg"
    cfg.write_bytes(b"# one\r# two\r\nepochs = 2\r\nk = 3\n")
    assert read_config_file(cfg) == {"epochs": 2, "k": 3}
    cfg.write_bytes(b"# one\r# two\nepochs = 2\r\nk = x\n")
    with pytest.raises(CliError, match=re.escape(f"{cfg}:3: bad value for k: 'x'")):
        read_config_file(cfg)


def test_config_file_parsing(workspace):
    tmp_path, emb, data = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs=3\nbiway=true\ndropout_rate=0.4  # inline\n")
    parsed = read_config_file(cfg)
    assert parsed == {"epochs": 3, "biway": True, "dropout_rate": 0.4}
    # each spelling, in a file and as a flag, reaches TrainConfig as its boolean
    paths = ["--embeddings", str(emb), "--train-path", str(data), "--val-path", str(data),
             "--out-dir", str(tmp_path / "run")]
    for spelling, value in [("0", False), ("false", False), ("no", False), ("off", False),
                            ("FALSE", False), ("TRUE", True)]:
        cfg.write_text(f"biway = {spelling}\n")
        for flags in (["--config", str(cfg)], ["--biway", spelling]):
            args = build_parser().parse_args(["train", *paths, *flags])
            assert _train_setup(resolve_config(args))[0].biway is value, (spelling, flags)


def test_load_library_logs_counts(tmp_path, caplog):
    path = tmp_path / "e.txt"
    path.write_text("cat 0.1 0.2\ndog 0.3 0.4\ncat 9 9\n")
    with caplog.at_level(logging.INFO, logger="maxcosine.cli"):
        load_library(path)
    assert f"{path}: 2 words, dimension 2, 1 duplicates dropped" in caplog.messages


def test_embed_convert_round_trip(workspace, capsys):
    tmp_path, emb, _ = workspace
    binary = tmp_path / "emb.bin"
    text2 = tmp_path / "emb2.txt"
    assert main(["embed-convert", str(emb), str(binary), "--to", "binary"]) == 0
    assert main(["embed-convert", str(binary), str(text2), "--to", "text"]) == 0
    a = load_text_format(emb)
    b = load_text_format(text2)
    assert a.vocab == b.vocab
    # one float32 rounding through the binary format
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-6
    assert load_binary_format(binary).vocab == a.vocab


def test_word2vec_text_library_reads_as_without_its_header(tmp_path, capsys):
    lines = ["cat 0.5 0.25", "dog 0.125 1.0", "bird 2.0 -1.0"]
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join(lines) + "\n")
    expected = load_library(plain)
    assert main(["match", "a cat", "a dog", "--embeddings", str(plain)]) == 0
    assert main(["embed-convert", str(plain), str(tmp_path / "plain.bin"), "--to", "binary"]) == 0
    printed = capsys.readouterr().out.splitlines()
    for trailing, newline, blank in (("", "\n", []), (" ", "\n", []), ("", "\r\n", []),
                                     (" ", "\r\n", []), ("", "\n", [""]), (" ", "\r\n", ["", ""])):
        path = tmp_path / "w2v.txt"
        path.write_bytes("".join(f"{line}{trailing}{newline}"
                                 for line in ["3 2", *blank, *lines]).encode())
        lib = load_library(path)
        assert lib.vocab == expected.vocab and lib.matrix.tobytes() == expected.matrix.tobytes()
        assert main(["match", "a cat", "a dog", "--embeddings", str(path)]) == 0
        assert main(["embed-convert", str(path), str(tmp_path / "w2v.bin"), "--to", "binary"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            *printed[:-1], printed[-1].replace("plain.bin", "w2v.bin")]
        assert (tmp_path / "w2v.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()


def test_embed_convert_rejects_unreadable_text_output(tmp_path, capsys):
    # a binary word ends at its first space, so it may hold a tab; as the first
    # word of a text file it would be split into two fields
    binary = tmp_path / "tab.bin"
    row = np.ones(2, dtype="<f4").tobytes()
    binary.write_bytes(b"2 2\n" + b"a\tb " + row + b"\n" + b"c " + row + b"\n")
    text = tmp_path / "tab.txt"
    assert main(["embed-convert", str(binary), str(text), "--to", "text"]) == 1
    assert f"error: {text}: the text format cannot" in capsys.readouterr().err
    assert not text.exists()


MATCH_PINNED = [
    (["w0 w1 w2", "w3 w4"], ["w3 -> w0 (0.2550)", "w4 -> w1 (0.9146)"]),
    # OOV tokens on both sides and repeated tokens; window 1 leaves the premise's
    # "zz" and "qq" as zero vectors, and an all-OOV hypothesis has zero queries
    (["w5 xx w1 w5 yy zz qq", "w3 oov w3 w9"],
     ["w3 -> xx (0.1752)", "oov -> w5 (0.2032)", "w3 -> xx (0.1752)", "w9 -> w5 (0.4000)"]),
    (["w5 xx w1 w5 yy zz qq", "w3 oov w3 w9", "--oov-window", "1"],
     ["w3 -> xx (0.1471)", "oov -> xx (0.1471)", "w3 -> xx (0.1471)", "w9 -> w5 (0.4000)"]),
    (["w2 w7", "aa bb"], ["aa -> w2 (0.0000)", "bb -> w2 (0.0000)"]),
]


def test_match_command(workspace, capsys):
    """One line per hypothesis token, pinned byte for byte."""
    _, emb, _ = workspace
    for args, expected in MATCH_PINNED:
        assert main(["match", *args, "--embeddings", str(emb)]) == 0
        assert capsys.readouterr().out.splitlines() == expected


def test_match_rejects_negative_oov_window(workspace, capsys):
    _, emb, _ = workspace
    assert main(["match", "w0", "w1", "--embeddings", str(emb), "--oov-window", "-1"]) == 1
    assert "oov_window must be >= 0" in capsys.readouterr().err


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--dim", "4", "--k", "3", "--pairs", "1", "--seed", "0"]) == 0
    assert "PASS" in capsys.readouterr().out
    # the seed is checked by a model's seed rule before anything is drawn
    assert main(["gradcheck", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be >= 0\n")


@pytest.mark.parametrize("flag", ["--dim", "--k", "--pairs"])
@pytest.mark.parametrize("value", [0, -1])
def test_gradcheck_rejects_sizes_below_one(capsys, flag, value):
    assert main(["gradcheck", flag, str(value)]) == 1
    assert capsys.readouterr() == ("", f"error: {flag} must be >= 1, got {value}\n")


BAD_TRAIN_SETTINGS = [
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--dropout-rate", "1.5"], "dropout_rate must be in [0, 1)"),
    (["--oov-window", "-1"], "oov_window must be >= 0"),
    (["--max-train-pairs", "0"], "max_pairs must be >= 1, got 0"),
    (["--learning-rate", "inf"], "error: learning_rate must be finite and > 0"),
]

# settings only ensemble-train reads; each flag overrides the valid `--seeds 1,2` before it
BAD_ENSEMBLE_SETTINGS = [
    (["--seeds", "1,1"], "ensemble seeds must be pairwise distinct, got [1, 1]"),
    (["--seeds", ","], "seeds must name at least one seed"),
    (["--seeds", "1,x"], "bad value for seeds: '1,x'"),
    (["--seeds", "1,-2"], "seed must be >= 0"),
]


@pytest.mark.parametrize("command", ["train", "ensemble-train"])
def test_bad_train_config_rejected_before_loading(tmp_path, capsys, command):
    # the embeddings and data paths do not exist: the config error must come first
    missing = str(tmp_path / "missing")
    out_dir = tmp_path / "run"
    bad = BAD_TRAIN_SETTINGS + (BAD_ENSEMBLE_SETTINGS if command == "ensemble-train"
                                else [(["--seed", "-1"], "seed must be >= 0")])
    seeds = ["--seeds", "1,2"] if command == "ensemble-train" else []
    for flags, message in bad:
        rc = main([command, "--embeddings", missing, "--train-path", missing,
                   "--val-path", missing, "--out-dir", str(out_dir), *seeds, *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "No such file" not in err, flags
        assert not out_dir.exists()


def test_config_schema_keys_and_types():
    """The training keys come from TrainConfig, with these names and types."""
    assert CONFIG_SCHEMA == {
        "learning_rate": float, "batch_size": int, "epochs": int, "dropout_rate": float,
        "seed": int, "k": int, "biway": bool, "oov_window": int,
        "train_path": str, "val_path": str, "embeddings": str, "embeddings2": str,
        "out_dir": str, "seeds": str,
        "max_train_pairs": int, "max_val_pairs": int,
    }


def _command_flags() -> dict[str, set[str]]:
    """The long options of each subcommand, `--help` aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
            - {"--help"} for name, p in sub.choices.items()}


def _flags(keys) -> set[str]:
    return {"--" + key.replace("_", "-") for key in keys}


def test_each_command_takes_flags_for_the_keys_it_reads():
    got = _command_flags()
    library = {"--config", "--embeddings", "--embeddings2"}
    assert got["eval"] == got["predict"] == library
    assert got["match"] == library | {"--oov-window"}
    assert got["train"] == {"--config"} | _flags(CONFIG_SCHEMA) - {"--seeds"}
    assert got["ensemble-train"] == got["train"] - {"--seed"} | {"--seeds"}
    counts = [len(got[name]) for name in ("train", "ensemble-train", "eval", "predict", "match")]
    assert counts == [16, 16, 3, 3, 4] and sum(counts) == 42


@pytest.mark.parametrize("argv", [
    ["eval", "model.ckpt", "dev.jsonl", "--oov-window", "0"],
    ["eval", "model.ckpt", "dev.jsonl", "--epochs", "0"],
    ["predict", "model.ckpt", "a", "b", "--k", "99"],
    ["match", "a", "b", "--biway", "true"],
    ["train", "--seeds", "1,2"],
    ["ensemble-train", "--workers", "2"],  # members run as threads, two at a time
    ["train", "--bi-embedding", "true"],
    ["ensemble-train", "--seed", "1"],
    ["train", "--beta1", "0.9"],
    ["ensemble-train", "--epsilon", "1e-8"],
])
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["eval", "{m}", "{m}"], "no embeddings path given (embeddings=... or --embeddings)"),
    (["train", "--val-path", "{m}", "--out-dir", "{out}"], "missing required setting train_path"),
    (["train", "--train-path", "{m}", "--out-dir", "{out}"], "missing required setting val_path"),
    (["train", "--train-path", "{m}", "--val-path", "{m}"], "missing required setting out_dir"),
    (["ensemble-train", "--train-path", "{m}", "--val-path", "{m}", "--out-dir", "{out}"],
     "missing required setting seeds"),
])
def test_missing_required_setting_is_named_before_reading(tmp_path, capsys, argv, message):
    missing, out_dir = tmp_path / "missing", tmp_path / "run"
    assert main([a.format(m=missing, out=out_dir) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_dataset_of_unknown_labels_has_no_usable_pairs(workspace, capsys):
    tmp_path, emb, data = workspace
    unlabelled = tmp_path / "unlabelled.jsonl"
    unlabelled.write_text('{"gold_label": "-", "sentence1": "w0 w1", "sentence2": "w2"}\n' * 3)
    out_dir = tmp_path / "run"
    assert main(["train", "--embeddings", str(emb), "--train-path", str(unlabelled),
                 "--val-path", str(data), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {unlabelled}: no usable pairs\n"
    assert not out_dir.exists()


def test_train_bi_embedding_follows_embeddings2(workspace, capsys):
    tmp_path, emb, data = workspace
    emb2 = tmp_path / "emb2.bin"  # a binary library joined to a text one
    save_binary_format(EmbeddingLibrary({"w0": 0, "zz": 1}, [[1.0, 2.0], [3.0, 4.0]]), emb2)
    for second, bi_embedding in (([], False), (["--embeddings2", str(emb2)], True)):
        out_dir = tmp_path / f"bi_embedding_{bi_embedding}"
        assert main(["train", "--embeddings", str(emb), *second, "--train-path", str(data),
                     "--val-path", str(data), "--out-dir", str(out_dir), "--k", "4",
                     "--epochs", "1", "--batch-size", "4"]) == 0
        config = load_checkpoint(out_dir / "model.ckpt").config
        assert config.bi_embedding is bi_embedding
        assert config.embedding_dim == (8 if bi_embedding else 6)
        assert main(["eval", str(out_dir / "model.ckpt"), str(data),
                     "--embeddings", str(emb), *second]) == 0


def test_one_config_file_serves_every_command(workspace, capsys):
    """A file may hold every key; each command reads only its own."""
    tmp_path, emb, data = workspace
    emb2 = tmp_path / "emb2.txt"
    emb2.write_text("w0 1.0 2.0\nzz 3.0 4.0\n")
    out_dir = tmp_path / "shared"
    values = {
        "learning_rate": 0.01, "batch_size": 4, "epochs": 1, "dropout_rate": 0.1, "seed": 3,
        "k": 4, "biway": "true", "oov_window": 2, "train_path": data, "val_path": data,
        "embeddings": emb, "embeddings2": emb2, "out_dir": out_dir,
        "seeds": "1,2", "max_train_pairs": 6, "max_val_pairs": 6,
    }
    assert values.keys() == CONFIG_SCHEMA.keys()
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    for argv in (["train"], ["ensemble-train"],
                 ["eval", str(out_dir / "model.ckpt"), str(data)],
                 ["eval", str(out_dir / "ensemble.json"), str(data)],
                 ["predict", str(out_dir / "ensemble.json"), "w0 w1", "w2"],
                 ["match", "w0 w1", "w2"]):
        assert main([*argv, "--config", str(cfg)]) == 0, argv
    assert load_checkpoint(out_dir / "model.ckpt").config.bi_embedding


def test_match_reads_only_oov_window(workspace, capsys):
    tmp_path, emb, _ = workspace
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 0\nk = 0\ndropout_rate = 2\nseeds = 1,1\noov_window = 1\n")
    sentences, expected = MATCH_PINNED[2][0][:2], MATCH_PINNED[2][1]
    assert main(["match", *sentences, "--config", str(cfg), "--embeddings", str(emb)]) == 0
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported_as_an_error(workspace, capsys):
    tmp_path, emb, data = workspace
    rc = main(["train", "--embeddings", str(emb), "--train-path", str(data),
               "--val-path", str(data), "--out-dir", str(tmp_path / "run"),
               "--max-train-pairs", "2", "--learning-rate", "1e300", "--epochs", "3",
               "--batch-size", "1", "--k", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite") and "Traceback" not in err


def test_train_predict_eval_cycle(workspace, capsys):
    tmp_path, emb, data = workspace
    out_dir = tmp_path / "run"
    rc = main(
        [
            "train",
            "--embeddings", str(emb),
            "--train-path", str(data),
            "--val-path", str(data),
            "--out-dir", str(out_dir),
            "--k", "8",
            "--epochs", "2",
            "--batch-size", "4",
            "--seed", "1",
        ]
    )
    assert rc == 0
    ckpt = out_dir / "model.ckpt"
    assert ckpt.exists()
    assert (out_dir / "metrics.tsv").exists()
    capsys.readouterr()

    rc = main(["predict", str(ckpt), "w0 w1 w2 w3", "w4 w5", "--embeddings", str(emb)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "label:" in out and "Entailment:" in out

    rc = main(["eval", str(ckpt), str(data), "--embeddings", str(emb)])
    assert rc == 0
    assert "accuracy:" in capsys.readouterr().out


def test_eval_dimension_mismatch_fails(workspace, tmp_path, capsys):
    tmp_path_ws, emb, data = workspace
    out_dir = tmp_path_ws / "run2"
    main(
        [
            "train",
            "--embeddings", str(emb),
            "--train-path", str(data),
            "--val-path", str(data),
            "--out-dir", str(out_dir),
            "--k", "6", "--epochs", "1", "--batch-size", "4",
        ]
    )
    capsys.readouterr()
    wrong_emb = tmp_path_ws / "wrong.txt"
    wrong_emb.write_text("w0 0.1 0.2\nw1 0.3 0.4\n")
    rc = main(["eval", str(out_dir / "model.ckpt"), str(data), "--embeddings", str(wrong_emb)])
    assert rc == 1
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_missing_checkpoint_fails(workspace, capsys, command):
    tmp_path, emb, data = workspace
    missing = tmp_path / "missing.ckpt"
    rest = [str(data)] if command == "eval" else ["w0 w1", "w2"]
    assert main([command, str(missing), *rest, "--embeddings", str(emb)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_eval_bad_manifest_fails(workspace, capsys):
    tmp_path, emb, data = workspace
    bad = tmp_path / "bad.json"
    bad.write_text('{"members": 3}')
    assert main(["eval", str(bad), str(data), "--embeddings", str(emb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: bad manifest") and "Traceback" not in err


def test_eval_deeply_nested_manifest_fails(workspace, capsys):
    tmp_path, emb, data = workspace
    bad = tmp_path / "deep.json"
    bad.write_text('{"members": ' + "[" * 100_000)
    assert main(["eval", str(bad), str(data), "--embeddings", str(emb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: bad manifest") and "Traceback" not in err


def test_ensemble_train_and_eval(workspace, capsys):
    tmp_path, emb, data = workspace
    out_dir = tmp_path / "ens"
    rc = main(
        [
            "ensemble-train",
            "--embeddings", str(emb),
            "--train-path", str(data),
            "--val-path", str(data),
            "--out-dir", str(out_dir),
            "--k", "6", "--epochs", "1", "--batch-size", "4",
            "--seeds", "1,2",
        ]
    )
    assert rc == 0
    manifest = out_dir / "ensemble.json"
    assert manifest.exists()
    capsys.readouterr()
    rc = main(["eval", str(manifest), str(data), "--embeddings", str(emb)])
    assert rc == 0
    assert "accuracy:" in capsys.readouterr().out


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """`maxcosine *argv` in a new interpreter, so logging starts unconfigured."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "maxcosine.cli", *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=300)


def test_epoch_lines_show_only_with_verbose(workspace):
    tmp_path, emb, data = workspace
    common = ["--embeddings", str(emb), "--train-path", str(data), "--val-path", str(data),
              "--k", "4", "--epochs", "2", "--batch-size", "6"]
    quiet = run_cli("train", *common, "--out-dir", str(tmp_path / "one"))
    assert quiet.stderr == ""
    assert [line.split(" ")[0] for line in quiet.stdout.splitlines()] == ["best", "checkpoint:"]
    loud = run_cli("-v", "ensemble-train", *common, "--out-dir", str(tmp_path / "two"),
                   "--seeds", "3,4")
    epochs = sorted(re.findall(r"^INFO seed (\d) epoch (\d): ", loud.stderr, re.MULTILINE))
    assert epochs == [("3", "1"), ("3", "2"), ("4", "1"), ("4", "2")]


@pytest.fixture
def trained_group(workspace, capsys):
    """A two-member ensemble trained on the workspace: its manifest, the manifest
    led by whitespace, and the first member's checkpoint."""
    tmp_path, emb, data = workspace
    out_dir = tmp_path / "group"
    assert main(["ensemble-train", "--embeddings", str(emb), "--train-path", str(data),
                 "--val-path", str(data), "--out-dir", str(out_dir), "--k", "6",
                 "--epochs", "2", "--batch-size", "4", "--seeds", "1,2"]) == 0
    capsys.readouterr()
    padded = out_dir / "padded.json"
    padded.write_text("\n  " + (out_dir / "ensemble.json").read_text())
    return {"manifest": out_dir / "ensemble.json", "padded_manifest": padded,
            "checkpoint": out_dir / "member_seed1.ckpt"}


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("content", [b"", b"MCLSTM", b"\x00\x01\xff binary", b"not json\n"],
                         ids=["empty", "cut_magic", "binary", "text"])
def test_file_neither_checkpoint_nor_manifest_fails(workspace, capsys, command, content):
    tmp_path, emb, data = workspace
    path = tmp_path / "group"
    path.write_bytes(content)
    rest = [str(data)] if command == "eval" else ["w0 w1", "w2"]
    assert main([command, str(path), *rest, "--embeddings", str(emb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad manifest") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["checkpoint", "manifest", "padded_manifest"])
def test_eval_prints_per_pair_scores(workspace, trained_group, capsys, kind):
    tmp_path, emb, data = workspace
    assert main(["eval", str(trained_group[kind]), str(data), "--embeddings", str(emb)]) == 0
    # the loop eval ran before it shared training's batched evaluation
    lib, group = load_text_format(emb), load_ensemble(trained_group[kind])
    pairs = load_snli(data)[0]
    confusion = np.zeros((3, 3), dtype=np.int64)
    for pair in pairs:
        confusion[pair.label - 1, predict_ensemble(group, pair, lib)[1] - 1] += 1
    correct = int(np.trace(confusion))
    expected = [f"accuracy: {correct / len(pairs):.4f} ({correct}/{len(pairs)})",
                "confusion (rows gold, cols predicted; E C N):"]
    expected += [f"  {name}  " + " ".join(f"{v:7d}" for v in row)
                 for name, row in zip("ECN", confusion)]
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("kind", ["checkpoint", "manifest", "padded_manifest"])
def test_predict_prints_member_mean(workspace, trained_group, capsys, kind):
    tmp_path, emb, data = workspace
    assert main(["predict", str(trained_group[kind]), "w0 w1 w2 w3", "w4 w5",
                 "--embeddings", str(emb)]) == 0
    lib, group = load_text_format(emb), load_ensemble(trained_group[kind])
    pair = SentencePair(("w0", "w1", "w2", "w3"), ("w4", "w5"), label=1, id=0)
    probs, label = predict_ensemble(group, pair, lib)
    expected = [f"{name}: {probs[i - 1]:.6f}" for i, name in LABEL_NAMES.items()]
    assert capsys.readouterr().out.splitlines() == expected + [f"label: {LABEL_NAMES[label]}"]


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_manifest_of_one_seed_twice_fails_before_scoring(workspace, trained_group, capsys,
                                                         command):
    tmp_path, emb, data = workspace
    manifest = trained_group["manifest"].with_name("twice.json")
    manifest.write_text(json.dumps({"members": [{"checkpoint": "member_seed1.ckpt"}] * 2}))
    rest = [str(data)] if command == "eval" else ["w0 w1", "w2"]
    assert main([command, str(manifest), *rest, "--embeddings", str(emb)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {manifest}: ensemble seeds must be pairwise distinct, got [1, 1]\n")


def test_predict_dimension_mismatch_fails(workspace, trained_group, capsys):
    tmp_path, _, _ = workspace
    wrong_emb = tmp_path / "wrong.txt"
    wrong_emb.write_text("w0 0.1 0.2\nw1 0.3 0.4\n")
    assert main(["predict", str(trained_group["manifest"]), "w0", "w1",
                 "--embeddings", str(wrong_emb)]) == 1
    assert "dimension" in capsys.readouterr().err


def test_predict_empty_hypothesis_fails(workspace, capsys):
    tmp_path, emb, data = workspace
    out_dir = tmp_path / "run3"
    main(
        [
            "train",
            "--embeddings", str(emb),
            "--train-path", str(data),
            "--val-path", str(data),
            "--out-dir", str(out_dir),
            "--k", "4", "--epochs", "1", "--batch-size", "4",
        ]
    )
    capsys.readouterr()
    rc = main(["predict", str(out_dir / "model.ckpt"), "w0 w1", "...", "--embeddings", str(emb)])
    assert rc == 1


def test_seed_env_fallback(workspace, monkeypatch, tmp_path):
    ws, emb, data = workspace
    monkeypatch.setenv("MAXCOSINE_SEED", "7")
    out_a = ws / "env_a"
    out_b = ws / "env_b"
    for out in (out_a, out_b):
        assert main(
            [
                "train",
                "--embeddings", str(emb),
                "--train-path", str(data),
                "--val-path", str(data),
                "--out-dir", str(out),
                "--k", "4", "--epochs", "1", "--batch-size", "4",
            ]
        ) == 0
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


def test_bad_seed_env_names_the_variable(workspace, monkeypatch, capsys):
    ws, emb, data = workspace
    monkeypatch.setenv("MAXCOSINE_SEED", "x")
    assert main(["train", "--embeddings", str(emb), "--train-path", str(data),
                 "--val-path", str(data), "--out-dir", str(ws / "env_bad")]) == 1
    assert capsys.readouterr().err == "error: bad value for MAXCOSINE_SEED: 'x'\n"
    assert not (ws / "env_bad").exists()
    # an integer is checked by a model's seed rule, before any file is read
    monkeypatch.setenv("MAXCOSINE_SEED", "-1")
    missing = str(ws / "missing")
    assert main(["train", "--embeddings", missing, "--train-path", missing,
                 "--val-path", missing, "--out-dir", str(ws / "env_bad")]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not (ws / "env_bad").exists()
    # a command without a seed does not read the variable
    assert main(["match", "w0 w1", "w2", "--embeddings", str(emb)]) == 0


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cmd in ("train", "eval", "predict", "match", "ensemble-train", "gradcheck", "embed-convert"):
        assert cmd in out


def _readme_commands() -> list[str]:
    """Every `maxcosine ...` line of README.md, with `\\` continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = text.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("maxcosine ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 7
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        assert callable(args.func), command


def _readme_settings_table() -> dict[str, set[str]]:
    """The README's table of the settings each subcommand takes, as flags."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Setting |"))
    commands = [cell.strip().strip("`") for cell in lines[start].strip("|").split("|")][1:]
    table = {command: {"--config"} for command in commands}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, *marks = (cell.strip() for cell in line.strip("|").split("|"))
        for command, mark in zip(commands, marks):
            if mark:
                table[command] |= _flags([key.strip("`")])
    return table


def test_readme_settings_table_matches_parser():
    table = _readme_settings_table()
    assert sorted(table) == ["ensemble-train", "eval", "match", "predict", "train"]
    flags = _command_flags()
    for command, documented in table.items():
        assert documented == flags[command], command
