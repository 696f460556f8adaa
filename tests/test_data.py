import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maxcosine.data import (
    CONTRADICTION,
    ENTAILMENT,
    NEUTRAL,
    DataFormatError,
    load_snli,
    tokenize,
)


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("John passed the exam.") == ["john", "passed", "the", "exam"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapsing(self):
        assert tokenize("  A   b ") == ["a", "b"]

    def test_strips_punctuation_edges(self):
        assert tokenize('"Hello," she said...') == ["hello", "she", "said"]

    def test_pure_punctuation_token_dropped(self):
        assert tokenize("wait --- what") == ["wait", "what"]

    @given(st.text(max_size=80))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")
    return path


class TestLoadSnli:
    def test_label_mapping(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [
                {"gold_label": "entailment", "sentence1": "a cat", "sentence2": "an animal"},
                {"gold_label": "contradiction", "sentence1": "a cat", "sentence2": "a dog"},
                {"gold_label": "neutral", "sentence1": "a cat", "sentence2": "a pet cat"},
            ],
        )
        pairs, report = load_snli(path)
        assert [p.label for p in pairs] == [ENTAILMENT, CONTRADICTION, NEUTRAL]
        assert report.emitted == 3 and report.consistent()

    def test_unknown_label_skipped(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [
                {"gold_label": "-", "sentence1": "a", "sentence2": "b"},
                {"sentence1": "a", "sentence2": "b"},
                {"gold_label": "entailment", "sentence1": "a", "sentence2": "b"},
            ],
        )
        pairs, report = load_snli(path)
        assert len(pairs) == 1
        assert report.skipped_unknown_label == 2

    def test_empty_tokenization_skipped(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [{"gold_label": "neutral", "sentence1": "...", "sentence2": "ok fine"}],
        )
        pairs, report = load_snli(path)
        assert not pairs
        assert report.skipped_empty_tokenization == 1

    def test_malformed_counted_but_tolerated(self, tmp_path):
        rows = [
            {"gold_label": "neutral", "sentence1": f"s {i}", "sentence2": f"t {i}"}
            for i in range(200)
        ]
        rows.insert(5, "{not json")
        pairs, report = load_snli(write_jsonl(tmp_path / "d.jsonl", rows))
        assert len(pairs) == 200
        assert report.malformed == 1 and report.malformed_lines == [6]
        assert report.consistent()

    def test_too_many_malformed_aborts(self, tmp_path):
        rows = ["{broken"] * 5 + [
            {"gold_label": "neutral", "sentence1": "a b", "sentence2": "c d"}
        ]
        path = write_jsonl(tmp_path / "d.jsonl", rows)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: 5/6 malformed")):
            load_snli(path)

    def test_counts_sum_to_line_count(self, tmp_path):
        rows = [
            {"gold_label": "entailment", "sentence1": "a b", "sentence2": "c"},
            {"gold_label": "-", "sentence1": "a", "sentence2": "b"},
            {"gold_label": "neutral", "sentence1": "!!", "sentence2": "c"},
        ]
        rows += [{"gold_label": "neutral", "sentence1": "x y", "sentence2": "z"}] * 300
        _, report = load_snli(write_jsonl(tmp_path / "d.jsonl", rows))
        assert report.consistent()


GOOD = {"gold_label": "neutral", "sentence1": "a b", "sentence2": "c d"}


@pytest.mark.parametrize("bad", [
    b"[1, 2]",
    b"5",
    b"null",
    json.dumps({**GOOD, "gold_label": ["x"]}).encode(),
    json.dumps({**GOOD, "gold_label": None}).encode(),
    json.dumps({**GOOD, "sentence1": 5}).encode(),
    json.dumps({**GOOD, "sentence2": {"a": 1}}).encode(),
    json.dumps({"gold_label": "neutral", "sentence1": "a b"}).encode(),
    b'{"gold_label": "neutral", "sentence1": "a \xff b", "sentence2": "c"}',
    b"\xc3",
    b"[" * 100_000 + b"]" * 100_000,
    b"1" * 5000,
], ids=["list", "number", "null", "list_label", "null_label", "number_sentence",
        "object_sentence", "missing_sentence", "invalid_utf8", "cut_utf8", "deep_nesting",
        "long_int"])
def test_wrong_shape_line_counted_as_malformed(tmp_path, bad):
    good = json.dumps(GOOD).encode()
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"\n".join([good] * 150 + [bad] + [good] * 50) + b"\n")
    pairs, report = load_snli(path)
    assert len(pairs) == 200
    assert report.malformed == 1 and report.malformed_lines == [151]
    assert report.consistent()


# JSON values whose objects use the SNLI keys, so fields of every type turn up
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["gold_label", "sentence1", "sentence2", "x"]), inner, max_size=4),
    max_leaves=8,
)
lines = st.one_of(
    st.binary(max_size=30),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({"gold_label": st.sampled_from(["neutral", "-", "entailment"]),
                           "sentence1": st.text(max_size=10), "sentence2": st.text(max_size=10)},
                          ).map(lambda v: json.dumps(v, ensure_ascii=False).encode()),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(body=st.lists(lines, max_size=12).map(b"\n".join) | st.binary(max_size=200))
def test_any_bytes_end_in_pairs_or_data_format_error(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_bytes(body)
    try:
        pairs, report = load_snli(path)
    except DataFormatError as exc:
        assert str(path) in str(exc)
    else:
        assert report.consistent() and report.emitted == len(pairs)
        assert all(p.premise_tokens and p.hypothesis_tokens for p in pairs)
