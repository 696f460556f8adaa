import json

import pytest
from hypothesis import given, strategies as st

from maxcosine.data import (
    CONTRADICTION,
    ENTAILMENT,
    NEUTRAL,
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
        with pytest.raises(ValueError, match="malformed"):
            load_snli(write_jsonl(tmp_path / "d.jsonl", rows))

    def test_counts_sum_to_line_count(self, tmp_path):
        rows = [
            {"gold_label": "entailment", "sentence1": "a b", "sentence2": "c"},
            {"gold_label": "-", "sentence1": "a", "sentence2": "b"},
            {"gold_label": "neutral", "sentence1": "!!", "sentence2": "c"},
        ]
        rows += [{"gold_label": "neutral", "sentence1": "x y", "sentence2": "z"}] * 300
        _, report = load_snli(write_jsonl(tmp_path / "d.jsonl", rows))
        assert report.consistent()
