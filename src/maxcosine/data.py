"""SNLI-style data ingestion: JSON-lines parsing, label mapping, tokenization."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import Optional

log = logging.getLogger(__name__)

ENTAILMENT, CONTRADICTION, NEUTRAL = 1, 2, 3
LABEL_VALUES = {"entailment": ENTAILMENT, "contradiction": CONTRADICTION, "neutral": NEUTRAL}
LABEL_NAMES = {ENTAILMENT: "Entailment", CONTRADICTION: "Contradiction", NEUTRAL: "Neutral"}

# the lone surrogates that decoding with errors="surrogateescape" puts for bytes
# that are not UTF-8
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class DataFormatError(ValueError):
    """Raised when a dataset file has too many malformed lines to load."""


@dataclass(frozen=True)
class SentencePair:
    premise_tokens: tuple[str, ...]
    hypothesis_tokens: tuple[str, ...]
    label: int
    id: int

    def __post_init__(self):
        if self.label not in LABEL_NAMES:
            raise ValueError(f"label must be 1, 2, or 3, got {self.label}")


@dataclass
class LoadReport:
    total_lines: int = 0
    emitted: int = 0
    skipped_unknown_label: int = 0
    skipped_empty_tokenization: int = 0
    malformed: int = 0
    malformed_lines: list[int] = field(default_factory=list)

    def consistent(self) -> bool:
        return (
            self.total_lines
            == self.emitted
            + self.skipped_unknown_label
            + self.skipped_empty_tokenization
            + self.malformed
        )


def tokenize(sentence: str) -> list[str]:
    """Lowercase, split on whitespace, strip non-alphanumeric edges, drop empties."""
    out = []
    for raw in sentence.lower().split():
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        if end > start:
            out.append(raw[start:end])
    return out


def _fields(line: str) -> Optional[tuple[str, str, str]]:
    """(gold_label, sentence1, sentence2) of one JSONL line, the label "-" when
    absent; None if the line is not a JSON object with string fields there."""
    if not line.isascii() and _UNDECODABLE.search(line):  # isascii() is O(1)
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):  # ValueError includes JSONDecodeError
        return None
    if not isinstance(obj, dict):
        return None
    label = obj.get("gold_label", "-")
    premise, hypothesis = obj.get("sentence1"), obj.get("sentence2")
    if isinstance(label, str) and isinstance(premise, str) and isinstance(hypothesis, str):
        return label, premise, hypothesis
    return None


def load_snli(path, max_pairs: Optional[int] = None) -> tuple[list[SentencePair], LoadReport]:
    """Parse one JSON object per line; skip unknown-label and empty-tokenization pairs.

    A line that is not valid UTF-8, not JSON, or not an object with string
    `sentence1`, `sentence2` and (optional) `gold_label` fields is malformed:
    it is counted, and its number logged. More than 1% malformed lines raise
    DataFormatError. `max_pairs`, when given, must be at least 1.
    """
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(f"{path}: max_pairs must be >= 1, got {max_pairs}")
    pairs: list[SentencePair] = []
    report = LoadReport()
    # undecodable bytes become lone surrogates, found per line by _fields; only
    # LF ends a line, so a raw CR inside one leaves the later line numbers alone
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            report.total_lines += 1
            fields = _fields(line)
            if fields is None:
                report.malformed += 1
                report.malformed_lines.append(lineno)
                log.warning("%s:%d: malformed line, skipping", path, lineno)
                continue
            label_raw, premise, hypothesis = fields
            if label_raw not in LABEL_VALUES:
                report.skipped_unknown_label += 1
                continue
            prem = tokenize(premise)
            hyp = tokenize(hypothesis)
            if not prem or not hyp:
                report.skipped_empty_tokenization += 1
                continue
            pairs.append(
                SentencePair(
                    premise_tokens=tuple(prem),
                    hypothesis_tokens=tuple(hyp),
                    label=LABEL_VALUES[label_raw],
                    id=lineno,
                )
            )
            report.emitted += 1
            if max_pairs is not None and report.emitted >= max_pairs:
                break
    if report.total_lines and report.malformed > 0.01 * report.total_lines:
        raise DataFormatError(
            f"{path}: {report.malformed}/{report.total_lines} malformed lines (>1%), aborting"
        )
    return pairs, report
