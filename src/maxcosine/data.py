"""SNLI-style data ingestion: JSON-lines parsing, label mapping, tokenization."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Optional

log = logging.getLogger(__name__)

ENTAILMENT, CONTRADICTION, NEUTRAL = 1, 2, 3
LABEL_VALUES = {"entailment": ENTAILMENT, "contradiction": CONTRADICTION, "neutral": NEUTRAL}
LABEL_NAMES = {ENTAILMENT: "Entailment", CONTRADICTION: "Contradiction", NEUTRAL: "Neutral"}


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


def load_snli(path, max_pairs: Optional[int] = None) -> tuple[list[SentencePair], LoadReport]:
    """Parse one JSON object per line; skip unknown-label and empty-tokenization pairs.

    Aborts if more than 1% of lines are malformed.
    """
    pairs: list[SentencePair] = []
    report = LoadReport()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            report.total_lines += 1
            try:
                obj = json.loads(line)
                label_raw = obj.get("gold_label", "-")
                premise = obj["sentence1"]
                hypothesis = obj["sentence2"]
            except (json.JSONDecodeError, KeyError, TypeError):
                report.malformed += 1
                report.malformed_lines.append(lineno)
                log.warning("%s:%d: malformed line, skipping", path, lineno)
                continue
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
        raise ValueError(
            f"{path}: {report.malformed}/{report.total_lines} malformed lines (>1%), aborting"
        )
    return pairs, report
