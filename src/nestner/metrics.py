"""Strict mention-level scoring: a prediction counts only on exact (type, span) match."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Mention, NestnerError


@dataclass(frozen=True)
class Score:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def __add__(self, other: "Score") -> "Score":
        return Score(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def score_mentions(
    gold: Sequence[Iterable[Mention]],
    pred: Sequence[Iterable[Mention]],
) -> tuple[Score, dict[str, Score]]:
    """Micro-averaged strict score plus a per-entity-type breakdown.

    ``gold`` and ``pred`` are parallel per-sentence mention collections;
    mentions match only when both span and type are identical. Each
    sentence's matches, false positives and misses are counted by type in
    one pass over ``g & p``, ``p - g`` and ``g - p``.
    """
    if len(gold) != len(pred):
        raise NestnerError(
            f"sentence count mismatch: {len(gold)} gold vs {len(pred)} predicted"
        )
    counts: dict[str, list[int]] = {}  # type -> [tp, fp, fn]
    for gold_sentence, pred_sentence in zip(gold, pred):
        g = frozenset(gold_sentence)
        p = frozenset(pred_sentence)
        for slot, mentions in enumerate((g & p, p - g, g - p)):
            for entity_type, _ in mentions:
                row = counts.get(entity_type)
                if row is None:
                    row = counts[entity_type] = [0, 0, 0]
                row[slot] += 1
    per_type = {entity_type: Score(*row) for entity_type, row in counts.items()}
    overall = sum(per_type.values(), Score())
    return overall, per_type


def report_records(overall: Score, per_type: dict[str, Score]) -> list[dict]:
    """Structured rows, one per type plus an "ALL" row, for line-delimited output."""
    rows = []
    for name, s in [("ALL", overall)] + sorted(per_type.items()):
        rows.append(
            {
                "type": name,
                "tp": s.tp,
                "fp": s.fp,
                "fn": s.fn,
                "p": s.precision,
                "r": s.recall,
                "f1": s.f1,
            }
        )
    return rows


def format_report(overall: Score, per_type: dict[str, Score]) -> str:
    header = f"{'type':<12} {'tp':>6} {'fp':>6} {'fn':>6} {'prec':>8} {'rec':>8} {'f1':>8}"
    lines = [header]
    for row in report_records(overall, per_type):
        lines.append(
            f"{row['type']:<12} {row['tp']:>6} {row['fp']:>6} {row['fn']:>6} "
            f"{row['p']:>8.4f} {row['r']:>8.4f} {row['f1']:>8.4f}"
        )
    return "\n".join(lines)
