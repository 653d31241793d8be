"""Per-clip vote aggregation and prediction evaluation.

A clip is classified by binarizing per-frame scores and folding the frame
labels into one clip label under a voting rule:

* ``single``   - positive when at least one frame is positive;
* ``majority`` - positive when strictly more than half the frames are;
* ``threshold``- positive when strictly more than p% of the frames are,
  for p in {10, 30, 50, 70, 90}.

All rules are strict (ties resolve negative), which makes them one
monotone family: single implies threshold(10) implies ... implies
threshold(90) on the positive side.

Frame scores come from an external per-frame classifier (or, for
synthetic corpora, from the generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import EmptyInputError, ShapeError
from .records import DRIVING, NON_DRIVING, SnapRecord

THRESHOLD_CHOICES = (10, 30, 50, 70, 90)


@dataclass(frozen=True)
class VotingRule:
    kind: str
    threshold_pct: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("single", "majority", "threshold"):
            raise ValueError(f"unknown voting rule {self.kind!r}")
        if self.kind == "threshold":
            if self.threshold_pct not in THRESHOLD_CHOICES:
                raise ValueError(f"threshold_pct must be one of {THRESHOLD_CHOICES}, got {self.threshold_pct}")
        elif self.threshold_pct is not None:
            raise ValueError(f"threshold_pct only applies to threshold voting, not {self.kind!r}")

    @classmethod
    def single(cls) -> "VotingRule":
        return cls("single")

    @classmethod
    def majority(cls) -> "VotingRule":
        return cls("majority")

    @classmethod
    def threshold(cls, pct: int) -> "VotingRule":
        return cls("threshold", pct)


def frame_label(score: float, cutoff: float = 0.5) -> str:
    """Binarize one frame score; strictly above the cutoff counts as driving."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    return DRIVING if score > cutoff else NON_DRIVING


def labels_from_scores(scores: Sequence[float], cutoff: float = 0.5) -> list[str]:
    return [frame_label(s, cutoff) for s in scores]


def aggregate_votes(frame_labels: Sequence[str], rule: VotingRule) -> str:
    """Fold per-frame labels into one clip label under the voting rule."""
    if len(frame_labels) == 0:
        raise EmptyInputError("cannot aggregate an empty label sequence")
    positive = sum(1 for lab in frame_labels if lab == DRIVING)
    fraction = positive / len(frame_labels)
    if rule.kind == "single":
        hit = positive >= 1
    elif rule.kind == "majority":
        hit = fraction > 0.5
    else:
        hit = fraction > rule.threshold_pct / 100.0
    return DRIVING if hit else NON_DRIVING


def classify_scores(scores: Sequence[float], rule: VotingRule, cutoff: float = 0.5) -> str:
    """Score sequence -> clip label: binarize then vote."""
    return aggregate_votes(labels_from_scores(scores, cutoff), rule)


@dataclass(frozen=True)
class EvalReport:
    """Confusion-matrix metrics with the minor class treated as positive."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: tuple[int, int, int, int]  # (tp, fp, fn, tn)
    minor_class: str


def evaluate(predictions: Sequence[str], truths: Sequence[str]) -> EvalReport:
    """Accuracy/precision/recall/F1 of predictions against ground truth, driving as positive."""
    if len(predictions) != len(truths):
        raise ShapeError(f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths")
    if len(predictions) == 0:
        raise EmptyInputError("need at least one prediction")
    tp = fp = fn = tn = 0
    for pred, truth in zip(predictions, truths):
        if pred == DRIVING:
            if truth == DRIVING:
                tp += 1
            else:
                fp += 1
        else:
            if truth == DRIVING:
                fn += 1
            else:
                tn += 1
    total = tp + fp + fn + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        accuracy=(tp + tn) / total,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=(tp, fp, fn, tn),
        minor_class=DRIVING,
    )


@dataclass(frozen=True)
class ExtentReport:
    """Share of driving clips per city and pooled, with a ranking."""

    per_city: dict[str, float]
    overall: float
    ranking: tuple[tuple[str, float], ...]  # (city_id, fraction), descending


def extent(records: Sequence[SnapRecord]) -> ExtentReport:
    """Driving fraction per city and pooled over all records."""
    if not records:
        raise EmptyInputError("need at least one classified record")
    driving: dict[str, int] = {}
    totals: dict[str, int] = {}
    for rec in records:
        if rec.label is None:
            raise ValueError(f"record {rec.id!r} is unlabeled")
        totals[rec.city_id] = totals.get(rec.city_id, 0) + 1
        if rec.label == DRIVING:
            driving[rec.city_id] = driving.get(rec.city_id, 0) + 1
    per_city = {c: driving.get(c, 0) / totals[c] for c in totals}
    pooled_total = sum(totals.values())
    pooled_driving = sum(driving.get(c, 0) for c in totals)
    ranking = tuple(sorted(per_city.items(), key=lambda kv: (-kv[1], kv[0])))
    return ExtentReport(
        per_city=per_city,
        overall=pooled_driving / pooled_total,
        ranking=ranking,
    )
