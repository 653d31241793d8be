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

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import EmptyInputError, ShapeError
from .records import DRIVING, NON_DRIVING, SnapRecord

THRESHOLD_CHOICES = (10, 30, 50, 70, 90)
# a frame is positive when its score is strictly above this
FRAME_CUTOFF = 0.5


@dataclass(frozen=True)
class VotingRule:
    kind: str
    threshold_pct: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("single", "majority", "threshold"):
            raise ValueError(f"unknown voting rule {self.kind!r}")
        if self.kind == "threshold":
            if type(self.threshold_pct) is not int or self.threshold_pct not in THRESHOLD_CHOICES:
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


def _decide(positive: int, n: int, rule: VotingRule) -> str:
    """The clip label for ``positive`` of ``n`` positive frames; integer comparisons keep ties exact."""
    if n == 0:
        raise EmptyInputError("cannot vote over zero frames")
    if rule.kind == "single":
        hit = positive >= 1
    elif rule.kind == "majority":
        hit = 2 * positive > n
    else:
        hit = 100 * positive > rule.threshold_pct * n
    return DRIVING if hit else NON_DRIVING


def aggregate_votes(frame_labels: Sequence[str], rule: VotingRule) -> str:
    """Fold per-frame labels into one clip label under the voting rule."""
    return _decide(sum(1 for lab in frame_labels if lab == DRIVING), len(frame_labels), rule)


def classify_scores(scores: Sequence[float], rule: VotingRule, cutoff: float = FRAME_CUTOFF) -> str:
    """Score sequence -> clip label: a frame strictly above ``cutoff`` is positive, then vote."""
    return _decide(sum(1 for s in scores if s > cutoff), len(scores), rule)


@dataclass(frozen=True)
class EvalReport:
    """Confusion-matrix metrics with the minor class treated as positive."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: tuple[int, int, int, int]  # (tp, fp, fn, tn)
    minor_class: str


def evaluate(predicted: Sequence[str], truths: Sequence[str]) -> EvalReport:
    """Accuracy/precision/recall/F1 of predicted labels against ground truth, driving as positive."""
    if len(predicted) != len(truths):
        raise ShapeError(f"length mismatch: {len(predicted)} predicted vs {len(truths)} true labels")
    if len(predicted) == 0:
        raise EmptyInputError("need at least one predicted label")
    pairs = Counter((pred == DRIVING, truth == DRIVING) for pred, truth in zip(predicted, truths))
    tp, fp, fn, tn = pairs[True, True], pairs[True, False], pairs[False, True], pairs[False, False]
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
    unlabeled = next((rec for rec in records if rec.label is None), None)
    if unlabeled is not None:
        raise ValueError(f"record {unlabeled.id!r} is unlabeled")
    totals = Counter(rec.city_id for rec in records)
    driving = Counter(rec.city_id for rec in records if rec.label == DRIVING)
    per_city = {c: driving[c] / totals[c] for c in totals}
    ranking = tuple(sorted(per_city.items(), key=lambda kv: (-kv[1], kv[0])))
    return ExtentReport(per_city=per_city, overall=sum(driving.values()) / len(records), ranking=ranking)
