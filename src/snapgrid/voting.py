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

import numpy as np

from .errors import SnapGridError
from .records import DRIVING

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


def _decide(positive, n, rule: VotingRule):
    """Whether ``positive`` of ``n`` frames make a driving clip, for ints or integer arrays.

    Integer comparisons keep ties exact; no frames make no driving clip.
    """
    if rule.kind == "single":
        return positive >= 1
    if rule.kind == "majority":
        return 2 * positive > n
    return 100 * positive > rule.threshold_pct * n


def classify_scores(scores: np.ndarray, offsets: np.ndarray, rule: VotingRule) -> np.ndarray:
    """Each clip's vote, true for driving: clip ``i`` is ``scores[offsets[i]:offsets[i + 1]]``.

    A frame strictly above ``FRAME_CUTOFF`` is positive, and :func:`_decide`
    votes each clip. A clip with no frames is never driving.
    """
    positive = np.concatenate(([0], np.cumsum(np.asarray(scores) > FRAME_CUTOFF, dtype=np.int64)))[offsets]
    return _decide(np.diff(positive), np.diff(offsets), rule)


@dataclass(frozen=True)
class EvalReport:
    """Confusion-matrix metrics with the minor class treated as positive."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: tuple[int, int, int, int]  # (tp, fp, fn, tn)
    minor_class: str


def evaluate(predicted: np.ndarray, truths: np.ndarray) -> EvalReport:
    """Accuracy/precision/recall/F1 of predicted against true driving, two bool arrays; driving is positive."""
    if len(predicted) != len(truths):
        raise SnapGridError(f"length mismatch: {len(predicted)} predicted vs {len(truths)} true labels")
    if len(predicted) == 0:
        raise SnapGridError("need at least one predicted label")
    tp, fp = int(np.count_nonzero(predicted & truths)), int(np.count_nonzero(predicted & ~truths))
    fn, tn = int(np.count_nonzero(~predicted & truths)), int(np.count_nonzero(~predicted & ~truths))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        accuracy=(tp + tn) / len(predicted),
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


def extent(city: np.ndarray, driving: np.ndarray, cities: Sequence[str]) -> ExtentReport:
    """Driving fraction per city and pooled; ``city`` is each record's index into ``cities``, ``driving`` its vote."""
    if len(city) == 0:
        raise SnapGridError("need at least one classified record")
    totals = np.bincount(city, minlength=len(cities)).tolist()
    hits = np.bincount(city[driving], minlength=len(cities)).tolist()
    per_city = {c: hits[i] / totals[i] for i, c in enumerate(cities) if totals[i]}
    ranking = tuple(sorted(per_city.items(), key=lambda kv: (-kv[1], kv[0])))
    return ExtentReport(per_city=per_city, overall=sum(hits) / len(city), ranking=ranking)
