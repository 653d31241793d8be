"""Multi-annotator adjudication and chance-corrected agreement.

Raw annotations arrive in long form (item_id, rater_id, category) and are
pivoted into an N x k count matrix with three raters per item. Items
rated by more than three people keep only their first three ratings in
input order; items with fewer are rejected. Ground truth uses a two-of-n
agreement rule, and agreement quality is quantified with Fleiss' kappa.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import SnapGridError


@dataclass(frozen=True, eq=False)
class AnnotationMatrix:
    """Per-item category counts with a constant rater count.

    ``counts[i, j]`` is the number of raters assigning category ``j`` to
    item ``i``; every row sums to the same rater count.
    """

    item_ids: tuple[str, ...]
    categories: tuple[str, ...]
    counts: np.ndarray  # int, shape (N, k)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2 or counts.shape != (len(self.item_ids), len(self.categories)):
            raise SnapGridError(f"counts shape {counts.shape} does not match ids/categories")
        if len(self.categories) < 2:
            raise SnapGridError("need at least 2 categories")
        if (counts < 0).any():
            raise SnapGridError("counts must be nonnegative")
        row_sums = counts.sum(axis=1)
        if len(row_sums) and not (row_sums == row_sums[0]).all():
            raise SnapGridError("rows must share a constant rater count")

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_raters(self) -> int:
        return int(self.counts.sum(axis=1)[0]) if self.n_items else 0


N_RATERS = 3


def matrix_from_long(rows: Iterable[tuple[str, str, str]]) -> AnnotationMatrix:
    """Pivot long-form (item_id, rater_id, category) rows into a matrix.

    Keeps the first ``N_RATERS`` ratings per item in input order; raises
    on duplicate (item, rater) pairs or on items with fewer ratings.
    """
    per_item: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    categories: set[str] = set()
    for item_id, rater_id, category in rows:
        key = (item_id, rater_id)
        if key in seen:
            raise SnapGridError(f"duplicate rating for item {item_id!r} by rater {rater_id!r}")
        seen.add(key)
        categories.add(category)
        ratings = per_item.setdefault(item_id, [])
        if len(ratings) < N_RATERS:
            ratings.append(category)
    cats = tuple(sorted(categories))
    col = {c: j for j, c in enumerate(cats)}
    item_ids = tuple(per_item)
    counts = np.zeros((len(item_ids), len(cats)), dtype=np.int64)
    for i, item_id in enumerate(item_ids):
        ratings = per_item[item_id]
        if len(ratings) < N_RATERS:
            raise SnapGridError(
                f"item {item_id!r} has {len(ratings)} ratings, need {N_RATERS}"
            )
        for category in ratings:
            counts[i, col[category]] += 1
    return AnnotationMatrix(item_ids=item_ids, categories=cats, counts=counts)


def load_annotations_csv(path: Union[str, Path]) -> AnnotationMatrix:
    """Read a long-form annotation CSV with columns item_id, rater_id, category.

    A file that is not UTF-8, a missing column, a short row or a set of ratings that makes no matrix
    raises :class:`SnapGridError` naming the file, and the line of a short row.
    """
    columns = ("item_id", "rater_id", "category")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise SnapGridError(f"{path}: no {missing[0]!r} column")
            rows = []
            for row in reader:
                fields = tuple(row[c] for c in columns)
                if None in fields:
                    raise SnapGridError(f"{path}: line {reader.line_num}: a row needs {len(columns)} fields")
                rows.append(fields)
    except UnicodeDecodeError as exc:
        raise SnapGridError(f"{path}: not UTF-8 text") from exc
    try:
        return matrix_from_long(rows)
    except SnapGridError as exc:
        raise SnapGridError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class GroundTruthLabel:
    item_id: str
    label: str
    support: int


def adjudicate(matrix: AnnotationMatrix, positive_category: str) -> list[GroundTruthLabel]:
    """Two-of-n adjudication: positive iff at least 2 raters chose the positive category.

    Binary matrices only. ``support`` is the number of raters agreeing
    with the assigned label.
    """
    if len(matrix.categories) != 2:
        raise SnapGridError(f"adjudication needs 2 categories, got {len(matrix.categories)}")
    if positive_category not in matrix.categories:
        raise SnapGridError(f"unknown category {positive_category!r}")
    if matrix.n_raters < 2:
        raise SnapGridError(f"need at least 2 raters per item, got {matrix.n_raters}")
    pos = matrix.categories.index(positive_category)
    neg = 1 - pos
    negative_category = matrix.categories[neg]
    labels = []
    for i, item_id in enumerate(matrix.item_ids):
        if matrix.counts[i, pos] >= 2:
            labels.append(GroundTruthLabel(item_id, positive_category, int(matrix.counts[i, pos])))
        else:
            labels.append(GroundTruthLabel(item_id, negative_category, int(matrix.counts[i, neg])))
    return labels


def fleiss_kappa(matrix: AnnotationMatrix) -> float:
    """Fleiss' kappa for a fixed number of raters per item.

    kappa = (P_bar - Pe_bar) / (1 - Pe_bar), where per-item agreement is
    P_i = (sum_j n_ij^2 - n) / (n (n - 1)) and chance agreement Pe_bar is
    the sum of squared category shares. When every rating lands in a
    single category, chance agreement is 1 and kappa is defined as 1.
    """
    if matrix.n_items < 1:
        raise SnapGridError("need at least one item")
    n = matrix.n_raters
    if n < 2:
        raise SnapGridError(f"need at least 2 raters per item, got {n}")
    counts = matrix.counts.astype(float)
    p_i = (np.square(counts).sum(axis=1) - n) / (n * (n - 1))
    p_bar = float(p_i.mean())
    shares = counts.sum(axis=0) / (matrix.n_items * n)
    pe_bar = float(np.square(shares).sum())
    if pe_bar >= 1.0:
        # Every rating in one category: observed agreement is necessarily
        # perfect, so report full agreement instead of 0/0.
        return 1.0
    return (p_bar - pe_bar) / (1.0 - pe_bar)
