"""Inter-rater agreement: Fleiss' kappa and 2-of-3 adjudication."""

import numpy as np
import pytest

from snapgrid.annotation import (
    AnnotationMatrix,
    adjudicate,
    fleiss_kappa,
    load_annotations_csv,
    matrix_from_long,
)
from snapgrid.errors import SnapGridError


def matrix(counts, categories=("driving", "non_driving")):
    counts = np.asarray(counts, dtype=np.int64)
    return AnnotationMatrix(
        item_ids=tuple(f"item{i}" for i in range(counts.shape[0])),
        categories=tuple(categories),
        counts=counts,
    )


# ---------------------------------------------------------------------------
# kappa on fixed matrices with hand-evaluated values


def test_kappa_unanimous_is_one():
    m = matrix([[3, 0], [0, 3], [3, 0], [0, 3]])
    assert fleiss_kappa(m) == pytest.approx(1.0, abs=1e-12)


def test_kappa_single_category_is_one():
    # every rating lands in one category: expected agreement is 1, so the
    # usual formula divides 0/0; complete agreement wins the tie
    m = matrix([[3, 0], [3, 0]])
    assert fleiss_kappa(m) == 1.0


def test_kappa_perfect_disagreement():
    # two raters, two items, both split: observed agreement 0, chance 1/2
    m = matrix([[1, 1], [1, 1]])
    assert fleiss_kappa(m) == pytest.approx(-1.0, abs=1e-12)


def test_kappa_mixed_five_items():
    # P_bar = 3/5, column shares (8/15, 7/15), P_e = 113/225,
    # kappa = (135 - 113)/(225 - 113) = 11/56
    m = matrix([[3, 0], [2, 1], [1, 2], [0, 3], [2, 1]])
    assert fleiss_kappa(m) == pytest.approx(11.0 / 56.0, abs=1e-10)


def test_kappa_invariant_under_item_order():
    rows = [[3, 0], [2, 1], [1, 2], [0, 3], [2, 1]]
    base = fleiss_kappa(matrix(rows))
    rng = np.random.default_rng(3)
    for _ in range(10):
        perm = rng.permutation(len(rows))
        shuffled = matrix([rows[i] for i in perm])
        assert fleiss_kappa(shuffled) == pytest.approx(base, abs=1e-12)


def test_kappa_invariant_under_category_swap():
    rows = np.array([[3, 0], [2, 1], [1, 2], [0, 3], [2, 1]])
    assert fleiss_kappa(matrix(rows)) == pytest.approx(
        fleiss_kappa(matrix(rows[:, ::-1])), abs=1e-12
    )


def test_kappa_three_categories():
    # hand evaluation: P_i = (sum n_ij^2 - n) / (n(n-1)) with n = 3
    m = matrix([[2, 1, 0], [0, 3, 0], [1, 1, 1]], categories=("a", "b", "c"))
    p_bar = ((4 + 1 - 3) / 6 + (9 - 3) / 6 + (3 - 3) / 6) / 3  # = (1/3 + 1 + 0)/3
    shares = np.array([3, 5, 1]) / 9
    p_e = float((shares**2).sum())
    expected = (p_bar - p_e) / (1 - p_e)
    assert fleiss_kappa(m) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# long-format pivot


def test_matrix_from_long_basic():
    rows = [
        ("s1", "r1", "driving"),
        ("s1", "r2", "driving"),
        ("s1", "r3", "non_driving"),
        ("s2", "r1", "non_driving"),
        ("s2", "r2", "non_driving"),
        ("s2", "r3", "non_driving"),
    ]
    m = matrix_from_long(rows)
    assert m.item_ids == ("s1", "s2")
    assert m.categories == ("driving", "non_driving")
    assert m.counts.tolist() == [[2, 1], [0, 3]]
    assert m.n_raters == 3


def test_matrix_from_long_truncates_extra_raters():
    rows = [("s1", f"r{i}", "driving") for i in range(4)]
    rows += [("s2", "r0", "non_driving"), ("s2", "r1", "driving"), ("s2", "r2", "driving")]
    m = matrix_from_long(rows)
    # the fourth rating of s1 is dropped, keeping a constant rater count
    assert m.counts.sum(axis=1).tolist() == [3, 3]
    assert m.counts[0].tolist() == [3, 0]


def test_matrix_from_long_rejects_duplicates():
    rows = [("s1", "r1", "driving"), ("s1", "r1", "driving"), ("s1", "r2", "driving")]
    with pytest.raises(SnapGridError, match="^duplicate rating for item 's1' by rater 'r1'$"):
        matrix_from_long(rows)


def test_matrix_from_long_rejects_short_items():
    rows = [
        ("s1", "r1", "driving"),
        ("s1", "r2", "driving"),
        ("s1", "r3", "driving"),
        ("s2", "r1", "driving"),
    ]
    with pytest.raises(SnapGridError, match="^item 's2' has 1 ratings, need 3$"):
        matrix_from_long(rows)


def test_annotations_csv_round_trip(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(
        "item_id,rater_id,category\n"
        "s1,r1,driving\ns1,r2,driving\ns1,r3,non_driving\n"
        "s2,r1,non_driving\ns2,r2,non_driving\ns2,r3,non_driving\n"
    )
    m = load_annotations_csv(path)
    assert m.counts.tolist() == [[2, 1], [0, 3]]


# ---------------------------------------------------------------------------
# adjudication


def test_adjudicate_two_of_three():
    m = matrix([[3, 0], [2, 1], [1, 2], [0, 3]])
    labels = adjudicate(m)
    assert [g.label for g in labels] == ["driving", "driving", "non_driving", "non_driving"]
    assert [g.support for g in labels] == [3, 2, 2, 3]


def test_adjudicate_requires_binary_categories():
    m = matrix([[1, 1, 1]], categories=("a", "b", "c"))
    with pytest.raises(SnapGridError, match="^adjudication needs 2 categories, got 3$"):
        adjudicate(m)


def test_adjudicate_unknown_category():
    m = matrix([[2, 1]], categories=("non_driving", "walking"))  # no driving category
    with pytest.raises(SnapGridError, match="^unknown category 'driving'$"):
        adjudicate(m)


def test_matrix_requires_constant_rater_count():
    with pytest.raises(SnapGridError, match="^rows must share a constant rater count$"):
        matrix([[2, 1], [1, 1]])
