"""Voting rules and classifier evaluation.

The voting rules are small enough to pin down exhaustively, so this
module leans on property-based tests (permutation invariance, label
monotonicity, threshold nesting) alongside the worked examples.
"""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snapgrid.errors import SnapGridError
from snapgrid.records import DRIVING, NON_DRIVING
from snapgrid.voting import (
    FRAME_CUTOFF,
    THRESHOLD_CHOICES,
    VotingRule,
    _decide,
    classify_scores,
    evaluate,
    extent,
)

ALL_RULES = [VotingRule("single"), VotingRule("majority")] + [
    VotingRule("threshold", p) for p in THRESHOLD_CHOICES
]

labels_strategy = st.lists(
    st.sampled_from([DRIVING, NON_DRIVING]), min_size=1, max_size=40
)
rule_strategy = st.sampled_from(ALL_RULES)


def vote(scores, rule) -> str:
    """The label :func:`classify_scores` gives one clip of ``scores``."""
    hit = classify_scores(np.array(scores, dtype=float), np.array([0, len(scores)]), rule)
    return DRIVING if hit[0] else NON_DRIVING


def vote_labels(labels, rule) -> str:
    """:func:`vote` of one clip whose frames carry ``labels``: a score of 1.0 for driving, 0.0 otherwise."""
    return vote([1.0 if lab == DRIVING else 0.0 for lab in labels], rule)


# ---------------------------------------------------------------------------
# rule construction


def test_rule_constructors_validate():
    with pytest.raises(ValueError):
        VotingRule("plurality")
    with pytest.raises(ValueError):
        VotingRule("threshold", 55)  # not one of the supported cutoffs
    with pytest.raises(ValueError):
        VotingRule("majority", threshold_pct=50)
    for pct in (30.0, True, "30"):  # only an int threshold, though 30.0 == 30
        with pytest.raises(ValueError):
            VotingRule("threshold", pct)


# ---------------------------------------------------------------------------
# worked examples


def test_single_fires_on_one_positive_frame():
    labels = [DRIVING, NON_DRIVING, NON_DRIVING]
    assert vote_labels(labels, VotingRule("single")) == DRIVING
    assert vote_labels(labels, VotingRule("majority")) == NON_DRIVING


def test_majority_is_strict():
    # exactly half the frames positive is not a majority
    assert vote_labels([DRIVING, NON_DRIVING], VotingRule("majority")) == NON_DRIVING
    assert vote_labels([DRIVING, DRIVING, NON_DRIVING], VotingRule("majority")) == DRIVING


def test_threshold_is_strict():
    labels = [DRIVING, NON_DRIVING]
    assert vote_labels(labels, VotingRule("threshold", 50)) == NON_DRIVING
    one_of_twelve = [DRIVING] + [NON_DRIVING] * 11
    assert vote_labels(one_of_twelve, VotingRule("threshold", 10)) == NON_DRIVING  # 1/12 < 0.1
    two_of_twelve = [DRIVING] * 2 + [NON_DRIVING] * 10
    assert vote_labels(two_of_twelve, VotingRule("threshold", 10)) == DRIVING


def test_a_clip_with_no_frames_is_never_driving():
    for rule in ALL_RULES:
        assert vote([], rule) == NON_DRIVING


def test_frame_label_cutoff_is_strict():
    # one frame: the clip label is the frame's label under every rule
    for rule in ALL_RULES:
        assert vote([FRAME_CUTOFF], rule) == NON_DRIVING
        assert vote([0.500001], rule) == DRIVING
        assert vote([0.499999], rule) == NON_DRIVING


def test_exact_ties_resolve_negative_at_every_length():
    # exactly p% of n frames positive is a tie; one frame more is a hit
    for n in range(10, 201, 10):
        for rule in ALL_RULES[1:]:
            pct = rule.threshold_pct or 50
            tie = pct * n // 100
            assert vote([0.9] * tie + [0.1] * (n - tie), rule) == NON_DRIVING, (n, rule)
            assert vote([0.9] * (tie + 1) + [0.1] * (n - tie - 1), rule) == DRIVING, (n, rule)


def test_classify_scores_composes_binarize_and_vote():
    scores = (0.9, 0.1, 0.2)
    assert vote(scores, VotingRule("single")) == DRIVING
    assert vote(scores, VotingRule("majority")) == NON_DRIVING


@given(
    # scores on the cutoff itself test that a frame's cutoff is strict
    st.lists(st.one_of(st.sampled_from([0.0, 0.25, FRAME_CUTOFF, 0.75, 0.9, 1.0]), st.floats(0.0, 1.0)),
             min_size=1, max_size=200),
    rule_strategy,
)
def test_classify_scores_is_the_fraction_rule(scores, rule):
    # the integer comparisons agree with the float formula they replace, and with the frames' labels voted
    positive = sum(s > FRAME_CUTOFF for s in scores)
    fraction = positive / len(scores)
    if rule.kind == "single":
        hit = positive >= 1
    elif rule.kind == "majority":
        hit = fraction > 0.5
    else:
        hit = fraction > rule.threshold_pct / 100
    frame_labels = [DRIVING if s > FRAME_CUTOFF else NON_DRIVING for s in scores]
    assert vote(scores, rule) == (DRIVING if hit else NON_DRIVING)
    assert vote(scores, rule) == vote_labels(frame_labels, rule)


@st.composite
def clip(draw):
    """One clip's frame scores: often empty, a single frame, or an exact tie under some rule."""
    frame = st.one_of(st.sampled_from([0.0, FRAME_CUTOFF, 1.0, 0.9, 0.1]), st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["empty", "single", "free", "tie"]))
    if kind == "empty":
        return []
    if kind == "single":
        return [draw(frame)]
    if kind == "free":
        return draw(st.lists(frame, min_size=1, max_size=40))
    # n a multiple of 10 puts an exact tie at 50% and at every threshold; shift it by one frame or none
    n = 10 * draw(st.integers(1, 12))
    pct = draw(st.sampled_from((50, *THRESHOLD_CHOICES)))
    positive = min(n, max(0, pct * n // 100 + draw(st.sampled_from([-1, 0, 0, 1]))))
    low = draw(st.sampled_from([0.0, FRAME_CUTOFF]))  # a score on the cutoff is not positive
    return draw(st.permutations([1.0] * positive + [low] * (n - positive)))


@given(st.data(), rule_strategy)
def test_column_vote_matches_decide(data, rule):
    # empty clips at the start and the end of the offsets, and wherever the draw puts them between
    clips = [[]] * data.draw(st.integers(0, 2)) + data.draw(st.lists(clip(), max_size=25))
    clips += [[]] * data.draw(st.integers(0, 2))
    offsets = np.cumsum([0] + [len(c) for c in clips])
    scores = np.array([s for c in clips for s in c], dtype=float)
    got = classify_scores(scores, offsets, rule)
    want = [bool(c) and _decide(sum(s > FRAME_CUTOFF for s in c), len(c), rule) for c in clips]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# properties


@given(labels_strategy, rule_strategy, st.integers(0, 2**31))
def test_aggregate_invariant_under_frame_order(labels, rule, seed):
    shuffled = labels[:]
    random.Random(seed).shuffle(shuffled)
    assert vote_labels(shuffled, rule) == vote_labels(labels, rule)


@given(labels_strategy, rule_strategy)
def test_flipping_a_frame_positive_is_monotone(labels, rule):
    before = vote_labels(labels, rule)
    for i, lab in enumerate(labels):
        if lab == NON_DRIVING:
            flipped = labels[:i] + [DRIVING] + labels[i + 1 :]
            after = vote_labels(flipped, rule)
            if before == DRIVING:
                assert after == DRIVING
    if before == NON_DRIVING and any(l == DRIVING for l in labels):
        # removing positives can only move away from driving
        stripped = [NON_DRIVING] * len(labels)
        assert vote_labels(stripped, rule) == NON_DRIVING


@given(labels_strategy)
def test_thresholds_nest(labels):
    # a stricter threshold firing implies every looser one fires too
    fired = [
        vote_labels(labels, VotingRule("threshold", p)) == DRIVING
        for p in THRESHOLD_CHOICES
    ]
    for looser, stricter in zip(fired, fired[1:]):
        assert looser or not stricter
    if any(fired):
        assert vote_labels(labels, VotingRule("single")) == DRIVING


@given(labels_strategy)
def test_majority_equals_threshold_fifty(labels):
    assert vote_labels(labels, VotingRule("majority")) == vote_labels(
        labels, VotingRule("threshold", 50)
    )


@given(labels_strategy, rule_strategy)
def test_aggregate_matches_fraction_oracle(labels, rule):
    positives = labels.count(DRIVING)
    fraction = positives / len(labels)
    if rule.kind == "single":
        expect = positives >= 1
    elif rule.kind == "majority":
        expect = fraction > 0.5
    else:
        expect = fraction > rule.threshold_pct / 100.0
    assert (vote_labels(labels, rule) == DRIVING) == expect


# ---------------------------------------------------------------------------
# evaluation metrics


def test_evaluate_all_negative_baseline():
    truths = np.arange(8634) < 2242
    preds = np.zeros(len(truths), dtype=bool)
    report = evaluate(preds, truths)
    assert report.accuracy == pytest.approx(6392 / 8634)
    assert report.precision == 0.0  # no positive predictions
    assert report.recall == 0.0
    assert report.f1 == 0.0
    assert report.confusion == (0, 0, 2242, 6392)


def test_evaluate_confusion_example():
    truths = np.arange(100) < 12
    preds = np.array(
        [True] * 8 + [False] * 4  # 8 tp, 4 fn
        + [True] * 2 + [False] * 86  # 2 fp, 86 tn
    )
    report = evaluate(preds, truths)
    assert report.confusion == (8, 2, 4, 86)
    assert report.precision == pytest.approx(0.8)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(8 / 11)
    assert report.accuracy == pytest.approx(0.94)


def test_evaluate_validates_lengths():
    with pytest.raises(Exception):
        evaluate(np.array([True]), np.array([True, True]))
    with pytest.raises(SnapGridError, match="^need at least one predicted label$"):
        evaluate(np.array([], dtype=bool), np.array([], dtype=bool))


# ---------------------------------------------------------------------------
# extent


def test_extent_per_city_and_pooled():
    city = np.array([0] * 10 + [1] * 10)
    driving = np.array([True] * 3 + [False] * 7 + [True] * 5 + [False] * 5)
    report = extent(city, driving, ["a", "b"])
    assert report.per_city == {"a": 0.3, "b": 0.5}
    assert report.overall == pytest.approx(8 / 20)
    assert report.ranking == (("b", 0.5), ("a", 0.3))


def test_extent_zero_driving():
    report = extent(np.zeros(4, dtype=np.int32), np.zeros(4, dtype=bool), ["a", "b"])
    # b has no records, so no fraction
    assert report.per_city == {"a": 0.0}
    assert report.overall == 0.0


def test_extent_rejects_empty_input():
    with pytest.raises(SnapGridError, match="^need at least one classified record$"):
        extent(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=bool), ["a"])
