"""How the frame-voting rule changes detection quality.

Every clip gets one score per sampled frame; frames vote driving when
their score clears the cutoff, and a rule turns the votes into one label.
This sweep compares the single-frame trigger, strict majority, and the
five fixed thresholds on a synthetic corpus with known truth.

Run: python demos/voting_threshold_sweep.py [--seed N]
"""

import argparse

import numpy as np

from snapgrid.records import DRIVING, NON_DRIVING
from snapgrid.voting import THRESHOLD_CHOICES, VotingRule, classify_scores, evaluate


def synth_scores(rng, n_clips=4000, driving_rate=0.24):
    """Beta-distributed frame scores: driving clips skew high, the rest low."""
    clips, truths = [], []
    for _ in range(n_clips):
        is_driving = rng.random() < driving_rate
        n_frames = int(rng.integers(3, 11))
        if is_driving:
            scores = rng.beta(8.0, 2.0, size=n_frames)
        else:
            scores = rng.beta(2.0, 8.0, size=n_frames)
        clips.append(tuple(float(s) for s in scores))
        truths.append(DRIVING if is_driving else NON_DRIVING)
    return clips, truths


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    clips, truths = synth_scores(rng)

    rules = [("single", VotingRule.single()), ("majority", VotingRule.majority())]
    rules += [(f"threshold {p}%", VotingRule.threshold(p)) for p in THRESHOLD_CHOICES]

    print(f"{len(clips)} clips, {truths.count(DRIVING)} truly driving\n")
    print(f"{'rule':<14} {'precision':>9} {'recall':>7} {'f1':>6} {'accuracy':>9}")
    scores = np.concatenate(clips)
    offsets = np.cumsum([0] + [len(c) for c in clips])
    for name, rule in rules:
        predictions = np.where(classify_scores(scores, offsets, rule), DRIVING, NON_DRIVING)
        report = evaluate(predictions, truths)
        print(
            f"{name:<14} {report.precision:>9.3f} {report.recall:>7.3f} "
            f"{report.f1:>6.3f} {report.accuracy:>9.3f}"
        )

    print(
        "\nSingle-frame voting maximizes recall but fires on any noisy frame;"
        "\nhigher thresholds trade recall for precision. Majority equals the"
        "\n50% threshold exactly."
    )


if __name__ == "__main__":
    main()
