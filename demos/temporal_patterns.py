"""When do driving posts happen? Hourly profiles, night uplift, city clusters.

Builds local-time hourly profiles for a batch of synthetic cities, measures
the posting-rate excess inside the 18:00-01:59 night window, then clusters
planted hour-of-week shapes with the from-scratch k-means and checks the
silhouette across k.

Run: python demos/temporal_patterns.py [--seed N]
"""

import argparse

import numpy as np

from snapgrid import synth
from snapgrid.records import DRIVING, LABELS
from snapgrid.temporal import (
    NightWindow,
    embed_2d,
    hourly_profile,
    kmeans,
    night_uplift,
    pearson,
    silhouette,
)


def sparkline(counts):
    blocks = " .:-=+*#%@"
    top = max(counts) or 1
    return "".join(blocks[min(9, int(9 * c / top))] for c in counts)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    spec = synth.default_spec(args.seed, n_cities=4, n_records=12_000)
    window = NightWindow(start_hour=18, end_hour=2)

    print("hour-of-day profile of driving posts (local time, 00..23)")
    profiles = {}
    for i, cfg in enumerate(spec.cities):
        city, _grid = synth.gen_corpus(spec, i)
        driving = city.ts[(city.label == LABELS.index(DRIVING)) & ~city.deleted]
        profile = hourly_profile(driving, cfg.tz_id)
        profiles[cfg.city_id] = profile
        uplift = night_uplift(profile, window, cfg.city_id)
        print(f"  {cfg.city_id} ({cfg.tz_id:>9}): {sparkline(profile)}  night +{uplift:.0f}%")

    ids = list(profiles)
    r = pearson(profiles[ids[0]], profiles[ids[1]])
    print(f"\nPearson r between {ids[0]} and {ids[1]} profiles: {r:.3f}")
    print("(the generator plants the same 75% night uplift everywhere, so profiles agree)")

    # Hour-of-week shapes around three planted archetypes.
    X, truth = synth.gen_planted_week_vectors(n_cities=30, k=3, seed=args.seed)
    print(f"\nclustering {X.shape[0]} cities on {X.shape[1]}-dim week vectors")
    for k in (2, 3, 4, 5):
        result = kmeans(X, k, seed=args.seed)
        score = silhouette(X, result.labels)
        marker = "  <- planted k" if k == 3 else ""
        print(f"  k={k}: inertia {result.inertia:.4f}, silhouette {score:.3f}{marker}")

    best = kmeans(X, 3, seed=args.seed)
    agreement = (best.labels[:, None] == best.labels[None, :]) == (
        truth[:, None] == truth[None, :]
    )
    print(f"planted partition recovered exactly: {bool(agreement.all())}")

    coords = embed_2d(X)
    spans = coords.max(axis=0) - coords.min(axis=0)
    print(f"2-d SVD embedding spans {spans[0]:.3f} x {spans[1]:.3f} (for plotting)")


if __name__ == "__main__":
    main()
