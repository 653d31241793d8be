"""Do driving posts concentrate on a few tiles? Fit four candidate laws.

Per-tile counts from a synthetic city are fit by maximum likelihood to
power-law, normal, log-normal and exponential families; BIC picks the
winner. The generator plants power-law tile weights, so a correct
pipeline should recover that family.

Run: python demos/spatial_concentration.py [--seed N] [--alpha A]
"""

import argparse

from snapgrid import synth
from snapgrid.geo import build_grid, locate_points
from snapgrid.records import DRIVING, SnapColumns
from snapgrid.spatial import compare_fits, tile_counts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--alpha", type=float, default=2.4, help="planted power-law exponent")
    args = parser.parse_args()

    cfg = synth.CitySynthConfig(
        city_id="demo",
        tz_id="Etc/GMT",
        origin_lat=37.77,
        origin_lon=-122.42,
        n_records=30_000,
        family_params={"alpha": args.alpha, "x_min": 1.0},
    )
    spec = synth.SynthSpec(seed=args.seed, cities=(cfg,))
    corpus, _grids = synth.gen_corpus(spec)
    driving = SnapColumns.from_records([r for r in corpus if r.label == DRIVING and not r.deleted])

    grid = build_grid(synth.city_region(cfg), tile_size_m=1000.0)
    counts = tile_counts(locate_points(driving.lat, driving.lon, grid), grid, city_id="demo")
    occupied = counts.positive_counts
    print(
        f"{len(driving)} driving posts over {grid.n_active} tiles; "
        f"{len(occupied)} tiles occupied, max per tile {int(max(occupied))}"
    )

    comp = compare_fits(occupied, city_id="demo")
    print(f"\n{'family':<12} {'params':<34} {'loglik':>11} {'BIC':>11}")
    for family, fit in sorted(comp.fits.items(), key=lambda kv: kv[1].bic):
        pstr = ", ".join(f"{k}={v:.3f}" for k, v in fit.params.items())
        print(f"{family:<12} {pstr:<34} {fit.log_likelihood:>11.1f} {fit.bic:>11.1f}")
    for family, reason in comp.failures.items():
        print(f"{family:<12} failed: {reason}")

    fit = comp.fits["power_law"]
    se = (fit.params["alpha"] - 1.0) / len(occupied) ** 0.5
    print(f"\nBIC winner: {comp.best_by_bic} (planted power_law, alpha {args.alpha})")
    print(f"recovered alpha: {fit.params['alpha']:.3f} +/- {se:.3f} over {fit.n} occupied tiles")


if __name__ == "__main__":
    main()
