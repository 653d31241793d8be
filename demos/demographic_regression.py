"""Which city traits predict driving-post volume? OLS with planted truth.

gen_regression_cities draws city demographics inside realistic ranges and
sets ln(driving_snaps + 1) from a known linear model plus Gaussian noise,
so the fit below should land each coefficient within a few standard
errors of its planted value. Also demonstrates the per-term
likelihood-ratio tests.

Run: python demos/demographic_regression.py [--seed N] [--sigma S]
"""

import argparse

from snapgrid import synth
from snapgrid.regression import regression_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sigma", type=float, default=0.1, help="noise sd on ln(DS+1)")
    args = parser.parse_args()

    cities = synth.gen_regression_cities(130, seed=args.seed, noise_sigma=args.sigma)
    report = regression_report(cities)
    planted = dict(zip([t.term for t in report.terms], synth.PLANTED_COEFS))

    print(f"n = {report.n} cities, R^2 = {report.r_squared:.4f} (noise sigma = {args.sigma})\n")
    print(f"{'term':<16} {'planted':>8} {'coef':>8} {'se':>7} {'t':>8} {'p':>9}  {'LR chi2':>8}")
    for t in report.terms:
        lr = f"{t.lr_chisq:>8.2f}" if t.lr_chisq is not None else f"{'-':>8}"
        print(
            f"{t.term:<16} {planted[t.term]:>8.2f} {t.coef:>8.3f} {t.std_error:>7.3f} "
            f"{t.t_value:>8.2f} {t.p_value:>9.2e}{t.stars:<3}{lr}"
        )

    worst = max(abs(t.coef - planted[t.term]) / t.std_error for t in report.terms)
    print(f"\nlargest |coef - planted| / SE: {worst:.2f} (3 would be suspicious)")


if __name__ == "__main__":
    main()
