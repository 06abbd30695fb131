"""Vanilla option bounds from two moments, and the smile they imply.

Knowing only the forward f and the root-variance nu (the normalised variance
of the square-root of the asset), the price of a call is bounded by the
positive root of p^2 - (f - k) p - f k nu = 0.  This script sweeps strikes
for a few nu levels and shows the bound, the lognormal volatility that
reprices it, and the cumulative density implied by differentiating the bound
in strike.  Watch two things: the smile is far from flat, and the implied
distribution parks a point mass of size nu at strike zero.
"""

import numpy as np

from momentbounds import implied_cdfs, smile_curves, vanilla_bounds

FORWARD = 1.0
STRIKES = np.arange(0.4, 2.61, 0.2)
NU_LEVELS = [0.0025, 0.01, 0.04, 0.09]


def main():
    print("Upper bound for a call, by strike and root-variance")
    print("forward = 1, expiry = 1 (vols quoted per sqrt-year)\n")

    header = "strike  " + "  ".join(f"nu={nu:<7g}" for nu in NU_LEVELS)
    print(header)
    # One row per strike, one column per root-variance.
    table = vanilla_bounds(FORWARD, NU_LEVELS, STRIKES[:, None])
    for k, row in zip(STRIKES, table):
        print(f"{k:5.2f}  " + "  ".join(f"{v:10.6f}" for v in row))

    print("\nImplied lognormal vol of the bound (the interpolated smile):")
    print(header)
    curves = dict(zip(NU_LEVELS, smile_curves(FORWARD, NU_LEVELS, STRIKES, 1.0)))
    for i, k in enumerate(STRIKES):
        cells = [f"{curves[nu].implied_vols[i]:10.4f}" for nu in NU_LEVELS]
        print(f"{k:5.2f}  " + "  ".join(cells))

    print("\nImplied CDF near zero strike: the distribution carries a point")
    print("mass at zero equal to the root-variance itself.")
    for nu, cdf in zip(NU_LEVELS, implied_cdfs(FORWARD, NU_LEVELS, 1e-12)):
        print(f"  nu = {nu:<7g} -> CDF(0+) = {cdf:.6f}")

    print("\nATM check: at k = f the bound collapses to sqrt(f k nu):")
    for nu, bound in zip(NU_LEVELS, vanilla_bounds(FORWARD, NU_LEVELS, FORWARD)):
        print(f"  nu = {nu:<7g} -> bound = {bound:.6f}"
              f"  vs sqrt = {np.sqrt(FORWARD * FORWARD * nu):.6f}")


if __name__ == "__main__":
    main()
