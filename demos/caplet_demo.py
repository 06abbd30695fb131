"""Forward-starting caplets bounded by swap-rate moments.

The n-period forward rate is a linear combination of two consecutive swap
rates, r_n = (lam + 1) s_n - lam s_{n-1} with lam fixed by the curve, so a
caplet on r_n is a three-asset basket option on (s_n, s_{n-1}, cash).  With
swap prices and root-variances marked from the swaption market, the single
free parameter is the correlation between the consecutive swap rates.

Negative rates are handled by shifting rates and strike by a proportion
alpha of the economic floor; the shift leaves the payoff unchanged but moves
the implied distribution's discrete probability from strike zero down to the
shifted floor.  The regime is visible in the eigenvalue count of the bound's
matrix, which drops from two positives to one exactly at the floor strike.
"""

import math
import sys

import numpy as np

from momentbounds import (
    SwapCurveSlice,
    caplet_basket,
    caplet_bounds,
    caplet_cdf_scan,
    caplet_point_mass,
)

NU = 1.0 - math.exp(-0.04)  # root-variance of a 40%-vol lognormal over one period
# The far-strike bound of the slice below at k = 1e16, from a 60-digit
# eigensolve of the model's moment matrix.
FAR_STRIKE_BOUND = 4.837264906565021e-3


def build_basket(rho: float, alpha: float):
    # Flat curve: 1% discounting, annual periods, both swap rates at 2%; the
    # caplet on the 10th forward rate, its moment matrix's invariants computed
    # once here.
    slice_ = SwapCurveSlice.with_flat_discounting(
        discount_rate=0.01,
        periods=10,
        daycount=1.0,
        swap_rate=0.02,
        root_variance=NU,
        correlation=rho,
        shift=alpha,
    )
    return caplet_basket(slice_, 10)


def main():
    print("Caplet on the 10th forward rate, expressed off the 9- and 10-period swaps")
    print(f"swap rates 2%, root-variance {NU:.6f}, discounting at 1%\n")

    strikes = [0.0, 0.005, 0.01, 0.02, 0.03, 0.04]
    rhos = [0.975, 0.985, 0.995, 1.0]
    print("Bound (undiscounted) by strike and swap-rate correlation, no shift:")
    print("strike  " + "  ".join(f"rho={rho:<6g}" for rho in rhos))
    rows = caplet_bounds([build_basket(rho, 0.0) for rho in rhos], strikes).bounds.T
    for k, row in zip(strikes, rows):
        print(f"{k:6.3f}  " + "  ".join(f"{v:10.6f}" for v in row))
    print("Lower correlation decorrelates the swap legs and widens the bound.\n")

    print("The shift moves the discrete probability of the implied distribution:")
    for alpha in (0.0, 0.5, 1.0):
        basket = build_basket(0.995, alpha)
        floor = -alpha  # daycount 1 -> floor strike is -alpha
        grid = np.linspace(floor - 0.02, floor + 0.02, 41)
        (switches,) = caplet_cdf_scan([basket], grid).switch_strikes
        mass_zero = caplet_point_mass(basket, 0.0)
        mass_floor = caplet_point_mass(basket, floor)
        switch = switches[0] if switches else float("nan")
        print(f"  alpha = {alpha:3.1f}: eigenvalue count drops 2 -> 1 at strike {switch:+.3f}; "
              f"point mass {mass_floor:.4f} there, {mass_zero:+.2e} at strike 0")

    print("\nPer-strike eigenvalue regime around the floor (alpha = 0.5):")
    strikes = [-0.52, -0.51, -0.5, -0.49, -0.48]
    counts = caplet_bounds([build_basket(0.995, 0.5)], strikes).positive_counts[0]
    for k, count in zip(strikes, counts):
        print(f"  strike {k:+.2f}: positive eigenvalues = {count}")

    # Far strikes: the one positive eigenvalue of P is 5e-19 of its norm at
    # k = 1e16, yet the closed-form sweep keeps its digits.
    slice_ = SwapCurveSlice.with_flat_discounting(0.01, 10, 1.0, 0.02, 0.15, 0.995)
    far = caplet_bounds([caplet_basket(slice_, 10)], [1e16]).bounds[0, 0]
    error = abs(far - FAR_STRIKE_BOUND) / FAR_STRIKE_BOUND
    print(f"\nFar strike k = 1e16 (nu = 0.15, rho = 0.995): bound {far:.10e}, "
          f"60-digit value {FAR_STRIKE_BOUND:.4e}, relative difference {error:.1e}")
    if error > 1e-12:
        sys.exit(f"far-strike bound {far!r} is {error:.1e} from {FAR_STRIKE_BOUND}")


if __name__ == "__main__":
    main()
