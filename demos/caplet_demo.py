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

import numpy as np

from momentbounds import SwapCurveSlice, caplet_bounds, caplet_cdf_scan, caplet_point_mass

NU = 1.0 - math.exp(-0.04)  # root-variance of a 40%-vol lognormal over one period


def build_slice(rho: float, alpha: float) -> SwapCurveSlice:
    # Flat curve: 1% discounting, annual periods, both swap rates at 2%.
    return SwapCurveSlice.with_flat_discounting(
        discount_rate=0.01,
        periods=10,
        daycount=1.0,
        swap_rate=0.02,
        root_variance=NU,
        correlation=rho,
        shift=alpha,
    )


def main():
    print("Caplet on the 10th forward rate, expressed off the 9- and 10-period swaps")
    print(f"swap rates 2%, root-variance {NU:.6f}, discounting at 1%\n")

    strikes = [0.0, 0.005, 0.01, 0.02, 0.03, 0.04]
    rhos = [0.975, 0.985, 0.995, 1.0]
    print("Bound (undiscounted) by strike and swap-rate correlation, no shift:")
    print("strike  " + "  ".join(f"rho={rho:<6g}" for rho in rhos))
    columns = [caplet_bounds(build_slice(rho, 0.0), 10, strikes).bounds for rho in rhos]
    for k, row in zip(strikes, zip(*columns)):
        print(f"{k:6.3f}  " + "  ".join(f"{v:10.6f}" for v in row))
    print("Lower correlation decorrelates the swap legs and widens the bound.\n")

    print("The shift moves the discrete probability of the implied distribution:")
    for alpha in (0.0, 0.5, 1.0):
        slice_ = build_slice(0.995, alpha)
        floor = -alpha  # daycount 1 -> floor strike is -alpha
        grid = np.linspace(floor - 0.02, floor + 0.02, 41)
        scan = caplet_cdf_scan(slice_, 10, grid)
        mass_zero = caplet_point_mass(slice_, 10, 0.0)
        mass_floor = caplet_point_mass(slice_, 10, floor)
        switch = scan.switch_strikes[0] if scan.switch_strikes else float("nan")
        print(f"  alpha = {alpha:3.1f}: eigenvalue count drops 2 -> 1 at strike {switch:+.3f}; "
              f"point mass {mass_floor:.4f} there, {mass_zero:+.2e} at strike 0")

    print("\nPer-strike eigenvalue regime around the floor (alpha = 0.5):")
    slice_ = build_slice(0.995, 0.5)
    for k in (-0.52, -0.51, -0.5, -0.49, -0.48):
        scan = caplet_cdf_scan(slice_, 10, np.array([k - 0.001, k, k + 0.001]))
        print(f"  strike {k:+.2f}: positive eigenvalues = {scan.positive_counts[1]}")


if __name__ == "__main__":
    main()
