"""Refining the vanilla bound by splitting the asset with a partition of unity.

Splitting a - k over partition assets a u_n and u_n turns the vanilla option
into a 2N-asset basket whose moment matrix encodes strictly more information
about the distribution, so the bound tightens.  Moments here are calibrated
from a lognormal reference model (mean 1, vol 40%), and the refined bounds
squeeze down toward that model's own prices as the partition grows: first
with piecewise-flat digital cells, then with piecewise-linear hat functions,
which remove the kinks of the digital version.
"""

import numpy as np

from momentbounds import (
    LognormalModel,
    bs_call_prices,
    flat_conditional_moments,
    linear_conditional_moments,
    refined_bounds,
    vanilla_bounds,
)

MODEL = LognormalModel(forward=1.0, sigma=0.4, expiry=1.0)
STRIKES = np.arange(0.4, 2.61, 0.2)


def main():
    nu = MODEL.root_variance
    print(f"Reference model: lognormal, forward 1, vol 40% -> root-variance {nu:.6f}\n")

    flat6 = flat_conditional_moments(MODEL, np.linspace(0.5, 2.5, 5))
    flat30 = flat_conditional_moments(MODEL, np.linspace(0.1, 2.9, 29))
    lin5 = linear_conditional_moments(MODEL, np.linspace(0.5, 2.5, 5))
    lin29 = linear_conditional_moments(MODEL, np.linspace(0.1, 2.9, 29))

    print("Conditional moments honour the unpartitioned asset (6 flat cells):")
    total, mean, sqrt_mean = flat6.normalisation_sums()
    print(f"  sum d_n            = {total:.12f}   (1)")
    print(f"  sum f_n d_n        = {mean:.12f}   (forward)")
    print(f"  sum E[sqrt(a)u_n]  = {sqrt_mean:.12f}   (sqrt(f(1-nu)) = {np.sqrt(1-nu):.12f})\n")

    # One sweep per partition: flat cells in closed form, hat partitions from one
    # banded factorization of their moment matrix.
    curves = {
        label: refined_bounds(moments, STRIKES)
        for label, moments in (("flat x6", flat6), ("flat x30", flat30),
                               ("hat x5", lin5), ("hat x29", lin29))
    }
    unpartitioned = vanilla_bounds(1.0, nu, STRIKES)
    reference = bs_call_prices(MODEL.forward, STRIKES, MODEL.sigma, MODEL.expiry)

    print("strike   unpartitioned  flat x6   flat x30  hat x5    hat x29   lognormal")
    for i, k in enumerate(STRIKES):
        row = [unpartitioned[i], *(curve[i] for curve in curves.values()), reference[i]]
        print(f"{k:5.2f}   " + "  ".join(f"{v:9.6f}" for v in row))

    base = unpartitioned - reference
    print("\nConvergence toward the reference prices (max gap over strikes):")
    for label, curve in curves.items():
        gap = np.max(curve - reference)
        print(f"  {label:9s} gap {gap:.6f}  ({gap / np.max(base):5.1%} of the unpartitioned gap)")


if __name__ == "__main__":
    main()
