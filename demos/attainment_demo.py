"""Is the two-moment bound tight?  Locally yes, globally no.

Local attainment: for each strike there is a two-state model, calibrated to
the same price and root-variance, whose call price lands exactly on the
bound.  The calibration is pure trigonometry, and the optimal state
configuration depends on the strike, so each strike needs its own model.

Global attainment fails: statically replicating the payoff sqrt(a) from the
entire bound curve yields an implied E[sqrt(a)], and hence an implied
root-variance, that strictly exceeds the constraint for every interior
value.  No single measure matching the constraint can produce the bound at
all strikes at once.
"""

import numpy as np

from momentbounds import (
    binomial_calibrate,
    binomial_call_prices,
    implied_root_variance_curve,
    local_attainment_scan,
    vanilla_bounds,
)

FORWARD = 1.0
NU = 0.01


def main():
    strikes = np.arange(0.4, 2.61, 0.2)
    report = local_attainment_scan(FORWARD, NU, strikes)

    print(f"Local attainment at root-variance {NU} (forward {FORWARD}):\n")
    print("strike   angle     low state  high state  two-state price   bound        gap")
    for i, k in enumerate(strikes):
        print(
            f"{k:5.2f}  {report.angles[i]:8.5f}  {report.lows[i]:9.5f}  "
            f"{report.highs[i]:10.5f}  {report.binomial_prices[i]:14.10f}  "
            f"{report.bounds[i]:11.8f}  {report.gaps[i]:8.1e}"
        )
    print(f"\nWorst relative gap over the grid: {report.max_gap:.2e}")

    print("\nNo single model attains two strikes at once: reuse the strike-0.8")
    print("optimal model at strike 1.4 and it underprices the bound:")
    angle = local_attainment_scan(FORWARD, NU, [0.8]).angles[0]
    low, high = binomial_calibrate(FORWARD, NU, angle)
    reused = binomial_call_prices(angle, low, high, 1.4)
    target = vanilla_bounds(FORWARD, NU, [1.4])[0]
    print(f"  reused price {reused:.8f} vs bound {target:.8f} (miss {target - reused:.2e})")

    print("\nGlobal attainment fails: the root-variance implied by the whole")
    print("bound curve exceeds the constraint strictly inside (0, 1):\n")
    curve = implied_root_variance_curve(np.linspace(0.0, 1.0, 11))
    print("constraint nu   implied E[sqrt(a)]/sqrt(f)   implied nu   margin")
    for i in range(curve.constraint_nu.size):
        print(
            f"{curve.constraint_nu[i]:11.2f}   {curve.sqrt_moment[i]:22.8f}   "
            f"{curve.implied_nu[i]:10.6f}   {curve.margins[i]:+.6f}"
        )
    print("\nThe endpoints match exactly; everywhere else the margin is positive.")


if __name__ == "__main__":
    main()
