"""Options on a cross FX rate priced off the two liquid legs.

An option on the cross x1/x2 is a vanilla option under the cross measure, so
the two-moment bound applies directly; the only new ingredient is the cross
root-variance, composed from the legs' root-variances and the correlation of
their square-roots:

    nu = 1 - (sqrt((1 - nu1)(1 - nu2)) + rho sqrt(nu1 nu2))^2

The legs' nu values replicate from their liquid option markets, leaving rho
as the single free parameter.  Decorrelating the legs widens the cross
distribution, so the bound grows as rho falls.
"""

from momentbounds import FxLegMoments, cross_root_variance, vanilla_bounds

NU1 = 0.04
NU2 = 0.09
CROSS_FORWARD = 1.0
RHOS = [1.0, 0.9, 0.75, 0.5, 0.25, 0.0]
STRIKES = [0.6, 0.8, 1.0, 1.25, 1.6]


def main():
    print(f"Leg root-variances: nu1 = {NU1}, nu2 = {NU2}\n")

    print("Composed cross root-variance by correlation:")
    for rho in RHOS:
        print(f"  rho = {rho:5.2f} -> nu_cross = {cross_root_variance(NU1, NU2, rho):.6f}")

    print("\nSanity limits:")
    print(f"  matched legs, rho = 1: nu_cross = {cross_root_variance(0.04, 0.04, 1.0):.2e}"
          "  (identical rates, deterministic cross)")
    print(f"  deterministic leg:     nu_cross = {cross_root_variance(0.0, NU2, 0.3):.6f}"
          f"  (= nu2 = {NU2})")

    print("\nBound for a call on the cross, by strike and correlation:")
    print("strike  " + "  ".join(f"rho={rho:<5g}" for rho in RHOS))
    legs = [FxLegMoments(NU1, NU2, rho, CROSS_FORWARD) for rho in RHOS]
    columns = [vanilla_bounds(leg.forward, leg.cross_nu, STRIKES) for leg in legs]
    for k, row in zip(STRIKES, zip(*columns)):
        print(f"{k:5.2f}  " + "  ".join(f"{v:9.6f}" for v in row))

    print("\nThe columns grow left to right: spread risk widens as the legs decorrelate.")


if __name__ == "__main__":
    main()
