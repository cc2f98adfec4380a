"""Bend one cuff of a genus-2 surface and integrate the volume change.

The closed form for an atomic bend is dV = (1/2) * length * angle, so
the integrated change along theta: 0 -> theta_bar must come out at
(1/2) * l1 * theta_bar up to quadrature error.
"""

import argparse

from pleatbend.representation import path_from_parameters
from pleatbend.topology import standard_decomposition
from pleatbend.volume import integrate_volume_change


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=float, default=2.0,
                    help="complex length of the bent cuff")
    ap.add_argument("--theta", type=float, default=0.5, help="total bend")
    ap.add_argument("--steps", type=int, default=64)
    args = ap.parse_args()

    pd = standard_decomposition(2)
    lengths = {c.id: v for c, v in zip(pd.cuffs, (args.length, 1.7, 2.3))}
    twists = {c.id: v for c, v in zip(pd.cuffs, (0.3, 0.1, 0.2))}
    c0 = pd.cuffs[0].id
    path = path_from_parameters(
        pd, lambda t: lengths,
        lambda t: {**twists, c0: twists[c0] + 1j * args.theta * t},
        steps=args.steps)

    result = integrate_volume_change(path, "attracting")
    expected = 0.5 * args.length * args.theta
    print(f"integrated dV      : {result.delta_v:.15g}")
    print(f"closed form        : {expected:.15g}")
    print(f"relative error     : {abs(result.delta_v - expected) / abs(expected):.3e}")
    print(f"quadrature estimate: {result.error_estimate:.3e}")


if __name__ == "__main__":
    main()
