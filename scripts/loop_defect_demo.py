"""Probe the loop defect on three families of closed paths.

Each loop returns to a representation with the same character, so the
orientation-summed volume change must vanish.  Families: retrace (bend
up, bend back down), a circle of conjugations, and a full 2 pi bend
(which ends at a conjugate, not equal, representation).  A family
whose loop trips a guard is printed as a failed row naming the guard,
and the script then exits 1.
"""

import argparse
import cmath
import math
import sys

import numpy as np

from pleatbend.errors import PleatbendError
from pleatbend.moebius import MoebiusMap
from pleatbend.representation import (fenchel_nielsen_rep, path_from_parameters,
                                      path_from_reps)
from pleatbend.topology import standard_decomposition
from pleatbend.volume import loop_defect


def expm_traceless(x: np.ndarray) -> np.ndarray:
    """exp of a traceless 2x2 matrix: cosh s I + (sinh s / s) x, where
    s^2 = -det x, since then x^2 = s^2 I."""
    s = cmath.sqrt(-np.linalg.det(x))
    return (cmath.cosh(s) * np.eye(2)
            + (cmath.sinh(s) / s if s else 1.0) * x)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=64)
    args = ap.parse_args()

    pd = standard_decomposition(2)
    lengths = {c.id: v for c, v in zip(pd.cuffs, (1.1, 1.7, 2.3))}
    twists = {c.id: v for c, v in zip(pd.cuffs, (0.3, 0.1, 0.2))}
    c0 = pd.cuffs[0].id

    loops = {}
    loops["retrace"] = path_from_parameters(
        pd, lambda t: lengths,
        lambda t: {**twists, c0: twists[c0] + 0.6j * (1 - abs(2 * t - 1))},
        steps=args.steps)
    loops["2pi-bend"] = path_from_parameters(
        pd, lambda t: lengths,
        lambda t: {**twists, c0: twists[c0] + 2j * math.pi * t},
        steps=args.steps)

    rep0 = fenchel_nielsen_rep(pd, lengths, twists)
    e1 = np.array([[0.2, 0.5], [0.1, -0.2]], dtype=complex)
    e2 = np.array([[0.1j, -0.3], [0.4, -0.1j]], dtype=complex)
    ts = np.linspace(0.0, 1.0, 2 * args.steps + 1)
    reps = []
    for t in ts:
        m = expm_traceless(0.15 * (math.cos(2 * math.pi * t) * e1
                                   + math.sin(2 * math.pi * t) * e2))
        reps.append(rep0.conjugated(MoebiusMap(m[0, 0], m[0, 1],
                                               m[1, 0], m[1, 1])))
    loops["conjugation-circle"] = path_from_reps(reps, ts=ts, pd=pd)

    failed = False
    for name, loop in loops.items():
        try:
            report = loop_defect(loop)
        except PleatbendError as exc:
            failed = True
            print(f"{name:<20} FAILED {type(exc).__name__}: {exc}")
            continue
        print(f"{name:<20} defect {report.defect:+.3e}   "
              f"error est {report.error_estimate:.3e}   "
              f"endpoint fingerprint gap {report.fingerprint_distance:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
