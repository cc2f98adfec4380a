"""Peripheral-map rank statistics on the bundled genus-2 handlebody.

Samples random irreducible representations of the handlebody group and
reports the jacobian rank of the peripheral fingerprint map at each;
local injectivity on the character variety needs full rank 3 with a
clean singular-value gap.  The exact Jacobian vanishes on the
conjugation directions, so at rank 3 the fourth singular value is
rounding: the script counts the draws where sv[3]/sv[0] is below
NULL_BOUND rather than printing that rounding as a gap.
"""

import argparse
from importlib.resources import files

import numpy as np

from pleatbend.errors import ReducibleRepresentation
from pleatbend.representation import (EPS_RANK, jacobian_rank,
                                      random_representation)
from pleatbend.topology import load_document

# the null singular value at rank 3, relative to the largest, is below
# this where the Jacobian vanishes on the conjugation directions up to
# rounding (about 1e-16 of its norm)
NULL_BOUND = 1e-12


def bundled_document() -> str:
    return str(files("pleatbend.data").joinpath("genus2_handlebody.json"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    _, inc = load_document(bundled_document())
    rng = np.random.default_rng(args.seed)
    ranks = {}
    null = 0
    worst_margin = float("inf")
    for k in range(args.seeds):
        rep = random_representation(rng, generators=inc.generators)
        try:
            rank, sv = jacobian_rank(rep, inc)
        except ReducibleRepresentation:
            ranks["reducible"] = ranks.get("reducible", 0) + 1
            continue
        ranks[rank] = ranks.get(rank, 0) + 1
        if rank == 3:
            worst_margin = min(worst_margin, sv[2] / sv[0])
            if sv[3] / sv[0] < NULL_BOUND:
                null += 1
    print(f"seeds: {args.seeds}")
    for key in sorted(ranks, key=str):
        print(f"rank {key}: {ranks[key]}")
    print(f"null singular value sv[3]/sv[0] at rank 3: below "
          f"{NULL_BOUND:g} in {null} of {ranks.get(3, 0)}")
    print(f"smallest margin sv[2]/sv[0] at rank 3: {worst_margin:.3e} "
          f"(threshold {EPS_RANK:g})")


if __name__ == "__main__":
    main()
