"""Peripheral-map rank statistics on the bundled genus-2 handlebody.

Samples random irreducible representations of the handlebody group and
reports the jacobian rank of the peripheral fingerprint map at each;
local injectivity on the character variety needs full rank 3 with a
clean singular-value gap.
"""

import argparse
from importlib.resources import files

import numpy as np

from pleatbend.errors import ReducibleRepresentation
from pleatbend.representation import (EPS_RANK, jacobian_rank,
                                      random_representation)
from pleatbend.topology import load_document


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
    worst_gap = float("inf")
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
            if sv[3] > 0:
                worst_gap = min(worst_gap, sv[2] / sv[3])
    print(f"seeds: {args.seeds}")
    for key in sorted(ranks, key=str):
        print(f"rank {key}: {ranks[key]}")
    print(f"smallest singular-value gap at rank 3: {worst_gap:.3e}")
    print(f"smallest margin sv[2]/sv[0] at rank 3: {worst_margin:.3e} "
          f"(threshold {EPS_RANK:g})")


if __name__ == "__main__":
    main()
