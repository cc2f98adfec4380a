"""Record reference outputs of the vol-gamma-g3 workload.

Runs `pleatbend vol-gamma --format json` once per seed on the seeded
genus-3 path and stores the total and the 64 per-orientation values, as
printed, in references/vol_gamma_g3.json.  The benchmark compares its
own runs against this file within 1e-10.  Run it from the repository
root, only on a commit whose vol-gamma output is trusted:

    python3 perfbench/record_references.py

A seed whose run fails is reported and left out of the file.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import REFERENCE_FILE, VolGammaG3  # noqa: E402

SEEDS = 128             # seeds 0 .. SEEDS-1 are recorded


def main():
    workdir = os.path.join(HERE, ".work", "record")
    os.makedirs(workdir, exist_ok=True)
    refs = {}
    failed = []
    for seed in range(SEEDS):
        wl = VolGammaG3(seed)
        wl.setup(workdir)
        if wl.run() != 0:
            failed.append(seed)
            continue
        with open(wl.output) as fh:
            out = json.load(fh)
        refs[str(seed)] = {"total": out["total"], **out["orientations"]}
        print(f"seed {seed}: total {out['total']}", flush=True)
    os.makedirs(os.path.dirname(REFERENCE_FILE), exist_ok=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} seeds; failed: {failed or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
