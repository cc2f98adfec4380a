"""One workload run in a fresh process; started by run.py.

Imports pleatbend from the checkout's src/, builds the seeded inputs
(set-up), warms lazy caches, makes one timed workload run, checks the
output and prints one JSON object on its last stdout line.  One process
per run makes peak resident memory a per-run figure.  Times are
reported raw and rescaled to the reference host speed (hostspeed.py);
the probe runs from before the imports to the end of the timed run.

    python3 perfbench/worker.py --workload vol-gamma-g3 --seed 0 \
        --workdir perfbench/.work/tmp [--trace] [--check-error] \
        [--perturb-expected]

With --trace the spans of the run are written to
perfbench/.work/spans-<workload>.npz.
"""

import time

from hostspeed import HostSpeed

T_START = time.perf_counter()
SPEED = HostSpeed()
SPEED.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import pleatbend  # noqa: E402
import workloads  # noqa: E402
from pleatbend.errors import PleatbendError  # noqa: E402
from pleatbend.volume import _zetas  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


def warm_up() -> None:
    """Fill lazy caches every workload would otherwise pay for once."""
    _zetas(80)
    np.linalg.svd(np.eye(3, dtype=complex))
    np.polyint(np.polyfit(np.arange(3.0), np.arange(3.0), 2))


def digest(wl) -> str:
    """Hash of what the workload produced: the CLI output file, or the
    list of ranks for the rank sweep."""
    h = hashlib.sha256()
    if hasattr(wl, "output"):
        with open(wl.output, "rb") as fh:
            h.update(fh.read())
    else:
        h.update(repr(wl.ranks).encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check-error", action="store_true",
                    help="also run the Richardson check on unreferenced seeds")
    ap.add_argument("--perturb-expected", action="store_true",
                    help="shift every expected value (self-test of the checks)")
    args = ap.parse_args()

    if os.path.dirname(os.path.abspath(pleatbend.__file__)) != \
            os.path.join(SRC, "pleatbend"):
        print(f"pleatbend imported from {pleatbend.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        tracer.install()
    tracer.enabled = args.trace

    result = {"import_s": IMPORT_S}
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        wl.setup(args.workdir)
    except PleatbendError as exc:
        # a seed whose inputs cannot be built is a failure, never re-drawn
        result.update(attempted=1, failed=1,
                      failures=[f"set-up: {type(exc).__name__}: {exc}"])
        print(json.dumps(result))
        return 0
    result["raw_setup_s"] = IMPORT_S + time.perf_counter() - t0
    result["setup_s"] = SPEED.rescale(result["raw_setup_s"], 0, SPEED.mark())

    tracer.enabled = False
    warm_up()
    tracer.enabled = args.trace
    mark = SPEED.mark()
    c0, t0 = time.process_time(), time.perf_counter()
    code = wl.run()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    SPEED.stop()
    end = SPEED.mark()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.enabled = False
    factor = SPEED.factor(mark, end)
    result.update(raw_wall_s=wall, raw_cpu_s=cpu, speed=factor,
                  wall_s=SPEED.rescale(wall, mark, end),
                  cpu_s=SPEED.rescale(cpu, mark, end))

    attempted, failed, failures = wl.check(code, args.perturb_expected,
                                           args.check_error)
    result.update(attempted=attempted, failed=failed, failures=failures)
    if code == 0:
        result["digest"] = digest(wl)
    if args.trace:
        # traced calls ran in set-up and in the timed run
        result["layers"] = tracer.metrics(SPEED.factor(0, end))
        spans = os.path.join(HERE, ".work", f"spans-{args.workload}.npz")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.save_spans(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
