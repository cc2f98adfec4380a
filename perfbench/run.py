"""pleatbend benchmark: three seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload vol-gamma-g3 --seed 0 --seconds 30 --trace 0

Run from anywhere; pleatbend is imported from the src/ directory next
to this one, never from an installed copy.  Workloads (closed loop, one
caller, one thread):

- vol-gamma-g3    `pleatbend vol-gamma` on a 17-sample genus-3 path:
                  64 orientations x 17 samples = 1088 realizations
- volume-path-g2  `pleatbend volume-path` on a 1025-sample genus-2 pure
                  bend, checked against the closed form L theta / 2
- rank-sweep      jacobian_rank at 2000 seeded random representations
                  of the bundled genus-2 handlebody group
- all             the three above, one after the other

Every workload run is a fresh worker process (worker.py) with BLAS and
OpenMP pinned to one thread.  Runs repeat until --seconds have passed
(at least three).  With --trace 0 the result line carries the medians
of wall_s, cpu_s, peak_rss_mb and setup_s over the runs, times rescaled
to a reference host speed by an interleaved probe (hostspeed.py); the
summary lines also give the raw times.  With --trace 1
untraced and traced runs alternate and the result carries the per-layer
counts and self times of tracer.py, plus trace.overhead_s, the median
traced wall time minus the median untraced one.  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the
exit code is 1 when any output check failed and 2 when the benchmark
cannot run at all.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vol-gamma-g3", "volume-path-g2", "rank-sweep")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
# printed in the summary only: times as measured, and the host-speed
# factor that rescaled them (hostspeed.py)
RAW = (("raw_wall_s", "s"), ("raw_cpu_s", "s"), ("raw_setup_s", "s"),
       ("speed", "x"))
MIN_RUNS = 3            # untraced runs (or traced pairs: 2) per invocation
RUN_LIMIT_S = 170.0     # no worker may still run after this many seconds
ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}


class Invocation:
    """Worker runs of one workload and one seed, and their aggregate."""

    def __init__(self, workload: str, seed: int, trace: bool,
                 perturb: bool, workdir: str):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.perturb, self.workdir = perturb, workdir
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def worker(self, traced: bool, deadline: float) -> None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", self.workdir]
        if traced:
            cmd.append("--trace")
        if not self.untraced and not traced:
            cmd.append("--check-error")
        if self.perturb:
            cmd.append("--perturb-expected")
        env = {**os.environ, **ONE_THREAD, "PYTHONHASHSEED": "0"}
        env.pop("PYTHONPATH", None)
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=max(deadline - time.monotonic(), 1.0))
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
        except subprocess.TimeoutExpired:
            out = {"attempted": 1, "failed": 1,
                   "failures": ["worker timed out"]}
        except (ValueError, IndexError) as exc:
            tail = proc.stderr.strip().splitlines()[-3:]
            out = {"attempted": 1, "failed": 1,
                   "failures": [f"worker failed ({exc}): {' | '.join(tail)}"]}
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.failures += out["failures"]
        if "wall_s" in out:
            (self.traced if traced else self.untraced).append(out)

    def measure(self, seconds: float, start: float) -> None:
        deadline = start + RUN_LIMIT_S
        kinds = (False, True) if self.trace else (False,)
        need = 2 if self.trace else MIN_RUNS
        longest = 0.0
        rounds = 0
        while rounds < need or time.monotonic() - start < seconds:
            if time.monotonic() + 1.5 * longest > deadline:
                break
            t0 = time.monotonic()
            for traced in kinds:
                self.worker(traced, deadline)
            longest = max(longest, time.monotonic() - t0)
            rounds += 1
            if self.failed:
                break

    def consistency_failures(self) -> list[str]:
        """Traced and untraced runs must produce identical output, and
        traced runs identical call counts."""
        out = []
        digests = {r.get("digest") for r in self.untraced + self.traced}
        if len(digests) > 1:
            out.append("workload output differs between runs")
        counts = [{k: v for k, v in r["layers"].items()
                   if v[1] == "count"} for r in self.traced]
        if any(c != counts[0] for c in counts[1:]):
            out.append("call counts differ between traced runs")
        return out

    def metrics(self) -> dict:
        if not self.trace:
            return {name: {"value": statistics.median(r[name] for r in self.untraced),
                           "unit": unit} for name, unit in END_TO_END}
        layers = self.traced[0]["layers"]
        out = {}
        for name, (value, unit) in layers.items():
            if name.endswith(".self_s"):
                value = statistics.median(r["layers"][name][0] for r in self.traced)
            out[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(r["wall_s"] for r in self.traced)
                    - statistics.median(r["wall_s"] for r in self.untraced))
        out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return out

    def report(self) -> dict:
        self.failures += self.consistency_failures()
        runs = self.untraced
        complete = bool(runs) and (bool(self.traced) or not self.trace)
        correct = complete and not self.failures
        metrics = self.metrics() if complete else {}
        print(f"{self.workload} seed {self.seed}: {len(runs)} untraced and "
              f"{len(self.traced)} traced runs")
        for name, unit in END_TO_END + RAW:
            vals = sorted(r[name] for r in runs)
            if vals:
                print(f"  {name:<12} {statistics.median(vals):.6g} {unit}  "
                      f"(median of {len(vals)}; {vals[0]:.6g} .. {vals[-1]:.6g})")
        ratio = self.failed / self.attempted if self.attempted else 1.0
        print(f"  {'fail_ratio':<12} {ratio:.6g} ratio  "
              f"({self.failed} of {self.attempted} operations)")
        for msg in self.failures[:10]:
            print(f"  FAILED: {msg}")
        return {"correct": correct, "attempted": max(self.attempted, 1),
                "failed": self.failed if self.attempted else 1,
                "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb-expected", action="store_true",
                    help="shift every expected value; the run must then fail")
    args = ap.parse_args()

    package = os.path.join(ROOT, "src", "pleatbend")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"no pleatbend sources under {package}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(package, quiet=1):
        print("pleatbend sources do not compile", file=sys.stderr)
        return 2

    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        inv = Invocation(workload, args.seed, bool(args.trace),
                         args.perturb_expected, workdir)
        try:
            inv.measure(args.seconds, time.monotonic())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result = inv.report()
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
