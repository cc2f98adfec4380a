"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

- a perturbed expected value makes run.py exit non-zero, per workload;
- one traced run per workload is correct, which means its traced and
  untraced runs wrote byte-identical output and its traced runs counted
  identical calls, and its counts match the ones stated for seed 0;
- in a directory holding only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.

Takes about three minutes on two cores.
"""

import json
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

# call counts of one traced run (set-up plus one workload run) at seed 0
EXPECTED = {
    "vol-gamma-g3": {"pleated.check_adapted.calls": 1088,
                     "pleated.check_adapted.distinct_ratio": 17 / 1088,
                     "volume.orientation_start_endpoints.calls": 64},
    "volume-path-g2": {"pleated.check_adapted.calls": 1025,
                       "pleated.check_adapted.distinct_ratio": 1.0},
    "rank-sweep": {"pleated.check_adapted.calls": 0,
                   "representation.jacobian_rank.calls": 2000,
                   "representation.jacobian_rank.raised": 0},
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for wl in WORKLOADS:
        code, _ = bench("--workload", wl, "--seed", "0", "--seconds", "1",
                        "--trace", "0", "--perturb-expected")
        expect(code != 0, f"{wl}: perturbed expected value fails the run")

    for wl in WORKLOADS:
        code, last = bench("--workload", wl, "--seed", "0", "--seconds", "1",
                           "--trace", "1")
        result = json.loads(last)
        expect(code == 0 and result["correct"],
               f"{wl}: traced run correct (identical output and counts)")
        for name, want in EXPECTED[wl].items():
            got = result["metrics"].get(name, {}).get("value")
            expect(got is not None and abs(got - want) < 1e-12,
                   f"{wl}: {name} = {got}, want {want}")

    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, last = bench("--workload", "rank-sweep", "--seed", "0",
                       "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not last.startswith("{"),
           "without the sources the run fails and prints no result")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
