"""The three benchmark workloads: seeded inputs, the timed call, checks.

Each workload is a class with three steps, called in this order by
worker.py:

- ``setup(workdir)`` builds the seeded inputs and writes them to files
  (part of ``setup_s``);
- ``run()`` is the timed call into pleatbend (``wall_s``, ``cpu_s``);
- ``check(...)`` verifies what ``run`` produced and returns the number
  of operations attempted, the number that failed and the messages.

The seed is the only thing that varies the inputs, so one seed always
gives the same files and the same results.
"""

from __future__ import annotations

import json
import math
import os
from importlib.resources import files

import numpy as np

# cli.main and representation.jacobian_rank are called through their
# modules, so that the wrappers tracer.py installs there are used
from pleatbend import cli, representation
from pleatbend.errors import PleatbendError
from pleatbend.representation import (path_from_parameters,
                                      random_representation, save_path)
from pleatbend.topology import load_document, save_document, standard_decomposition

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "references", "vol_gamma_g3.json")


class VolGammaG3:
    """`pleatbend vol-gamma --format json` on a 17-sample genus-3 path.

    The path bends cuffs a1 and a2 and moves three cuff lengths, two of
    them into complex values.  The seed perturbs every base value by at
    most 0.05 and every amplitude by at most 15 %.  The amplitudes stay
    small on purpose: a length of 2 + 0.3i sin 2 pi t on a1 already fails
    endpoint tracking on cuff a2, where the fixed-point gap closes to
    0.0065.
    """

    name = "vol-gamma-g3"
    steps = 16
    tol = 1e-10            # against references recorded for stored seeds
    error_bound = 1e-3     # Richardson estimate for seeds with no reference

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.lengths0 = (np.array([2.0, 2.1, 2.2, 2.3, 2.4, 2.5])
                         + rng.uniform(-0.05, 0.05, 6))
        self.twists0 = (np.array([0.3, 0.2, 0.1, 0.3, 0.2, 0.1])
                        + rng.uniform(-0.05, 0.05, 6))
        self.amp = (np.array([0.2, 0.1, 0.1, 0.3, 0.2])
                    * rng.uniform(0.85, 1.15, 5))
        self.seed = seed

    def lengths_at(self, t: float):
        b, a = self.lengths0, self.amp
        return (b[0] + 1j * a[0] * t, b[1], b[2] + 1j * a[1] * t, b[3],
                b[4] + a[2] * t, b[5])

    def twists_at(self, t: float):
        b, a = self.twists0, self.amp
        return (b[0] + 1j * a[3] * t, b[1] + 1j * a[4] * t, b[2], b[3],
                b[4], b[5])

    def setup(self, workdir: str) -> None:
        pd = standard_decomposition(3)
        self.surface = os.path.join(workdir, "surface-g3.json")
        self.path = os.path.join(workdir, "path-g3.json")
        self.output = os.path.join(workdir, "vol-gamma-g3.out.json")
        save_document(self.surface, pd)
        save_path(self.path, path_from_parameters(
            pd, self.lengths_at, self.twists_at, steps=self.steps))

    def argv(self, output: str, steps: int | None = None) -> list[str]:
        argv = ["vol-gamma", "--input", self.path, "--pd", self.surface,
                "--format", "json", "--output", output]
        if steps is not None:
            argv += ["--steps", str(steps)]
        return argv

    def run(self) -> int:
        return cli.main(self.argv(self.output))

    def check(self, code: int, perturb: bool, check_error: bool):
        if code != 0:
            return 1, 1, [f"vol-gamma exited {code}"]
        with open(self.output) as fh:
            out = json.load(fh)
        values = {"total": float(out["total"])}
        values.update((k, float(v)) for k, v in out["orientations"].items())
        fails = []
        if len(out["orientations"]) != 64:
            fails.append(f"{len(out['orientations'])} orientations, want 64")
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            fails.append(f"non-finite values for {bad}")
        ref = load_references().get(str(self.seed))
        if ref is not None:
            for key, want in ref.items():
                want = float(want) + (1e-6 if perturb else 0.0)
                got = values.get(key, math.nan)
                if not abs(got - want) <= self.tol:
                    fails.append(f"{key}: {got!r} vs reference {want!r}")
            if set(ref) != set(values):
                fails.append("orientation labels differ from the reference")
        elif check_error:
            fails += self._check_error(values, perturb)
        return 1, int(bool(fails)), fails

    def _check_error(self, values: dict, perturb: bool) -> list[str]:
        """Richardson estimate |v(16 steps) - v(8 steps)| / 3 per value."""
        coarse_out = self.output + ".coarse"
        code = cli.main(self.argv(coarse_out, steps=self.steps // 2))
        if code != 0:
            return [f"vol-gamma --steps {self.steps // 2} exited {code}"]
        with open(coarse_out) as fh:
            out = json.load(fh)
        coarse = {"total": float(out["total"])}
        coarse.update((k, float(v)) for k, v in out["orientations"].items())
        bound = self.error_bound * (1e-6 if perturb else 1.0)
        worst = max(abs(values[k] - coarse[k]) / 3 for k in values)
        if not worst <= bound:
            return [f"error estimate {worst:.3e} exceeds {bound:.1e}"]
        return []


class VolumePathG2:
    """`pleatbend volume-path --format json` on a 1025-sample pure bend.

    Cuff a1 of a genus-2 surface has real length L and is bent from 0 to
    theta; both are drawn from the seed.  The closed form is L theta / 2.
    """

    name = "volume-path-g2"
    steps = 1024
    tol = 1e-9

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.length = float(rng.uniform(1.8, 2.4))
        self.theta = float(rng.uniform(0.3, 0.7))

    def setup(self, workdir: str) -> None:
        pd = standard_decomposition(2)
        self.surface = os.path.join(workdir, "surface-g2.json")
        self.path = os.path.join(workdir, "path-g2.json")
        self.output = os.path.join(workdir, "volume-path-g2.out.json")
        save_document(self.surface, pd)
        length, theta = self.length, self.theta
        save_path(self.path, path_from_parameters(
            pd, lambda t: (length, 1.7, 2.3),
            lambda t: (0.3 + 1j * theta * t, 0.1, 0.2), steps=self.steps))

    def run(self) -> int:
        return cli.main(["volume-path", "--input", self.path, "--pd", self.surface,
                     "--format", "json", "--output", self.output])

    def check(self, code: int, perturb: bool, check_error: bool):
        if code != 0:
            return 1, 1, [f"volume-path exited {code}"]
        with open(self.output) as fh:
            out = json.load(fh)
        want = 0.5 * self.length * self.theta + (1e-6 if perturb else 0.0)
        got = float(out["delta_v"])
        fails = []
        if not abs(got - want) <= self.tol:
            fails.append(f"delta_v {got!r} vs closed form {want!r}")
        if out["steps"] != self.steps:
            fails.append(f"{out['steps']} steps, want {self.steps}")
        return 1, int(bool(fails)), fails


class RankSweep:
    """jacobian_rank at 2000 seeded random representations of the
    genus-2 handlebody group, against the bundled inclusion."""

    name = "rank-sweep"
    draws = 2000

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: str) -> None:
        doc = files("pleatbend.data").joinpath("genus2_handlebody.json")
        _, self.inc = load_document(str(doc))
        rng = np.random.default_rng(self.seed)
        self.reps = [random_representation(rng, generators=self.inc.generators)
                     for _ in range(self.draws)]

    def run(self) -> int:
        self.ranks = []
        for rep in self.reps:
            try:
                self.ranks.append(representation.jacobian_rank(rep, self.inc)[0])
            except PleatbendError as exc:
                self.ranks.append(exc)
        return 0

    def check(self, code: int, perturb: bool, check_error: bool):
        want = 3 * len(self.inc.generators) - 3 + (1 if perturb else 0)
        misses = [f"draw {k}: {r!r}" for k, r in enumerate(self.ranks)
                  if r != want]
        msgs = [f"{len(misses)} of {self.draws} draws miss rank {want}; "
                f"first {misses[0]}"] if misses else []
        return self.draws, len(misses), msgs


WORKLOADS = {w.name: w for w in (VolGammaG3, VolumePathG2, RankSweep)}


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
