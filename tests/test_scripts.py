"""The scripts and the command line run on the runtime dependencies
alone: each runs in a fresh interpreter in which importing scipy fails."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_without_scipy(code: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", 'import sys; sys.modules["scipy"] = None\n'
         + code],
        capture_output=True, text=True, env=env, timeout=300)


def run_script(script: pathlib.Path, *argv) -> subprocess.CompletedProcess:
    return run_without_scipy(
        f"import runpy; sys.argv = {[str(script), *argv]!r}\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')")


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr


# sha256 of the files write_demo_inputs.py --steps 32 writes, recorded
# on x86-64 with numpy 2.4.6, like the goldens in tests/data; the path
# and representation files pin the gluing and the JSON writer byte for
# byte
DEMO_SHA256 = {
    "bent.json":
        "2d085e736115cda251ec31a6d09fff82950e3ece6e72dc5b088e9f579e2f8666",
    "fuchsian.json":
        "7629fdc9359462f93694b45905381b0e93cec3a7d443204b90a4b77a45b50fef",
    "pure_bend.json":
        "d90f986c21272d1abece7e984caf019845c6049d41e3a3fb5f390c5421e07551",
    "surface.json":
        "c02a930f3f12553e677331fac8c28d137f073c52fe0113bec84f1c9f6e76e21f",
    "twist_loop.json":
        "b90bd3ab9fea7c8c41744b22a1bc6a38861e909a722960f422e0a347fb742a8a",
}


def test_demo_inputs_bytes(tmp_path):
    proc = run_script(ROOT / "scripts" / "write_demo_inputs.py",
                      "--out", str(tmp_path), "--steps", "32")
    assert proc.returncode == 0, proc.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == DEMO_SHA256


def test_cli_help():
    proc = run_without_scipy(
        "from pleatbend.cli import main; sys.exit(main(['--help']))")
    assert proc.returncode == 0, proc.stderr


def test_loop_defect_demo_reports_every_family():
    # at 16 steps the conjugation circle is too coarse for endpoint
    # tracking; its row names the guard and the other families still run
    proc = run_script(ROOT / "scripts" / "loop_defect_demo.py",
                      "--steps", "16")
    assert proc.returncode == 1, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 3
    assert [row for row in rows if "OrientationTrackingFailure" in row] == [
        rows[2]]


def test_pure_bend_demo_meets_closed_form():
    proc = run_script(ROOT / "scripts" / "pure_bend_demo.py", "--steps", "16")
    assert proc.returncode == 0, proc.stderr
    [error] = [line.split(":")[1] for line in proc.stdout.splitlines()
               if line.startswith("relative error")]
    assert float(error) <= 1e-12


def test_rank_experiment_full_rank():
    proc = run_script(ROOT / "scripts" / "rank_experiment.py", "--seeds", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "seeds: 5" in lines
    assert [line for line in lines if line.startswith("rank ")] == [
        "rank 3: 5"]
    # criterion 7's bounds on what the script reports: sv[3] is
    # rounding at every draw, and sv[2] clears the rank threshold
    assert ("null singular value sv[3]/sv[0] at rank 3: below 1e-12 in 5 "
            "of 5") in lines
    [margin] = [line.split(":")[1].split()[0] for line in lines
                if line.startswith("smallest margin")]
    assert float(margin) > 1e-8


# every script once at its defaults, as a reader would first run it

def test_pure_bend_demo_at_defaults():
    proc = run_script(ROOT / "scripts" / "pure_bend_demo.py")
    assert proc.returncode == 0, proc.stderr
    [error] = [line.split(":")[1] for line in proc.stdout.splitlines()
               if line.startswith("relative error")]
    assert float(error) < 1e-12


def test_loop_defect_demo_at_defaults():
    # at the default 64 steps the conjugation circle tracks too
    proc = run_script(ROOT / "scripts" / "loop_defect_demo.py")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 3
    assert [row for row in rows if "FAILED" in row] == []


def test_rank_experiment_at_defaults():
    # the whole output, null count and margin included, as recorded on
    # x86-64 with numpy 2.4.6: the rank experiment cannot move silently.
    # sv[3] is rounding, so it is counted against a bound, not printed
    proc = run_script(ROOT / "scripts" / "rank_experiment.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "seeds: 50\n"
        "rank 3: 50\n"
        "null singular value sv[3]/sv[0] at rank 3: below 1e-12 in 50 "
        "of 50\n"
        "smallest margin sv[2]/sv[0] at rank 3: 1.159e-02 "
        "(threshold 1e-08)\n")
