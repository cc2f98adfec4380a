"""End-to-end tests of the pleatbend command line interface."""

import importlib.resources
import json
import math
import pathlib
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from pleatbend import (
    fenchel_nielsen_rep,
    path_from_parameters,
    save_document,
    save_path,
    save_rep,
    standard_decomposition,
)
from pleatbend.cli import main

DATA = pathlib.Path(__file__).parent / "data"

LENGTHS = (2.0, 1.7, 2.3)
TWISTS = (0.3, 0.1, 0.2)


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """Demo inputs written once for the whole module."""
    root = tmp_path_factory.mktemp("cli_demo")
    pd = standard_decomposition(2)
    save_document(str(root / "surface.json"), pd, None)

    save_rep(str(root / "fuchsian.json"),
             fenchel_nielsen_rep(pd, LENGTHS, TWISTS))
    save_rep(str(root / "bent.json"),
             fenchel_nielsen_rep(pd, LENGTHS,
                                 (TWISTS[0] + 0.4j,) + TWISTS[1:]))

    save_path(str(root / "pure_bend.json"), path_from_parameters(
        pd, lambda t: LENGTHS,
        lambda t: (TWISTS[0] + 0.5j * t,) + TWISTS[1:], steps=16))
    save_path(str(root / "twist_loop.json"), path_from_parameters(
        pd, lambda t: LENGTHS,
        lambda t: (TWISTS[0] + 2j * math.pi * t,) + TWISTS[1:], steps=32))

    data = importlib.resources.files("pleatbend.data")
    for name in ("f2_rep.json", "handlebody_rep.json",
                 "genus2_handlebody.json"):
        with importlib.resources.as_file(data / name) as p:
            shutil.copy(p, root / name)
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_table(self, demo, capsys):
        code, out, _ = run(capsys, "classify",
                           "--input", str(demo / "f2_rep.json"),
                           "--words", "x,y,xy")
        assert code == 0
        rows = [l for l in out.splitlines() if l.split() and
                l.split()[0] in ("x", "y", "xy")]
        assert len(rows) == 3
        assert "loxodromic" in out
        assert "parabolic" in out

    def test_json_format(self, demo, capsys):
        code, out, _ = run(capsys, "classify",
                           "--input", str(demo / "f2_rep.json"),
                           "--words", "x", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["word"] == "x"
        assert payload["rows"][0]["class"] == "loxodromic"

    def test_missing_words_is_usage_failure(self, demo, capsys):
        code, _, err = run(capsys, "classify",
                           "--input", str(demo / "f2_rep.json"))
        assert code == 2
        assert "words" in err


class TestPleatAndBend:
    def test_pleat_reports_adapted(self, demo, capsys):
        code, out, _ = run(capsys, "pleat",
                           "--input", str(demo / "fuchsian.json"),
                           "--pd", str(demo / "surface.json"),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["adapted"] is True

    @pytest.mark.parametrize("command", ["pleat", "bend"])
    def test_adaptedness_checked_at_the_given_tolerance(self, demo, capsys,
                                                        command):
        # at tolerance 3 the a1 image counts as the identity, so no
        # realization may be printed
        code, out, err = run(capsys, command,
                             "--input", str(demo / "bent.json"),
                             "--pd", str(demo / "surface.json"),
                             "--tolerance", "3")
        assert code == 2
        assert out == ""
        assert "NotAdapted" in err
        assert "cuff a1 is identity" in err

    def test_bend_reads_pure_bend_angle(self, demo, capsys):
        code, out, _ = run(capsys, "bend",
                           "--input", str(demo / "bent.json"),
                           "--pd", str(demo / "surface.json"),
                           "--format", "json")
        assert code == 0
        rows = {r["id"]: r for r in json.loads(out)["rows"]
                if r["kind"] == "cuff"}
        assert float(rows["a1"]["angle"]) == pytest.approx(0.4, abs=1e-10)
        assert float(rows["a2"]["angle"]) == pytest.approx(0.0, abs=1e-10)


class TestVolumePath:
    def test_text_value(self, demo, capsys):
        code, out, _ = run(capsys, "volume-path",
                           "--input", str(demo / "pure_bend.json"),
                           "--pd", str(demo / "surface.json"))
        assert code == 0
        assert "delta_v" in out
        value = float([l for l in out.splitlines()
                       if l.startswith("delta_v")][0].split()[-1])
        assert value == pytest.approx(0.5, rel=1e-9)

    def test_json_and_determinism(self, demo, capsys):
        argv = ("volume-path", "--input", str(demo / "pure_bend.json"),
                "--pd", str(demo / "surface.json"), "--format", "json")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert float(payload["delta_v"]) == pytest.approx(0.5, rel=1e-9)
        assert payload["steps"] == 16

    def test_loop_line_on_closed_path(self, demo, capsys):
        code, out, _ = run(capsys, "volume-path",
                           "--input", str(demo / "twist_loop.json"),
                           "--pd", str(demo / "surface.json"))
        assert code == 0
        assert "loop defect PASS" in out

    def test_svg_output(self, demo, capsys, tmp_path):
        target = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "volume-path",
                         "--input", str(demo / "pure_bend.json"),
                         "--pd", str(demo / "surface.json"),
                         "--format", "svg", "--output", str(target))
        assert code == 0
        root = ET.parse(target).getroot()
        assert root.tag.endswith("svg")


class TestVolGamma:
    def test_orientation_labels_and_total(self, demo, capsys):
        code, out, _ = run(capsys, "vol-gamma",
                           "--input", str(demo / "pure_bend.json"),
                           "--pd", str(demo / "surface.json"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["orientations"]) == 8
        assert "+++" in payload["orientations"]
        assert float(payload["total"]) == pytest.approx(0.0, abs=1e-9)


class TestGoldenOutput:
    """vol-gamma and loop-defect write the same bytes as the
    orientation-by-orientation loop they replaced; tests/data holds
    that loop's output on the demo inputs."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("command,source", [
        ("vol-gamma", "pure_bend.json"),
        ("loop-defect", "twist_loop.json"),
    ])
    def test_bytes(self, demo, capsys, command, source, fmt):
        code, out, _ = run(capsys, command, "--input", str(demo / source),
                           "--pd", str(demo / "surface.json"),
                           "--format", fmt)
        assert code == 0
        assert out.encode() == (DATA / f"{command}.{fmt}").read_bytes()


class TestLoopDefect:
    def test_pass_verdict(self, demo, capsys):
        code, out, _ = run(capsys, "loop-defect",
                           "--input", str(demo / "twist_loop.json"),
                           "--pd", str(demo / "surface.json"))
        assert code == 0
        assert "PASS" in out

    def test_open_path_rejected(self, demo, capsys):
        code, _, err = run(capsys, "loop-defect",
                           "--input", str(demo / "pure_bend.json"),
                           "--pd", str(demo / "surface.json"))
        assert code == 2
        assert "EndpointsMismatch" in err


class TestPeripheralAndRank:
    def test_peripheral_compares_reps(self, demo, capsys):
        code, out, _ = run(capsys, "peripheral",
                           "--input", str(demo / "f2_rep.json"),
                           str(demo / "handlebody_rep.json"),
                           "--inclusion", str(demo / "genus2_handlebody.json"))
        assert code == 0
        assert "distance" in out

    def test_peripheral_csv(self, demo, capsys):
        code, out, _ = run(capsys, "peripheral",
                           "--input", str(demo / "f2_rep.json"),
                           "--inclusion", str(demo / "genus2_handlebody.json"),
                           "--format", "csv")
        assert code == 0
        header, *rows = [l for l in out.splitlines() if l]
        assert header == "word,re,im"
        assert len(rows) == 4

    def test_rank_line(self, demo, capsys):
        code, out, _ = run(capsys, "rank",
                           "--input", str(demo / "handlebody_rep.json"),
                           "--inclusion", str(demo / "genus2_handlebody.json"))
        assert code == 0
        assert "rank 3 of 3 expected" in out

    def test_rank_refuses_reducible(self, demo, capsys):
        code, _, err = run(capsys, "rank",
                           "--input", str(demo / "f2_rep.json"),
                           "--inclusion", str(demo / "genus2_handlebody.json"))
        assert code == 2
        assert "ReducibleRepresentation" in err


class TestPlot:
    def test_angle_plot(self, demo, capsys, tmp_path):
        target = tmp_path / "angles.svg"
        code, _, _ = run(capsys, "plot",
                         "--input", str(demo / "pure_bend.json"),
                         "--pd", str(demo / "surface.json"),
                         "--quantity", "angles", "--output", str(target))
        assert code == 0
        assert ET.parse(target).getroot().tag.endswith("svg")


class TestFailureModes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify",
                           "--input", "/nonexistent/rep.json", "--words", "x")
        assert code == 3
        assert "parse error" in err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json")
        code, _, err = run(capsys, "classify",
                           "--input", str(bad), "--words", "x")
        assert code == 3
        assert "parse error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate", "--input", "x.json")
        assert code == 3
        assert "parse error" in err

    def test_unknown_letter_names_object(self, demo, capsys):
        code, _, err = run(capsys, "classify",
                           "--input", str(demo / "f2_rep.json"),
                           "--words", "xq")
        assert code == 2
        assert "UnknownLetter" in err
        assert "'q'" in err


class TestEntryPoint:
    def test_installed_script(self, demo):
        proc = subprocess.run(
            [sys.executable, "-m", "pleatbend.cli", "classify",
             "--input", str(demo / "f2_rep.json"), "--words", "x"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "loxodromic" in proc.stdout
