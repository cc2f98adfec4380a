"""End-to-end tests of the pleatbend command line interface."""

import argparse
import importlib.resources
import importlib.util
import itertools
import json
import math
import pathlib
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from pleatbend import (
    MoebiusMap,
    Representation,
    fenchel_nielsen_rep,
    integrate_volume_change,
    jacobian_rank,
    load_document,
    load_path,
    load_rep,
    path_from_parameters,
    save_document,
    save_path,
    save_rep,
    standard_decomposition,
)
from pleatbend import cli, moebius, volume
from pleatbend.cli import _build_parser, main

from test_moebius import agreement_draws
from test_topology import misaligned_document

DATA = pathlib.Path(__file__).parent / "data"
ROOT = pathlib.Path(__file__).resolve().parent.parent

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

    # copies in which the image of a1 is the identity, at every sample
    # of a path, so that a loop's endpoints still match
    for name in ("bent", "pure_bend", "twist_loop"):
        doc = json.loads((root / f"{name}.json").read_text())
        for matrices in ([doc["matrices"]] if "matrices" in doc
                         else [s["matrices"] for s in doc["samples"]]):
            matrices["a1"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        (root / f"{name}_a1_identity.json").write_text(json.dumps(doc))
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

    def test_each_word_evaluated_once(self, demo, capsys, monkeypatch):
        # tr^2 is read off the one image that classify also types
        from pleatbend import representation
        seen = []
        evaluate = representation.evaluate_word

        def counting(rep, word):
            seen.append(word)
            return evaluate(rep, word)

        for module in (cli, representation):
            monkeypatch.setattr(module, "evaluate_word", counting)
        code, _, _ = run(capsys, "classify",
                         "--input", str(demo / "f2_rep.json"),
                         "--words", "x,y,xy")
        assert code == 0
        assert seen == ["x", "y", "xy"]

    def test_classify_reads_the_array_kernel_once(self, demo, capsys,
                                                  monkeypatch):
        # the public functions read one column of MoebiusArray.classify,
        # and classify one for all its words
        calls = []
        kernel = moebius.MoebiusArray.classify

        def counting(maps):
            calls.append(maps.re.shape[2])
            return kernel(maps)
        monkeypatch.setattr(moebius.MoebiusArray, "classify", counting)
        m = MoebiusMap(2, 1, 1, 1)
        for public in (moebius.classify, moebius.fixed_points,
                       moebius.complex_length):
            calls.clear()
            public(m)
            assert calls == [1]
        calls.clear()
        code, _, _ = run(capsys, "classify",
                         "--input", str(demo / "f2_rep.json"),
                         "--words", "x,y,xy")
        assert code == 0
        assert calls == [3]

    def test_classify_prints_the_pleat_length(self, tmp_path, capsys):
        # at draw 7 the 15th digit of Im lambda(a1) moves with the last
        # bit of the acosh, so the two commands agree only if they read
        # one kernel
        pd = standard_decomposition(2)
        rep = list(agreement_draws(2, 8))[-1]
        save_rep(str(tmp_path / "rep.json"), rep)
        save_document(str(tmp_path / "surface.json"), pd, None)
        code, out, _ = run(capsys, "pleat", "--input",
                           str(tmp_path / "rep.json"), "--pd",
                           str(tmp_path / "surface.json"), "--format", "json")
        assert code == 0
        want = json.loads(out)["cuff_lengths"]
        code, out, _ = run(capsys, "classify", "--input",
                           str(tmp_path / "rep.json"), "--words",
                           ",".join(c.word for c in pd.cuffs),
                           "--format", "json")
        assert code == 0
        assert [r["complex_length"] for r in json.loads(out)["rows"]] \
            == [want[c.id] for c in pd.cuffs]

    def test_missing_words_is_usage_failure(self, demo, capsys):
        code, _, err = run(capsys, "classify",
                           "--input", str(demo / "f2_rep.json"))
        assert code == 3
        assert "words" in err


class TestPleatAndBend:
    def test_pleat_reports_adapted(self, demo, capsys):
        # realize raises unless the representation is adapted, so pleat
        # prints a realization, with no adaptedness verdict, or fails
        code, out, _ = run(capsys, "pleat",
                           "--input", str(demo / "fuchsian.json"),
                           "--pd", str(demo / "surface.json"),
                           "--format", "json")
        assert code == 0
        assert set(json.loads(out)) == {"cuff_lengths", "vertices"}

    @pytest.mark.parametrize("command", ["pleat", "bend"])
    def test_adaptedness_checked_at_the_given_tolerance(self, demo, capsys,
                                                        command):
        # classified at EPS_CLASS, an a1 image that is the identity
        # fails the adaptedness check, so no realization may be printed
        code, out, err = run(capsys, command,
                             "--input", str(demo / "bent_a1_identity.json"),
                             "--pd", str(demo / "surface.json"))
        assert code == 2
        assert out == ""
        assert "NotAdapted" in err
        assert "cuff 'a1' is identity" in err

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

    @pytest.mark.parametrize("scale", ["1e160", "1e-308"])
    def test_horoball_past_the_float_range_names_the_guard(self, demo,
                                                           capsys, scale):
        # a finite positive scale whose witness height leaves the float
        # range made every leaf length nan or -inf at exit 0
        code, out, err = run(capsys, "bend",
                             "--input", str(demo / "bent.json"),
                             "--pd", str(demo / "surface.json"),
                             "--horoball", scale)
        assert code == 2
        assert out == ""
        assert err == ("error: DegenerateConfiguration: horoball truncation "
                       "left the float range: the truncated length of leaf "
                       "(0, 0) is not finite\n")


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
        argv = ("--input", str(demo / "twist_loop.json"),
                "--pd", str(demo / "surface.json"))
        code, out, _ = run(capsys, "volume-path", *argv)
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "delta_v", "error_estimate", "steps"]
        # the loop verdict is loop-defect's
        code, out, _ = run(capsys, "loop-defect", *argv)
        assert code == 0
        assert out.startswith("loop defect PASS: ")

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_closed_path_runs_one_pipeline(self, demo, capsys, monkeypatch,
                                           fmt):
        # one endpoint chain over the samples, and no loop check
        calls = []
        path_terms = volume.path_terms

        def counting(*args, **kwargs):
            calls.append(args[1])
            return path_terms(*args, **kwargs)

        def no_loop(*args, **kwargs):
            raise AssertionError("volume-path ran the loop check")

        monkeypatch.setattr(volume, "path_terms", counting)
        monkeypatch.setattr(cli, "loop_defect", no_loop)
        argv = ("volume-path", "--input", str(demo / "twist_loop.json"),
                "--pd", str(demo / "surface.json"), "--format", fmt)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [len(starts) for starts in calls] == [1]
        code, out16, _ = run(capsys, *argv, "--steps", "16")
        assert code == 0
        assert [len(starts) for starts in calls] == [1, 1]
        assert "loop defect" not in out + out16
        if fmt == "json":
            pd, _ = load_document(str(demo / "surface.json"))
            path = load_path(str(demo / "twist_loop.json"), pd=pd)
            want = integrate_volume_change(path, "attracting")
            payload = json.loads(out)
            assert "loop_defect" not in payload
            assert payload["delta_v"] == f"{want.delta_v:.15g}"
            assert payload["cumulative"] == [f"{c:.15g}"
                                             for c in want.cumulative]


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
    """Output on the demo inputs, byte for byte, against the files
    tests/data/<command>-<input>.<format>.  They were written by the
    code each pipeline replaced: the orientation-by-orientation loop
    for vol-gamma and loop-defect, word-by-word scalar evaluation for
    pleat, bend and volume-path, except the three vol-gamma files,
    written by the geometry pass with numpy's transcendentals, and the
    two loop-defect files, written after bending angles were unwrapped
    as running sums of reduced steps.  The four classify files and the
    two plot files, plot-pure_bend-<quantity>.svg, were written before
    the classification tolerance became a constant.  The text and csv
    files of pleat and bend, the json and csv files of volume-path and
    the three peripheral files were written before the commands shared
    one output step.  numpy's
    transcendentals differ between hosts (numpy's own SIMD code on
    AVX-512), so the files hold the bytes of an x86-64 host with numpy
    2.4.6."""

    @pytest.mark.parametrize("command,source,fmt", [
        ("vol-gamma", "pure_bend.json", "text"),
        ("vol-gamma", "pure_bend.json", "json"),
        ("vol-gamma", "pure_bend.json", "csv"),
        ("loop-defect", "twist_loop.json", "text"),
        ("loop-defect", "twist_loop.json", "json"),
        ("pleat", "fuchsian.json", "json"),
        ("pleat", "bent.json", "json"),
        ("pleat", "fuchsian.json", "text"),
        ("pleat", "bent.json", "text"),
        ("bend", "fuchsian.json", "json"),
        ("bend", "bent.json", "json"),
        ("bend", "fuchsian.json", "text"),
        ("bend", "bent.json", "text"),
        ("bend", "fuchsian.json", "csv"),
        ("bend", "bent.json", "csv"),
        ("volume-path", "pure_bend.json", "text"),
        ("volume-path", "twist_loop.json", "text"),
        ("volume-path", "pure_bend.json", "json"),
        ("volume-path", "twist_loop.json", "json"),
        ("volume-path", "pure_bend.json", "csv"),
        ("volume-path", "twist_loop.json", "csv"),
    ])
    def test_bytes(self, demo, capsys, command, source, fmt):
        code, out, _ = run(capsys, command, "--input", str(demo / source),
                           "--pd", str(demo / "surface.json"),
                           "--format", fmt)
        assert code == 0
        golden = DATA / f"{command}-{pathlib.Path(source).stem}.{fmt}"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("source", ["fuchsian.json", "bent.json"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_classify_bytes(self, demo, capsys, source, fmt):
        code, out, _ = run(capsys, "classify", "--input", str(demo / source),
                           "--words", "a1,b1,a1b1", "--format", fmt)
        assert code == 0
        golden = DATA / f"classify-{pathlib.Path(source).stem}.{fmt}"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("quantity", ["volume", "angles"])
    def test_plot_bytes(self, demo, capsys, quantity):
        code, out, _ = run(capsys, "plot",
                           "--input", str(demo / "pure_bend.json"),
                           "--pd", str(demo / "surface.json"),
                           "--quantity", quantity)
        assert code == 0
        golden = DATA / f"plot-pure_bend-{quantity}.svg"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_peripheral_bytes(self, demo, capsys, monkeypatch, fmt):
        # run from the demo directory, so that the file names that the
        # output repeats are the same on every host
        monkeypatch.chdir(demo)
        code, out, _ = run(capsys, "peripheral",
                           "--input", "f2_rep.json", "handlebody_rep.json",
                           "--inclusion", "genus2_handlebody.json",
                           "--format", fmt)
        assert code == 0
        golden = DATA / f"peripheral-f2_rep-handlebody_rep.{fmt}"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rank_bytes(self, demo, capsys, fmt):
        # the 15-digit singular values and margin of the bundled
        # handlebody representation, written before jacobian_rank
        # planned its words once and tested each generator once
        code, out, _ = run(capsys, "rank",
                           "--input", str(demo / "handlebody_rep.json"),
                           "--inclusion", str(demo / "genus2_handlebody.json"),
                           "--format", fmt)
        assert code == 0
        assert out.encode() == (DATA / f"rank-handlebody.{fmt}").read_bytes()


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
        assert header == "file,word,re,im"
        assert len(rows) == 4

    def test_peripheral_csv_computes_no_residual(self, demo, capsys,
                                                 monkeypatch):
        # csv prints the fingerprints alone, so it computes neither the
        # conjugacy residual nor the distance that text and json print
        def refuse(*args):
            raise AssertionError("conjugacy_residual called")
        monkeypatch.setattr(cli, "conjugacy_residual", refuse)
        code, out, _ = run(capsys, "peripheral",
                           "--input", str(demo / "f2_rep.json"),
                           str(demo / "handlebody_rep.json"),
                           "--inclusion", str(demo / "genus2_handlebody.json"),
                           "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 9

    def test_rank_line(self, demo, capsys):
        code, out, _ = run(capsys, "rank",
                           "--input", str(demo / "handlebody_rep.json"),
                           "--inclusion", str(demo / "genus2_handlebody.json"))
        assert code == 0
        assert "rank 3 of 3 expected" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rank_margin(self, demo, capsys, fmt):
        # sv[rank-1] / sv[0], which stays away from the roundoff in
        # sv[rank]
        rep_file = str(demo / "handlebody_rep.json")
        inc_file = str(demo / "genus2_handlebody.json")
        code, out, _ = run(capsys, "rank", "--input", rep_file,
                           "--inclusion", inc_file, "--format", fmt)
        assert code == 0
        rank, sv = jacobian_rank(load_rep(rep_file),
                                 load_document(inc_file)[1])
        margin = sv[rank - 1] / sv[0]
        assert 1e-8 < margin <= 1
        if fmt == "json":
            assert json.loads(out)["margin"] == f"{margin:.15g}"
        else:
            assert f"margin: {margin:.15g}" in out.splitlines()

    @pytest.mark.parametrize("command", ["rank", "peripheral"])
    def test_misaligned_inclusion_refused(self, demo, capsys, tmp_path,
                                          command):
        doc = tmp_path / "misaligned.json"
        doc.write_text(json.dumps(misaligned_document()))
        code, _, err = run(capsys, command,
                           "--input", str(demo / "handlebody_rep.json"),
                           "--inclusion", str(doc))
        assert code == 2
        assert err == ("error: InvalidDecomposition: generator_words not "
                       "aligned with surface generators\n")

    def test_rank_refuses_reducible(self, demo, capsys):
        code, _, err = run(capsys, "rank",
                           "--input", str(demo / "f2_rep.json"),
                           "--inclusion", str(demo / "genus2_handlebody.json"))
        assert code == 2
        assert "ReducibleRepresentation" in err


class TestPlot:
    def test_volume_plot(self, demo, capsys, tmp_path):
        target = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot",
                         "--input", str(demo / "pure_bend.json"),
                         "--pd", str(demo / "surface.json"),
                         "--output", str(target))
        assert code == 0
        root = ET.parse(target).getroot()
        assert root.tag.endswith("svg")

    def test_angle_plot(self, demo, capsys, tmp_path):
        target = tmp_path / "angles.svg"
        code, _, _ = run(capsys, "plot",
                         "--input", str(demo / "pure_bend.json"),
                         "--pd", str(demo / "surface.json"),
                         "--quantity", "angles", "--output", str(target))
        assert code == 0
        assert ET.parse(target).getroot().tag.endswith("svg")

    def test_angle_plot_refuses_steps(self, demo, capsys, tmp_path):
        # the angle plot reads every stored sample, so --steps, which
        # divides the 16 stored intervals here, is not read
        target = tmp_path / "angles.svg"
        code, out, err = run(capsys, "plot",
                             "--input", str(demo / "pure_bend.json"),
                             "--pd", str(demo / "surface.json"),
                             "--quantity", "angles", "--steps", "4",
                             "--output", str(target))
        assert code == 3
        assert out == ""
        assert err.startswith("parse error: ")
        assert "--steps" in err
        assert not target.exists()


class TestToleranceInSamplePipeline:
    """The sample pipeline classifies at EPS_CLASS, and no command takes
    another tolerance: a path whose a1 image is the identity fails at
    the path start and on every sample."""

    @pytest.mark.parametrize("argv, error", [
        (("volume-path", "pure_bend.json"), "NotAdapted"),
        (("volume-path", "twist_loop.json"), "NotAdapted"),
        (("plot", "pure_bend.json"), "NotAdapted"),
        (("plot", "pure_bend.json", "--quantity", "angles"), "NotAdapted"),
        (("vol-gamma", "pure_bend.json"), "OrientationTrackingFailure"),
        (("loop-defect", "twist_loop.json"), "OrientationTrackingFailure"),
    ], ids=["volume-path", "volume-path-loop", "plot", "plot-angles",
            "vol-gamma", "loop-defect"])
    def test_identity_at_tolerance_3(self, demo, capsys, argv, error):
        command, path, *rest = argv
        path = path.replace(".json", "_a1_identity.json")
        code, out, err = run(capsys, command, "--input", str(demo / path),
                             "--pd", str(demo / "surface.json"), *rest)
        assert code == 2
        assert out == ""
        assert error in err
        assert "cuff 'a1' is identity" in err

    @pytest.mark.parametrize("command, path", [
        ("volume-path", "twist_loop.json"), ("vol-gamma", "pure_bend.json"),
        ("loop-defect", "twist_loop.json"), ("plot", "pure_bend.json")])
    def test_default_tolerance_is_the_default(self, demo, capsys, command,
                                              path):
        # the run at EPS_CLASS succeeds; naming that tolerance is refused
        argv = (command, "--input", str(demo / path),
                "--pd", str(demo / "surface.json"))
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--tolerance", "1e-9")
        assert (code, out) == (3, "")
        assert err == ("parse error: unrecognized arguments: "
                       "--tolerance 1e-9\n")


# options each subcommand reads besides --input and --output, and the
# formats it writes (None: no --format)
OPTIONS = {
    "classify": ({"words"}, ("text", "json")),
    "pleat": ({"pd", "endpoints"}, ("text", "json")),
    "bend": ({"pd", "endpoints", "horoball"}, ("text", "json", "csv")),
    "volume-path": ({"pd", "endpoints", "steps"}, ("text", "json", "csv")),
    "vol-gamma": ({"pd", "steps"}, ("text", "json", "csv")),
    "loop-defect": ({"pd"}, ("text", "json")),
    "peripheral": ({"inclusion"}, ("text", "json", "csv")),
    "rank": ({"inclusion"}, ("text", "json")),
    "plot": ({"pd", "endpoints", "steps", "quantity"}, None),
}

# a well-formed value for every option some subcommand reads, and for
# --tolerance, which none reads: the classification tolerance is the
# constant EPS_CLASS
VALUES = {"pd": ["s.json"], "inclusion": ["s.json"], "words": ["x"],
          "tolerance": ["1e-9"], "endpoints": ["repelling"],
          "horoball": ["2"], "steps": ["4"], "quantity": ["angles"],
          "rank": []}


def _unread():
    """(subcommand, extra arguments, the token the error must name) for
    every option, format and second input file a subcommand does not
    read."""
    cases = []
    for command, (options, formats) in OPTIONS.items():
        for option in sorted(VALUES.keys() - options):
            cases.append((command, [f"--{option}", *VALUES[option]],
                          f"--{option}"))
        for fmt in ("text", "json", "csv", "svg"):
            if formats is None or fmt not in formats:
                cases.append((command, ["--format", fmt], "--format"))
        if command != "peripheral":
            cases.append((command, ["b.json"], "b.json"))
    return [pytest.param(*case, id=" ".join([case[0], *case[1]]))
            for case in cases]


class TestOptions:
    """Each subcommand accepts only the options it reads."""

    def test_readme_table_is_the_command_table(self):
        # README's table of subcommands, options and --format values is
        # written by hand; it lists what cli._COMMANDS builds, a single
        # format as "none (svg)"
        lines = (ROOT / "README.md").read_text().splitlines()
        start = lines.index("| subcommand | options | `--format` |") + 2
        table = {}
        for line in itertools.takewhile(lambda l: l.startswith("|"),
                                        lines[start:]):
            command, options, formats = (cell.strip() for cell in
                                         line.strip("|").split("|"))
            formats = formats.removeprefix("none (").removesuffix(")")
            table[command.strip("`")] = (
                tuple(o.strip().strip("`")[2:] for o in options.split(",")),
                tuple(f.strip() for f in formats.split(",")))
        assert table == {name: (options, formats) for name, (_, options,
                         formats) in cli._COMMANDS.items()}

    def test_option_sets_and_formats(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(OPTIONS)
        settable = 0
        for command, parser in sub.choices.items():
            actions = {a.option_strings[-1][2:]: a for a in parser._actions
                       if a.option_strings and a.dest != "help"}
            options, formats = OPTIONS[command]
            want = options | {"input", "output"}
            if formats is not None:
                want.add("format")
                assert tuple(actions["format"].choices) == formats
            assert set(actions) == want, command
            assert (actions["input"].nargs == "+") == (command == "peripheral")
            settable += len(actions)
        assert settable == 44

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_parser_of_one_command(self, command):
        # main sets up the subcommand it runs, with the same options
        def options(parser):
            sub = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
            return {name: sorted(a.dest for a in p._actions)
                    for name, p in sub.choices.items()}

        full = options(_build_parser())
        assert options(_build_parser(command)) == {command: full[command]}

    @pytest.mark.parametrize("command, extra, token", _unread())
    def test_unread_option_is_usage_error(self, capsys, command, extra,
                                          token):
        code, out, err = run(capsys, command, "--input", "a.json", *extra)
        assert code == 3
        assert out == ""
        assert err.startswith("parse error: ")
        assert token in err
        if token != "--format":
            assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command, option, input", [
        ("pleat", "pd", "bent.json"), ("bend", "pd", "bent.json"),
        ("volume-path", "pd", "pure_bend.json"),
        ("vol-gamma", "pd", "pure_bend.json"),
        ("loop-defect", "pd", "twist_loop.json"),
        ("plot", "pd", "pure_bend.json"),
        ("peripheral", "inclusion", "handlebody_rep.json"),
        ("rank", "inclusion", "handlebody_rep.json")])
    def test_missing_option_is_usage_error(self, demo, capsys, command,
                                           option, input):
        # a required option left out is a usage error, as an unread one
        # is, and names itself; it is not a failed precondition (2)
        code, out, err = run(capsys, command, "--input", str(demo / input))
        assert code == 3
        assert out == ""
        assert err == f"parse error: {command} needs --{option}\n"

    @pytest.mark.parametrize("argv", [
        ("rank", "--input", "handlebody_rep.json",
         "--inclusion", "genus2_handlebody.json", "--format", "csv"),
        ("vol-gamma", "--input", "pure_bend.json", "--pd", "surface.json",
         "--endpoints", "repelling"),
        ("classify", "--input", "f2_rep.json", "handlebody_rep.json",
         "--words", "x"),
        ("peripheral", "--input", "handlebody_rep.json",
         "--inclusion", "genus2_handlebody.json", "--rank"),
    ], ids=["rank-csv", "vol-gamma-endpoints", "classify-two-inputs",
            "peripheral-rank"])
    def test_refused_on_real_inputs(self, demo, capsys, argv):
        files = {"handlebody_rep.json", "genus2_handlebody.json",
                 "pure_bend.json", "surface.json", "f2_rep.json"}
        argv = [str(demo / a) if a in files else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "unrecognized arguments" in err or "invalid choice" in err


class TestNumericOptions:
    """--horoball takes a finite positive number: a NaN or infinite
    horoball makes every truncated length NaN, so such a value, or one
    not positive, is a usage error naming the option.  A finite scale
    can still take a witness height past the float range (about 1e155
    and above, or 1e-308); bend refuses that at the truncation guard
    (exit 2), see TestPleatAndBend.  A command that does not read the
    option refuses it as unrecognized: the volume commands truncate at
    unit horoballs, so no scale reaches them, and no command reads
    --tolerance, since every check classifies at EPS_CLASS."""

    SOURCES = {"classify": "bent.json", "pleat": "bent.json",
               "bend": "bent.json", "volume-path": "pure_bend.json",
               "vol-gamma": "pure_bend.json",
               "loop-defect": "twist_loop.json", "plot": "pure_bend.json"}

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command, option", [
        (command, option) for command in SOURCES
        for option in ("tolerance", "horoball")])
    def test_refused(self, demo, capsys, command, option, value):
        argv = [command, "--input", str(demo / self.SOURCES[command])]
        argv += (["--words", "a1A1"] if command == "classify"
                 else ["--pd", str(demo / "surface.json")])
        code, out, err = run(capsys, *argv, f"--{option}", value)
        assert code == 3
        assert out == ""
        if option in OPTIONS[command][0]:
            assert err.startswith(f"parse error: argument --{option}: ")
            assert repr(value) in err
        else:
            assert err.startswith("parse error: unrecognized arguments: "
                                  f"--{option} {value}")


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

    def test_overflowing_generator_is_singular(self, tmp_path, capsys):
        # |a d| = 2.1e308 overflows while x is normalized to determinant 1
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"matrices": {
            "x": [[1.5e154, 1.5e154], [0, 0], [0, 0], [1e154, 0]]}}))
        code, _, err = run(capsys, "classify", "--input", str(big),
                           "--words", "x")
        assert code == 2
        assert "SingularMatrix" in err
        assert "generator 'x' in file cannot be normalized" in err

    def test_overflowing_trace_is_singular(self, tmp_path, capsys):
        # x is unimodular, but its trace 1e160 squares past the float
        # range, which no isometry type fits
        big = tmp_path / "big_trace.json"
        big.write_text(json.dumps({"matrices": {
            "x": [[1e160, 0], [0, 0], [0, 0], [1e-160, 0]]}}))
        code, out, err = run(capsys, "classify", "--input", str(big),
                             "--words", "xX,x")
        assert code == 2
        assert out == ""
        assert "SingularMatrix" in err
        assert "not finite" in err
        assert "word 'x'" in err

    def test_rank_huge_entry_is_singular(self, demo, tmp_path, capsys):
        # entries past 1.3e154 overflowed a float ** 2 in the identity
        # test; the squares are products now, and tr^2 = inf is refused
        data = json.loads((demo / "handlebody_rep.json").read_text())
        data["matrices"]["x"] = [[1e160, 0], [1, 0], [0, 0], [1e-160, 0]]
        big = tmp_path / "big_entry.json"
        big.write_text(json.dumps(data))
        code, out, err = run(capsys, "rank", "--input", str(big),
                             "--inclusion",
                             str(demo / "genus2_handlebody.json"))
        assert code == 2
        assert out == ""
        assert "SingularMatrix" in err
        assert "not finite" in err

    def test_classify_huge_elliptic(self, tmp_path, capsys):
        # tr = 0 is elliptic; the eigenvector norms square entries of
        # 1e160, which must not overflow
        big = tmp_path / "big_elliptic.json"
        big.write_text(json.dumps({"matrices": {
            "x": [[0, 0], [1e160, 0], [-1e-160, 0], [0, 0]]}}))
        code, out, err = run(capsys, "classify", "--input", str(big),
                             "--words", "x", "--format", "json")
        assert code == 0
        assert err == ""
        (row,) = json.loads(out)["rows"]
        assert row["class"] == "elliptic"

    def test_nan_generator_is_singular(self, tmp_path, capsys):
        # a NaN entry leaves tr^2 NaN, which no isometry type fits
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"matrices": {
            "x": [[math.nan, 0], [0, 0], [0, 0], [1, 0]]}}))
        code, out, err = run(capsys, "classify", "--input", str(bad),
                             "--words", "x")
        assert code == 2
        assert out == ""
        assert "SingularMatrix" in err
        assert "not finite" in err
        assert "word 'x'" in err

    def test_nan_sample_time_names_sample(self, demo, tmp_path, capsys):
        data = json.loads((demo / "pure_bend.json").read_text())
        data["samples"][5]["t"] = math.nan
        bad = tmp_path / "nan_time.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "volume-path", "--input", str(bad),
                             "--pd", str(demo / "surface.json"))
        assert code == 2
        assert out == ""
        assert "PleatbendError" in err
        assert "sample 5 " in err

    @pytest.mark.parametrize("source", ["bent.json", "pure_bend.json"])
    @pytest.mark.parametrize("entries, named", [
        ([["1", 0], [0, 0], [0, 0], [1, 0]], "['b1'][0][0]"),
        ([[1, 0], [0, 0], [1, 0]], "['b1']"),
        ([[1, 0], [0, 0], [0, 0], [1]], "['b1'][3]"),
        ([[1, 0], [0, 0], [0, None], [1, 0]], "['b1'][2][1]"),
        (None, "has no 'b1'")],
        ids=["string", "three-pairs", "short-pair", "null", "missing"])
    def test_malformed_matrix_names_sample_and_generator(
            self, demo, tmp_path, capsys, source, entries, named):
        data = json.loads((demo / source).read_text())
        if "samples" in data:
            matrices, where = data["samples"][5]["matrices"], "samples[5]"
            argv = ("volume-path", "--pd", str(demo / "surface.json"))
        else:
            matrices, where = data["matrices"], "file"
            argv = ("classify", "--words", "b1")
        if entries is None:
            del matrices["b1"]
        else:
            matrices["b1"] = entries
        bad = tmp_path / source
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, "--input", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("parse error: ValueError: ")
        assert f"{where}['matrices']" in err
        assert named in err

    @pytest.mark.parametrize("argv, document, named", [
        (("classify", "--words", "x"), {"matrices": {"x": [[1, 0]]}},
         "file['matrices']['x'] is malformed: [[1, 0]]"),
        (("pleat", "--pd", "surface.json"), "pure_bend.json",
         "file has no 'matrices'")], ids=["short-matrix", "path-file"])
    def test_representation_file_names_its_root_file(
            self, demo, tmp_path, capsys, argv, document, named):
        # a representation file is one sample, not a list of them
        if isinstance(document, str):
            source = demo / document
        else:
            source = tmp_path / "rep.json"
            source.write_text(json.dumps(document))
        argv = [str(demo / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, *argv, "--input", str(source))
        assert code == 3
        assert out == ""
        assert err == f"parse error: ValueError: {named}\n"

    @pytest.mark.parametrize("t", ["0.5", None, [0.5]])
    def test_malformed_sample_time_names_sample(self, demo, tmp_path,
                                                capsys, t):
        data = json.loads((demo / "pure_bend.json").read_text())
        data["samples"][3]["t"] = t
        bad = tmp_path / "bad_time.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "volume-path", "--input", str(bad),
                             "--pd", str(demo / "surface.json"))
        assert code == 3
        assert out == ""
        assert err.startswith("parse error: ValueError: samples[3]['t']")

    @pytest.mark.parametrize("source, edit, where", [
        ("pure_bend.json", lambda d: d["samples"][1].update(t=True),
         "samples[1]['t']"),
        ("pure_bend.json", lambda d: d["samples"][5]["matrices"].update(
            b1=[[True, 0], [0, 0], [0, 0], [1, 0]]),
         "samples[5]['matrices']['b1'][0][0]"),
        ("bent.json", lambda d: d["matrices"].update(
            b1=[[True, 0], [0, 0], [0, 0], [1, 0]]),
         "file['matrices']['b1'][0][0]"),
        ("surface.json",
         lambda d: d["pants"][0]["cuff_ends"][0].update(sign=True),
         "document['pants'][0]['cuff_ends'][0]['sign']"),
    ], ids=["path-time", "path-matrix", "rep-matrix", "decomposition-sign"])
    def test_boolean_is_no_number(self, demo, tmp_path, capsys, source, edit,
                                  where):
        # numpy and isinstance read a JSON true as 1 among numbers
        data = json.loads((demo / source).read_text())
        edit(data)
        bad = tmp_path / source
        bad.write_text(json.dumps(data))
        argv = {"pure_bend.json": ("volume-path", "--input", bad,
                                   "--pd", demo / "surface.json"),
                "bent.json": ("classify", "--input", bad, "--words", "b1"),
                "surface.json": ("volume-path",
                                 "--input", demo / "pure_bend.json",
                                 "--pd", bad)}[source]
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out) == (3, "")
        assert err == f"parse error: ValueError: {where} is malformed: True\n"

    @pytest.mark.parametrize("field, value, named", [
        ("pants", 5, "document['pants']"),
        ("cuffs", [{"id": "a1", "word": 7}], "document['cuffs'][0]['word']"),
        ("genus", "2", "document['genus']"),
        ("fenchel_nielsen", {"root": 0, "tree_cuffs": ["w1"],
                             "generator_roles": {"a1": 3}},
         "['generator_roles']['a1']"),
        ("surface", {"generators": "a1b1"}, "['surface']['generators']")],
        ids=["pants", "cuff-word", "genus", "role", "generators"])
    def test_malformed_decomposition_is_parse_error(self, demo, tmp_path,
                                                    capsys, field, value,
                                                    named):
        data = json.loads((demo / "surface.json").read_text())
        data[field] = value
        bad = tmp_path / "bad_surface.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "volume-path",
                             "--input", str(demo / "pure_bend.json"),
                             "--pd", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("parse error: ValueError: ")
        assert named in err

    @pytest.mark.parametrize("command,source", [
        ("pleat", "bent.json"), ("bend", "bent.json"),
        ("volume-path", "pure_bend.json")])
    def test_nan_generator_names_guard(self, demo, tmp_path, capsys, command,
                                       source):
        data = json.loads((demo / source).read_text())
        matrices = data["samples"][5]["matrices"] if "samples" in data \
            else data["matrices"]
        matrices["a1"][0] = [math.nan, 0.0]
        bad = tmp_path / source
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, command, "--input", str(bad),
                             "--pd", str(demo / "surface.json"))
        assert code == 2
        assert out == ""
        assert "SampleEvaluationFailure" in err
        assert "word 'a1'" in err

    def test_subsampled_failure_names_stored_sample(self, demo, tmp_path,
                                                    capsys):
        # --steps 8 reads every second of the 16 stored intervals: the
        # pass's fourth column is stored sample 6, and the message says 6
        data = json.loads((demo / "pure_bend.json").read_text())
        data["samples"][6]["matrices"]["a1"][0] = [math.nan, 0.0]
        bad = tmp_path / "pure_bend.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "volume-path", "--input", str(bad),
                             "--pd", str(demo / "surface.json"),
                             "--steps", "8")
        assert code == 2
        assert out == ""
        assert "SampleEvaluationFailure: sample 6: word 'a1' is " in err


def benchmark_workload(name: str, seed: int, workdir: pathlib.Path):
    """The benchmark's workload name at seed, its inputs written to
    workdir."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workload = {w.name: w for w in (module.VolGammaG3,
                                    module.VolumePathG2)}[name](seed)
    workload.setup(str(workdir))
    return workload


@pytest.mark.parametrize("name", ["volume-path-g2", "vol-gamma-g3"])
def test_path_commands_build_no_per_sample_objects(name, tmp_path,
                                                   monkeypatch):
    # a path is one array from file to integral: loading and the sample
    # pass wrap no generator image in a MoebiusMap and no sample in a
    # Representation
    workload = benchmark_workload(name, 0, tmp_path)
    built = {"maps": 0, "reps": 0}
    normalize, wrap = MoebiusMap.__post_init__, MoebiusMap._raw.__func__
    check = Representation.__post_init__

    def counting_normalize(m):
        built["maps"] += 1
        normalize(m)

    def counting_wrap(cls, *entries):
        built["maps"] += 1
        return wrap(cls, *entries)

    def counting_check(rep):
        built["reps"] += 1
        check(rep)

    monkeypatch.setattr(MoebiusMap, "__post_init__", counting_normalize)
    monkeypatch.setattr(MoebiusMap, "_raw", classmethod(counting_wrap))
    monkeypatch.setattr(Representation, "__post_init__", counting_check)
    code = workload.run()
    assert code == 0
    assert workload.check(code, False, False)[1] == 0
    assert built == {"maps": 0, "reps": 0}


class TestEntryPoint:
    def test_installed_script(self, demo):
        proc = subprocess.run(
            [sys.executable, "-m", "pleatbend.cli", "classify",
             "--input", str(demo / "f2_rep.json"), "--words", "x"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "loxodromic" in proc.stdout
