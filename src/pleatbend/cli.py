"""Command line front end.

Subcommands map one-to-one onto the library's experiment surface:
classify words, realize a pleated surface, report bending data,
integrate volume change along paths (per endpoint selection or summed
over all cuff orientations), probe loop defects, compare peripheral
fingerprints, compute peripheral-map ranks, and emit SVG plots.

Each subcommand accepts only the options it reads, and --format offers
only the formats it writes; any other option is a usage error.

Exit codes: 0 on success, 2 when a library precondition fails, 3 when
an input file or the command line cannot be parsed.  All numeric
output uses 15 significant digits and fixed key order, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import PleatbendError
from .moebius import KINDS, MoebiusArray, _fixed_points_at, _length_at
from .pleated import TruncationConvention, bending_data, realize
from .representation import (conjugacy_residual, evaluate_word,
                             finite_trace_squared, jacobian_rank, load_path,
                             load_rep, peripheral_fingerprint)
from .topology import load_document
from .volume import (angle_series, integrate_volume_change, loop_defect,
                     vol_gamma)

LOOP_TOL = 1e-6


class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseFailure(message)


def _num(x: float) -> str:
    return f"{x:.15g}"


def _cnum(z: complex) -> str:
    re, im = z.real + 0.0, z.imag + 0.0
    return f"{re:.15g}{im:+.15g}j"


def _point(p) -> str:
    if p is None:
        return "-"
    return "inf" if p.is_infinity() else _cnum(p.to_complex())


def _emit(args: argparse.Namespace, **renderers) -> int:
    """Write a command's output in args.format and return exit code 0.

    renderers holds one function per format the command writes, and
    only the one for args.format is called: for json it returns the
    payload, written with sorted keys and an indent of 2, for the other
    formats the lines of the output."""
    out = renderers[args.format]()
    if args.format == "json":
        text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(out) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args: argparse.Namespace) -> int:
    rep = load_rep(args.input)
    if not args.words:
        raise _ParseFailure("classify needs --words")
    images, taus = [], []
    for w in args.words:
        images.append(evaluate_word(rep, w))
        taus.append(finite_trace_squared(w, images[-1]))
    # classify, complex_length and fixed_points of every word, from one
    # read of the array kernel
    maps = MoebiusArray.of(images)
    kinds = maps.classify()
    lengths, points = maps.complex_length(kinds), maps.fixed_points(kinds)
    rows = []
    for k, (w, tau) in enumerate(zip(args.words, taus)):
        try:
            lam = _cnum(_length_at(lengths, kinds, k))
        except PleatbendError:
            lam = "-"
        try:
            fps = [_point(p) for p in _fixed_points_at(points, kinds, k)]
        except PleatbendError:
            fps = ["-", "-"]
        rows.append({"word": w, "class": KINDS[kinds[k]],
                     "trace_squared": _cnum(tau), "complex_length": lam,
                     "fixed_points": fps})
    header = (f"{'word':<12} {'class':<12} {'trace_squared':<42} "
              f"{'complex_length':<42} fixed_points")
    return _emit(args, json=lambda: {"rows": rows}, text=lambda: [header] + [
        f"{r['word']:<12} {r['class']:<12} {r['trace_squared']:<42} "
        f"{r['complex_length']:<42} "
        f"{r['fixed_points'][0]} {r['fixed_points'][1]}" for r in rows])


def _load_surface(args: argparse.Namespace):
    if not args.pd:
        raise _ParseFailure(f"{args.command} needs --pd")
    return load_document(args.pd)


def cmd_pleat(args: argparse.Namespace) -> int:
    rep = load_rep(args.input)
    pd, _ = _load_surface(args)
    real = realize(rep, pd, args.endpoints)
    payload = {
        "cuff_lengths": {c: _cnum(v) for c, v in real.cuff_lengths.items()},
        "vertices": {str(p): [_point(q) for q in triple]
                     for p, triple in enumerate(real.xi)},
    }
    return _emit(args, json=lambda: payload, text=lambda: [
        f"cuff {c}: length {payload['cuff_lengths'][c]}"
        for c in sorted(payload["cuff_lengths"])] + [
        f"pants {p}: " + " ".join(triple)
        for p, triple in payload["vertices"].items()])


def cmd_bend(args: argparse.Namespace) -> int:
    rep = load_rep(args.input)
    pd, _ = _load_surface(args)
    real = realize(rep, pd, args.endpoints)
    conv = TruncationConvention.uniform(pd, args.horoball)
    data = bending_data(real, conv)
    rows = []
    for c in pd.cuffs:
        rows.append({"kind": "cuff", "id": c.id,
                     "angle": _num(data.cuff_angles[c.id]),
                     "length": _num(data.cuff_lengths[c.id])})
    for key in sorted(data.leaf_angles):
        rows.append({"kind": "leaf", "id": f"{key[0]}:{key[1]}",
                     "angle": _num(data.leaf_angles[key]),
                     "length": _num(data.leaf_lengths[key])})
    return _emit(
        args, json=lambda: {"rows": rows},
        csv=lambda: ["kind,id,angle,length"] + [
            f"{r['kind']},{r['id']},{r['angle']},{r['length']}"
            for r in rows],
        text=lambda: [f"{'kind':<6} {'id':<8} {'angle':<24} length"] + [
            f"{r['kind']:<6} {r['id']:<8} {r['angle']:<24} {r['length']}"
            for r in rows])


def _load_pathfile(args: argparse.Namespace):
    return load_path(args.input, pd=_load_surface(args)[0])


def cmd_volume_path(args: argparse.Namespace) -> int:
    path = _load_pathfile(args)
    result = integrate_volume_change(path, args.endpoints, steps=args.steps)
    return _emit(
        args,
        json=lambda: {
            "delta_v": _num(result.delta_v),
            "error_estimate": _num(result.error_estimate),
            "steps": result.steps,
            "ts": [_num(t) for t in result.ts],
            "cumulative": [_num(c) for c in result.cumulative],
            "per_step": [_num(c) for c in result.per_step],
        },
        csv=lambda: ["t,per_step,cumulative"] + [
            f"{_num(t)},{_num(result.per_step[i - 1] if i else 0.0)},"
            f"{_num(result.cumulative[i])}" for i, t in enumerate(result.ts)],
        text=lambda: [f"delta_v: {_num(result.delta_v)}",
                      f"error_estimate: {_num(result.error_estimate)}",
                      f"steps: {result.steps}"])


def cmd_vol_gamma(args: argparse.Namespace) -> int:
    path = _load_pathfile(args)
    summed = vol_gamma(path, steps=args.steps)
    per_orientation = [("".join("+" if b else "-" for b in ori.forward), r)
                       for ori, r in zip(summed.orientations, summed.results)]

    def csv():
        cumulative = list(summed.results[0].cumulative)
        for r in summed.results[1:]:
            cumulative = [a + b for a, b in zip(cumulative, r.cumulative)]
        labels = [label for label, _ in per_orientation]
        lines = ["t," + ",".join(f"dv[{la}]" for la in labels) + ",cumulative"]
        for i, t in enumerate(summed.results[0].ts):
            steps = [r.per_step[i - 1] if i else 0.0
                     for _, r in per_orientation]
            lines.append(f"{_num(t)}," + ",".join(_num(s) for s in steps)
                         + f",{_num(cumulative[i])}")
        return lines

    return _emit(
        args, csv=csv,
        json=lambda: {"total": _num(summed.total),
                      "orientations": {label: _num(r.delta_v)
                                       for label, r in per_orientation}},
        text=lambda: [f"vol_gamma_change: {_num(summed.total)}"] + [
            f"orientation {label}: {_num(r.delta_v)}"
            for label, r in per_orientation])


def cmd_loop_defect(args: argparse.Namespace) -> int:
    path = _load_pathfile(args)
    report = loop_defect(path)
    verdict = "PASS" if abs(report.defect) < LOOP_TOL else "FAIL"
    return _emit(
        args,
        json=lambda: {
            "defect": _num(report.defect),
            "error_estimate": _num(report.error_estimate),
            "fingerprint_distance": _num(report.fingerprint_distance),
            "verdict": verdict,
        },
        text=lambda: [
            f"loop defect {verdict}: {_num(report.defect)}",
            f"error_estimate: {_num(report.error_estimate)}",
            f"fingerprint_distance: {_num(report.fingerprint_distance)}",
        ])


def _load_inclusion(args: argparse.Namespace):
    if not args.inclusion:
        raise _ParseFailure(f"{args.command} needs --inclusion")
    pd, inc = load_document(args.inclusion)
    if inc is None:
        raise PleatbendError(
            f"document {args.inclusion} carries no boundary inclusion")
    return pd, inc


def cmd_peripheral(args: argparse.Namespace) -> int:
    pd, inc = _load_inclusion(args)
    reps = [load_rep(f) for f in args.input]
    prints = [peripheral_fingerprint(r, inc) for r in reps]

    def payload():
        out: dict = {"fingerprints": [
            {"file": f, "words": list(fp.words),
             "values": [_cnum(v) for v in fp.values]}
            for f, fp in zip(args.input, prints)]}
        if len(reps) == 2:
            residual = conjugacy_residual(reps[0], reps[1])
            out["distance"] = _num(prints[0].distance(prints[1]))
            out["conjugacy_residual"] = _num(residual)
            out["verdict"] = "conjugate" if residual < 1e-6 else "distinct"
        return out

    def text():
        out = payload()
        lines = []
        for entry in out["fingerprints"]:
            lines.append(f"{entry['file']}:")
            lines += [f"  {w:<12} {v}"
                      for w, v in zip(entry["words"], entry["values"])]
        if len(reps) == 2:
            lines.append(f"fingerprint distance: {out['distance']}")
            lines.append(f"conjugacy residual: {out['conjugacy_residual']} "
                         f"({out['verdict']})")
        return lines

    return _emit(args, json=payload, text=text, csv=lambda: [
        "file,word,re,im"] + [f"{f},{w},{_num(v.real)},{_num(v.imag)}"
                              for f, fp in zip(args.input, prints)
                              for w, v in zip(fp.words, fp.values)])


def cmd_rank(args: argparse.Namespace) -> int:
    pd, inc = _load_inclusion(args)
    rep = load_rep(args.input)
    rank, sv = jacobian_rank(rep, inc)
    expected = 3 * len(inc.generators) - 3
    margin = sv[rank - 1] / sv[0] if rank else float("nan")
    return _emit(
        args,
        json=lambda: {"rank": rank, "expected": expected,
                      "singular_values": [_num(s) for s in sv],
                      "margin": _num(margin)},
        text=lambda: [f"rank {rank} of {expected} expected",
                      "singular values: " + " ".join(_num(s) for s in sv),
                      f"margin: {_num(margin)}"])


def cmd_plot(args: argparse.Namespace) -> int:
    if args.quantity == "angles" and args.steps is not None:
        raise _ParseFailure("--steps is not read with --quantity angles")
    path = _load_pathfile(args)
    if args.quantity == "angles":
        angles = angle_series(path, args.endpoints)
        ts, ylabel = path.ts, "bending angle"
        series = {f"angle[{c.id}]": angles[c.id] for c in path.pd.cuffs}
    else:
        result = integrate_volume_change(path, args.endpoints,
                                         steps=args.steps)
        ts, ylabel = result.ts, "cumulative dV"
        series = {"dV": result.cumulative}
    return _emit(args, svg=lambda: _svg_plot(ts, series, "t", ylabel))


# ---------------------------------------------------------------------------
# svg plotting (deterministic, no dependencies)

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f")


def _svg_plot(ts, series: dict, xlabel: str, ylabel: str) -> list:
    """The lines of an SVG line plot of every series against ts."""
    width, height, margin = 640, 400, 56
    xs = list(ts)
    all_ys = [y for ys in series.values() for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(all_ys), max(all_ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        parts.append(f'<text x="{sx(xv):.2f}" y="{height - margin + 18}" '
                     f'font-size="11" text-anchor="middle">{xv:.15g}</text>')
        parts.append(f'<text x="{margin - 6}" y="{sy(yv):.2f}" font-size="11" '
                     f'text-anchor="end">{yv:.15g}</text>')
    parts.append(f'<text x="{width / 2}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{height / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {height / 2})">'
                 f'{ylabel}</text>')
    for i, (name, ys) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{width - margin - 4}" '
                     f'y="{margin + 16 + 16 * i}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return parts


# ---------------------------------------------------------------------------
# argument plumbing


def _word_list(text: str) -> tuple[str, ...]:
    return tuple(w for w in text.split(",") if w)


def _finite_positive(text: str) -> float:
    """A horoball scale, which must be finite and > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}")
    return value


_OPTIONS = {
    "pd": {"help": "surface document (pants decomposition)"},
    "inclusion": {"help": "document carrying a boundary inclusion"},
    "words": {"type": _word_list, "default": (),
              "help": "comma-separated word list"},
    "endpoints": {"default": "attracting",
                  "choices": ("attracting", "repelling")},
    "horoball": {"type": _finite_positive, "default": 1.0,
                 "help": "uniform truncation scale"},
    "steps": {"type": int},
    "quantity": {"default": "volume", "choices": ("volume", "angles"),
                 "help": "plot quantity"},
}

# subcommand: (function, options it reads besides --input and --output,
# formats it writes, the first the default; with one, no --format)
_COMMANDS = {
    "classify": (cmd_classify, ("words",), ("text", "json")),
    "pleat": (cmd_pleat, ("pd", "endpoints"), ("text", "json")),
    "bend": (cmd_bend, ("pd", "endpoints", "horoball"),
             ("text", "json", "csv")),
    "volume-path": (cmd_volume_path, ("pd", "endpoints", "steps"),
                    ("text", "json", "csv")),
    "vol-gamma": (cmd_vol_gamma, ("pd", "steps"), ("text", "json", "csv")),
    "loop-defect": (cmd_loop_defect, ("pd",), ("text", "json")),
    "peripheral": (cmd_peripheral, ("inclusion",), ("text", "json", "csv")),
    "rank": (cmd_rank, ("inclusion",), ("text", "json")),
    "plot": (cmd_plot, ("pd", "endpoints", "steps", "quantity"), ("svg",)),
}


def _add_options(parser: _Parser, name: str) -> None:
    """The options of command name: --input, those in _COMMANDS,
    --format where it writes more than one format, and --output."""
    _, options, formats = _COMMANDS[name]
    parser.add_argument("--input", required=True,
                        nargs="+" if name == "peripheral" else None,
                        help="input file(s): representation or path JSON")
    for option in options:
        parser.add_argument(f"--{option}", **_OPTIONS[option])
    if len(formats) > 1:
        parser.add_argument("--format", default=formats[0], choices=formats)
    else:
        parser.set_defaults(format=formats[0])
    parser.add_argument("--output", help="write to this file instead of stdout")


def _build_parser(command: str | None = None) -> _Parser:
    """The command line parser.  Given a known command, one parser of
    that command alone, for the arguments after it: it has the
    subparser's prog and options, sets command by default, prints the
    same help and errors, and spares a run the set-up of the top-level
    parser and a subparser.  Otherwise the top-level parser with one
    subparser per command, for --help, no command or an unknown one."""
    if command is not None:
        parser = _Parser(prog=f"pleatbend {command}")
        parser.set_defaults(command=command)
        _add_options(parser, command)
        return parser
    parser = _Parser(prog="pleatbend",
                     description="pleated-surface and volume experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_options(sub.add_parser(name), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv[1:] if command else argv)
        return _COMMANDS[args.command][0](args)
    except _ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except PleatbendError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"parse error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
