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
import sys

from .errors import PleatbendError
from .moebius import _complex_length, _fixed_points, classify
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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args: argparse.Namespace) -> int:
    rep = load_rep(args.input)
    if not args.words:
        raise PleatbendError("classify needs --words")
    rows = []
    for w in args.words:
        m = evaluate_word(rep, w)
        tau = finite_trace_squared(w, m)
        kind = classify(m, eps_class=args.tolerance)
        try:
            lam = _cnum(_complex_length(m, kind))
        except PleatbendError:
            lam = "-"
        try:
            fps = [_point(p) for p in _fixed_points(m, kind, args.tolerance)]
        except PleatbendError:
            fps = ["-", "-"]
        rows.append({"word": w, "class": str(kind), "trace_squared": _cnum(tau),
                     "complex_length": lam, "fixed_points": fps})
    if args.format == "json":
        _emit(args, _json_dump({"rows": rows}))
    else:
        lines = [f"{'word':<12} {'class':<12} {'trace_squared':<42} "
                 f"{'complex_length':<42} fixed_points"]
        for r in rows:
            lines.append(f"{r['word']:<12} {r['class']:<12} "
                         f"{r['trace_squared']:<42} {r['complex_length']:<42} "
                         f"{r['fixed_points'][0]} {r['fixed_points'][1]}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _load_surface(args: argparse.Namespace):
    if not args.pd:
        raise PleatbendError(f"{args.command} needs --pd")
    return load_document(args.pd)


def cmd_pleat(args: argparse.Namespace) -> int:
    rep = load_rep(args.input)
    pd, _ = _load_surface(args)
    real = realize(rep, pd, args.endpoints, eps_class=args.tolerance)
    report = real.report
    payload = {
        "adapted": report.adapted,
        "adaptedness": report.summary(),
        "cuff_lengths": {c: _cnum(v) for c, v in real.cuff_lengths.items()},
        "vertices": {str(p): [_point(q) for q in triple]
                     for p, triple in enumerate(real.xi)},
    }
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        lines = [f"adapted: {payload['adapted']}", payload["adaptedness"]]
        for c in sorted(payload["cuff_lengths"]):
            lines.append(f"cuff {c}: length {payload['cuff_lengths'][c]}")
        for p, triple in payload["vertices"].items():
            lines.append(f"pants {p}: " + " ".join(triple))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_bend(args: argparse.Namespace) -> int:
    rep = load_rep(args.input)
    pd, _ = _load_surface(args)
    real = realize(rep, pd, args.endpoints, eps_class=args.tolerance)
    conv = TruncationConvention.uniform(pd, args.horoball)
    data = bending_data(real, conv)
    rows = []
    for c in pd.cuffs:
        rows.append({"kind": "cuff", "id": c.id,
                     "angle": data.cuff_angles[c.id],
                     "length": data.cuff_lengths[c.id]})
    for key in sorted(data.leaf_angles):
        rows.append({"kind": "leaf", "id": f"{key[0]}:{key[1]}",
                     "angle": data.leaf_angles[key],
                     "length": data.leaf_lengths[key]})
    if args.format == "json":
        out = [{**r, "angle": _num(r["angle"]), "length": _num(r["length"])}
               for r in rows]
        _emit(args, _json_dump({"rows": out}))
    elif args.format == "csv":
        lines = ["kind,id,angle,length"]
        for r in rows:
            lines.append(f"{r['kind']},{r['id']},{_num(r['angle'])},"
                         f"{_num(r['length'])}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"{'kind':<6} {'id':<8} {'angle':<24} length"]
        for r in rows:
            lines.append(f"{r['kind']:<6} {r['id']:<8} "
                         f"{_num(r['angle']):<24} {_num(r['length'])}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _load_pathfile(args: argparse.Namespace):
    pd, _ = _load_surface(args)
    path = load_path(args.input, pd=pd)
    return pd, path


def cmd_volume_path(args: argparse.Namespace) -> int:
    pd, path = _load_pathfile(args)
    conv = TruncationConvention.uniform(pd, args.horoball)
    result = integrate_volume_change(path, args.endpoints, conv,
                                     steps=args.steps,
                                     eps_class=args.tolerance)
    if args.format == "json":
        payload = {
            "delta_v": _num(result.delta_v),
            "error_estimate": _num(result.error_estimate),
            "steps": result.steps,
            "ts": [_num(t) for t in result.ts],
            "cumulative": [_num(c) for c in result.cumulative],
            "per_step": [_num(c) for c in result.per_step],
        }
        _emit(args, _json_dump(payload))
    elif args.format == "csv":
        lines = ["t,per_step,cumulative"]
        for i, t in enumerate(result.ts):
            step = result.per_step[i - 1] if i else 0.0
            lines.append(f"{_num(t)},{_num(step)},{_num(result.cumulative[i])}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"delta_v: {_num(result.delta_v)}",
                 f"error_estimate: {_num(result.error_estimate)}",
                 f"steps: {result.steps}"]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_vol_gamma(args: argparse.Namespace) -> int:
    pd, path = _load_pathfile(args)
    conv = TruncationConvention.uniform(pd, args.horoball)
    summed = vol_gamma(path, conv, steps=args.steps, eps_class=args.tolerance)
    per_orientation = [("".join("+" if b else "-" for b in ori.forward), r)
                       for ori, r in zip(summed.orientations, summed.results)]
    total = summed.total
    if args.format == "json":
        payload = {
            "total": _num(total),
            "orientations": {label: _num(r.delta_v)
                             for label, r in per_orientation},
        }
        _emit(args, _json_dump(payload))
    elif args.format == "csv":
        cumulative = list(summed.results[0].cumulative)
        for r in summed.results[1:]:
            cumulative = [a + b for a, b in zip(cumulative, r.cumulative)]
        labels = [label for label, _ in per_orientation]
        lines = ["t," + ",".join(f"dv[{la}]" for la in labels) + ",cumulative"]
        ts = per_orientation[0][1].ts
        for i, t in enumerate(ts):
            steps = [r.per_step[i - 1] if i else 0.0
                     for _, r in per_orientation]
            lines.append(f"{_num(t)}," + ",".join(_num(s) for s in steps)
                         + f",{_num(cumulative[i])}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"vol_gamma_change: {_num(total)}"]
        for label, r in per_orientation:
            lines.append(f"orientation {label}: {_num(r.delta_v)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_loop_defect(args: argparse.Namespace) -> int:
    pd, path = _load_pathfile(args)
    conv = TruncationConvention.uniform(pd, args.horoball)
    report = loop_defect(path, conv, eps_class=args.tolerance)
    verdict = "PASS" if abs(report.defect) < LOOP_TOL else "FAIL"
    if args.format == "json":
        _emit(args, _json_dump({
            "defect": _num(report.defect),
            "error_estimate": _num(report.error_estimate),
            "fingerprint_distance": _num(report.fingerprint_distance),
            "verdict": verdict,
        }))
    else:
        _emit(args, "\n".join([
            f"loop defect {verdict}: {_num(report.defect)}",
            f"error_estimate: {_num(report.error_estimate)}",
            f"fingerprint_distance: {_num(report.fingerprint_distance)}",
        ]) + "\n")
    return 0


def _load_inclusion(args: argparse.Namespace):
    if not args.inclusion:
        raise PleatbendError(f"{args.command} needs --inclusion")
    pd, inc = load_document(args.inclusion)
    if inc is None:
        raise PleatbendError(
            f"document {args.inclusion} carries no boundary inclusion")
    return pd, inc


def cmd_peripheral(args: argparse.Namespace) -> int:
    pd, inc = _load_inclusion(args)
    reps = [load_rep(f) for f in args.input]
    prints = [peripheral_fingerprint(r, inc) for r in reps]
    lines = []
    payload: dict = {"fingerprints": []}
    for f, fp in zip(args.input, prints):
        payload["fingerprints"].append(
            {"file": f, "words": list(fp.words),
             "values": [_cnum(v) for v in fp.values]})
        lines.append(f"{f}:")
        for w, v in zip(fp.words, fp.values):
            lines.append(f"  {w:<12} {_cnum(v)}")
    if len(reps) == 2:
        d = prints[0].distance(prints[1])
        residual = conjugacy_residual(reps[0], reps[1])
        verdict = "conjugate" if residual < 1e-6 else "distinct"
        payload["distance"] = _num(d)
        payload["conjugacy_residual"] = _num(residual)
        payload["verdict"] = verdict
        lines.append(f"fingerprint distance: {_num(d)}")
        lines.append(f"conjugacy residual: {_num(residual)} ({verdict})")
    if args.format == "json":
        _emit(args, _json_dump(payload))
    elif args.format == "csv":
        rows = ["word,re,im"]
        for fp in prints:
            for w, v in zip(fp.words, fp.values):
                rows.append(f"{w},{_num(v.real)},{_num(v.imag)}")
        _emit(args, "\n".join(rows) + "\n")
    else:
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    pd, inc = _load_inclusion(args)
    rep = load_rep(args.input)
    rank, sv = jacobian_rank(rep, inc)
    expected = 3 * len(inc.generators) - 3
    margin = sv[rank - 1] / sv[0] if rank else float("nan")
    if args.format == "json":
        _emit(args, _json_dump({
            "rank": rank, "expected": expected,
            "singular_values": [_num(s) for s in sv],
            "margin": _num(margin),
        }))
    else:
        _emit(args, "\n".join([
            f"rank {rank} of {expected} expected",
            "singular values: " + " ".join(_num(s) for s in sv),
            f"margin: {_num(margin)}",
        ]) + "\n")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    if args.quantity == "angles" and args.steps is not None:
        raise _ParseFailure("--steps is not read with --quantity angles")
    pd, path = _load_pathfile(args)
    conv = TruncationConvention.uniform(pd, args.horoball)
    if args.quantity == "angles":
        angles = angle_series(path, args.endpoints, conv,
                              eps_class=args.tolerance)
        series = {f"angle[{c.id}]": angles[c.id] for c in pd.cuffs}
        svg = _svg_plot(path.ts, series, "t", "bending angle")
    else:
        result = integrate_volume_change(path, args.endpoints, conv,
                                         steps=args.steps,
                                         eps_class=args.tolerance)
        svg = _svg_plot(result.ts, {"dV": result.cumulative},
                        "t", "cumulative dV")
    _emit(args, svg)
    return 0


# ---------------------------------------------------------------------------
# svg plotting (deterministic, no dependencies)

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f")


def _svg_plot(ts, series: dict, xlabel: str, ylabel: str) -> str:
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
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing


def _word_list(text: str) -> tuple[str, ...]:
    return tuple(w for w in text.split(",") if w)


_OPTIONS = {
    "pd": {"help": "surface document (pants decomposition)"},
    "inclusion": {"help": "document carrying a boundary inclusion"},
    "words": {"type": _word_list, "default": (),
              "help": "comma-separated word list"},
    "tolerance": {"type": float, "default": 1e-9},
    "endpoints": {"default": "attracting",
                  "choices": ("attracting", "repelling")},
    "horoball": {"type": float, "default": 1.0,
                 "help": "uniform truncation scale"},
    "steps": {"type": int},
    "quantity": {"default": "volume", "choices": ("volume", "angles"),
                 "help": "plot quantity"},
}

# subcommand: (function, options it reads besides --input and --output,
# formats it writes)
_COMMANDS = {
    "classify": (cmd_classify, ("words", "tolerance"), ("text", "json")),
    "pleat": (cmd_pleat, ("pd", "tolerance", "endpoints"), ("text", "json")),
    "bend": (cmd_bend, ("pd", "tolerance", "endpoints", "horoball"),
             ("text", "json", "csv")),
    "volume-path": (cmd_volume_path,
                    ("pd", "tolerance", "endpoints", "horoball", "steps"),
                    ("text", "json", "csv")),
    "vol-gamma": (cmd_vol_gamma, ("pd", "tolerance", "horoball", "steps"),
                  ("text", "json", "csv")),
    "loop-defect": (cmd_loop_defect, ("pd", "tolerance", "horoball"),
                    ("text", "json")),
    "peripheral": (cmd_peripheral, ("inclusion",), ("text", "json", "csv")),
    "rank": (cmd_rank, ("inclusion",), ("text", "json")),
    "plot": (cmd_plot, ("pd", "tolerance", "endpoints", "horoball", "steps",
                        "quantity"), ()),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The command line parser; given a command, with that subcommand
    alone, which spares a run the argument set-up of all the others."""
    parser = _Parser(prog="pleatbend",
                     description="pleated-surface and volume experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, formats) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name)
        p.add_argument("--input", required=True,
                       nargs="+" if name == "peripheral" else None,
                       help="input file(s): representation or path JSON")
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        if formats:
            p.add_argument("--format", default="text", choices=formats)
        p.add_argument("--output", help="write to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
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
