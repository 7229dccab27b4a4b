"""Command-line interface: validate, harmonize, reduce, fixtures, stress,
export.

All commands are deterministic for fixed inputs and flags.  Exit codes:
0 success, 1 domain failure (validation violations, stalls, guard hits),
2 malformed input or a host the command cannot use (see FAILURES).
"""

import argparse
import functools
import random
import sys

from . import boundary, cover, drawing, harmonizer, surface, walkcalc
from .boundary import Anchor, BoundaryError
from .cover import CoverError
from .drawing import DrawingError, read_drawing, write_drawing
from .harmonizer import HarmonizerError, harmonize, write_trace
from .surface import FormatError, StructureError, records, validate_reducing
from .walkcalc import (
    BoundaryTurnError,
    Reduced,
    ReductionStalled,
    Stalled,
    WalkError,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc))


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- commands ---------------------------------------------------------------

def cmd_validate(args):
    t = surface.read_tri(_read_file(args.tri))
    rep = validate_reducing(t)
    lines = []
    for v in rep.violations:
        lines.append("violation %s at %s" % (v.kind, v.location))
    lines.append("reducing" if rep.ok else "not-reducing")
    lines.append("vertices=%d edges=%d faces=%d chi=%d"
                 % (t.num_vertices, t.num_edges(), len(t.faces),
                    t.euler_characteristic()))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if rep.ok else EXIT_DOMAIN


def cmd_harmonize(args):
    t = surface.read_tri(_read_file(args.tri))
    f, anchor = read_drawing(_read_file(args.drw), t)
    if args.anchors:
        f2, trace = boundary.harmonize_rel_anchor(
            f, Anchor(anchor or {}), budget=args.budget)
    else:
        f2, trace = harmonize(f, budget=args.budget)
    _emit(write_drawing(f2), args.output)
    if args.trace:
        _emit(write_trace(trace), args.trace)
    return EXIT_OK


def cmd_reduce(args):
    t = surface.read_tri(_read_file(args.tri))
    w = walkcalc.read_walk(_read_file(args.walk), t)
    if w.closed:
        r = walkcalc.reduce_closed(w, t, budget=args.budget)
    else:
        r = walkcalc.reduce_open(w, t, budget=args.budget)
    if isinstance(r, Stalled):
        _emit("stalled reason=%s\n" % r.reason + walkcalc.write_walk(r.walk),
              args.output)
        return EXIT_OK
    if isinstance(r, Reduced):
        r = r.walk
    _emit(walkcalc.write_walk(r), args.output)
    return EXIT_OK


FIXTURES = {
    "torus": lambda: surface.write_tri(surface.build_torus()),
    "crown2": lambda: surface.write_tri(surface.crown(2)),
    "crown3": lambda: surface.write_tri(surface.crown(3)),
    "crown4": lambda: surface.write_tri(surface.crown(4)),
    "crown6": lambda: surface.write_tri(surface.crown(6)),
    "one-gadget": lambda: surface.write_tri(surface.build_one_gadget()),
    "three-gadget": lambda: surface.write_tri(surface.build_three_gadget()),
    "doubled-crown4": lambda: surface.write_tri(
        surface.double_with_gadgets(surface.crown(4))),
    "torus-stalled-walk": lambda: walkcalc.write_walk(
        walkcalc.torus_stalled_walk(surface.build_torus())),
}


def cmd_fixtures(args):
    if args.name not in FIXTURES:
        raise InputError("unknown fixture %r (have: %s)"
                         % (args.name, ", ".join(sorted(FIXTURES))))
    _emit(FIXTURES[args.name](), args.output)
    return EXIT_OK


def cmd_probe(args):
    t = surface.read_tri(_read_file(args.tri))
    f, _ = read_drawing(_read_file(args.drw), t)
    if not (0 <= args.vertex < f.graph.num_vertices):
        raise InputError("vertex out of range")
    side = cover.LEFT if args.side == "left" else cover.RIGHT
    r = cover.escape_probe(f, args.vertex, side, depth=args.depth,
                           L=args.window)
    if isinstance(r, cover.Escapes):
        _emit("escapes witness=%s\n"
              % ",".join("%d:%d" % e for e in r.witness), args.output)
    else:
        _emit("no-witness depth=%d window=%d\n" % (r.depth, r.L), args.output)
    return EXIT_OK


def cmd_stress_real(args):
    host = surface.double_with_gadgets(surface.crown(4))
    lines = ["# seed moves len-before len-after budget ratio"]
    violations = 0
    max_ratio = 0.0
    for i in range(args.count):
        rng = random.Random(args.seed + i)
        f = drawing.random_drawing(host, rng, args.sizes, max_extra_edges=2)
        per0, total0 = f.lengths()
        f2, trace = harmonize(f, budget=args.budget)
        per2, total2 = f2.lengths()
        if total2 > total0 or any(b > a for a, b in zip(per0, per2)):
            violations += 1
        fbar = drawing.factor_simplicial(f)
        budget = (args.budget if args.budget is not None
                  else harmonizer.default_budget(host, fbar.graph))
        ratio = len(trace) / budget if budget else 0.0
        max_ratio = max(max_ratio, ratio)
        lines.append("%d %d %d %d %d %.6f"
                     % (args.seed + i, len(trace), total0, total2, budget,
                        ratio))
    lines.append("violations %d" % violations)
    lines.append("max-ratio %.6f" % max_ratio)
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if violations == 0 else EXIT_DOMAIN


def _export_dot(t):
    lines = ["graph dual {"]
    for i in range(len(t.faces)):
        lines.append('  f%d [label="%s"];' % (i, t.face_color[i]))
    seen = set()
    for h in range(len(t.next)):
        g = t.twin[h]
        if g == surface.NO_TWIN or h > g:
            continue
        a, b = t.face_of[h], t.face_of[g]
        key = (min(a, b), max(a, b), min(h, g))
        if key in seen:
            continue
        seen.add(key)
        lines.append("  f%d -- f%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _export_svg_tri(t):
    import math
    n = max(t.num_vertices, 1)
    size = 400
    cx = cy = size / 2
    r = size * 0.4
    pos = []
    for v in range(t.num_vertices):
        ang = 2 * math.pi * v / n
        pos.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
             % (size, size)]
    for h in range(len(t.next)):
        g = t.twin[h]
        if g != surface.NO_TWIN and h > g:
            continue
        x1, y1 = pos[t.tail(h)]
        x2, y2 = pos[t.head(h)]
        lines.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                     'stroke="black"/>' % (x1, y1, x2, y2))
    for v, (x, y) in enumerate(pos):
        lines.append('<circle cx="%.1f" cy="%.1f" r="3" fill="black"/>'
                     % (x, y))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _export_svg_trace(trace):
    # one frame per state: the initial lengths plus one per move
    frames = len(trace.entries) + 1
    width, bar_h = 400, 24
    height = frames * bar_h
    start = trace.entries[0].before if trace.entries else 0
    scale = (width - 100) / max(start, 1)
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
             % (width, height)]
    lengths = [start] + [e.after for e in trace.entries]
    labels = ["start"] + ["%s %s" % (e.kind, ",".join(map(str, e.ids)))
                          for e in trace.entries]
    for i, (ln, lb) in enumerate(zip(lengths, labels)):
        y = i * bar_h
        lines.append('<g id="frame%d">' % i)
        lines.append('<rect x="0" y="%d" width="%.1f" height="%d" '
                     'fill="steelblue"/>' % (y + 4, ln * scale, bar_h - 8))
        lines.append('<text x="%.1f" y="%d" font-size="10">%s len=%d</text>'
                     % (ln * scale + 4, y + bar_h - 9, lb, ln))
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_export(args):
    text = _read_file(args.input)
    # the first record tells a .tri file from a trace (which may be empty)
    seen = []
    records(text, {kind: (1, lambda *fields, kind=kind: seen.append(kind))
                   for kind in ("tri", "he", "face", "move")})
    head = seen[0] if seen else "move"
    if head == "tri":
        t = surface.read_tri(text)
        out = _export_dot(t) if args.format == "dot" else _export_svg_tri(t)
    elif head == "move":
        trace = harmonizer.read_trace(text)
        if args.format == "dot":
            raise InputError("traces export to svg only")
        out = _export_svg_trace(trace)
    else:
        raise InputError("unrecognized input %s" % args.input)
    _emit(out, args.output)
    return EXIT_OK


# -- entry point ------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="redtri")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the reducing conditions")
    sp.add_argument("tri")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("harmonize", help="run the move routine on a drawing")
    sp.add_argument("tri")
    sp.add_argument("drw")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--anchors", action="store_true",
                    help="honor anchor lines in the drawing file")
    sp.add_argument("--trace", help="write the move trace here")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_harmonize)

    sp = sub.add_parser("reduce", help="reduce a walk")
    sp.add_argument("tri")
    sp.add_argument("walk")
    sp.add_argument("--budget", type=int)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("fixtures", help="emit a named fixture")
    sp.add_argument("name")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_fixtures)

    sp = sub.add_parser("probe", help="bounded escape search at a vertex")
    sp.add_argument("tri")
    sp.add_argument("drw")
    sp.add_argument("--vertex", type=int, required=True)
    sp.add_argument("--side", choices=("left", "right"), default="left")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--window", type=int)
    sp.set_defaults(func=cmd_probe)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("stress", help="seeded harmonization sweep")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--sizes", type=int, default=5,
                    help="max graph vertices per job")
    sp.add_argument("--budget", type=int)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_stress_real)

    sp = sub.add_parser("export", help="render a triangulation or trace")
    sp.add_argument("input")
    sp.add_argument("--format", choices=("svg", "dot"), default="svg")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_export)
    return p


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: each build leaves a few hundred
    objects of cyclic garbage."""
    return build_parser()


# (exceptions, exit code, stderr prefix): malformed input, or a host the
# command cannot work on, exits 2; a failure of the routine itself exits 1
FAILURES = (
    ((InputError, FormatError, StructureError, DrawingError, WalkError,
      BoundaryTurnError, CoverError), EXIT_INPUT, "error"),
    ((HarmonizerError, BoundaryError), EXIT_DOMAIN, "harmonize failed"),
    ((ReductionStalled,), EXIT_DOMAIN, "reduction stalled"),
)


def main(argv=None):
    args = _parser().parse_args(argv)
    if getattr(args, "budget", None) is not None and args.budget < 0:
        sys.stderr.write("budget must be >= 0\n")
        return EXIT_INPUT
    try:
        return args.func(args)
    except Exception as exc:
        for errors, code, prefix in FAILURES:
            if isinstance(exc, errors):
                sys.stderr.write("%s: %s\n" % (prefix, exc))
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
