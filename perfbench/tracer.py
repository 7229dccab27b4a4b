"""Span recorder for the traced run, and the per-layer metrics derived from it.

During a traced pass every function named in `PATCHES` is replaced, in the
namespace its caller looks it up in, by a wrapper that records a span; the
originals are put back when the pass ends.  A span is
(name, start, end, parent span index, job index, note); spans stay in memory
and are only read once the pass is over.  Outside a job (the output checks
call some of the same functions) the wrappers call straight through.
"""

import math
import statistics
import time
from contextlib import contextmanager

from redtri import boundary, cli, cover, harmonizer, surface, walkcalc

perf_counter = time.perf_counter

NAME, START, END, PARENT, JOB, NOTE = range(6)


def _reduce_note(args, result):
    out = result.walk if hasattr(result, "walk") else result
    return (len(args[0]), len(out), isinstance(result, walkcalc.Stalled))


def _chart_size(args, result):
    return len(args[0].next)


# (namespace, attribute, span name, note); the namespace is where the caller
# looks the name up, so `cli.harmonize` and `boundary.harmonize` are the
# harmonizer's entry point as the CLI and the anchored routine see it.
PATCHES = [
    (cli, "harmonize", "harmonizer.harmonize", None),
    (cli, "read_drawing", "drawing.read_drawing", None),
    (cli, "write_drawing", "drawing.write_drawing", None),
    (cli, "write_trace", "harmonizer.write_trace", None),
    (cli, "validate_reducing", "surface.validate_reducing", None),
    (surface, "read_tri", "surface.read_tri", None),
    (walkcalc, "read_walk", "walkcalc.read_walk", None),
    (walkcalc, "write_walk", "walkcalc.write_walk", None),
    (walkcalc, "reduce_open", "walkcalc.reduce_open", _reduce_note),
    (walkcalc, "reduce_closed", "walkcalc.reduce_closed", _reduce_note),
    (cover, "escape_probe", "cover.escape_probe", None),
    (cover, "validate_reducing", "surface.validate_reducing", None),
    (cover.CoverChart, "complete_star", "cover.complete_star", _chart_size),
    (boundary, "harmonize_rel_anchor", "boundary.harmonize_rel_anchor", None),
    (boundary, "extend_for_harmonization", "boundary.extend", None),
    (boundary, "attach_crowns", "boundary.attach_crowns", None),
    (boundary, "harmonize", "harmonizer.harmonize", None),
    (boundary, "_double_with_gadgets_unchecked", "surface.doubling", None),
    (boundary, "validate_reducing", "surface.validate_reducing", None),
    (harmonizer, "factor_simplicial", "drawing.factor_simplicial", None),
    (harmonizer, "validate_reducing", "surface.validate_reducing", None),
    (harmonizer, "find_flip", "harmonizer.find_flip", None),
    (harmonizer, "flip_at", "harmonizer.flip_at", None),
    (harmonizer, "apply_flip", "harmonizer.apply_flip", None),
    (harmonizer, "find_shortening", "harmonizer.find_shortening", None),
    (harmonizer, "apply_shortening", "harmonizer.apply_shortening", None),
    (harmonizer, "find_balancing", "harmonizer.find_balancing", None),
    (harmonizer, "apply_balancing", "harmonizer.apply_balancing", None),
]


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, perf_counter(), None,
                    self.stack[-1] if self.stack else -1, self.job, None]
            self.stack.append(idx)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[NOTE] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                self.stack.pop()
                # a tuple of plain values drops out of the garbage
                # collector's view, so a growing span list does not make
                # later collections, traced or not, any slower
                self.spans[idx] = tuple(span)
            if note is not None:
                span[NOTE] = note(args, result)
                self.spans[idx] = tuple(span)
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_harmonize(self, fn):
        # the anchored routine passes its guard audit down as `audit=`
        inner = self.wrap("harmonizer.harmonize", fn)

        def harmonize(*args, **kwargs):
            if self.job is not None and kwargs.get("audit") is not None:
                kwargs["audit"] = self.wrap("boundary.audit", kwargs["audit"])
            return inner(*args, **kwargs)
        harmonize.__wrapped__ = fn
        return harmonize

    @contextmanager
    def installed(self):
        saved = []
        try:
            for ns, attr, name, note in PATCHES:
                fn = getattr(ns, attr)
                saved.append((ns, attr, fn))
                if name == "harmonizer.harmonize":
                    setattr(ns, attr, self._wrap_harmonize(fn))
                else:
                    setattr(ns, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for ns, attr, fn in reversed(saved):
                setattr(ns, attr, fn)


# -- per-layer metrics ------------------------------------------------------

KINDS = ("flip", "short", "bal")

# name -> (unit, better); every traced run reports all of them, on every
# workload, so a layer a workload never calls reads 0.
LAYER_METRICS = {
    "surface.read_tri.s": ("s", "lower"),
    "surface.validate_reducing.s": ("s", "lower"),
    "surface.validate_reducing.calls": ("count", "lower"),
    "surface.doubling.s": ("s", "lower"),
    "walkcalc.reduce_open.s": ("s", "lower"),
    "walkcalc.reduce_closed.s": ("s", "lower"),
    "walkcalc.edges_in": ("count", "lower"),
    "walkcalc.edges_out": ("count", "lower"),
    "walkcalc.us_per_edge": ("us", "lower"),
    "walkcalc.stalled": ("count", "lower"),
    "walkcalc.reduce_open.exp": ("exp", "lower"),
    "walkcalc.reduce_closed.exp": ("exp", "lower"),
    "cover.escape_probe.s": ("s", "lower"),
    "cover.complete_star.s": ("s", "lower"),
    "cover.complete_star.calls": ("count", "lower"),
    "cover.chart_half_edges": ("count", "lower"),
    "cover.escape_probe.exp": ("exp", "lower"),
    "drawing.read_drawing.s": ("s", "lower"),
    "drawing.write_drawing.s": ("s", "lower"),
    "drawing.factor_simplicial.s": ("s", "lower"),
    "harmonizer.harmonize.self_s": ("s", "lower"),
}
for _k in KINDS:
    LAYER_METRICS["harmonizer.search.%s.s" % _k] = ("s", "lower")
    LAYER_METRICS["harmonizer.apply.%s.s" % _k] = ("s", "lower")
    LAYER_METRICS["harmonizer.moves.%s" % _k] = ("count", "lower")
    LAYER_METRICS["harmonizer.searches.%s" % _k] = ("count", "lower")
    LAYER_METRICS["harmonizer.hit_ratio.%s" % _k] = ("ratio", "higher")
LAYER_METRICS.update({
    "harmonizer.ms_per_move": ("ms", "lower"),
    "harmonizer.ms_per_move.exp": ("exp", "lower"),
    "boundary.extend.s": ("s", "lower"),
    "boundary.attach_crowns.s": ("s", "lower"),
    "boundary.audit.s": ("s", "lower"),
    "boundary.audit.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
})

_SEARCH = {"harmonizer.find_flip": "flip",
           "harmonizer.find_shortening": "short",
           "harmonizer.find_balancing": "bal"}
_APPLY = {"harmonizer.apply_flip": "flip",
          "harmonizer.apply_shortening": "short",
          "harmonizer.apply_balancing": "bal"}


def fit_exponent(points):
    """Least-squares slope of log y on log x over per-rung medians.

    `points` maps rung -> list of (x, y); returns (slope, medians) with
    medians a list of [rung, median x, median y]; slope is 0 with fewer
    than two usable rungs.
    """
    medians = []
    for rung in sorted(points):
        xs = [x for x, _ in points[rung]]
        ys = [y for _, y in points[rung]]
        medians.append([rung, statistics.median(xs), statistics.median(ys)])
    logs = [(math.log(x), math.log(y)) for _, x, y in medians
            if x > 0 and y > 0]
    if len(logs) < 2:
        return 0.0, medians
    mx = sum(a for a, _ in logs) / len(logs)
    my = sum(b for _, b in logs) / len(logs)
    sxx = sum((a - mx) ** 2 for a, _ in logs)
    if sxx == 0:
        return 0.0, medians
    return sum((a - mx) * (b - my) for a, b in logs) / sxx, medians


def layer_metrics(spans, jobs, scale, overhead_frac):
    """Per-layer metrics over the traced jobs.  Times, calls and counts are
    per job (totals divided by the number of traced jobs); `jobs[i]` is the
    Job whose index the spans carry, and `scale[i]` the machine-speed factor
    its span times are multiplied by.  Also returns the exponent fits with
    their per-rung medians, and per span name [calls, seconds, self
    seconds] per job."""
    n = len(jobs)
    tot = dict.fromkeys(LAYER_METRICS, 0.0)
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += (s[END] - s[START]) * scale[s[JOB]]
    per_job = {}          # job -> {key: value} for the exponent fits
    chart = {}            # job -> largest chart seen
    table = {}
    moves_total = 0
    harmonize_total = 0.0
    for i, s in enumerate(spans):
        name, dur = s[NAME], (s[END] - s[START]) * scale[s[JOB]]
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
        j = per_job.setdefault(s[JOB], {})
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "cli.main":
            tot["cli.main.self_s"] += dur - child[i]
        elif name == "harmonizer.harmonize":
            tot["harmonizer.harmonize.self_s"] += dur - child[i]
            harmonize_total += dur
            j["harmonize"] = j.get("harmonize", 0.0) + dur
        elif name in _SEARCH or (name == "harmonizer.flip_at"
                                 and parent == "harmonizer.harmonize"):
            kind = _SEARCH.get(name, "flip")
            tot["harmonizer.search.%s.s" % kind] += dur
            tot["harmonizer.searches.%s" % kind] += 1
        elif name in _APPLY:
            kind = _APPLY[name]
            tot["harmonizer.apply.%s.s" % kind] += dur
            tot["harmonizer.moves.%s" % kind] += 1
            j["moves"] = j.get("moves", 0) + 1
            moves_total += 1
        elif name in ("walkcalc.reduce_open", "walkcalc.reduce_closed"):
            tot[name + ".s"] += dur
            j[name] = dur
            if isinstance(s[NOTE], tuple):
                edges_in, edges_out, stalled = s[NOTE]
                tot["walkcalc.edges_in"] += edges_in
                tot["walkcalc.edges_out"] += edges_out
                tot["walkcalc.stalled"] += stalled
            elif s[NOTE] == "ReductionStalled":
                tot["walkcalc.stalled"] += 1
        elif name == "cover.complete_star":
            tot["cover.complete_star.s"] += dur
            tot["cover.complete_star.calls"] += 1
            chart[s[JOB]] = max(chart.get(s[JOB], 0), s[NOTE] or 0)
        elif name == "cover.escape_probe":
            tot["cover.escape_probe.s"] += dur
            j[name] = dur
        elif name == "boundary.audit":
            tot["boundary.audit.s"] += dur
            tot["boundary.audit.calls"] += 1
        elif name == "surface.validate_reducing":
            tot["surface.validate_reducing.s"] += dur
            tot["surface.validate_reducing.calls"] += 1
        elif name + ".s" in tot:
            tot[name + ".s"] += dur
    edges_in = tot["walkcalc.edges_in"]
    reduce_s = tot["walkcalc.reduce_open.s"] + tot["walkcalc.reduce_closed.s"]
    tot["cover.chart_half_edges"] = float(sum(chart.values()))
    out = {k: v / n for k, v in tot.items()}
    for k in KINDS:
        searches = tot["harmonizer.searches.%s" % k]
        out["harmonizer.hit_ratio.%s" % k] = (
            tot["harmonizer.moves.%s" % k] / searches if searches else 0.0)
    out["walkcalc.us_per_edge"] = (reduce_s / edges_in * 1e6
                                   if edges_in else 0.0)
    out["harmonizer.ms_per_move"] = (harmonize_total / moves_total * 1e3
                                     if moves_total else 0.0)
    out["trace.overhead_frac"] = overhead_frac

    series = {"walkcalc.reduce_open.exp": {}, "walkcalc.reduce_closed.exp": {},
              "cover.escape_probe.exp": {}, "harmonizer.ms_per_move.exp": {}}
    for idx, j in per_job.items():
        job = jobs[idx]
        for key in ("walkcalc.reduce_open", "walkcalc.reduce_closed",
                    "cover.escape_probe"):
            if key in j:
                series[key + ".exp"].setdefault(job.rung, []).append(
                    (job.x, j[key]))
        if j.get("moves"):
            series["harmonizer.ms_per_move.exp"].setdefault(
                job.rung, []).append((job.x, j["harmonize"] / j["moves"]))
    fits = {}
    for key, points in series.items():
        out[key], medians = fit_exponent(points)
        fits[key] = medians
    return out, fits, {k: [v / n for v in row] for k, row in table.items()}
