"""Time the host, probe, walk and harmonize layers across size ladders; fit
the growth.

    python3 bench/ladder.py [-o BENCH.json]

For each radius r = 4..10, builds `surface.build_disk_patch(r)` from a
fixed seed and times `surface.read_tri` on its `write_tri` text and
`surface.Triangulation` on its tables, and counts the cyclic garbage
collector's passes during one read (`read_tri_gc_passes`, after a full
collection).  The anchored-extension ladder,
r = 2..6, times crowning each patch (`boundary.attach_crowns`, which
describes the crowns by their offsets, a `boundary.CrownedHost` that
computes a crown entry only when it is read; fitted over the crowned
patch's half-edges), the closed doubled host's construction
(`surface._double_with_gadgets_unchecked`: a `surface.DoubledHost` that
holds the patch and its mirror and computes a crown's or a gadget copy's
entries only when they are read, so this rung times neither), the host
check the anchored extension makes (`surface.validate_reducing` of the
patch plus `CrownedHost.validate_crowns`, the part check of its crowns
from their layout; fitted over the crowned patch's half-edges), and
`surface.validate_reducing` of the whole doubled host, every entry built
(`surface.double_with_gadgets`): the scan that check replaces.  On the
same patches it times the whole closed extension
(`boundary.extend_for_harmonization`) of a path along four boundary
edges, anchored at both ends, and counts exactly what one harmonization
of that path relative to its anchors does (`anchored_counts`): the
composed hosts' entries computed and slot-index fills, the balancing
searches, the clusters they file and the components they gather, and the
walks and drawings built.  Each rung's `half_edges` is the doubled
host's.  The probe ladder times
`cover.escape_probe` of a fixed three-vertex path drawn on doubled crown4,
with windows L = 3072..49152: from there on the window walk, not the
probe's fixed-cost validation of the host (about 0.2 ms), takes most of
the time.  The walk ladder times `walkcalc.reduce_open` of an open walk of
L = 400..6400 random steps through the vertices of a radius-10 disk patch
at least three rings from its rim (so no rewrite reaches the rim), and
`walkcalc.reduce_closed` of a closed walk of L random steps on doubled
crown4 followed by a shortest way home.  For each walk it also records the
reduction's two phases: its corners and the least time of its set-up
(`walkcalc._Reduction`, which classifies every corner), and its steps and
the least time of those steps from a fresh set-up, as microseconds per
corner and per step.  The harmonize ladder runs
`harmonizer.harmonize` on doubled crown4 over eight seeded
`drawing.random_drawing`s per rung of G = 8..64 (at most G vertices and
G/4 extra edges, detour 8).  It records the
time per move and, from nine more runs with the move searches and
applications wrapped, the least search and the least apply time and the
number of moves per move kind (a flip's search includes the step-2
`flip_at`); the nine runs must make the same moves.  Per rung
it records the least
time of nine runs and, from a separate run under `tracemalloc`, the peak
of memory allocated during the call.  The least time, not the median,
because on a shared machine the median of five moved by up to 1.7x between
runs of one commit, and the exponents by up to 0.25; other processes only
ever add time.  Each fitted exponent is the least-squares slope of
log(least time) over log(half-edges of the host the call builds or reads),
or over log(L) for the probe and the walks; 1.0 is linear.  The exponent
`harmonize_ms_per_move` is that of the time per move over the mean
clusters times edges of the rung's subdivided drawings as the harmonizer
starts from them; 0.0 is flat.  Standard
library only; it imports redtri from the `src/` of the checkout it sits in.
Prints the JSON, and writes it to the -o file if one is given.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from redtri import (  # noqa: E402
    boundary,
    cover,
    drawing,
    harmonizer,
    surface,
    walkcalc,
)
from redtri.drawing import (  # noqa: E402
    Drawing,
    Graph,
    factor_simplicial,
    random_drawing,
    random_path,
)
from redtri.walkcalc import Walk  # noqa: E402

SEED = 1
RADII = range(4, 11)
EXTENSION_RADII = range(2, 7)
PROBE_WINDOWS = (3072, 6144, 12288, 24576, 49152)
WALK_LENGTHS = (400, 800, 1600, 3200, 6400)
GRAPH_VERTICES = (8, 16, 32, 64)
DRAWINGS_PER_RUNG = 8
# the functions `harmonize` calls through module globals, by move kind
SEARCHES = {"find_flip": "flip", "flip_at": "flip",
            "find_shortening": "short", "find_balancing": "bal"}
APPLIES = {"apply_flip": "flip", "apply_shortening": "short",
           "apply_balancing": "bal"}
REPEATS = 9


def least_s(call):
    times = []
    for _ in range(REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def gc_passes(call):
    """The collections the cyclic garbage collector starts during call."""
    passes = []
    gc.collect()
    gc.callbacks.append(lambda phase, info: passes.append(phase))
    try:
        call()
    finally:
        gc.callbacks.pop()
    return passes.count("start")


def reduction_phases(t, w, name):
    """The corners, set-up time, steps and step time of reducing w on t,
    each time the least of REPEATS runs, keyed by name."""
    corners = len(w) - (not w.closed)
    steps = walkcalc._reduce(w, t, None)[0].steps

    def run_steps():
        r = walkcalc._Reduction(t, w)
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(steps):
            r.step()
        return time.perf_counter() - t0

    setup_s = least_s(lambda: walkcalc._Reduction(t, w))
    step_s = min(run_steps() for _ in range(REPEATS))
    return {name + "_corners": corners, name + "_steps": steps,
            name + "_setup_us_per_corner": setup_s * 1e6 / corners,
            name + "_us_per_step": step_s * 1e6 / steps}


def peak_mb(call):
    gc.collect()
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


def exponent(xs, ys):
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def anchored_path(t, steps=4):
    """(drawing, anchor): a path along t's first boundary edges, one vertex
    per step end, anchored at both ends."""
    hes = t.boundary_cycles()[0][:steps]
    verts = [t.tail(hes[0])] + [t.head(h) for h in hes]
    f = Drawing(Graph(len(verts), [(i, i + 1) for i in range(steps)]), t,
                verts, [Walk.from_half_edges(t, (h,)) for h in hes])
    return f, boundary.Anchor({verts[0]: [0], verts[-1]: [steps]})


def anchored_counts(f, anchor):
    """What one `boundary.harmonize_rel_anchor(f, anchor)` does, counted by
    wrapping the functions that do it: the entries the composed hosts
    compute (`surface._Composed.__missing__`) and, of them, the slot-index
    entries read before their tail's rotation (`slot_fills`; a doubled
    host sets a rotation's slot index when it computes the rotation, so
    these are found in a rotation computed again), the balancing searches
    (`harmonizer._split_clusters`), the clusters whose darts they file and
    the components they gather (`harmonizer._SplitGraph._component`), and
    the walks (`walkcalc.Walk.from_half_edges`) and drawings
    (`drawing.Drawing`) built.  The extension is factored from its
    half-edges with neither built, so the walks are G's, one per edge, read
    back from the state, and the drawings G's on the extension's host and
    the output on the input host."""
    counts = dict.fromkeys(("composed_entries", "slot_fills",
                            "balancing_searches", "clusters_filed",
                            "components_gathered", "walks", "drawings"), 0)

    slot_indexes = []   # the slot_index column of every composed host built

    def counted(key, fn, filed=False):
        def call(*args, **kwargs):
            counts[key] += 1
            if filed:  # _split_clusters(state, splits, pending)
                counts["clusters_filed"] += sum(
                    darts is not None for darts in args[2].values())
            return fn(*args, **kwargs)
        return call

    def missing(column, i):
        counts["slot_fills"] += any(column is c for c in slot_indexes)
        return composed_missing(column, i)

    def built(init):
        def call(host, *args):
            init(host, *args)
            slot_indexes.append(host.slot_index)
        return call

    walk = walkcalc.Walk.from_half_edges.__func__
    composed_missing = surface._Composed.__missing__
    patches = [
        (surface._Composed, "__missing__", counted(
            "composed_entries", missing)),
        (surface.DoubledHost, "__init__", built(surface.DoubledHost.__init__)),
        (boundary.CrownedHost, "__init__", built(
            boundary.CrownedHost.__init__)),
        (harmonizer, "_split_clusters", counted(
            "balancing_searches", harmonizer._split_clusters, filed=True)),
        (harmonizer._SplitGraph, "_component", counted(
            "components_gathered", harmonizer._SplitGraph._component)),
        (walkcalc.Walk, "from_half_edges", classmethod(counted(
            "walks", walk))),
        (drawing.Drawing, "__init__", counted(
            "drawings", drawing.Drawing.__init__)),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        boundary.harmonize_rel_anchor(f, anchor)
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return {"anchored_" + key: n for key, n in counts.items()}


def probe_path(t):
    """A path of two single-edge walks from vertex 0 of t, drawn on t."""
    h0 = t.vertex_slots[0][0]
    h1 = next(h for h in t.vertex_slots[t.head(h0)] if h != t.twin[h0])
    verts = [0, t.head(h0), t.head(h1)]
    return Drawing(Graph(3, [(0, 1), (1, 2)]), t, verts,
                   [Walk.from_half_edges(t, (h,)) for h in (h0, h1)])


def interior_walk(t, rng, L, margin=3):
    """An open walk of L random steps through the vertices of t at least
    `margin` rings from its rim."""
    near = {v for v in range(t.num_vertices) if t.is_boundary_vertex(v)}
    for _ in range(margin):
        near |= {t.head(h) for v in near for h in t.vertex_slots[v]}
    x = rng.choice([v for v in range(t.num_vertices) if v not in near])
    hes = []
    while len(hes) < L:
        h = rng.choice(t.vertex_slots[x])
        if t.head(h) not in near:
            hes.append(h)
            x = t.head(h)
    return Walk.from_half_edges(t, hes)


def closed_walk(t, rng, L):
    """L random steps from a random vertex, then a shortest way home."""
    start = x = rng.randrange(t.num_vertices)
    hes = []
    for _ in range(L):
        hes.append(rng.choice(t.vertex_slots[x]))
        x = t.head(hes[-1])
    hes += random_path(t, rng, x, start, 0)
    return Walk.from_half_edges(t, hes, closed=True)


def clusters_times_edges(f):
    state = harmonizer.State(factor_simplicial(f))
    return len(state.cluster_vertices()) * state.length


def move_split(drawings):
    """Per move kind, the moves made over one harmonization of each
    drawing, and the least seconds spent searching for and applying them
    over REPEATS such passes.  Every pass must make the same moves."""
    saved = {name: getattr(harmonizer, name)
             for name in (*SEARCHES, *APPLIES)}

    def timed(split, name, fn):
        kind, key = (SEARCHES[name], "search_s") if name in SEARCHES else (
            APPLIES[name], "apply_s")

        def call(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                split[kind][key] += time.perf_counter() - t0
                split[kind]["moves"] += key == "apply_s"
        return call

    passes = []
    try:
        for _ in range(REPEATS):
            split = {kind: {"moves": 0, "search_s": 0.0, "apply_s": 0.0}
                     for kind in ("flip", "short", "bal")}
            for name, fn in saved.items():
                setattr(harmonizer, name, timed(split, name, fn))
            gc.collect()
            for f in drawings:
                harmonizer.harmonize(f)
            passes.append(split)
    finally:
        for name, fn in saved.items():
            setattr(harmonizer, name, fn)
    moves = [{kind: split[kind]["moves"] for kind in split}
             for split in passes]
    if any(m != moves[0] for m in moves):
        raise AssertionError("passes made different moves: %s" % moves)
    least = {kind: {key: min(split[kind][key] for split in passes)
                    for key in ("search_s", "apply_s")} for kind in moves[0]}
    return {kind: {"moves": n, **least[kind]} for kind, n in moves[0].items()}


def measure(rung, calls):
    """Time each call of calls into rung, and print the rung."""
    label = " ".join("%s=%d" % item for item in rung.items())
    for name, call in calls.items():
        rung[name + "_s"] = least_s(call)
        rung[name + "_peak_mb"] = peak_mb(call)
    print("# %s: %s" % (label, ", ".join(
        "%s %.4f s" % (name, rung[name + "_s"]) for name in calls)),
        file=sys.stderr)
    return rung


def exponents(rungs, names, size="half_edges"):
    sizes = [rung[size] for rung in rungs]
    return {name: exponent(sizes, [rung[name + "_s"] for rung in rungs])
            for name in names}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-o", "--output")
    args = ap.parse_args(argv)

    rungs = []
    for r in RADII:
        t = surface.build_disk_patch(r, random.Random(SEED))
        text = surface.write_tri(t)
        tables = (t.next, t.twin, t.origin,
                  {min(orbit): t.face_color[i]
                   for i, orbit in enumerate(t.faces)})
        del t
        rungs.append(measure({"radius": r, "half_edges": len(tables[0])}, {
            "read_tri": lambda: surface.read_tri(text),
            "triangulation": lambda: surface.Triangulation(*tables)}))
        rungs[-1]["read_tri_gc_passes"] = gc_passes(
            lambda: surface.read_tri(text))

    # the closed extension of harmonize --anchors: the crowned patch t0, its
    # mirror and a 3-gadget per seam; sized by the doubled host without
    # anchors (the two anchors add a few spokes)
    extension = []
    for r in EXTENSION_RADII:
        patch = surface.build_disk_patch(r, random.Random(SEED))
        t0 = boundary.attach_crowns(patch, {})[0]
        doubled = surface.double_with_gadgets(t0)
        f, anchor = anchored_path(patch)
        extension.append(measure({
            "radius": r, "crowned_half_edges": len(t0.next),
            "half_edges": len(doubled.next)}, {
            "attach_crowns": lambda: boundary.attach_crowns(patch, {}),
            "doubling": lambda: surface._double_with_gadgets_unchecked(t0),
            "host_check": lambda: (surface.validate_reducing(patch),
                                   t0.validate_crowns()),
            "validate_reducing": lambda: surface.validate_reducing(doubled),
            "extend": lambda: boundary.extend_for_harmonization(f, anchor)}))
        extension[-1].update(anchored_counts(f, anchor))

    # the escape probe against its window; the host stays doubled crown4
    doubled4 = surface.double_with_gadgets(surface.crown(4))
    path = probe_path(doubled4)
    probe = [measure({"L": L}, {
        "probe": lambda L=L: cover.escape_probe(path, 0, cover.LEFT, L=L)})
        for L in PROBE_WINDOWS]

    # walk reduction against the walk length L
    rng = random.Random(SEED)
    patch = surface.build_disk_patch(10, rng)
    walks = []
    for L in WALK_LENGTHS:
        w, c = interior_walk(patch, rng, L), closed_walk(doubled4, rng, L)
        walks.append(measure({"L": L, "closed_L": len(c)}, {
            "reduce_open": lambda w=w: walkcalc.reduce_open(w, patch),
            "reduce_closed": lambda c=c: walkcalc.reduce_closed(c, doubled4)}))
        walks[-1].update(reduction_phases(patch, w, "reduce_open"))
        walks[-1].update(reduction_phases(doubled4, c, "reduce_closed"))

    # harmonize against the size of the drawing; the host stays doubled
    # crown4
    rng = random.Random(SEED)
    harmonize = []
    for n in GRAPH_VERTICES:
        fs = [random_drawing(doubled4, rng, max_vertices=n,
                             max_extra_edges=n // 4, detour=8)
              for _ in range(DRAWINGS_PER_RUNG)]
        rung = measure({"max_vertices": n, "clusters_times_edges": statistics.fmean(
            clusters_times_edges(f) for f in fs)}, {
            "harmonize": lambda fs=fs: [harmonizer.harmonize(f) for f in fs]})
        rung["kinds"] = move_split(fs)
        rung["moves"] = sum(k["moves"] for k in rung["kinds"].values())
        rung["ms_per_move"] = rung["harmonize_s"] * 1e3 / rung["moves"]
        harmonize.append(rung)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": SEED,
        "repeats": REPEATS,
        "rungs": rungs,
        "extension_rungs": extension,
        "probe_rungs": probe,
        "walk_rungs": walks,
        "harmonize_rungs": harmonize,
        "exponents": {**exponents(rungs, ("read_tri", "triangulation")),
                      **exponents(extension, ("doubling",
                                              "validate_reducing", "extend")),
                      **exponents(extension, ("attach_crowns", "host_check"),
                                  size="crowned_half_edges"),
                      **exponents(probe, ("probe",), size="L"),
                      **exponents(walks, ("reduce_open", "reduce_closed"),
                                  size="L"),
                      "harmonize_ms_per_move": exponent(
                          [r["clusters_times_edges"] for r in harmonize],
                          [r["ms_per_move"] for r in harmonize])},
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
