"""Byte-identical output on fixed corpora.

GOLDEN_SHA256 is the sha256 of the `write_trace` + `write_drawing` output
of every harmonizer case below, each preceded by a `# case` line.  Any
change to the move search, the move order or the drawing writer shows up
here.  WALK_GOLDEN_SHA256 does the same for walk reduction: the
`write_walk` output (or the stall reason, or the exception raised) of
`reduce_open` / `reduce_closed` on a fixed walk corpus.
STEP2_GOLDEN_SHA256 pins the cyclic flips of step 2, which the harmonizer
corpus never reaches, on the seeds whose harmonization flips there.
OUTPUT_GOLDEN_SHA256 covers the constructors: every `redtri fixtures`
output, `write_tri` of the crowns up to 12 triangles, of four
subdivisions, of seeded disk patches and of their crowned closures, and
one `redtri stress` sweep.  CHART_GOLDEN_SHA256 covers cover charts:
their half-edge tables, and the line windows and escape probes of the
chart-growing oracle.  PROBE_GOLDEN_SHA256 covers the library's line
windows and escape probes, which walk the base host, on the same cases.  A
change that is meant to alter the output must say so and update the
constant.
"""

import hashlib
import random

import pytest

from redtri import surface
from redtri.boundary import Anchor, harmonize_rel_anchor
from redtri.cover import LEFT, RIGHT, CoverChart, escape_probe, line_window
from redtri.drawing import Drawing, Graph, read_drawing, write_drawing
from redtri.harmonizer import harmonize, write_trace
from redtri.walkcalc import (
    BoundaryTurnError,
    Reduced,
    ReductionStalled,
    Stalled,
    Walk,
    WalkError,
    reduce_closed,
    reduce_open,
    torus_stalled_walk,
    write_walk,
)

from conftest import (
    boundary_path_drawing,
    chart_snapshot,
    make_patch,
    random_closed_walk,
    random_drawing,
    random_path,
    short_closed_walks,
)
from probe_oracle import escape_probe as chart_escape_probe
from probe_oracle import line_window as chart_line_window
from test_boundary import anchored_ends

GOLDEN_SHA256 = (
    "bf96d837dab0f1f0fa3118bca96e425640a8d3821d850dade0374cb630a9d90b")
WALK_GOLDEN_SHA256 = (
    "843ea3a7e14a6290574bb1ee5c90d1a7836619dfba2abe970acf994ebf6eabc2")

# (max_vertices, detour, seeds) for random drawings on doubled crown4; the
# seeds after range(30) are ones whose harmonization includes a balancing
CLOSED_CORPUS = [
    (8, 5, list(range(30)) + [81, 95, 190, 207, 237, 263]),
    (4, 4, [16, 60, 107, 229, 258]),
]


def closed_cases():
    """(case name, drawing) for the closed cases, in a fixed order."""
    doubled = surface.double_with_gadgets(surface.crown(4))
    for max_vertices, detour, seeds in CLOSED_CORPUS:
        for seed in seeds:
            yield "closed n<=%d seed %d" % (max_vertices, seed), random_drawing(
                doubled, random.Random(seed), max_vertices=max_vertices,
                detour=detour)


def corpus():
    """(case name, (drawing, trace)) for every case, in a fixed order."""
    for name, f in closed_cases():
        yield name, harmonize(f)
    for name, f, anchor in anchored_cases():
        yield name, harmonize_rel_anchor(f, anchor)


def anchored_cases():
    """(case name, drawing, anchor): the anchored fixtures of test_boundary."""
    patch = make_patch(1, radius=2)
    f = boundary_path_drawing(patch)
    yield "anchored path", f, anchored_ends(f)
    yield "anchored empty", f, Anchor({})
    # an edge wandering into the interior and back
    h = patch.boundary_cycles()[0][0]
    u = patch.tail(h)
    inner = patch.vertex_slots[u][0]
    d = Drawing(Graph(2, [(0, 1)]), patch, [u, patch.head(h)],
                [Walk.from_half_edges(patch, [inner, patch.twin[inner], h],
                                      start=u)])
    yield "anchored detour", d, Anchor({u: [0], patch.head(h): [1]})
    for seed in range(5):
        p = make_patch(seed + 10, radius=2)
        g = boundary_path_drawing(p, steps=4)
        yield "anchored random %d" % seed, g, anchored_ends(g)


def corpus_digest():
    sha = hashlib.sha256()
    for name, (f2, trace) in corpus():
        sha.update(("# %s\n" % name).encode())
        sha.update(write_trace(trace).encode())
        sha.update(write_drawing(f2).encode())
    return sha.hexdigest()


@pytest.mark.filterwarnings("error")
def test_golden_outputs():
    assert corpus_digest() == GOLDEN_SHA256


def test_anchored_outputs_reread_on_input_host():
    for name, f, anchor in anchored_cases():
        f2, _ = harmonize_rel_anchor(f, anchor)
        assert f2.host is f.host, name
        f3, _ = read_drawing(write_drawing(f2), f.host)
        assert (f3.vertex_map, f3.edge_map) == (f2.vertex_map, f2.edge_map)


# seeds of random_drawing(doubled crown4) at its default sizes whose
# harmonization flips in step 2, along a proper monotonic ordering
STEP2_SEEDS = [14, 47, 72, 100, 112, 115]
STEP2_GOLDEN_SHA256 = (
    "c3a42b6f4a0217aea043ddaeede4d180f65a89bad07a83d91353e4e0a69ddadc")


def step2_cases():
    doubled = surface.double_with_gadgets(surface.crown(4))
    for seed in STEP2_SEEDS:
        yield "step 2 seed %d" % seed, random_drawing(doubled,
                                                      random.Random(seed))


def step2_corpus():
    for name, f in step2_cases():
        yield name, harmonize(f)


def step2_digest():
    sha = hashlib.sha256()
    for name, (f2, trace) in step2_corpus():
        assert any(e.kind == "flip" and e.phase == 2 for e in trace.entries)
        sha.update(("# %s\n" % name).encode())
        sha.update(write_trace(trace).encode())
        sha.update(write_drawing(f2).encode())
    return sha.hexdigest()


def test_step2_golden_outputs():
    assert step2_digest() == STEP2_GOLDEN_SHA256


# -- walk reduction ---------------------------------------------------------

BUDGETS = [None, 0, 1, 2, 3, 4, 5]


def reduction_text(reduce, w, t, budget=None):
    """What a reduction returns or raises, as text."""
    try:
        r = reduce(w, t, budget=budget)
    except (ReductionStalled, BoundaryTurnError, WalkError) as exc:
        return "raise %s: %s\n" % (type(exc).__name__, exc)
    if isinstance(r, Stalled):
        return "stalled reason=%s\n" % r.reason + write_walk(r.walk)
    if isinstance(r, Reduced):
        r = r.walk
    return write_walk(r)


def walk_corpus():
    """(case name, reduce, walk, host, budget) for every walk case."""
    torus = surface.build_torus()
    for n in (1, 2, 3):
        for hes in short_closed_walks(torus, n):
            w = Walk.from_half_edges(torus, hes, closed=True)
            yield "torus closed %s" % (hes,), reduce_closed, w, torus, None
            w = Walk.from_half_edges(torus, hes)
            yield "torus open %s" % (hes,), reduce_open, w, torus, None
    for budget in BUDGETS:
        yield ("torus stalled budget %s" % budget, reduce_closed,
               torus_stalled_walk(torus), torus, budget)
    doubled = surface.double_with_gadgets(surface.crown(4))
    for n in (2, 3):
        for k, hes in enumerate(short_closed_walks(doubled, n)):
            if k % (7 * n) == 0:
                w = Walk.from_half_edges(doubled, hes, closed=True)
                yield ("doubled closed %s" % (hes,), reduce_closed, w,
                       doubled, None)
    for seed in range(24):
        rng = random.Random(seed)
        detour = (6, 20, 60)[seed % 3]
        budget = BUDGETS[seed % len(BUDGETS)] if seed >= 18 else None
        hes = random_closed_walk(doubled, rng, detour)
        w = Walk.from_half_edges(doubled, hes, closed=True)
        yield ("doubled closed seed %d" % seed, reduce_closed, w, doubled,
               budget)
        u, v = rng.randrange(doubled.num_vertices), rng.randrange(
            doubled.num_vertices)
        hes = random_path(doubled, rng, u, v, detour)
        w = Walk.from_half_edges(doubled, hes, start=u)
        yield "doubled open seed %d" % seed, reduce_open, w, doubled, budget
    for seed in range(12):
        # radius-2 patches: random walks often reach the rim
        p = make_patch(seed, radius=2 + seed % 2)
        rng = random.Random(seed)
        for j in range(6):
            u, v = rng.randrange(p.num_vertices), rng.randrange(
                p.num_vertices)
            hes = random_path(p, rng, u, v, 4 + 4 * j)
            w = Walk.from_half_edges(p, hes, start=u)
            yield ("patch %d open %d" % (seed, j), reduce_open, w, p, None)
            hes = random_closed_walk(p, rng, 2 + 3 * j)
            w = Walk.from_half_edges(p, hes, closed=True)
            yield ("patch %d closed %d" % (seed, j), reduce_closed, w, p,
                   None)
    for seed in range(6):
        # longer walks through the interior of radius-4 patches
        p = make_patch(seed, radius=4)
        rng = random.Random(seed)
        inner = [v for v in range(p.num_vertices)
                 if not any(p.is_boundary_vertex(p.head(h))
                            for h in p.vertex_slots[v])]
        x = rng.choice(inner)
        hes = []
        while len(hes) < 40 + 30 * seed:
            h = rng.choice(p.vertex_slots[x])
            if p.head(h) in inner:
                hes.append(h)
                x = p.head(h)
        w = Walk.from_half_edges(p, hes)
        yield "patch %d interior open" % seed, reduce_open, w, p, None
        w = Walk.from_half_edges(p, random_closed_walk(p, rng, 30),
                                 closed=True)
        yield "patch %d interior closed" % seed, reduce_closed, w, p, None


def walk_corpus_digest():
    sha = hashlib.sha256()
    for name, reduce, w, t, budget in walk_corpus():
        sha.update(("# %s\n" % name).encode())
        sha.update(reduction_text(reduce, w, t, budget).encode())
    return sha.hexdigest()


def test_walk_golden_outputs():
    assert walk_corpus_digest() == WALK_GOLDEN_SHA256


# -- constructors and the stress sweep ---------------------------------------

OUTPUT_GOLDEN_SHA256 = (
    "1aa47a6f6a94251f48d57d3635be32341e0d91a7a547bc6a80ed7ba8e9389ee8")


def output_corpus():
    """(case name, text) for the built-in fixtures, crowns, subdivisions,
    disk patches and crowned patches."""
    from redtri.boundary import attach_crowns
    from redtri.cli import FIXTURES

    for name in sorted(FIXTURES):
        yield "fixture %s" % name, FIXTURES[name]()
    # the crowns and subdivisions that no fixture writes
    for k in (5, 7, 8, 9, 10, 11, 12):
        yield "crown %d" % k, surface.write_tri(surface.crown(k))
    torus = surface.build_torus()
    for name, t in (("torus", torus),
                    ("subdivided torus", surface.subdivide(torus)),
                    ("crown4", surface.crown(4)),
                    ("doubled crown4",
                     surface.double_with_gadgets(surface.crown(4)))):
        yield "subdivided %s" % name, surface.write_tri(surface.subdivide(t))
    # radius 6 is the size of the benchmark's patches
    for radius, seeds in [(r, range(10)) for r in range(1, 5)] + [
            (5, range(3)), (6, range(3))]:
        for seed in seeds:
            p = surface.build_disk_patch(radius, random.Random(seed))
            yield "patch %d %d" % (radius, seed), surface.write_tri(p)
            bverts = sorted({p.tail(h) for h in p.boundary_half_edges()})
            for label, need in (("plain", {}),
                                ("need", {x: x % 4 for x in bverts})):
                t0, spokes = attach_crowns(p, need)
                yield ("crowned %s %d %d" % (label, radius, seed),
                       surface.write_tri(t0) + repr(sorted(spokes.items())))


def output_corpus_digest(tmp_path):
    from redtri.cli import main

    sha = hashlib.sha256()
    for name, text in output_corpus():
        sha.update(("# %s\n" % name).encode())
        sha.update(text.encode())
    out = tmp_path / "stress.txt"
    assert main(["stress", "--seed", "0", "--count", "20", "--sizes", "8",
                 "-o", str(out)]) == 0
    sha.update(b"# stress\n")
    sha.update(out.read_bytes())
    return sha.hexdigest()


def test_output_golden(tmp_path):
    assert output_corpus_digest(tmp_path) == OUTPUT_GOLDEN_SHA256


# -- cover charts -------------------------------------------------------------

CHART_GOLDEN_SHA256 = (
    "1fefa2e77516475441f9ba85e96b095280ea3cc290ba7e8c8ce6d12437aad3c5")


def probe_cases():
    """(seed, drawing, G-vertex, side, window) of the escape probes."""
    doubled = surface.double_with_gadgets(surface.crown(4))
    for seed in range(28):
        rng = random.Random(seed)
        f = random_drawing(doubled, rng, max_vertices=3, max_extra_edges=1)
        v = rng.randrange(f.graph.num_vertices)
        side = rng.choice((LEFT, RIGHT))
        yield seed, f, v, side, 24 + 8 * (seed % 7)


def chart_corpus():
    """(case name, text) for radius-2 charts of two hosts, line windows
    through their vertex 0, and escape probes on doubled crown4, all grown
    by the chart oracle."""
    doubled = surface.double_with_gadgets(surface.crown(4))
    for name, host in (("torus", surface.build_torus()),
                       ("doubled crown4", doubled)):
        chart = CoverChart(host).expand(2)
        yield "chart %s" % name, repr((chart.next, chart.twin, chart.origin,
                                       chart.proj, chart.proj_v))
        yield "chart %s snapshot" % name, surface.write_tri(
            chart_snapshot(chart))
        for side in (LEFT, RIGHT):
            yield ("chart %s line %s" % (name, side),
                   repr(chart_line_window(chart, 0, side, 6).edges))
    for seed, f, v, side, L in probe_cases():
        yield "probe seed %d" % seed, repr(
            chart_escape_probe(f, v, side, L=L))


def corpus_sha256(cases):
    sha = hashlib.sha256()
    for name, text in cases:
        sha.update(("# %s\n" % name).encode())
        sha.update(text.encode())
    return sha.hexdigest()


def test_chart_golden_outputs():
    assert corpus_sha256(chart_corpus()) == CHART_GOLDEN_SHA256


# the chart oracle's windows and probes projected to the base: the
# windows' `proj`, and (i, proj of the chart exit) for escapes
PROBE_GOLDEN_SHA256 = (
    "d7c36b6ae1bf934b949e4630ae8c458e0814e3b31c5bf9a25dd69f46f42c4039")


def probe_corpus():
    """(case name, text) for the base line windows through vertex 0 of two
    hosts and the escape probes of chart_corpus."""
    for name, host in (("torus", surface.build_torus()),
                       ("doubled crown4",
                        surface.double_with_gadgets(surface.crown(4)))):
        for side in (LEFT, RIGHT):
            yield ("probe %s line %s" % (name, side),
                   repr(line_window(host, 0, side, 6)))
    for seed, f, v, side, L in probe_cases():
        yield "probe seed %d" % seed, repr(escape_probe(f, v, side, L=L))


def test_probe_golden_outputs():
    assert corpus_sha256(probe_corpus()) == PROBE_GOLDEN_SHA256
