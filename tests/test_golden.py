"""Byte-identical output on fixed corpora.

GOLDEN_SHA256 is the sha256 of the `write_trace` + `write_drawing` output
of every harmonizer case below, each preceded by a `# case` line.  Any
change to the move search, the move order or the drawing writer shows up
here.  WALK_GOLDEN_SHA256 does the same for walk reduction: the
`write_walk` output (or the stall reason, or the exception raised) of
`reduce_open` / `reduce_closed` on a fixed walk corpus.
OUTPUT_GOLDEN_SHA256 covers the constructors: every `redtri fixtures`
output, `write_tri` of seeded disk patches and of their crowned closures,
and one `redtri stress` sweep.  A change that is meant to alter the output
must say so and update the constant.
"""

import hashlib
import random

import pytest

from redtri import surface
from redtri.boundary import Anchor, harmonize_rel_anchor
from redtri.drawing import Drawing, Graph, write_drawing
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
    make_patch,
    random_closed_walk,
    random_drawing,
    random_path,
    short_closed_walks,
)
from test_boundary import anchored_ends, boundary_path_drawing

GOLDEN_SHA256 = (
    "bf96d837dab0f1f0fa3118bca96e425640a8d3821d850dade0374cb630a9d90b")
WALK_GOLDEN_SHA256 = (
    "e01655a1559d469065040a83e56cfe4a039de16cc4a61280fc0c422eb2376e90")

# (max_vertices, detour, seeds) for random drawings on doubled crown4; the
# seeds after range(30) are ones whose harmonization includes a balancing
CLOSED_CORPUS = [
    (8, 5, list(range(30)) + [81, 95, 190, 207, 237, 263]),
    (4, 4, [16, 60, 107, 229, 258]),
]


def corpus():
    """(case name, (drawing, trace)) for every case, in a fixed order."""
    doubled = surface.double_with_gadgets(surface.crown(4))
    for max_vertices, detour, seeds in CLOSED_CORPUS:
        for seed in seeds:
            f = random_drawing(doubled, random.Random(seed),
                               max_vertices=max_vertices, detour=detour)
            yield "closed n<=%d seed %d" % (max_vertices, seed), harmonize(f)
    # the anchored fixtures of test_boundary
    patch = make_patch(1, radius=2)
    f = boundary_path_drawing(patch)
    yield "anchored path", harmonize_rel_anchor(f, anchored_ends(f))
    yield "anchored empty", harmonize_rel_anchor(f, Anchor({}))
    # an edge wandering into the interior and back
    h = patch.boundary_cycles()[0][0]
    u = patch.tail(h)
    inner = patch.vertex_slots[u][0]
    d = Drawing(Graph(2, [(0, 1)]), patch, [u, patch.head(h)],
                [Walk.from_half_edges(patch, [inner, patch.twin[inner], h],
                                      start=u)])
    yield "anchored detour", harmonize_rel_anchor(
        d, Anchor({u: [0], patch.head(h): [1]}))
    for seed in range(5):
        p = make_patch(seed + 10, radius=2)
        g = boundary_path_drawing(p, steps=4)
        yield ("anchored random %d" % seed,
               harmonize_rel_anchor(g, anchored_ends(g)))


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
    "79de055de170febc50e156f4d0d66bcb6c4b573d34b80cec0928de68a925b476")


def output_corpus():
    """(case name, text) for the built-in fixtures, disk patches and
    crowned patches."""
    from redtri.boundary import attach_crowns
    from redtri.cli import FIXTURES

    for name in sorted(FIXTURES):
        yield "fixture %s" % name, FIXTURES[name]()
    for radius in range(1, 5):
        for seed in range(10):
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
