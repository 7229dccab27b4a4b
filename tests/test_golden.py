"""Byte-identical output on a fixed corpus.

GOLDEN_SHA256 is the sha256 of the `write_trace` + `write_drawing` output
of every case below, each preceded by a `# case` line.  Any change to the
move search, the move order or the drawing writer shows up here.  A change
that is meant to alter the output must say so and update the constant.
"""

import hashlib
import random

import pytest

from redtri import surface
from redtri.boundary import Anchor, harmonize_rel_anchor
from redtri.drawing import Drawing, Graph, write_drawing
from redtri.harmonizer import harmonize, write_trace
from redtri.walkcalc import Walk

from conftest import make_patch, random_drawing
from test_boundary import anchored_ends, boundary_path_drawing

GOLDEN_SHA256 = (
    "bf96d837dab0f1f0fa3118bca96e425640a8d3821d850dade0374cb630a9d90b")

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
