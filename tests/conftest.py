import faulthandler
import os
import random
from types import SimpleNamespace

import pytest

from redtri import surface
from redtri.drawing import Drawing, Graph
from redtri.drawing import random_drawing, random_path  # shared with the tests
from redtri.walkcalc import Walk

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
# the characters that mutate the inputs of the fuzz tests
FUZZ_ALPHABET = "0123456789-=,>#\n abfhilnortvw"


# the run's own stderr, copied while output capture is off between test
# phases; fd 2 itself is a capture file while a test runs
_STDERR = []


def pytest_configure(config):
    _STDERR.append(os.fdopen(os.dup(2), "w"))


@pytest.fixture(autouse=True)
def hang_guard():
    """A test that runs for three minutes dumps every thread's traceback
    to the run's stderr and ends the run, so that a hang fails fast and
    says where."""
    faulthandler.dump_traceback_later(180, exit=True, file=_STDERR[0])
    yield
    faulthandler.cancel_dump_traceback_later()


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def torus():
    return surface.build_torus()


def edit_char(text, i, kind, c):
    """text with c inserted at position i, or the character there deleted
    or replaced by c."""
    if kind == "insert":
        return text[:i] + c + text[i:]
    if kind == "delete":
        return text[:i] + text[i + 1:]
    return text[:i] + c + text[i + 1:]


def make_patch(seed, radius=3):
    return surface.build_disk_patch(radius, random.Random(seed))


def boundary_path_drawing(p, steps=3):
    """A path along the first boundary edges, with one vertex per step end."""
    cyc = p.boundary_cycles()[0]
    hes = cyc[:steps]
    verts = [p.tail(hes[0])] + [p.head(h) for h in hes]
    g = Graph(len(verts), [(i, i + 1) for i in range(len(hes))])
    emap = [Walk.from_half_edges(p, (h,), start=p.tail(h)) for h in hes]
    return Drawing(g, p, verts, emap)


def backwards_boundary_drawing(p):
    """(drawing, anchor orders): one edge round the far side of the
    triangle on p's first boundary edge h, anchored at both ends.  Its
    harmonized image would be the crown-side reverse of h, which p does
    not have."""
    h = p.boundary_cycles()[0][0]
    u, v = p.head(h), p.tail(h)
    f = Drawing(Graph(2, [(0, 1)]), p, [u, v],
                [Walk.from_half_edges(p, (p.next[h], p.next[p.next[h]]))])
    return f, {u: [0], v: [1]}


def chart_snapshot(chart):
    """The Triangulation of a cover chart's columns as they stand."""
    return surface.Triangulation(chart.next, chart.twin, chart.origin,
                                 dict(enumerate(chart.color)))


def fan_disk(k):
    """A disk of k triangles around a center vertex of degree k."""
    cols = next_, twin, origin, color = [], [], [], []
    tris = [surface.new_face(cols, 0, 1 + i, 1 + (i + 1) % k,
                             surface.RED if i % 2 == 0 else surface.BLUE)
            for i in range(k)]
    for i in range(k):
        surface.glue(cols, tris[i][2], tris[(i + 1) % k][0])
    return surface.Triangulation(next_, twin, origin, dict(enumerate(color)))


def bowtie():
    """The tables (next, twin, origin, face colors) of two triangles
    sharing only vertex 0, no side glued: vertex 0 is pinched, two boundary
    half-edges enter it, so its rotation does not close and the tables make
    no Triangulation."""
    return ((1, 2, 0, 4, 5, 3), (surface.NO_TWIN,) * 6, (0, 1, 2, 0, 3, 4),
            {0: surface.RED, 3: surface.BLUE})


def tri_text(next_, twin, origin, colors):
    """write_tri's text of half-edge tables that need not make a
    Triangulation; colors maps the least half-edge of each face to its
    color."""
    faces = surface.face_orbits(next_)[0]
    return surface.write_tri(SimpleNamespace(
        next=next_, twin=twin, origin=origin, faces=faces,
        face_color=[colors[orbit[0]] for orbit in faces]))


def closed_left_cycle(t, seed_he):
    """Follow 3-turns from seed_he until a half-edge repeats; the cycle part
    is a closed walk with 3-turns everywhere."""
    seen = {}
    e = seed_he
    path = []
    while e not in seen:
        seen[e] = len(path)
        path.append(e)
        slots = t.vertex_slots[t.head(e)]
        i = slots.index(t.twin[e])
        e = slots[(i + 3) % len(slots)]
    return path[seen[e]:]


def random_closed_walk(t, rng, detour):
    """Half-edges of a closed walk: random steps from a random vertex, then
    a shortest path home (at least one step)."""
    u = rng.randrange(t.num_vertices)
    hes = []
    while not hes:
        hes = random_path(t, rng, u, u, max(detour, 1))
    return hes


def short_closed_walks(t, length):
    """Every closed half-edge walk of the given length (1 to 3)."""
    def extend(hes):
        if len(hes) == length:
            if t.head(hes[-1]) == t.tail(hes[0]):
                yield tuple(hes)
            return
        for h in t.vertex_slots[t.head(hes[-1])]:
            yield from extend(hes + [h])

    for h in range(len(t.next)):
        yield from extend([h])


def tables_of(t, twin=None):
    """t's tables (next, twin, origin, face colors), with twin in place of
    t's twin column if given."""
    return t.next, tuple(t.twin if twin is None else twin), t.origin, dict(
        enumerate(map(t.color_left, range(len(t.next)))))


def broken_twin_torus():
    """The tables of the torus with half-edges 0 and 4 both claiming 5 as
    their twin: the rotation of its one vertex does not close, so they
    make no Triangulation."""
    t = surface.build_torus()
    twin = list(t.twin)
    twin[0], twin[4] = 5, 5  # he 0 points at 5 whose twin is 1
    return tables_of(t, twin)


def broken_doubled_crown4():
    """The tables of doubled crown4 with 0 and 10, and 92 and 240, made
    twins: the rotations of vertices 0 to 3 no longer close."""
    t = surface.double_with_gadgets(surface.crown(4))
    twin = list(t.twin)
    for h, g in ((0, 10), (92, 240)):
        twin[h], twin[g] = g, h
    return tables_of(t, twin)


def rotated_twins(t, *rotations):
    """t with the twins of each rotation's half-edges a, b, c rotated: a
    takes b's twin, b takes c's and c takes a's.  Rotated among half-edges
    out of one vertex, each twin still ends at its half-edge's tail, so
    the rotations can still close while the twins disagree with them."""
    twin = list(t.twin)
    for a, b, c in rotations:
        twin[a], twin[b], twin[c] = twin[b], twin[c], twin[a]
    return surface.Triangulation(*tables_of(t, twin))


def twin_mismatch_torus():
    """The subdivided torus with the twins of 22, 1 and 5 rotated: every
    rotation closes, but twin 15 of half-edge 1 leaves vertex 0, not 1's
    head 3, so the turn of the walk 1, 2 reads a half-edge (15) that is
    not in the rotation, and validate_reducing reports TwinBroken."""
    return rotated_twins(surface.subdivide(surface.build_torus()), (22, 1, 5))


def twin_mismatch_doubled_crown4():
    """Doubled crown4 with the twins of 0, 90 and 78 rotated: every
    rotation closes, but the turn of the walk 0, 1 reads half-edge 0's
    twin 80, which is not in the rotation."""
    return rotated_twins(surface.double_with_gadgets(surface.crown(4)),
                         (0, 90, 78))


def pinched_sphere(color):
    """A sphere of two triangles, each with two sides glued to each other,
    glued along a loop at vertex 0 (degree 4, the other two vertices degree
    1).  The loop's turn into itself is 2 with a `color` face on its left,
    so a one-edge closed walk can have a bad corner, which no other test
    host allows."""
    from redtri.surface import BLUE, Triangulation, glue, new_face
    cols = next_, twin, origin, colors = [], [], [], []
    h, x, y = new_face(cols, 0, 0, 1, color)
    h2, x2, y2 = new_face(cols, 0, 0, 2, BLUE)
    glue(cols, x, y)
    glue(cols, x2, y2)
    glue(cols, h, h2)
    return Triangulation(next_, twin, origin, dict(enumerate(colors)))
