import os
import random

import pytest

from redtri import surface

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def torus():
    return surface.build_torus()


def make_patch(seed, radius=3):
    return surface.build_disk_patch(radius, random.Random(seed))


def _out_slots(t, v):
    return t.vertex_slots[v]


def random_path(t, rng, u, v, detour):
    """Half-edges of a walk from u to v: a random prefix, then a shortest
    path back."""
    hes = []
    x = u
    for _ in range(rng.randrange(detour + 1)):
        h = rng.choice(_out_slots(t, x))
        hes.append(h)
        x = t.head(h)
    # BFS from x to v over outgoing slots
    prev = {x: None}
    queue = [x]
    while v not in prev:
        nxt = []
        for y in queue:
            for h in _out_slots(t, y):
                z = t.head(h)
                if z not in prev:
                    prev[z] = h
                    nxt.append(z)
        queue = nxt
    tail = []
    y = v
    while prev[y] is not None:
        h = prev[y]
        tail.append(h)
        y = t.tail(h)
    hes.extend(reversed(tail))
    return hes


def random_drawing(host, rng, max_vertices=5, max_extra_edges=3, detour=4):
    """A small connected graph drawn with random walks on the host."""
    from redtri.drawing import Drawing, Graph
    from redtri.walkcalc import Walk

    n = rng.randrange(1, max_vertices + 1)
    vmap = [rng.randrange(host.num_vertices) for _ in range(n)]
    edges = [(rng.randrange(i + 1), i + 1) for i in range(n - 1)]
    for _ in range(rng.randrange(max_extra_edges + 1)):
        edges.append((rng.randrange(n), rng.randrange(n)))
    emap = []
    for u, v in edges:
        hes = random_path(host, rng, vmap[u], vmap[v], detour)
        emap.append(Walk.from_half_edges(host, hes, start=vmap[u]))
    return Drawing(Graph(n, edges), host, vmap, emap)


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


def pinched_sphere(color):
    """A sphere of two triangles, each with two sides glued to each other,
    glued along a loop at vertex 0 (degree 4, the other two vertices degree
    1).  The loop's turn into itself is 2 with a `color` face on its left,
    so a one-edge closed walk can have a bad corner, which no other test
    host allows."""
    from redtri.surface import BLUE, MapBuilder
    b = MapBuilder()
    h, x, y = b.new_face(0, 0, 1, color)
    h2, x2, y2 = b.new_face(0, 0, 2, BLUE)
    b.glue(x, y)
    b.glue(x2, y2)
    b.glue(h, h2)
    return b.build()
