import os
import random

import pytest

from redtri import surface
from redtri.drawing import random_drawing, random_path  # shared with the tests

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def torus():
    return surface.build_torus()


def make_patch(seed, radius=3):
    return surface.build_disk_patch(radius, random.Random(seed))


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
