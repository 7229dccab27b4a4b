"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of the `random.Random` it is given,
so one seed always gives the same hosts, drawings and walks.  The program
under test only ever sees the `.tri`/`.drw`/`.walk` files written from them.
"""

import random

from redtri import surface
from redtri.drawing import Drawing, Graph
from redtri.walkcalc import Walk


def host_info(t):
    """Size facts recorded for every host a workload uses."""
    return {
        "half_edges": len(t.next),
        "vertices": t.num_vertices,
        "genus": t.genus(),
        "max_degree": max(t.degree(v) for v in range(t.num_vertices)),
        "boundary_edges": len(t.boundary_half_edges()),
    }


def doubled_crown4():
    return surface.double_with_gadgets(surface.crown(4))


def sized_patch(radius, rng, half_edges, boundary_edges=None, draws=8):
    """The first of `draws` random disk patches that comes closest to
    `half_edges` half-edges and, if given, `boundary_edges` boundary edges.

    Patch size varies by a factor of two between seeds, and it sets the cost
    of parsing and of the anchored extension, so each seed picks a patch of
    nearly the same size; what varies is the patch, not its size.  A fixed
    number of draws keeps the set-up work the same for every seed.
    """
    best = None
    for _ in range(draws):
        p = surface.build_disk_patch(radius, random.Random(rng.random()))
        miss = (abs(len(p.next) - half_edges),
                abs(len(p.boundary_half_edges()) - (boundary_edges or 0))
                if boundary_edges is not None else 0)
        if best is None or miss < best[0]:
            best = (miss, p)
    return best[1]


def out_steps(t):
    """Per vertex, (half-edge, head) for each slot in clockwise order: the
    walk generators below step through this table rather than calling
    `t.head` on every step."""
    return [[(h, t.head(h)) for h in slots] for slots in t.vertex_slots]


def distances_to(out, targets):
    """Edge distance of every vertex to the nearest vertex in `targets`."""
    dist = [None] * len(out)
    frontier = list(targets)
    for v in frontier:
        dist[v] = 0
    while frontier:
        nxt = []
        for x in frontier:
            for _, y in out[x]:
                if dist[y] is None:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def shortest_path(t, out, x, y):
    """Half-edges of a shortest walk from x to y (BFS over outgoing slots)."""
    prev = {x: None}
    frontier = [x]
    while y not in prev:
        nxt = []
        for a in frontier:
            for h, b in out[a]:
                if b not in prev:
                    prev[b] = h
                    nxt.append(b)
        if not nxt:
            raise ValueError("vertex %d unreachable from %d" % (y, x))
        frontier = nxt
    path = []
    while prev[y] is not None:
        path.append(prev[y])
        y = t.tail(prev[y])
    return path[::-1]


def drawing_on(t, out, rng, n, extra, detour, first=None):
    """A connected graph on exactly n vertices and n - 1 + extra edges.

    Each edge image is `detour` random steps out of its first endpoint's
    image followed by a shortest path to the second endpoint's image.
    Vertex 0 is drawn at host vertex `first` if it is given.
    """
    vmap = [rng.randrange(t.num_vertices) for _ in range(n)]
    if first is not None:
        vmap[0] = first
    edges = [(rng.randrange(i + 1), i + 1) for i in range(n - 1)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    emap = []
    for u, v in edges:
        hes = []
        x = vmap[u]
        for _ in range(detour):
            h = rng.choice(t.vertex_slots[x])
            hes.append(h)
            x = t.head(h)
        hes += shortest_path(t, out, x, vmap[v])
        emap.append(Walk.from_half_edges(t, hes, start=vmap[u]))
    return Drawing(Graph(n, edges), t, vmap, emap)


def clusters_times_edges(f):
    """Clusters times edges of the subdivided drawing the harmonizer starts
    from: one edge per unit of image length, zero-length edges contracted."""
    n = f.graph.num_vertices + sum(max(len(w) - 1, 0) for w in f.edge_map)
    parent = list(range(f.graph.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for (u, v), w in zip(f.graph.edges, f.edge_map):
        if len(w) == 0 and find(u) != find(v):
            parent[find(u)] = find(v)
            merged += 1
    return (n - merged) * f.lengths()[1]


def inner_steps(out, deep):
    """Per vertex of the set `deep`, its slots whose head is in `deep` too."""
    return {x: [h for h, y in out[x] if y in deep] for x in sorted(deep)}


def open_interior_walk(t, rng, L, inner):
    """An open walk of exactly L steps through the vertices of `inner`, a
    table from `inner_steps`."""
    x = rng.choice(list(inner))
    hes = []
    while len(hes) < L:
        h = rng.choice(inner[x])
        hes.append(h)
        x = t.head(h)
    return Walk.from_half_edges(t, hes)


def closed_walk(t, out, rng, L):
    """A closed walk of L steps (L - 1 when parity leaves one step over at
    the start): random steps while there is room, then a shortest way home."""
    start = rng.randrange(t.num_vertices)
    home = distances_to(out, [start])
    hes = []
    x = start
    while True:
        left = L - len(hes)    # invariant: home[x] <= left
        if left == home[x]:
            hes += shortest_path(t, out, x, start)
            break
        steps = [g for g, y in out[x] if home[y] < left]
        if not steps:   # one step short at home: no loop to spend it on
            break
        h = rng.choice(steps)
        hes.append(h)
        x = t.head(h)
    return Walk.from_half_edges(t, hes, closed=True)


def boundary_path(p, rng, steps, anchored):
    """A path drawn along `steps` consecutive boundary edges of p, one graph
    vertex per boundary vertex, with its two ends and `anchored - 2` evenly
    spaced inner vertices anchored where they are drawn.

    Returns (drawing, anchor) with anchor mapping host vertex -> [G-vertex].
    """
    cyc = p.boundary_cycles()[0]
    if steps >= len(cyc):
        raise ValueError("path longer than the boundary")
    first = rng.randrange(len(cyc))
    hes = [cyc[(first + i) % len(cyc)] for i in range(steps)]
    verts = [p.tail(hes[0])] + [p.head(h) for h in hes]
    g = Graph(len(verts), [(i, i + 1) for i in range(steps)])
    emap = [Walk.from_half_edges(p, (h,), start=p.tail(h)) for h in hes]
    picks = sorted({round(i * steps / (anchored - 1))
                    for i in range(anchored)})
    anchor = {verts[v]: [v] for v in picks}
    return Drawing(g, p, verts, emap), anchor
