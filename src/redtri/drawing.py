"""Graphs drawn into the 1-skeleton of a triangulation.

A drawing sends every graph vertex to a triangulation vertex and every graph
edge to a walk between the images of its endpoints.  It factors through a
simplicial drawing (subdivide long edges); `harmonizer.State` then contracts
the clusters, the connected subgraphs with one image, in its union-find.
"""

from dataclasses import dataclass

from .surface import FormatError, int_list, records
from .walkcalc import Walk


class DrawingError(Exception):
    pass


class Graph:
    """Vertices 0..n-1; edges are (u, v) pairs indexed by id.  Loops and
    parallel edges are legal, so edges are always referred to by id."""

    def __init__(self, num_vertices, edges):
        self.num_vertices = num_vertices
        self.edges = tuple(tuple(e) for e in edges)
        for u, v in self.edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise DrawingError("edge endpoint out of range")
        self._incident = [[] for _ in range(num_vertices)]
        for i, (u, v) in enumerate(self.edges):
            self._incident[u].append((i, v))
            if u != v:
                self._incident[v].append((i, u))
            else:
                self._incident[u].append((i, u))

    def incident(self, v):
        """(edge id, other endpoint) pairs; loops appear twice."""
        return self._incident[v]

    def num_edges(self):
        return len(self.edges)


class Drawing:
    """f : G -> T^1.  vertex_map: per G-vertex a T-vertex; edge_map: per
    G-edge a Walk in T from the image of endpoint 0 to the image of
    endpoint 1 (length 0 is legal when the images agree)."""

    def __init__(self, graph, host, vertex_map, edge_map):
        self.graph = graph
        self.host = host
        self.vertex_map = tuple(vertex_map)
        self.edge_map = tuple(edge_map)
        if len(self.vertex_map) != graph.num_vertices:
            raise DrawingError("vertex_map size mismatch")
        if self.vertex_map and not (0 <= min(self.vertex_map) and max(
                self.vertex_map) < host.num_vertices):
            raise DrawingError("vertex image out of range")
        if len(self.edge_map) != graph.num_edges():
            raise DrawingError("edge_map size mismatch")
        vmap, origin, nxt = self.vertex_map, host.origin, host.next
        for i, ((u, v), w) in enumerate(zip(graph.edges, self.edge_map)):
            hes = w.half_edges
            if w.start != vmap[u] or vmap[v] != (
                    origin[nxt[hes[-1]]] if hes else w.start):
                raise DrawingError("edge %d walk endpoints do not match" % i)
            if w.closed:
                raise DrawingError("edge images must be open walks")

    def lengths(self):
        per_edge = tuple(len(w) for w in self.edge_map)
        return per_edge, sum(per_edge)


@dataclass(frozen=True)
class SimplicialDrawing:
    """Subdivided graph with one vertex per unit of image length.

    Vertices 0..n-1 are the original G-vertices; subdivision vertices
    follow, edge by edge.  Every edge maps to a single half-edge or to a
    vertex (image None).
    """

    graph: object            # the subdivided graph
    host: object
    vertex_map: tuple        # per vertex, a T-vertex
    edge_image: tuple        # per edge, half-edge id or None
    edge_origin: tuple       # per edge, (G-edge id, segment index)
    base_graph: object


def factor_simplicial(f):
    """Subdivide every edge whose image walk has length >= 2."""
    g, t = f.graph, f.host
    vmap = list(f.vertex_map)
    edges = []
    eimg = []
    eorig = []
    for i, (u, v) in enumerate(g.edges):
        w = f.edge_map[i]
        n = len(w)
        if n == 0:
            edges.append((u, v))
            eimg.append(None)
            eorig.append((i, 0))
            continue
        prev = u
        for j, h in enumerate(w.half_edges):
            if j == n - 1:
                nxt = v
            else:
                nxt = len(vmap)
                vmap.append(t.head(h))
            edges.append((prev, nxt))
            eimg.append(h)
            eorig.append((i, j))
            prev = nxt
    gbar = Graph(len(vmap), edges)
    return SimplicialDrawing(gbar, t, tuple(vmap), tuple(eimg), tuple(eorig),
                             g)


def unfactor(fbar):
    """Rebuild the plain drawing from a simplicial factorization."""
    g0 = fbar.base_graph
    t = fbar.host
    vmap = fbar.vertex_map[:g0.num_vertices]
    walks = [[] for _ in g0.edges]
    for (b, _), h in zip(fbar.edge_origin, fbar.edge_image):
        if h is not None:
            walks[b].append(h)
    emap = [Walk.from_half_edges(t, hes, start=vmap[u])
            for (u, _), hes in zip(g0.edges, walks)]
    return Drawing(g0, t, vmap, emap)


# -- random drawings ---------------------------------------------------------

def random_path(t, rng, u, v, detour):
    """Half-edges of a walk from u to v: a random prefix, then a shortest
    path back."""
    hes = []
    x = u
    for _ in range(rng.randrange(detour + 1)):
        h = rng.choice(t.vertex_slots[x])
        hes.append(h)
        x = t.head(h)
    # BFS from x to v over outgoing slots
    prev = {x: None}
    queue = [x]
    while v not in prev:
        nxt = []
        for y in queue:
            for h in t.vertex_slots[y]:
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


# -- DRW v1 text format ----------------------------------------------------

def write_drawing(f, anchor=None):
    lines = []
    for v in range(f.graph.num_vertices):
        lines.append("vertex %d at %d" % (v, f.vertex_map[v]))
    for e, (u, v) in enumerate(f.graph.edges):
        w = f.edge_map[e]
        hes = ",".join(str(h) for h in w.half_edges) if w.half_edges else "-"
        lines.append("edge %d %d %d walk=%s" % (e, u, v, hes))
    if anchor:
        for tv in sorted(anchor):
            order = ",".join(str(g) for g in anchor[tv])
            lines.append("anchor %d order=%s" % (tv, order))
    return "\n".join(lines) + "\n"


def check_anchored(orders, num_vertices, error):
    """Raise `error` naming the first G-vertex of the anchor orders (host
    vertex -> G-vertices) that is not one of the graph's num_vertices."""
    for vs in orders.values():
        for v in vs:
            if not 0 <= v < num_vertices:
                raise error("anchored vertex %d out of range" % v)


def read_drawing(text, host):
    vmap = {}
    edges = []
    walks = []
    anchor = {}

    def vertex(v, at, x, fields):
        v = int(v)
        if at != "at" or fields or v in vmap:
            raise ValueError("expected one vertex V at X per vertex")
        vmap[v] = int(x)

    def edge(e, u, v, fields):
        int(e)  # edge ids follow the order of the lines
        edges.append((int(u), int(v)))
        walks.append(int_list(fields["walk"], len(host.next)))

    def anchor_at(x, fields):
        x = int(x)
        if x in anchor:
            raise ValueError("a second anchor at %d" % x)
        anchor[x] = list(int_list(fields["order"]))

    records(text, {"vertex": (3, vertex), "edge": (3, edge),
                   "anchor": (1, anchor_at)})
    n = len(vmap)
    if set(vmap) != set(range(n)):
        raise FormatError("vertex ids are not 0..%d" % (n - 1))
    check_anchored(anchor, n, FormatError)
    vertex_map = [vmap[v] for v in range(n)]
    g = Graph(n, edges)
    emap = [Walk.from_half_edges(host, hes, start=vertex_map[u])
            for (u, _), hes in zip(g.edges, walks)]
    f = Drawing(g, host, vertex_map, emap)
    return (f, anchor) if anchor else (f, None)
