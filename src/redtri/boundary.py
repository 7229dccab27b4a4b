"""Anchors on the boundary and harmonization relative to them.

An anchor pins ordered lists of graph vertices to boundary vertices of the
host.  Harmonizing relative to an anchor closes the host: attach a crown to
every boundary cycle, mirror the result, fill the seams with 3-gadgets, and
run the plain routine on the doubled drawing with tip edges holding the
anchored vertices in place.  The first and last three crown spokes at every
boundary vertex act as guards that no move may ever use.
"""

from dataclasses import dataclass

from .drawing import Drawing, Graph
from .harmonizer import harmonize
from .surface import (
    NO_TWIN,
    MapBuilder,
    _double_with_gadgets_unchecked,
    _grow_ring,
    validate_reducing,  # perfbench/tracer.py patches this name
)
from .walkcalc import Walk


class BoundaryError(Exception):
    pass


class GuardViolation(BoundaryError):
    """A move touched a stem image or a guard edge."""


class Anchor:
    """Ordered lists of G-vertices per boundary T-vertex."""

    def __init__(self, orders):
        self.orders = {x: tuple(vs) for x, vs in orders.items() if vs}
        seen = set()
        for vs in self.orders.values():
            for v in vs:
                if v in seen:
                    raise BoundaryError("vertex %d anchored twice" % v)
                seen.add(v)

    def vertices(self):
        out = set()
        for vs in self.orders.values():
            out.update(vs)
        return out

    def count_at(self, x):
        return len(self.orders.get(x, ()))

    def validate(self, f):
        t = f.host
        for x, vs in self.orders.items():
            if not (0 <= x < t.num_vertices) or not t.is_boundary_vertex(x):
                raise BoundaryError("anchor at non-boundary vertex %d" % x)
            for v in vs:
                if f.vertex_map[v] != x:
                    raise BoundaryError(
                        "anchored vertex %d is not drawn at %d" % (v, x))


def _boundary_corner(t, x):
    """(h_out, h_in): the twin-free half-edges leaving and entering x."""
    slots = t.vertex_slots[x]
    h_out = slots[-1]
    h_in = t.prev(slots[0])
    if t.twin[h_out] != NO_TWIN or t.twin[h_in] != NO_TWIN:
        raise BoundaryError("vertex %d is not on the boundary" % x)
    return h_out, h_in


# -- the relative weak-embedding graph M* ----------------------------------

@dataclass(frozen=True)
class StarExtension:
    graph: object        # M*: the 1-skeleton plus stems
    rotation: tuple      # per M*-vertex, clockwise tuple of edge ids
    ggraph: object       # G*: G plus one pendant edge per anchored vertex
    vertex_map: tuple    # per G*-vertex, an M*-vertex
    edge_walks: tuple    # per G*-edge, a tuple of M*-edge ids
    stems: tuple         # M*-edge ids of the stems, in scan order
    tips: tuple          # G*-vertex ids of the pendant ends


def _edge_ids(t):
    eid = {}
    edges = []
    for h in range(len(t.next)):
        g = t.twin[h]
        if g == NO_TWIN or h < g:
            eid[h] = len(edges)
            edges.append((t.tail(h), t.head(h)))
    for h in range(len(t.next)):
        g = t.twin[h]
        if g != NO_TWIN and h > g:
            eid[h] = eid[g]
    return eid, edges


def build_star_extension(f, anchor):
    """M*, G*, f* with the stems of each boundary corner placed so that the
    two boundary edges and the stems are consecutive in the rotation."""
    t = f.host
    if t.is_closed():
        raise BoundaryError("host has no boundary")
    anchor.validate(f)
    eid, medges = _edge_ids(t)
    mvertices = t.num_vertices
    gvertices = f.graph.num_vertices
    gedges = list(f.graph.edges)
    walks = [tuple(eid[h] for h in w.half_edges) for w in f.edge_map]
    stems = []
    tips = []
    stem_at = {}     # boundary T-vertex -> list of stem edge ids
    for x in sorted(anchor.orders):
        stem_at[x] = []
        for v in anchor.orders[x]:
            stem_vertex = mvertices
            mvertices += 1
            stem_edge = len(medges)
            medges.append((x, stem_vertex))
            stem_at[x].append(stem_edge)
            tip = gvertices
            gvertices += 1
            gedges.append((v, tip))
            walks.append((stem_edge,))
            stems.append(stem_edge)
            tips.append(tip)
    rotation = []
    for x in range(t.num_vertices):
        slots = t.vertex_slots[x]
        rot = [eid[h] for h in slots]
        if t.is_boundary_vertex(x):
            _, h_in = _boundary_corner(t, x)
            rot.extend(stem_at.get(x, ()))
            rot.append(eid[h_in])
        rotation.append(tuple(rot))
    for e in range(len(medges)):
        if medges[e][1] >= t.num_vertices:
            rotation.append((e,))   # each stem tip has a single edge-end
    mgraph = Graph(mvertices, medges)
    ggraph = Graph(gvertices, gedges)
    vmap = list(f.vertex_map)
    for i, tip in enumerate(tips):
        vmap.append(medges[stems[i]][1])
    return StarExtension(mgraph, tuple(rotation), ggraph, tuple(vmap),
                         tuple(walks), tuple(stems), tuple(tips))


# -- crowns and doubling ---------------------------------------------------

def attach_crowns(t, need):
    """Close every boundary cycle of t with a fitted crown.

    Returns (t0, spokes) where spokes maps each old boundary vertex to its
    crown-interior half-edges, clockwise from the old outgoing boundary edge.
    """
    b = MapBuilder()
    b.add(t)
    nverts = t.num_vertices
    bverts = set()

    def target(w, k):
        # n anchored vertices at w leave it at least n + 6 crown spokes
        d = max(6, k, k + need.get(w, 0) + 4)
        return d + d % 2

    for cyc in t.boundary_cycles():
        nverts = _grow_ring(b, cyc, nverts, target)[1]
        bverts.update(t.origin[h] for h in cyc)
    t0 = b.build()
    spokes = {}
    for x in sorted(bverts):
        h_out, h_in = _boundary_corner(t, x)
        stop = t0.twin[h_in]
        slots = t0.vertex_slots[x]
        i = slots.index(h_out)
        run = []
        p = (i + 1) % len(slots)
        while slots[p] != stop:
            run.append(slots[p])
            p = (p + 1) % len(slots)
        spokes[x] = tuple(run)
    return t0, spokes


@dataclass(frozen=True)
class GuardData:
    host: object         # the closed doubled host
    guard_hes: frozenset  # half-edges no move may use
    stem_edges: dict     # G•-edge id -> its fixed image half-edge
    flat_hes: frozenset  # half-edges of T and its mirror
    spokes: dict         # T-boundary vertex -> crown spokes (T0 ids)
    base_vertices: int
    base_edges: int


def extend_for_harmonization(f, anchor):
    """Close the host and the drawing: crowns, mirror, gadgets, tip edges.

    Returns (f_closed, guard) where f_closed is a drawing on a closed
    reducing host and guard records the stems and guard edges."""
    t = f.host
    if t.is_closed():
        raise BoundaryError("host is already closed")
    anchor.validate(f)
    need = {x: anchor.count_at(x) for x in anchor.orders}
    t0, spokes = attach_crowns(t, need)
    # `harmonize` validates tdot, raising HarmonizerError if it is not a
    # closed reducing host
    tdot, info = _double_with_gadgets_unchecked(t0)
    mirr = info["mirror"][0]

    def base_vertex(w):
        return tdot.origin[t0.vertex_slots[w][0]]

    def mirror_vertex(w):
        h0 = t0.prev(t0.vertex_slots[w][0])
        return tdot.origin[mirr + h0]

    n, ne = f.graph.num_vertices, f.graph.num_edges()
    vmap = [base_vertex(f.vertex_map[v]) for v in range(n)]
    edges = list(f.graph.edges)
    emap = [Walk.from_half_edges(tdot, w.half_edges, start=vmap[u])
            for (u, _), w in zip(f.graph.edges, f.edge_map)]
    # tip edges: anchored vertex v_i hangs on the spoke e_{i+3} of its corner
    stem_edges = {}
    tips = {}
    for x in sorted(anchor.orders):
        for i, v in enumerate(anchor.orders[x]):
            e = spokes[x][i + 3]
            tip = len(vmap)
            vmap.append(tdot.origin[tdot.next[e]])
            tips[v] = (tip, e)
            stem_edges[len(edges)] = e
            edges.append((v, tip))
            emap.append(Walk.from_half_edges(tdot, (e,), start=vmap[v]))
    # mirror copy of G; tip vertices are shared
    mirror_of = {}
    for v in range(n):
        mirror_of[v] = len(vmap)
        vmap.append(mirror_vertex(f.vertex_map[v]))
    for (u, v), w in zip(f.graph.edges, f.edge_map):
        mu = mirror_of[u]
        hes = tuple(mirr + t0.twin[h] for h in w.half_edges)
        edges.append((mu, mirror_of[v]))
        emap.append(Walk.from_half_edges(tdot, hes, start=vmap[mu]))
    for x in sorted(anchor.orders):
        for v in anchor.orders[x]:
            tip, e = tips[v]
            mh = mirr + t0.twin[e]
            stem_edges[len(edges)] = mh
            edges.append((mirror_of[v], tip))
            emap.append(Walk.from_half_edges(tdot, (mh,),
                                             start=vmap[mirror_of[v]]))
    fdot = Drawing(Graph(len(vmap), edges), tdot, vmap, emap)
    guard = set()
    for x, run in spokes.items():
        for e in run[:3] + run[-3:]:
            guard.add(e)
            guard.add(tdot.twin[e])
            guard.add(mirr + t0.twin[e])
            guard.add(tdot.twin[mirr + t0.twin[e]])
    # T and its mirror: the reverse of an old boundary edge is a crown-id
    # half-edge on both sides
    nt = len(t.next)
    flat = set(range(nt)) | {mirr + h for h in range(nt)}
    for h in t.boundary_half_edges():
        flat.add(t0.twin[h])
        flat.add(mirr + t0.twin[h])
    return fdot, GuardData(tdot, frozenset(guard), stem_edges,
                           frozenset(flat), spokes, n, ne)


def harmonize_rel_anchor(f, anchor, budget=None):
    """Harmonize keeping anchored vertices pinned to the boundary.

    Runs the plain routine on the closed extension under a guard audit, then
    restricts back to G.  A stem rewrite or a guard-edge use is a hard
    failure: it would contradict the construction, never a legal outcome."""
    fdot, guard = extend_for_harmonization(f, anchor)

    def audit(state, move):
        for e, (base, _) in enumerate(state.fbar.edge_origin):
            h = state.image[e]
            if base in guard.stem_edges and h != guard.stem_edges[base]:
                raise GuardViolation("stem edge %d was rewritten" % base)
            if h is not None and h in guard.guard_hes:
                raise GuardViolation("edge %d moved onto a guard edge" % base)

    f2, trace = harmonize(fdot, budget=budget, audit=audit)
    n, ne = guard.base_vertices, guard.base_edges
    restricted = Drawing(f.graph, guard.host, f2.vertex_map[:n],
                         f2.edge_map[:ne])
    for x, vs in anchor.orders.items():
        for v in vs:
            if restricted.vertex_map[v] != fdot.vertex_map[v]:
                raise GuardViolation("anchored vertex %d moved" % v)
    for e in range(ne):
        if len(restricted.edge_map[e]) > len(f.edge_map[e]):
            raise GuardViolation("edge %d grew" % e)
        for h in restricted.edge_map[e].half_edges:
            if h not in guard.flat_hes:
                raise GuardViolation("edge %d left the doubled sub-host" % e)
    return restricted, trace
