"""Anchors on the boundary and harmonization relative to them.

An anchor pins ordered lists of graph vertices to boundary vertices of the
host.  Harmonizing relative to an anchor closes the host: attach a crown to
every boundary cycle, compose the doubled host from the result, its mirror
and a 3-gadget per seam, and run the plain routine on the doubled drawing
with tip edges holding the anchored vertices in place.  The first and last
three crown spokes at every boundary vertex act as guards that no move may
ever use.

The crowned host extends the input host's tables: each crown is a ring of
the disk patches' grower, and only boundary and crown vertices have their
rotations walked.  The host is validated by its parts, the input host
before it is crowned and the crowned host before it is doubled.  The
doubled host is then closed and reducing by construction, its mirror and
gadget copies being offset copies of the checked crowned host and of the
3-gadget, so the plain routine does not scan it again.  Only the crowned
host and its mirror are real tables in it (`surface.DoubledHost`); a
gadget copy's entries are computed when a move first reads them.
"""

from dataclasses import dataclass

from .drawing import Drawing, Graph, check_anchored
from .harmonizer import HarmonizerError, harmonize
from .surface import (
    NO_TWIN,
    _double_with_gadgets_unchecked,
    _extended,
    _grow_ring,
    validate_reducing,  # perfbench/tracer.py patches this name
)
from .walkcalc import Walk


class BoundaryError(Exception):
    pass


class GuardViolation(BoundaryError):
    """A move touched a stem or guard edge, or G's image left the host."""


class AnchorError(BoundaryError):
    """An anchor that does not fit the drawing: malformed input."""


class Anchor:
    """Ordered lists of G-vertices per boundary T-vertex."""

    def __init__(self, orders):
        self.orders = {x: tuple(vs) for x, vs in orders.items() if vs}
        seen = set()
        for vs in self.orders.values():
            for v in vs:
                if v in seen:
                    raise AnchorError("vertex %d anchored twice" % v)
                seen.add(v)

    def validate(self, f):
        t = f.host
        check_anchored(self.orders, len(f.vertex_map), AnchorError)
        for x, vs in self.orders.items():
            if not (0 <= x < t.num_vertices) or not t.is_boundary_vertex(x):
                raise AnchorError("anchor at non-boundary vertex %d" % x)
            for v in vs:
                if f.vertex_map[v] != x:
                    raise AnchorError(
                        "anchored vertex %d is not drawn at %d" % (v, x))


def _boundary_corner(t, x):
    """(h_out, h_in): the twin-free half-edges leaving and entering x."""
    slots = t.vertex_slots[x]
    h_out = slots[-1]
    h_in = t.prev(slots[0])
    if t.twin[h_out] != NO_TWIN or t.twin[h_in] != NO_TWIN:
        raise BoundaryError("vertex %d is not on the boundary" % x)
    return h_out, h_in


# -- crowns and doubling ---------------------------------------------------

def attach_crowns(t, need):
    """Close every boundary cycle of t with a fitted crown.

    Returns (t0, spokes) where spokes maps each old boundary vertex to its
    crown-interior half-edges, clockwise from the old outgoing boundary edge.
    t0 keeps t's vertex and half-edge ids; it is t's tables extended by the
    crowns (`surface._extended`), rings grown on copies of t's columns.
    """
    cols = (list(t.next), list(t.twin), list(t.origin),
            list(map(t.face_color.__getitem__, t.face_of)))
    nverts, cycles = t.num_vertices, t.boundary_cycles()

    def target(w, k):
        # n anchored vertices at w leave it at least n + 6 crown spokes
        d = max(6, k, k + need.get(w, 0) + 4)
        return d + d % 2

    for cyc in cycles:
        nverts = _grow_ring(cols, cyc, nverts, target)[1]
    t0 = _extended(t, cols, nverts)
    spokes = {}
    for x in sorted({t.origin[h] for cyc in cycles for h in cyc}):
        h_out, h_in = _boundary_corner(t, x)
        slots = t0.vertex_slots[x]
        i = t0.slot_index[h_out] + 1
        run = slots[i:] + slots[:i]
        spokes[x] = run[:run.index(t0.twin[h_in])]
    return t0, spokes


@dataclass(frozen=True)
class GuardData:
    guard_hes: frozenset  # half-edges no move may use
    stem_edges: dict     # G•-edge id -> its fixed image half-edge


def _require_reducing(t):
    if not validate_reducing(t).ok:
        raise HarmonizerError("host must be a closed reducing triangulation")


def extend_for_harmonization(f, anchor):
    """Close the host and the drawing: crowns, mirror, gadgets, tip edges.

    Returns (f_closed, guard) where f_closed is a drawing on a closed
    reducing host and guard records the stems and guard edges.  G's ids
    come first, then the tips', then those of G's mirror copy.  Raises
    HarmonizerError if f's host or its crowned host is not reducing."""
    t = f.host
    if t.is_closed():
        raise BoundaryError("host is already closed")
    anchor.validate(f)
    _require_reducing(t)
    t0, spokes = attach_crowns(
        t, {x: len(vs) for x, vs in anchor.orders.items()})
    # the doubled host is closed, and reducing because t0 is
    _require_reducing(t0)
    tdot, mirr = _double_with_gadgets_unchecked(t0)

    def mirror(h):
        """The mirror copy of h, running the same way as h."""
        return mirr + t0.twin[h]

    # t0 and tdot keep t's ids, so the base copy of G is drawn as in f
    n = f.graph.num_vertices
    vmap = list(f.vertex_map)
    triples = [(u, v, w.half_edges)
               for (u, v), w in zip(f.graph.edges, f.edge_map)]
    # tip edges: anchored vertex v_i hangs on the spoke e_{i+3} of its corner
    for x in sorted(anchor.orders):
        for i, v in enumerate(anchor.orders[x]):
            e = spokes[x][i + 3]
            triples.append((v, len(vmap), (e,)))
            vmap.append(tdot.origin[tdot.next[e]])
    # mirror copy of G at offset m; tip vertices are shared
    m = len(vmap)
    vmap += [tdot.origin[mirror(t0.vertex_slots[x][0])] for x in f.vertex_map]
    triples += [(u + m, v + m if v < n else v, tuple(map(mirror, hes)))
                for u, v, hes in triples]
    fdot = Drawing(Graph(len(vmap), [(u, v) for u, v, _ in triples]), tdot,
                   vmap, [Walk.from_half_edges(tdot, hes, start=vmap[u])
                          for u, _, hes in triples])
    stem_edges = {e: hes[0] for e, (_, v, hes) in enumerate(triples)
                  if n <= v < m}
    guard = frozenset(g for run in spokes.values()
                      for e in run[:3] + run[-3:]
                      for h in (e, t0.twin[e]) for g in (h, mirr + h))
    return fdot, GuardData(guard, stem_edges)


def harmonize_rel_anchor(f, anchor, budget=None):
    """Harmonize keeping anchored vertices pinned to the boundary.

    Runs the plain routine on the closed extension under a guard audit, then
    restricts back to G on f's host.  A stem rewrite or a guard-edge use
    contradicts the construction, and an image off f's host (an edge run
    backwards along a boundary edge) cannot be written on it: each raises
    GuardViolation."""
    fdot, guard = extend_for_harmonization(f, anchor)

    def audit(state, move):
        # the extension starts clean, and a move changes only the edges at
        # the vertices it marks dirty
        incident, origin = state.gbar.incident, state.fbar.edge_origin
        for e in sorted({e for v in state.dirty for e, _ in incident(v)}):
            base, h = origin[e][0], state.image[e]
            if base in guard.stem_edges and h != guard.stem_edges[base]:
                raise GuardViolation("stem edge %d was rewritten" % base)
            if h is not None and h in guard.guard_hes:
                raise GuardViolation("edge %d moved onto a guard edge" % base)

    f2, trace = harmonize(fdot, budget=budget, audit=audit, host_checked=True)
    g = f.graph
    vmap, emap = f2.vertex_map[:g.num_vertices], f2.edge_map[:g.num_edges()]
    for vs in anchor.orders.values():
        for v in vs:
            if vmap[v] != f.vertex_map[v]:
                raise GuardViolation("anchored vertex %d moved" % v)
    for e, w in enumerate(emap):
        if len(w) > len(f.edge_map[e]):
            raise GuardViolation("edge %d grew" % e)
        for h in w.half_edges:
            if h >= len(f.host.next):
                raise GuardViolation(
                    "edge %d left the host at half-edge %d" % (e, h))
    for v, x in enumerate(vmap):
        if x >= f.host.num_vertices:
            raise GuardViolation("vertex %d left the host" % v)
    return Drawing(g, f.host, vmap, emap), trace
