"""Anchors on the boundary and harmonization relative to them.

An anchor pins ordered lists of graph vertices to boundary vertices of the
host.  Harmonizing relative to an anchor closes the host: attach a crown to
every boundary cycle, compose the doubled host from the result, its mirror
and a 3-gadget per seam, and run the plain routine on the doubled drawing
with tip edges holding the anchored vertices in place.  The first and last
three crown spokes at every boundary vertex act as guards that no move may
ever use.

The crowns are described, not built: the crowned host
(`CrownedHost`) holds the input host's tables and the offsets of
each boundary vertex's tent and fan, and computes a crown entry when it is
first read; the spokes and the guards come from the same offsets.  The
host is validated by its parts: the input host in full before it is
crowned, then its crowns where they can break a reducing condition, at
the old boundary vertices (`CrownedHost.validate_crowns`).  The doubled
host is then closed and reducing by construction, its mirror and gadget
copies being offset copies of the checked crowned host and of the
3-gadget, so the plain routine scans neither.  Only the input host and its
mirror are real tables in it (`surface.DoubledHost`); a crown's, a mirror
crown's or a gadget copy's entries are computed when a move first reads
them.
"""

from dataclasses import dataclass
from itertools import repeat

from .drawing import Drawing, check_anchored, factor_triples
from .harmonizer import HarmonizerError, State, state_to_drawing
from .harmonizer import run as harmonize  # perfbench/tracer.py patches this name
from .surface import (
    DEGREE_TOO_LOW,
    DUAL_NOT_BIPARTITE,
    NO_TWIN,
    ValidationReport,
    Violation,
    _Composed,
    _ComposedHost,
    _double_with_gadgets_unchecked,
    opposite_color,
    validate_reducing,  # perfbench/tracer.py patches this name
)


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


# -- crowns and doubling ---------------------------------------------------

class CrownedHost(_ComposedHost):
    """t with every boundary cycle closed by a crown, as `surface._grow_ring`
    grows one on t's columns with fan degrees target(w, k), but described
    rather than built.

    Boundary position p is the p-th half-edge of t.boundary_cycles(), read
    cycle by cycle; `_bound`, `_tent`, `_fan` and `_size` give its
    half-edge, the first half-edge of its tent and of its fan, and the
    fan's length.  A ring's tents come first, then its fans, and its
    apexes, then its fans' inner vertices, take the next vertex ids.  The
    columns read t's tables, t's boundary half-edges twinned to their
    tents, and hold an entry only once it is read.  A crown entry is
    computed by the grower's layout rule, and so is the rotation of an old
    boundary vertex: t's, with its tents and fan spliced in after its
    outgoing boundary edge.  Every entry equals that of `materialize()`."""

    def __init__(self, t, target):
        n, nf, nv = len(t.next), len(t.faces), t.num_vertices
        nxt, org, slots = t.next, t.origin, t.vertex_slots
        bound, tent, fan, size = [], [], [], []
        apex, inner, before, after = [], [], [], []
        tri_pos, vert_pos = [], []  # per crown triangle and vertex
        h_end, v_end = n, nv
        for cyc in t.boundary_cycles():
            p0, ring = len(bound), len(cyc)
            bound += cyc
            tent += range(h_end, h_end + 3 * ring, 3)
            apex += range(v_end, v_end + ring)
            before += [p0 + (i - 1) % ring for i in range(ring)]
            after += [p0 + (i + 1) % ring for i in range(ring)]
            tri_pos += range(p0, p0 + ring)
            vert_pos += range(p0, p0 + ring)
            h_end, v_end = h_end + 3 * ring, v_end + ring
            # the grower's degree k: an old boundary vertex is the tail of
            # one boundary half-edge and the head of one, so it has its slots,
            # a side of each of its two tents, and the edge to the apex before
            for p, h in enumerate(cyc, p0):
                k = len(slots[org[h]]) + 3
                j = target(org[h], k) - k + 1
                tri_pos += repeat(p, j)
                vert_pos += repeat(p, j - 1)
                fan.append(h_end)
                size.append(j)
                inner.append(v_end)
                h_end, v_end = h_end + 3 * j, v_end + j - 1
        self.base = t
        self._bound, self._tent, self._fan, self._size = bound, tent, fan, size
        self._before = before
        self._at = at = {org[h]: p for p, h in enumerate(bound)}

        def where(h):
            """(position, s, side) of crown half-edge h: the s-th triangle
            of a fan, or a tent for s < 0, a ring's tents preceding its
            fans."""
            c, side = divmod(h - n, 3)
            p = tri_pos[c]
            return p, (h - fan[p]) // 3, side

        def twin(h):
            if h < n:  # t's boundary half-edges are twinned to their tents
                g = tw0[h]
                return g if g != NO_TWIN else tent_of[h]
            c, side = divmod(h - n, 3)  # where(h), inline: twin is read most
            p = tri_pos[c]
            s = (h - fan[p]) // 3
            if s < 0:  # the tent on bound[p]
                if side == 0:
                    return bound[p]
                q = after[p]
                return fan[p] if side == 1 else fan[q] + 3 * size[q] - 2
            # triangle s of a fan: glued to the one before and after it,
            # its first to the tent's and its last to the tent before's
            f = fan[p] + 3 * s
            if side == 0:
                return f - 2 if s else tent[p] + 1
            if side == 1:
                return f + 3 if s + 1 < size[p] else tent[before[p]] + 2
            return NO_TWIN

        def vertex(p, s):
            """Vertex s of fan p, from apex[p] to apex[before[p]]."""
            if s == 0:
                return apex[p]
            return inner[p] + s - 1 if s < size[p] else apex[before[p]]

        def origin(h):
            if h < n:
                return org[h]
            p, s, side = where(h)
            if side == 1:
                return org[bound[p]]
            if s < 0:
                return org[nxt[bound[p]]] if side == 0 else apex[p]
            return vertex(p, s + side // 2)

        def face_color(f):
            if f < nf:
                return t.face_color[f]
            p, s, _ = where(n + 3 * (f - nf))
            color = t.color_left(bound[p])
            return color if s >= 0 and s % 2 == 0 else opposite_color(color)

        def rotation(v):
            if v < nv:
                if not on_boundary[v]:
                    return slots[v]
                # an old boundary vertex: its fan after its edge out
                p, run = at[v], slots[v]
                i = run.index(min(run))
                run += (tent[p] + 1, *range(fan[p] + 1, fan[p] + 3 * size[p],
                                            3), tent[before[p]])
                return run[i:] + run[:i]
            p = vert_pos[v - nv]  # an apex, or inner vertex s of p's fan
            if v != apex[p]:
                s = v - inner[p] + 1
                return fan[p] + 3 * s, fan[p] + 3 * s - 1
            q = after[p]
            return fan[p], tent[p] + 2, fan[q] + 3 * size[q] - 1

        tw0, tent_of = t.twin, dict(zip(bound, tent))
        on_boundary = t._vertex_on_boundary
        nfaces = nf + (h_end - n) // 3
        # each column's entry reads t's below t's sizes, else the crown's
        self.next = _Composed((), h_end, lambda h: nxt[h] if h < n else (
            h + 1 if (h - n) % 3 < 2 else h - 2))
        self.twin = _Composed((), h_end, twin)
        self.origin = _Composed((), h_end, origin)
        self.face_of = _Composed((), h_end, lambda h: t.face_of[h] if h < n
                                 else nf + (h - n) // 3)
        self.faces = _Composed((), nfaces, lambda f: t.faces[f] if f < nf
                               else tuple(range(n + 3 * (f - nf),
                                                n + 3 * (f - nf) + 3)))
        self.face_color = _Composed((), nfaces, face_color)
        self.num_vertices = v_end
        self.vertex_slots = _Composed((), v_end, rotation)
        self.slot_index = _Composed((), h_end,
                                    lambda h: rotation(origin(h)).index(h))
        self._boundary_half_edges = tuple([
            g for f, j in zip(fan, size) for g in range(f + 2, f + 3 * j, 3)])
        self._vertex_on_boundary = (False,) * nv + (True,) * (v_end - nv)

    def spokes(self):
        """Per old boundary vertex, its spokes, from the offsets: its crown
        half-edges clockwise from its outgoing boundary edge, the tent's
        side and then its fan's."""
        org = self.base.origin
        return {org[h]: (t + 1, *range(f + 1, f + 3 * j, 3)) for h, t, f, j
                in zip(self._bound, self._tent, self._fan, self._size)}

    def guard_half_edges(self, k):
        """The first and last k spokes at every old boundary vertex, and
        their twins, from the offsets: each spoke is twinned to the fan
        side after it, and the last to the side of the tent before."""
        tent, guard = self._tent, []
        for t, f, j, b in zip(tent, self._fan, self._size, self._before):
            run = (t + 1, *range(f + 1, f + 3 * j, 3))
            twins = (*range(f, f + 3 * j, 3), tent[b] + 2)
            guard += run[:k] + run[-k:] + twins[:k] + twins[-k:]
        return guard

    def slot_twins(self, v):
        """The twins of v's slots, in their order; at an old boundary
        vertex, t's and, from the offsets, as in `guard_half_edges`."""
        t, p = self.base, self._at.get(v)
        if p is None:  # an inner vertex of t, or a crown vertex
            return (t.slot_twins(v) if v < t.num_vertices else
                    [self.twin.entry(h) for h in self.vertex_slots.entry(v)])
        f, j, b = self._fan[p], self._size[p], self._before[p]
        slots = t.vertex_slots[v]
        i = slots.index(min(slots))
        # t's boundary edge out of v is twinned to its tent, and the side
        # of the tent before, v's last crowned slot, to t's edge into v
        twins = [t.twin[h] for h in slots[:-1]] + [
            self._tent[p], *range(f, f + 3 * j, 3), self._tent[b] + 2,
            self._bound[b]]
        return twins[i:] + twins[:i]

    def validate_crowns(self):
        """The reducing conditions that a crown, glued to a reducing host,
        can break, checked where it can break them, from the layout: an old
        boundary vertex of degree below 6, and one color on both sides of
        the seam where a fan closes against the tent before it.  A tent
        takes the other color than its boundary half-edge's face, and fan
        triangle s that color for even s, so the crowns' own faces
        alternate, and their rotations close by construction; with the
        input host reducing this gives the verdict of `validate_reducing`
        on the crowned host, without reading a crown entry."""
        t, tent = self.base, self._tent
        violations = []
        for h, f, j, b in zip(self._bound, self._fan, self._size,
                              self._before):
            w = t.origin[h]
            if len(t.vertex_slots[w]) + 2 + j < 6:
                violations.append(Violation(DEGREE_TOO_LOW, w))
            # the fan's last triangle, j - 1, takes h's color where j is
            # odd, and the tent before the other color than its half-edge's
            if (t.color_left(h) == t.color_left(self._bound[b])) != j % 2:
                violations.append(Violation(DUAL_NOT_BIPARTITE, tuple(
                    sorted((f + 3 * j - 2, tent[b] + 2)))))
        return ValidationReport(not violations, tuple(violations))



def attach_crowns(t, need):
    """Close every boundary cycle of t with a fitted crown.

    Returns (t0, spokes) where spokes maps each old boundary vertex to its
    crown-interior half-edges, clockwise from the old outgoing boundary edge.
    t0 keeps t's vertex and half-edge ids.  It is a `CrownedHost`:
    t's tables and a description of the crowns, whose entries are computed
    when first read."""

    def target(w, k):
        # n anchored vertices at w leave it at least n + 6 crown spokes
        d = max(6, k, k + need.get(w, 0) + 4)
        return d + d % 2

    t0 = CrownedHost(t, target)
    return t0, t0.spokes()


@dataclass(frozen=True)
class GuardData:
    guard_hes: frozenset  # half-edges no move may use
    stem_edges: dict     # G•-edge id -> its fixed image half-edge


def _require(report):
    if not report.ok:
        raise HarmonizerError("host must be a closed reducing triangulation")


def extend_for_harmonization(f, anchor):
    """Close the host and the drawing: crowns, mirror, gadgets, tip edges.

    Returns (fbar, guard) where fbar is the closed drawing on a closed
    reducing host, factored with no walk built and G as its base graph,
    and guard records the stems and guard edges.  G's ids come first, then
    the tips', then those of G's mirror copy.  Raises
    HarmonizerError if f's host is not reducing, or its crowns break a
    reducing condition where they meet it."""
    t = f.host
    if t.is_closed():
        raise BoundaryError("host is already closed")
    anchor.validate(f)
    _require(validate_reducing(t))
    t0, spokes = attach_crowns(
        t, {x: len(vs) for x, vs in anchor.orders.items()})
    # t0 is reducing if its crowns are where they meet t, and the doubled
    # host is closed, and reducing because t0 is
    _require(t0.validate_crowns())
    tdot, mirr = _double_with_gadgets_unchecked(t0)

    def mirror(h):
        """The mirror copy of h, running the same way as h."""
        return mirr + tdot.twin[h]

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
    vmap += [tdot.origin[mirror(t.vertex_slots[x][0])] for x in f.vertex_map]
    triples += [(u + m, v + m if v < n else v, tuple(map(mirror, hes)))
                for u, v, hes in triples]
    fbar = factor_triples(tdot, vmap, f.graph, triples)
    stem_edges = {e: hes[0] for e, (_, v, hes) in enumerate(triples)
                  if n <= v < m}
    guard = t0.guard_half_edges(3)
    guard = frozenset(guard + [mirr + h for h in guard])
    return fbar, GuardData(guard, stem_edges)


def harmonize_rel_anchor(f, anchor, budget=None):
    """Harmonize keeping anchored vertices pinned to the boundary.

    Runs the move loop (`harmonizer.run`) on the factored closed extension
    under a guard audit, then reads G's drawing back from the state and
    restricts it to f's host.  A stem rewrite or a guard-edge use
    contradicts the construction, and an image off f's host (an edge run
    backwards along a boundary edge) cannot be written on it: each raises
    GuardViolation."""
    fbar, guard = extend_for_harmonization(f, anchor)

    stems, guard_hes = guard.stem_edges, guard.guard_hes

    def audit(state, move):
        # the extension starts clean, and a move changes only the edges at
        # the vertices it marks dirty
        incident, origin = state.gbar.incident, state.fbar.edge_origin
        for e in sorted({e for v in state.dirty for e, _ in incident(v)}):
            base, h = origin[e][0], state.image[e]
            if stems.get(base, h) != h:
                raise GuardViolation("stem edge %d was rewritten" % base)
            if h in guard_hes:  # a collapsed image (None) is no guard edge
                raise GuardViolation("edge %d moved onto a guard edge" % base)

    state = State(fbar)
    trace = harmonize(state, budget, audit=audit)
    f2 = state_to_drawing(state)  # G's drawing, on the extension's host
    for vs in anchor.orders.values():
        for v in vs:
            if f2.vertex_map[v] != f.vertex_map[v]:
                raise GuardViolation("anchored vertex %d moved" % v)
    for e, w in enumerate(f2.edge_map):
        if len(w) > len(f.edge_map[e]):
            raise GuardViolation("edge %d grew" % e)
        for h in w.half_edges:
            if h >= len(f.host.next):
                raise GuardViolation(
                    "edge %d left the host at half-edge %d" % (e, h))
    for v, x in enumerate(f2.vertex_map):
        if x >= f.host.num_vertices:
            raise GuardViolation("vertex %d left the host" % v)
    return Drawing(f.graph, f.host, f2.vertex_map, f2.edge_map), trace
