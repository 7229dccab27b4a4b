"""Universal-cover charts and line windows of closed reducing triangulations.

A chart is a growing plane triangulation, held in next, twin, origin and
color columns that `surface.new_face` and `surface.glue` write, and its
projection onto the base: `proj` for half-edges, `proj_v` for vertices.
Slot i of chart vertex v lies over slot i of base vertex proj_v[v], and
`rot[v][i]` is that chart half-edge, or None until it exists.  Growth
attaches one triangle per frontier slot and never merges chart vertices,
not even where a new triangle closes around a corner that already exists;
filling a slot twice raises CoverError instead.  Charts serve lifts
(`lift_walk`, `expand`).

The escape probe needs no chart.  A line step reads one slot of the base's
own slot table, and a window's vertices are distinct in the cover, so
`line_window` and `escape_probe` walk the base and name a window vertex
x_i by its index i.
"""

from dataclasses import dataclass

from .surface import NO_TWIN, RED, glue, new_face, validate_reducing

LEFT = "left"
RIGHT = "right"


class CoverError(Exception):
    pass


def _check_base(base, basepoint):
    rep = validate_reducing(base)
    if not rep.ok or not base.is_closed():
        raise CoverError("base must be a closed reducing triangulation")
    if not 0 <= basepoint < base.num_vertices:
        raise CoverError("basepoint %d out of range" % basepoint)


class CoverChart:
    def __init__(self, base, basepoint=0):
        """A chart whose vertex 0 lies over the base vertex basepoint."""
        _check_base(base, basepoint)
        self.base = base
        self.cols = self.next, self.twin, self.origin, self.color = (
            [], [], [], [])
        self.proj = []      # chart half-edge -> base half-edge
        self.proj_v = []    # chart vertex -> base vertex
        self.rot = []       # chart vertex -> its slots by base position
        self._new_triangle(base.vertex_slots[basepoint][0], (None,) * 3)

    def _new_triangle(self, base_he, corners):
        """Chart copy of the face of base_he whose corner j is the chart
        vertex corners[j], or a new vertex where that is None."""
        b = self.base
        bhs = (base_he, b.next[base_he], b.next[b.next[base_he]])
        ids = []
        for g, v in zip(bhs, corners):
            if v is None:
                v = len(self.rot)
                self.proj_v.append(b.origin[g])
                self.rot.append([None] * len(b.vertex_slots[b.origin[g]]))
            elif self.rot[v][b.slot_index[g]] is not None:
                raise CoverError("chart vertex %d has two slots over base "
                                 "half-edge %d" % (v, g))
            ids.append(v)
        hs = new_face(self.cols, *ids, b.color_left(base_he))
        for h, g, v in zip(hs, bhs, ids):
            self.rot[v][b.slot_index[g]] = h
        self.proj.extend(bhs)
        return hs

    def star_complete(self, v):
        return all(h is not None and self.twin[h] != NO_TWIN
                   for h in self.rot[v])

    def complete_star(self, v):
        """Attach triangles clockwise around v until its star closes."""
        rot = self.rot[v]
        d = len(rot)
        # cw-last slots: the outgoing slots with no face on their right
        ends = [i for i, h in enumerate(rot)
                if h is not None and self.twin[h] == NO_TWIN]
        if not ends:
            return
        if len(ends) != 1:
            raise CoverError("pinched chart vertex %d" % v)
        # the k slots of v run clockwise up to rot[i]; d - 1 - k open
        # triangles fill the gap after it and one more closes it onto the
        # incoming spoke before the first slot
        i, k = ends[0], d - rot.count(None)
        ib = self.next[self.next[rot[(i - k + 1) % d]]]
        last = rot[i]
        for _ in range(d - 1 - k):
            last = self._attach(v, last, None)
        glue(self.cols, self._attach(v, last, self.origin[ib]), ib)

    def _attach(self, v, last, third):
        """Attach the face right of v's cw-last slot; returns its v slot."""
        bh = self.base.twin[self.proj[last]]
        c0, c1, _ = self._new_triangle(bh, (self.head(last), v, third))
        glue(self.cols, c0, last)
        return c1

    def head(self, h):
        return self.origin[self.next[h]]

    def _check_vertex(self, v):
        if not 0 <= v < len(self.proj_v):
            raise CoverError("chart vertex %d out of range" % v)

    # -- public operations -------------------------------------------------

    def slots_cw(self, v):
        """The slots of chart vertex v by base position, star completed."""
        self._check_vertex(v)
        self.complete_star(v)
        return self.rot[v]

    def slot_over(self, v, base_he):
        """The outgoing slot of chart vertex v projecting to base_he."""
        self._check_vertex(v)
        if not 0 <= base_he < len(self.base.next):
            raise CoverError("base half-edge %d out of range" % base_he)
        if self.base.origin[base_he] != self.proj_v[v]:
            raise CoverError("no slot over base half-edge %d" % base_he)
        return self.slots_cw(v)[self.base.slot_index[base_he]]

    def expand(self, radius):
        while True:
            dist = self._distances()
            todo = [v for v, dv in enumerate(dist)
                    if dv is not None and dv <= radius
                    and not self.star_complete(v)]
            if not todo:
                return self
            for v in todo:
                self.complete_star(v)

    def _distances(self):
        dist = [None] * len(self.proj_v)
        dist[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for h in self.rot[v]:
                    if h is None:
                        continue
                    w = self.head(h)
                    if dist[w] is None:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def lift_walk(self, w, start):
        """Lift the base Walk w from chart vertex start, expanding on
        demand; returns chart half-edges."""
        self._check_vertex(start)
        if self.proj_v[start] != w.start:
            raise CoverError("lift point does not project to the walk start")
        cur = start
        out = []
        for bh in w.half_edges:
            c = self.slot_over(cur, bh)
            out.append(c)
            cur = self.head(c)
        return tuple(out)


def line_window(base, v, side, L):
    """The window e_{-L} .. e_{L-1} of the left/right line through base
    vertex v, as base half-edges; e_i runs from x_i to x_{i+1}.

    base must be a closed reducing triangulation.  The line starts with the
    lowest half-edge out of v whose left face is red.  Left lines make only
    3-turns, right lines only (d-3)-turns, counted clockwise: a step reads
    one slot of the next vertex.  In the universal cover the window's
    vertices x_{-L} .. x_L are distinct.
    """
    if side not in (LEFT, RIGHT):
        raise CoverError("side must be left or right")
    if L < 0:
        raise CoverError("window L must be >= 0, not %d" % L)
    if not 0 <= v < base.num_vertices:
        raise CoverError("base vertex %d out of range" % v)
    slots, pos, twin, origin = (base.vertex_slots, base.slot_index,
                                base.twin, base.origin)
    k = 3 if side == LEFT else -3
    seed = min(h for h in slots[v] if base.color_left(h) == RED)
    fwd, back = [seed], []
    for _ in range(L - 1):
        e = twin[fwd[-1]]
        s = slots[origin[e]]
        fwd.append(s[(pos[e] + k) % len(s)])
    # backward: the step undone, k slots counterclockwise from e to twin(e')
    e = seed
    for _ in range(L):
        s = slots[origin[e]]
        e = twin[s[(pos[e] - k) % len(s)]]
        back.append(e)
    return tuple(back[::-1] + fwd) if L else ()


@dataclass(frozen=True)
class Escapes:
    witness: tuple        # sequence of (G-edge id, tail G-vertex)
    exit: tuple           # (i, h): leaves window vertex x_i by base he h


@dataclass(frozen=True)
class NoWitnessWithinBounds:
    depth: int
    L: int


def escape_probe(f, v, side=LEFT, depth=None, L=None):
    """Bounded search for a walk from G-vertex v whose lift stays on the
    non-negative part of the line window through f(v) and leaves on the
    escape side.  A negative answer is not a disproof.
    """
    if not 0 <= v < f.graph.num_vertices:
        raise CoverError("graph vertex %d out of range" % v)
    base = f.host
    if depth is None:
        depth = 2 * f.graph.num_edges()
    if L is None:
        L = 3 * (base.num_edges() + 1)
    if L < 1:
        raise CoverError("window L must be >= 1, not %d" % L)
    if depth < 0:
        raise CoverError("depth must be >= 0, not %d" % depth)
    _check_base(base, f.vertex_map[v])
    win = line_window(base, f.vertex_map[v], side, L)
    start = (v, 0)
    seen = {start}
    frontier = [(start, ())]
    for _ in range(depth):
        nxt = []
        for (u, i), path in frontier:
            for e, other in f.graph.incident(u):
                hes = _oriented_image(f, e, u)
                res = _trace_on_window(base, win, i, hes, side)
                if res is None:
                    continue
                kind, val = res
                if kind == "escape":
                    return Escapes(path + ((e, u),), val)
                state = (other, val)
                if state not in seen:
                    seen.add(state)
                    nxt.append((state, path + ((e, u),)))
        if not nxt:
            break
        frontier = nxt
    return NoWitnessWithinBounds(depth, L)


def _oriented_image(f, e, tail):
    w = f.edge_map[e]
    u0, _ = f.graph.edges[e]
    if tail == u0:
        return w.half_edges
    return tuple(f.host.twin[h] for h in reversed(w.half_edges))


def _trace_on_window(base, win, i, hes, side):
    """Follow a base walk from window vertex x_i, 0 <= i <= L, along the
    window.  Returns ("at", j) where it ends, ("escape", (j, h)) when it
    leaves x_j by h on the escape side, or None when it leaves through the
    non-escape side, the end of the window or its negative part.

    The walk is at x_j only by coming there along the window, and the
    window's vertices are distinct in the cover, so its steps are told
    apart from the window's by their base half-edges.
    """
    twin, pos, L = base.twin, base.slot_index, len(win) // 2
    for h in hes:
        back = twin[win[L + i - 1]]     # twin(e_{i-1}), out of x_i
        if i < L and h == win[L + i]:
            i += 1
        elif h == back:
            i -= 1
            if i < 0:
                return None  # leaves the non-negative part
        elif i == L:
            return None
        else:
            # the sector strictly cw from twin(incoming) to outgoing is
            # left of the line; a left line escapes to the right
            d = len(base.vertex_slots[base.origin[h]])
            ia = pos[back]
            on_left = 0 < (pos[h] - ia) % d < (pos[win[L + i]] - ia) % d
            return ("escape", (i, h)) if on_left != (side == LEFT) else None
    return ("at", i)
