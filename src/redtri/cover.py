"""Lazily expanded universal-cover charts of closed reducing triangulations.

A chart is a growing plane triangulation together with a projection onto the
base.  Growth attaches one triangle per frontier slot and never identifies
frontier vertices, which keeps the explored region simply connected.
"""

from dataclasses import dataclass

from .surface import NO_TWIN, RED, Triangulation, validate_reducing

LEFT = "left"
RIGHT = "right"


class CoverError(Exception):
    pass


class CoverChart:
    def __init__(self, base, basepoint=0):
        """A chart whose vertex 0 lies over the base vertex basepoint."""
        rep = validate_reducing(base)
        if not rep.ok or not base.is_closed():
            raise CoverError("base must be a closed reducing triangulation")
        if not 0 <= basepoint < base.num_vertices:
            raise CoverError("basepoint %d out of range" % basepoint)
        self.base = base
        self.next = []
        self.twin = []
        self.origin = []
        self.proj = []      # chart half-edge -> base half-edge
        self.proj_v = []    # chart vertex -> base vertex
        self.out = []       # chart vertex -> its half-edges, ascending
        h0 = base.vertex_slots[basepoint][0]
        self._new_triangle(h0, [basepoint, base.head(h0),
                                base.head(base.next[h0])])

    def _new_triangle(self, base_he, base_corners):
        """Chart copy of the face of base_he; corners may be existing chart
        vertices (int) or base vertices to allocate (wrapped in a list)."""
        ids = []
        for c in base_corners:
            if isinstance(c, tuple):
                ids.append(c[1])
            else:
                ids.append(len(self.proj_v))
                self.proj_v.append(c)
                self.out.append([])
        h = len(self.next)
        self.next.extend([h + 1, h + 2, h])
        self.twin.extend([NO_TWIN] * 3)
        bh = base_he
        for i in range(3):
            self.proj.append(bh)
            bh = self.base.next[bh]
        self.origin.extend(ids)
        for i, v in enumerate(ids):
            self.out[v].append(h + i)
        return h, h + 1, h + 2

    # -- chart-local accessors --------------------------------------------

    def head(self, h):
        return self.origin[self.next[h]]

    def prev(self, h):
        return self.next[self.next[h]]  # every chart face is a triangle

    def rot_cw(self, h):
        t = self.twin[h]
        return None if t == NO_TWIN else self.next[t]

    def out_slots(self, v):
        return list(self.out[v])

    def star_complete(self, v):
        hs = self.out_slots(v)
        return len(hs) == len(self.base.vertex_slots[self.proj_v[v]]) and all(
            self.twin[self.prev(h)] != NO_TWIN for h in hs)

    def complete_star(self, v):
        """Attach triangles clockwise around v until its star closes."""
        d = len(self.base.vertex_slots[self.proj_v[v]])
        while True:
            hs = self.out_slots(v)
            incomplete = [h for h in hs if self.twin[self.prev(h)] == NO_TWIN]
            if not incomplete:
                return
            if len(incomplete) != 1:
                raise CoverError("pinched chart vertex %d" % v)
            # cw-last slot: the outgoing slot with no face on its right
            last = next(h for h in hs if self.twin[h] == NO_TWIN)
            bh = self.base.twin[self.proj[last]]  # base side of the new face
            x = self.head(last)
            if len(hs) == d - 1:
                # closing triangle: glue along both extreme spokes
                first = incomplete[0]
                ib = self.prev(first)  # incoming boundary spoke
                y = self.origin[ib]
                assert self.base.next[bh] == self.base.twin[self.proj[ib]], \
                    "base faces disagree at closing triangle"
                c0, c1, c2 = self._new_triangle(
                    bh, [("v", x), ("v", v), ("v", y)])
                self._glue(c0, last)
                self._glue(c1, ib)
            else:
                third = self.base.head(self.base.next[bh])
                c0, c1, c2 = self._new_triangle(bh, [("v", x), ("v", v), third])
                self._glue(c0, last)

    def _glue(self, a, b):
        if self.twin[a] != NO_TWIN or self.twin[b] != NO_TWIN:
            raise CoverError("double glue")
        assert self.proj[a] == self.base.twin[self.proj[b]]
        self.twin[a] = b
        self.twin[b] = a

    # -- public operations -------------------------------------------------

    def slots_cw(self, v):
        """Clockwise outgoing slot cycle of a star-complete chart vertex."""
        self.complete_star(v)
        hs = self.out_slots(v)
        h0 = min(hs)
        chain = [h0]
        g = self.rot_cw(h0)
        while g != h0:
            chain.append(g)
            g = self.rot_cw(g)
        return chain

    def slot_over(self, v, base_he):
        """The outgoing slot of chart vertex v projecting to base_he."""
        for h in self.slots_cw(v):
            if self.proj[h] == base_he:
                return h
        raise CoverError("no slot over base half-edge %d" % base_he)

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
                for h in self.out_slots(v):
                    w = self.head(h)
                    if dist[w] is None:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def lift_walk(self, w, start):
        """Lift the base Walk w from chart vertex start, expanding on
        demand; returns chart half-edges."""
        if not 0 <= start < len(self.proj_v):
            raise CoverError("chart vertex %d out of range" % start)
        if self.proj_v[start] != w.start:
            raise CoverError("lift point does not project to the walk start")
        cur = start
        out = []
        for bh in w.half_edges:
            c = self.slot_over(cur, bh)
            out.append(c)
            cur = self.head(c)
        return tuple(out)

    def triangulation(self):
        """Immutable snapshot (for validation and turn arithmetic)."""
        colors = {h: self.color_left(h) for h in range(len(self.next))}
        return Triangulation(self.next, self.twin, self.origin, colors)

    def color_left(self, h):
        return self.base.face_color[self.base.face_of[self.proj[h]]]


@dataclass(frozen=True)
class LineWindow:
    side: str
    center: int          # chart vertex x_0
    edges: tuple         # chart half-edges e_{-L} .. e_{L-1}
    L: int

    def edge(self, i):
        """e_i runs from x_i to x_{i+1}; i in [-L, L-1]."""
        return self.edges[i + self.L]

    def vertex(self, chart, i):
        """x_i for i in [-L, L]."""
        if i == self.L:
            return chart.head(self.edge(i - 1))
        return chart.origin[self.edge(i)]


def line_window(chart, v, side, L, seed=None):
    """The window [-L, L] of the left/right line through chart vertex v.

    The line is determined by its first half-edge; by default the lowest-id
    outgoing slot of v whose left face is red.  Left lines make only 3-turns,
    right lines only (d-3)-turns, counted clockwise.
    """
    if side not in (LEFT, RIGHT):
        raise CoverError("side must be left or right")
    if seed is None:
        cands = [h for h in chart.slots_cw(v) if chart.color_left(h) == RED]
        seed = min(cands, key=lambda h: chart.proj[h])
    edges = [seed]
    # forward
    e = seed
    for _ in range(L - 1 if L else 0):
        e = _line_step(chart, e, side)
        edges.append(e)
    # backward
    e = seed
    back = []
    for _ in range(L):
        e = _line_step_back(chart, e, side)
        back.append(e)
    edges = list(reversed(back)) + edges
    if L == 0:
        edges = []
    return LineWindow(side, v, tuple(edges), L)


def _line_step(chart, e, side):
    v = chart.head(e)
    slots = chart.slots_cw(v)
    d = len(slots)
    i = slots.index(chart.twin[e])
    k = 3 if side == LEFT else d - 3
    return slots[(i + k) % d]


def _line_step_back(chart, e, side):
    v = chart.origin[e]
    slots = chart.slots_cw(v)
    d = len(slots)
    i = slots.index(e)
    k = 3 if side == LEFT else d - 3
    return chart.twin[slots[(i - k) % d]]


@dataclass(frozen=True)
class Escapes:
    witness: tuple        # sequence of (G-edge id, tail G-vertex)
    chart_exit: int       # chart half-edge leaving the window


@dataclass(frozen=True)
class NoWitnessWithinBounds:
    depth: int
    L: int


def escape_probe(f, v, side=LEFT, depth=None, L=None):
    """Bounded search for a walk from G-vertex v whose lift stays on the
    non-negative part of the line window through f(v) and leaves on the
    escape side.  A negative answer is not a disproof.
    """
    base = f.host
    if depth is None:
        depth = 2 * f.graph.num_edges()
    if L is None:
        L = 3 * (base.num_edges() + 1)
    chart = CoverChart(base, basepoint=f.vertex_map[v])
    win = line_window(chart, 0, side, L)
    start = (v, 0)
    seen = {start}
    frontier = [(start, ())]
    for _ in range(depth):
        nxt = []
        for (u, i), path in frontier:
            for e, other in f.graph.incident(u):
                hes = _oriented_image(f, e, u)
                res = _trace_on_window(chart, win, i, hes, side)
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


def _trace_on_window(chart, win, i, hes, side):
    """Follow a base walk from window vertex x_i; stay on window edges or
    report the escape departure.  Returns ("at", j), ("escape", chart he),
    or None when the walk leaves through the non-escape side / the window."""
    for bh in hes:
        x = win.vertex(chart, i)
        c = chart.slot_over(x, bh)
        fwd = win.edge(i) if i < win.L else None
        bwd = chart.twin[win.edge(i - 1)] if i > -win.L else None
        if c == fwd:
            i += 1
            if i > win.L - 0:
                return None
        elif c == bwd:
            i -= 1
            if i < 0:
                return None  # leaves the non-negative part
        elif _is_escape_slot(chart, win, i, c, side):
            return ("escape", c)
        else:
            return None
    return ("at", i)


def _is_escape_slot(chart, win, i, c, side):
    """Is slot c at window vertex x_i on the escape side of the line?

    For a left line the escape side is the right: the slots strictly
    clockwise from the outgoing window edge to the reversed incoming one.
    """
    x = win.vertex(chart, i)
    slots = chart.slots_cw(x)
    d = len(slots)
    if i >= win.L or i <= -win.L:
        return False
    a = chart.twin[win.edge(i - 1)] if i > -win.L else None
    b = win.edge(i)
    ia, ib, ic = slots.index(a), slots.index(b), slots.index(c)
    # sector strictly cw from twin(incoming) to outgoing = left of the line
    on_left = 0 < (ic - ia) % d < (ib - ia) % d
    escapes_right = side == LEFT
    return not on_left if escapes_right else on_left
