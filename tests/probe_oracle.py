"""The chart-based line window and escape probe that `redtri.cover` used
before it walked the base host, kept as test oracles.

`line_window` grows a `CoverChart` around each line vertex it reaches and
returns chart half-edges; `escape_probe` traces every G-walk against that
window through `CoverChart.slot_over`, which grows the chart on demand, and
reports the chart half-edge the walk escapes by.  `test_cover.py` checks
that the base window equals the projection of this one, and that the base
probe returns the same witness, depth and window, with an exit that is the
projection of this one's and leaves the same window vertex.
`CHART_GOLDEN_SHA256` in `test_golden.py` reads its windows and probes
from here.
"""

from dataclasses import dataclass

from redtri.cover import (
    LEFT,
    RIGHT,
    CoverChart,
    CoverError,
    NoWitnessWithinBounds,
    _oriented_image,
)
from redtri.surface import RED


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


def line_window(chart, v, side, L):
    """The window [-L, L] of the left/right line through chart vertex v.

    The line starts with the outgoing slot of v over the lowest base
    half-edge whose left face is red.  Left lines make only 3-turns, right
    lines only (d-3)-turns, counted clockwise.
    """
    if side not in (LEFT, RIGHT):
        raise CoverError("side must be left or right")
    seed = min((h for h in chart.slots_cw(v) if chart.color[h] == RED),
               key=lambda h: chart.proj[h])
    fwd, back = [seed], []
    for _ in range(L - 1):
        fwd.append(_line_step(chart, fwd[-1], side))
    # backward: the line of the other side, run from the twin
    other = RIGHT if side == LEFT else LEFT
    e = seed
    for _ in range(L):
        e = chart.twin[_line_step(chart, chart.twin[e], other)]
        back.append(e)
    edges = back[::-1] + fwd if L else []
    return LineWindow(side, v, tuple(edges), L)


def _line_step(chart, e, side):
    slots = chart.slots_cw(chart.head(e))
    d = len(slots)
    i = chart.base.slot_index[chart.proj[chart.twin[e]]]
    k = 3 if side == LEFT else d - 3
    return slots[(i + k) % d]


@dataclass(frozen=True)
class Escapes:
    witness: tuple        # sequence of (G-edge id, tail G-vertex)
    chart_exit: int       # chart half-edge leaving the window


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
    if i >= win.L or i <= -win.L:
        return False
    pos = chart.base.slot_index
    ia, ib, ic = (pos[chart.proj[h]]
                  for h in (chart.twin[win.edge(i - 1)], win.edge(i), c))
    d = len(chart.rot[win.vertex(chart, i)])
    # sector strictly cw from twin(incoming) to outgoing = left of the line
    on_left = 0 < (ic - ia) % d < (ib - ia) % d
    escapes_right = side == LEFT
    return not on_left if escapes_right else on_left
