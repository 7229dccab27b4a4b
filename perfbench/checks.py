"""Per-job output checks.

The checks parse the CLI's output files with their own readers and test the
promised properties with their own arithmetic (turns are classified here
from `vertex_slots`, not by `redtri.walkcalc`), so a defect in redtri's
readers, writers or turn code cannot vouch for itself.  The one exception is
`is_locally_stable`, which the harmonize check runs as an extra test.
"""

from redtri import harmonizer
from redtri.drawing import Drawing, Graph
from redtri.surface import RED
from redtri.walkcalc import Walk


class CheckFailed(Exception):
    pass


def slot_positions(t):
    """Position of every half-edge in the clockwise slot list at its origin."""
    pos = [0] * len(t.next)
    for slots in t.vertex_slots:
        for i, h in enumerate(slots):
            pos[h] = i
    return pos


def _head(t, h):
    return t.origin[t.next[h]]


def _bad_turn(t, pos, e1, e2):
    v = _head(t, e1)
    if t.is_boundary_vertex(v):
        raise CheckFailed("turn at boundary vertex %d" % v)
    d = len(t.vertex_slots[v])
    steps = (pos[e2] - pos[t.twin[e1]]) % d
    k = steps if 2 * steps <= d else steps - d
    red = t.face_color[t.face_of[e1]] == RED
    return k in (-1, 0, 1) or (abs(k) == 2 and red)


def _check_walk(t, hes, start, closed):
    n = len(t.next)
    if not 0 <= start < t.num_vertices:
        raise CheckFailed("start vertex %d not on the host" % start)
    for h in hes:
        if not 0 <= h < n:
            raise CheckFailed("half-edge %d not on the host" % h)
    if hes and t.origin[hes[0]] != start:
        raise CheckFailed("walk does not leave its start vertex")
    for a, b in zip(hes, hes[1:]):
        if _head(t, a) != t.origin[b]:
            raise CheckFailed("half-edges %d,%d not consecutive" % (a, b))
    if closed and hes and _head(t, hes[-1]) != start:
        raise CheckFailed("closed walk does not wrap")


def _walk_end(t, hes, start):
    return _head(t, hes[-1]) if hes else start


def _fields(line, skip):
    try:
        return dict(p.split("=", 1) for p in line.split()[skip:])
    except ValueError:
        raise CheckFailed("bad line %r" % line)


def _ints(csv):
    return [] if csv == "-" else [int(x) for x in csv.split(",")]


def parse_walk(line):
    if not line.startswith("walk "):
        raise CheckFailed("expected a walk line, got %r" % line)
    kv = _fields(line, 1)
    return kv["closed"] == "1", int(kv["start"]), _ints(kv["he"])


def check_reduce(t, pos, w, text):
    """Output of `redtri reduce` for input walk w.  Returns True when the
    closed walk stalled (a legal outcome), False when it reduced."""
    lines = text.splitlines()
    stalled = bool(lines) and lines[0].startswith("stalled ")
    if stalled:
        if not w.closed:
            raise CheckFailed("open walk reported a stall")
        reason = _fields(lines[0], 1).get("reason")
        if reason not in ("cycle", "budget"):
            raise CheckFailed("unknown stall reason %r" % reason)
        lines = lines[1:]
    if len(lines) != 1:
        raise CheckFailed("expected one walk line, got %d" % len(lines))
    closed, start, hes = parse_walk(lines[0])
    if closed != w.closed:
        raise CheckFailed("output closedness differs from input")
    _check_walk(t, hes, start, closed)
    if not closed:
        if start != w.start or _walk_end(t, hes, start) != w.end(t):
            raise CheckFailed("reduction moved an endpoint")
    if stalled:
        return True
    corners = zip(hes[-1:] + hes[:-1], hes) if closed else zip(hes, hes[1:])
    for e1, e2 in corners:
        if _bad_turn(t, pos, e1, e2):
            raise CheckFailed("bad turn %d->%d left in output" % (e1, e2))
    return False


def parse_drawing(text):
    """(vertex images, edges, edge walks) of a `.drw` file."""
    vmap = {}
    edges = []
    walks = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "vertex" and len(parts) == 4 and parts[2] == "at":
            vmap[int(parts[1])] = int(parts[3])
        elif parts[0] == "edge" and len(parts) == 5:
            if int(parts[1]) != len(edges):
                raise CheckFailed("edge ids out of order")
            edges.append((int(parts[2]), int(parts[3])))
            walks.append(_ints(_fields(line, 4)["walk"]))
        elif parts[0] != "anchor":
            raise CheckFailed("bad drawing line %r" % line)
    if sorted(vmap) != list(range(len(vmap))):
        raise CheckFailed("vertex ids are not 0..n-1")
    return [vmap[v] for v in range(len(vmap))], edges, walks


def _check_drawing(t, f_in, text):
    """Parse an output drawing of f_in's graph on host t; every vertex and
    half-edge must exist on t, every walk must join its ends' images, and no
    edge may be longer than it was."""
    vmap, edges, walks = parse_drawing(text)
    if len(vmap) != f_in.graph.num_vertices or \
            tuple(edges) != f_in.graph.edges:
        raise CheckFailed("output graph differs from input graph")
    for (u, v), hes, w_in in zip(edges, walks, f_in.edge_map):
        _check_walk(t, hes, vmap[u], False)
        if _walk_end(t, hes, vmap[u]) != vmap[v]:
            raise CheckFailed("edge walk %d->%d does not reach its end"
                              % (u, v))
        if len(hes) > len(w_in):
            raise CheckFailed("an edge got longer")
    return vmap, walks


def check_harmonize(t, f_in, text, trace_text):
    vmap, walks = _check_drawing(t, f_in, text)
    total_in = f_in.lengths()[1]
    total_out = sum(len(h) for h in walks)
    level = total_in
    for line in trace_text.splitlines():
        try:
            a, b = (int(x) for x in _fields(line, 2)["len"].split("->"))
        except (KeyError, ValueError):
            raise CheckFailed("bad trace line %r" % line)
        if a != level or b > a:
            raise CheckFailed("trace length column rises or skips: %r" % line)
        level = b
    if level != total_out:
        raise CheckFailed("trace ends at %d, output total is %d"
                          % (level, total_out))
    emap = [Walk.from_half_edges(t, hes, start=vmap[u])
            for (u, _), hes in zip(f_in.graph.edges, walks)]
    f_out = Drawing(Graph(len(vmap), f_in.graph.edges), t, vmap, emap)
    if not harmonizer.is_locally_stable(f_out):
        raise CheckFailed("output is not locally stable")


def check_anchored(p, f_in, anchor, text):
    """Output of `redtri harmonize --anchors` on patch p."""
    vmap, _ = _check_drawing(p, f_in, text)
    for x, vs in anchor.items():
        for v in vs:
            if vmap[v] != x:
                raise CheckFailed("anchored vertex %d moved" % v)


def check_probe(f_in, v, window, text):
    """Output of `redtri probe` at G-vertex v.  Returns True on a witness."""
    line = text.strip()
    if line.startswith("no-witness "):
        if int(_fields(line, 1).get("window", -1)) != window:
            raise CheckFailed("probe reports another window")
        return False
    if not line.startswith("escapes witness="):
        raise CheckFailed("bad probe output %r" % line)
    cur = v
    for pair in _fields(line, 1)["witness"].split(","):
        e, u = (int(x) for x in pair.split(":"))
        if not 0 <= e < f_in.graph.num_edges() or u != cur:
            raise CheckFailed("witness step %s does not continue the walk"
                              % pair)
        a, b = f_in.graph.edges[e]
        if u not in (a, b):
            raise CheckFailed("witness edge %d does not touch %d" % (e, u))
        cur = b if u == a else a
    return True
