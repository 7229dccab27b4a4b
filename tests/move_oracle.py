"""The full-scan move searches that `redtri.harmonizer` used before its
incremental indexes, kept as test oracles, with their own copies of the
corner formulas, the state's invariant check and the ordering checker.

`scan_flip` and `scan_shortening` try every cluster in sorted order;
`scan_balancing` rebuilds the corner-copy split graph of each color from
scratch, with every copy that `corner_copies` lists, red ones too,
numbered in order of cluster and first dart.  They cost time linear in
the drawing per search, but they read nothing but the state's source of
truth (`image`, `parent`, `target`) and its dart index;
`test_acceptance.py` checks after every move of a harmonization that the
indexed searches return exactly what these return.  They classify a
corner with `corner_moves` and `corner_of`, the formulas as the library
first wrote them, not with the library's own.
"""

from redtri.harmonizer import (
    CCW,
    CW,
    Balancing,
    Flip,
    InvariantError,
    Shortening,
    _rotation_shortens,
)
from redtri.surface import BLUE, RED, UnionFind


def has_loop(state, r):
    """Does some non-collapsed edge have both ends in cluster r?"""
    ends = state.dart_index.get(r, ())
    return len({e for e, _ in ends}) < len(ends)


def corner_moves(state, r):
    """The fields of cluster r's flip, (target, s1, s2), and of its
    shortening, (target, run), each None unless it applies.  Both need one
    to three used slots and no loop.  The run is the used slots in
    clockwise order from the widest gap between them, the later one on a
    tie: a shortening needs them consecutive at a vertex of degree at least
    six, a flip two of them with one empty slot between, the blue face
    first."""
    used = {h for (_, _, h) in state.darts(r)}
    if not 1 <= len(used) <= 3 or has_loop(state, r):
        return None, None
    t = state.host
    slots, pos = t.vertex_slots[state.target[r]], t.slot_index
    d, n = len(slots), len(used)
    ps = sorted(pos[h] for h in used)
    # a lone slot's gap is the whole circle
    gap, i = max(((ps[k] - ps[k - 1]) % d or d, k) for k in range(n))
    run = tuple(slots[ps[(i + k) % n]] for k in range(n))
    width = d + 1 - gap
    if width == n:
        pivot = run[(n - 1) // 2]
        return None, ((t.head(pivot), run) if d >= 6 else None)
    if n == 2 and width == 3 and t.color_left(run[0]) == BLUE:
        return (t.head(t.next[t.twin[run[0]]]), *run), None
    return None, None


def corner_of(t, x, g, cycle_color):
    """The a-slot of the corner that the dart with outgoing half-edge g
    occupies, for cycles whose turns carry the given subscript color."""
    slots, pos = t.vertex_slots[x], t.slot_index
    d = len(slots)
    if t.color_left(g) == cycle_color:
        return slots[(pos[g] - 3) % d]   # forward (b) dart
    return g                             # backward (a) dart


def check_consistent(state):
    """Assert that the kept length and every edge image agree with the
    clusters and their targets."""
    assert state.length == len(state.image) - state.image.count(None)
    for e, (u, v) in enumerate(state.gbar.edges):
        h = state.image[e]
        ru, rv = state.find(u), state.find(v)
        if h is None:
            assert ru == rv
        else:
            assert state.host.tail(h) == state.target[ru], e
            assert state.host.head(h) == state.target[rv], e


def scan_flip(state, skip=()):
    for r in state.cluster_vertices():
        if r in skip:
            continue
        fields = corner_moves(state, r)[0]
        if fields is not None:
            return Flip(r, *fields, state.version)
    return None


def scan_shortening(state):
    for r in state.cluster_vertices():
        fields = corner_moves(state, r)[1]
        if fields is not None:
            return Shortening(r, *fields, state.version)
    return None


def scan_balancing(state):
    for color in (RED, BLUE):
        m = _balancing_pass(state, color)
        if m is not None:
            return m
    return None


def corner_copies(state, color):
    """Every corner copy of the split graph of one cycle color, in order of
    cluster and first dart, with its mark: red with a dart right of its
    corner, green with one on its left (1 or 2 clockwise steps from the
    a-slot; 0 and 3 are the corner), plain otherwise."""
    t = state.host
    pos = t.slot_index
    marks = {}
    for r in state.cluster_vertices():
        gs = [g for (_, _, g) in state.darts(r)]
        d = len(t.vertex_slots[state.target[r]])
        for g in gs:
            a = corner_of(t, state.target[r], g, color)
            if (r, a) not in marks:
                steps = {(pos[h] - pos[a]) % d for h in gs}
                marks[r, a] = ("red" if steps - {0, 1, 2, 3} else
                               "green" if steps & {1, 2} else "plain")
    return marks


def _balancing_pass(state, color):
    t = state.host
    # split graph: one copy per occupied corner
    marked = corner_copies(state, color)
    copy_list = list(marked)
    copies = {c: i for i, c in enumerate(copy_list)}
    marks = list(marked.values())
    # directed split edges: tail at the dart whose image face has the cycle color
    edges = []
    for e, (u, v) in enumerate(state.gbar.edges):
        h = state.image[e]
        if h is None:
            continue
        ru, rv = state.find(u), state.find(v)
        cu = copies[(ru, corner_of(t, state.target[ru], h, color))]
        hv = t.twin[h]
        cv = copies[(rv, corner_of(t, state.target[rv], hv, color))]
        if t.color_left(h) == color:
            edges.append((cu, cv, e))
        else:
            edges.append((cv, cu, e))
    # undirected components over copies
    comp = UnionFind(len(copy_list))
    for (cu, cv, _) in edges:
        comp.union(cu, cv)
    groups = {}     # in order of their smallest copy, the root
    for c in range(len(copy_list)):
        groups.setdefault(comp.find(c), []).append(c)
    for members in groups.values():
        if any(marks[c] == "red" for c in members):
            continue
        if not any(marks[c] == "green" for c in members):
            continue
        cyc = _directed_cycle(members, edges)
        if cyc is None:
            continue
        movers = tuple(sorted(copy_list[c] for c in members))
        assert len(dict(movers)) == len(movers), \
            "vertex with two corner copies in one balanced component"
        cycle = tuple(copy_list[c][0] for c in cyc)
        if _rotation_shortens(state, movers, CW):
            rotation = CW
        elif _rotation_shortens(state, movers, CCW):
            rotation = CCW
        else:
            raise InvariantError("balanced component admits no shortening rotation")
        return Balancing(cycle, movers, rotation, color, state.version)
    return None


def _directed_cycle(members, edges):
    mset = set(members)
    adj = {c: [] for c in members}
    for (cu, cv, _) in edges:
        if cu in mset and cv in mset:
            adj[cu].append(cv)
    state = {c: 0 for c in members}
    stack_path = []

    def dfs(c):
        state[c] = 1
        stack_path.append(c)
        for w in adj[c]:
            if state[w] == 0:
                r = dfs(w)
                if r is not None:
                    return r
            elif state[w] == 1:
                return stack_path[stack_path.index(w):]
        stack_path.pop()
        state[c] = 2
        return None

    for c in sorted(members):
        if state[c] == 0:
            r = dfs(c)
            if r is not None:
                return r
    return None


def is_proper_monotonic(state, digraph, order):
    """Edges point forward and the sources form a prefix of the order."""
    idx = {v: i for i, v in enumerate(order)}
    for a, b in digraph.values():
        if idx[a] >= idx[b]:
            return False
    heads = {b for _, b in digraph.values()}
    seen_nonsource = False
    for v in order:
        if v in heads:
            seen_nonsource = True
        elif seen_nonsource:
            return False
    return True
