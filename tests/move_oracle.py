"""The full-scan move searches that `redtri.harmonizer` used before its
incremental indexes, kept as test oracles, the per-cluster shortening
query, the state's invariant check and the ordering checker.

`scan_flip` and `scan_shortening` try every cluster in sorted order;
`scan_balancing` rebuilds the corner-copy split graph of each color from
scratch, numbering the copies in order of cluster and first dart.  They
cost time linear in the drawing per search, but they read nothing but the
state's source of truth (`image`, `parent`, `target`) and its dart index;
`test_acceptance.py` checks after every move of a harmonization that the
indexed searches return exactly what these return.
"""

from redtri.harmonizer import (
    CCW,
    CW,
    Balancing,
    InvariantError,
    Shortening,
    _corner_moves,
    _corner_of,
    _rotation_shortens,
    flip_at,
)
from redtri.surface import BLUE, RED, UnionFind


def shortening_at(state, r):
    fields = _corner_moves(state, r, state.darts(r))[1]
    return None if fields is None else Shortening(r, *fields, state.version)


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
        m = flip_at(state, r)
        if m is not None:
            return m
    return None


def scan_shortening(state):
    for r in state.cluster_vertices():
        m = shortening_at(state, r)
        if m is not None:
            return m
    return None


def scan_balancing(state):
    for color in (RED, BLUE):
        m = _balancing_pass(state, color)
        if m is not None:
            return m
    return None


def _balancing_pass(state, color):
    t = state.host
    pos = t.slot_index
    verts = state.cluster_vertices()
    # split graph: one copy per occupied corner
    copies = {}          # (vertex, a-slot) -> copy id
    copy_list = []
    used = {}            # vertex -> outgoing half-edges of its darts
    for r in verts:
        gs = used[r] = [g for (_, _, g) in state.darts(r)]
        for g in gs:
            key = (r, _corner_of(t, state.target[r], g, color))
            if key not in copies:
                copies[key] = len(copy_list)
                copy_list.append(key)
    # a copy is red with a dart right of its corner, green with one on its
    # left (1 or 2 clockwise steps from the a-slot; 0 and 3 are the corner)
    marks = []
    for r, a in copy_list:
        d = len(t.vertex_slots[state.target[r]])
        steps = {(pos[g] - pos[a]) % d for g in used[r]}
        marks.append("red" if steps - {0, 1, 2, 3} else
                     "green" if steps & {1, 2} else "plain")
    # directed split edges: tail at the dart whose image face has the cycle color
    edges = []
    for e, (u, v) in enumerate(state.gbar.edges):
        h = state.image[e]
        if h is None:
            continue
        ru, rv = state.find(u), state.find(v)
        cu = copies[(ru, _corner_of(t, state.target[ru], h, color))]
        hv = t.twin[h]
        cv = copies[(rv, _corner_of(t, state.target[rv], hv, color))]
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
