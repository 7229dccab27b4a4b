"""The three moves (flip, shortening, balancing) and the harmonization routine.

State: the subdivided graph stays fixed; clusters of its vertices (with a
common target) only ever grow; every edge image is a single half-edge or
collapsed.  Flips preserve all lengths, shortenings and balancings strictly
decrease the total.
"""

import warnings
from dataclasses import dataclass, field, replace

from .drawing import factor_simplicial, unfactor
from .surface import BLUE, RED, UnionFind, int_list, records, validate_reducing


class HarmonizerError(Exception):
    pass


class StaleMoveError(HarmonizerError):
    pass


class BudgetExhausted(HarmonizerError):
    def __init__(self, trace):
        super().__init__("move budget exhausted")
        self.trace = trace


class InvariantError(HarmonizerError):
    """A certified applicability promise failed during application."""


class State(UnionFind):
    """Mutable harmonization state over a fixed subdivided graph.

    `image`, `parent` and `target` are the source of truth: the image of
    every edge (oriented from its endpoint 0, None once collapsed), the
    cluster union-find, and the host vertex of every cluster root.

    `dart_index` maps each cluster root to the set of (edge id, end) pairs
    of the non-collapsed edges with that end in the cluster.  Only two
    mutators change it: `collapse` removes the edge's two pairs, and
    `union` merges the smaller set into the larger.  `set_image` and
    `retarget` leave it alone, because a dart's half-edge is read from
    `image` when it is needed.  Code that writes `image`, `parent` or
    `target` directly bypasses the index and must not call `darts`
    afterwards.
    """

    def __init__(self, fbar):
        super().__init__(fbar.graph.num_vertices)
        self.gbar = fbar.graph
        self.host = fbar.host
        self.fbar = fbar
        self.image = list(fbar.edge_image)   # oriented from endpoint 0
        self.target = {v: fbar.vertex_map[v] for v in range(self.gbar.num_vertices)}
        self.version = 0
        self.dart_index = {v: set() for v in range(self.gbar.num_vertices)}
        for e, (u, v) in enumerate(self.gbar.edges):
            if self.image[e] is None:
                self.union(u, v)
            else:
                self.dart_index[self.find(u)].add((e, 0))
                self.dart_index[self.find(v)].add((e, 1))

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.target[ra] != self.target[rb]:
            raise InvariantError("merging clusters with different targets")
        keep = super().union(ra, rb)
        drop = rb if keep == ra else ra
        del self.target[drop]
        big, small = self.dart_index[keep], self.dart_index.pop(drop)
        if len(big) < len(small):
            big, small = small, big
        big |= small
        self.dart_index[keep] = big
        return keep

    def cluster_vertices(self):
        return sorted(self.target)

    def darts(self, r):
        """(edge id, end, outgoing half-edge) triples at cluster r, in
        (edge id, end) order."""
        image, twin = self.image, self.host.twin
        return [(e, end, image[e] if end == 0 else twin[image[e]])
                for e, end in sorted(self.dart_index.get(r, ()))]

    def set_image(self, e, h_from_endpoint0):
        self.image[e] = h_from_endpoint0

    def collapse(self, e):
        u, v = self.gbar.edges[e]
        self.dart_index[self.find(u)].discard((e, 0))
        self.dart_index[self.find(v)].discard((e, 1))
        self.image[e] = None
        self.union(u, v)

    def retarget(self, r, t_vertex):
        self.target[self.find(r)] = t_vertex

    def total_length(self):
        return len(self.image) - self.image.count(None)

    def check_version(self, v):
        if v != self.version:
            raise StaleMoveError("move built for version %d, state at %d"
                                 % (v, self.version))

    def check_consistent(self):
        for e, (u, v) in enumerate(self.gbar.edges):
            h = self.image[e]
            ru, rv = self.find(u), self.find(v)
            if h is None:
                assert ru == rv
            else:
                assert self.host.tail(h) == self.target[ru], e
                assert self.host.head(h) == self.target[rv], e


# -- moves -----------------------------------------------------------------

@dataclass(frozen=True)
class Flip:
    vertex: int
    target: int
    s1: int
    s2: int
    version: int


@dataclass(frozen=True)
class Shortening:
    vertex: int
    target: int
    run: tuple       # the clockwise-consecutive used slots
    version: int


@dataclass(frozen=True)
class Balancing:
    cycle: tuple        # Ĝ-vertices along the projected directed cycle
    movers: tuple       # (vertex, a-slot) pairs for the whole component
    rotation: str       # "clockwise" | "counterclockwise"
    color: str          # RED for 3_r cycles, BLUE for 3_b
    version: int


CW = "clockwise"
CCW = "counterclockwise"


def _used_slots(state, r):
    return sorted({h for (_, _, h) in state.darts(r)})


def _has_loop(state, r):
    """Does some non-collapsed edge have both ends in cluster r?"""
    ends = state.dart_index.get(r, ())
    return len({e for e, _ in ends}) < len(ends)


def find_flip(state, skip=()):
    for r in state.cluster_vertices():
        if r in skip:
            continue
        m = flip_at(state, r)
        if m is not None:
            return m
    return None


def flip_at(state, r):
    used = _used_slots(state, r)
    if len(used) != 2 or _has_loop(state, r):
        return None
    t = state.host
    x = state.target[r]
    slots, pos = t.vertex_slots[x], t.slot_index
    d = len(slots)
    a, b = used
    # the corner must span exactly two slots clockwise, blue face first
    for s1, s2 in ((a, b), (b, a)):
        if (pos[s2] - pos[s1]) % d == 2 and t.color_left(s1) == BLUE:
            mid = slots[(pos[s1] + 1) % d]
            return Flip(r, t.head(mid), s1, s2, state.version)
    return None


def apply_flip(state, m):
    state.check_version(m.version)
    t = state.host
    s1, s2 = m.s1, m.s2
    new_s1 = t.next[t.next[t.twin[s1]]]
    new_s2 = t.twin[t.next[s2]]
    for (e, end, h) in state.darts(m.vertex):
        new = new_s1 if h == s1 else new_s2
        state.set_image(e, new if end == 0 else t.twin[new])
    state.retarget(m.vertex, m.target)
    state.version += 1
    return state


def find_shortening(state):
    for r in state.cluster_vertices():
        m = shortening_at(state, r)
        if m is not None:
            return m
    return None


def shortening_at(state, r):
    used = _used_slots(state, r)
    if not 1 <= len(used) <= 3 or _has_loop(state, r):
        return None
    t = state.host
    x = state.target[r]
    slots, pos = t.vertex_slots[x], t.slot_index
    d = len(slots)
    if d < 6:
        return None
    # find a clockwise-consecutive arrangement of the used slots
    for first in used:
        run = [slots[(pos[first] + i) % d] for i in range(len(used))]
        if sorted(run) == used:
            break
    else:
        return None
    if len(run) == 1:
        tgt = t.head(run[0])
    elif len(run) == 2:
        tgt = t.head(run[0])
    else:
        tgt = t.head(run[1])
    return Shortening(r, tgt, tuple(run), state.version)


def apply_shortening(state, m):
    state.check_version(m.version)
    t = state.host
    run = m.run
    before = state.total_length()
    collapses = []
    if len(run) == 1:
        collapses = [e for (e, _, _) in state.darts(m.vertex)]
    elif len(run) == 2:
        s1, s2 = run
        new_s2 = t.twin[t.next[t.next[t.twin[s1]]]]
        for (e, end, h) in state.darts(m.vertex):
            if h == s1:
                collapses.append(e)
            else:
                state.set_image(e, new_s2 if end == 0 else t.twin[new_s2])
    else:
        s1, s2, s3 = run
        new_s1 = t.next[t.next[t.twin[s1]]]
        new_s3 = t.twin[t.next[s3]]
        for (e, end, h) in state.darts(m.vertex):
            if h == s1:
                state.set_image(e, new_s1 if end == 0 else t.twin[new_s1])
            elif h == s3:
                state.set_image(e, new_s3 if end == 0 else t.twin[new_s3])
            else:
                collapses.append(e)
    state.retarget(m.vertex, m.target)
    for e in collapses:
        state.collapse(e)
    if not state.total_length() < before:
        raise InvariantError("shortening did not shorten")
    state.version += 1
    return state


# -- balancing -------------------------------------------------------------

def _corner_of(t, x, g, cycle_color):
    """The a-slot of the corner that the dart with outgoing half-edge g
    occupies, for cycles whose turns carry the given subscript color."""
    slots, pos = t.vertex_slots[x], t.slot_index
    d = len(slots)
    if t.color_left(g) == cycle_color:
        return slots[(pos[g] - 3) % d]   # forward (b) dart
    return g                             # backward (a) dart


def _left_right(t, x, a):
    slots, pos = t.vertex_slots[x], t.slot_index
    d = len(slots)
    i = pos[a]
    left = {slots[(i + 1) % d], slots[(i + 2) % d]}
    corner = {a, slots[(i + 3) % d]}
    right = set(slots) - left - corner
    return left, right


def find_balancing(state):
    for color in (RED, BLUE):
        m = _find_balancing_pass(state, color)
        if m is not None:
            return m
    return None


def _find_balancing_pass(state, color):
    t = state.host
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
    marks = []
    for c, (r, a) in enumerate(copy_list):
        left, right = _left_right(t, state.target[r], a)
        gs = used[r]
        if any(g in right for g in gs):
            marks.append("red")
        elif any(g in left for g in gs):
            marks.append("green")
        else:
            marks.append("plain")
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
        seen_verts = {}
        for c in members:
            r = copy_list[c][0]
            assert r not in seen_verts, \
                "vertex with two corner copies in one balanced component"
            seen_verts[r] = c
        movers = tuple(sorted((copy_list[c][0], copy_list[c][1])
                              for c in members))
        cycle = tuple(copy_list[c][0] for c in cyc)
        rotation = _choose_rotation(state, movers, color)
        if rotation is None:
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


def _rotation_shortens(state, movers, rotation):
    """Does this rotation collapse at least one edge?  (An edge collapses
    when exactly one endpoint moves and its dart sits on the collapsing
    left slot: l2 counterclockwise, l1 clockwise.)"""
    t = state.host
    mover_a = dict(movers)
    which = 2 if rotation == CCW else 1
    for r, a in movers:
        slots, pos = t.vertex_slots[state.target[r]], t.slot_index
        d = len(slots)
        l = slots[(pos[a] + which) % d]
        for (e, end, g) in state.darts(r):
            if g != l:
                continue
            u, v = state.gbar.edges[e]
            other = state.find(v if end == 0 else u)
            if other not in mover_a:
                return True
    return False


def _choose_rotation(state, movers, color):
    if _rotation_shortens(state, movers, CW):
        return CW
    if _rotation_shortens(state, movers, CCW):
        return CCW
    return None


def apply_balancing(state, m):
    state.check_version(m.version)
    t = state.host
    mover_a = dict(m.movers)
    before = state.total_length()

    def lslot(r, k, h=None):
        slots, pos = t.vertex_slots[state.target[r]], t.slot_index
        if h is not None:  # step of dart h relative to the corner's a-slot
            return (pos[h] - pos[mover_a[r]]) % len(slots)
        return slots[(pos[mover_a[r]] + k) % len(slots)]

    new_images = {}
    collapses = []
    for e, (u, v) in enumerate(state.gbar.edges):
        h = state.image[e]
        if h is None:
            continue
        ru, rv = state.find(u), state.find(v)
        um, vm = ru in mover_a, rv in mover_a
        if not um and not vm:
            continue
        # per-dart local remap; derive from whichever endpoint moves
        res = None
        if um:
            res = _remap_dart(t, ru, rv, h, m.rotation, vm, lslot)
        if res is None and vm:
            back = _remap_dart(t, rv, ru, t.twin[h], m.rotation, um, lslot)
            if back is None:
                raise InvariantError("no mover side could remap edge %d" % e)
            res = back if back[0] == "collapse" else ("set", t.twin[back[1]])
        if res[0] == "collapse":
            collapses.append(e)
        else:
            new_images[e] = res[1]
    for e, h in new_images.items():
        state.set_image(e, h)
    for r, a in m.movers:
        slots, pos = t.vertex_slots[state.target[r]], t.slot_index
        d = len(slots)
        k = 2 if m.rotation == CCW else 1
        state.retarget(r, t.head(slots[(pos[a] + k) % d]))
    for e in collapses:
        state.collapse(e)
    if not state.total_length() < before:
        raise InvariantError("balancing did not shorten")
    state.version += 1
    return state


def _remap_dart(t, r, other, h, rotation, other_moves, lslot):
    """New image (oriented out of r) for the edge whose dart at mover r has
    outgoing half-edge h; `other` is the cluster at the far end."""
    step = lslot(r, 0, h)
    nxt, twn = t.next, t.twin
    if rotation == CCW:
        if step == 3:    # forward cycle dart b
            return ("set", twn[nxt[nxt[twn[nxt[h]]]]])
        if step == 0:    # backward cycle dart a: the other end remaps it
            return None
        if step == 2:    # l2: the collapsing slot
            if not other_moves:
                return ("collapse", None)
            return ("set", lslot(other, 2))
        if step == 1:    # l1
            if not other_moves:
                return ("set", nxt[nxt[twn[h]]])
            return ("set", twn[lslot(r, 2)])
        raise InvariantError("mover dart outside its corner")
    else:
        if step == 3:
            return ("set", twn[nxt[nxt[twn[lslot(r, 1)]]]])
        if step == 0:
            return None
        if step == 1:    # l1: the collapsing slot
            if not other_moves:
                return ("collapse", None)
            return ("set", lslot(other, 1))
        if step == 2:    # l2
            if not other_moves:
                return ("set", twn[nxt[nxt[twn[lslot(r, 1)]]]])
            return ("set", twn[lslot(r, 1)])
        raise InvariantError("mover dart outside its corner")


# -- left-blue digraph and orderings ---------------------------------------

def left_blue_direction(state):
    """Per Ĝ-edge, the endpoint whose outgoing image half-edge has a blue
    face on its left is the tail."""
    out = {}
    t = state.host
    for e, (u, v) in enumerate(state.gbar.edges):
        h = state.image[e]
        if h is None:
            continue
        ru, rv = state.find(u), state.find(v)
        if t.color_left(h) == BLUE:
            out[e] = (ru, rv)
        else:
            out[e] = (rv, ru)
    return out


def proper_monotonic_ordering(state, digraph):
    verts = state.cluster_vertices()
    indeg = {v: 0 for v in verts}
    adj = {v: [] for v in verts}
    for e, (a, b) in digraph.items():
        if a == b:
            raise HarmonizerError("loop edge in digraph")
        indeg[b] += 1
        adj[a].append(b)
    sources = sorted(v for v in verts if indeg[v] == 0)
    if len(sources) != 1:
        raise HarmonizerError("not a single-source digraph")
    order = []
    layer = sources
    remaining = dict(indeg)
    seen = set(layer)
    while layer:
        order.extend(sorted(layer))
        nxt = set()
        for v in layer:
            for w in adj[v]:
                remaining[w] -= 1
                if remaining[w] == 0 and w not in seen:
                    nxt.add(w)
                    seen.add(w)
        layer = sorted(nxt)
    if len(order) != len(verts):
        raise HarmonizerError("digraph is cyclic")
    return order


def is_proper_monotonic(state, digraph, order):
    """Independent checker: edges point forward, sources form a prefix."""
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


# -- trace and routine -----------------------------------------------------

@dataclass(frozen=True)
class TraceEntry:
    kind: str       # flip | short | bal
    ids: tuple
    before: int
    after: int
    phase: int


@dataclass
class MoveTrace:
    entries: list = field(default_factory=list)

    def append(self, kind, ids, before, after, phase):
        if after > before:
            raise InvariantError("move increased total length")
        if kind in ("short", "bal") and not after < before:
            raise InvariantError("strict move did not decrease length")
        self.entries.append(TraceEntry(kind, tuple(ids), before, after, phase))

    def counters(self):
        c = {"step1": 0, "step2": 0, "step3": 0, "interrupts": 0}
        for e in self.entries:
            if e.kind == "flip":
                c["step%d" % e.phase] += 1
            else:
                c["interrupts"] += 1
        return c

    def __len__(self):
        return len(self.entries)


def write_trace(trace):
    lines = []
    for n, e in enumerate(trace.entries):
        field_name = "cycle" if e.kind == "bal" else "vertex"
        ids = ",".join(str(i) for i in e.ids)
        lines.append("move %d kind=%s %s=%s len=%d->%d phase=%d"
                     % (n, e.kind, field_name, ids, e.before, e.after, e.phase))
    return "\n".join(lines) + ("\n" if lines else "")


def read_trace(text):
    trace = MoveTrace()

    def move(n, fields):
        int(n)  # move numbers follow the order of the lines
        kind = fields["kind"]
        if kind not in ("flip", "short", "bal"):
            raise ValueError("unknown move kind %r" % kind)
        ids = int_list(fields["cycle" if kind == "bal" else "vertex"])
        before, after = map(int, fields["len"].split("->"))
        trace.entries.append(TraceEntry(kind, ids, before, after,
                                        int(fields["phase"])))

    records(text, {"move": (1, move)})
    return trace


BUDGET_CONSTANT = 8


def default_budget(host, gbar):
    m = host.num_edges()
    n = gbar.num_vertices + gbar.num_edges()
    return BUDGET_CONSTANT * (m + n) * n * n


def state_to_drawing(state):
    n = state.fbar.base_graph.num_vertices
    vmap = tuple(state.target[state.find(v)] for v in range(n))
    return unfactor(replace(state.fbar, vertex_map=vmap,
                            edge_image=tuple(state.image)))


def harmonize(f, budget=None, audit=None):
    """Run the three-step routine until no move applies.

    Returns (drawing, trace).  Shortenings and balancings interrupt at every
    point and restart the routine; flips never touch the pinned root in
    step 1.  Raises BudgetExhausted when the move budget runs out.
    """
    host = f.host
    rep = validate_reducing(host)
    if not rep.ok or not host.is_closed():
        raise HarmonizerError("host must be a closed reducing triangulation")
    if host.genus() == 1:
        warnings.warn("torus host: harmonization may not terminate; "
                      "budget applies", stacklevel=2)
    fbar = factor_simplicial(f)
    state = State(fbar)
    if budget is None:
        budget = default_budget(host, fbar.graph)
    trace = MoveTrace()

    def do(move, kind, phase):
        before = state.total_length()
        if kind == "flip":
            apply_flip(state, move)
            ids = (move.vertex,)
        elif kind == "short":
            apply_shortening(state, move)
            ids = (move.vertex,)
        else:
            apply_balancing(state, move)
            ids = move.cycle
        trace.append(kind, ids, before, state.total_length(), phase)
        if len(trace) > budget:
            raise BudgetExhausted(trace)
        if audit is not None:
            audit(state, move)

    def interrupt(phase):
        mv = find_shortening(state)
        if mv is not None:
            do(mv, "short", phase)
            return True
        mv = find_balancing(state)
        if mv is not None:
            do(mv, "bal", phase)
            return True
        return False

    restart = True
    while restart:
        restart = False
        if state.gbar.num_vertices == 0:
            break
        # step 1: flip anything but the root
        while True:
            if interrupt(1):
                restart = True
                break
            mv = find_flip(state, skip={state.find(0)})
            if mv is None:
                break
            do(mv, "flip", 1)
        if restart:
            continue
        # step 2: cyclic flips along a proper monotonic ordering
        try:
            order = proper_monotonic_ordering(state, left_blue_direction(state))
        except HarmonizerError:
            order = None
        if order:
            idle, i = 0, 0
            while idle < len(order):
                if interrupt(2):
                    restart = True
                    break
                v = order[i % len(order)]
                mv = flip_at(state, v)
                if mv is not None:
                    do(mv, "flip", 2)
                    idle = 0
                else:
                    idle += 1
                i += 1
            if restart:
                continue
        # step 3: flip anything
        while True:
            if interrupt(3):
                restart = True
                break
            mv = find_flip(state)
            if mv is None:
                break
            do(mv, "flip", 3)
    return state_to_drawing(state), trace


def is_locally_stable(f):
    state = State(factor_simplicial(f))
    return (find_flip(state) is None and find_shortening(state) is None
            and find_balancing(state) is None)
