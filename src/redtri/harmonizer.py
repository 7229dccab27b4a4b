"""The three moves (flip, shortening, balancing) and the harmonization routine.

State: the subdivided graph stays fixed; clusters of its vertices (with a
common target) only ever grow; every edge image is a single half-edge or
collapsed.  Flips preserve all lengths, shortenings and balancings strictly
decrease the total.

The three moves share one rotation rule, `_rotate`: a cluster moves to the
head of one of its slots, the pivot.  A dart on the pivot collapses, and a
dart on the slot after or before the pivot turns with the cluster.  A
shortening pivots on the first slot of a run of one or two used slots and
on the middle slot of a run of three.  A flip is a shortening across an
empty slot: its pivot is the free slot between its two used ones.  A
balancing moves each vertex of a component across slot l2 of its corner
(counterclockwise) or l1 (clockwise).

The searches do not scan the drawing.  `State` records which clusters each
move touches, and a search first re-examines just those, listing each
one's darts once.  One short pass over the list classifies the cluster's
corner for its flip and its shortening; when a balancing is next searched,
one more splits the darts into corner copies for the split graphs of both
cycle colors at once.  A split graph stores only the copies that can join
a balancing, and keeps only the components that qualify for one.
"""

import warnings
from contextlib import suppress
from dataclasses import dataclass, field, replace
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

from .drawing import factor_simplicial, unfactor
from .surface import BLUE, RED, UnionFind, validate_reducing


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
    `image` when it is needed.  `collapse` also keeps `length`, the
    number of non-collapsed edges, up to date.

    `dirty` holds the vertices whose clusters changed since the last
    search.  All four mutators add to it: `set_image` and `collapse` both
    ends of the edge, `union` the kept root and the dropped one, `retarget`
    the cluster.  Every vertex starts dirty.  A search first re-examines
    the clusters of the dirty vertices (`_refresh`), listing each one's
    darts once, and so keeps the move indexes up to date: `flips` and
    `shortenings`, the clusters where such a move applies, and `splits`,
    the split graph of each cycle color, which stores no red copy.  The
    split graphs catch up only when a balancing is searched, both in one
    pass per cluster (`_split_clusters`); until then `pending` keeps each
    re-examined root's dart list, and None for each vertex that is no
    longer a root.

    Code that writes `image`, `parent` or `target` directly bypasses the
    indexes and must not call `darts` or a search afterwards.
    """

    def __init__(self, fbar):
        super().__init__(fbar.graph.num_vertices)
        self.gbar = fbar.graph
        self.host = fbar.host
        self.fbar = fbar
        self.image = list(fbar.edge_image)   # oriented from endpoint 0
        self.target = {v: fbar.vertex_map[v] for v in range(self.gbar.num_vertices)}
        self.version = 0
        self.length = len(self.image) - self.image.count(None)
        self.dirty = set(range(self.gbar.num_vertices))
        self.flips = {}         # root -> (target, s1, s2) of its flip
        self.shortenings = {}   # root -> (target, run) of its shortening
        self.splits = (_SplitGraph(RED), _SplitGraph(BLUE))
        self.pending = {}
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
        self.dirty.update((keep, drop))
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
        self.dirty.update(self.gbar.edges[e])
        self.image[e] = h_from_endpoint0

    def collapse(self, e):
        u, v = self.gbar.edges[e]
        self.dirty.update((u, v))
        self.dart_index[self.find(u)].discard((e, 0))
        self.dart_index[self.find(v)].discard((e, 1))
        if self.image[e] is not None:
            self.length -= 1
        self.image[e] = None
        self.union(u, v)

    def retarget(self, r, t_vertex):
        self.dirty.add(r)
        self.target[self.find(r)] = t_vertex

    def check_version(self, v):
        if v != self.version:
            raise StaleMoveError("move built for version %d, state at %d"
                                 % (v, self.version))


def _refresh(state):
    """Re-examine the clusters of the dirty vertices: list each root's
    darts once, reclassify its corner for `flips` and `shortenings` now,
    and leave the list in `pending` for the split graphs."""
    if not state.dirty:
        return
    dirty, state.dirty = state.dirty, set()
    pending, flips, shortenings = state.pending, state.flips, state.shortenings
    roots = set()
    for v in dirty:
        r = state.find(v)
        if r != v:      # not a root (any more)
            flips.pop(v, None)
            shortenings.pop(v, None)
            pending[v] = None
        roots.add(r)
    for r in roots:
        darts = pending[r] = state.darts(r)
        flip, shortening = _corner_moves(state, r, darts)
        if flip is None:
            flips.pop(r, None)
        else:
            flips[r] = flip
        if shortening is None:
            shortenings.pop(r, None)
        else:
            shortenings[r] = shortening


# -- moves -----------------------------------------------------------------

class Flip(NamedTuple):
    vertex: int
    target: int
    s1: int
    s2: int
    version: int


class Shortening(NamedTuple):
    vertex: int
    target: int
    run: tuple       # the clockwise-consecutive used slots
    version: int


class Balancing(NamedTuple):
    cycle: tuple        # Ĝ-vertices along the projected directed cycle
    movers: tuple       # (vertex, a-slot) pairs for the whole component
    rotation: str       # "clockwise" | "counterclockwise"
    color: str          # RED for 3_r cycles, BLUE for 3_b
    version: int


CW = "clockwise"
CCW = "counterclockwise"


def _corner_moves(state, r, darts):
    """The fields of cluster r's flip, (target, s1, s2), and of its
    shortening, (target, run), each None unless it applies; `darts` are
    r's.  Both need one to three used slots and no loop.  The run is the
    used slots in clockwise order from the widest gap between them, the
    later on a tie: a shortening needs them consecutive at a vertex of
    degree at least six, a flip two of them with one empty slot between,
    the blue face first."""
    t = state.host
    if (len(darts) == 2 and darts[0][2] != darts[1][2]
            and darts[0][0] != darts[1][0]):  # most corners: no set, no sort
        (_, _, s1), (_, _, s2) = darts
        slots, pos = t.vertex_slots[state.target[r]], t.slot_index
        d, p, q = len(slots), pos[s1], pos[s2]
        span = (q - p) % d  # the steps clockwise from s1's slot to s2's
        if 2 * span > d or 2 * span == d and q > p:
            s1, s2, span = s2, s1, d - span     # the run starts at s2
        if span == 1:
            return None, ((t.head(s1), (s1, s2)) if d >= 6 else None)
        if span == 2 and t.color_left(s1) == BLUE:
            return (t.head(t.next[t.twin[s1]]), s1, s2), None
        return None, None
    used = {g for _, _, g in darts}
    n = len(used)
    if not 1 <= n <= 3 or len({e for e, _, _ in darts}) < len(darts):
        return None, None
    slots, pos = t.vertex_slots[state.target[r]], t.slot_index
    d, ps = len(slots), sorted([pos[g] for g in used])
    i, gap = 0, ps[0] - ps[-1] + d      # a lone slot's gap is the circle
    for k in range(1, n):
        if ps[k] - ps[k - 1] >= gap:
            i, gap = k, ps[k] - ps[k - 1]
    width = d + 1 - gap
    if width == n:
        run = tuple([slots[p] for p in ps[i:] + ps[:i]])
        return None, ((t.head(_pivot(run)), run) if d >= 6 else None)
    s1 = slots[ps[i]]
    if n == 2 and width == 3 and t.color_left(s1) == BLUE:
        return (t.head(t.next[t.twin[s1]]), s1, slots[ps[1 - i]]), None
    return None, None


def _rotate(t, h, pivot):
    """The new half-edge of a dart on slot h when its cluster moves to
    head(pivot), or None when it collapses.  h is the pivot slot, the slot
    after it or the slot before it."""
    if h == pivot:
        return None
    if h == t.next[t.twin[pivot]]:
        return t.twin[t.next[h]]
    return t.next[t.next[t.twin[h]]]


def _move(state, r, pivot, target):
    """Move cluster r to `target` across its slot `pivot`; returns the edges
    that collapse, for the caller to collapse once every image is set."""
    t, image = state.host, state.image
    collapses = []
    for e, end in state.dart_index[r]:
        new = _rotate(t, image[e] if end == 0 else t.twin[image[e]], pivot)
        if new is None:
            collapses.append(e)
        else:
            state.set_image(e, new if end == 0 else t.twin[new])
    state.retarget(r, target)
    return collapses


def find_flip(state, skip=()):
    """The flip at the smallest cluster outside `skip` that has one."""
    _refresh(state)
    r = min(state.flips.keys() - skip, default=None)
    return None if r is None else Flip(r, *state.flips[r], state.version)


def flip_at(state, r):
    """The flip at cluster r, or None: a shortening across the empty
    (pivot) slot between two used ones."""
    _refresh(state)
    fields = state.flips.get(r)
    return None if fields is None else Flip(r, *fields, state.version)


def apply_flip(state, m):
    state.check_version(m.version)
    t = state.host
    _move(state, m.vertex, t.next[t.twin[m.s1]], m.target)
    state.version += 1
    return state


def find_shortening(state):
    """The shortening at the smallest cluster that has one."""
    _refresh(state)
    if not state.shortenings:
        return None
    r = min(state.shortenings)
    return Shortening(r, *state.shortenings[r], state.version)


def _pivot(run):
    """A shortening's pivot: the first slot of a run of one or two, the
    middle one of a run of three."""
    return run[(len(run) - 1) // 2]


def apply_shortening(state, m):
    state.check_version(m.version)
    before = state.length
    for e in _move(state, m.vertex, _pivot(m.run), m.target):
        state.collapse(e)
    if not state.length < before:
        raise InvariantError("shortening did not shorten")
    state.version += 1
    return state


# -- balancing -------------------------------------------------------------

class _SplitGraph:
    """The corner-copy split graph of one cycle color, kept up to date.

    A copy (r, a) is the corner with a-slot a at cluster r.  Every dart of
    r belongs to the copy of its corner, and every non-collapsed edge joins
    the copies of its two darts, directed away from the dart with the
    cycle color on its left.  A copy is red with a dart of r right of its
    corner, green with one on its left (1 or 2 clockwise steps from the
    a-slot; 0 and 3 are the corner), and plain otherwise.  A component
    qualifies for a balancing when it has no red copy, some green one and
    a directed cycle.  A red copy is not stored: its darts have no
    `copy_of` entry, no search starts at a copy next to one, and a
    component that reaches one is gathered whole and dropped.  Only the
    qualifying components are kept, in `found` under their smallest
    (root, first dart) keys: a scan over the clusters and their darts
    meets them in key order.  Any other component is dropped once its
    breadth-first search is done.

    `_split_clusters` rebuilds the touched clusters' copies of both colors
    in one pass, then gathers each color's components of the new copies.
    A component that holds no touched copy is unchanged, so a dropped one
    stays dropped and a kept one stays kept."""

    def __init__(self, color):
        self.color = color
        self.at = {}        # root -> its copies
        self.darts = {}     # copy -> its darts, in (edge id, end) order
        self.copy_of = {}   # (edge id, end) -> copy
        self.mark = {}      # copy -> "green" or "plain"
        self.comp = {}      # copy of a qualifying component -> its key
        self.found = {}     # qualifying component's key -> (cycle, movers)

    def first(self):
        """(cycle, movers) of the first qualifying component, or None."""
        return self.found[min(self.found)] if self.found else None

    def _component(self, state, c0, seen):
        """Gather the component of copy c0 into `seen`, and keep it if it
        qualifies."""
        members, red, ends = [c0], False, 0
        seen.add(c0)
        darts, copy_of = self.darts, self.copy_of
        for c in members:
            ends += len(darts[c])
            for e, end, _ in darts[c]:
                o = copy_of.get((e, 1 - end))
                if o is None:       # its far end is a red copy
                    red = True
                elif o not in seen:
                    seen.add(o)
                    members.append(o)
        if (red or ends < 2 * len(members)     # a tree has no cycle
                or all(self.mark[c] == "plain" for c in members)):
            return
        members.sort(key=self._key)
        t = state.host
        adj = {c: [self.copy_of[(e, 1 - end)] for e, end, g in self.darts[c]
                   if t.color_left(g) == self.color] for c in members}
        cyc = _directed_cycle(members, adj)
        if cyc is None:
            return
        key = self._key(members[0])
        movers = tuple(sorted(members))
        self.found[key] = (tuple(c[0] for c in cyc), movers)
        self.comp.update(dict.fromkeys(movers, key))

    def _key(self, c):
        """(root, first dart): a scan over the clusters and their darts
        meets the copies in this order."""
        return c[0], self.darts[c][0][:2]


def _split_clusters(state, splits, pending):
    """Bring `splits`, the red and the blue split graph, up to date with
    `pending` (vertex -> its darts, or None once it is no longer a root),
    one pass over each cluster's darts: drop its old copies, group the
    darts by slot, and file the copies of both colors.  A copy is stored
    only when every used slot lies 0-3 steps clockwise of its a-slot, so
    only where the gap from used slot q round to used slot p spans at
    least d - 3 steps: then p is the a-slot of the copy of the color on
    p's right, q three steps on the a-slot of the copy of q's left color,
    and the two are one copy when q is p + 3."""
    for split in splits:
        at, darts, copy_of, mark, comp = (split.at, split.darts, split.copy_of,
                                          split.mark, split.comp)
        for v in pending:
            for c in at.pop(v, ()):
                key = comp.get(c)     # None unless it qualified
                if key is not None:
                    for m in split.found.pop(key)[1]:
                        del comp[m]
                for e, end, _ in darts.pop(c):
                    del copy_of[e, end]
                del mark[c]
    t = state.host
    pos, rotations, target = t.slot_index, t.vertex_slots, state.target
    color, face_of = t.face_color, t.face_of
    for r, ds in pending.items():
        if ds is None:
            continue
        at = {}                 # used slot position -> its darts
        for dart in ds:
            at.setdefault(pos[dart[2]], []).append(dart)
        if not at:
            continue
        slots = rotations[target[r]]
        d, ps = len(slots), sorted(at)
        q = ps[-1]
        for p in ps:
            span = (q - p) % d  # q is the used slot before p
            if span <= 3:
                # green: a used slot 1 or 2 steps from the a-slot
                mark = "green" if len(ps) > 1 + (span == 3) else "plain"
                left = color[face_of[slots[p]]] == RED
                if span == 3:
                    copies = ((splits[left], p, sorted(at[p] + at[q])),)
                else:
                    copies = ((splits[left], p, at[p]), (
                        splits[color[face_of[slots[q]]] != RED],
                        (q - 3) % d, at[q]))
                for split, a, cds in copies:
                    c = (r, slots[a])
                    split.at.setdefault(r, []).append(c)
                    split.darts[c] = cds
                    for e, end, _ in cds:
                        split.copy_of[e, end] = c
                    split.mark[c] = mark
            q = p
    # an untouched copy of a changed component kept its edges to the
    # touched clusters, so the new copies reach it; no search starts at a
    # copy next to a red one, whose component does not qualify
    for split in splits:
        seen, copy_of = set(), split.copy_of
        for r in pending:
            for c in split.at.get(r, ()):
                if c in seen:
                    continue
                for e, end, _ in split.darts[c]:
                    if (e, 1 - end) not in copy_of:
                        break
                else:
                    split._component(state, c, seen)


def find_balancing(state):
    """A balancing of the first qualifying component, red cycles first."""
    _refresh(state)
    _split_clusters(state, state.splits, state.pending)
    state.pending = {}
    for split in state.splits:
        found = split.first()
        if found is None:
            continue
        cycle, movers = found
        if len(dict(movers)) != len(movers):
            raise InvariantError(
                "vertex with two corner copies in one balanced component")
        if _rotation_shortens(state, movers, CW):
            rotation = CW
        elif _rotation_shortens(state, movers, CCW):
            rotation = CCW
        else:
            raise InvariantError("balanced component admits no shortening rotation")
        return Balancing(cycle, movers, rotation, split.color, state.version)
    return None


def _directed_cycle(members, adj):
    """The first directed cycle of a depth-first search that starts from
    the members in order and follows each copy's out-edges in order.  The
    search keeps its own stack, so a component of any size fits."""
    state = dict.fromkeys(members, 0)
    for root in members:
        if state[root]:
            continue
        state[root] = 1
        path, todo = [root], [iter(adj[root])]
        while todo:
            for w in todo[-1]:
                if state[w] == 0:
                    state[w] = 1
                    path.append(w)
                    todo.append(iter(adj[w]))
                    break
                if state[w] == 1:
                    return path[path.index(w):]
            else:
                state[path.pop()] = 2
                todo.pop()
    return None


def _rotation_shortens(state, movers, rotation):
    """Does this rotation collapse at least one edge?  (An edge collapses
    when exactly one endpoint moves and its dart sits on the pivot slot:
    l2 counterclockwise, l1 clockwise.)"""
    t = state.host
    mover_a = dict(movers)
    k = 2 if rotation == CCW else 1
    for r, a in movers:
        slots = t.vertex_slots[state.target[r]]
        pivot = slots[(t.slot_index[a] + k) % len(slots)]
        for (e, end, g) in state.darts(r):
            far = state.find(state.gbar.edges[e][1 - end])
            if g == pivot and far not in mover_a:
                return True
    return False


def apply_balancing(state, m):
    state.check_version(m.version)
    t = state.host
    mover_a = dict(m.movers)
    before = state.length

    def lslot(r, k, h=None):
        slots, pos = t.vertex_slots[state.target[r]], t.slot_index
        if h is not None:  # step of dart h relative to the corner's a-slot
            return (pos[h] - pos[mover_a[r]]) % len(slots)
        return slots[(pos[mover_a[r]] + k) % len(slots)]

    new_images = {}
    collapses = []
    # the edges with a dart at a mover
    for e in sorted({e for r in mover_a for e, _ in state.dart_index[r]}):
        u, v = state.gbar.edges[e]
        h = state.image[e]
        ru, rv = state.find(u), state.find(v)
        um, vm = ru in mover_a, rv in mover_a
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
    k = 2 if m.rotation == CCW else 1
    for r, _ in m.movers:
        state.retarget(r, t.head(lslot(r, k)))
    for e in collapses:
        state.collapse(e)
    if not state.length < before:
        raise InvariantError("balancing did not shorten")
    state.version += 1
    return state


def _remap_dart(t, r, other, h, rotation, other_moves, lslot):
    """New image (oriented out of r) for the edge whose dart at mover r has
    outgoing half-edge h; `other` is the cluster at the far end.  Movers go
    across their pivot slot: l2 counterclockwise, l1 clockwise."""
    step = lslot(r, 0, h)
    nxt, twn = t.next, t.twin
    k = 2 if rotation == CCW else 1
    if step == 0:        # backward cycle dart a: the other end remaps it
        return None
    if step == 3:        # forward cycle dart b
        if rotation == CCW:
            return ("set", twn[nxt[nxt[twn[nxt[h]]]]])
        return ("set", twn[nxt[nxt[twn[lslot(r, 1)]]]])
    if step not in (1, 2):
        raise InvariantError("mover dart outside its corner")
    if other_moves:      # l1 or l2, and the far end moves too
        return ("set", lslot(other, k) if step == k else twn[lslot(r, k)])
    new = _rotate(t, h, lslot(r, k))
    return ("collapse", None) if new is None else ("set", new)


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
    """The clusters layer by layer from the single source, each layer
    sorted; a cluster's in-edges all come from earlier layers."""
    verts = state.cluster_vertices()
    graph = TopologicalSorter({v: () for v in verts})
    for a, b in digraph.values():
        if a == b:
            raise HarmonizerError("loop edge in digraph")
        graph.add(b, a)
    with suppress(CycleError):  # get_ready still yields the acyclic part
        graph.prepare()
    layer = sorted(graph.get_ready())
    if len(layer) != 1:
        raise HarmonizerError("not a single-source digraph")
    order = []
    while layer:
        order += layer
        graph.done(*layer)
        layer = sorted(graph.get_ready())
    if len(order) != len(verts):
        raise HarmonizerError("digraph is cyclic")
    return order


# -- trace and routine -----------------------------------------------------

class TraceEntry(NamedTuple):
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
    """Check f's host and `run` the routine on f; returns (drawing, trace).
    Raises HarmonizerError unless f's host is a closed reducing
    triangulation."""
    host = f.host
    if not validate_reducing(host).ok or not host.is_closed():
        raise HarmonizerError("host must be a closed reducing triangulation")
    if host.genus() == 1:
        warnings.warn("torus host: harmonization may not terminate; "
                      "budget applies", stacklevel=2)
    state = State(factor_simplicial(f))
    trace = run(state, budget, audit)
    return state_to_drawing(state), trace


def run(state, budget=None, audit=None):
    """Run the three-step routine on state until no move applies; returns
    the trace.  Shortenings and balancings interrupt at every point and
    restart the routine; flips never touch the pinned root in step 1.
    `audit(state, move)` runs after every move, and BudgetExhausted ends a
    run of more than budget moves.  The caller checks the host."""
    if budget is None:
        budget = default_budget(state.host, state.gbar)
    trace = MoveTrace()

    def do(move, kind, phase):
        before = state.length
        if kind == "flip":
            apply_flip(state, move)
            ids = (move.vertex,)
        elif kind == "short":
            apply_shortening(state, move)
            ids = (move.vertex,)
        else:
            apply_balancing(state, move)
            ids = move.cycle
        trace.append(kind, ids, before, state.length, phase)
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

    def flip_all(phase, skip=()):
        """Flip until no flip applies; True when a move interrupted."""
        while True:
            if interrupt(phase):
                return True
            mv = find_flip(state, skip)
            if mv is None:
                return False
            do(mv, "flip", phase)

    def cyclic_flips():
        """Flip along a proper monotonic ordering until a whole round of it
        is idle; True when a move interrupted.  Step 1 has just found no
        interrupting move and no flip but at the pinned root, so with no
        flip at all the whole round would be idle."""
        if find_flip(state) is None:
            return False
        try:
            order = proper_monotonic_ordering(state, left_blue_direction(state))
        except HarmonizerError:
            return False
        idle, i = 0, 0
        while idle < len(order):
            if interrupt(2):
                return True
            mv = flip_at(state, order[i % len(order)])
            if mv is not None:
                do(mv, "flip", 2)
                idle = 0
            else:
                idle += 1
            i += 1
        return False

    # step 1 flips anything but the root, step 2 flips cyclically, step 3
    # flips anything; a shortening or a balancing restarts at step 1
    while state.gbar.num_vertices:
        if not (flip_all(1, {state.find(0)}) or cyclic_flips()
                or flip_all(3)):
            break
    return trace


def is_locally_stable(f):
    state = State(factor_simplicial(f))
    return (find_flip(state) is None and find_shortening(state) is None
            and find_balancing(state) is None)
