"""Turn arithmetic and walk reduction on reducing triangulations.

A turn at an interior vertex v measures the clockwise rotation distance from
the slot by which a walk enters (the reversal of its incoming edge) to the
slot by which it leaves.  Turns 0, +1, -1 and +-2 with a red face on the left
of the incoming edge are bad; a walk is reduced when all its turns are good.

Reduction rewrites one bad corner per step.  Corner i sits between edges
i-1 and i; a closed walk's wrap corner 0 comes first.  Each step rewrites
the leftmost spur (turn 0), otherwise the leftmost +-1 turn, otherwise the
leftmost 2_r turn.  A turn that cannot be taken (at a boundary vertex,
say) raises its error on the first step at which it lies left of every
spur.  A walk whose rewrites revisit a state (a closed walk: up to
rotation) stalls there: `reduce_open` raises ReductionStalled("state
recurred"), `reduce_closed` returns Stalled(w, "cycle") with the recurring
state.  After `budget` rewrites (default 4 (L + 1) (H + 1) for L edges on H
half-edges) both stop with "budget exhausted" / Stalled(w, "budget"), even
if the last rewrite left the walk reduced.

Cost: the walk is a doubly linked list whose labels increase along it; a
rewrite puts its at most two new edges under the labels of the two it
replaces, so labels keep the order of the walk.  One lazy-deletion heap of
corner labels per bad kind (and one for corners that raise) finds the next
corner, and only the corners next to a rewrite are classified again.  A
state key (length plus a sum of hashes of consecutive edge pairs, taken
cyclically for closed walks, so rotation-invariant) is kept up to date in
O(1); a recurrence is confirmed exactly by replaying the reduction, and so
is a key shared by two different states (the sum can collide, e.g. for
a a b a b b and a b a a b b on a one-vertex host), at the cost of a replay.
Set-up and the result are O(L); a step is O(log L).  Nothing bounds the
number of steps by O(L): the budget is the only limit.
"""

from dataclasses import dataclass
from heapq import heappop, heappush

from .surface import NO_TWIN, RED, FormatError, int_list, records

GOOD = "good"
BAD = "bad"


class BoundaryTurnError(Exception):
    """Turns at boundary vertices are rejected."""


class WalkError(Exception):
    pass


class ReductionStalled(Exception):
    """reduce_open revisited a state; the host is not simply connected."""


@dataclass(frozen=True)
class Turn:
    clockwise_steps: int
    degree: int
    subscript: str  # color left of the incoming edge

    @property
    def signed_value(self):
        k = self.clockwise_steps
        return k if 2 * k <= self.degree else k - self.degree

    def __str__(self):
        return "%d_%s" % (self.signed_value, self.subscript)


@dataclass(frozen=True)
class Walk:
    start: int
    half_edges: tuple
    closed: bool

    @classmethod
    def from_half_edges(cls, t, hes, closed=False, start=None):
        hes = tuple(hes)
        for a, b in zip(hes, hes[1:]):
            if t.head(a) != t.tail(b):
                raise WalkError("half-edges %d,%d not consecutive" % (a, b))
        if hes:
            if closed and t.head(hes[-1]) != t.tail(hes[0]):
                raise WalkError("closed walk does not wrap")
            start = t.tail(hes[0])
        elif start is None:
            raise WalkError("empty walk needs a start vertex")
        return cls(start, hes, closed)

    def __len__(self):
        return len(self.half_edges)

    def end(self, t):
        return t.head(self.half_edges[-1]) if self.half_edges else self.start

    def reversed(self, t):
        hes = tuple(t.twin[h] for h in reversed(self.half_edges))
        if any(h == NO_TWIN for h in hes):
            raise WalkError("cannot reverse across a boundary edge")
        return Walk.from_half_edges(t, hes, self.closed, start=self.start)


def corner_positions(w):
    """Corner i sits between edges i-1 and i; closed walks wrap at i = 0."""
    n = len(w.half_edges)
    if w.closed:
        return range(n) if n else range(0)
    return range(1, n)


def turn(t, w, i):
    hes = w.half_edges
    e1 = hes[i - 1] if i > 0 else hes[-1]
    if i == 0 and not w.closed:
        raise WalkError("position 0 of an open walk has no turn")
    e2 = hes[i]
    return turn_at(t, e1, e2)


def _slot_position(t, slots, h):
    """Position of h among `slots`; ValueError if it is not one of them."""
    i = t.slot_index[h]
    if 0 <= i < len(slots) and slots[i] == h:
        return i
    return slots.index(h)


def turn_at(t, e1, e2):
    v = t.head(e1)
    if t.tail(e2) != v:
        raise WalkError("edges not incident")
    if t.is_boundary_vertex(v):
        raise BoundaryTurnError("turn at boundary vertex %d" % v)
    slots = t.vertex_slots[v]
    d = len(slots)
    steps = (_slot_position(t, slots, e2)
             - _slot_position(t, slots, t.twin[e1])) % d
    return Turn(steps, d, t.color_left(e1))


def classify(turn_):
    k = turn_.signed_value
    if k in (0, 1, -1):
        return BAD
    if abs(k) == 2 and turn_.subscript == RED:
        return BAD
    return GOOD


def is_reduced(t, w):
    return all(classify(turn(t, w, i)) == GOOD for i in corner_positions(w))


def _rewrite(t, e1, e2, k):
    """Replacement edge list for the bad corner (e1, e2) of signed value k."""
    nxt, twn, prv = t.next, t.twin, t.prev
    if k == 0:
        return []
    if k == 1:
        return [twn[nxt[nxt[e1]]]]
    if k == -1:
        return [nxt[twn[e1]]]
    if k == 2:
        return [twn[prv(e1)], twn[nxt[e2]]]
    if k == -2:
        return [nxt[twn[e1]], prv(twn[e2])]
    raise WalkError("not a bad turn: %d" % k)


# corner kinds, each with a heap of corner labels: a bad corner's kind is
# the absolute value of its turn
SPUR, ONE, TWO_R, RAISES = range(4)


class _Reduction:
    """A walk under rewriting.

    Labels index the parallel lists: `edge`, the neighbours `nxt`/`prv`
    (-1 past the ends of an open walk, cyclic for a closed one), and per
    corner (keyed by the label of its second edge) `kind`, `value` (the
    signed turn, or the exception the turn raises) and `pair` (the hash of
    its two edges, summed in `pair_sum`).
    """

    def __init__(self, t, w):
        self.t = t
        self.walk = w
        self.closed = w.closed
        n = len(w.half_edges)
        self.edge = list(w.half_edges)
        self.nxt = list(range(1, n + 1))
        self.prv = list(range(-1, n - 1))
        if n:
            self.nxt[-1] = 0 if w.closed else -1
            self.prv[0] = n - 1 if w.closed else -1
        self.first = 0 if n else -1
        self.size = n
        self.start = w.start
        self.steps = 0
        self.kind = [None] * n
        self.value = [None] * n
        self.pair = [0] * n
        self.pair_sum = 0
        self.heaps = ([], [], [], [])
        for x in range(n):
            self._classify(x)

    def _classify(self, x):
        """Classify the corner at label x afresh (none at an open start)."""
        self.pair_sum -= self.pair[x]
        p = self.prv[x]
        if p < 0:
            self.pair[x] = 0
            self.kind[x] = None
            return
        e1, e2 = self.edge[p], self.edge[x]
        self.pair[x] = h = hash((e1, e2))
        self.pair_sum += h
        try:
            tu = turn_at(self.t, e1, e2)
        except (BoundaryTurnError, WalkError, ValueError) as exc:
            kind, k = RAISES, exc
        else:
            k = tu.signed_value if classify(tu) == BAD else None
            kind = None if k is None else abs(k)
        self.kind[x] = kind
        self.value[x] = k
        if kind is not None:
            heappush(self.heaps[kind], x)

    def _leftmost(self, kind):
        heap, kinds = self.heaps[kind], self.kind
        while heap and kinds[heap[0]] != kind:
            heappop(heap)
        return heap[0] if heap else None

    def _unlink(self, x):
        p, q = self.prv[x], self.nxt[x]
        if p >= 0:
            self.nxt[p] = q
        if q >= 0:
            self.prv[q] = p
        self.size -= 1
        if self.first == x:
            self.first = q if self.size else -1
        self.pair_sum -= self.pair[x]
        self.pair[x] = 0
        self.kind[x] = None

    def _grow(self, x, h):
        """Make the one-edge closed walk x two edges long: h goes after x,
        under label x + 1 (no label after x is in use)."""
        y = x + 1
        if y == len(self.edge):
            for lst in (self.edge, self.nxt, self.prv, self.kind, self.value):
                lst.append(None)
            self.pair.append(0)
        self.edge[y] = h
        self.nxt[x] = self.prv[x] = y
        self.nxt[y] = self.prv[y] = x
        self.size = 2
        return y

    def step(self):
        """Rewrite the next bad corner; False when the walk is reduced."""
        spur, raises = self._leftmost(SPUR), self._leftmost(RAISES)
        if raises is not None and (spur is None or raises < spur):
            raise self.value[raises]
        b = spur
        for kind in (ONE, TWO_R):
            if b is None:
                b = self._leftmost(kind)
        if b is None:
            return False
        edge, nxt = self.edge, self.nxt
        a = self.prv[b]
        repl = _rewrite(self.t, edge[a], edge[b], self.value[b])
        # the new edges take the labels of a then b, in walk order; the
        # wrap corner of a closed walk (b first, a last) is no exception
        if a == b:  # the one corner of a one-edge closed walk
            if len(repl) == 2:
                edge[b] = repl[1]
                touched = [b, self._grow(b, repl[0])]
            elif repl:
                edge[b] = repl[0]
                touched = [b]
            else:
                self._unlink(b)
                touched = []
        elif len(repl) == 2:
            edge[a], edge[b] = repl
            touched = [a, b, nxt[b]]
        elif repl:
            edge[a] = repl[0]
            self._unlink(b)
            touched = [a, nxt[a]]
        else:
            self._unlink(a)
            self._unlink(b)
            touched = [nxt[b]] if self.size else []
        touched = sorted({x for x in touched if x >= 0})
        self._check_junctions(touched)
        for x in touched:
            self._classify(x)
        if self.size:
            self.start = self.t.tail(edge[self.first])
        self.steps += 1
        return True

    def _check_junctions(self, labels):
        """Raise what Walk.from_half_edges raises on the new walk: only the
        edge pairs ending at these labels (in walk order) are new."""
        t, edge = self.t, self.edge
        wraps = True
        for x in labels:
            p = self.prv[x]
            if p >= 0 and t.head(edge[p]) != t.tail(edge[x]):
                if x != self.first:
                    raise WalkError("half-edges %d,%d not consecutive"
                                    % (edge[p], edge[x]))
                wraps = False
        if not wraps:
            raise WalkError("closed walk does not wrap")

    def half_edges(self):
        out = []
        x = self.first
        for _ in range(self.size):
            out.append(self.edge[x])
            x = self.nxt[x]
        return tuple(out)

    def key(self):
        """Equal for equal states (closed walks: up to rotation)."""
        if self.closed or not self.size:
            return self.size, self.pair_sum
        return self.size, self.pair_sum, self.edge[self.first]

    def result(self):
        if not self.steps:
            return self.walk
        if self.size:
            return Walk.from_half_edges(self.t, self.half_edges(),
                                        self.closed)
        return Walk(self.start, (), self.closed)


def _same_state(a, b, closed):
    if not closed or a == b:
        return a == b
    if len(a) != len(b):
        return False
    sa, sb = ",".join(map(str, a)), ",".join(map(str, b))
    return ",%s," % sb in ",%s,%s," % (sa, sa)


def _recurs(t, w, earlier, state):
    """Whether the reduction of w passes through `state` at one of the
    (ascending) step numbers `earlier`: replays it from the start."""
    r = _Reduction(t, w)
    for i in earlier:
        while r.steps < i:
            r.step()
        if _same_state(r.half_edges(), state, w.closed):
            return True
    return False


def _reduce(w, t, budget):
    """Run the rewrites; returns the reduction and None (reduced), "cycle"
    (the first state equal to an earlier one) or "budget"."""
    if budget is None:
        budget = 4 * (len(w) + 1) * (len(t.next) + 1)
    r = _Reduction(t, w)
    seen = {r.key(): [0]}
    for step in range(1, budget + 1):
        if not r.step():
            return r, None
        earlier = seen.setdefault(r.key(), [])
        if earlier and _recurs(t, w, earlier, r.half_edges()):
            return r, "cycle"
        earlier.append(step)
    return r, "budget"


def reduce_open(w, t, budget=None):
    """The reduced walk homotopic to w with the same endpoints.

    Unique on simply connected hosts; raises ReductionStalled if the rewrite
    system revisits a state (which certifies the host is not one).
    """
    if w.closed:
        raise WalkError("reduce_open needs an open walk")
    r, stall = _reduce(w, t, budget)
    if stall == "cycle":
        raise ReductionStalled("state recurred")
    if stall == "budget":
        raise ReductionStalled("budget exhausted")
    return r.result()


@dataclass(frozen=True)
class Reduced:
    walk: object


@dataclass(frozen=True)
class Stalled:
    walk: object
    reason: str  # "cycle" or "budget"


def reduce_closed(w, t, budget=None):
    if not w.closed:
        raise WalkError("reduce_closed needs a closed walk")
    r, stall = _reduce(w, t, budget)
    if stall is None:
        return Reduced(r.result())
    return Stalled(r.result(), stall)


# -- fixtures --------------------------------------------------------------

def torus_stalled_walk(t):
    """A closed torus walk whose homotopy class has no reduced representative.

    On build_torus() this is the east-then-south walk: its class is not a
    power of a single straight direction, while every reduced closed walk on
    this triangulation runs straight (uniformly 3_r or 3_b).
    """
    return Walk.from_half_edges(t, (0, 5), closed=True)


# -- text format -----------------------------------------------------------

def write_walk(w):
    hes = ",".join(str(h) for h in w.half_edges) if w.half_edges else "-"
    return "walk closed=%d start=%d he=%s\n" % (int(w.closed), w.start, hes)


def read_walk(text, t):
    walks = []

    def walk(fields):
        if fields["closed"] not in ("0", "1"):
            raise ValueError("closed must be 0 or 1")
        start = int(fields["start"])
        if not 0 <= start < t.num_vertices:
            raise ValueError("start vertex %d out of range" % start)
        hes = int_list(fields["he"], len(t.next))
        walks.append(Walk.from_half_edges(t, hes, fields["closed"] == "1",
                                          start=start))

    records(text, {"walk": (0, walk)})
    if len(walks) != 1:
        raise FormatError("expected one walk record, found %d" % len(walks))
    return walks[0]
