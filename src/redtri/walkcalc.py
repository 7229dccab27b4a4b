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
replaces, so labels keep the order of the walk.  A lazy-deletion heap of
corner labels per bad kind (and one for corners that raise) finds the next
corner.  Set-up classifies the corners in label order, so each kind's list
is a heap as it grows; a step classifies again only the corners next to
its rewrite, each turn from two slot indices (`_turn_steps` names errors).
A state key (length plus a sum over consecutive edge pairs, cyclic for
closed walks, of a 64-bit mix of the pair) is kept in O(1), and a replay
confirms a key hit exactly.  CPython's hash((e1, e2)) of small ints is
near additive: a sum of it collides whenever edge-id sums agree.  Set-up
is O(L), a step O(log L); only the budget bounds the steps.
"""

from dataclasses import dataclass
from heapq import heappop, heappush

from .surface import RED, FormatError, int_list, records

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
        hes, origin, nxt = tuple(hes), t.origin, t.next
        if hes and not (0 <= min(hes) and max(hes) < len(nxt)):
            raise WalkError("half-edge %d out of range" % next(
                h for h in hes if not 0 <= h < len(nxt)))
        for a, b in zip(hes, hes[1:]):
            if origin[nxt[a]] != origin[b]:
                raise WalkError("half-edges %d,%d not consecutive" % (a, b))
        if hes:
            start = origin[hes[0]]
            if closed and origin[nxt[hes[-1]]] != start:
                raise WalkError("closed walk does not wrap")
        elif start is None:
            raise WalkError("empty walk needs a start vertex")
        elif not 0 <= start < t.num_vertices:
            raise WalkError("start vertex %d out of range" % start)
        return cls(start, hes, closed)

    def __len__(self):
        return len(self.half_edges)

    def end(self, t):
        return t.head(self.half_edges[-1]) if self.half_edges else self.start


def _turn_steps(t, e1, e2):
    """(clockwise steps, degree) of the turn from e1 into e2, the one turn
    computation of turn_at and the reduction's corners it cannot take.
    WalkError for a half-edge no slot holds, as when the twins disagree."""
    v = t.origin[t.next[e1]]
    if t.origin[e2] != v:
        raise WalkError("edges not incident")
    if t.is_boundary_vertex(v):
        raise BoundaryTurnError("turn at boundary vertex %d" % v)
    slots, enter = t.vertex_slots[v], t.twin[e1]
    for h in (e2, enter):
        if h not in slots:
            raise WalkError("half-edge %d is not in the rotation at the turn"
                            % h)
    return (slots.index(e2) - slots.index(enter)) % len(slots), len(slots)


def turn_at(t, e1, e2):
    return Turn(*_turn_steps(t, e1, e2), t.color_left(e1))


def classify(turn_):
    k = turn_.signed_value
    bad = k in (0, 1, -1) or abs(k) == 2 and turn_.subscript == RED
    return BAD if bad else GOOD


def is_reduced(t, w):
    """Whether every corner of w, the wrap corner first, is good."""
    hes = w.half_edges
    pairs = zip(hes[-1:] + hes, hes) if w.closed else zip(hes, hes[1:])
    return all(classify(turn_at(t, a, b)) == GOOD for a, b in pairs)


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
    signed turn, or the exception the turn raises) and `pair` (the mix of
    its two edges, summed in `pair_sum`).
    """

    def __init__(self, t, w):
        self.t, self.walk, self.closed = t, w, w.closed
        n = len(w.half_edges)
        self.edge = list(w.half_edges)
        self.nxt = list(range(1, n + 1))
        self.prv = list(range(-1, n - 1))
        if n:
            self.nxt[-1] = 0 if w.closed else -1
            self.prv[0] = n - 1 if w.closed else -1
        self.first = 0 if n else -1
        self.size, self.start, self.steps = n, w.start, 0
        self.kind, self.value, self.pair = [None] * n, [None] * n, [0] * n
        self.pair_sum = 0
        self.heaps = ([], [], [], [])
        # in ascending order, each kind's list is a heap as it grows
        self._classify(range(n), list.append)

    def _classify(self, labels, push):
        """Classify the corners at these labels afresh (none at an open
        start), and push(heap, label) each bad or raising one; `_turn_steps`
        takes a turn only where its slots cannot, to name its error."""
        t, edge, prv, pair, kinds, value = (
            self.t, self.edge, self.prv, self.pair, self.kind, self.value)
        origin, nxt, twin, at = t.origin, t.next, t.twin, t.slot_index
        on_boundary, heaps = t._vertex_on_boundary, self.heaps
        for x in labels:
            self.pair_sum -= pair[x]
            p = prv[x]
            if p < 0:
                pair[x] = 0
                kinds[x] = None
                continue
            e1, e2 = edge[p], edge[x]
            # the pair's 64-bit mix: a multiply-xorshift of e1 * 2**32 + e2
            z = (e1 << 32 | e2) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
            pair[x] = h = z ^ z >> 29
            self.pair_sum += h
            k, v = None, origin[nxt[e1]]
            if origin[e2] == v and not on_boundary[v]:
                slots, j = t.vertex_slots[v], at[twin[e1]]
                d = len(slots)
                if j < d and slots[j] == twin[e1]:
                    k = (at[e2] - j) % d
            if k is None:
                try:
                    k, d = _turn_steps(t, e1, e2)
                except (BoundaryTurnError, WalkError) as exc:
                    kinds[x], value[x] = RAISES, exc
                    push(heaps[RAISES], x)
                    continue
            if 2 * k > d:
                k -= d
            kind = abs(k)
            if kind > 2 or kind == 2 and t.color_left(e1) != RED:
                kinds[x] = value[x] = None
            else:
                kinds[x], value[x] = kind, k
                push(heaps[kind], x)

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
        kinds, b = self.kind, None
        for kind in (SPUR, RAISES, ONE, TWO_R):
            heap = self.heaps[kind]
            while heap and kinds[heap[0]] != kind:
                heappop(heap)
            if heap and (b is None or kind == RAISES and heap[0] < b):
                if kind == RAISES:
                    raise self.value[heap[0]]
                b = heap[0]
        if b is None:
            return False
        t, edge, nxt = self.t, self.edge, self.nxt
        a = self.prv[b]
        if self.size <= 2 and self.steps:  # read only once it is empty
            self.start = t.origin[edge[self.first]]
        repl = _rewrite(t, edge[a], edge[b], self.value[b])
        for h in repl:  # Walk.from_half_edges's checks on the new walk
            if not 0 <= h < len(t.next):
                raise WalkError("half-edge %d out of range" % h)
        # the new edges take the labels of a then b, in walk order; the
        # wrap corner of a closed walk (b first, a last) is no exception.
        # The touched labels follow a in the walk, and go in label order
        if a == b:  # the one corner of a one-edge closed walk
            if len(repl) == 2:
                edge[b] = repl[1]
                touched = (b, self._grow(b, repl[0]))
            elif repl:
                edge[b] = repl[0]
                touched = (b,)
            else:
                self._unlink(b)
                touched = ()
        elif len(repl) == 2:
            edge[a], edge[b] = repl
            c = nxt[b]
            touched = ((a, b) if c < 0 or c == a and a < b
                       else (b, a) if c == a
                       else (b, c, a) if b < a
                       else (c, a, b) if c < b else (a, b, c))
        elif repl:
            edge[a] = repl[0]
            self._unlink(b)
            c = nxt[a]
            touched = (a,) if c < 0 or c == a else (a, c) if a < c else (c, a)
        else:
            self._unlink(a)
            self._unlink(b)
            touched = (nxt[b],) if self.size and nxt[b] >= 0 else ()
        origin, hnxt, prv, wraps = t.origin, t.next, self.prv, True
        for x in touched:
            p = prv[x]
            if p >= 0 and origin[hnxt[edge[p]]] != origin[edge[x]]:
                if x != self.first:
                    raise WalkError("half-edges %d,%d not consecutive"
                                    % (edge[p], edge[x]))
                wraps = False
        if not wraps:
            raise WalkError("closed walk does not wrap")
        self._classify(touched, heappush)
        self.steps += 1
        return True

    def half_edges(self):
        out, x = [], self.first
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
    # each key's step, or once it repeats, the list of its steps
    seen = {r.key(): 0}
    for step in range(1, budget + 1):
        if not r.step():
            return r, None
        earlier = seen.setdefault(r.key(), step)
        if earlier == step:
            continue
        earlier = earlier if isinstance(earlier, list) else [earlier]
        if _recurs(t, w, earlier, r.half_edges()):
            return r, "cycle"
        seen[r.key()] = earlier + [step]
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
        closed = fields.pop("closed")
        if closed not in ("0", "1"):
            raise ValueError("closed must be 0 or 1")
        start = int(fields.pop("start"))
        if not 0 <= start < t.num_vertices:
            raise ValueError("start vertex %d out of range" % start)
        hes = int_list(fields.pop("he"), len(t.next))
        if hes and t.tail(hes[0]) != start:
            raise ValueError("start %d is not the tail of half-edge %d"
                             % (start, hes[0]))
        walks.append(Walk.from_half_edges(t, hes, closed == "1",
                                          start=start))

    records(text, {"walk": (0, walk)})
    if len(walks) != 1:
        raise FormatError("expected one walk record, found %d" % len(walks))
    return walks[0]
