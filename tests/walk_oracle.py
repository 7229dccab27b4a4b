"""The scan reducer that `redtri.walkcalc` used before its incremental
engine, kept as a test oracle.  One change: a turn that reads a half-edge
missing from the rotation (the host's twins disagree with its rotations)
raises the WalkError the library documents, where `tuple.index` raised
ValueError.

Every step rescans all corners of the walk (`_find_bad`), rebuilds and
revalidates the whole walk (`_apply_at`) and remembers every state in a set
(closed walks up to rotation, via `_canonical`).  It is quadratic in the
walk length, but simple enough to trust; `test_walkcalc.py` checks that the
engine returns and raises exactly what this code does.
"""

from redtri.walkcalc import (
    BAD,
    BoundaryTurnError,
    Reduced,
    ReductionStalled,
    Stalled,
    Turn,
    Walk,
    WalkError,
    classify,
)


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


def turn_at(t, e1, e2):
    v = t.head(e1)
    if t.tail(e2) != v:
        raise WalkError("edges not incident")
    if t.is_boundary_vertex(v):
        raise BoundaryTurnError("turn at boundary vertex %d" % v)
    slots = t.vertex_slots[v]
    d = len(slots)
    enter = t.twin[e1]
    steps = (_position(slots, e2) - _position(slots, enter)) % d
    return Turn(steps, d, t.color_left(e1))


def _position(slots, h):
    if h not in slots:
        raise WalkError("half-edge %d is not in the rotation at the turn"
                        % h)
    return slots.index(h)


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


def _find_bad(t, w):
    """Position of the next corner to rewrite: spurs, then 1-turns, then 2_r."""
    found = {0: None, 1: None, 2: None}
    for i in corner_positions(w):
        tu = turn(t, w, i)
        if classify(tu) == BAD:
            a = abs(tu.signed_value)
            if found[a] is None:
                found[a] = (i, tu.signed_value)
            if a == 0:
                break
    for a in (0, 1, 2):
        if found[a] is not None:
            return found[a]
    return None


def _reduced(t, w):
    """Whether no corner of w is bad or raises."""
    try:
        return _find_bad(t, w) is None
    except (BoundaryTurnError, WalkError):
        return False


def _apply_at(t, w, i, k):
    hes = list(w.half_edges)
    if i == 0:  # wrap corner of a closed walk
        repl = _rewrite(t, hes[-1], hes[0], k)
        hes = hes[1:-1]
        # split the replacement across the wrap: last edge(s) in front
        if len(repl) == 1:
            hes = hes + repl
        elif len(repl) == 2:
            hes = [repl[1]] + hes + [repl[0]]
    else:
        repl = _rewrite(t, hes[i - 1], hes[i], k)
        hes[i - 1:i + 1] = repl
    if hes:
        return Walk.from_half_edges(t, hes, w.closed)
    return Walk(w.start, (), w.closed)


def reduce_open(w, t, budget=None):
    """The reduced walk homotopic to w with the same endpoints.

    Unique on simply connected hosts; raises ReductionStalled if the rewrite
    system revisits a state (which certifies the host is not one).
    """
    if w.closed:
        raise WalkError("reduce_open needs an open walk")
    if budget is None:
        budget = 4 * (len(w) + 1) * (len(t.next) + 1)
    seen = {w.half_edges}
    for _ in range(budget):
        nxt = _find_bad(t, w)
        if nxt is None:
            return w
        w = _apply_at(t, w, *nxt)
        if w.half_edges in seen:
            raise ReductionStalled("state recurred")
        seen.add(w.half_edges)
    if _reduced(t, w):     # by the last rewrite the budget allows
        return w
    raise ReductionStalled("budget exhausted")


def _canonical(w):
    """Closed walks compare up to cyclic rotation."""
    hes = w.half_edges
    if not hes:
        return hes
    return min(hes[i:] + hes[:i] for i in range(len(hes)))


def reduce_closed(w, t, budget=None):
    if not w.closed:
        raise WalkError("reduce_closed needs a closed walk")
    if budget is None:
        budget = 4 * (len(w) + 1) * (len(t.next) + 1)
    seen = {_canonical(w)}
    for _ in range(budget):
        nxt = _find_bad(t, w)
        if nxt is None:
            return Reduced(w)
        w = _apply_at(t, w, *nxt)
        key = _canonical(w)
        if key in seen:
            return Stalled(w, "cycle")
        seen.add(key)
    if _reduced(t, w):     # by the last rewrite the budget allows
        return Reduced(w)
    return Stalled(w, "budget")
