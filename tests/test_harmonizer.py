import itertools
import random
import warnings

import pytest

from redtri import harmonizer, surface
from redtri.drawing import Drawing, Graph, factor_simplicial
from redtri.harmonizer import (
    CCW,
    CW,
    BudgetExhausted,
    HarmonizerError,
    InvariantError,
    MoveTrace,
    Shortening,
    StaleMoveError,
    State,
    apply_balancing,
    apply_flip,
    apply_shortening,
    find_balancing,
    flip_at,
    harmonize,
    is_locally_stable,
    left_blue_direction,
    proper_monotonic_ordering,
    write_trace,
)
from redtri.surface import BLUE, RED, Triangulation, glue, new_face
from redtri.walkcalc import Walk

from conftest import closed_left_cycle, random_drawing
from move_oracle import (
    check_consistent,
    corner_moves,
    has_loop,
    is_proper_monotonic,
)


@pytest.fixture(scope="module")
def doubled():
    return surface.double_with_gadgets(surface.crown(4))


def state_of(f):
    return State(factor_simplicial(f))


def shortening_at(state, r):
    fields = harmonizer._corner_moves(state, r, state.darts(r))[1]
    return None if fields is None else Shortening(r, *fields, state.version)


def blue_corner(t):
    """(x, s1, s2, mid): a flip corner at some vertex of degree >= 6."""
    for x in range(t.num_vertices):
        slots = t.vertex_slots[x]
        d = len(slots)
        if d < 6:
            continue
        for i, s1 in enumerate(slots):
            if t.color_left(s1) == BLUE:
                return x, s1, slots[(i + 2) % d], slots[(i + 1) % d]
    raise AssertionError("no flip corner found")


def corner_drawing(t, x, s1, s2):
    """Path 0-1-2 with vertex 1 at x entering along s1 and leaving along s2."""
    g = Graph(3, [(0, 1), (1, 2)])
    vmap = [t.head(s1), x, t.head(s2)]
    emap = [Walk.from_half_edges(t, (t.twin[s1],), start=vmap[0]),
            Walk.from_half_edges(t, (s2,), start=x)]
    return Drawing(g, t, vmap, emap)


def test_flip_found_and_applied(doubled):
    t = doubled
    x, s1, s2, mid = blue_corner(t)
    st = state_of(corner_drawing(t, x, s1, s2))
    m = flip_at(st, 1)
    assert m is not None
    assert (m.s1, m.s2) == (s1, s2)
    assert m.target == t.head(mid)
    before = st.length
    apply_flip(st, m)
    check_consistent(st)
    assert st.length == before
    assert st.target[st.find(1)] == t.head(mid)


def test_flip_turns_source_into_sink(doubled):
    t = doubled
    x, s1, s2, _ = blue_corner(t)
    st = state_of(corner_drawing(t, x, s1, s2))
    r = st.find(1)
    assert all(tail == r for tail, _ in left_blue_direction(st).values())
    apply_flip(st, flip_at(st, 1))
    r = st.find(1)
    assert all(head == r for _, head in left_blue_direction(st).values())
    # the mirror corner is red-side first, so no second flip at the vertex
    assert flip_at(st, 1) is None


def test_flip_stale_rejected(doubled):
    t = doubled
    x, s1, s2, _ = blue_corner(t)
    st = state_of(corner_drawing(t, x, s1, s2))
    m = flip_at(st, 1)
    apply_flip(st, m)
    with pytest.raises(StaleMoveError):
        apply_flip(st, m)


def pick_slots(t, count):
    for x in range(t.num_vertices):
        slots = t.vertex_slots[x]
        if len(slots) >= 6:
            return x, [slots[i] for i in range(count)]
    raise AssertionError("no suitable vertex")


def star_drawing(t, x, out_slots):
    g = Graph(1 + len(out_slots), [(0, i + 1) for i in range(len(out_slots))])
    vmap = [x] + [t.head(s) for s in out_slots]
    emap = [Walk.from_half_edges(t, (s,), start=x) for s in out_slots]
    return Drawing(g, t, vmap, emap)


def test_shortening_one_slot(doubled):
    x, (s1,) = pick_slots(doubled, 1)
    st = state_of(star_drawing(doubled, x, [s1]))
    m = shortening_at(st, 0)
    assert m is not None and m.run == (s1,)
    assert m.target == doubled.head(s1)
    apply_shortening(st, m)
    check_consistent(st)
    assert st.length == 0
    assert st.find(0) == st.find(1)


def test_shortening_two_slots(doubled):
    t = doubled
    x, (s1, s2) = pick_slots(t, 2)
    st = state_of(star_drawing(t, x, [s1, s2]))
    m = shortening_at(st, 0)
    assert m is not None and m.run == (s1, s2)
    apply_shortening(st, m)
    check_consistent(st)
    assert st.length == 1
    assert st.target[st.find(0)] == t.head(s1)
    # the surviving edge runs from head(s1) to head(s2)
    keep = st.image[1]
    assert t.tail(keep) == t.head(s1) and t.head(keep) == t.head(s2)


def test_shortening_three_slots(doubled):
    t = doubled
    x, (s1, s2, s3) = pick_slots(t, 3)
    st = state_of(star_drawing(t, x, [s1, s2, s3]))
    m = shortening_at(st, 0)
    assert m is not None and m.run == (s1, s2, s3)
    apply_shortening(st, m)
    check_consistent(st)
    assert st.length == 2
    assert st.target[st.find(0)] == t.head(s2)


def test_no_shortening_with_spread_slots(doubled):
    t = doubled
    x, s1, s2, _ = blue_corner(t)
    st = state_of(corner_drawing(t, x, s1, s2))
    # slots two apart are not clockwise-consecutive
    assert shortening_at(st, 1) is None


def fan_state(t, x, out_slots):
    """Vertex 0 at x with one edge per slot; every other edge points into
    vertex 0, so its dart there is the edge's end 1."""
    edges, emap = [], []
    for i, s in enumerate(out_slots):
        if i % 2:
            edges.append((i + 1, 0))
            emap.append(Walk.from_half_edges(t, (t.twin[s],), start=t.head(s)))
        else:
            edges.append((0, i + 1))
            emap.append(Walk.from_half_edges(t, (s,), start=x))
    vmap = [x] + [t.head(s) for s in out_slots]
    return state_of(Drawing(Graph(len(vmap), edges), t, vmap, emap))


def corner_cases(t):
    """(x, used slots) for every set of 1-3 slots inside a window of five
    consecutive slots at x, counted once (the window starts at a used slot)."""
    for x in range(t.num_vertices):
        slots = t.vertex_slots[x]
        d = len(slots)
        for i in range(d):
            for k in range(3):
                for rest in itertools.combinations(range(1, 5), k):
                    yield x, [slots[i]] + [slots[(i + j) % d] for j in rest]


def brute_corner(t, x, used):
    """The expected flip (s1, s2, mid) and shortening run at x, or None."""
    slots = t.vertex_slots[x]
    d = len(slots)
    flip = None
    pairs = itertools.permutations(used) if len(used) == 2 else ()
    for s1, s2 in pairs:
        if (slots.index(s2) - slots.index(s1)) % d == 2 \
                and t.color_left(s1) == BLUE:
            flip = (s1, s2, slots[(slots.index(s1) + 1) % d])
    run = None
    for s in used:
        cand = [slots[(slots.index(s) + j) % d] for j in range(len(used))]
        if d >= 6 and set(cand) == set(used):
            run = tuple(cand)
    return flip, run


def image_out_of_0(st, e):
    """Edge e's image oriented out of vertex 0, or None once collapsed."""
    h = st.image[e]
    if h is None or st.gbar.edges[e][0] == 0:
        return h
    return st.host.twin[h]


def test_corner_classifier_exhaustive(doubled):
    """flip_at and shortening_at on every small corner of doubled crown4
    agree with a brute-force rule, and applying them gives the images of
    the explicit per-move formulas."""
    t = doubled
    nxt, twn = t.next, t.twin
    flips = shortenings = 0
    for x, used in corner_cases(t):
        flip, run = brute_corner(t, x, used)
        st = fan_state(t, x, used)
        m = flip_at(st, 0)
        assert (m is None) == (flip is None), (x, used)
        if m is not None:
            s1, s2, mid = flip
            assert (m.s1, m.s2, m.target) == (s1, s2, t.head(mid))
            apply_flip(st, m)
            check_consistent(st)
            assert st.target[st.find(0)] == t.head(mid)
            want = {s1: nxt[nxt[twn[s1]]], s2: twn[nxt[s2]]}
            assert [image_out_of_0(st, e) for e in range(len(used))] == \
                [want[s] for s in used]
            flips += 1
        st = fan_state(t, x, used)
        m = shortening_at(st, 0)
        assert (m is None) == (run is None), (x, used)
        if m is not None:
            assert m.run == run
            if len(run) == 1:
                want, to = {run[0]: None}, run[0]
            elif len(run) == 2:
                want = {run[0]: None,
                        run[1]: twn[nxt[nxt[twn[run[0]]]]]}
                to = run[0]
            else:
                want = {run[0]: nxt[nxt[twn[run[0]]]], run[1]: None,
                        run[2]: twn[nxt[run[2]]]}
                to = run[1]
            assert m.target == t.head(to)
            apply_shortening(st, m)
            check_consistent(st)
            assert st.target[st.find(0)] == t.head(to)
            assert [image_out_of_0(st, e) for e in range(len(used))] == \
                [want[s] for s in used]
            shortenings += 1
    assert flips and shortenings


def octahedron():
    """The octahedron, faces colored alternately: every vertex has degree
    four.  It is not reducing, but the corner classifier reads only its
    rotations."""
    cols = [], [], [], []
    sides = {}
    for i in range(4):
        a, b = 2 + i, 2 + (i + 1) % 4
        for vs, color in (((0, a, b), (RED, BLUE)[i % 2]),
                          ((1, b, a), (BLUE, RED)[i % 2])):
            sides.update(zip(zip(vs, vs[1:] + vs[:1]),
                             new_face(cols, *vs, color)))
    for (v, w), h in sides.items():
        if v < w:
            glue(cols, h, sides[w, v])
    return Triangulation(*cols[:3], dict(enumerate(cols[3])))


def test_corner_gap_tie_goes_to_the_later_slot():
    """Two opposite slots at a vertex of degree four leave two gaps of the
    same width, and the run starts after the later one: the flip turns
    from the later slot.  On every 1-3 slots of the octahedron the
    classifier agrees with the oracle's copy of its first formula."""
    t = octahedron()
    flips = 0
    for x in range(t.num_vertices):
        slots = t.vertex_slots[x]
        for k in (1, 2, 3):
            for used in itertools.combinations(slots, k):
                st = fan_state(t, x, list(used))
                moves = harmonizer._corner_moves(st, 0, st.darts(0))
                assert moves == corner_moves(st, 0), (x, used)
                if moves[0] is not None:
                    s1, s2 = moves[0][1:]
                    assert (s1, s2) == (used[1], used[0])
                    assert t.color_left(s1) == BLUE
                    flips += 1
    assert flips == t.num_vertices


def old_remap(t, rotation, step, other_moves, h, l1, l2, other_l):
    """The balancing image formulas, one per case, as first written."""
    nxt, twn = t.next, t.twin
    if step == 0:
        return None
    if rotation == CCW:
        if step == 3:
            return ("set", twn[nxt[nxt[twn[nxt[h]]]]])
        if step == 2:
            return ("set", other_l[2]) if other_moves else ("collapse", None)
        return ("set", twn[l2] if other_moves else nxt[nxt[twn[h]]])
    if step == 3:
        return ("set", twn[nxt[nxt[twn[l1]]]])
    if step == 1:
        return ("set", other_l[1]) if other_moves else ("collapse", None)
    return ("set", twn[l1] if other_moves else twn[nxt[nxt[twn[l1]]]])


def test_remap_dart_formulas(doubled):
    """Every branch of _remap_dart, including the ones no harmonization on
    the test hosts reaches (an l1 or l2 dart whose far end also moves),
    against the explicit formulas.  Mover 0 has its a-slot at every slot of
    every vertex; the far-end mover 1 sits at the dart's head."""
    t = doubled
    for x in range(t.num_vertices):
        slots = t.vertex_slots[x]
        d = len(slots)
        for i, a in enumerate(slots):
            l1, l2 = slots[(i + 1) % d], slots[(i + 2) % d]
            for step in range(5):
                h = slots[(i + step) % d]
                y = t.head(h)
                ys = t.vertex_slots[y]
                corner = {0: (x, a), 1: (y, ys[(ys.index(t.twin[h]) + 3)
                                                 % len(ys)])}

                def lslot(r, k, g=None):
                    at, ar = corner[r]
                    s = t.vertex_slots[at]
                    if g is not None:
                        return (s.index(g) - s.index(ar)) % len(s)
                    return s[(s.index(ar) + k) % len(s)]

                other_l = {k: lslot(1, k) for k in (1, 2)}
                for rotation in (CW, CCW):
                    for other_moves in (False, True):
                        args = (t, 0, 1, h, rotation, other_moves, lslot)
                        if step == 4:   # right of the corner
                            with pytest.raises(InvariantError):
                                harmonizer._remap_dart(*args)
                            continue
                        assert harmonizer._remap_dart(*args) == old_remap(
                            t, rotation, step, other_moves, h, l1, l2,
                            other_l), (x, a, step, rotation, other_moves)


# -- balancing -------------------------------------------------------------

def geodesic_cycle(t):
    for h in range(len(t.next)):
        if t.color_left(h) == RED:
            cyc = closed_left_cycle(t, h)
            w = Walk.from_half_edges(t, cyc, closed=True)
            import redtri.walkcalc as wc
            if wc.is_reduced(t, w):
                return cyc
    raise AssertionError("no reduced closed geodesic found")


def cycle_drawing(t, cyc, extra=()):
    """The cycle drawn on itself, plus pendant edges from vertex 0 along the
    given half-edges."""
    q = len(cyc)
    vmap = [t.tail(h) for h in cyc]
    edges = [(i, (i + 1) % q) for i in range(q)]
    emap = [Walk.from_half_edges(t, (h,), start=t.tail(h)) for h in cyc]
    for h in extra:
        edges.append((0, len(vmap)))
        vmap.append(t.head(h))
        emap.append(Walk.from_half_edges(t, (h,), start=vmap[0]))
    return Drawing(Graph(len(vmap), edges), t, vmap, emap)


def corner_slots(t, cyc):
    """(a, l1, l2, right): slots around the corner of the cycle at vertex 0."""
    a = t.twin[cyc[-1]]
    slots = t.vertex_slots[t.tail(cyc[0])]
    d = len(slots)
    i = slots.index(a)
    return a, slots[(i + 1) % d], slots[(i + 2) % d], slots[(i + 4) % d]


def test_bare_geodesic_cycle_is_stable(doubled):
    cyc = geodesic_cycle(doubled)
    assert is_locally_stable(cycle_drawing(doubled, cyc))


def test_balancing_left_pull_l1(doubled):
    t = doubled
    cyc = geodesic_cycle(t)
    _, l1, _, _ = corner_slots(t, cyc)
    f = cycle_drawing(t, cyc, extra=[l1])
    st = state_of(f)
    m = find_balancing(st)
    assert m is not None
    assert m.color == RED
    assert m.rotation == CW
    assert set(v for v, _ in m.movers) == {st.find(i) for i in range(len(cyc))}
    before = st.length
    apply_balancing(st, m)
    check_consistent(st)
    assert st.length < before


def test_balancing_of_a_long_wrapped_cycle(doubled):
    """A balancing component of thousands of corner copies: the cycle
    search keeps its own stack rather than recursing once per copy."""
    t = doubled
    cyc = geodesic_cycle(t)
    _, l1, _, _ = corner_slots(t, cyc)
    f = cycle_drawing(t, cyc * 600, extra=[l1])
    m = find_balancing(state_of(f))
    assert m is not None and m.color == RED and m.rotation == CW
    assert len(m.movers) == 600 * len(cyc)
    assert not is_locally_stable(f)


def test_balancing_left_pull_l2_rotates_ccw(doubled):
    t = doubled
    cyc = geodesic_cycle(t)
    _, _, l2, _ = corner_slots(t, cyc)
    st = state_of(cycle_drawing(t, cyc, extra=[l2]))
    m = find_balancing(st)
    assert m is not None and m.rotation == CCW
    before = st.length
    apply_balancing(st, m)
    check_consistent(st)
    assert st.length < before


def test_balancing_blocked_by_right_dart(doubled):
    t = doubled
    cyc = geodesic_cycle(t)
    _, l1, _, right = corner_slots(t, cyc)
    st = state_of(cycle_drawing(t, cyc, extra=[l1, right]))
    assert find_balancing(st) is None


def test_balancing_stale_rejected(doubled):
    t = doubled
    cyc = geodesic_cycle(t)
    _, l1, _, _ = corner_slots(t, cyc)
    st = state_of(cycle_drawing(t, cyc, extra=[l1]))
    m = find_balancing(st)
    apply_balancing(st, m)
    with pytest.raises(StaleMoveError):
        apply_balancing(st, m)


def test_opposite_darts_at_degree_six_get_both_copies(doubled):
    """Two darts on opposite slots of a degree-6 vertex fit in four
    consecutive slots from either: both gaps between them span d - 3
    steps.  So the cluster keeps a plain copy of both darts in each split
    graph, at a different a-slot per color."""
    t = doubled
    x = next(v for v in range(t.num_vertices) if len(t.vertex_slots[v]) == 6)
    slots = t.vertex_slots[x]
    ends = (slots[0], slots[3])
    f = Drawing(Graph(3, [(0, 1), (0, 2)]), t,
                [x] + [t.head(h) for h in ends],
                [Walk.from_half_edges(t, (h,), start=x) for h in ends])
    st = state_of(f)
    assert find_balancing(st) is None
    r = st.find(0)
    a_slots = set()
    for split in st.splits:
        (c,) = split.at[r]
        assert [g for _, _, g in split.darts[c]] == list(ends)
        assert split.mark[c] == "plain"
        a_slots.add(c[1])
    assert a_slots == set(ends)


def test_balancing_with_a_repeated_mover_raises(doubled, monkeypatch):
    """A component that holds two corner copies of one cluster is no
    balancing: the search raises, also under `python -O`."""
    t = doubled
    cyc = geodesic_cycle(t)
    a, l1, _, _ = corner_slots(t, cyc)
    st = state_of(cycle_drawing(t, cyc, extra=[l1]))
    cycle = find_balancing(st).cycle
    r = st.find(0)
    monkeypatch.setattr(harmonizer._SplitGraph, "first",
                        lambda split: (cycle, ((r, a), (r, l1))))
    with pytest.raises(InvariantError, match="two corner copies"):
        find_balancing(st)


# -- orderings -------------------------------------------------------------

def chain_state(torus, n):
    """n clusters in a row; the digraphs under test are synthetic."""
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    emap = [Walk.from_half_edges(torus, (0,), start=0) for _ in range(n - 1)]
    return state_of(Drawing(g, torus, [0] * n, emap))


def test_ordering_path(torus):
    st = chain_state(torus, 3)
    dig = {0: (0, 1), 1: (1, 2)}
    order = proper_monotonic_ordering(st, dig)
    assert order == [0, 1, 2]
    assert is_proper_monotonic(st, dig, order)


def test_ordering_diamond(torus):
    st = chain_state(torus, 4)
    dig = {0: (0, 1), 1: (0, 2), 2: (1, 3), 3: (2, 3)}
    order = proper_monotonic_ordering(st, dig)
    assert order[0] == 0 and order[-1] == 3
    assert is_proper_monotonic(st, dig, order)
    assert not is_proper_monotonic(st, dig, list(reversed(order)))


def test_ordering_rejects_cycle(torus):
    st = chain_state(torus, 3)
    with pytest.raises(HarmonizerError):
        proper_monotonic_ordering(st, {0: (0, 1), 1: (1, 2), 2: (2, 0)})


def test_ordering_rejects_two_sources(torus):
    st = chain_state(torus, 3)
    with pytest.raises(HarmonizerError):
        proper_monotonic_ordering(st, {0: (0, 2), 1: (1, 2)})


@pytest.mark.parametrize("dig,message", [
    ({0: (0, 1), 1: (1, 2), 2: (2, 1)}, "digraph is cyclic"),
    ({0: (0, 1), 1: (1, 1), 2: (1, 2)}, "loop edge in digraph"),
])
def test_ordering_rejects_cycle_after_source_and_loop(torus, dig, message):
    st = chain_state(torus, 3)
    with pytest.raises(HarmonizerError, match=message):
        proper_monotonic_ordering(st, dig)


# -- trace and routine -----------------------------------------------------

def test_write_trace_text():
    """The layout `--trace` writes: a balancing names its cycle, the other
    moves their vertex."""
    tr = MoveTrace()
    tr.append("flip", (3,), 7, 7, 1)
    tr.append("short", (2,), 7, 5, 2)
    tr.append("bal", (0, 4, 1), 5, 2, 3)
    assert write_trace(tr) == ("move 0 kind=flip vertex=3 len=7->7 phase=1\n"
                               "move 1 kind=short vertex=2 len=7->5 phase=2\n"
                               "move 2 kind=bal cycle=0,4,1 len=5->2 phase=3\n")


def test_trace_rejects_nonmonotone():
    tr = MoveTrace()
    with pytest.raises(InvariantError):
        tr.append("flip", (0,), 3, 4, 1)
    with pytest.raises(InvariantError):
        tr.append("short", (0,), 3, 3, 1)


def test_harmonize_requires_closed_reducing():
    crown = surface.crown(4)
    g = Graph(1, [])
    with pytest.raises(HarmonizerError):
        harmonize(Drawing(g, crown, [0], []))


def test_harmonize_warns_on_torus(torus):
    g = Graph(2, [(0, 1)])
    f = Drawing(g, torus, [0, 0], [Walk.from_half_edges(torus, (0, 4), start=0)])
    with pytest.warns(UserWarning):
        f2, trace = harmonize(f)
    assert f2.lengths()[1] == 0


def test_budget_exhausted(doubled):
    x, (s1,) = pick_slots(doubled, 1)
    f = star_drawing(doubled, x, [s1])
    with pytest.raises(BudgetExhausted) as ei:
        harmonize(f, budget=0)
    assert len(ei.value.trace) == 1


@pytest.mark.parametrize("seed", range(12))
def test_harmonize_random_drawings(doubled, seed):
    rng = random.Random(seed)
    f = random_drawing(doubled, rng)
    per0, total0 = f.lengths()
    f2, trace = harmonize(f)
    per2, total2 = f2.lengths()
    assert total2 <= total0
    assert all(b <= a for a, b in zip(per0, per2))
    # flips preserve length, strict moves decrease it
    for e in trace.entries:
        if e.kind == "flip":
            assert e.after == e.before
        else:
            assert e.after < e.before
    assert is_locally_stable(f2)
    f3, trace3 = harmonize(f2)
    assert len(trace3) == 0
    assert f3.lengths() == f2.lengths()


def test_harmonize_keeps_graph_and_endpoints(doubled):
    rng = random.Random(99)
    f = random_drawing(doubled, rng)
    f2, _ = harmonize(f)
    assert f2.graph is f.graph or f2.graph.edges == f.graph.edges
    for e, (u, v) in enumerate(f2.graph.edges):
        w = f2.edge_map[e]
        assert w.start == f2.vertex_map[u]
        assert w.end(doubled) == f2.vertex_map[v]


# -- work per move ---------------------------------------------------------

def work_per_move(host, monkeypatch, max_vertices):
    """Corners classified and copies gathered into rebuilt split-graph
    components, per move, over eight drawings of the given size."""
    counts = {"corner": 0, "copies": 0}
    corner_moves = harmonizer._corner_moves
    component = harmonizer._SplitGraph._component

    def counted_corner_moves(state, r, darts):
        counts["corner"] += 1
        return corner_moves(state, r, darts)

    def counted_component(split, state, c0, seen):
        before = len(seen)
        component(split, state, c0, seen)
        counts["copies"] += len(seen) - before

    monkeypatch.setattr(harmonizer, "_corner_moves", counted_corner_moves)
    monkeypatch.setattr(harmonizer._SplitGraph, "_component",
                        counted_component)
    moves = 0
    for seed in range(8):
        f = random_drawing(host, random.Random(seed),
                           max_vertices=max_vertices,
                           max_extra_edges=max_vertices // 2, detour=8)
        moves += len(harmonize(f)[1])
    return {k: n / moves for k, n in counts.items()}


def test_search_work_per_move_stays_flat(doubled, monkeypatch):
    """A move re-examines only the clusters it touched: from drawings of at
    most 16 vertices to ones of at most 120 (about ten times the clusters)
    the search work per move grows by less than 3x.  Scanning every
    cluster before every move, the corner evaluations grow 10x here."""
    small = work_per_move(doubled, monkeypatch, 16)
    large = work_per_move(doubled, monkeypatch, 120)
    for k in small:
        assert large[k] <= 3 * small[k], (k, small, large)


def test_one_dart_listing_per_root_and_search(doubled, monkeypatch):
    """Within one search (a `find_*` or `flip_at` call), no cluster's darts
    are listed twice: the corner classification and both split graphs
    read one list.  Counted over eight seeded harmonizations."""
    listed, counts = set(), {"listings": 0, "repeats": 0}
    darts = State.darts

    def counted_darts(state, r):
        counts["listings"] += 1
        counts["repeats"] += r in listed
        listed.add(r)
        return darts(state, r)

    def one_search(find):
        def search(*args):
            listed.clear()
            return find(*args)
        return search

    monkeypatch.setattr(State, "darts", counted_darts)
    for name in ("find_flip", "find_shortening", "find_balancing",
                 "flip_at"):
        monkeypatch.setattr(harmonizer, name,
                            one_search(getattr(harmonizer, name)))
    for seed in range(8):
        harmonize(random_drawing(doubled, random.Random(seed),
                                 max_vertices=16, detour=8))
    assert counts["listings"] > 0 and counts["repeats"] == 0, counts


class Walked(list):
    """A dart list that counts the passes made over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_one_corner_split_per_pending_cluster(doubled, monkeypatch):
    """Within one balancing search, each pending cluster's darts are split
    into the corner copies of both cycle colors in one pass over its dart
    list, not in one pass per color.  Counted over eight seeded
    harmonizations."""
    walked = []
    find = harmonizer.find_balancing

    def search(state):
        # re-examine the touched clusters first, so that only the split
        # graphs' passes over the pending lists are counted
        harmonizer._refresh(state)
        pending = state.pending
        for r, darts in pending.items():
            if darts is not None:
                pending[r] = Walked(darts)
                walked.append(pending[r])
        return find(state)

    monkeypatch.setattr(harmonizer, "find_balancing", search)
    for seed in range(8):
        harmonize(random_drawing(doubled, random.Random(seed),
                                 max_vertices=16, detour=8))
    assert walked
    assert {w.passes for w in walked} == {1}, \
        sorted({w.passes for w in walked})


# -- dart index ------------------------------------------------------------

def scan_darts(state, r):
    """Cluster r's darts by a scan over every edge: the index's oracle."""
    out = []
    for e, (u, v) in enumerate(state.gbar.edges):
        h = state.image[e]
        if h is None:
            continue
        if state.find(u) == r:
            out.append((e, 0, h))
        if state.find(v) == r:
            out.append((e, 1, state.host.twin[h]))
    return out


def scan_has_loop(state, r):
    return any(state.image[e] is not None
               and state.find(u) == state.find(v) == r
               for e, (u, v) in enumerate(state.gbar.edges))


def assert_index_matches_scan(state):
    """The dart index and the loop test agree with scans over every edge,
    and the classifier, which reads its loop from the dart list, agrees
    with the oracle's, which reads it from the index."""
    check_consistent(state)
    for r in state.cluster_vertices():
        darts = state.darts(r)
        assert darts == scan_darts(state, r)
        assert has_loop(state, r) == scan_has_loop(state, r)
        assert harmonizer._corner_moves(state, r, darts) == \
            corner_moves(state, r)


@pytest.fixture(scope="module")
def subdivided(doubled):
    return surface.subdivide(doubled)


# seed 81 on the doubled host harmonizes with a balancing; the torus host
# has loop edges, so its clusters can hold loops
@pytest.mark.parametrize("host_name,seed", [
    ("doubled", s) for s in (0, 1, 3, 5, 7, 81)] + [
    ("subdivided", s) for s in (0, 1, 5, 7)] + [
    ("torus", s) for s in (1, 7, 13)])
def test_dart_index_matches_scan(request, host_name, seed):
    host = request.getfixturevalue(host_name)
    f = random_drawing(host, random.Random(seed), max_vertices=8, detour=5)
    assert_index_matches_scan(state_of(f))
    kinds = []
    loops = []

    def audit(state, move):
        kinds.append(type(move).__name__)
        assert_index_matches_scan(state)
        loops.extend(r for r in state.cluster_vertices()
                     if has_loop(state, r))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the torus warning
        harmonize(f, audit=audit)
    assert kinds
    if (host_name, seed) == ("doubled", 81):
        assert "Balancing" in kinds
    if host_name == "torus":
        assert loops
