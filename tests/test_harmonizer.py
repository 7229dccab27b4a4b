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
    StaleMoveError,
    State,
    apply_balancing,
    apply_flip,
    apply_shortening,
    find_balancing,
    find_flip,
    find_shortening,
    flip_at,
    harmonize,
    is_locally_stable,
    is_proper_monotonic,
    left_blue_direction,
    proper_monotonic_ordering,
    read_trace,
    shortening_at,
    write_trace,
)
from redtri.surface import BLUE, RED
from redtri.walkcalc import Walk

from conftest import closed_left_cycle, random_drawing


@pytest.fixture(scope="module")
def doubled():
    return surface.double_with_gadgets(surface.crown(4))


def state_of(f):
    return State(factor_simplicial(f))


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
    before = st.total_length()
    apply_flip(st, m)
    st.check_consistent()
    assert st.total_length() == before
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
    st.check_consistent()
    assert st.total_length() == 0
    assert st.find(0) == st.find(1)


def test_shortening_two_slots(doubled):
    t = doubled
    x, (s1, s2) = pick_slots(t, 2)
    st = state_of(star_drawing(t, x, [s1, s2]))
    m = shortening_at(st, 0)
    assert m is not None and m.run == (s1, s2)
    apply_shortening(st, m)
    st.check_consistent()
    assert st.total_length() == 1
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
    st.check_consistent()
    assert st.total_length() == 2
    assert st.target[st.find(0)] == t.head(s2)


def test_no_shortening_with_spread_slots(doubled):
    t = doubled
    x, s1, s2, _ = blue_corner(t)
    st = state_of(corner_drawing(t, x, s1, s2))
    # slots two apart are not clockwise-consecutive
    assert shortening_at(st, 1) is None


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
    before = st.total_length()
    apply_balancing(st, m)
    st.check_consistent()
    assert st.total_length() < before


def test_balancing_left_pull_l2_rotates_ccw(doubled):
    t = doubled
    cyc = geodesic_cycle(t)
    _, _, l2, _ = corner_slots(t, cyc)
    st = state_of(cycle_drawing(t, cyc, extra=[l2]))
    m = find_balancing(st)
    assert m is not None and m.rotation == CCW
    before = st.total_length()
    apply_balancing(st, m)
    st.check_consistent()
    assert st.total_length() < before


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


# -- trace and routine -----------------------------------------------------

def test_trace_roundtrip():
    tr = MoveTrace()
    tr.append("flip", (3,), 7, 7, 1)
    tr.append("short", (2,), 7, 5, 2)
    tr.append("bal", (0, 4, 1), 5, 2, 3)
    txt = write_trace(tr)
    tr2 = read_trace(txt)
    assert tr2.entries == tr.entries
    assert write_trace(tr2) == txt
    assert tr.counters() == {"step1": 1, "step2": 0, "step3": 0,
                             "interrupts": 2}


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
    state.check_consistent()
    for r in state.cluster_vertices():
        assert state.darts(r) == scan_darts(state, r)
        assert harmonizer._has_loop(state, r) == scan_has_loop(state, r)


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
                     if harmonizer._has_loop(state, r))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the torus warning
        harmonize(f, audit=audit)
    assert kinds
    if (host_name, seed) == ("doubled", 81):
        assert "Balancing" in kinds
    if host_name == "torus":
        assert loops
