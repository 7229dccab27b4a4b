import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from redtri import surface, walkcalc
from redtri.walkcalc import (
    BAD,
    GOOD,
    BoundaryTurnError,
    Reduced,
    ReductionStalled,
    Stalled,
    Turn,
    Walk,
    WalkError,
    classify,
    is_reduced,
    read_walk,
    reduce_closed,
    reduce_open,
    torus_stalled_walk,
    turn_at,
    write_walk,
)

import walk_oracle
from walk_oracle import corner_positions, turn
from conftest import (
    make_patch,
    pinched_sphere,
    random_closed_walk,
    random_path,
    short_closed_walks,
    tables_of,
    twin_mismatch_doubled_crown4,
    twin_mismatch_torus,
)


def all_closed_walks(t, max_len):
    for n in range(1, max_len + 1):
        for hes in itertools.product(range(len(t.next)), repeat=n):
            try:
                yield Walk.from_half_edges(t, hes, closed=True)
            except walkcalc.WalkError:
                continue


def test_spur_turn_is_zero(torus):
    tu = turn_at(torus, 0, torus.twin[0])
    assert tu.signed_value == 0 and classify(tu) == BAD


def test_straight_through_degree_six(torus):
    # the single-loop closed walk runs straight: antipodal slot
    w = Walk.from_half_edges(torus, (0,), closed=True)
    tu = turn(torus, w, 0)
    assert tu.signed_value == 3
    assert tu.subscript == surface.RED
    assert classify(tu) == GOOD
    assert is_reduced(torus, w)


def test_degree_eight_turn_values():
    # find a degree-8 interior vertex on some generated patch
    for seed in range(20):
        p = make_patch(seed, radius=2)
        vs = [v for v in range(p.num_vertices)
              if not p.is_boundary_vertex(v) and p.degree(v) == 8]
        if not vs:
            continue
        v = vs[0]
        slots = p.vertex_slots[v]
        e2 = slots[0]
        e1 = p.twin[slots[(slots.index(e2) - 4) % 8]]
        tu = turn_at(p, e1, e2)
        assert tu.clockwise_steps == 4
        assert tu.signed_value == 4
        return
    pytest.fail("no degree-8 vertex found")


def test_classify_table():
    assert classify(Turn(2, 6, surface.BLUE)) == GOOD    # 2_b
    assert classify(Turn(4, 6, surface.RED)) == BAD      # -2_r
    assert classify(Turn(3, 6, surface.RED)) == GOOD     # 3_r
    assert classify(Turn(1, 6, surface.BLUE)) == BAD
    assert classify(Turn(5, 6, surface.RED)) == BAD
    assert classify(Turn(0, 8, surface.BLUE)) == BAD


def test_boundary_turn_rejected():
    p = make_patch(0, radius=1)
    # any corner through a boundary vertex
    for h in range(len(p.next)):
        v = p.head(h)
        if p.is_boundary_vertex(v):
            for g in p.vertex_slots[v]:
                with pytest.raises(BoundaryTurnError):
                    turn_at(p, h, g)
            return
    pytest.fail("no boundary corner found")


def test_reduce_open_spur(torus):
    w = Walk.from_half_edges(torus, (0, torus.twin[0]))
    r = reduce_open(w, torus)
    assert len(r) == 0 and r.start == 0


def test_reduce_open_one_turn_corner():
    p = make_patch(3)
    # pick a 1-turn corner whose middle vertex is interior
    for e1 in range(len(p.next)):
        e2 = p.next[e1]
        if p.is_boundary_vertex(p.head(e1)):
            continue
        w = Walk.from_half_edges(p, (e1, e2))
        r = reduce_open(w, p)
        third = p.twin[p.next[p.next[e1]]]
        assert r.half_edges == (third,)
        return
    pytest.fail("no interior corner")


def test_reduce_open_fixpoint():
    p = make_patch(2)
    for h in range(len(p.next)):
        w = Walk.from_half_edges(p, (h,))
        assert reduce_open(w, p).half_edges == (h,)


def test_reduce_open_never_lengthens():
    p = make_patch(5)
    rng = random.Random(9)
    interior = [v for v in range(p.num_vertices) if not p.is_boundary_vertex(v)]
    for _ in range(30):
        v = rng.choice(interior)
        hes = []
        for _ in range(rng.randrange(1, 7)):
            h = rng.choice(p.vertex_slots[v])
            if p.is_boundary_vertex(p.head(h)) and len(hes) < 6:
                continue
            hes.append(h)
            v = p.head(h)
        if not hes or p.is_boundary_vertex(v):
            continue
        if any(p.is_boundary_vertex(p.head(h)) for h in hes[:-1]):
            continue
        w = Walk.from_half_edges(p, hes)
        r = reduce_open(w, p)
        assert is_reduced(p, r)
        assert len(r) <= len(w)
        assert r.start == w.start and r.end(p) == w.end(p)


def test_reduce_closed_all_3r_is_fixpoint(torus):
    w = Walk.from_half_edges(torus, (0, 0, 0), closed=True)
    out = reduce_closed(w, torus)
    assert isinstance(out, Reduced)
    assert out.walk.half_edges == (0, 0, 0)


def test_reduce_closed_spur(torus):
    w = Walk.from_half_edges(torus, (0, 0, 4, 0), closed=True)
    out = reduce_closed(w, torus)
    assert isinstance(out, Reduced)
    assert len(out.walk) == 2


def test_torus_stalled_walk(torus):
    c = torus_stalled_walk(torus)
    vals = sorted(str(turn(torus, c, i)) for i in corner_positions(c))
    assert "-2_r" in vals
    out = reduce_closed(c, torus)
    assert isinstance(out, Stalled)
    assert out.reason == "cycle"


def test_torus_reduced_closed_walks_run_straight(torus):
    for w in all_closed_walks(torus, 4):
        if is_reduced(torus, w):
            strs = {str(turn(torus, w, i)) for i in corner_positions(w)}
            assert strs in ({"3_r"}, {"3_b"})


@given(st.integers(min_value=0, max_value=5999))
@settings(max_examples=60, deadline=None)
def test_badness_reversal_invariant(idx):
    torus = surface.build_torus()
    e1, e2 = idx // 1000 % 6, idx // 100 % 6
    if torus.tail(e2) != torus.head(e1):
        return
    tu = turn_at(torus, e1, e2)
    rv = turn_at(torus, torus.twin[e2], torus.twin[e1])
    assert classify(tu) == classify(rv)
    assert tu.signed_value == -rv.signed_value or tu.signed_value == rv.signed_value == 3


def test_badness_reversal_invariant_on_patch():
    p = make_patch(4)
    rng = random.Random(2)
    pairs = 0
    while pairs < 50:
        e1 = rng.randrange(len(p.next))
        v = p.head(e1)
        if p.is_boundary_vertex(v):
            continue
        e2 = rng.choice(p.vertex_slots[v])
        if p.twin[e1] == surface.NO_TWIN or p.twin[e2] == surface.NO_TWIN:
            continue
        tu = turn_at(p, e1, e2)
        rv = turn_at(p, p.twin[e2], p.twin[e1])
        assert classify(tu) == classify(rv)
        pairs += 1


def test_walk_format_roundtrip(torus):
    for hes, closed in [((0, 5), True), ((0, 4), False), ((), False)]:
        w = Walk.from_half_edges(torus, hes, closed=closed, start=0)
        txt = write_walk(w)
        w2 = read_walk(txt, torus)
        assert w2 == w
        assert write_walk(w2) == txt


def test_walk_validation(torus):
    with pytest.raises(walkcalc.WalkError):
        Walk.from_half_edges(torus, (), closed=False)  # no start
    p = make_patch(0, radius=1)
    # two non-consecutive half-edges
    h = 0
    g = next(g for g in range(len(p.next)) if p.tail(g) != p.head(h))
    with pytest.raises(walkcalc.WalkError):
        Walk.from_half_edges(p, (h, g))


@pytest.mark.parametrize("start", [10**9, -1, 1])
def test_empty_walk_start_range_checked(torus, start):
    """The start vertex of an empty walk is checked when the walk is built;
    the torus has one vertex."""
    with pytest.raises(walkcalc.WalkError, match="out of range"):
        Walk.from_half_edges(torus, (), start=start)
    assert Walk.from_half_edges(torus, (), start=0).start == 0


# -- the incremental engine against the scan reducer ------------------------

HOSTS = {
    "torus": surface.build_torus,
    "doubled crown4": lambda: surface.double_with_gadgets(surface.crown(4)),
    "patch r2": lambda: make_patch(1, radius=2),
    "patch r3": lambda: make_patch(4, radius=3),
    "pinched sphere": lambda: pinched_sphere(surface.RED),
}
_host_cache = {}


def host_and_short_walks(name):
    """The host and all its closed walks of length 1 to 3."""
    if name not in _host_cache:
        t = HOSTS[name]()
        short = [hes for n in (1, 2, 3) for hes in short_closed_walks(t, n)]
        _host_cache[name] = t, short
    return _host_cache[name]


def outcome(reduce, w, t, budget):
    """What a reduction returns, or the type and message of what it
    raises."""
    try:
        return "return", reduce(w, t, budget=budget)
    except (ReductionStalled, BoundaryTurnError, WalkError,
            ValueError) as exc:
        return "raise", type(exc), str(exc)


def assert_matches_oracle(w, t, budget):
    """The outcome of reducing w, which the scan reducer shares."""
    if w.closed:
        new, old = reduce_closed, walk_oracle.reduce_closed
    else:
        new, old = reduce_open, walk_oracle.reduce_open
    got = outcome(new, w, t, budget)
    assert got == outcome(old, w, t, budget)
    return got


@given(st.sampled_from(sorted(HOSTS)),
       st.sampled_from(("open", "closed", "short")),
       st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=0, max_value=40),
       st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
@settings(max_examples=400, deadline=None)
def test_reduction_matches_scan_oracle(name, shape, seed, detour, budget):
    """Same walk (half-edges, start, rotation), stall reason and exception
    as the scan reducer, on closed and bounded hosts, for walks that reach
    the rim of a patch, closed walks of length 1-3, and small budgets."""
    t, short = host_and_short_walks(name)
    rng = random.Random(seed)
    if shape == "open":
        u, v = rng.randrange(t.num_vertices), rng.randrange(t.num_vertices)
        w = Walk.from_half_edges(t, random_path(t, rng, u, v, detour),
                                 start=u)
    elif shape == "closed":
        w = Walk.from_half_edges(t, random_closed_walk(t, rng, detour),
                                 closed=True)
    else:
        w = Walk.from_half_edges(t, rng.choice(short), closed=True)
    assert_matches_oracle(w, t, budget)


@pytest.mark.parametrize("budget", [None, 0, 1, 2, 3, 4, 5])
def test_torus_stalled_walk_matches_oracle(torus, budget):
    assert_matches_oracle(torus_stalled_walk(torus), torus, budget)


@pytest.mark.parametrize("budget", [None, 0, 1, 2, 3])
def test_one_edge_closed_walk_grows(budget):
    """A bad corner on a one-edge closed walk rewrites it into two edges,
    the second replacement edge first; a spur then empties it."""
    t = pinched_sphere(surface.RED)
    w = Walk.from_half_edges(t, (0,), closed=True)
    assert str(turn(t, w, 0)) == "2_r"
    assert_matches_oracle(w, t, budget)
    if budget is None:
        assert reduce_closed(w, t) == Reduced(Walk(1, (), True))


def long_walks():
    """(host, walk): closed walks of about 250 edges on doubled crown4 and
    open walks of 300 edges through the deep interior of a radius-5 patch,
    where the heaps hold many corners."""
    doubled, _ = host_and_short_walks("doubled crown4")
    p = make_patch(7, radius=5)
    deep = {v for v in range(p.num_vertices)
            if not any(p.is_boundary_vertex(p.head(h))
                       for h in p.vertex_slots[v])}
    for seed in range(3):
        rng = random.Random(seed)
        hes = random_closed_walk(doubled, rng, 250)
        yield doubled, Walk.from_half_edges(doubled, hes, closed=True)
        x = rng.choice(sorted(deep))
        hes = []
        while len(hes) < 300:
            h = rng.choice(p.vertex_slots[x])
            if p.head(h) in deep:
                hes.append(h)
                x = p.head(h)
        yield p, Walk.from_half_edges(p, hes)


def test_long_walks_match_oracle():
    """Walks a few hundred edges long, where the heaps hold many corners."""
    for t, w in long_walks():
        assert_matches_oracle(w, t, None)


# -- rare paths of the engine against the scan reducer ----------------------

# hosts whose twins disagree with their rotations, which close
BROKEN_HOSTS = {"broken torus": twin_mismatch_torus,
                "broken doubled crown4": twin_mismatch_doubled_crown4}


def broken_walks(t):
    """Every open walk of two edges and every closed walk of one to three
    edges on t."""
    walks = [Walk.from_half_edges(t, (h, g)) for h in range(len(t.next))
             for g in t.vertex_slots[t.head(h)]]
    return walks + [Walk.from_half_edges(t, hes, closed=True)
                    for n in (1, 2, 3) for hes in short_closed_walks(t, n)]


@pytest.mark.parametrize("name", sorted(BROKEN_HOSTS))
def test_broken_twins_match_oracle(name):
    """On a host whose twins disagree with its rotations: every open walk
    of two edges and every closed walk of one to three edges, among them
    turns that read a half-edge the rotation does not hold."""
    t = BROKEN_HOSTS[name]()
    raised = {assert_matches_oracle(w, t, None)[1] for w in broken_walks(t)}
    assert WalkError in raised


# per host, swaps of twins, and its closed walks whose rewrite leaves two
# junctions that do not meet, with the error each raises
TWO_BAD_JUNCTIONS = {
    ((0, 15), (15, 3), (1, 9), (9, 5)): {
        (16, 7, 4): "half-edges 7,20 not consecutive",
        (0, 22, 14): "half-edges 13,20 not consecutive"},
    ((0, 15), (15, 3), (1, 9), (9, 20)): {
        (4, 5, 18): "half-edges 20,20 not consecutive",
        (5, 18, 4): "half-edges 18,20 not consecutive"},
}


@pytest.mark.parametrize("swaps", list(TWO_BAD_JUNCTIONS))
def test_two_bad_junctions_name_the_first_in_walk_order(swaps):
    """On the subdivided torus with twins swapped (twin[a], twin[b] =
    twin[b], twin[a] for each swap) among half-edges out of one vertex, so
    that every rotation still closes, closed walks whose rewrite at the
    wrap corner leaves two junctions that do not meet: the error names the
    first from the walk's first edge, as Walk.from_half_edges does."""
    t0 = surface.subdivide(surface.build_torus())
    twin = list(t0.twin)
    for a, b in swaps:
        twin[a], twin[b] = twin[b], twin[a]
    t = surface.Triangulation(*tables_of(t0, twin))
    for hes, message in TWO_BAD_JUNCTIONS[swaps].items():
        w = Walk.from_half_edges(t, hes, closed=True)
        assert (assert_matches_oracle(w, t, None)
                == ("raise", WalkError, message))


def rim_corner(p):
    """(h, g, x): a turn from h into g at a rim vertex, where h leaves an
    interior vertex and g enters one, and x leaves the tail of h."""
    for h in range(len(p.next)):
        if p.is_boundary_vertex(p.tail(h)) or \
                not p.is_boundary_vertex(p.head(h)):
            continue
        for g in p.vertex_slots[p.head(h)]:
            if g != p.twin[h] and not p.is_boundary_vertex(p.head(g)):
                x = next(x for x in p.vertex_slots[p.tail(h)] if x != h)
                return h, g, x
    raise AssertionError("no rim corner")


@pytest.mark.parametrize("shape", ["left of a spur", "right of a spur",
                                   "right of a 1-turn"])
def test_boundary_corner_beside_a_spur_matches_oracle(shape):
    """A turn at a rim vertex raises once it lies left of every spur: at
    once when a spur follows it, after the spur's rewrite when the spur
    comes first, and at once when only a 1-turn comes first."""
    p = make_patch(2, radius=3)
    h, g, x = rim_corner(p)
    hes = {"left of a spur": (h, g, p.twin[g]),
           "right of a spur": (x, p.twin[x], h, g)}.get(shape)
    if hes is None:
        # a corner of turn +-1 into h
        one = next(y for y in range(len(p.next)) if p.head(y) == p.tail(h)
                   and abs(turn_at(p, y, h).signed_value) == 1)
        hes = (one, h, g)
    w = Walk.from_half_edges(p, hes)
    assert assert_matches_oracle(w, p, None)[1] is BoundaryTurnError


@pytest.mark.parametrize("name", ["torus", "pinched sphere blue"])
def test_one_edge_closed_walks_match_oracle(name):
    """Every one-edge closed walk (a loop) where its one corner is good;
    test_one_edge_closed_walk_grows takes the bad one."""
    t = {"torus": surface.build_torus,
         "pinched sphere blue": lambda: pinched_sphere(surface.BLUE)}[name]()
    loops = [h for h in range(len(t.next)) if t.head(h) == t.tail(h)]
    assert loops
    for h in loops:
        w = Walk.from_half_edges(t, (h,), closed=True)
        for budget in (None, 0, 1, 2):
            assert assert_matches_oracle(w, t, budget) == (
                "return", Reduced(w))


def oracle_states(t, w):
    """The walks the scan reducer passes through from w until none of
    their corners is bad: w, then one per rewrite."""
    states = [w]
    while (bad := walk_oracle._find_bad(t, states[-1])) is not None:
        states.append(walk_oracle._apply_at(t, states[-1], *bad))
    return states


def budget_walks(t):
    """The spur walk 0, 92 on doubled crown4, open and closed, and seeded
    random walks, open and closed, that need rewrites."""
    yield Walk.from_half_edges(t, (0, 92))
    yield Walk.from_half_edges(t, (0, 92), closed=True)
    for seed in range(12):
        rng = random.Random(seed)
        if seed % 2:
            yield Walk.from_half_edges(t, random_closed_walk(t, rng, 6),
                                       closed=True)
        else:
            u, v = rng.randrange(t.num_vertices), rng.randrange(t.num_vertices)
            yield Walk.from_half_edges(t, random_path(t, rng, u, v, 6),
                                       start=u)


def test_budget_of_exactly_the_rewrites_reduces():
    """A walk that needs exactly k rewrites reduces with budget k, where
    the last allowed rewrite finishes it, and stalls with budget k - 1 in
    the walk of k - 1 rewrites; with budget 0 a reduced walk is reduced."""
    t = surface.double_with_gadgets(surface.crown(4))
    rewrites = []
    for w in budget_walks(t):
        states = oracle_states(t, w)
        k = len(states) - 1
        rewrites.append(k)
        if w.closed:
            assert reduce_closed(w, t, budget=k) == Reduced(states[-1])
            assert reduce_closed(states[-1], t, budget=0) == Reduced(
                states[-1])
            if k:
                assert reduce_closed(w, t, budget=k - 1) == Stalled(
                    states[-2], "budget")
        else:
            assert reduce_open(w, t, budget=k) == states[-1]
            assert reduce_open(states[-1], t, budget=0) == states[-1]
            if k:
                with pytest.raises(ReductionStalled, match="budget exhausted"):
                    reduce_open(w, t, budget=k - 1)
    assert rewrites[:2] == [1, 1] and max(rewrites) >= 5


# -- the state key ----------------------------------------------------------

def test_state_key_separates_equal_id_sums():
    """A rewrite that keeps the sum of the first and of the second edge ids
    over the pairs changes the key: one step of the walk 105, 104, 132, 141
    on doubled crown4, whose -2_r corner becomes 115, 121."""
    t, _ = host_and_short_walks("doubled crown4")
    before, after = (105, 104, 132, 141), (105, 115, 121, 141)
    for hes in (before, after):
        pairs = list(zip(hes, hes[1:]))
        assert [sum(ids) for ids in zip(*pairs)] == [341, 377]
    r = walkcalc._Reduction(t, Walk.from_half_edges(t, before))
    key = r.key()
    assert r.step() and r.half_edges() == after
    assert r.key() != key


def test_no_replays_on_benchmark_shaped_walks(monkeypatch):
    """Open walks of 150-900 edges through the deep interior of a radius-6
    patch and closed walks of 150-750 edges on doubled crown4: no key hit
    that needs a replay."""
    replays = []
    recurs = walkcalc._recurs
    monkeypatch.setattr(walkcalc, "_recurs",
                        lambda *args: replays.append(args) or recurs(*args))
    doubled, _ = host_and_short_walks("doubled crown4")
    p = make_patch(1, radius=6)
    rim = {v for v in range(p.num_vertices) if p.is_boundary_vertex(v)}
    near = set(rim)
    for _ in range(3):  # three rings of margin
        near |= {p.head(h) for v in near for h in p.vertex_slots[v]}
    deep = sorted(set(range(p.num_vertices)) - near)
    rng = random.Random(1)
    for _ in range(4):
        for L in (150, 300, 450, 600, 750, 900):
            x, hes = rng.choice(deep), []
            while len(hes) < L:
                h = rng.choice(p.vertex_slots[x])
                if p.head(h) not in near:
                    hes.append(h)
                    x = p.head(h)
            reduce_open(Walk.from_half_edges(p, hes), p)
            if L < 900:
                hes = random_closed_walk(doubled, rng, L)
                reduce_closed(Walk.from_half_edges(doubled, hes, closed=True),
                              doubled)
    assert replays == []


# -- the engine's corner index against a scan -------------------------------

def corner_scan(r):
    """(label, kind, value) of every corner of the reduction r, in walk
    order, from the scan reducer's turn and classify: the kind and signed
    value of a bad corner, None and None for a good one or an open walk's
    first edge, RAISES and (type, message) for a turn that raises."""
    out, x = [], r.first
    for _ in range(r.size):
        p = r.prv[x]
        kind = value = None
        if p >= 0:
            try:
                tu = walk_oracle.turn_at(r.t, r.edge[p], r.edge[x])
            except (BoundaryTurnError, WalkError) as exc:
                kind, value = walkcalc.RAISES, (type(exc), str(exc))
            else:
                if classify(tu) == BAD:
                    value = tu.signed_value
                    kind = abs(value)
        out.append((x, kind, value))
        x = r.nxt[x]
    return out


def assert_index_matches_scan(r):
    """Each live corner's kind, and the value of one with a kind, are the
    scan's, and each kind's heap is a heap holding every label of that
    kind."""
    for x, kind, value in corner_scan(r):
        got = r.value[x] if r.kind[x] is not None else None  # else stale
        if kind == walkcalc.RAISES:
            got = type(got), str(got)
        assert (r.kind[x], got) == (kind, value), x
        if kind is not None:
            assert x in r.heaps[kind]
    for heap in r.heaps:
        assert all(heap[(i - 1) // 2] <= heap[i]
                   for i in range(1, len(heap)))


def non_incident_walks():
    """Walks built directly, not through Walk.from_half_edges, with a
    corner whose half-edges do not meet at an interior vertex of a patch:
    alone, on a closed walk, and right of a spur whose rewrite removes
    it."""
    p = make_patch(2, radius=3)
    inner = [h for h in range(len(p.next))
             if not p.is_boundary_vertex(p.tail(h))
             and not p.is_boundary_vertex(p.head(h))]
    h = inner[0]
    g = next(g for g in inner if p.tail(g) not in (p.tail(h), p.head(h)))
    return [(p, Walk(p.tail(h), (h, g), False)),
            (p, Walk(p.tail(h), (h, g), True)),
            (p, Walk(p.tail(h), (h, p.twin[h], g), False))]


def misstarted_walks():
    """Walks built directly whose start is not the tail of their first
    half-edge: a spur whose rewrite empties the walk keeps that start, but
    after an earlier rewrite the walk starts at its first tail."""
    p = make_patch(2, radius=3)
    h = next(h for h in range(len(p.next))
             if not p.is_boundary_vertex(p.head(h)))
    start = (p.tail(h) + 1) % p.num_vertices
    return [(p, Walk(start, (h, p.twin[h]), False)),
            (p, Walk(start, (h, p.twin[h], h, p.twin[h]), False))]


@pytest.mark.parametrize("source", ["long", "broken", "non-incident",
                                    "misstarted"])
def test_corner_index_matches_scan(source):
    """After set-up and after every step: each corner's kind and value as
    the scan reducer's turn and classify give them (or the exception the
    turn raises), and every label of a kind in that kind's heap.  Walks
    with a non-incident corner, built without Walk.from_half_edges, also
    reduce as the scan reducer does: only the fallback names that error;
    so do walks built with another start, which an empty walk can keep."""
    if source == "long":
        walks = list(long_walks())
    elif source == "broken":
        walks = [(t, w) for make in BROKEN_HOSTS.values()
                 for t in [make()] for w in broken_walks(t)]
    elif source == "non-incident":
        walks = non_incident_walks()
        assert [assert_matches_oracle(w, t, None)[1] for t, w in walks][:2] \
            == [WalkError] * 2
    else:
        walks = misstarted_walks()
        (t, w), (_, w2) = walks
        assert assert_matches_oracle(w, t, None) == (
            "return", Walk(w.start, (), False))
        assert assert_matches_oracle(w2, t, None) == (
            "return", Walk(t.tail(w2.half_edges[0]), (), False))
    for t, w in walks:
        try:
            steps = walkcalc._reduce(w, t, None)[0].steps
        except (BoundaryTurnError, WalkError):
            steps = None  # replay until the step that raises
        r = walkcalc._Reduction(t, w)
        assert_index_matches_scan(r)
        while steps is None or r.steps < steps:
            try:
                if not r.step():
                    break
            except (BoundaryTurnError, WalkError):
                break
            assert_index_matches_scan(r)
