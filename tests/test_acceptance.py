"""End-to-end acceptance checks, one test per headline guarantee.

Every check is exact (all quantities are integers); brute-force oracles are
built inline where a property needs independent verification.  Summary
figures (budget ratios, witness counts) are printed, so run with -rA to see
them on passing tests.
"""
import itertools
import random
from collections import deque
from dataclasses import replace

from redtri import boundary, surface, walkcalc
from redtri import harmonizer as hz
from redtri.boundary import Anchor, extend_for_harmonization, harmonize_rel_anchor
from redtri.drawing import (
    Drawing,
    Graph,
    factor_simplicial,
    read_drawing,
    write_drawing,
)
from redtri.surface import (
    DUAL_NOT_BIPARTITE,
    NO_TWIN,
    RED,
    validate_reducing,
)
from redtri.walkcalc import GOOD, Reduced, Stalled, Walk, classify, turn_at

import test_golden
from conftest import (
    backwards_boundary_drawing,
    boundary_path_drawing,
    closed_left_cycle,
    make_patch,
    random_drawing,
    random_path,
)
from move_oracle import (
    check_consistent,
    corner_copies,
    corner_moves,
    corner_of,
    scan_balancing,
    scan_flip,
    scan_shortening,
)
from test_boundary import anchored_ends, extension_drawing
from walk_oracle import turn


# -- shared helpers --------------------------------------------------------

def interior(t, v):
    return not t.is_boundary_vertex(v)


def bfs_walk(t, u, v):
    """A shortest walk u -> v whose middle vertices are interior."""
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        if x != u and not interior(t, x):
            continue
        for h in t.vertex_slots[x]:
            y = t.head(h)
            if y not in prev:
                prev[y] = h
                queue.append(y)
    hes = []
    x = v
    while prev[x] is not None:
        hes.append(prev[x])
        x = t.tail(prev[x])
    return Walk.from_half_edges(t, tuple(reversed(hes)))


def red_geodesic_cycle(t):
    """A reduced closed walk making only 3_r turns, as a half-edge list."""
    for h in range(len(t.next)):
        if t.color_left(h) == RED:
            cyc = closed_left_cycle(t, h)
            w = Walk.from_half_edges(t, cyc, closed=True)
            if walkcalc.is_reduced(t, w):
                return cyc
    raise AssertionError("host has no red geodesic cycle")


# -- reduced-walk uniqueness ----------------------------------------------

def enumerate_reduced(t, u, v, maxlen):
    """All reduced walks u -> v of length <= maxlen with interior middle
    vertices, found by extending only along good turns."""
    found = []

    def rec(hes):
        w = t.head(hes[-1])
        if w == v:
            found.append(tuple(hes))
        if len(hes) == maxlen or not interior(t, w):
            return
        for h in t.vertex_slots[w]:
            if classify(turn_at(t, hes[-1], h)) == GOOD:
                rec(hes + [h])

    for h in t.vertex_slots[u]:
        rec([h])
    return found


def test_reduced_walk_uniqueness():
    maxlen = 8
    pairs = with_reduced = 0
    for seed in range(3):
        t = make_patch(seed, radius=3)
        degs = {t.degree(v) for v in range(t.num_vertices) if interior(t, v)}
        assert degs <= {6, 7, 8, 9}
        rng = random.Random(seed)
        for _ in range(20):
            u, v = rng.sample(range(t.num_vertices), 2)
            reds = enumerate_reduced(t, u, v, maxlen)
            pairs += 1
            if not reds:
                continue
            with_reduced += 1
            assert len(reds) == 1, "pair (%d,%d) has %d reduced walks" \
                % (u, v, len(reds))
            r = walkcalc.reduce_open(bfs_walk(t, u, v), t)
            assert r.half_edges == reds[0]
    assert with_reduced >= pairs // 2
    print("uniqueness: %d pairs, %d with a reduced walk, 0 mismatches"
          % (pairs, with_reduced))


# -- three bad left turns --------------------------------------------------

def face_of(t, h):
    return min(h, t.next[h], t.next[t.next[h]])


def bounded_on_left(t, hes):
    """Flood the faces left of the cycle; True iff that region stays clear
    of the patch boundary."""
    block = set(hes) | {t.twin[h] for h in hes}
    seen = set()
    stack = [face_of(t, h) for h in hes]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        g = f
        for _ in range(3):
            if t.twin[g] == NO_TWIN:
                return False
            if g not in block:
                stack.append(face_of(t, t.twin[g]))
            g = t.next[g]
    return True


def random_simple_cycle(t, rng):
    while True:
        v = rng.randrange(t.num_vertices)
        if t.is_boundary_vertex(v):
            continue
        path = []
        seen = {v: 0}
        cur = v
        for _ in range(30):
            hs = [h for h in t.vertex_slots[cur]
                  if interior(t, t.head(h))]
            if not hs:
                break
            h = rng.choice(hs)
            nxt = t.head(h)
            if nxt in seen:
                cyc = path[seen[nxt]:] + [h]
                if len(cyc) >= 3:
                    return cyc
                break
            path.append(h)
            seen[nxt] = len(path)
            cur = nxt


def test_three_bad_left_turns():
    rng = random.Random(5)
    patches = [make_patch(s, radius=3) for s in range(4)]
    counts = []
    for i in range(100):
        t = patches[i % len(patches)]
        cyc = random_simple_cycle(t, rng)
        if not bounded_on_left(t, cyc):
            cyc = [t.twin[h] for h in reversed(cyc)]
            assert bounded_on_left(t, cyc)
        w = Walk.from_half_edges(t, cyc, closed=True)
        n = 0
        for j in range(len(cyc)):
            tu = turn(t, w, j)
            if tu.signed_value == 1 or (tu.signed_value == 2
                                        and tu.subscript == RED):
                n += 1
        counts.append(n)
    assert min(counts) >= 3
    print("bad left turns: 100 cycles, min %d max %d"
          % (min(counts), max(counts)))


# -- torus reduced walks and the stalled class -----------------------------

def test_torus_straight_walks_and_stall():
    t = surface.build_torus()
    nreduced = 0
    for k in range(1, 7):
        for hes in itertools.product(range(6), repeat=k):
            w = Walk.from_half_edges(t, hes, closed=True)
            if not walkcalc.is_reduced(t, w):
                continue
            nreduced += 1
            turns = [turn(t, w, i) for i in range(k)]
            assert all(tu.signed_value == 3 for tu in turns)
            assert len({tu.subscript for tu in turns}) == 1
    assert nreduced > 0
    c = walkcalc.torus_stalled_walk(t)
    for budget in (None, 10000):
        r = walkcalc.reduce_closed(c, t, budget=budget)
        assert isinstance(r, Stalled) and not isinstance(r, Reduced)
        assert r.reason == "cycle"
    print("torus: %d reduced closed walks of length <= 6, all straight"
          % nreduced)


# -- monotone harmonization ------------------------------------------------

def run_with_lengths(f):
    """Harmonize while snapshotting per-G-edge image lengths after each
    move."""
    eorig = factor_simplicial(f).edge_origin
    ne = f.graph.num_edges()

    def base_lengths(state):
        out = [0] * ne
        for e, (b, _) in enumerate(eorig):
            if state.image[e] is not None:
                out[b] += 1
        return out

    snaps = []
    f2, trace = hz.harmonize(f, audit=lambda st, mv: snaps.append(
        base_lengths(st)))
    return f2, trace, snaps


def monotone_corpus():
    """(host, drawing): 60 small random drawings on doubled crown4 and 60
    on its subdivision."""
    base = surface.double_with_gadgets(surface.crown(4))
    for hi, host in enumerate([base, surface.subdivide(base)]):
        for seed in range(60):
            rng = random.Random(1000 * hi + seed)
            yield host, random_drawing(host, rng, max_vertices=8,
                                       max_extra_edges=4, detour=3)


def test_monotone_harmonization():
    runs = 0
    max_ratio = 0.0
    for host, f in monotone_corpus():
        assert f.graph.num_edges() <= 40
        assert all(len(w) <= 10 for w in f.edge_map)
        f2, trace, snaps = run_with_lengths(f)
        prev = list(f.lengths()[0])
        for entry, snap in zip(trace.entries, snaps):
            assert entry.after <= entry.before
            if entry.kind in ("short", "bal"):
                assert entry.after < entry.before
            assert all(b <= a for a, b in zip(prev, snap))
            prev = snap
        per0, _ = f.lengths()
        per2, _ = f2.lengths()
        assert all(b <= a for a, b in zip(per0, per2))
        assert hz.is_locally_stable(f2)
        _, trace2 = hz.harmonize(f2)
        assert len(trace2.entries) == 0
        budget = hz.default_budget(host, factor_simplicial(f).graph)
        assert len(trace.entries) <= budget
        max_ratio = max(max_ratio, len(trace.entries) / budget)
        runs += 1
    assert runs >= 100
    print("monotone: %d runs, max moves/budget ratio %.4f"
          % (runs, max_ratio))


# -- homotopy --------------------------------------------------------------

def harmonize_with_tracks(f):
    """Harmonize f, keeping per G-vertex its track: the pivots its cluster
    crossed, read from each move's fields by the paper's definitions.  A
    flip crosses next(twin(s1)), a shortening the middle slot of its run
    (the first of two), and a balancing moves each mover across l1
    (clockwise) or l2 (counterclockwise) of its a-slot, in the rotation at
    tail(a).  Returns the output drawing, the tracks and the move kinds."""
    t, n = f.host, f.graph.num_vertices
    start = hz.State(factor_simplicial(f))
    before = [start.find(v) for v in range(n)]    # roots before each move
    tracks = [[] for _ in range(n)]
    kinds = set()

    def audit(state, move):
        kinds.add(type(move).__name__)
        if isinstance(move, hz.Flip):
            pivots = {move.vertex: t.next[t.twin[move.s1]]}
        elif isinstance(move, hz.Shortening):
            pivots = {move.vertex: move.run[(len(move.run) - 1) // 2]}
        else:
            k = 1 if move.rotation == hz.CW else 2
            pivots = {}
            for r, a in move.movers:
                slots = t.vertex_slots[t.tail(a)]
                pivots[r] = slots[(slots.index(a) + k) % len(slots)]
        for v in range(n):
            if before[v] in pivots:
                tracks[v].append(pivots[before[v]])
            before[v] = state.find(v)

    f2, _ = hz.harmonize(f, audit=audit)
    return f2, tracks, kinds


def test_harmonized_drawing_is_homotopic_to_input():
    """The harmonized drawing is homotopic to its input.  Each G-vertex's
    track must be a walk from its input to its output vertex, and for each
    G-edge (u, v) the walk track_u^-1 . input image . track_v must reduce
    to what the output image reduces to.  On these closed reducing hosts
    of genus >= 2, two walks with the same ends are homotopic exactly when
    `reduce_open` gives both the same result, and `walkcalc` shares no
    code with the harmonizer.  The tracks are a witness, not trusted input:
    any tracks that pass prove the homotopy.  Runs over the golden closed
    corpus, the step-2 seeds and the monotone corpus."""
    drawings = [f for _, f in test_golden.closed_cases()]
    drawings += [f for _, f in test_golden.step2_cases()]
    drawings += [f for _, f in monotone_corpus()]
    kinds = set()
    for f in drawings:
        t = f.host
        f2, tracks, run_kinds = harmonize_with_tracks(f)
        kinds |= run_kinds
        for v, track in enumerate(tracks):
            w = Walk.from_half_edges(t, track, start=f.vertex_map[v])
            assert (w.start, w.end(t)) == (f.vertex_map[v],
                                           f2.vertex_map[v])
        for e, (u, v) in enumerate(f.graph.edges):
            hes = ([t.twin[h] for h in reversed(tracks[u])]
                   + list(f.edge_map[e].half_edges) + tracks[v])
            w = Walk.from_half_edges(t, hes, start=f2.vertex_map[u])
            assert walkcalc.reduce_open(w, t) == \
                walkcalc.reduce_open(f2.edge_map[e], t), e
    assert kinds == {"Flip", "Shortening", "Balancing"}
    print("homotopy: %d runs checked" % len(drawings))


# -- flip-phase bounds -----------------------------------------------------

def snapshot_run(f):
    snaps = []

    def audit(state, move):
        snaps.append((list(state.parent), list(state.image),
                      dict(state.target)))

    f2, trace = hz.harmonize(f, audit=audit)
    return trace.entries, snaps


def replay_state(f, snap):
    st = hz.State(factor_simplicial(f))
    if snap is not None:
        st.parent = list(snap[0])
        st.image = list(snap[1])
        st.target = dict(snap[2])
    return st


def cluster_adjacency(st):
    adj = {r: set() for r in st.cluster_vertices()}
    for e, (u, v) in enumerate(st.gbar.edges):
        if st.image[e] is not None:
            ru, rv = st.find(u), st.find(v)
            adj[ru].add(rv)
            adj[rv].add(ru)
    return adj


def bfs_dist(adj, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def check_pinned_segment(f, snaps, ents, i, j):
    """Steps 1 and 3: vertex at distance d from the root flips <= d times;
    in step 3 the root itself is no longer pinned and may flip once.
    Between two flips of the same vertex some neighbour must flip."""
    seg = ents[i:j]
    st = replay_state(f, snaps[i - 1] if i > 0 else None)
    adj = cluster_adjacency(st)
    r0 = st.find(0)
    dist = bfs_dist(adj, r0)
    counts = {}
    last = {}
    for idx, en in enumerate(seg):
        v = en.ids[0]
        counts[v] = counts.get(v, 0) + 1
        if v in last:
            between = {e2.ids[0] for e2 in seg[last[v] + 1:idx]}
            assert between & adj[v], "no neighbour flip between repeats"
        last[v] = idx
    for v, c in counts.items():
        bound = dist.get(v, 0)
        if seg[0].phase == 3 and v == r0:
            bound = max(bound, 1)
        assert c <= bound, "vertex %s flipped %d times, bound %d" \
            % (v, c, bound)


def check_cyclic_segment(f, snaps, ents, i, j):
    """Step 2: flips follow the ordering cyclically, so a k-round segment
    has kq+2 maps at most and no vertex flips more than k times."""
    seg = ents[i:j]
    st = replay_state(f, snaps[i - 1] if i > 0 else None)
    order = hz.proper_monotonic_ordering(st, hz.left_blue_direction(st))
    q = len(order)
    pos = {v: p for p, v in enumerate(order)}
    counts = {}
    cumadv = 0
    prev = None
    for en in seg:
        p = pos[en.ids[0]]
        if prev is not None:
            cumadv += (p - prev) % q or q
        prev = p
        counts[en.ids[0]] = counts.get(en.ids[0], 0) + 1
        k = 1 + cumadv // q
        assert counts[en.ids[0]] <= k
    k = 1 + cumadv // q
    assert len(seg) <= k * q + 2
    return k


def test_flip_phase_bounds():
    host = surface.double_with_gadgets(surface.crown(4))
    nseg = [0, 0, 0]
    maxk = 0
    for seed in range(120):
        f = random_drawing(host, random.Random(seed))
        ents, snaps = snapshot_run(f)
        i = 0
        while i < len(ents):
            e = ents[i]
            if e.kind != "flip":
                i += 1
                continue
            j = i
            while (j < len(ents) and ents[j].kind == "flip"
                   and ents[j].phase == e.phase):
                j += 1
            if e.phase in (1, 3):
                check_pinned_segment(f, snaps, ents, i, j)
            else:
                maxk = max(maxk, check_cyclic_segment(f, snaps, ents, i, j))
            nseg[e.phase - 1] += 1
            i = j
    assert all(nseg)    # each of the three steps flips somewhere
    print("flip phases: %d/%d/%d segments per step, max k %d"
          % (nseg[0], nseg[1], nseg[2], maxk))


# -- balancing detector equivalence ----------------------------------------

def oracle_left_right(t, x, a):
    """The slot sets left of the corner at a-slot a (one and two steps
    clockwise) and right of it (every slot but those and the corner a, b)."""
    slots = t.vertex_slots[x]
    d = len(slots)
    i = slots.index(a)
    left = {slots[(i + 1) % d], slots[(i + 2) % d]}
    corner = {a, slots[(i + 3) % d]}
    return left, set(slots) - left - corner


def balancing_oracle(state):
    """Search all simple directed cycles of corner copies joined by 3-turn
    image edges; expand each through shared copies and test pulled-left /
    pulled-right exhaustively."""
    t = state.host
    roots = state.cluster_vertices()
    darts = {r: state.darts(r) for r in roots}
    for color in (RED, surface.BLUE):
        def corner(r, g):
            return corner_of(t, state.target[r], g, color)

        adj = {}
        und = {}
        for e, (u, v) in enumerate(state.gbar.edges):
            h = state.image[e]
            if h is None:
                continue
            ru, rv = state.find(u), state.find(v)
            cu = (ru, corner(ru, h))
            cv = (rv, corner(rv, t.twin[h]))
            a, b = (cu, cv) if t.color_left(h) == color else (cv, cu)
            adj.setdefault(a, []).append(b)
            und.setdefault(a, set()).add(b)
            und.setdefault(b, set()).add(a)

        def cycles():
            for start in sorted(adj):
                stack = [(start, iter(adj.get(start, ())))]
                onpath = {start}
                order = [start]
                visited = set()
                while stack:
                    node, it = stack[-1]
                    advanced = False
                    for nxt in it:
                        if nxt in onpath:
                            yield order[order.index(nxt):]
                            continue
                        if nxt in visited:
                            continue
                        stack.append((nxt, iter(adj.get(nxt, ()))))
                        onpath.add(nxt)
                        order.append(nxt)
                        advanced = True
                        break
                    if not advanced:
                        stack.pop()
                        onpath.discard(node)
                        visited.add(order.pop())

        seen = set()
        for cyc in cycles():
            comp = set(cyc)
            frontier = list(cyc)
            while frontier:
                c = frontier.pop()
                for c2 in und.get(c, ()):
                    if c2 not in comp:
                        comp.add(c2)
                        frontier.append(c2)
            key = frozenset(comp)
            if key in seen:
                continue
            seen.add(key)
            corner_at = {}
            conflict = False
            for (r, a) in comp:
                if r in corner_at and corner_at[r] != a:
                    conflict = True
                corner_at[r] = a
            if conflict:
                continue
            ok = True
            pulled_left = False
            for (r, a) in comp:
                left, right = oracle_left_right(t, state.target[r], a)
                gs = [g for (_, _, g) in darts[r]]
                if any(g in right for g in gs):
                    ok = False
                    break
                if any(g in left for g in gs):
                    pulled_left = True
            if ok and pulled_left:
                return (color, tuple(sorted(corner_at.items())))
    return None


def test_balancing_detector_equivalence():
    host = surface.double_with_gadgets(surface.crown(4))
    cyc = red_geodesic_cycle(host)
    q = len(cyc)

    def cycle_fixture(specs):
        vmap = [host.tail(h) for h in cyc]
        edges = [(i, (i + 1) % q) for i in range(q)]
        emap = [Walk.from_half_edges(host, (h,), start=host.tail(h))
                for h in cyc]
        for (i, off) in specs:
            v = host.tail(cyc[i])
            a0 = host.twin[cyc[(i - 1) % q]]
            slots = host.vertex_slots[v]
            h = slots[(slots.index(a0) + off) % len(slots)]
            edges.append((i, len(vmap)))
            vmap.append(host.head(h))
            emap.append(Walk.from_half_edges(host, (h,), start=v))
        return Drawing(Graph(len(vmap), edges), host, vmap, emap)

    fixtures = []
    rng = random.Random(42)
    seed = 0
    while len(fixtures) < 25:
        f = random_drawing(host, random.Random(seed), max_vertices=4,
                           detour=3)
        seed += 1
        if len(hz.State(factor_simplicial(f)).cluster_vertices()) <= 15:
            fixtures.append(f)
    while len(fixtures) < 50:
        specs = [(rng.randrange(q), rng.choice([1, 1, 2, 2, 3, 4]))
                 for _ in range(rng.randrange(1, 4))]
        f = cycle_fixture(specs)
        if len(hz.State(factor_simplicial(f)).cluster_vertices()) <= 15:
            fixtures.append(f)

    found = 0
    for f in fixtures:
        st = hz.State(factor_simplicial(f))
        mine = hz.find_balancing(st)
        oracle = balancing_oracle(st)
        assert (mine is None) == (oracle is None)
        if mine is not None:
            found += 1
            # the detector's witness must be applicable and shorten
            before = st.length
            hz.apply_balancing(st, mine)
            assert st.length < before
            check_consistent(st)
    assert found >= 5
    print("balancing: 50 fixtures, %d with a witness, 0 disagreements"
          % found)


# -- indexed searches on a running state ------------------------------------

def geodesic_corpus(count):
    """Drawings on doubled crown4 of one or two reduced closed 3-turn walks
    drawn on themselves, plus a few pendant edges and short paths between
    their vertices.  About one in ten harmonizes with a balancing."""
    host = surface.double_with_gadgets(surface.crown(4))
    cycles = {}
    for h in range(len(host.next)):
        cyc = closed_left_cycle(host, h)
        w = Walk.from_half_edges(host, cyc, closed=True)
        if walkcalc.is_reduced(host, w):
            cycles.setdefault(frozenset(cyc), cyc)
    cycles = sorted(cycles.values())
    rng = random.Random(5)
    for _ in range(count):
        vmap, edges, emap = [], [], []
        for _ in range(rng.choice([1, 1, 2])):
            cyc = rng.choice(cycles)
            q, base = len(cyc), len(vmap)
            vmap += [host.tail(h) for h in cyc]
            edges += [(base + i, base + (i + 1) % q) for i in range(q)]
            emap += [Walk.from_half_edges(host, (h,)) for h in cyc]
        for _ in range(rng.randrange(1, 6)):
            i = rng.randrange(len(vmap))
            v = vmap[i]
            if rng.random() < 0.6:
                h = rng.choice(host.vertex_slots[v])
                edges.append((i, len(vmap)))
                vmap.append(host.head(h))
                emap.append(Walk.from_half_edges(host, (h,)))
            else:
                j = rng.randrange(len(vmap))
                edges.append((i, j))
                emap.append(Walk.from_half_edges(
                    host, random_path(host, rng, v, vmap[j], 3), start=v))
        yield Drawing(Graph(len(vmap), edges), host, vmap, emap)


def split_state(split):
    """A split graph's copies with their darts and marks, and its
    qualifying components with their (cycle, movers) and the key each
    copy of one is filed under."""
    return split.darts, split.mark, split.copy_of, split.found, split.comp


def audit_corpora(monkeypatch, check, monotone=True):
    """Run `check(state, move)` after every move of the golden and step-2
    corpora, of the monotone corpus unless `monotone` is false, and of 100
    geodesic drawings: the move loop is wrapped where `harmonize` and the
    anchored routine look it up.  The extra searches leave the golden
    digests unchanged."""
    run = hz.run

    def audited(state, budget=None, audit=None):
        def both(state, move):
            if audit is not None:
                audit(state, move)
            check(state, move)
        return run(state, budget, audit=both)

    monkeypatch.setattr(hz, "run", audited)
    monkeypatch.setattr(boundary, "harmonize", audited)
    assert test_golden.corpus_digest() == test_golden.GOLDEN_SHA256
    assert test_golden.step2_digest() == test_golden.STEP2_GOLDEN_SHA256
    if monotone:
        for _, f in monotone_corpus():
            hz.harmonize(f)
    for f in geodesic_corpus(100):
        hz.harmonize(f)


def test_indexed_searches_match_scans(monkeypatch):
    """After every move of the golden, step-2, monotone and geodesic
    corpora, the indexed searches, and `flip_at` at every vertex, return
    exactly what the full scans over every cluster and the from-scratch
    split graph return, a balancing exists exactly when the exhaustive
    oracle finds one, and the kept split graphs have the copies and
    qualifying components of freshly built ones."""
    kinds = {}

    def check(state, move):
        kinds[type(move).__name__] = kinds.get(type(move).__name__, 0) + 1
        assert hz.find_shortening(state) == scan_shortening(state)
        assert hz.find_flip(state) == scan_flip(state)
        pinned = {state.find(0)}
        assert hz.find_flip(state, pinned) == scan_flip(state, pinned)
        # a vertex that is no longer a root has no darts, so no flip
        for v in range(state.gbar.num_vertices):
            fields = corner_moves(state, v)[0]
            assert hz.flip_at(state, v) == (None if fields is None else
                                            hz.Flip(v, *fields, state.version))
        mine = hz.find_balancing(state)
        assert mine == scan_balancing(state)
        assert (mine is None) == (balancing_oracle(state) is None)
        # every component of both colors, not just the first
        fresh = (hz._SplitGraph(RED), hz._SplitGraph(surface.BLUE))
        roots = state.cluster_vertices()
        hz._split_clusters(state, fresh, {r: state.darts(r) for r in roots})
        for split, built in zip(state.splits, fresh):
            assert split.color == built.color
            assert split_state(split) == split_state(built)

    audit_corpora(monkeypatch, check)
    assert kinds["Flip"] and kinds["Shortening"] and kinds["Balancing"] >= 20
    print("indexed searches: %s moves checked" % kinds)


def test_split_graphs_store_no_red_copy(monkeypatch):
    """After every move of the golden, step-2 and geodesic corpora, each
    kept split graph stores a copy, with the oracle's mark, for exactly the
    corner copies that the oracle marks green or plain, and files every
    dart of those copies and no other."""
    counts = {"stored": 0, "red": 0}

    def check(state, move):
        hz.find_balancing(state)
        for split in state.splits:
            marks = corner_copies(state, split.color)
            kept = {c: m for c, m in marks.items() if m != "red"}
            assert split.mark == kept
            assert split.darts.keys() == kept.keys()
            assert split.copy_of == {(e, end): c for c in kept
                                     for e, end, _ in split.darts[c]}
            counts["stored"] += len(kept)
            counts["red"] += len(marks) - len(kept)

    audit_corpora(monkeypatch, check, monotone=False)
    assert counts["stored"] and counts["red"]
    print("split graphs: %(stored)d copies stored, %(red)d red ones not"
          % counts)


# -- boundary guard --------------------------------------------------------

def annulus_drawing(t, steps, detour_he=None):
    cyc = t.boundary_cycles()[0]
    hes = list(cyc[:steps])
    if detour_he is not None:
        hes = [detour_he, t.twin[detour_he]] + hes
    f = boundary_path_drawing(t, steps)
    if detour_he is None:
        return f
    u = t.tail(cyc[0])
    emap = list(f.edge_map)
    emap[0] = Walk.from_half_edges(t, (detour_he, t.twin[detour_he],
                                       cyc[0]), start=u)
    return Drawing(f.graph, t, f.vertex_map, emap)


def boundary_guard_instances():
    """Paths along the boundary of disk patches and of crowns, some with a
    detour into the interior."""
    instances = []
    for seed in range(10):
        p = make_patch(seed, radius=2)
        instances.append(boundary_path_drawing(p, steps=3))
    for i in range(10):
        t = surface.crown(6 if i % 2 == 0 else 8)
        detour = None
        if i % 3 == 0:
            u = t.tail(t.boundary_cycles()[0][0])
            detour = t.vertex_slots[u][0]
        # keep the path strictly inside the boundary circle so the two
        # anchored endpoints land on distinct host vertices
        steps = min(1 + i % 3, len(t.boundary_cycles()[0]) - 1)
        instances.append(annulus_drawing(t, steps=steps, detour_he=detour))
    return instances


def test_boundary_guard():
    for f in boundary_guard_instances():
        last = f.graph.num_vertices - 1
        assert f.vertex_map[0] != f.vertex_map[last]
        a = anchored_ends(f)
        fbar, guard = extend_for_harmonization(f, a)
        f2, trace = harmonize_rel_anchor(f, a)
        for g in (0, last):
            assert f2.vertex_map[g] == fbar.vertex_map[g]
        for w in f2.edge_map:
            assert all(h < len(f.host.next) for h in w.half_edges)
        # the output lives on the input host and re-reads there
        assert f2.host is f.host
        f3, _ = read_drawing(write_drawing(f2), f.host)
        assert (f3.vertex_map, f3.edge_map) == (f2.vertex_map, f2.edge_map)
        per0, _ = f.lengths()
        per2, _ = f2.lengths()
        assert all(b <= a_ for a_, b in zip(per0, per2))
    print("boundary guard: 20 anchored instances, 0 guard violations")


def test_extensions_rebuild_as_drawings():
    """The extension of each anchored golden case and of each of item 6's
    107 sweep drawings, rebuilt through `unfactor` with the extension graph
    read off its factored edges, is a `Drawing` of `Walk`s on its host: the
    checks that the anchored routine no longer makes on every run.  Its
    base copy is the input drawing, and it factors back to the extension."""
    cases = [(f, a) for _, f, a in test_golden.anchored_cases()]
    cases += [(f, Anchor(orders))
              for _, f, orders in test_golden.anchored_sweep()]
    assert len(cases) == 8 + 107
    for f, a in cases:
        fbar, _ = extend_for_harmonization(f, a)
        fdot = extension_drawing(fbar)
        n, ne = f.graph.num_vertices, f.graph.num_edges()
        assert fdot.host is fbar.host and fbar.base_graph is f.graph
        assert fdot.vertex_map[:n] == f.vertex_map
        assert fdot.graph.edges[:ne] == f.graph.edges
        assert fdot.edge_map[:ne] == f.edge_map
        again = factor_simplicial(fdot)
        assert again.graph.edges == fbar.graph.edges
        assert (again.vertex_map, again.edge_image, again.edge_origin) == (
            fbar.vertex_map, fbar.edge_image, fbar.edge_origin)


def full_scan_audit(guard):
    """The guard audit as a scan of every edge after every move."""
    def audit(state, move):
        for e, (base, _) in enumerate(state.fbar.edge_origin):
            h = state.image[e]
            if base in guard.stem_edges and h != guard.stem_edges[base]:
                raise boundary.GuardViolation(
                    "stem edge %d was rewritten" % base)
            if h is not None and h in guard.guard_hes:
                raise boundary.GuardViolation(
                    "edge %d moved onto a guard edge" % base)
    return audit


def test_guard_audit_matches_full_scan(monkeypatch):
    """The anchored routine's audit reads only the edges at the vertices a
    move marked dirty; after every move it raises exactly when the full scan
    does, with the same message.  The corpus: the anchored golden cases,
    the boundary-guard instances, an edge that would leave the host, and a
    drawing anchored at one corner, whose first move rewrites a stem.  Each
    runs twice, the second time with every half-edge its extension does
    not use at the start added to the guards, so that moves run onto
    guard edges."""
    guards = []
    extend = boundary.extend_for_harmonization

    def extend_kept(f, anchor):
        fbar, guard = extend(f, anchor)
        if trap:
            used = set(fbar.edge_image) - {None}
            guard = replace(guard, guard_hes=guard.guard_hes | (
                frozenset(range(len(fbar.host.next))) - used))
        guards.append(guard)
        return fbar, guard

    def outcome(audit, state, move):
        try:
            audit(state, move)
        except boundary.GuardViolation as exc:
            return str(exc)
        return None

    seen = []

    def side_by_side(state, budget=None, audit=None):
        oracle = full_scan_audit(guards[-1])

        def both(state, move):
            got = outcome(audit, state, move)
            assert got == outcome(oracle, state, move)
            seen.append(got)
            if got is not None:
                raise boundary.GuardViolation(got)
        return hz.run(state, budget, audit=both)

    monkeypatch.setattr(boundary, "extend_for_harmonization", extend_kept)
    monkeypatch.setattr(boundary, "harmonize", side_by_side)
    cases = [(f, a) for _, f, a in test_golden.anchored_cases()]
    cases += [(f, anchored_ends(f)) for f in boundary_guard_instances()]
    p = make_patch(1, radius=2)
    f, orders = backwards_boundary_drawing(p)
    x = p.tail(p.boundary_cycles()[0][0])
    cases += [(f, Anchor(orders)),
              (Drawing(Graph(1, []), p, [x], []), Anchor({x: [0]}))]
    for trap in (False, True):
        for f, a in cases:
            try:
                harmonize_rel_anchor(f, a)
            except boundary.GuardViolation:
                pass
    raised = [m for m in seen if m is not None]
    assert "stem edge 0 was rewritten" in raised
    assert any(m.endswith("moved onto a guard edge") for m in raised)
    print("guard audit: %d moves audited, %d violations, all as the full "
          "scan" % (len(seen), len(raised)))


# -- constructor validation ------------------------------------------------

def hand_counts(t):
    nhe = len(t.next)
    nb = sum(1 for h in range(nhe) if t.twin[h] == NO_TWIN)
    return t.num_vertices, (nhe - nb) // 2 + nb, len(t.faces)


def test_constructor_validation():
    torus = surface.build_torus()
    doubled = surface.double_with_gadgets(surface.crown(4))
    good = [torus, surface.crown(2), surface.crown(4), surface.crown(6),
            surface.crown(8), surface.build_one_gadget(),
            surface.build_three_gadget(), surface.subdivide(torus),
            surface.subdivide(surface.crown(4)),
            surface.double_with_gadgets(surface.crown(2)), doubled,
            surface.double_with_gadgets(make_patch(0, radius=1)),
            surface.subdivide(doubled)]
    for t in good:
        assert validate_reducing(t).ok
        v, e, f = hand_counts(t)
        assert t.euler_characteristic() == v - e + f
        b = t.num_boundary_components()
        assert t.genus() == (2 - t.euler_characteristic() - b) // 2
    for k in (3, 5, 7):
        rep = validate_reducing(surface.crown(k))
        assert not rep.ok
        assert rep.kinds() == {DUAL_NOT_BIPARTITE}
    assert (torus.euler_characteristic(), torus.genus()) == (0, 1)
    for k in (2, 4, 6, 8):
        c = surface.crown(k)
        assert c.euler_characteristic() == 0
        assert c.num_boundary_components() == 2
        assert c.genus() == 0
    g1 = surface.build_one_gadget()
    g3 = surface.build_three_gadget()
    assert (g1.euler_characteristic(), g1.genus()) == (-1, 1)
    assert (g3.euler_characteristic(), g3.genus()) == (-5, 3)
    assert doubled.is_closed()
    assert hand_counts(doubled) == (28, 156, 104)
    assert (doubled.euler_characteristic(), doubled.genus()) == (-24, 13)
    print("constructors: %d reducing hosts, 3 odd crowns rejected"
          % len(good))
