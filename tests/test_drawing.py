import random

import pytest

from redtri import surface
from redtri.drawing import (
    Drawing,
    DrawingError,
    Graph,
    factor_simplicial,
    read_drawing,
    unfactor,
    write_drawing,
)
from redtri.harmonizer import State
from redtri.walkcalc import Walk

from conftest import make_patch


def path_drawing(t, hes, cut_points):
    """A path graph drawn along hes, with vertices at the given positions."""
    cuts = [0] + list(cut_points) + [len(hes)]
    verts = []
    v = t.tail(hes[0]) if hes else 0
    pos_vertex = [v] + [t.head(hes[c - 1]) for c in cuts[1:]]
    g = Graph(len(cuts), [(i, i + 1) for i in range(len(cuts) - 1)])
    emap = []
    for i in range(len(cuts) - 1):
        seg = hes[cuts[i]:cuts[i + 1]]
        emap.append(Walk.from_half_edges(t, seg, start=pos_vertex[i]))
    return Drawing(g, t, pos_vertex, emap)


def test_lengths(torus):
    f = path_drawing(torus, [0, 5, 1, 2, 0], [2])
    per, total = f.lengths()
    assert per == (2, 3) and total == 5


def test_constant_drawing_lengths(torus):
    g = Graph(2, [(0, 1)])
    f = Drawing(g, torus, [0, 0], [Walk.from_half_edges(torus, (), start=0)])
    assert f.lengths() == ((0,), 0)


def test_endpoint_mismatch_rejected():
    p = make_patch(0, radius=1)
    g = Graph(2, [(0, 1)])
    h = 0
    u, v = p.tail(h), p.head(h)
    other = next(x for x in range(p.num_vertices) if x not in (u, v))
    with pytest.raises(DrawingError):
        Drawing(g, p, [u, other], [Walk.from_half_edges(p, (h,), start=u)])


def test_factor_simplicial_subdivides(torus):
    f = path_drawing(torus, [0, 5, 1], [])
    fb = factor_simplicial(f)
    # one edge of length 3 gains 2 interior vertices
    assert fb.graph.num_vertices == 2 + 2
    assert fb.graph.num_edges() == 3
    assert fb.edge_origin == ((0, 0), (0, 1), (0, 2))
    assert fb.vertex_map[2:] == tuple(map(torus.head, (0, 5)))
    assert all(h is not None for h in fb.edge_image)


def test_factor_simplicial_short_edges_untouched(torus):
    g = Graph(2, [(0, 1), (1, 1)])
    f = Drawing(g, torus, [0, 0],
                [Walk.from_half_edges(torus, (0,), start=0),
                 Walk.from_half_edges(torus, (), start=0)])
    fb = factor_simplicial(f)
    assert fb.graph.num_vertices == 2
    assert fb.graph.num_edges() == 2
    assert fb.edge_image == (0, None)


def test_factor_simplicial_empty():
    t = surface.build_torus()
    f = Drawing(Graph(0, []), t, [], [])
    fb = factor_simplicial(f)
    assert fb.graph.num_vertices == 0 and fb.graph.num_edges() == 0


def test_unfactor_roundtrip(torus):
    f = path_drawing(torus, [0, 5, 1, 2], [1, 2])
    f2 = unfactor(factor_simplicial(f))
    assert f2.vertex_map == f.vertex_map
    assert [w.half_edges for w in f2.edge_map] == [w.half_edges for w in f.edge_map]


# clusters, the connected subgraphs with one image, are contracted by the
# harmonizer's State in its union-find

def test_clusters_constant_component(torus):
    g = Graph(3, [(0, 1), (1, 2)])
    f = Drawing(g, torus, [0, 0, 0],
                [Walk.from_half_edges(torus, (), start=0)] * 2)
    assert State(factor_simplicial(f)).cluster_vertices() == [0]


def test_clusters_injective_identity(torus):
    f = path_drawing(torus, [0, 5], [1])
    fb = factor_simplicial(f)
    assert len(State(fb).cluster_vertices()) == fb.graph.num_vertices


def test_cluster_partition_matches_bruteforce(torus):
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        g = Graph(n, edges)
        emap = []
        vmap = [0] * n
        for u, v in edges:
            if rng.random() < 0.5:
                emap.append(Walk.from_half_edges(torus, (), start=0))
            else:
                emap.append(Walk.from_half_edges(torus, (rng.choice((0, 1, 5)),),
                                                 start=0))
        f = Drawing(g, torus, vmap, emap)
        fb = factor_simplicial(f)
        st = State(fb)
        # brute force: flood fill over image-less edges
        n2 = fb.graph.num_vertices
        comp = list(range(n2))
        changed = True
        while changed:
            changed = False
            for e, (u, v) in enumerate(fb.graph.edges):
                if fb.edge_image[e] is None and comp[u] != comp[v]:
                    m = min(comp[u], comp[v])
                    comp[u] = comp[v] = m
                    changed = True
        groups = {}
        for v in range(n2):
            r = comp[v]
            while comp[r] != r:
                r = comp[r]
            groups.setdefault(r, set()).add(v)
        want = sorted(tuple(sorted(s)) for s in groups.values())
        got = {}
        for v in range(n2):
            got.setdefault(st.find(v), []).append(v)
        assert sorted(map(tuple, got.values())) == want
        assert st.cluster_vertices() == sorted(got)


def test_adjacent_same_image_merge(torus):
    g = Graph(2, [(0, 1)])
    f = Drawing(g, torus, [0, 0], [Walk.from_half_edges(torus, (), start=0)])
    st = State(factor_simplicial(f))
    assert st.cluster_vertices() == [0]
    assert st.length == 0


def test_drw_roundtrip(torus):
    f = path_drawing(torus, [0, 5, 1], [1])
    txt = write_drawing(f)
    f2, anchor = read_drawing(txt, torus)
    assert anchor is None
    assert write_drawing(f2) == txt


def test_drw_anchor_roundtrip(torus):
    f = path_drawing(torus, [0, 5], [1])
    txt = write_drawing(f, anchor={0: [1, 0]})
    f2, anchor = read_drawing(txt, torus)
    assert anchor == {0: [1, 0]}
    assert write_drawing(f2, anchor) == txt
