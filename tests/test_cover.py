import pytest

from redtri import cover, drawing, surface, walkcalc
from redtri.cover import (
    LEFT,
    RIGHT,
    CoverChart,
    Escapes,
    NoWitnessWithinBounds,
    escape_probe,
    line_window,
)
from redtri.walkcalc import Walk, turn_at


@pytest.fixture
def chart(torus):
    return CoverChart(torus)


def window_turns(chart, win):
    """Turn values along the window; every one must be 3 (left) / -3
    (right)."""
    t = chart.triangulation()
    return [turn_at(t, win.edge(i), win.edge(i + 1))
            for i in range(-win.L, win.L - 1)]


def test_chart_requires_closed_reducing():
    with pytest.raises(cover.CoverError):
        CoverChart(surface.crown(4))  # has boundary


@pytest.mark.parametrize("basepoint", [-1, 1])
def test_chart_basepoint_range_checked(torus, basepoint):
    # the torus has one vertex, so -1 and 1 are both out of range
    with pytest.raises(cover.CoverError):
        CoverChart(torus, basepoint=basepoint)


def test_expand_radius_zero(chart):
    chart.expand(0)
    assert chart.star_complete(0)
    snap = chart.triangulation()
    assert snap.degree(0) == 6
    assert not snap.is_boundary_vertex(0)


def test_expand_radius_two_degrees(chart):
    chart.expand(2)
    snap = chart.triangulation()
    dist = chart._distances()
    for v in range(snap.num_vertices):
        if dist[v] is not None and dist[v] <= 2:
            assert snap.degree(v) == 6
            assert not snap.is_boundary_vertex(v)
    assert surface.validate_reducing(snap).kinds() <= {surface.DEGREE_TOO_LOW}
    assert snap.euler_characteristic() == 1  # a disk


def test_expand_idempotent(chart):
    chart.expand(2)
    n = len(chart.next)
    chart.expand(1)
    assert len(chart.next) == n


def test_projection_commutes(chart):
    chart.expand(2)
    t = chart.base
    for h in range(len(chart.next)):
        assert chart.proj[chart.next[h]] == t.next[chart.proj[h]]
        g = chart.twin[h]
        if g != surface.NO_TWIN:
            assert chart.proj[g] == t.twin[chart.proj[h]]
        assert chart.proj_v[chart.origin[h]] == t.origin[chart.proj[h]]


def test_lift_projects_back(chart, torus):
    w = Walk.from_half_edges(torus, (0, 5, 1, 2))
    lifted = chart.lift_walk(w, 0)
    assert tuple(chart.proj[c] for c in lifted) == w.half_edges


def test_lift_of_spur_returns(chart, torus):
    w = Walk.from_half_edges(torus, (0, torus.twin[0]))
    lifted = chart.lift_walk(w, 0)
    assert chart.head(lifted[-1]) == 0


def test_lift_nontrivial_class_moves(chart, torus):
    w = Walk.from_half_edges(torus, (0,), closed=True)
    lifted = chart.lift_walk(w, 0)
    assert chart.head(lifted[-1]) != 0


def test_lift_empty_walk(chart, torus):
    assert chart.lift_walk(Walk.from_half_edges(torus, (), start=0), 0) == ()


def test_lift_rejects_bad_start(torus):
    host = surface.double_with_gadgets(surface.crown(4))
    chart = CoverChart(host)
    w = Walk.from_half_edges(host, host.vertex_slots[1][:1])
    # chart vertex 0 lies over base vertex 0, not over the walk's start
    for start in (0, -1, len(chart.proj_v)):
        with pytest.raises(cover.CoverError):
            chart.lift_walk(w, start)


def test_lift_into_a_wrapped_fan_raises(chart, torus):
    # lifting this loop on demand gives chart vertex 5, over the torus
    # vertex of degree 6, a seventh slot over base half-edge 0; the chart
    # does not merge vertices, so that raises rather than letting a later
    # complete_star add triangles around vertex 5 forever
    w = Walk.from_half_edges(torus, [2, 4, 1, 3, 0, 5], closed=True)
    with pytest.raises(cover.CoverError):
        chart.lift_walk(w, 0)
        chart.lift_walk(w, 1)


def test_line_window_turns(chart):
    for side in (LEFT, RIGHT):
        win = line_window(chart, 0, side, 4)
        for tu in window_turns(chart, win):
            want = 3 if side == LEFT else tu.degree - 3
            assert tu.clockwise_steps == want
            assert tu.subscript == surface.RED


def test_line_window_reduced_and_simple(chart):
    win = line_window(chart, 0, LEFT, 5)
    snap = chart.triangulation()
    w = Walk.from_half_edges(snap, win.edges)
    assert walkcalc.is_reduced(snap, w)
    verts = [win.vertex(chart, i) for i in range(-5, 6)]
    assert len(set(verts)) == len(verts)


def test_line_window_straight_on_flat_chart(chart, torus):
    # every torus chart vertex has degree 6: the window is the geodesic with
    # antipodal slots at every step
    win = line_window(chart, 0, LEFT, 3)
    for i in range(-3, 2):
        e1, e2 = win.edge(i), win.edge(i + 1)
        slots = chart.slots_cw(chart.head(e1))
        assert slots.index(e2) == (slots.index(chart.twin[e1]) + 3) % 6


def test_escape_probe_on_line(torus):
    g = drawing.Graph(1, [(0, 0)])
    f = drawing.Drawing(g, torus, [0],
                        [Walk.from_half_edges(torus, (0,), start=0)])
    assert isinstance(escape_probe(f, 0, LEFT), NoWitnessWithinBounds)


@pytest.mark.parametrize("v", [-1, 2])
def test_escape_probe_vertex_range_checked(torus, v):
    g = drawing.Graph(2, [(0, 1)])
    f = drawing.Drawing(g, torus, [0, 0],
                        [Walk.from_half_edges(torus, (5,), start=0)])
    with pytest.raises(cover.CoverError, match="graph vertex %d" % v):
        escape_probe(f, v, LEFT)


def test_escape_probe_immediate(torus):
    g = drawing.Graph(2, [(0, 1)])
    f = drawing.Drawing(g, torus, [0, 0],
                        [Walk.from_half_edges(torus, (5,), start=0)])
    r = escape_probe(f, 0, LEFT)
    assert isinstance(r, Escapes)
    assert len(r.witness) == 1


def test_escape_probe_two_steps(torus):
    # first edge runs along the line, second leaves it
    g = drawing.Graph(3, [(0, 1), (1, 2)])
    f = drawing.Drawing(g, torus, [0, 0, 0],
                        [Walk.from_half_edges(torus, (0,), start=0),
                         Walk.from_half_edges(torus, (5,), start=0)])
    r = escape_probe(f, 0, LEFT)
    assert isinstance(r, Escapes)
    assert len(r.witness) == 2

