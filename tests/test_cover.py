import random

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

import probe_oracle
from conftest import chart_snapshot, random_drawing


@pytest.fixture
def chart(torus):
    return CoverChart(torus)


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
    snap = chart_snapshot(chart)
    assert snap.degree(0) == 6
    assert not snap.is_boundary_vertex(0)


def test_expand_radius_two_degrees(chart):
    chart.expand(2)
    snap = chart_snapshot(chart)
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


def test_line_window_turns(torus):
    for side in (LEFT, RIGHT):
        win = line_window(torus, 0, side, 4)
        for e1, e2 in zip(win, win[1:]):
            tu = turn_at(torus, e1, e2)
            want = 3 if side == LEFT else tu.degree - 3
            assert tu.clockwise_steps == want
            assert tu.subscript == surface.RED


def test_line_window_reduced_and_simple(torus):
    win = line_window(torus, 0, LEFT, 5)
    assert walkcalc.is_reduced(torus, Walk.from_half_edges(torus, win))
    # its lift is simple: the oracle's chart window has distinct vertices
    chart = CoverChart(torus)
    lifted = probe_oracle.line_window(chart, 0, LEFT, 5)
    verts = [lifted.vertex(chart, i) for i in range(-5, 6)]
    assert len(set(verts)) == len(verts)


def test_line_window_straight_on_flat_chart(torus):
    # the torus vertex has degree 6: the window is the geodesic with
    # antipodal slots at every step
    win = line_window(torus, 0, LEFT, 3)
    pos = torus.slot_index
    for e1, e2 in zip(win, win[1:]):
        assert pos[e2] == (pos[torus.twin[e1]] + 3) % 6


@pytest.mark.parametrize("L", [-1, -2])
def test_line_window_rejects_negative_length(torus, L):
    with pytest.raises(cover.CoverError, match="window L"):
        line_window(torus, 0, LEFT, L)


def test_line_window_vertex_range_checked():
    # -1 would silently read the last vertex's window, 28 index past the end
    host = surface.double_with_gadgets(surface.crown(4))
    assert host.num_vertices == 28
    for v in (-1, host.num_vertices):
        with pytest.raises(cover.CoverError, match="base vertex %d" % v):
            line_window(host, v, LEFT, 2)


@pytest.mark.parametrize("method", ["slots_cw", "slot_over"])
def test_chart_vertex_range_checked(chart, torus, method):
    # a bad vertex raises before the chart grows: -1 would otherwise
    # complete the star of the last chart vertex, half-glued
    chart.expand(1)
    before = [list(col) for col in chart.cols]
    for v in (-1, len(chart.proj_v)):
        args = (v,) if method == "slots_cw" else (v, torus.vertex_slots[0][0])
        with pytest.raises(cover.CoverError, match="chart vertex %d" % v):
            getattr(chart, method)(*args)
    assert [list(col) for col in chart.cols] == before


def test_slot_over_base_half_edge_range_checked(chart, torus):
    # -1 used to wrap to the slot over base half-edge 5, and 6 to raise a
    # bare IndexError
    chart.expand(1)
    before = [list(col) for col in chart.cols]
    for h in (-1, len(torus.next)):
        with pytest.raises(cover.CoverError,
                           match="base half-edge %d out of range" % h):
            chart.slot_over(0, h)
    assert [list(col) for col in chart.cols] == before


def test_line_windows_match_chart_oracle():
    # every basepoint, both sides; the base window is the projection of
    # the chart window the chart-growing code returned
    for host in (surface.build_torus(),
                 surface.double_with_gadgets(surface.crown(4)),
                 surface.double_with_gadgets(surface.crown(6))):
        for b in range(host.num_vertices):
            for side in (LEFT, RIGHT):
                chart = CoverChart(host, basepoint=b)
                for L in (0, 1, 6, 40):
                    oracle = probe_oracle.line_window(chart, 0, side, L)
                    assert line_window(host, b, side, L) == tuple(
                        chart.proj[e] for e in oracle.edges), (b, side, L)


def test_escape_probes_match_chart_oracle(monkeypatch):
    charts = []

    class RecordedChart(CoverChart):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            charts.append(self)

    monkeypatch.setattr(probe_oracle, "CoverChart", RecordedChart)
    host = surface.double_with_gadgets(surface.crown(4))
    escapes = 0
    for seed in range(140):
        rng = random.Random(seed)
        f = random_drawing(host, rng, max_vertices=5)
        while f.graph.num_vertices < 2:
            f = random_drawing(host, rng, max_vertices=5)
        v = rng.randrange(f.graph.num_vertices)
        side = rng.choice((LEFT, RIGHT))
        for L in (4, 12, 24, 48, 72):
            got = escape_probe(f, v, side, L=L)
            want = probe_oracle.escape_probe(f, v, side, L=L)
            chart = charts.pop()
            if isinstance(want, NoWitnessWithinBounds):
                assert got == want, (seed, L)
                continue
            escapes += 1
            assert isinstance(got, Escapes), (seed, L)
            assert got.witness == want.witness, (seed, L)
            i, h = got.exit
            assert chart.proj[want.chart_exit] == h
            # line_window rereads the grown chart: the same chart window
            win = probe_oracle.line_window(chart, 0, side, L)
            assert chart.origin[want.chart_exit] == win.vertex(chart, i)
    assert 0 < escapes < 700


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



@pytest.mark.parametrize("bounds", [{"L": 0}, {"L": -2}, {"depth": -1}])
def test_escape_probe_bounds_range_checked(torus, bounds):
    g = drawing.Graph(2, [(0, 1)])
    f = drawing.Drawing(g, torus, [0, 0],
                        [Walk.from_half_edges(torus, (5,), start=0)])
    with pytest.raises(cover.CoverError, match="must be >="):
        escape_probe(f, 0, LEFT, **bounds)


def test_escape_probe_least_bounds(torus):
    # the least window and depth the CLI accepts
    g = drawing.Graph(1, [(0, 0)])
    f = drawing.Drawing(g, torus, [0],
                        [Walk.from_half_edges(torus, (0,), start=0)])
    assert escape_probe(f, 0, LEFT, depth=0, L=1) == NoWitnessWithinBounds(0, 1)
    assert escape_probe(f, 0, LEFT, L=1) == NoWitnessWithinBounds(2, 1)


def test_escape_probe_stops_at_window_end(torus):
    # the walk reaches x_L and leaves it by e_{-L}, which leaves x_{-L}
    # over the same torus vertex: outside the window, not a step along it
    first, last = line_window(torus, 0, LEFT, 1)
    g = drawing.Graph(1, [(0, 0)])
    f = drawing.Drawing(g, torus, [0],
                        [Walk.from_half_edges(torus, (last, first), start=0)])
    for side in (LEFT, RIGHT):
        got = escape_probe(f, 0, side, L=1)
        assert got == probe_oracle.escape_probe(f, 0, side, L=1)
