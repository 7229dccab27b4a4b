from dataclasses import replace

import pytest

from redtri import boundary, harmonizer, surface
from redtri.boundary import (
    Anchor,
    BoundaryError,
    GuardViolation,
    attach_crowns,
    extend_for_harmonization,
    harmonize_rel_anchor,
)
from redtri.drawing import Drawing, Graph, unfactor
from redtri.harmonizer import HarmonizerError
from redtri.surface import validate_reducing
from redtri.walkcalc import Walk

from conftest import (
    backwards_boundary_drawing,
    boundary_path_drawing,
    fan_disk,
    make_patch,
)


@pytest.fixture(scope="module")
def patch():
    return make_patch(1, radius=2)


def anchored_ends(f):
    g = f.graph
    last = g.num_vertices - 1
    return Anchor({f.vertex_map[0]: [0], f.vertex_map[last]: [last]})


def extension_edges(fbar):
    """The factored extension's own edges, read off its segments, in id
    order: (u, v, half-edges) from the tail of an edge's first segment to
    the head of its last."""
    edges = {}
    for (u, v), (b, _), h in zip(fbar.graph.edges, fbar.edge_origin,
                                 fbar.edge_image):
        u0, _, hes = edges.get(b, (u, v, ()))
        edges[b] = (u0, v, hes if h is None else hes + (h,))
    return list(edges.values())


def extension_drawing(fbar):
    """The whole extension as a `Drawing`, rebuilt through `unfactor` with
    the extension graph read off the factored edges.  Its vertices are
    those before the first subdivision vertex: every segment after an
    edge's first starts at one."""
    edges = extension_edges(fbar)
    new = sum(j > 0 for _, j in fbar.edge_origin)
    g = Graph(fbar.graph.num_vertices - new, [(u, v) for u, v, _ in edges])
    return unfactor(replace(fbar, base_graph=g))


def test_anchor_validation(patch):
    f = boundary_path_drawing(patch)
    anchored_ends(f).validate(f)
    with pytest.raises(BoundaryError):
        Anchor({patch.num_vertices - 1: [0, 0]})
    with pytest.raises(BoundaryError):
        # vertex 1 is not drawn at the anchor point
        Anchor({f.vertex_map[0]: [1]}).validate(f)
    with pytest.raises(BoundaryError):
        # interior vertices cannot carry anchors
        inner = next(v for v in range(patch.num_vertices)
                     if not patch.is_boundary_vertex(v))
        Anchor({inner: [0]}).validate(
            Drawing(Graph(1, []), patch, [inner], []))
    x = f.vertex_map[0]
    for v in (-1, f.graph.num_vertices):
        with pytest.raises(BoundaryError,
                           match="^anchored vertex %d out of range$" % v):
            Anchor({x: [v]}).validate(f)


def test_attach_crowns_closes_boundary(patch):
    t0, spokes = attach_crowns(patch, {})
    assert t0.num_boundary_components() == 1  # the crown's outer circle
    cyc = patch.boundary_cycles()[0]
    for h in cyc:
        x = patch.tail(h)
        assert not t0.is_boundary_vertex(x)
        assert t0.degree(x) % 2 == 0
        assert len(spokes[x]) >= 6
        for e in spokes[x]:
            assert t0.tail(e) == x


def test_attach_crowns_spoke_budget(patch):
    cyc = patch.boundary_cycles()[0]
    x = patch.tail(cyc[0])
    t0, spokes = attach_crowns(patch, {x: 1})
    assert len(spokes[x]) >= 7


def test_attach_crowns_on_annulus():
    t = surface.crown(6)
    t0, spokes = attach_crowns(t, {})
    # both old circles are filled; the crowns contribute fresh outer circles
    assert t0.num_boundary_components() == 2
    for v in range(t.num_vertices):
        assert not t0.is_boundary_vertex(v)
        assert t0.degree(v) % 2 == 0
    rep = validate_reducing(t0)
    assert rep.kinds() <= {surface.DEGREE_TOO_LOW}


def test_spokes_and_guards_come_from_the_offsets(patch):
    """The spokes at each old boundary vertex, and the guard half-edges,
    computed from the crowns' offsets, are those the crowned host's
    rotations and twins give: the crown half-edges clockwise from the
    vertex's outgoing boundary edge to the tent before, and the first and
    last three of them with their twins."""
    ends = sorted({patch.tail(h) for h in patch.boundary_half_edges()})
    for need in ({}, {x: x % 3 for x in ends}):
        t0, spokes = attach_crowns(patch, need)
        assert sorted(spokes) == ends
        for x, run in spokes.items():
            slots = patch.vertex_slots[x]
            h_out, h_in = slots[-1], patch.prev(slots[0])
            rotation = t0.vertex_slots[x]
            i = rotation.index(h_out) + 1
            assert (rotation[i:] + rotation[:i])[:len(run) + 1] == (
                *run, t0.twin[h_in])
        assert sorted(t0.guard_half_edges(3)) == sorted(
            h for run in spokes.values() for e in run[:3] + run[-3:]
            for h in (e, t0.twin[e]))


def test_extension_host_valid(patch):
    f = boundary_path_drawing(patch)
    a = anchored_ends(f)
    fbar, guard = extend_for_harmonization(f, a)
    assert fbar.host.is_closed()
    assert validate_reducing(fbar.host).ok
    assert fbar.host.genus() >= 2


def test_anchored_run_validates_its_parts(monkeypatch, patch):
    """The input host is validated in full once, its crowns by their parts
    once, and neither the crowned nor the doubled host is scanned."""
    sizes, parts = [], []
    validate_crowns = boundary.CrownedHost.validate_crowns

    def counted(t):
        sizes.append(len(t.next))
        return validate_reducing(t)

    def counted_parts(t0):
        parts.append(len(t0.next))
        return validate_crowns(t0)

    monkeypatch.setattr(boundary, "validate_reducing", counted)
    monkeypatch.setattr(harmonizer, "validate_reducing", counted)
    monkeypatch.setattr(boundary.CrownedHost, "validate_crowns", counted_parts)
    f = boundary_path_drawing(patch)
    a = anchored_ends(f)
    harmonize_rel_anchor(f, a)
    t0 = attach_crowns(patch, {x: len(vs) for x, vs in a.orders.items()})[0]
    assert sizes == [len(patch.next)]
    assert parts == [len(t0.next)]


def test_anchored_run_reads_few_crown_entries(monkeypatch, patch):
    """An anchored run keeps the entries of the crowns, and of their mirror
    copies, that it computes, and it computes only those it reads, with
    the rest of a rotation's slot indices: 141 here, 70 of them slot
    indices, against the crowns' 402 half-edges.  A scan of the crowned
    host, or of one of its columns, would compute them all."""
    built = []
    double = boundary._double_with_gadgets_unchecked

    def recording_double(t0):
        doubled = double(t0)
        built.append((t0, doubled[0]))
        return doubled

    monkeypatch.setattr(boundary, "_double_with_gadgets_unchecked",
                        recording_double)
    f = boundary_path_drawing(patch)
    harmonize_rel_anchor(f, anchored_ends(f))
    [(t0, d)] = built
    r, n = len(patch.next), len(t0.next)
    rf, nf = len(patch.faces), len(t0.faces)
    rv, nv = patch.num_vertices, t0.num_vertices
    # per column, the crown ids: in t0 from the input host's sizes on, and
    # in the doubled host also their mirror copies', but for the crown
    # vertices, which are the seams' and have none
    count = 0
    for host in (t0, d):
        for names, (real, size) in ((
                ("next", "twin", "origin", "face_of", "slot_index"), (r, n)),
                (("faces", "face_color"), (rf, nf)),
                (("vertex_slots",), (rv, nv))):
            for name in names:
                mirrored = host is d and name != "vertex_slots"
                count += sum(real <= i < size
                             or mirrored and size + real <= i < 2 * size
                             for i in dict.keys(getattr(host, name)))
    assert 0 < count < (n - r) / 2


def test_extension_rejects_non_reducing_host_before_crowning(monkeypatch):
    def crown(*args):
        raise AssertionError("a host that is not reducing was crowned")

    monkeypatch.setattr(boundary, "attach_crowns", crown)
    for t in (fan_disk(4), surface.crown(5)):
        h = t.boundary_cycles()[0][0]
        f = Drawing(Graph(1, []), t, [t.tail(h)], [])
        with pytest.raises(HarmonizerError, match="^host must be a closed "
                           "reducing triangulation$"):
            extend_for_harmonization(f, Anchor({t.tail(h): [0]}))


def test_extension_rejects_closed_host():
    t = surface.build_torus()
    f = Drawing(Graph(1, []), t, [0], [])
    with pytest.raises(BoundaryError):
        extend_for_harmonization(f, Anchor({}))


def test_extension_graph_shape(patch):
    f = boundary_path_drawing(patch)
    a = anchored_ends(f)
    fbar, guard = extend_for_harmonization(f, a)
    edges = extension_edges(fbar)
    n, ne = f.graph.num_vertices, f.graph.num_edges()
    k = sum(map(len, a.orders.values()))  # anchored G-vertices
    assert fbar.base_graph is f.graph
    # one subdivision vertex per half-edge of an image after its first
    assert len(fbar.vertex_map) - sum(
        max(len(hes) - 1, 0) for _, _, hes in edges) == 2 * n + k
    assert len(edges) == 2 * ne + 2 * k
    # the base copy is untouched
    assert [(u, v) for u, v, _ in edges[:ne]] == list(f.graph.edges)
    assert fbar.vertex_map[:n] == f.vertex_map
    for e in range(ne):
        assert edges[e][2] == f.edge_map[e].half_edges


def test_extension_mirror_symmetry(patch):
    f = boundary_path_drawing(patch)
    a = anchored_ends(f)
    fbar, guard = extend_for_harmonization(f, a)
    t, edges = fbar.host, extension_edges(fbar)
    ne = f.graph.num_edges()
    k = sum(map(len, a.orders.values()))  # anchored G-vertices
    for e in range(ne):
        base, mirror = edges[e][2], edges[ne + k + e][2]
        assert len(base) == len(mirror)
        for hb, hm in zip(base, mirror):
            # orientation reversal and the color swap cancel out
            assert t.color_left(hb) == t.color_left(hm)


def test_extension_stems_and_guards_disjoint(patch):
    f = boundary_path_drawing(patch)
    fbar, guard = extend_for_harmonization(f, anchored_ends(f))
    edges = extension_edges(fbar)
    for e, h in guard.stem_edges.items():
        assert edges[e][2] == (h,)
        assert h not in guard.guard_hes


def test_anchored_run_builds_g_walks_only(monkeypatch, patch):
    """An anchored run builds one walk per edge of G, read back from the
    state, and two drawings: G's on the extension's host and the output on
    the input host.  The extension is factored from its half-edges, and
    neither its walks nor its drawing is built."""
    f = boundary_path_drawing(patch, steps=4)
    a = anchored_ends(f)
    built = []
    walk, drawing = Walk.from_half_edges.__func__, Drawing.__init__

    def counted_walk(cls, *args, **kwargs):
        built.append("walk")
        return walk(cls, *args, **kwargs)

    def counted_drawing(*args):
        built.append("drawing")
        drawing(*args)

    monkeypatch.setattr(Walk, "from_half_edges", classmethod(counted_walk))
    monkeypatch.setattr(Drawing, "__init__", counted_drawing)
    harmonize_rel_anchor(f, a)
    assert built.count("walk") == f.graph.num_edges() == 4
    assert built.count("drawing") == 2


def test_harmonize_rel_anchor_path(patch):
    f = boundary_path_drawing(patch)
    a = anchored_ends(f)
    f2, trace = harmonize_rel_anchor(f, a)
    assert f2.graph is f.graph
    assert f2.vertex_map[0] != f2.vertex_map[f.graph.num_vertices - 1]
    per0, total0 = f.lengths()
    per2, total2 = f2.lengths()
    assert total2 <= total0
    assert all(b <= a_ for a_, b in zip(per0, per2))


def test_harmonize_rel_anchor_detour(patch):
    # an edge wandering into the interior and back gets pulled tight
    cyc = patch.boundary_cycles()[0]
    h = cyc[0]
    u = patch.tail(h)
    inner = patch.vertex_slots[u][0]
    detour = [inner, patch.twin[inner], h]
    g = Graph(2, [(0, 1)])
    f = Drawing(g, patch, [u, patch.head(h)],
                [Walk.from_half_edges(patch, detour, start=u)])
    a = Anchor({u: [0], patch.head(h): [1]})
    f2, trace = harmonize_rel_anchor(f, a)
    assert f2.lengths()[1] < f.lengths()[1]
    assert f2.vertex_map == extend_for_harmonization(f, a)[0].vertex_map[:2]


def test_harmonize_rel_anchor_backwards_along_boundary(patch):
    f, orders = backwards_boundary_drawing(patch)
    with pytest.raises(GuardViolation, match="^edge 0 left the host at "
                       "half-edge %d$" % len(patch.next)):
        harmonize_rel_anchor(f, Anchor(orders))


def test_harmonize_rel_anchor_empty_anchor(patch):
    f = boundary_path_drawing(patch)
    f2, trace = harmonize_rel_anchor(f, Anchor({}))
    assert f2.lengths()[1] <= f.lengths()[1]


@pytest.mark.parametrize("seed", range(5))
def test_harmonize_rel_anchor_random(seed):
    p = make_patch(seed + 10, radius=2)
    f = boundary_path_drawing(p, steps=4)
    a = anchored_ends(f)
    f2, trace = harmonize_rel_anchor(f, a)
    per0, _ = f.lengths()
    per2, _ = f2.lengths()
    assert all(b <= a_ for a_, b in zip(per0, per2))


@pytest.mark.parametrize("seed", range(5))
def test_harmonize_rel_anchor_reads_few_gadget_entries(monkeypatch, seed):
    """The runs of test_harmonize_rel_anchor_random compute fewer than
    1,000 entries of the doubled host's gadget copies, which have 7,200 to
    11,520 half-edges here: the doubled host is never built whole."""
    built, computed = [], []
    double = boundary._double_with_gadgets_unchecked
    missing = surface._Composed.__missing__

    def recording_double(t0):
        doubled = double(t0)
        built.append((t0, doubled[0]))
        return doubled

    def recording_missing(column, i):
        computed.append((id(column), i))
        return missing(column, i)

    monkeypatch.setattr(boundary, "_double_with_gadgets_unchecked",
                        recording_double)
    monkeypatch.setattr(surface._Composed, "__missing__", recording_missing)
    p = make_patch(seed + 10, radius=2)
    f = boundary_path_drawing(p, steps=4)
    harmonize_rel_anchor(f, anchored_ends(f))
    [(t0, d)] = built
    # the gadget copies' half-edges, faces and inner vertices come last
    n, nf = len(t0.next), len(t0.faces)
    k = 2 * t0.num_vertices - sum(map(t0.is_boundary_vertex,
                                      range(t0.num_vertices)))
    first = {id(d.next): 2 * n, id(d.twin): 2 * n, id(d.origin): 2 * n,
             id(d.face_of): 2 * n, id(d.slot_index): 2 * n,
             id(d.faces): 2 * nf, id(d.face_color): 2 * nf,
             id(d.vertex_slots): k}
    assert sum(i >= first.get(c, 0) for c, i in computed) < 1000
