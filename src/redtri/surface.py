"""Oriented combinatorial triangulations with 2-colored faces.

Half-edge representation: each half-edge h has next(h) (counterclockwise
successor inside its face), twin(h) (-1 on the boundary), and origin(h).
Faces are the orbits of next; the clockwise rotation around a vertex steps
from h to next(twin(h)).  Loops and multi-edges are legal, so edges are
never identified by vertex pairs.
"""

import json
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat

RED = "r"
BLUE = "b"

NO_TWIN = -1

# validation failure kinds
DEGREE_TOO_LOW = "DegreeTooLow"
DUAL_NOT_BIPARTITE = "DualNotBipartite"
NON_TRIANGLE_FACE = "NonTriangleFace"
DISCONNECTED = "Disconnected"
TWIN_BROKEN = "TwinBroken"


class StructureError(Exception):
    """Malformed half-edge tables: bad indices, or a vertex whose rotation
    does not close."""


class FormatError(Exception):
    """A malformed record in one of the text formats."""


@dataclass(frozen=True)
class Violation:
    kind: str
    location: object


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def kinds(self):
        return {v.kind for v in self.violations}


def opposite_color(c):
    return BLUE if c == RED else RED


class UnionFind:
    """Disjoint sets of the labels 0..n-1, with path halving; the root of
    a set is its smallest label."""

    def __init__(self, n=0):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; returns the root of the union."""
        a, b = self.find(a), self.find(b)
        if b < a:
            a, b = b, a
        self.parent[b] = a
        return a


def face_orbits(next_):
    """The orbits of the permutation next_, each starting at its smallest
    member, in order of that member, and the orbit index of every element."""
    face_of, faces = [-1] * len(next_), []
    find, h = face_of.index, 0
    while True:
        try:
            h = find(-1, h)  # the least element of no orbit yet
        except ValueError:
            return tuple(faces), face_of
        orbit, g = [h], next_[h]
        face_of[h] = len(faces)
        while g != h:
            if face_of[g] != -1:
                raise StructureError("next is not a permutation")
            face_of[g] = len(faces)
            orbit.append(g)
            g = next_[g]
        faces.append(tuple(orbit))


def _walk_rotations(next_, twin, origin, starts, slots, slot_index,
                    on_boundary):
    """Walk each vertex v's rotation into slots[v], on_boundary[v] and
    slot_index, taking the vertices by their smallest half-edge h: the
    chain h -> next(twin(h)) from starts[v] to a twin-less half-edge, else
    from h round to h.  None, or the first vertex with a second chain or
    whose chain meets another vertex's half-edge, one walked before or a
    wrong end."""
    find, h = slot_index.index, 0
    while True:
        try:
            h = find(-1, h)  # the least half-edge no chain holds yet
        except ValueError:
            return None
        v = origin[h]
        h0 = starts.get(v, h)
        rotation, i, t = [h0], 1, twin[h0]
        slot_index[h0] = 0
        while t != NO_TWIN:
            g = next_[t]
            if slot_index[g] >= 0 or origin[g] != v:
                break
            rotation.append(g)
            slot_index[g] = i
            i += 1
            t = twin[g]
        if slots[v] is not None or (  # only an interior one broke off
                t != NO_TWIN if v in starts else t == NO_TWIN or g != h0):
            return v
        slots[v] = tuple(rotation)
        on_boundary[v] = t == NO_TWIN


class Triangulation:
    """An immutable triangulated surface with 2-colored faces.

    Construct from parallel half-edge arrays plus a dict of colors in
    which the smallest half-edge id of each face orbit gives the face's
    color (other keys are ignored).  Construction checks the arrays' range
    (a min and a max of each), then walks the face orbits and the vertex
    rotations, each from the least half-edge no walk holds yet, and raises
    StructureError naming a vertex whose rotation does not close.
    """

    def __init__(self, next_, twin, origin, face_colors):
        n = len(next_)
        if not (len(twin) == n and len(origin) == n):
            raise StructureError("half-edge tables have mismatched lengths")
        next_, twin, origin = tuple(next_), tuple(twin), tuple(origin)
        # every vertex has a half-edge, so vertex ids are below n as well
        vertices = max(origin, default=-1) + 1
        if n and not (0 <= min(next_) and max(next_) < n
                      and NO_TWIN <= min(twin) and max(twin) < n
                      and 0 <= min(origin) and vertices <= n):
            h = next(h for h in range(n)
                     if not (0 <= next_[h] < n and 0 <= origin[h] < n
                             and NO_TWIN <= twin[h] < n))
            raise StructureError("next, twin or origin out of range at %d" % h)

        # faces = orbits of next (any length; the validator flags non-triangles)
        faces, face_of = face_orbits(next_)
        face_color = tuple([face_colors.get(orbit[0]) for orbit in faces])
        if not {RED, BLUE}.issuperset(face_color):
            i = next(i for i, c in enumerate(face_color) if c not in (RED, BLUE))
            raise StructureError("bad color %r for face at half-edge %d"
                                 % (face_color[i], faces[i][0]))

        boundary = tuple([h for h, t in enumerate(twin) if t == NO_TWIN])
        starts = {origin[g]: g for g in [next_[h] for h in boundary]}
        slots, on_boundary = [None] * vertices, [False] * vertices
        slot_index = [-1] * n
        if len(starts) < len(boundary):  # two boundary half-edges into one
            broken = min(v for v, k in Counter(
                [origin[next_[h]] for h in boundary]).items() if k > 1)
        else:
            broken = _walk_rotations(next_, twin, origin, starts, slots,
                                     slot_index, on_boundary)
        if broken is not None or None in slots:
            missing = set(range(vertices)).difference(origin)
            if missing:
                raise StructureError("vertex %d has no half-edge" % min(missing))
            raise StructureError("vertex %d has a broken rotation" % broken)
        self.next, self.twin, self.origin = next_, twin, origin
        self.faces, self.face_of = faces, tuple(face_of)
        self.face_color = face_color
        self._boundary_half_edges = boundary
        self.num_vertices = vertices
        # the slots, and the position of every half-edge in those of its tail
        self.vertex_slots, self.slot_index = tuple(slots), tuple(slot_index)
        self._vertex_on_boundary = tuple(on_boundary)

    # -- basic accessors ---------------------------------------------------

    def head(self, h):
        return self.origin[self.next[h]]

    def tail(self, h):
        return self.origin[h]

    def prev(self, h):
        g = self.next[self.next[h]]  # a triangle's, else it goes on round
        while self.next[g] != h:
            g = self.next[g]
        return g

    def color_left(self, h):
        """Color of the face on the left of directed half-edge h."""
        return self.face_color[self.face_of[h]]

    # -- vertices ----------------------------------------------------------

    def is_boundary_vertex(self, v):
        return self._vertex_on_boundary[v]

    def degree(self, v):
        """Number of edge-ends at v (loops count twice)."""
        d = len(self.vertex_slots[v])
        if self._vertex_on_boundary[v]:
            d += 1  # the incoming boundary half-edge has no outgoing partner
        return d

    def boundary_half_edges(self):
        return self._boundary_half_edges

    def num_edges(self):
        n = len(self.next)
        nb = len(self.boundary_half_edges())
        return (n - nb) // 2 + nb

    def is_closed(self):
        return not self.boundary_half_edges()

    # -- global invariants -------------------------------------------------

    def euler_characteristic(self):
        return self.num_vertices - self.num_edges() + len(self.faces)

    def num_boundary_components(self):
        return len(self.boundary_cycles())

    def _boundary_successor(self, h):
        # next boundary half-edge along the boundary walk (interior on the
        # left): the last slot of h's head, whose rotation walk is this walk
        return self.vertex_slots[self.origin[self.next[h]]][-1]

    def boundary_cycles(self):
        """Boundary components as lists of boundary half-edges, in walk order."""
        seen = set()
        cycles = []
        for h in sorted(self.boundary_half_edges()):
            if h in seen:
                continue
            cyc = []
            g = h
            while g not in seen:
                seen.add(g)
                cyc.append(g)
                g = self._boundary_successor(g)
            cycles.append(cyc)
        return cycles

    def genus(self):
        chi = self.euler_characteristic()
        b = self.num_boundary_components()
        return (2 - chi - b) // 2


def validate_reducing(t):
    """Check the reducing-triangulation conditions; reports every violation.
    Each condition is a pass over columns of the tables, not over objects."""
    twin, origin = t.twin, t.origin
    head = [origin[g] for g in t.next]
    violations = [Violation(TWIN_BROKEN, h) for h, g in enumerate(twin)
                  if g != NO_TWIN and (g == h or twin[g] != h
                                       or origin[g] != head[h]
                                       or origin[h] != head[g])]
    violations += [Violation(NON_TRIANGLE_FACE, i)
                   for i, k in enumerate(map(len, t.faces)) if k != 3]
    face_color = t.face_color
    color = [face_color[f] for f in t.face_of]
    violations += [Violation(DUAL_NOT_BIPARTITE, (h, g))
                   for h, g in enumerate(twin)
                   if h < g and twin[g] == h and color[h] == color[g]]
    slots, on_boundary = t.vertex_slots, t._vertex_on_boundary
    violations += [Violation(DEGREE_TOO_LOW, v)
                   for v, k in enumerate(map(len, slots))
                   if k < 6 and not on_boundary[v]]

    if slots:
        seen, stack = bytearray(len(slots)), [0]
        seen[0] = 1
        while stack:
            for h in slots[stack.pop()]:
                w = head[h]
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
        if 0 in seen:
            violations.append(Violation(DISCONNECTED, tuple(
                [v for v, s in enumerate(seen) if not s])))

    return ValidationReport(not violations, tuple(violations))


def new_face(cols, v0, v1, v2, color):
    """Append a triangle with CCW corners v0, v1, v2 to the columns cols =
    (next, twin, origin, color per half-edge); returns its free sides
    v0->v1, v1->v2 and v2->v0."""
    next_, twin, origin, colors = cols
    h = len(next_)
    next_ += (h + 1, h + 2, h)
    twin += (NO_TWIN,) * 3
    origin += (v0, v1, v2)
    colors += (color,) * 3
    return h, h + 1, h + 2


def glue(cols, h, g):
    """Twin the free sides h and g of the columns cols, which must join the
    same two vertices the opposite way round: no vertex is ever merged."""
    next_, twin, origin = cols[:3]
    if h == g or twin[h] != NO_TWIN or twin[g] != NO_TWIN:
        raise StructureError("double glue")
    if origin[h] != origin[next_[g]] or origin[g] != origin[next_[h]]:
        raise StructureError("sides %d and %d do not join the same vertices"
                             % (h, g))
    twin[h], twin[g] = g, h


def build_torus():
    """The 2-triangle torus: one vertex of degree six, three edges."""
    # red face: east, north, southwest; blue face: northeast, west, south,
    # glued east / west, north / south and southwest / northeast
    return Triangulation((1, 2, 0, 4, 5, 3), (4, 5, 3, 2, 0, 1), (0,) * 6,
                         {0: RED, 3: BLUE})


def subdivide(t):
    """1->4 subdivision; the central sub-face takes the opposite color."""
    rep = validate_reducing(t)
    if not rep.ok:
        raise ValueError("subdivide requires a reducing triangulation: %s"
                         % (sorted(rep.kinds()),))
    # a midpoint vertex per edge, keyed by its smaller or only half-edge
    edges = [h for h, g in enumerate(t.twin) if g == NO_TWIN or h < g]
    mid = {h: t.num_vertices + i for i, h in enumerate(edges)}
    cols = next_, twin, origin, color = [], [], [], []
    corner_sides = {}  # (face, h) -> subdivided sides of the corner triangle
    for fi, orbit in enumerate(t.faces):
        col = t.face_color[fi]
        h0, h1, h2 = orbit[0], t.next[orbit[0]], t.next[t.next[orbit[0]]]
        m0, m1, m2 = [mid[h] if h in mid else mid[t.twin[h]]
                      for h in (h0, h1, h2)]
        v0, v1, v2 = t.origin[h0], t.origin[h1], t.origin[h2]
        s0 = new_face(cols, v0, m0, m2, col)
        s1 = new_face(cols, v1, m1, m0, col)
        s2 = new_face(cols, v2, m2, m1, col)
        c = new_face(cols, m0, m1, m2, opposite_color(col))
        glue(cols, s0[1], c[2])
        glue(cols, s1[1], c[0])
        glue(cols, s2[1], c[1])
        corner_sides[h0] = (s0[0], s1[2])  # (first half, second half) along h0
        corner_sides[h1] = (s1[0], s2[2])
        corner_sides[h2] = (s2[0], s0[2])
    for h in edges:
        g = t.twin[h]
        if g != NO_TWIN:
            ha, hb = corner_sides[h]
            ga, gb = corner_sides[g]
            glue(cols, ha, gb)
            glue(cols, hb, ga)
    return Triangulation(next_, twin, origin, dict(enumerate(color)))


def crown(k):
    """Circular list of k >= 2 triangles glued into an annulus.

    Even k is alternately colorable; odd k gets one forced color conflict so
    validation fails on DualNotBipartite.
    """
    if k < 2:
        raise ValueError("crown needs k >= 2")
    cols = next_, twin, origin, color = [], [], [], []
    # strip triangles D_t = (u_t, u_{t+1}, w_t), U_t = (u_{t+1}, w_{t+1}, w_t)
    # vertex ids: u_t = 2t, w_t = 2t+1, except that closing the strip onto
    # D_0's left side w_0 -> u_0 names the last two, k and k+1, 0 and 1;
    # for odd k, whose last side is a diagonal u -> w, 1 and 0
    vid = list(range(k)) + ([0, 1] if k % 2 == 0 else [1, 0])
    faces = []
    for i in range(k):
        t = i // 2
        if i % 2 == 0:
            v, col = (2 * t, 2 * t + 2, 2 * t + 1), RED
        else:
            v, col = (2 * t + 2, 2 * t + 3, 2 * t + 1), BLUE
        faces.append(new_face(cols, *[vid[x] for x in v], col))
    for i in range(k - 1):
        # the diagonal of D_t to U_t's, or the right side of U_t to the
        # left of D_{t+1}
        glue(cols, faces[i][1 if i % 2 == 0 else 0], faces[i + 1][2])
    # close: the last right side (even k) or diagonal (odd k) ~ left of D_0
    glue(cols, faces[k - 1][0 if k % 2 == 0 else 1], faces[0][2])
    return Triangulation(next_, twin, origin, dict(enumerate(color)))


def build_disk_patch(radius, rng):
    """Random reducing disk patch: a center vertex plus `radius` rings.

    Interior degrees are drawn from {6, 8}; each ring tents every boundary
    edge and fans every boundary vertex up to its target degree.  Any patch
    built this way keeps growing forever, so it embeds in an infinite plane
    reducing triangulation.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    t0 = rng.choice((6, 8))
    cols = next_, twin, origin, color = [], [], [], []
    for i in range(t0):
        h = 3 * i
        next_ += (h + 1, h + 2, h)
        twin += ((h or 3 * t0) - 1, NO_TWIN, (h + 3) % (3 * t0))
        origin += (0, 1 + i, 1 + (i + 1) % t0)
        color += (RED if i % 2 == 0 else BLUE,) * 3
    boundary, nverts = list(range(1, 3 * t0, 3)), 1 + t0

    def target(w, k):
        return rng.choice([d for d in (6, 8) if d >= k])

    for _ in range(radius - 1):
        boundary, nverts = _grow_ring(cols, boundary, nverts, target)
    return Triangulation(next_, twin, origin, dict(enumerate(color)))


def _grow_ring(cols, boundary, nverts, target):
    """Tent every edge of a boundary cycle, then fan every boundary vertex w
    up to degree target(w, k), where k, the least target, is its degree
    with both of its tents in place; returns the new boundary (CCW
    half-edge list) and the updated vertex count.

    Each new triangle takes sides (h, h + 1, h + 2) of the columns cols =
    (next, twin, origin, color per half-edge), tents first, then fan by fan;
    a ring never identifies two vertices, so it glues sides by their ids."""
    next_, twin, origin, color = cols
    # tent i, (v, a, apex[i]) at tents[i], has its side v->a on boundary[i]
    tents = range(len(next_), len(next_) + 3 * len(boundary), 3)
    apex = list(range(nverts, nverts + len(boundary)))
    for h, f, m in zip(boundary, tents, apex):
        next_ += (f + 1, f + 2, f)
        twin += (h, NO_TWIN, NO_TWIN)
        twin[h] = f
        origin += (origin[next_[h]], origin[h], m)
        color += (opposite_color(color[h]),) * 3
    nverts += len(apex)
    degree = Counter(origin)
    out = []
    for i, h in enumerate(boundary):
        # fan at w = origin(h), from apex[i] back to apex[i-1]
        w = origin[h]
        k = degree[w] + 1  # +1: the edge to apex[i-1] is incoming-only so far
        j = target(w, k) - k + 1
        paint = ((color[h],) * 3, (color[tents[i]],) * 3)
        xs = [apex[i], *range(nverts, nverts + j - 1), apex[i - 1]]
        nverts += j - 1
        # triangle s, (x_s, w, x_{s+1}) at f, h's color if s is even, is
        # glued along x_s->w to the side before it, first the tent's w->m
        side, f = tents[i] + 1, len(next_)
        twin[side] = f
        for s in range(j):
            a, b = f + 1, f + 3  # the next triangle is at b
            next_ += (a, f + 2, f)
            twin += (side, b, NO_TWIN)
            origin += (xs[s], w, xs[s + 1])
            color += paint[s % 2]
            side, f = a, b
        # and the last along w->x_j to the tent over the edge before
        g = tents[i - 1] + 2
        twin[side], twin[g] = g, side
        out += range(f - 1, f - 3 * j, -3)  # sides x_{s+1}->x_s, last first
    return out, nverts


def _slit(t, h):
    """Cut the interior edge carried by half-edge h open into two boundary edges."""
    g = t.twin[h]
    if g == NO_TWIN:
        raise ValueError("cannot slit a boundary edge")
    twin = list(t.twin)
    twin[h] = NO_TWIN
    twin[g] = NO_TWIN
    colors = {min(orbit): t.face_color[i] for i, orbit in enumerate(t.faces)}
    return Triangulation(t.next, twin, t.origin, colors)


def build_one_gadget():
    """Genus-1 piece whose boundary is two edges, one red- one blue-incident.

    The subdivided torus with one non-loop edge slit open.
    """
    t4 = subdivide(build_torus())
    # pick the smallest half-edge carrying a non-loop edge with a red left face
    for h in range(len(t4.next)):
        if t4.twin[h] == NO_TWIN:
            continue
        if t4.tail(h) != t4.head(h) and t4.color_left(h) == RED:
            return _slit(t4, h)
    raise StructureError("no sliceable edge found")


def gadget_boundary_edges(g):
    """(red_incident, blue_incident) boundary half-edges of a digon boundary."""
    hs = g.boundary_half_edges()
    if len(hs) != 2:
        raise ValueError("expected a two-edge boundary")
    a, c = hs
    if g.color_left(a) == RED:
        return a, c
    return c, a


@cache
def build_three_gadget():
    """Three 1-gadgets chained along their colored boundary edges.

    Every doubling uses the same immutable gadget, so it is built once."""
    g1 = build_one_gadget()
    red, blue = gadget_boundary_edges(g1)
    n, nv = len(g1.next), g1.num_vertices
    # copy q is glued by its red side to copy q - 1's blue side, so copies
    # 1 and 2 share copy 0's two corners; their other vertices follow
    # copy 0's, copy by copy
    corners = (g1.origin[red], g1.origin[blue])
    inner = [v for v in range(nv) if v not in corners]
    vid = list(range(nv))
    cols = next_, twin, origin, color = [], [], [], []
    for q in range(3):
        next_ += [g + q * n for g in g1.next]
        twin += [NO_TWIN if g == NO_TWIN else g + q * n for g in g1.twin]
        origin += [vid[v] for v in g1.origin]
        color += [g1.face_color[f] for f in g1.face_of]
        for i, v in enumerate(inner, nv + q * len(inner)):
            vid[v] = i
    glue(cols, blue, n + red)
    glue(cols, n + blue, 2 * n + red)
    return Triangulation(next_, twin, origin, dict(enumerate(color)))


def double_with_gadgets(t0):
    """Mirror-double a bounded reducing triangulation, filling each identified
    boundary edge with a 3-gadget so the result is closed and reducing."""
    rep = validate_reducing(t0)
    if not rep.ok:
        raise ValueError("host must be reducing: %s" % (sorted(rep.kinds()),))
    if t0.is_closed():
        raise ValueError("host already closed")
    return _double_with_gadgets_unchecked(t0)[0].materialize()


def _double_with_gadgets_unchecked(t0):
    """Returns (doubled host, mirror offset): the half-edges of t0 keep
    their ids, and half-edge h of the mirror copy is mirror offset + h."""
    return DoubledHost(t0), len(t0.next)


class _Composed(dict):
    """A column that holds some entries and computes any other below `size`
    with `entry` when it is first read, and keeps it.

    A held entry is read at the speed of a dict.  Otherwise the column
    reads like a tuple: len() is `size`, iteration yields the entries in
    order, and an index outside 0..size-1 raises IndexError.  `entry(i)`
    gives every entry, held or not, and keeps none: a host composed from
    another reads the other's entries through it, so that each is kept
    once."""

    __slots__ = ("size", "entry")

    def __init__(self, held, size, entry):
        super().__init__(held)
        self.size, self.entry = size, entry

    def __missing__(self, i):
        if not 0 <= i < self.size:
            raise IndexError("index %r out of range(%d)" % (i, self.size))
        value = self[i] = self.entry(i)
        return value

    def __len__(self):
        return self.size

    def __iter__(self):
        return map(self.__getitem__, range(self.size))


class _SlotIndex(_Composed):
    """A slot_index column of a host's rotations and origins: the first
    read of a half-edge's entry reads its tail's rotation and sets the
    entries of all of it.  It holds the two columns, not the host, so that
    a host is freed as soon as it is dropped."""

    __slots__ = ("rotations", "origins")

    def __init__(self, held, size, rotations, origins):
        super().__init__(held, size, None)
        self.rotations, self.origins = rotations, origins

    def __missing__(self, h):
        rotation = self.rotations[self.origins[h]]  # range-checks h
        self.update(zip(rotation, range(len(rotation))))
        return self[h]


class _ComposedHost(Triangulation):
    """A host whose columns are `_Composed`: the tables of its parts, held
    or computed when first read."""

    def materialize(self):
        """The Triangulation of the glued tables: every entry computed."""
        return Triangulation(self.next, self.twin, self.origin, dict(
            enumerate(map(self.color_left, range(len(self.next))))))


class DoubledHost(_ComposedHost):
    """The closed host of gluing a bounded triangulation t0, its mirror and
    a 3-gadget copy per seam, composed at fixed offsets.

    Mirror half-edge n + h (n = |t0|) runs along h the other way, in a face
    of the other color; t0's i-th boundary half-edge h, seam i, and n + h
    are glued to 3-gadget copy i at 2n + i * |gadget|.  Seam vertices keep
    t0's ids; the other mirror, then inner gadget, vertices take the next.

    The columns next, twin, origin, face_of and face_color hold the entries
    of t0's real tables and of their mirror, which the moves read most: all
    of t0, or of a crowned host only its input host.  faces, vertex_slots
    and slot_index hold the real tables' own, but at the vertices whose
    rotation the gluing changes: the seams', and a crowned host's old
    boundary vertices.  Every other entry is computed when it is first
    read, and kept: a crown's, or its mirror copy's, by the crowned host's
    rule, a gadget copy's as an offset of the one 3-gadget's, a mirror
    vertex's rotation the twins of its t0 vertex's reversed, and a seam
    vertex's that of t0 with the mirror's and the gadget corners' spliced
    in.  Sizes, and so genus() and num_edges(), are arithmetic on the
    parts.  Every entry equals that of `materialize()`.
    """

    def __init__(self, t0):
        g3 = build_three_gadget()
        red, blue = gadget_boundary_edges(g3)
        n, m, nf, fm = len(t0.next), len(g3.next), len(t0.faces), len(g3.faces)
        # t0's entries, a crowned host's by the rules of its columns: this
        # host keeps what it reads, so they are not kept twice
        nxt0, twin0, org0, fof0, faces0, color0 = [
            getattr(col, "entry", col.__getitem__) for col in (
                t0.next, t0.twin, t0.origin, t0.face_of, t0.faces,
                t0.face_color)]
        nv, seams = t0.num_vertices, t0.boundary_half_edges()
        size = 2 * n + m * len(seams)
        nfaces = 2 * nf + fm * len(seams)
        # the real tables: t0's, or a crowned host's (`boundary.CrownedHost`)
        # input host's, which the seams, round the crowns, do not touch;
        # only its boundary vertices' rotations changed, so the vertices off
        # both boundaries keep their real slots
        src = getattr(t0, "base", t0)
        on_seam = t0._vertex_on_boundary
        kept = [v for v in range(nv) if not on_seam[v]]
        fixed = [v for v in kept if v < src.num_vertices
                 and not src._vertex_on_boundary[v]]
        r, rf = len(src.next), len(src.faces)
        # t0's mirror copy of kept[i] is nv + i
        vid = list(range(nv))
        for w, v in enumerate(kept, nv):
            vid[v] = w
        k = nv + len(kept)  # the id of the first inner gadget vertex
        corners = (g3.origin[red], g3.origin[blue])
        inner = [j for j in range(g3.num_vertices) if j not in corners]

        def part(i, first, step):
            """(copy, its half-edge offset, index in the gadget) of entry i
            of a column whose gadget entries start at first, step per copy."""
            q, r = divmod(i - first, step)
            return q, 2 * n + q * m, r

        def prev0(h):
            g = nxt0(nxt0(h))  # a triangle's, else it goes on round
            while nxt0(g) != h:
                g = nxt0(g)
            return g

        # per seam, the gadget half-edge x of the other color, glued to it,
        # which runs head -> tail; the other boundary half-edge runs back
        xs = _Composed((), len(seams), lambda q: (
            blue if color0(fof0(seams[q])) == RED else red))

        def next_(i):
            if i < 2 * n:
                return nxt0(i) if i < n else n + prev0(i - n)
            q, off, r = part(i, 2 * n, m)
            return off + g3.next[r]

        def twin(i):
            if i < 2 * n:
                g = twin0(i % n)
                if g != NO_TWIN:
                    return g if i < n else n + g
                q = bisect_left(seams, i % n)
                x = xs[q]
                return 2 * n + q * m + (x if i < n else red + blue - x)
            q, off, r = part(i, 2 * n, m)
            if g3.twin[r] != NO_TWIN:
                return off + g3.twin[r]
            return seams[q] if r == xs[q] else n + seams[q]

        def origin(i):
            if i < 2 * n:
                return org0(i) if i < n else vid[org0(nxt0(i - n))]
            q, off, r = part(i, 2 * n, m)
            j = g3.origin[r]
            if j not in corners:
                return k + len(inner) * q + inner.index(j)
            h = seams[q]
            return org0(nxt0(h)) if j == g3.origin[xs[q]] else org0(h)

        def face_of(i):
            if i < 2 * n:
                return fof0(i) if i < n else nf + fof0(i - n)
            q, off, r = part(i, 2 * n, m)
            return 2 * nf + q * fm + g3.face_of[r]

        def faces(f):
            if f < nf:
                return faces0(f)
            if f < 2 * nf:
                o = faces0(f - nf)
                return tuple([n + g for g in o[:1] + o[:0:-1]])
            q, off, r = part(f, 2 * nf, fm)
            return tuple([off + g for g in g3.faces[r]])

        def face_color(f):
            if f < 2 * nf:
                c = color0(f % nf)
                return c if f < nf else opposite_color(c)
            return g3.face_color[(f - 2 * nf) % fm]

        def corner(h):
            """The slots of the gadget corner that seam half-edge h's twin
            enters."""
            q, off, r = part(twins[h], 2 * n, m)
            return tuple([off + g for g in
                          g3.vertex_slots[g3.origin[g3.next[r]]]])

        def vertex_slots(v):
            if v >= k:
                q, off, j = part(v, k, len(inner))
                return tuple([off + g for g in g3.vertex_slots[inner[j]]])
            if v >= nv:  # the twins of t0's slots, read where held
                slots = t0.vertex_slots[kept[v - nv]][::-1]
                run = [n + (twin0(h) if g is None else g)
                       for h, g in zip(slots, map(twins.get, slots))]
                i = run.index(min(run))
                return tuple(run[i:] + run[:i])
            if not on_seam[v]:
                return t0.vertex_slots[v]
            # a seam vertex: clockwise, t0's slots end at the boundary
            # half-edge out of v and start after b_in, the one into v; the
            # gadget corner glued to the first, the mirror's slots back to
            # n + b_in, and the corner glued to that come between them
            slots = t0.vertex_slots[v]
            b_in = prev0(slots[0])
            i = slots.index(min(slots))
            return (slots[i:] + corner(slots[-1])
                    + tuple([n + twin0(h) for h in slots[-2::-1]])
                    + (n + b_in,) + corner(n + b_in) + slots[:i])

        # the real part, closed under next, and its mirror; a twin it
        # lacks is t0's, a seam's or a tent's, read when first read
        nxt, org, fof = src.next, src.origin, src.face_of
        colors = src.face_color
        mirrors = range(n, n + r)
        twinned = [(h, g) for h, g in enumerate(src.twin) if g != NO_TWIN]
        # the mirror's next runs back along its face: next(n + next(h)) = n + h
        self.next = _Composed(chain(enumerate(nxt), zip(
            [n + g for g in nxt], mirrors)), size, next_)
        self.twin = twins = _Composed(chain(twinned, [
            (n + h, n + g) for h, g in twinned]), size, twin)
        self.origin = _Composed(chain(enumerate(org), zip(
            mirrors, [vid[org[g]] for g in nxt])), size, origin)
        self.face_of = _Composed(chain(enumerate(fof), zip(
            mirrors, [nf + f for f in fof])), size, face_of)
        self.faces = _Composed(enumerate(src.faces), nfaces, faces)
        self.face_color = _Composed(chain(enumerate(colors), zip(
            range(nf, nf + rf), [BLUE if c == RED else RED for c in colors])),
            nfaces, face_color)
        self.num_vertices = k + len(inner) * len(seams)
        self.vertex_slots = _Composed(
            {v: src.vertex_slots[v] for v in fixed}, self.num_vertices,
            vertex_slots)
        fixed = set(fixed)
        self.slot_index = _SlotIndex(
            {h: i for h, i in enumerate(src.slot_index) if org[h] in fixed},
            size, self.vertex_slots, self.origin)
        self._boundary_half_edges = ()
        self._vertex_on_boundary = (False,) * self.num_vertices


# -- text formats ------------------------------------------------------------

_EQUALS = repeat("=")


def records(text, handlers):
    """Hand each record of a line-oriented text format to its handler.

    A record is a non-blank line with its `#` comment cut off: a keyword,
    k positional fields, then `key=value` fields, where `handlers[keyword]`
    is (k, handler).  The handler gets the positional fields and a dict of
    the `key=value` fields, all strings, and pops, converts and checks
    them itself.  A malformed record raises FormatError naming its line: an
    unknown keyword, too few fields, a field after the positional ones
    without exactly one `=`, a ValueError (a bad value) or KeyError (a
    missing key) raised by the handler, or a field it did not pop.
    """
    for n, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        k, handle = handlers.get(parts[0], (0, None))
        try:
            if handle is None:
                raise ValueError("unknown record")
            if len(parts) <= k:
                raise ValueError("too few fields")
            k += 1
            # field.split("="), which dict() rejects unless it has two parts
            fields = dict(map(str.split, parts[k:], _EQUALS))
            handle(*parts[1:k], fields)
            if fields:
                raise ValueError("unknown field %r" % next(iter(fields)))
        except KeyError as exc:
            raise FormatError("line %d: no %s= in %r"
                              % (n, exc.args[0], line.strip())) from None
        except ValueError as exc:
            # dict() fails only on a field without exactly one `=`
            stray = [p for p in parts[k:] if p.count("=") != 1]
            if handle and stray:
                exc = "field %r is not key=value" % stray[0]
            raise FormatError("line %d: %s in %r"
                              % (n, exc, line.strip())) from None


def int_list(text, stop=None):
    """The integers of a comma-separated field ("-" for none), each in
    range(stop) if stop is given; ValueError otherwise."""
    ids = () if text == "-" else tuple(map(int, text.split(",")))
    if stop is not None:
        for i in ids:
            if not 0 <= i < stop:
                raise ValueError("%d out of range(%d)" % (i, stop))
    return ids


def write_tri(t):
    lines = ["tri %d" % len(t.next)]
    for h in range(len(t.next)):
        tw = t.twin[h]
        lines.append("he %d next=%d twin=%s origin=%d"
                     % (h, t.next[h], ("-" if tw == NO_TWIN else str(tw)),
                        t.origin[h]))
    for i, orbit in enumerate(t.faces):
        lines.append("face %d color=%s he=%d" % (i, t.face_color[i], min(orbit)))
    return "\n".join(lines) + "\n"


def read_tri(text):
    """The Triangulation of a `.tri` text.

    Text in the layout `write_tri` emits is read in time linear in its
    size (`_tri_columns`): its bytes, translated twice, give its layout and
    one JSON list, parsed once, whose slices are the columns.  Text in any
    other layout (comments, blank lines, other key orders, duplicate or
    unknown keys, numbers that int() reads but write_tri does not write)
    goes record by record through `records` (`_tri_records`), which gives
    every FormatError.  Both read the same text into the same tables.

    A face has one record, for its smallest half-edge: any other leaves
    more colors than faces, and only then is the text read again to name it.
    """
    tables = _tri_columns(text) or _tri_records(text)
    t = Triangulation(*tables)
    if len(tables[3]) != len(t.faces):
        _tri_records(text, t)
    return t


def _tri_records(text, t=None):
    """The half-edge tables and face colors of a `.tri` text, record by
    record; FormatError for a malformed record, or with t, the text's
    Triangulation, for a face record off its face's smallest half-edge."""
    next_ = twin = origin = given = None
    face_colors = {}

    def header(n, fields):
        nonlocal next_, twin, origin, given
        n = int(n)
        if next_ is not None:
            raise ValueError("a second header")
        # a host has a half-edge, and each half-edge takes a line
        if not 1 <= n <= len(text):
            raise ValueError("half-edge count out of range")
        next_, twin, origin = [NO_TWIN] * n, [NO_TWIN] * n, [NO_TWIN] * n
        given = bytearray(n)

    def half_edge(h, fields):
        h = int(h)
        if next_ is None:
            raise ValueError("half-edge before the header")
        if not 0 <= h < len(next_):
            raise ValueError("half-edge %d out of range" % h)
        if given[h]:
            raise ValueError("half-edge %d given twice" % h)
        given[h] = 1
        next_[h] = int(fields.pop("next"))
        tw = fields.pop("twin")
        twin[h] = NO_TWIN if tw == "-" else int(tw)
        origin[h] = int(fields.pop("origin"))

    def face(i, fields):
        i = int(i)
        if next_ is None:
            raise ValueError("face before the header")
        # a face has at least one half-edge
        if not 0 <= i < len(next_):
            raise ValueError("face %d out of range" % i)
        h = int(fields.pop("he"))
        if not 0 <= h < len(next_):
            raise ValueError("half-edge %d out of range" % h)
        if h in face_colors:
            raise ValueError("a second face record for half-edge %d" % h)
        if t is not None and t.faces[t.face_of[h]][0] != h:
            raise ValueError("half-edge %d is not its face's smallest" % h)
        face_colors[h] = fields.pop("color")

    records(text, {"tri": (1, header), "he": (1, half_edge),
                   "face": (1, face)})
    if next_ is None:
        raise FormatError("missing tri header")
    return next_, twin, origin, face_colors


# the lines write_tri emits, with their digits and `-` deleted
_TRI_SHAPE = b"tri \n"
_HE_SHAPE = b"he  next= twin= origin=\n"
_FACE_SHAPE = b"face  color=r he=\n"
# delete the letters of the keys and colors but the l of `color`, which
# becomes a 0; `=` and line ends become blanks, a space before a field a comma
_JSON_LIST = bytes.maketrans(b"=\n l", b"  ,0"), b"abcefghinortwx"
_NO_VALUE = re.compile("=[ \n]")  # a key's digits would pass for the value


def _tri_columns(text):
    """The tables `_tri_records` reads from text in `write_tri`'s layout,
    or None for any other text, or for two face records of one half-edge.

    The layout is the header `tri n`, the n lines `he h next=.. twin=..
    origin=..` for h = 0..n-1 in order, then lines `face i color=.. he=..`,
    each ending in a newline.  With its digits and `-` deleted, the text
    must be that skeleton but for the colors; and no value may be empty.
    Then one translation (_JSON_LIST) of the text after `tri `, with each
    `-` spelled `-1 `, is a JSON list for one json.loads: n, four numbers
    per half-edge, and three per face, the second the 0 of `color`.  A
    digit in a key, next to a color or to a `-` leaves two numbers side by
    side or a number other than that 0, which json.loads or a check here
    rejects, as it does leading zeros and a lone `-` off a twin.  Colors
    are left to the constructor's check, as in `_tri_records`.
    """
    if not (text.isascii() and text.startswith("tri ")):
        return None
    try:
        n = int(text[4:text.index("\n")])
    except ValueError:
        return None
    shape = bytearray(text.encode().translate(None, b"0123456789-"))
    faces, rest = divmod(len(shape) - len(_TRI_SHAPE) - n * len(_HE_SHAPE),
                         len(_FACE_SHAPE))
    if n < 1 or faces < 0 or rest:
        return None
    at = slice(len(shape) - faces * len(_FACE_SHAPE)  # the face colors
               + _FACE_SHAPE.index(b"r "), None, len(_FACE_SHAPE))
    colors, shape[at] = shape[at].decode(), b"r" * faces
    if (shape != _TRI_SHAPE + n * _HE_SHAPE + faces * _FACE_SHAPE
            or _NO_VALUE.search(text)):
        return None
    del shape  # the JSON text, a str, and its list alone make the peak
    try:
        values = json.loads((b"[%s]" % text[4:].encode().translate(
            *_JSON_LIST).replace(b"-", b"-1 ")).decode())
    except ValueError:
        return None
    m = 1 + 4 * n  # the faces' numbers start here
    next_, origin = values[2:m:4], values[4:m:4]
    if (len(values) != m + 3 * faces or values[1:m:4] != list(range(n))
            or any(values[m + 1::3]) or min(next_) < 0 or min(origin) < 0):
        return None
    index, hes = values[m::3], values[m + 2::3]
    if faces and not (0 <= min(index) and max(index) < n
                      and 0 <= min(hes) and max(hes) < n):
        return None
    colors = dict(zip(hes, colors))
    return ((tuple(next_), tuple(values[3:m:4]), tuple(origin), colors)
            if len(colors) == faces else None)
