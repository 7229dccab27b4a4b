"""Oriented combinatorial triangulations with 2-colored faces.

Half-edge representation: each half-edge h has next(h) (counterclockwise
successor inside its face), twin(h) (-1 on the boundary), and origin(h).
Faces are the orbits of next; the clockwise rotation around a vertex is
rot_cw(h) = next(twin(h)).  Loops and multi-edges are legal, so edges are
never identified by vertex pairs.
"""

from dataclasses import dataclass

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
    """Malformed half-edge tables (bad indices, broken vertex chains)."""


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


class Triangulation:
    """An immutable triangulated surface with 2-colored faces.

    Construct from parallel half-edge arrays plus per-face colors keyed by
    the smallest half-edge id of the face orbit.
    """

    def __init__(self, next_, twin, origin, face_colors):
        n = len(next_)
        if not (len(twin) == n and len(origin) == n):
            raise StructureError("half-edge tables have mismatched lengths")
        self.next = tuple(next_)
        self.twin = tuple(twin)
        self.origin = tuple(origin)
        for h in range(n):
            if not (0 <= self.next[h] < n):
                raise StructureError("next out of range at %d" % h)
            t = self.twin[h]
            if t != NO_TWIN and not (0 <= t < n):
                raise StructureError("twin out of range at %d" % h)

        # faces = orbits of next (any length; the validator flags non-triangles)
        face_of = [-1] * n
        faces = []
        for h in range(n):
            if face_of[h] != -1:
                continue
            orbit = [h]
            face_of[h] = len(faces)
            g = self.next[h]
            while g != h:
                if face_of[g] != -1:
                    raise StructureError("next is not a permutation")
                face_of[g] = len(faces)
                orbit.append(g)
                g = self.next[g]
            faces.append(tuple(orbit))
        self.face_of = tuple(face_of)
        self.faces = tuple(faces)
        colors = []
        for orbit in self.faces:
            rep = min(orbit)
            if rep not in face_colors:
                raise StructureError("missing color for face at half-edge %d" % rep)
            c = face_colors[rep]
            if c not in (RED, BLUE):
                raise StructureError("bad color %r" % (c,))
            colors.append(c)
        self.face_color = tuple(colors)

        self.num_vertices = (max(self.origin) + 1) if n else 0
        self._build_vertex_slots()

    # -- basic accessors ---------------------------------------------------

    def head(self, h):
        return self.origin[self.next[h]]

    def tail(self, h):
        return self.origin[h]

    def prev(self, h):
        g = h
        while self.next[g] != h:
            g = self.next[g]
        return g

    def color_left(self, h):
        """Color of the face on the left of directed half-edge h."""
        return self.face_color[self.face_of[h]]

    def rot_cw(self, h):
        """Next outgoing slot clockwise around origin(h); None at boundary."""
        t = self.twin[h]
        if t == NO_TWIN:
            return None
        return self.next[t]

    # -- vertices ----------------------------------------------------------

    def _build_vertex_slots(self):
        n = len(self.next)
        out = [[] for _ in range(self.num_vertices)]
        for h in range(n):
            v = self.origin[h]
            if v < 0:
                raise StructureError("negative origin at %d" % h)
            out[v].append(h)
        slots = []
        slot_index = [-1] * n
        boundary = []
        broken = set()
        for v, hs in enumerate(out):
            if not hs:
                raise StructureError("vertex %d has no half-edge" % v)
            # clockwise chain; a vertex is interior iff the chain is cyclic
            starts = [h for h in hs if self.twin[self.prev(h)] == NO_TWIN]
            ok = True
            if not starts:
                h0 = min(hs)
                chain = [h0]
                g = self.rot_cw(h0)
                while g is not None and g != h0 and len(chain) <= len(hs):
                    chain.append(g)
                    g = self.rot_cw(g)
                if g != h0 or len(chain) != len(hs):
                    ok = False
                is_bnd = False
            else:
                if len(starts) != 1:
                    ok = False
                chain = [starts[0]]
                g = self.rot_cw(starts[0])
                while g is not None and len(chain) <= len(hs):
                    chain.append(g)
                    g = self.rot_cw(g)
                if len(chain) != len(hs):
                    ok = False
                is_bnd = True
            if not ok:
                # twin structure is damaged; keep a usable slot list anyway so
                # the validator can still report what is wrong
                broken.add(v)
                chain = sorted(hs)
                is_bnd = any(self.twin[h] == NO_TWIN for h in hs)
            for i, h in enumerate(chain):
                slot_index[h] = i
            slots.append(tuple(chain))
            boundary.append(is_bnd)
        self.vertex_slots = tuple(slots)
        # position of every half-edge within the slots of its tail
        self.slot_index = tuple(slot_index)
        self._vertex_on_boundary = tuple(boundary)
        self.broken_rotation = frozenset(broken)

    def is_boundary_vertex(self, v):
        return self._vertex_on_boundary[v]

    def degree(self, v):
        """Number of edge-ends at v (loops count twice)."""
        d = len(self.vertex_slots[v])
        if self._vertex_on_boundary[v]:
            d += 1  # the incoming boundary half-edge has no outgoing partner
        return d

    def boundary_half_edges(self):
        return tuple(h for h in range(len(self.next)) if self.twin[h] == NO_TWIN)

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
        seen = set()
        count = 0
        for h in self.boundary_half_edges():
            if h in seen:
                continue
            count += 1
            g = h
            while g not in seen:
                seen.add(g)
                g = self._boundary_successor(g)
        return count

    def _boundary_successor(self, h):
        # next boundary half-edge along the boundary walk (interior on the left)
        s = self.next[h]
        while self.twin[s] != NO_TWIN:
            s = self.next[self.twin[s]]
        return s

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
    """Check the reducing-triangulation conditions; reports every violation."""
    violations = []

    for h in range(len(t.next)):
        g = t.twin[h]
        if g == NO_TWIN:
            continue
        if g == h or t.twin[g] != h:
            violations.append(Violation(TWIN_BROKEN, h))
        elif t.origin[g] != t.head(h) or t.origin[h] != t.head(g):
            violations.append(Violation(TWIN_BROKEN, h))

    for v in sorted(t.broken_rotation):
        violations.append(Violation(TWIN_BROKEN, ("vertex", v)))

    for i, orbit in enumerate(t.faces):
        if len(orbit) != 3:
            violations.append(Violation(NON_TRIANGLE_FACE, i))

    for h in range(len(t.next)):
        g = t.twin[h]
        if g != NO_TWIN and t.twin[g] == h:
            c1 = t.face_color[t.face_of[h]]
            c2 = t.face_color[t.face_of[g]]
            if c1 == c2 and h < g:
                violations.append(Violation(DUAL_NOT_BIPARTITE, (h, g)))

    for v in range(t.num_vertices):
        if not t.is_boundary_vertex(v) and t.degree(v) < 6:
            violations.append(Violation(DEGREE_TOO_LOW, v))

    if t.num_vertices:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for h in t.vertex_slots[v]:
                w = t.head(h)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != t.num_vertices:
            violations.append(Violation(DISCONNECTED, tuple(sorted(
                set(range(t.num_vertices)) - seen))))

    return ValidationReport(not violations, tuple(violations))


class MapBuilder:
    """Mutable half-edge scratchpad used by the constructors."""

    def __init__(self):
        self.next = []
        self.twin = []
        self.origin = []
        self.color = []  # per half-edge; faces get the color of their members

    def new_face(self, v0, v1, v2, color):
        """Add a triangle with CCW vertex sequence v0,v1,v2; returns its sides."""
        base = len(self.next)
        h01, h12, h20 = base, base + 1, base + 2
        self.next.extend([h12, h20, h01])
        self.twin.extend([NO_TWIN, NO_TWIN, NO_TWIN])
        self.origin.extend([v0, v1, v2])
        self.color.extend([color, color, color])
        return h01, h12, h20

    def glue(self, h, g):
        if self.twin[h] != NO_TWIN or self.twin[g] != NO_TWIN:
            raise StructureError("double glue")
        self.twin[h] = g
        self.twin[g] = h

    def head(self, h):
        return self.origin[self.next[h]]

    def identify_vertices(self, keep, drop):
        if keep == drop:
            return
        for i, v in enumerate(self.origin):
            if v == drop:
                self.origin[i] = keep

    def compact_vertices(self):
        """Renumber vertices densely, preserving relative order."""
        used = sorted(set(self.origin))
        remap = {v: i for i, v in enumerate(used)}
        self.origin = [remap[v] for v in self.origin]
        return remap

    def build(self):
        self.compact_vertices()
        face_colors = {}
        seen = [False] * len(self.next)
        for h in range(len(self.next)):
            if seen[h]:
                continue
            orbit = [h]
            seen[h] = True
            g = self.next[h]
            while g != h:
                seen[g] = True
                orbit.append(g)
                g = self.next[g]
            face_colors[min(orbit)] = self.color[h]
        return Triangulation(self.next, self.twin, self.origin, face_colors)


def build_torus():
    """The 2-triangle torus: one vertex of degree six, three edges."""
    b = MapBuilder()
    # red face: east, north, southwest; blue face: northeast, west, south
    r = b.new_face(0, 0, 0, RED)
    u = b.new_face(0, 0, 0, BLUE)
    b.glue(r[0], u[1])  # east / west
    b.glue(r[1], u[2])  # north / south
    b.glue(r[2], u[0])  # southwest / northeast
    return b.build()


def subdivide(t):
    """1->4 subdivision; the central sub-face takes the opposite color."""
    rep = validate_reducing(t)
    if not rep.ok:
        raise ValueError("subdivide requires a reducing triangulation: %s"
                         % (sorted(rep.kinds()),))
    nv = t.num_vertices
    # midpoint vertex per undirected edge
    mid = {}
    counter = nv
    for h in range(len(t.next)):
        g = t.twin[h]
        key = h if (g == NO_TWIN or h < g) else g
        if key not in mid:
            mid[key] = counter
            counter += 1

    def midpoint(h):
        g = t.twin[h]
        return mid[h if (g == NO_TWIN or h < g) else g]

    b = MapBuilder()
    corner_sides = {}  # (face, h) -> subdivided sides of the corner triangle
    for fi, orbit in enumerate(t.faces):
        col = t.face_color[fi]
        h0, h1, h2 = orbit[0], t.next[orbit[0]], t.next[t.next[orbit[0]]]
        m0, m1, m2 = midpoint(h0), midpoint(h1), midpoint(h2)
        v0, v1, v2 = t.origin[h0], t.origin[h1], t.origin[h2]
        s0 = b.new_face(v0, m0, m2, col)
        s1 = b.new_face(v1, m1, m0, col)
        s2 = b.new_face(v2, m2, m1, col)
        c = b.new_face(m0, m1, m2, opposite_color(col))
        b.glue(s0[1], c[2])
        b.glue(s1[1], c[0])
        b.glue(s2[1], c[1])
        corner_sides[h0] = (s0[0], s1[2])  # (first half, second half) along h0
        corner_sides[h1] = (s1[0], s2[2])
        corner_sides[h2] = (s2[0], s0[2])
    for h in range(len(t.next)):
        g = t.twin[h]
        if g == NO_TWIN or h > g:
            continue
        ha, hb = corner_sides[h]
        ga, gb = corner_sides[g]
        b.glue(ha, gb)
        b.glue(hb, ga)
    return b.build()


def crown(k):
    """Circular list of k >= 2 triangles glued into an annulus.

    Even k is alternately colorable; odd k gets one forced color conflict so
    validation fails on DualNotBipartite.
    """
    if k < 2:
        raise ValueError("crown needs k >= 2")
    b = MapBuilder()
    # strip triangles D_t = (u_t, u_{t+1}, w_t), U_t = (u_{t+1}, w_{t+1}, w_t)
    # vertex ids: u_t = 2t, w_t = 2t+1
    faces = []
    for i in range(k):
        t = i // 2
        col = RED if i % 2 == 0 else BLUE
        if i % 2 == 0:
            faces.append(b.new_face(2 * t, 2 * (t + 1), 2 * t + 1, col))
        else:
            faces.append(b.new_face(2 * (t + 1), 2 * (t + 1) + 1, 2 * t + 1, col))
    for i in range(k - 1):
        if i % 2 == 0:
            b.glue(faces[i][1], faces[i + 1][2])  # diag of D_t / diag of U_t
        else:
            b.glue(faces[i][0], faces[i + 1][2])  # right of U_t / left of D_{t+1}
    if k % 2 == 0:
        n = k // 2
        # close: right side of U_{n-1} is (u_n, w_n) ~ left side of D_0 (w_0, u_0)
        b.identify_vertices(0, 2 * n)
        b.identify_vertices(1, 2 * n + 1)
        b.glue(faces[k - 1][0], faces[0][2])
    else:
        n = (k - 1) // 2
        # close: diag of D_n is (u_{n+1}, w_n) ~ left side of D_0 (w_0, u_0)
        b.identify_vertices(0, 2 * (n + 1))
        b.identify_vertices(1, 2 * n + 1)
        b.glue(faces[k - 1][1], faces[0][2])
    return b.build()


def build_disk_patch(radius, rng):
    """Random reducing disk patch: a center vertex plus `radius` rings.

    Interior degrees are drawn from {6, 8}; each ring tents every boundary
    edge and fans every boundary vertex up to its target degree.  Any patch
    built this way keeps growing forever, so it embeds in an infinite plane
    reducing triangulation.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    b = MapBuilder()
    t0 = rng.choice((6, 8))
    # center fan: triangles (0, i, i+1) around vertex 0
    tris = []
    for i in range(t0):
        p, q = 1 + i, 1 + (i + 1) % t0
        tris.append(b.new_face(0, p, q, RED if i % 2 == 0 else BLUE))
    for i in range(t0):
        b.glue(tris[i][2], tris[(i + 1) % t0][0])
    boundary = [tris[i][1] for i in range(t0)]
    nverts = 1 + t0
    for _ in range(radius - 1):
        boundary, nverts = _grow_ring(b, boundary, nverts, rng)
    return b.build()


def _grow_ring(b, boundary, nverts, rng):
    """Tent every boundary edge, then fan every boundary vertex; returns the
    new boundary (CCW half-edge list) and the updated vertex count."""
    n = len(boundary)
    apex = []
    tent = []
    for h in boundary:
        a, v = b.origin[h], b.head(h)
        m = nverts
        nverts += 1
        apex.append(m)
        col = opposite_color(b.color[h])
        # tent (v, a, m): sides v->a (onto h), a->m, m->v
        tent.append(b.new_face(v, a, m, col))
        b.glue(tent[-1][0], h)
    degree = [0] * nverts
    for o in b.origin:
        degree[o] += 1
    new_boundary = []
    for i in range(n):
        # fan at w = origin(boundary[i]), from apex[i] back to apex[i-1]
        h = boundary[i]
        w = b.origin[h]
        k = degree[w] + 1  # +1: the edge to apex[i-1] is incoming-only so far
        t = rng.choice([d for d in (6, 8) if d >= k])
        j = t - k + 1
        col = opposite_color(b.color[tent[i][1]])
        m, m_prev = apex[i], apex[i - 1]
        xs = [m] + [nverts + s for s in range(j - 1)] + [m_prev]
        nverts += j - 1
        fan_sides = []
        prev_free = tent[i][1]  # side w->m of the tent over h
        for s in range(j):
            f = b.new_face(xs[s], w, xs[s + 1], col)
            b.glue(f[0], prev_free)  # x_s->w onto w->x_s
            prev_free = f[1]
            fan_sides.append(f[2])  # boundary side x_{s+1}->x_s
            col = opposite_color(col)
        # close the fan against the tent over the previous boundary edge
        b.glue(prev_free, tent[i - 1][2])
        new_boundary.append(list(reversed(fan_sides)))
    out = []
    for i in range(n):
        out.extend(new_boundary[i])
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


class _Disjoint:
    """Disjoint union of triangulations, re-gluable along boundary edges."""

    def __init__(self):
        self.next = []
        self.twin = []
        self.origin = []
        self.color = []
        self.parts = []  # (he_offset, vertex_offset, size) per part

    def add(self, t, mirror=False):
        hoff = len(self.next)
        voff = (max(self.origin) + 1) if self.origin else 0
        n = len(t.next)
        if not mirror:
            for h in range(n):
                self.next.append(t.next[h] + hoff)
                tw = t.twin[h]
                self.twin.append(tw + hoff if tw != NO_TWIN else NO_TWIN)
                self.origin.append(t.origin[h] + voff)
                self.color.append(t.face_color[t.face_of[h]])
        else:
            # reversed orientation: each half-edge keeps its id but is re-aimed
            # tail<->head, next becomes the old prev of the twin walk; easiest
            # is to rebuild faces with reversed vertex order and swapped colors.
            prev = [0] * n
            for h in range(n):
                prev[t.next[h]] = h
            for h in range(n):
                self.next.append(prev[h] + hoff)
                tw = t.twin[h]
                self.twin.append(tw + hoff if tw != NO_TWIN else NO_TWIN)
                self.origin.append(t.head(h) + voff)
                self.color.append(opposite_color(t.face_color[t.face_of[h]]))
        self.parts.append((hoff, voff, n))
        return hoff, voff

    def glue(self, h, g):
        if self.twin[h] != NO_TWIN or self.twin[g] != NO_TWIN:
            raise StructureError("double glue")
        # identify endpoints: h runs a->b, its twin g must run b->a
        self._identify(self.origin[h], self._head(g))
        self._identify(self.origin[g], self._head(h))
        self.twin[h] = g
        self.twin[g] = h

    def _head(self, h):
        return self.origin[self.next[h]]

    def _identify(self, a, b):
        if a == b:
            return
        keep, drop = (a, b) if a < b else (b, a)
        for i, v in enumerate(self.origin):
            if v == drop:
                self.origin[i] = keep

    def build(self):
        b = MapBuilder()
        b.next = list(self.next)
        b.twin = list(self.twin)
        b.origin = list(self.origin)
        b.color = list(self.color)
        return b.build()


def build_three_gadget():
    """Three 1-gadgets chained along their colored boundary edges."""
    g1 = build_one_gadget()
    d = _Disjoint()
    offs = [d.add(g1)[0] for _ in range(3)]
    reds, blues = [], []
    r, bl = gadget_boundary_edges(g1)
    for off in offs:
        reds.append(r + off)
        blues.append(bl + off)
    d.glue(blues[0], reds[1])
    d.glue(blues[1], reds[2])
    return d.build()


def double_with_gadgets(t0):
    """Mirror-double a bounded reducing triangulation, filling each identified
    boundary edge with a 3-gadget so the result is closed and reducing."""
    rep = validate_reducing(t0)
    if not rep.ok:
        raise ValueError("host must be reducing: %s" % (sorted(rep.kinds()),))
    if t0.is_closed():
        raise ValueError("host already closed")
    return _double_with_gadgets_unchecked(t0)[0]


def _double_with_gadgets_unchecked(t0):
    """Returns (doubled triangulation, info) where info maps half-edge ranges:
    info = {"base": (hoff, voff), "mirror": (hoff, voff), "gadget_hes": set}."""
    g3 = build_three_gadget()
    g3_red, g3_blue = gadget_boundary_edges(g3)
    d = _Disjoint()
    base_off, base_voff = d.add(t0)
    mirr_off, mirr_voff = d.add(t0, mirror=True)
    gadget_lo = len(d.next)
    for h in t0.boundary_half_edges():
        goff = d.add(g3)[0]
        hb = h + base_off
        hm = h + mirr_off  # mirrored copy of the same boundary half-edge
        # the slit digon is (hb, hm): hb sees color c on its left, hm sees
        # the opposite; glue the gadget digon so adjacent faces differ.
        if d.color[hb] == RED:
            # hb red-incident: glue to the gadget's blue-incident edge
            d.glue(hb, g3_blue + goff)
            d.glue(hm, g3_red + goff)
        else:
            d.glue(hb, g3_red + goff)
            d.glue(hm, g3_blue + goff)
    gadget_hes = set(range(gadget_lo, len(d.next)))
    out = d.build()
    info = {
        "base": (base_off, base_voff),
        "mirror": (mirr_off, mirr_voff),
        "gadget_hes": gadget_hes,
        "nbase": len(t0.next),
    }
    return out, info


def euler_characteristic(t):
    return t.euler_characteristic()


def genus(t):
    return t.genus()


# -- TRI v1 text format ----------------------------------------------------

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
    n = None
    next_ = twin = origin = None
    face_colors = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "tri":
            n = int(parts[1])
            next_ = [NO_TWIN] * n
            twin = [NO_TWIN] * n
            origin = [NO_TWIN] * n
        elif parts[0] == "he":
            if n is None:
                raise StructureError("he before header")
            h = int(parts[1])
            kv = dict(p.split("=", 1) for p in parts[2:])
            next_[h] = int(kv["next"])
            twin[h] = NO_TWIN if kv["twin"] == "-" else int(kv["twin"])
            origin[h] = int(kv["origin"])
        elif parts[0] == "face":
            kv = dict(p.split("=", 1) for p in parts[2:])
            face_colors[int(kv["he"])] = kv["color"]
        else:
            raise StructureError("bad line: %r" % raw)
    if n is None:
        raise StructureError("missing tri header")
    return Triangulation(next_, twin, origin, face_colors)
