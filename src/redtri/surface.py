"""Oriented combinatorial triangulations with 2-colored faces.

Half-edge representation: each half-edge h has next(h) (counterclockwise
successor inside its face), twin(h) (-1 on the boundary), and origin(h).
Faces are the orbits of next; the clockwise rotation around a vertex is
rot_cw(h) = next(twin(h)).  Loops and multi-edges are legal, so edges are
never identified by vertex pairs.
"""

from dataclasses import dataclass
from itertools import repeat

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
    face_of = [-1] * len(next_)
    faces = []
    for h in range(len(next_)):
        if face_of[h] != -1:
            continue
        orbit = [h]
        face_of[h] = len(faces)
        g = next_[h]
        while g != h:
            if face_of[g] != -1:
                raise StructureError("next is not a permutation")
            face_of[g] = len(faces)
            orbit.append(g)
            g = next_[g]
        faces.append(tuple(orbit))
    return tuple(faces), face_of


class Triangulation:
    """An immutable triangulated surface with 2-colored faces.

    Construct from parallel half-edge arrays plus a dict of colors in
    which the smallest half-edge id of each face orbit gives the face's
    color (other keys are ignored).
    """

    def __init__(self, next_, twin, origin, face_colors):
        n = len(next_)
        if not (len(twin) == n and len(origin) == n):
            raise StructureError("half-edge tables have mismatched lengths")
        self.next = tuple(next_)
        self.twin = tuple(twin)
        self.origin = tuple(origin)
        # every vertex has a half-edge, so vertex ids are below n as well
        if n and not (0 <= min(self.next) and max(self.next) < n
                      and NO_TWIN <= min(self.twin) and max(self.twin) < n
                      and 0 <= min(self.origin) and max(self.origin) < n):
            h = next(h for h in range(n)
                     if not (0 <= self.next[h] < n and 0 <= self.origin[h] < n
                             and NO_TWIN <= self.twin[h] < n))
            raise StructureError("next, twin or origin out of range at %d" % h)

        # faces = orbits of next (any length; the validator flags non-triangles)
        self.faces, face_of = face_orbits(self.next)
        self.face_of = tuple(face_of)
        colors = []
        for orbit in self.faces:
            c = face_colors.get(orbit[0])
            if c not in (RED, BLUE):
                raise StructureError("bad color %r for face at half-edge %d"
                                     % (c, orbit[0]))
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
        twin = self.twin
        # clockwise successor of every slot; -1 past the last slot of a
        # boundary vertex, whose chain starts at the half-edge after a
        # twin-less one
        succ = [-1] * n
        out = [[] for _ in range(self.num_vertices)]
        starts_at = {}
        for h, v in enumerate(self.origin):
            out[v].append(h)
            t = twin[h]
            if t == NO_TWIN:
                g = self.next[h]
                starts_at.setdefault(self.origin[g], []).append(g)
            else:
                succ[h] = self.next[t]
        slots = []
        slot_index = [-1] * n
        boundary = []
        broken = set()
        for v, hs in enumerate(out):
            if not hs:
                raise StructureError("vertex %d has no half-edge" % v)
            # clockwise chain; a vertex is interior iff the chain is cyclic
            starts = starts_at.get(v)
            h0 = starts[0] if starts else hs[0]
            chain = [h0]
            g = succ[h0]
            while g != -1 and len(chain) <= len(hs):
                if g == h0 and not starts:
                    break
                chain.append(g)
                g = succ[g]
            if starts:
                ok = len(starts) == 1 and len(chain) == len(hs)
            else:
                ok = g == h0 and len(chain) == len(hs)
            is_bnd = bool(starts)
            if not ok:
                # twin structure is damaged; keep a usable slot list anyway so
                # the validator can still report what is wrong
                broken.add(v)
                chain = hs
                is_bnd = any(twin[h] == NO_TWIN for h in hs)
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
        return len(self.boundary_cycles())

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


class MapBuilder(UnionFind):
    """Mutable half-edge scratchpad used by the constructors.

    Vertices are labels chosen by the caller (`new_face`) or allocated per
    added triangulation (`add`).  Gluing two sides merges the labels of
    their endpoints in the union-find, and `build` numbers the roots (the
    smallest label of each class) densely in label order.
    """

    def __init__(self):
        super().__init__()
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

    def add(self, t, mirror=False):
        """Copy t (reversed and recolored if `mirror`) with fresh vertex
        labels; returns the offsets of its half-edges and labels."""
        hoff = len(self.next)
        voff = len(self.parent)
        self.parent.extend(range(voff, voff + t.num_vertices))
        if not mirror:
            self.next.extend(g + hoff for g in t.next)
            self.origin.extend(v + voff for v in t.origin)
            self.color.extend(t.face_color[f] for f in t.face_of)
        else:
            # each half-edge keeps its id but runs the other way: its next
            # is its old predecessor, and the face colors swap
            prev = [0] * len(t.next)
            for h, g in enumerate(t.next):
                prev[g] = h
            self.next.extend(g + hoff for g in prev)
            self.origin.extend(t.origin[g] + voff for g in t.next)
            self.color.extend(opposite_color(t.face_color[f])
                              for f in t.face_of)
        self.twin.extend(NO_TWIN if g == NO_TWIN else g + hoff for g in t.twin)
        return hoff, voff

    def glue(self, h, g):
        if self.twin[h] != NO_TWIN or self.twin[g] != NO_TWIN:
            raise StructureError("double glue")
        # h runs a -> b, so its twin g runs b -> a
        for a, b in ((self.origin[h], self.head(g)),
                     (self.origin[g], self.head(h))):
            if a != b:
                top = max(a, b) + 1
                self.parent.extend(range(len(self.parent), top))
                self.union(a, b)
        self.twin[h] = g
        self.twin[g] = h

    def head(self, h):
        return self.origin[self.next[h]]

    def build(self):
        top = max(self.origin, default=-1) + 1
        self.parent.extend(range(len(self.parent), top))
        root = [self.find(v) for v in range(top)]
        used = sorted({root[v] for v in self.origin})
        dense = {v: i for i, v in enumerate(used)}
        origin = [dense[root[v]] for v in self.origin]
        return Triangulation(self.next, self.twin, origin,
                             dict(enumerate(self.color)))


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
    # close, identifying the endpoints of the glued sides
    if k % 2 == 0:
        # right side of U_{n-1} (u_n, w_n) ~ left side of D_0 (w_0, u_0)
        b.glue(faces[k - 1][0], faces[0][2])
    else:
        # diag of D_n (u_{n+1}, w_n) ~ left side of D_0 (w_0, u_0)
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

    def target(w, k):
        return rng.choice([d for d in (6, 8) if d >= k])

    for _ in range(radius - 1):
        boundary, nverts = _grow_ring(b, boundary, nverts, target)
    return b.build()


def _grow_ring(b, boundary, nverts, target):
    """Tent every edge of a boundary cycle, then fan every boundary vertex w
    up to degree target(w, k), where k, the least target, is its degree
    with both of its tents in place; returns the new boundary (CCW
    half-edge list) and the updated vertex count."""
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
    out = []
    for i, h in enumerate(boundary):
        # fan at w = origin(h), from apex[i] back to apex[i-1]
        w = b.origin[h]
        k = degree[w] + 1  # +1: the edge to apex[i-1] is incoming-only so far
        j = target(w, k) - k + 1
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
        out.extend(reversed(fan_sides))
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


def build_three_gadget():
    """Three 1-gadgets chained along their colored boundary edges."""
    g1 = build_one_gadget()
    d = MapBuilder()
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
    d = MapBuilder()
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


# -- text formats ------------------------------------------------------------

_EQUALS = repeat("=")


def records(text, handlers):
    """Hand each record of a line-oriented text format to its handler.

    A record is a non-blank line with its `#` comment cut off: a keyword,
    k positional fields, then `key=value` fields, where `handlers[keyword]`
    is (k, handler).  The handler gets the positional fields and a dict of
    the `key=value` fields, all strings, and converts and checks them
    itself.  A malformed record raises FormatError naming its line: an
    unknown keyword, too few fields, a field after the positional ones
    without exactly one `=`, or a ValueError (a bad value) or KeyError (a
    missing key) raised by the handler.
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
            handle(*parts[1:k], dict(map(str.split, parts[k:], _EQUALS)))
        except KeyError as exc:
            raise FormatError("line %d: no %s= in %r"
                              % (n, exc.args[0], line.strip())) from None
        except ValueError as exc:
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
    next_ = twin = origin = None
    face_colors = {}

    def header(n, fields):
        nonlocal next_, twin, origin
        n = int(n)
        if next_ is not None:
            raise ValueError("a second header")
        if not 0 <= n <= len(text):  # each half-edge takes a line
            raise ValueError("half-edge count out of range")
        next_, twin, origin = [NO_TWIN] * n, [NO_TWIN] * n, [NO_TWIN] * n

    def half_edge(h, fields):
        h = int(h)
        if next_ is None:
            raise ValueError("half-edge before the header")
        if not 0 <= h < len(next_):
            raise ValueError("half-edge %d out of range" % h)
        next_[h] = int(fields["next"])
        tw = fields["twin"]
        twin[h] = NO_TWIN if tw == "-" else int(tw)
        origin[h] = int(fields["origin"])

    def face(i, fields):
        face_colors[int(fields["he"])] = fields["color"]

    records(text, {"tri": (1, header), "he": (1, half_edge),
                   "face": (1, face)})
    if next_ is None:
        raise FormatError("missing tri header")
    return Triangulation(next_, twin, origin, face_colors)
