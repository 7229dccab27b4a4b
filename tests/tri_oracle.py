"""Code that `redtri.surface` replaced with faster code, kept as test
oracles: the record-by-record `.tri` reader, the doubling glued side by
side through a union-find of vertex labels, and the validator that checks
one element at a time.

The reader is the one `surface` used before it read `write_tri`'s layout
column by column.

`read_tri` hands every line to a handler through `records`, and
`Triangulation` builds the face colors, the clockwise successors and the
boundary chain starts with loops over single half-edges.  The checks that
the reader gained since (an empty host rejected, the face index and its
half-edge range-checked, a half-edge given twice rejected, a face record
only for the smallest half-edge of its face, and only once, a field
that is not `key=value` named in its message, and a key its record does
not have) are added in the same per-record style.  Tables whose
rotations do not close raise `BrokenRotations`, which holds the set of
broken vertices by the oracle's own chain rule (`broken_vertices`):
`surface.Triangulation` names one of them in its StructureError.
It is slow, but simple enough to trust; `test_surface.py` checks that
`surface.read_tri` returns and raises exactly what this code does.

`double_with_gadgets_glued` and `validate_reducing` are the doubling and
the validator as they were before the doubling was composed by offset
arithmetic and the validator went column by column; `test_surface.py`
checks that the new ones give equal tables and equal reports.  The
doubling glues each seam of t0 and of its mirror to a gadget copy, which
identifies the copies' vertices at its ends, so `Gluing` merges the labels
at the ends of each glued pair of sides; `surface.glue`, which the
constructors use, merges none and rejects sides whose ends differ.
"""

from redtri.surface import (
    BLUE,
    DEGREE_TOO_LOW,
    DISCONNECTED,
    DUAL_NOT_BIPARTITE,
    NO_TWIN,
    NON_TRIANGLE_FACE,
    RED,
    TWIN_BROKEN,
    FormatError,
    StructureError,
    UnionFind,
    ValidationReport,
    Violation,
    build_three_gadget,
    face_orbits,
    gadget_boundary_edges,
    opposite_color,
)
from redtri.surface import Triangulation as GluedTriangulation


class Triangulation:
    """The tables of `surface.Triangulation` that the reader fills:
    half-edges, faces, face colors and vertex slots."""

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

    def _build_vertex_slots(self):
        out = [[] for _ in range(self.num_vertices)]
        for h, v in enumerate(self.origin):
            out[v].append(h)
        for v, hs in enumerate(out):
            if not hs:
                raise StructureError("vertex %d has no half-edge" % v)
        broken = broken_vertices(self.next, self.twin, self.origin)
        if broken:
            raise BrokenRotations(broken)
        chains = rotation_chains(self.next, self.twin, self.origin)
        self.vertex_slots = tuple(tuple(chain) for chain, _ in chains)
        # position of every half-edge within the slots of its tail
        slot_index = [-1] * len(self.next)
        for chain, _ in chains:
            for i, h in enumerate(chain):
                slot_index[h] = i
        self.slot_index = tuple(slot_index)
        self._vertex_on_boundary = tuple(bnd for _, bnd in chains)


class BrokenRotations(StructureError):
    """The oracle's verdict on tables whose rotations do not close: the
    set of broken vertices, of which `surface.Triangulation` names one."""

    def __init__(self, broken):
        super().__init__("broken rotations at %s" % sorted(broken))
        self.broken = frozenset(broken)


def rotation_chains(next_, twin, origin):
    """Per vertex v, (chain, on boundary): the clockwise chain h ->
    next(twin(h)) of half-edges out of v.  If twin-less half-edges enter
    v, v is on the boundary and the chain starts at the half-edge after
    the first of them and ends at a twin-less half-edge; else it starts at
    v's least half-edge and ends on coming back to it.  The chain stops
    early, holding [] in place of what it walked, where it meets a
    half-edge of another vertex or one it holds, or where v has two
    twin-less half-edges entering it; so v's rotation closes exactly when
    its chain holds each half-edge out of v once."""
    first, starts = {}, {}
    for h, v in enumerate(origin):
        first.setdefault(v, h)
        if twin[h] == NO_TWIN:
            starts.setdefault(origin[next_[h]], []).append(next_[h])
    chains = []
    for v in range(max(origin, default=-1) + 1):
        if len(starts.get(v, ())) > 1:
            chains.append(([], True))
            continue
        h0 = starts[v][0] if v in starts else first[v]
        chain, held = [h0], {h0}
        while True:
            t = twin[chain[-1]]
            if t == NO_TWIN:  # the end of a boundary vertex's chain only
                whole = v in starts
                break
            g = next_[t]
            if g == h0 and v not in starts:
                whole = True
                break
            if g in held or origin[g] != v:
                whole = False
                break
            chain.append(g)
            held.add(g)
        chains.append((chain if whole else [], v in starts))
    return chains


def broken_vertices(next_, twin, origin):
    """The vertices whose rotation does not close: those whose chain does
    not hold each of their half-edges once."""
    out = {}
    for h, v in enumerate(origin):
        out.setdefault(v, []).append(h)
    return {v for v, (chain, _) in enumerate(rotation_chains(
        next_, twin, origin)) if sorted(chain) != out[v]}


def records(text, handlers):
    """Hand each record of a line-oriented text format to its handler.

    A record is a non-blank line with its `#` comment cut off: a keyword,
    k positional fields, then `key=value` fields, where `handlers[keyword]`
    is (k, handler, keys).  The handler gets the positional fields and a
    dict of the `key=value` fields, all strings, and converts and checks
    them itself.  A malformed record raises FormatError naming its line: an
    unknown keyword, too few fields, a field after the positional ones
    without exactly one `=`, a ValueError (a bad value) or KeyError (a
    missing key) raised by the handler, or then a key not in keys.
    """
    for n, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        k, handle, keys = handlers.get(parts[0], (0, None, ()))
        try:
            if handle is None:
                raise ValueError("unknown record")
            if len(parts) <= k:
                raise ValueError("too few fields")
            k += 1
            for field in parts[k:]:
                if field.count("=") != 1:
                    raise ValueError("field %r is not key=value" % field)
            handle(*parts[1:k], dict(f.split("=") for f in parts[k:]))
            for field in parts[k:]:
                key = field.split("=")[0]
                if key not in keys:
                    raise ValueError("unknown field %r" % key)
        except KeyError as exc:
            raise FormatError("line %d: no %s= in %r"
                              % (n, exc.args[0], line.strip())) from None
        except ValueError as exc:
            raise FormatError("line %d: %s in %r"
                              % (n, exc, line.strip())) from None


def read_tri(text):
    t = Triangulation(*_read_tables(text))
    # find the first face record for a half-edge that is not the smallest
    # of its face: read the text again, checking each one
    _read_tables(text, t)
    return t


def _read_tables(text, t=None):
    next_ = twin = origin = None
    face_colors = {}
    given = set()

    def header(n, fields):
        nonlocal next_, twin, origin
        n = int(n)
        if next_ is not None:
            raise ValueError("a second header")
        # a host has a half-edge, and each half-edge takes a line
        if not 1 <= n <= len(text):
            raise ValueError("half-edge count out of range")
        next_, twin, origin = [NO_TWIN] * n, [NO_TWIN] * n, [NO_TWIN] * n

    def half_edge(h, fields):
        h = int(h)
        if next_ is None:
            raise ValueError("half-edge before the header")
        if not 0 <= h < len(next_):
            raise ValueError("half-edge %d out of range" % h)
        if h in given:
            raise ValueError("half-edge %d given twice" % h)
        given.add(h)
        next_[h] = int(fields["next"])
        tw = fields["twin"]
        twin[h] = NO_TWIN if tw == "-" else int(tw)
        origin[h] = int(fields["origin"])

    def face(i, fields):
        i = int(i)
        if next_ is None:
            raise ValueError("face before the header")
        if not 0 <= i < len(next_):
            raise ValueError("face %d out of range" % i)
        h = int(fields["he"])
        if not 0 <= h < len(next_):
            raise ValueError("half-edge %d out of range" % h)
        if h in face_colors:
            raise ValueError("a second face record for half-edge %d" % h)
        if t is not None and min(t.faces[t.face_of[h]]) != h:
            raise ValueError("half-edge %d is not its face's smallest"
                             % h)
        face_colors[h] = fields["color"]

    records(text, {"tri": (1, header, ()),
                   "he": (1, half_edge, ("next", "twin", "origin")),
                   "face": (1, face, ("color", "he"))})
    if next_ is None:
        raise FormatError("missing tri header")
    return next_, twin, origin, face_colors


# -- the doubling, glued face by face ----------------------------------------

class Gluing(UnionFind):
    """Half-edge columns of copies of triangulations, glued side by side.

    Gluing two sides merges the labels of their ends in the union-find, and
    `build` numbers the roots (the smallest label of each class) densely
    in label order."""

    def __init__(self):
        super().__init__()
        self.next, self.twin, self.origin, self.color = [], [], [], []

    def add(self, t):
        """Copy t with fresh vertex labels; returns the offset of its
        half-edges."""
        hoff = len(self.next)
        voff = len(self.parent)
        self.parent.extend(range(voff, voff + t.num_vertices))
        self.next.extend(g + hoff for g in t.next)
        self.origin.extend(v + voff for v in t.origin)
        self.color.extend(t.face_color[f] for f in t.face_of)
        self.twin.extend(NO_TWIN if g == NO_TWIN else g + hoff
                         for g in t.twin)
        return hoff

    def glue(self, h, g):
        # h runs a -> b, so its twin g runs b -> a
        head = self.origin[self.next[g]], self.origin[self.next[h]]
        self.union(self.origin[h], head[0])
        self.union(self.origin[g], head[1])
        self.twin[h], self.twin[g] = g, h

    def build(self):
        root = [self.find(v) for v in range(len(self.parent))]
        dense = {v: i for i, v in enumerate(sorted(set(root)))}
        return GluedTriangulation(self.next, self.twin,
                                  [dense[root[v]] for v in self.origin],
                                  dict(enumerate(self.color)))


def add_mirror(d, t):
    """Copy t into the Gluing d reversed and recolored, with fresh vertex
    labels; returns the offset of its half-edges."""
    hoff = len(d.next)
    voff = len(d.parent)
    d.parent.extend(range(voff, voff + t.num_vertices))
    # each half-edge keeps its id but runs the other way: its next
    # is its old predecessor, and the face colors swap
    prev = [0] * len(t.next)
    for h, g in enumerate(t.next):
        prev[g] = h
    d.next.extend(g + hoff for g in prev)
    d.origin.extend(t.origin[g] + voff for g in t.next)
    d.color.extend(opposite_color(t.face_color[f]) for f in t.face_of)
    d.twin.extend(NO_TWIN if g == NO_TWIN else g + hoff for g in t.twin)
    return hoff


def double_with_gadgets_glued(t0):
    """Returns (doubled triangulation, mirror offset): the half-edges of t0
    keep their ids, and half-edge h of the mirror copy is mirror offset + h."""
    g3 = build_three_gadget()
    g3_red, g3_blue = gadget_boundary_edges(g3)
    d = Gluing()
    d.add(t0)
    mirr_off = add_mirror(d, t0)
    for h in t0.boundary_half_edges():
        goff = d.add(g3)
        hm = h + mirr_off  # mirrored copy of the same boundary half-edge
        # the slit digon is (h, hm): h sees color c on its left, hm sees
        # the opposite; glue the gadget digon so adjacent faces differ.
        if d.color[h] == RED:
            # h red-incident: glue to the gadget's blue-incident edge
            d.glue(h, g3_blue + goff)
            d.glue(hm, g3_red + goff)
        else:
            d.glue(h, g3_red + goff)
            d.glue(hm, g3_blue + goff)
    return d.build(), mirr_off


# -- the validator, one element at a time -------------------------------------

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
