import functools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from redtri import boundary, surface
from redtri.boundary import attach_crowns
from redtri.surface import (
    BLUE,
    DEGREE_TOO_LOW,
    DISCONNECTED,
    DUAL_NOT_BIPARTITE,
    NO_TWIN,
    NON_TRIANGLE_FACE,
    RED,
    TWIN_BROKEN,
    validate_reducing,
)

import tri_oracle
from conftest import (FUZZ_ALPHABET, bowtie, broken_doubled_crown4,
                      broken_twin_torus, edit_char, fan_disk, fixture_path,
                      make_patch, tables_of, tri_text,
                      twin_mismatch_torus)


def test_torus_counts(torus):
    assert torus.num_vertices == 1
    assert torus.num_edges() == 3
    assert len(torus.faces) == 2
    assert torus.degree(0) == 6
    assert torus.euler_characteristic() == 0
    assert torus.genus() == 1
    assert torus.is_closed()
    assert validate_reducing(torus).ok


def test_torus_rotation_single_cycle(torus):
    h = 0
    seen = [h]
    g = torus.next[torus.twin[h]]
    while g != h:
        seen.append(g)
        g = torus.next[torus.twin[g]]
    assert len(seen) == 6


def test_torus_face_colors(torus):
    colors = {torus.face_color[torus.face_of[h]] for h in range(6)}
    assert colors == {RED, BLUE}
    for h in range(6):
        assert torus.color_left(h) != torus.color_left(torus.twin[h])


def test_subdivide_torus(torus):
    t4 = surface.subdivide(torus)
    assert t4.num_vertices == 4
    assert t4.num_edges() == 12
    assert len(t4.faces) == 8
    assert all(t4.degree(v) == 6 for v in range(4))
    assert t4.euler_characteristic() == 0
    assert validate_reducing(t4).ok


def test_subdivide_rejects_invalid():
    c3 = surface.crown(3)
    with pytest.raises(ValueError):
        surface.subdivide(c3)


@pytest.mark.parametrize("k,v,e,f", [(2, 2, 4, 2), (4, 4, 8, 4), (6, 6, 12, 6)])
def test_crown_even_counts(k, v, e, f):
    c = surface.crown(k)
    assert (c.num_vertices, c.num_edges(), len(c.faces)) == (v, e, f)
    assert validate_reducing(c).ok
    assert c.euler_characteristic() == 0
    assert c.num_boundary_components() == 2
    assert c.genus() == 0


@pytest.mark.parametrize("k", [3, 5, 7])
def test_crown_odd_fails_bipartite_only(k):
    c = surface.crown(k)
    rep = validate_reducing(c)
    assert not rep.ok
    assert rep.kinds() == {DUAL_NOT_BIPARTITE}


def test_glue_rejects_sides_whose_ends_differ():
    cols = [], [], [], []
    a = surface.new_face(cols, 0, 1, 2, RED)
    b = surface.new_face(cols, 1, 0, 3, BLUE)
    # 1 -> 2 with 0 -> 3 share no end, 0 -> 1 with 0 -> 3 (either way
    # round) one
    for h, g in ((a[1], b[1]), (a[0], b[1]), (b[1], a[0])):
        with pytest.raises(surface.StructureError, match="same vertices"):
            surface.glue(cols, h, g)
    assert cols[1] == [NO_TWIN] * 6  # nothing glued, no vertex merged
    surface.glue(cols, a[0], b[0])  # 0 -> 1 and 1 -> 0
    assert (cols[1][a[0]], cols[1][b[0]]) == (b[0], a[0])
    with pytest.raises(surface.StructureError, match="double glue"):
        surface.glue(cols, a[0], b[0])
    loop = surface.new_face(cols, 4, 4, 4, RED)[0]
    with pytest.raises(surface.StructureError, match="double glue"):
        surface.glue(cols, loop, loop)  # a loop's ends match its own


def test_one_gadget_shape():
    g = surface.build_one_gadget()
    assert g.euler_characteristic() == -1
    assert g.genus() == 1
    assert g.num_boundary_components() == 1
    hs = g.boundary_half_edges()
    assert len(hs) == 2
    r, b = surface.gadget_boundary_edges(g)
    assert g.color_left(r) == RED and g.color_left(b) == BLUE
    # the digon has two distinct corners
    assert {g.tail(r), g.head(r)} == {g.tail(b), g.head(b)}
    assert g.tail(r) != g.head(r)
    assert validate_reducing(g).ok


def test_one_gadget_frozen_fixture():
    g = surface.build_one_gadget()
    with open(fixture_path("one_gadget.tri")) as fh:
        assert surface.write_tri(g) == fh.read()


def test_three_gadget():
    g = surface.build_three_gadget()
    assert g.euler_characteristic() == -5
    assert g.num_boundary_components() == 1
    assert g.genus() == 3
    assert len(g.boundary_half_edges()) == 2
    assert validate_reducing(g).ok


def test_double_with_gadgets_crown4():
    d = surface.double_with_gadgets(surface.crown(4))
    assert d.is_closed()
    assert d.euler_characteristic() < 0
    rep = validate_reducing(d)
    assert rep.ok
    # independent cross-check of the characteristic
    assert d.euler_characteristic() == (
        d.num_vertices - d.num_edges() + len(d.faces))


def test_double_requires_boundary(torus):
    """The public doubling refuses a closed host, and validates a host
    with ValueError before it looks at its boundary."""
    for t, message in ((torus, "host already closed"),
                       (surface.crown(3),
                        "host must be reducing: ['DualNotBipartite']"),
                       (twin_mismatch_torus(),
                        "host must be reducing: ['TwinBroken']")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            surface.double_with_gadgets(t)


@pytest.mark.parametrize("seed", range(6))
def test_disk_patch_reducing(seed):
    p = make_patch(seed)
    rep = validate_reducing(p)
    assert rep.ok
    assert p.euler_characteristic() == 1
    assert p.num_boundary_components() == 1
    for v in range(p.num_vertices):
        if not p.is_boundary_vertex(v):
            assert p.degree(v) in (6, 8)


def square():
    """One square face, all four sides on the boundary."""
    return surface.Triangulation([1, 2, 3, 0], [NO_TWIN] * 4, [0, 1, 2, 3],
                                 {0: RED})


def two_pillows():
    """Two disjoint spheres, each two triangles glued along all sides."""
    cols = next_, twin, origin, color = [], [], [], []
    for base in (0, 3):
        f1 = surface.new_face(cols, base, base + 1, base + 2, RED)
        f2 = surface.new_face(cols, base + 1, base, base + 2, BLUE)
        surface.glue(cols, f1[0], f2[0])
        surface.glue(cols, f1[1], f2[2])
        surface.glue(cols, f1[2], f2[1])
    return surface.Triangulation(next_, twin, origin, dict(enumerate(color)))


def test_degree_too_low_detected():
    # a 5-fan disk: center vertex of degree 5 forced interior by one ring
    rep = validate_reducing(fan_disk(5))
    assert DEGREE_TOO_LOW in rep.kinds()
    assert any(v.kind == DEGREE_TOO_LOW and v.location == 0 for v in rep.violations)


def test_non_triangle_face_detected():
    assert NON_TRIANGLE_FACE in validate_reducing(square()).kinds()


def test_twin_broken_detected():
    """Twins that disagree with rotations that close are a violation;
    rotations that do not close make no host at all."""
    assert TWIN_BROKEN in validate_reducing(twin_mismatch_torus()).kinds()
    assert _refusal(broken_twin_torus()) == 0


def test_disconnected_detected():
    assert DISCONNECTED in validate_reducing(two_pillows()).kinds()


def test_tri_roundtrip_exact():
    for t in (surface.build_torus(), surface.crown(4), surface.build_one_gadget(),
              make_patch(1, radius=2)):
        txt = surface.write_tri(t)
        t2 = surface.read_tri(txt)
        assert surface.write_tri(t2) == txt


def test_tri_comments_and_blank_lines():
    with open(fixture_path("torus.tri")) as fh:
        txt = fh.read()
    txt = "# comment\n\n" + txt.replace("he 0", "he 0", 1)
    t = surface.read_tri(txt)
    assert t.num_vertices == 1 and t.num_edges() == 3


@given(st.integers(min_value=2, max_value=12), st.integers())
@settings(max_examples=40, deadline=None)
def test_crown_euler_and_boundary(k, _):
    c = surface.crown(k)
    assert c.euler_characteristic() == 0
    assert len(c.boundary_half_edges()) == k
    rep = validate_reducing(c)
    assert rep.ok == (k % 2 == 0)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_disk_patch_property(seed):
    p = surface.build_disk_patch(2, random.Random(seed))
    assert validate_reducing(p).ok
    assert p.euler_characteristic() == 1


# -- the column reader against the record-by-record oracle -------------------

TRI_HOSTS = {
    "torus": surface.build_torus,
    **{"crown%d" % k: lambda k=k: surface.crown(k) for k in range(2, 7)},
    "one gadget": surface.build_one_gadget,
    "three gadget": surface.build_three_gadget,
    **{"patch r%d" % r: lambda r=r: make_patch(r, radius=r)
       for r in range(1, 5)},
    "doubled crown4": lambda: surface.double_with_gadgets(surface.crown(4)),
}
# tables whose rotations do not close, which make no host
BROKEN_TABLES = {"broken twin torus": broken_twin_torus,
                 "broken doubled crown4": broken_doubled_crown4,
                 "bowtie": bowtie}
TRI_NAMES = sorted(TRI_HOSTS.keys() | BROKEN_TABLES.keys())


def host_tables(name):
    """The tables of a host of TRI_HOSTS, or the broken tables of
    BROKEN_TABLES."""
    if name in BROKEN_TABLES:
        return BROKEN_TABLES[name]()
    return tables_of(TRI_HOSTS[name]())


@functools.cache
def tri_lines(name):
    return tuple(tri_text(*host_tables(name)).splitlines())


def _respell(line, rng, spell, pattern=r"\d+"):
    """line with one match of pattern (a number) respelled by spell, if it
    has one."""
    found = list(re.finditer(pattern, line))
    if not found:
        return line
    m = rng.choice(found)
    return line[:m.start()] + spell(m.group()) + line[m.end():]


def _split_word(word, rng):
    k = rng.randrange(1, len(word))
    return word[:k] + rng.choice("05") + word[k:]


def _fields(line, rng, edit):
    """line with its key=value fields (after the keyword and index)
    changed by edit(fields, rng)."""
    parts = line.split(" ")
    return " ".join(parts[:2] + edit(parts[2:], rng))


def _shuffled(fields, rng):
    fields = list(fields)
    rng.shuffle(fields)
    return fields


# each variant maps (lines, rng) to new lines
TRI_VARIANTS = {
    "comment": lambda ls, rng: _at(ls, rng, lambda s: s + " # note"),
    "comment line": lambda ls, rng: _insert(ls, rng, "# note"),
    "blank line": lambda ls, rng: _insert(ls, rng, rng.choice(("", "  "))),
    "shuffle": lambda ls, rng: _shuffled(ls, rng),
    "swap two": lambda ls, rng: _swap(ls, rng),
    "permute keys": lambda ls, rng: _at(
        ls, rng, lambda s: _fields(s, rng, _shuffled)),
    "duplicate key": lambda ls, rng: _at(
        ls, rng, lambda s: _fields(
            s, rng, lambda fs, rng: fs + [rng.choice(fs or ["x=1"])])),
    "extra key": lambda ls, rng: _at(ls, rng, lambda s: s + " extra=1"),
    "tab": lambda ls, rng: _at(ls, rng, lambda s: s.replace(" ", "\t", 1)),
    "plus": lambda ls, rng: _at(
        ls, rng, lambda s: _respell(s, rng, lambda d: "+" + d)),
    "underscore": lambda ls, rng: _at(
        ls, rng, lambda s: _respell(s, rng, lambda d: d[0] + "_0" + d[1:])),
    "leading zero": lambda ls, rng: _at(
        ls, rng, lambda s: _respell(s, rng, lambda d: "0" + d)),
    "append digit": lambda ls, rng: _at(
        ls, rng, lambda s: _respell(s, rng, lambda d: d + rng.choice("09"))),
    "negative": lambda ls, rng: _at(
        ls, rng, lambda s: _respell(s, rng, lambda d: "-" + d)),
    "digit in a key": lambda ls, rng: _at(
        ls, rng, lambda s: _respell(s, rng, lambda w: _split_word(w, rng),
                                    r"[a-z]{2,}")),
    "no twin=-": lambda ls, rng: _at(
        ls, rng, lambda s: s.replace(" twin=-", "")),
    # what the column reader's JSON list must reject, or read as int() does
    "twin=-0": lambda ls, rng: _somewhere(
        ls, rng, r"(?<=twin=)-(?= )", lambda d: "-0"),
    "twin=-1": lambda ls, rng: _somewhere(
        ls, rng, r"(?<=twin=)-(?= )", lambda d: "-1"),
    "twin=-05": lambda ls, rng: _somewhere(
        ls, rng, r"(?<=twin=)-?\d*", lambda d: "-0" + (d.strip("-") or "1")),
    "sign on next or origin": lambda ls, rng: _somewhere(
        ls, rng, r"(?<=next=)\d+|(?<=origin=)\d+",
        lambda d: rng.choice(("+", "-", "+0", "-0")) + d),
    **{"digit in %s" % key: lambda ls, rng, key=key: _somewhere(
        ls, rng, r"\b%s\b" % key, lambda w: _split_word(w, rng))
       for key in ("twin", "origin", "he", "face", "next", "color")},
    "value moved": lambda ls, rng: _moved_value(ls, rng),
    "other color": lambda ls, rng: _somewhere(
        ls, rng, r"(?<=color=)[rb]", lambda c: rng.choice(
            ("g", "R", "", "0", "1", "rr", "rb", "1r", "r0", "b5"))),
    # what the column reader's skeleton lets through, for the JSON list or
    # the constructor to reject
    "lone -": lambda ls, rng: _somewhere(
        ls, rng, r"(?<=[ =])\d+\b", lambda d: "-"),
    "color the JSON list deletes": lambda ls, rng: _somewhere(
        ls, rng, r"(?<=color=)[rb]", lambda c: rng.choice("aefhinotwx=-")),
}


def _at(lines, rng, change):
    lines = list(lines)
    i = rng.randrange(len(lines))
    lines[i] = change(lines[i])
    return lines


def _somewhere(lines, rng, pattern, spell):
    """lines with one line that matches pattern respelled by _respell, or
    unchanged if no line matches."""
    hits = [i for i, line in enumerate(lines) if re.search(pattern, line)]
    if not hits:
        return lines
    lines = list(lines)
    i = rng.choice(hits)
    lines[i] = _respell(lines[i], rng, spell, pattern)
    return lines


def _moved_value(lines, rng):
    """lines with the digits of one value moved up to 8 characters away,
    into its key, the next key or the next line's keyword, say."""
    text = "\n".join(lines)
    m = rng.choice(list(re.finditer(r"(?<==)\d+", text)))
    text = text[:m.start()] + text[m.end():]
    k = rng.randint(max(0, m.start() - 8), min(len(text), m.start() + 8))
    return (text[:k] + m.group() + text[k:]).split("\n")


def _insert(lines, rng, line):
    lines = list(lines)
    lines.insert(rng.randrange(len(lines) + 1), line)
    return lines


def _swap(lines, rng):
    lines = list(lines)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def variant_text(name, variants, rng, end="\n"):
    """write_tri's text of a host, changed by each variant in turn."""
    lines = tri_lines(name)
    for v in variants:
        lines = TRI_VARIANTS[v](lines, rng)
    return "\n".join(lines) + end


def read_outcome(read, text):
    """Every table a reader fills, the type and message of what it raises,
    or the oracle's broken vertices.  The oracle keeps no boundary list:
    its boundary half-edges are those without a twin."""
    try:
        t = read(text)
    except tri_oracle.BrokenRotations as exc:
        return "broken", exc.broken
    except (surface.FormatError, surface.StructureError) as exc:
        return "raise", type(exc), str(exc)
    boundary = (t.boundary_half_edges() if isinstance(t, surface.Triangulation)
                else tuple(h for h, g in enumerate(t.twin) if g == NO_TWIN))
    return ("return", t.next, t.twin, t.origin, t.faces, t.face_of,
            t.face_color, t.num_vertices, t.vertex_slots, t.slot_index,
            t._vertex_on_boundary, boundary)


def assert_reads_as_oracle(read, oracle_read, text):
    """The outcome of read is the oracle's; where the oracle finds broken
    rotations, read raises StructureError naming one broken vertex."""
    got, want = read_outcome(read, text), read_outcome(oracle_read, text)
    if want[0] == "broken":
        named = re.fullmatch(r"vertex (\d+) has a broken rotation",
                             str(got[-1]))
        assert got[:2] == ("raise", surface.StructureError), (got, want)
        assert named and int(named[1]) in want[1], (got, want)
    else:
        assert got == want
    return want[0]


@given(st.sampled_from(TRI_NAMES),
       st.lists(st.sampled_from(sorted(TRI_VARIANTS)), max_size=3),
       st.sampled_from(("\n", "")),
       st.lists(st.tuples(st.integers(min_value=0),
                          st.sampled_from(("insert", "delete", "replace")),
                          st.sampled_from(FUZZ_ALPHABET)), max_size=3),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=400, deadline=None)
def test_read_tri_matches_record_oracle(name, variants, end, edits, seed):
    """The same tables, or the same exception and message, as the
    record-by-record reader, on write_tri's output, on other layouts that
    go through `records`, and on text with 1-3 characters changed."""
    text = variant_text(name, variants, random.Random(seed), end)
    for i, kind, c in edits:
        text = edit_char(text, i % (len(text) + 1), kind, c)
    assert_reads_as_oracle(surface.read_tri, tri_oracle.read_tri, text)


@pytest.mark.parametrize("name", TRI_NAMES)
def test_write_tri_output_is_read_by_columns(name):
    """write_tri's layout takes the column path, with the oracle's tables;
    broken tables in that layout are refused as the oracle refuses them."""
    text = variant_text(name, (), None)
    if name in TRI_HOSTS:
        assert text == surface.write_tri(TRI_HOSTS[name]())
    assert surface._tri_columns(text) is not None
    outcome = assert_reads_as_oracle(surface.read_tri, tri_oracle.read_tri,
                                     text)
    assert (outcome == "broken") == (name in BROKEN_TABLES)


@pytest.mark.parametrize("variant", sorted(TRI_VARIANTS))
def test_read_tri_variant_matches_record_oracle(variant):
    """Each variant, on every host and broken table, with a few fixed
    seeds."""
    for name in TRI_NAMES:
        for seed in range(6):
            rng = random.Random("%s %d" % (name, seed))
            text = variant_text(name, [variant], rng, "\n" if seed else "")
            assert_reads_as_oracle(surface.read_tri, tri_oracle.read_tri,
                                   text)


@pytest.mark.parametrize("name", TRI_NAMES)
def test_moved_origins_match_oracle(name):
    """A half-edge's origin moved to another vertex: the rotation walk of
    its old vertex reaches a half-edge of another vertex, and both
    vertices' half-edge counts change.  Every table, or the error, is the
    oracle's, for the first, a middle and the last half-edge, moved to
    each neighbouring vertex id."""
    next_, twin, origin0, colors = host_tables(name)
    n, vertices = len(next_), max(origin0) + 1
    for h in sorted({0, n // 2, n - 1}):
        for v in {origin0[h] - 1, origin0[h] + 1} - {-1, vertices}:
            origin = list(origin0)
            origin[h] = v

            def build(cls):
                return lambda _: cls(next_, twin, origin, colors)
            assert_reads_as_oracle(build(surface.Triangulation),
                                   build(tri_oracle.Triangulation), "")


def test_read_tri_rejects_a_second_face_record():
    """Two records for one face half-edge: the later color used to win."""
    text = tri_lines("torus")
    text = "\n".join(text + ("face 0 color=b he=0",)) + "\n"
    assert surface._tri_columns(text) is None
    with pytest.raises(surface.FormatError,
                       match="line 10: a second face record for half-edge 0"):
        surface.read_tri(text)
    assert (read_outcome(surface.read_tri, text)
            == read_outcome(tri_oracle.read_tri, text))


@pytest.mark.parametrize("end", ["", "# note\n"])
def test_read_tri_rejects_a_face_record_off_its_smallest_half_edge(end):
    """A record for half-edge 2 of face (0, 1, 2) used to be ignored."""
    text = "\n".join(tri_lines("torus") + ("face 5 color=r he=2",)) + "\n"
    text += end
    with pytest.raises(surface.FormatError,
                       match="line 10: half-edge 2 is not its face's smallest"):
        surface.read_tri(text)
    assert (read_outcome(surface.read_tri, text)
            == read_outcome(tri_oracle.read_tri, text))


# -- the composed doubling and the column validator against their oracles ----

def _crowned(t, seed):
    """attach_crowns of t, with anchor needs on some boundary vertices."""
    rng = random.Random(seed)
    ends = sorted({t.origin[h] for h in t.boundary_half_edges()})
    need = {x: rng.randrange(1, 4) for x in rng.sample(ends, min(3, len(ends)))}
    return attach_crowns(t, need)[0]


DOUBLING_HOSTS = {
    **{"patch r%d s%d" % (r, seed): lambda r=r, seed=seed: make_patch(
        seed, radius=r) for r in range(1, 6) for seed in range(3)},
    **{"crowned patch r%d s%d" % (r, seed): lambda r=r, seed=seed: _crowned(
        make_patch(seed, radius=r), seed) for r in range(1, 4)
       for seed in range(2)},
    **{"crown%d" % k: lambda k=k: surface.crown(k) for k in (2, 4, 6)},
    **{"crowned crown%d" % k: lambda k=k: _crowned(surface.crown(k), k)
       for k in (2, 4, 6)},
    # the fixtures of test_boundary.py
    "boundary patch": lambda: make_patch(1, radius=2),
    "boundary patch crowned": lambda: attach_crowns(
        make_patch(1, radius=2), {})[0],
    "boundary annulus crowned": lambda: attach_crowns(
        surface.crown(6), {})[0],
    # broken tables: a rotation that does not close, which make no host
    # to double, and a square face
    "broken twin": broken_twin_torus,
    "square": square,
}


@pytest.mark.parametrize("name", sorted(DOUBLING_HOSTS))
def test_doubling_matches_glued_oracle(name):
    """Every table, and the mirror offset, of gluing the parts face by face;
    tables with a broken rotation are refused before there is a host."""
    if name == "broken twin":
        assert _refusal(DOUBLING_HOSTS[name]()) == 0
        return
    t0 = DOUBLING_HOSTS[name]()
    composed, mirror = surface._double_with_gadgets_unchecked(t0)
    glued, glued_mirror = tri_oracle.double_with_gadgets_glued(t0)
    assert mirror == glued_mirror
    # every table, each entry read from the composed host
    composed = composed.materialize()
    assert vars(composed) == vars(glued)
    assert (surface.validate_reducing(composed)
            == tri_oracle.validate_reducing(glued))


# the reducing doubling hosts, and a crowned radius-3 patch of 282
# half-edges, the size of the patches `harmonize --anchors` is timed on
ENTRY_HOSTS = {**{name: host for name, host in DOUBLING_HOSTS.items()
                  if name not in ("broken twin", "square")},
               "crowned patch r3 of 282": lambda: _crowned(
                   make_patch(3, radius=3), 3)}


@pytest.mark.parametrize("name", sorted(ENTRY_HOSTS))
def test_doubled_host_entries_match_glued_oracle(name):
    """Read one entry at a time, in random order, the doubled host gives
    every entry and every global query of gluing the parts face by face,
    though it computes most entries only when they are read."""
    t0 = ENTRY_HOSTS[name]()
    assert validate_reducing(t0).ok
    doubled = surface._double_with_gadgets_unchecked(t0)[0]
    glued = tri_oracle.double_with_gadgets_glued(t0)[0]
    rng = random.Random(name)
    for column in ("next", "twin", "origin", "face_of", "slot_index",
                   "faces", "face_color", "vertex_slots",
                   "_vertex_on_boundary"):
        got, want = getattr(doubled, column), getattr(glued, column)
        assert len(got) == len(want)
        order = list(range(len(want)))
        rng.shuffle(order)
        assert [got[i] for i in order] == [want[i] for i in order], column
        with pytest.raises(IndexError):
            got[len(want)]
    assert doubled.num_vertices == glued.num_vertices
    assert doubled.boundary_half_edges() == glued.boundary_half_edges() == ()
    assert ([doubled.degree(v) for v in range(doubled.num_vertices)]
            == [glued.degree(v) for v in range(glued.num_vertices)])
    assert ((doubled.num_edges(), doubled.euler_characteristic(),
             doubled.genus(), doubled.is_closed(), doubled.boundary_cycles())
            == (glued.num_edges(), glued.euler_characteristic(),
                glued.genus(), glued.is_closed(), glued.boundary_cycles()))


# the non-reducing hosts of the anchored CLI tests join the doubling hosts
PART_CHECK_HOSTS = {**DOUBLING_HOSTS, "degree-4 disk": lambda: fan_disk(4),
                    "crown5": lambda: surface.crown(5), "bowtie": bowtie}


def _grown(t, need):
    """The crowned host of t as the ring grower builds it: crowns grown on
    copies of t's columns, then the constructor."""
    cols = (list(t.next), list(t.twin), list(t.origin),
            list(map(t.color_left, range(len(t.next)))))

    def target(w, k):
        d = max(6, k, k + need.get(w, 0) + 4)
        return d + d % 2

    nverts = t.num_vertices
    for cyc in t.boundary_cycles():
        nverts = surface._grow_ring(cols, cyc, nverts, target)[1]
    return surface.Triangulation(*cols[:3], dict(enumerate(cols[3])))


def _refusal(tables):
    """The vertex that building tables names in its StructureError: one of
    the oracle's broken vertices."""
    with pytest.raises(surface.StructureError,
                       match=r"^vertex \d+ has a broken rotation$") as exc:
        surface.Triangulation(*tables)
    vertex = int(str(exc.value).split()[1])
    assert vertex in tri_oracle.broken_vertices(*tables[:3])
    return vertex


def _crowned_verdict(t, t0):
    """The anchored extension's verdict: t's full check, then the part
    check of its crowns."""
    return validate_reducing(t).ok and t0.validate_crowns().ok


@pytest.mark.parametrize("name", sorted(PART_CHECK_HOSTS))
def test_part_checks_agree_with_doubled_scan(name):
    """The anchored extension validates a host in full and its crowns by
    their parts instead of the doubled host; the part check gives the
    verdict of the full scans of the crowned and doubled hosts.  Tables
    with a broken rotation are refused before there is a host to check."""
    if name in ("bowtie", "broken twin"):
        assert _refusal(PART_CHECK_HOSTS[name]()) == 0
        return
    t = PART_CHECK_HOSTS[name]()
    t0 = attach_crowns(t, {})[0]
    doubled = surface._double_with_gadgets_unchecked(t0)[0].materialize()
    verdict = validate_reducing(t0.materialize()).ok
    assert (validate_reducing(t).ok == verdict
            == validate_reducing(doubled).ok)
    assert _crowned_verdict(t, t0) == verdict


@pytest.mark.parametrize("fan", ["fitted", "least", "one more"])
def test_part_check_finds_what_the_full_scan_finds(fan):
    """On reducing patches crowned with fans that leave old boundary
    vertices of low or odd degree, the part check reports the violations
    that validate_reducing finds on the materialized crowned host."""
    target = {"fitted": lambda w, k: max(6, k) + max(6, k) % 2,
              "least": lambda w, k: k, "one more": lambda w, k: k + 1}[fan]
    found = set()
    for seed in range(20):
        t = surface.build_disk_patch(1 + seed % 3, random.Random(seed))
        t0 = boundary.CrownedHost(t, target)
        parts = set(t0.validate_crowns().violations)
        assert parts == set(validate_reducing(t0.materialize()).violations)
        found |= {v.kind for v in parts}
    assert found == {"fitted": set(), "least": {DEGREE_TOO_LOW,
                                                DUAL_NOT_BIPARTITE},
                     "one more": {DUAL_NOT_BIPARTITE}}[fan]


@pytest.mark.parametrize("name", sorted(PART_CHECK_HOSTS))
def test_crowned_host_matches_constructor(name):
    """Materialized, attach_crowns' host has every table of growing the
    crowns on t's columns; each entry, read one at a time in random order,
    is the materialized one, and without needs and up to 1,300 half-edges
    its doubling is the doubling of the grown host.  Tables with a broken
    rotation are refused before there is a host to crown."""
    if name in ("bowtie", "broken twin"):
        assert _refusal(PART_CHECK_HOSTS[name]()) == 0
        return
    t = PART_CHECK_HOSTS[name]()
    rng = random.Random(name)
    for need in ({}, {x: 1 + x % 4 for x in range(t.num_vertices)
                      if t.is_boundary_vertex(x)}):
        t0 = attach_crowns(t, need)[0]
        grown = _grown(t, need)
        assert vars(t0.materialize()) == vars(grown)
        for column in ("next", "twin", "origin", "face_of", "slot_index",
                       "faces", "face_color", "vertex_slots",
                       "_vertex_on_boundary"):
            got, want = getattr(t0, column), getattr(grown, column)
            order = list(range(len(want)))
            rng.shuffle(order)
            assert len(got) == len(want)
            assert [got[i] for i in order] == [want[i] for i in order], column
        assert ((t0.num_vertices, t0.boundary_half_edges())
                == (grown.num_vertices, grown.boundary_half_edges()))
        # the benchmark's crowned patches have about 1,200 half-edges
        if not need and len(grown.next) <= 1300:
            doubled = surface._double_with_gadgets_unchecked
            assert (vars(doubled(t0)[0].materialize())
                    == vars(doubled(grown)[0].materialize()))


def test_crowned_patches_match_constructor(monkeypatch):
    """The same on 240 seeded patches of radius 1-4, with needs of 0-4 on
    up to three boundary vertices: attach_crowns calls no constructor, its
    host materializes to the grown one, which is reducing, and the part
    check agrees.  The lazy doubling of every eighth equals the doubling of
    the grown host."""
    built = []
    init = surface.Triangulation.__init__
    rng = random.Random(20)
    for seed in range(240):
        t = surface.build_disk_patch(1 + seed % 4, random.Random(seed))
        ends = sorted({t.origin[h] for h in t.boundary_half_edges()})
        need = {x: rng.randrange(5)
                for x in rng.sample(ends, rng.randrange(4))}
        with monkeypatch.context() as m:
            m.setattr(surface.Triangulation, "__init__",
                      lambda self, *args: built.append(init(self, *args)))
            t0 = attach_crowns(t, need)[0]
        assert not built
        grown = _grown(t, need)
        assert vars(t0.materialize()) == vars(grown), seed
        assert validate_reducing(grown).ok
        assert _crowned_verdict(t, t0)
        if seed % 8 == 0:
            doubled = surface._double_with_gadgets_unchecked
            assert (vars(doubled(t0)[0].materialize())
                    == vars(doubled(grown)[0].materialize())), seed


def _swap_twins(twin, a, b):
    """Swap the twins of a and b, and point their old partners back."""
    ta, tb = twin[a], twin[b]
    twin[a], twin[b] = tb, ta
    twin[ta], twin[tb] = b, a


def _twin_swapped_patch(s):
    """The tables of build_disk_patch(1 + s % 2, Random(s)) with 1 + s % 2
    swaps of interior twins drawn from a fresh Random(s)."""
    p = surface.build_disk_patch(1 + s % 2, random.Random(s))
    rng = random.Random(s)
    inner = [h for h in range(len(p.next)) if p.twin[h] != NO_TWIN]
    twin = list(p.twin)
    for _ in range(1 + s % 2):
        _swap_twins(twin, *rng.sample(inner, 2))
    return tables_of(p, twin)


def test_boundary_walk_of_broken_twins_raises_structure_error():
    """Seed 353 of the sweep below: swapping the twins of (12, 11), then of
    (54, 11), sent the boundary walk from a half-edge round a cycle of
    interior half-edges, where it once looped forever.  The constructor
    refuses the tables, naming a broken vertex, before any boundary walk."""
    tables = _twin_swapped_patch(353)
    p = surface.build_disk_patch(2, random.Random(353))
    twin = list(p.twin)
    _swap_twins(twin, 12, 11)
    _swap_twins(twin, 54, 11)
    assert tables[1] == tuple(twin)
    assert _refusal(tables) == 0


def test_twin_swapped_patches_crown_or_raise():
    """The tables of 1,330 seeded patches with one or two interior twin
    swaps: the 1,329 whose rotations break, by the oracle's chain rule, are
    refused when built, naming one of the oracle's broken vertices, and
    the one left unbroken builds and crowns to the tables of the grown
    host."""
    outcomes = Counter()
    for s in range(1330):
        tables = _twin_swapped_patch(s)
        if tri_oracle.broken_vertices(*tables[:3]):
            _refusal(tables)
            outcomes["refused"] += 1
            continue
        t = surface.Triangulation(*tables)
        t0 = attach_crowns(t, {})[0]
        assert vars(t0.materialize()) == vars(_grown(t, {})), s
        outcomes["crowned"] += 1
    assert outcomes == {"refused": 1329, "crowned": 1}


def test_unbroken_rotations_hold_their_half_edges():
    """What the composed hosts read in a host, an unbroken one: on the
    tables of 172 bounded hosts (disk patches of radius 1-4 with seeds
    0-39, crown(3) to crown(12), fan_disk(4) and bowtie) and of the 1,330
    twin-swapped patches above, the constructor refuses exactly the tables
    whose rotations break by the oracle's chain rule, and every host it
    builds gives each half-edge a slot, holds in each rotation only
    half-edges out of its vertex, and has boundary half-edges of distinct
    tails and distinct heads, so that the crowned host counts each old
    boundary vertex's crown degree from its slots alone."""
    sample = [surface.build_disk_patch(r, random.Random(s))
              for r in range(1, 5) for s in range(40)]
    sample += [surface.crown(k) for k in range(3, 13)] + [fan_disk(4)]
    sample = [tables_of(t) for t in sample] + [bowtie()]
    unbroken = Counter()
    for name, hosts in (("sample", sample), ("twin-swapped", map(
            _twin_swapped_patch, range(1330)))):
        for tables in hosts:
            if tri_oracle.broken_vertices(*tables[:3]):
                _refusal(tables)
                continue
            t = surface.Triangulation(*tables)
            assert min(t.slot_index) >= 0 and all(
                t.origin[g] == v for v, run in enumerate(t.vertex_slots)
                for g in run)
            bound = t.boundary_half_edges()
            assert (len({t.origin[h] for h in bound})
                    == len({t.head(h) for h in bound}) == len(bound))
            unbroken[name] += 1
    assert unbroken == {"sample": 171, "twin-swapped": 1}


def test_doubled_host_of_broken_rotations_raises_structure_error():
    """Tables whose rotations are broken are refused when built, so no
    doubled host is ever composed of them: StructureError names a broken
    vertex, on closed tables and on bounded ones."""
    assert _refusal(broken_twin_torus()) == 0
    assert _refusal(_twin_swapped_patch(3)) == 1


VALIDATION_HOSTS = {
    "torus": surface.build_torus,
    "three gadget": surface.build_three_gadget,
    "patch": lambda: make_patch(2, radius=3),
    "doubled crown4": lambda: surface.double_with_gadgets(surface.crown(4)),
    "odd crown": lambda: surface.crown(5),
    "degree-4 disk": lambda: fan_disk(4),
    "disconnected union": two_pillows,
    "broken twin": twin_mismatch_torus,
    "non-triangle face": square,
    "doubled odd crown": lambda: surface._double_with_gadgets_unchecked(
        attach_crowns(surface.crown(5), {})[0])[0].materialize(),
    "doubled degree-4 disk": lambda: surface._double_with_gadgets_unchecked(
        attach_crowns(fan_disk(4), {})[0])[0].materialize(),
}


@pytest.mark.parametrize("name", sorted(VALIDATION_HOSTS))
def test_validate_reducing_matches_element_oracle(name):
    """The same violations in the same order as checking one element at a
    time, on valid hosts and on broken ones; on "broken twin" twins that
    disagree with rotations that close."""
    t = VALIDATION_HOSTS[name]()
    report = surface.validate_reducing(t)
    assert report == tri_oracle.validate_reducing(t)
    assert report.ok == (name in ("torus", "three gadget", "patch",
                                  "doubled crown4"))
