import argparse
import contextlib
import gc
import io
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from redtri import cli, drawing, surface
from redtri.cli import build_parser, main
from redtri.walkcalc import Walk

from conftest import (FUZZ_ALPHABET, backwards_boundary_drawing, bowtie,
                      boundary_path_drawing, broken_twin_torus, edit_char,
                      fan_disk, fixture_path, make_patch, tri_text,
                      twin_mismatch_doubled_crown4, twin_mismatch_torus)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def torus_path(tmp_path, capsys):
    p = tmp_path / "torus.tri"
    assert main(["fixtures", "torus", "-o", str(p)]) == 0
    capsys.readouterr()
    return str(p)


def test_validate_torus(capsys, torus_path):
    code, out, _ = run(capsys, "validate", torus_path)
    assert code == 0
    assert "reducing" in out.splitlines()
    assert "chi=0" in out


def test_validate_odd_crown(capsys, tmp_path):
    p = tmp_path / "c3.tri"
    main(["fixtures", "crown3", "-o", str(p)])
    capsys.readouterr()
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    assert "DualNotBipartite" in out
    assert "not-reducing" in out


def test_validate_degree_too_low(capsys, tmp_path):
    # the triangular pillow: every vertex has degree two
    cols = next_, twin, origin, color = [], [], [], []
    f1 = surface.new_face(cols, 0, 1, 2, surface.RED)
    f2 = surface.new_face(cols, 0, 2, 1, surface.BLUE)
    surface.glue(cols, f1[0], f2[2])
    surface.glue(cols, f1[1], f2[1])
    surface.glue(cols, f1[2], f2[0])
    p = tmp_path / "pillow.tri"
    p.write_text(surface.write_tri(surface.Triangulation(
        next_, twin, origin, dict(enumerate(color)))))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    assert "DegreeTooLow" in out


def test_validate_malformed(capsys, tmp_path):
    p = tmp_path / "bad.tri"
    p.write_text("tri 3\nhe 0 next=1 twin=- origin=0\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.tri")
    assert code == 2 and "error" in err


def test_reduce_stalled_walk(capsys, tmp_path, torus_path):
    w = tmp_path / "w.walk"
    main(["fixtures", "torus-stalled-walk", "-o", str(w)])
    capsys.readouterr()
    code, out, _ = run(capsys, "reduce", torus_path, str(w))
    assert code == 0
    assert out.startswith("stalled reason=cycle")


def test_reduce_spur(capsys, tmp_path, torus_path):
    t = surface.build_torus()
    w = Walk.from_half_edges(t, (0, t.twin[0]))
    p = tmp_path / "spur.walk"
    from redtri.walkcalc import write_walk
    p.write_text(write_walk(w))
    code, out, _ = run(capsys, "reduce", torus_path, str(p))
    assert code == 0
    assert "he=-" in out


@pytest.mark.parametrize("hes,budget,want", [
    ((0, 4), "1", " he=-\n"), ((0,), "0", " he=0\n"), ((0, 4), "0", None)])
def test_reduce_budget_counts_rewrites(capsys, tmp_path, torus_path, hes,
                                       budget, want):
    """--budget allows that many rewrites: the torus spur 0, 4 needs one
    and the one-edge walk 0 none; with too few the reduction stalls."""
    p = tmp_path / "w.walk"
    p.write_text("walk closed=0 start=0 he=%s\n" % ",".join(map(str, hes)))
    code, out, err = run(capsys, "reduce", torus_path, str(p), "--budget",
                         budget)
    if want is None:
        assert code == 1 and "budget exhausted" in err
    else:
        assert code == 0 and out.endswith(want)


def test_reduce_boundary_turn(capsys, tmp_path):
    """A walk that turns at a rim vertex is malformed input: exit 2 with
    one error line, no traceback."""
    p = surface.build_disk_patch(2, random.Random(1))
    h = next(h for h in range(len(p.next))
             if p.is_boundary_vertex(p.head(h)))
    g = next(g for g in p.vertex_slots[p.head(h)] if g != p.twin[h])
    from redtri.walkcalc import write_walk
    tri = tmp_path / "patch.tri"
    tri.write_text(surface.write_tri(p))
    w = tmp_path / "rim.walk"
    w.write_text(write_walk(Walk.from_half_edges(p, (h, g))))
    code, out, err = run(capsys, "reduce", str(tri), str(w))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "boundary vertex %d" % p.head(h) in err


def test_reduce_off_the_rim(capsys, tmp_path):
    """A reduction whose rewrite would leave the surface at the rim is
    malformed input, not a walk through half-edge -1."""
    p = make_patch(0, radius=2)
    from redtri.walkcalc import write_walk
    tri = tmp_path / "patch.tri"
    tri.write_text(surface.write_tri(p))
    w = tmp_path / "rim.walk"
    w.write_text(write_walk(Walk.from_half_edges(p, (48, 49))))
    code, out, err = run(capsys, "reduce", str(tri), str(w))
    assert code == 2 and out == ""
    assert err == "error: half-edge -1 out of range\n"


def test_reduce_on_broken_twins(capsys, tmp_path):
    """A host whose twins disagree with its rotations, which close, is
    malformed input to a reduction: exit 2 with one error line, no
    traceback."""
    tri = tmp_path / "broken.tri"
    tri.write_text(surface.write_tri(twin_mismatch_torus()))
    w = tmp_path / "w.walk"
    w.write_text("walk closed=0 start=1 he=1,2\n")
    code, out, err = run(capsys, "reduce", str(tri), str(w))
    assert code == 2 and out == ""
    assert err == "error: half-edge 15 is not in the rotation at the turn\n"


# command lines that read a `.tri` first, with {tri}, {drw} and {walk} for
# the host and a drawing and a walk on the torus fixture
READERS_OF_TRI = {
    "validate": ["validate", "{tri}"],
    "reduce": ["reduce", "{tri}", "{walk}"],
    "harmonize": ["harmonize", "{tri}", "{drw}"],
    "harmonize-anchors": ["harmonize", "{tri}", "{drw}", "--anchors"],
    "probe": ["probe", "{tri}", "{drw}", "--vertex", "0"],
}


@pytest.mark.parametrize("command", sorted(READERS_OF_TRI))
@pytest.mark.parametrize("tables", [broken_twin_torus, bowtie],
                         ids=["broken twin torus", "bowtie"])
def test_broken_rotations_exit_2(capsys, tmp_path, tables, command):
    """A `.tri` whose rotations do not close is malformed input to every
    command, validate included: exit 2 with one error line naming the
    vertex, no traceback."""
    paths = {"tri": tmp_path / "broken.tri", "drw": tmp_path / "f.drw",
             "walk": tmp_path / "w.walk"}
    paths["tri"].write_text(tri_text(*tables()))
    paths["drw"].write_text(DRW + "anchor 0 order=0\n")
    paths["walk"].write_text("walk closed=0 start=0 he=0\n")
    argv = [a.format(**paths) for a in READERS_OF_TRI[command]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: vertex 0 has a broken rotation\n"


def test_main_leaves_no_argparse_garbage(capsys, tmp_path):
    """main builds its parser once per process, so repeated calls leave
    nothing for the cycle collector."""
    out = str(tmp_path / "torus.tri")
    assert main(["fixtures", "torus", "-o", out]) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(10):
            assert main(["fixtures", "torus", "-o", out]) == 0
        gc.collect()
        left = [o for o in gc.garbage
                if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_reduce_identity(capsys, tmp_path, torus_path):
    from redtri.walkcalc import write_walk
    t = surface.build_torus()
    w = Walk.from_half_edges(t, (0,))
    p = tmp_path / "one.walk"
    p.write_text(write_walk(w))
    code, out, _ = run(capsys, "reduce", torus_path, str(p))
    assert code == 0 and out == write_walk(w)


def write_drawing_files(tmp_path, host, f, anchor=None):
    tp = tmp_path / "host.tri"
    tp.write_text(surface.write_tri(host))
    dp = tmp_path / "f.drw"
    dp.write_text(drawing.write_drawing(f, anchor=anchor))
    return str(tp), str(dp)


def spur_drawing(host):
    h = 0
    g = drawing.Graph(2, [(0, 1)])
    return drawing.Drawing(g, host, [host.tail(h), host.head(h)],
                           [Walk.from_half_edges(host, (h,),
                                                 start=host.tail(h))])


def test_harmonize_roundtrip(capsys, tmp_path):
    host = surface.double_with_gadgets(surface.crown(4))
    tp, dp = write_drawing_files(tmp_path, host, spur_drawing(host))
    trc = tmp_path / "out.trc"
    code, out, _ = run(capsys, "harmonize", tp, dp, "--trace", str(trc))
    assert code == 0
    assert "edge 0 0 1 walk=-" in out
    assert "kind=short" in trc.read_text()


def test_harmonize_stable_input_empty_trace(capsys, tmp_path):
    host = surface.double_with_gadgets(surface.crown(4))
    g = drawing.Graph(1, [])
    f = drawing.Drawing(g, host, [0], [])
    tp, dp = write_drawing_files(tmp_path, host, f)
    trc = tmp_path / "out.trc"
    code, out, _ = run(capsys, "harmonize", tp, dp, "--trace", str(trc))
    assert code == 0
    assert trc.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["fixtures", "torus", "-o", "{missing}/x.tri"],
    ["harmonize", "{tri}", "{drw}", "--trace", "{missing}/x.trc"],
], ids=["fixtures-output", "harmonize-trace"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    """An output path in a directory that does not exist is an input
    error: one line, no traceback."""
    host = surface.double_with_gadgets(surface.crown(4))
    tp, dp = write_drawing_files(tmp_path, host, spur_drawing(host))
    argv = [a.format(missing=tmp_path / "missing", tri=tp, drw=dp)
            for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "missing") in err


@pytest.mark.parametrize("target", ["in a missing directory", "a directory"])
@pytest.mark.parametrize("inputs", ["valid", "missing"])
@pytest.mark.parametrize("flag", ["-o", "--trace"])
def test_harmonize_checks_outputs_first(capsys, tmp_path, monkeypatch, flag,
                                        inputs, target):
    """An output path that cannot be written fails before the inputs are
    read and before harmonize runs: exit 2, one line naming the path,
    nothing on stdout."""
    calls = []
    monkeypatch.setattr(cli, "harmonize", lambda *a, **k: calls.append(a))
    if inputs == "valid":
        host = surface.double_with_gadgets(surface.crown(4))
        tp, dp = write_drawing_files(tmp_path, host, spur_drawing(host))
    else:
        tp, dp = str(tmp_path / "no.tri"), str(tmp_path / "no.drw")
    bad = str(tmp_path / "missing" / "x.out"
              if target == "in a missing directory" else tmp_path)
    code, out, err = run(capsys, "harmonize", tp, dp, flag, bad)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err


def test_harmonize_output_check_leaves_files_alone(capsys, tmp_path):
    """The check writes nothing: after a failed run an existing output
    keeps its text and a new path stays absent."""
    host = surface.double_with_gadgets(surface.crown(4))
    tp, dp = write_drawing_files(tmp_path, host, spur_drawing(host))
    old, new = tmp_path / "old.drw", tmp_path / "new.trc"
    old.write_text("old\n")
    code, _, _ = run(capsys, "harmonize", tp, dp, "--budget", "0",
                     "-o", str(old), "--trace", str(new))
    assert code == 1
    assert old.read_text() == "old\n" and not new.exists()


@pytest.mark.parametrize("argv,words", [
    (["harmonize", "t.tri", "x.drw", "--budget", "x"],
     "argument --budget: invalid int value: 'x'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["harmonize", "t.tri"], "the following arguments are required: drw"),
], ids=["bad-budget", "unknown-command", "missing-positional"])
def test_usage_error_prints_one_line(capsys, argv, words):
    """A command line argparse rejects is malformed input: one `error:`
    line, no usage block, exit 2."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + words) and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: redtri reduce")


def test_harmonize_anchors(capsys, tmp_path):
    p = make_patch(1, radius=2)
    cyc = p.boundary_cycles()[0]
    hes = cyc[:2]
    g = drawing.Graph(3, [(0, 1), (1, 2)])
    vmap = [p.tail(hes[0]), p.head(hes[0]), p.head(hes[1])]
    f = drawing.Drawing(g, p, vmap,
                        [Walk.from_half_edges(p, (h,), start=p.tail(h))
                         for h in hes])
    anchor = {vmap[0]: [0], vmap[2]: [2]}
    tp, dp = write_drawing_files(tmp_path, p, f, anchor=anchor)
    code, out, _ = run(capsys, "harmonize", tp, dp, "--anchors")
    assert code == 0
    assert out.startswith("vertex 0 at ")


@pytest.mark.parametrize("name,host", [("degree-4 disk", lambda: fan_disk(4)),
                                       ("crown5", lambda: surface.crown(5))])
def test_harmonize_anchors_on_non_reducing_host(capsys, tmp_path, name, host):
    """A host that is not reducing fails validation before it is crowned:
    exit 1 with one line, no traceback."""
    p = host()
    h = p.boundary_cycles()[0][0]
    g = drawing.Graph(2, [(0, 1)])
    vmap = [p.tail(h), p.head(h)]
    f = drawing.Drawing(g, p, vmap,
                        [Walk.from_half_edges(p, (h,), start=vmap[0])])
    tp, dp = write_drawing_files(tmp_path, p, f, anchor={vmap[0]: [0]})
    code, out, err = run(capsys, "harmonize", tp, dp, "--anchors")
    assert (code, out) == (1, "")
    assert err == ("harmonize failed: host must be a closed reducing "
                   "triangulation\n")


def test_harmonize_anchors_backwards_along_boundary(capsys, tmp_path):
    """An edge whose harmonized image would run backwards along a boundary
    edge leaves the input host: exit 1 with one line, no traceback."""
    p = make_patch(1, radius=2)
    f, orders = backwards_boundary_drawing(p)
    tp, dp = write_drawing_files(tmp_path, p, f, anchor=orders)
    code, out, err = run(capsys, "harmonize", tp, dp, "--anchors")
    assert (code, out) == (1, "")
    assert err == ("harmonize failed: edge 0 left the host at half-edge "
                   "%d\n" % len(p.next))


# anchor records that do not fit a path along the boundary: (case, records
# with {0}, {1} for the boundary vertices that G-vertices 0 and 1 are drawn
# at, the error line with {line} for the second record's)
MALFORMED_ANCHORS = [
    ("interior-vertex", "anchor 0 order=0\n",
     "anchor at non-boundary vertex 0"),
    ("not-drawn-there", "anchor {1} order=0\n",
     "anchored vertex 0 is not drawn at {1}"),
    ("vertex-in-two-orders", "anchor {0} order=0\nanchor {1} order=0,1\n",
     "vertex 0 anchored twice"),
    ("second-record", "anchor {0} order=0\nanchor {0} order=0\n",
     "line {line}: a second anchor at {0} in 'anchor {0} order=0'"),
]


@pytest.mark.parametrize("lines,message",
                         [case[1:] for case in MALFORMED_ANCHORS],
                         ids=[case[0] for case in MALFORMED_ANCHORS])
def test_harmonize_malformed_anchors_exit_2(capsys, tmp_path, lines,
                                            message):
    p = make_patch(1, radius=2)
    f = boundary_path_drawing(p, steps=2)
    tp, dp = write_drawing_files(tmp_path, p, f)
    with open(dp, "a") as fh:
        fh.write(lines.format(*f.vertex_map))
    # the second record comes two lines after the drawing's own
    line = drawing.write_drawing(f).count("\n") + 2
    code, out, err = run(capsys, "harmonize", tp, dp, "--anchors")
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message.format(*f.vertex_map, line=line)


def test_harmonize_budget_domain_failure(capsys, tmp_path):
    host = surface.double_with_gadgets(surface.crown(4))
    tp, dp = write_drawing_files(tmp_path, host, spur_drawing(host))
    code, _, err = run(capsys, "harmonize", tp, dp, "--budget", "0")
    assert code == 1 and "harmonize failed" in err


def test_fixtures_deterministic(capsys):
    code1, out1, _ = run(capsys, "fixtures", "doubled-crown4")
    code2, out2, _ = run(capsys, "fixtures", "doubled-crown4")
    assert code1 == code2 == 0 and out1 == out2


def test_fixtures_doubled_crown4_pinned(capsys):
    """The doubled host, byte for byte as gluing its parts gave it."""
    code, out, _ = run(capsys, "fixtures", "doubled-crown4")
    with open(fixture_path("doubled_crown4.tri")) as fh:
        assert code == 0 and out == fh.read()


def test_fixtures_unknown(capsys):
    code, _, err = run(capsys, "fixtures", "nope")
    assert code == 2


def test_fixtures_all_parse(capsys):
    for name in ("torus", "crown2", "crown4", "one-gadget", "three-gadget",
                 "doubled-crown4"):
        code, out, _ = run(capsys, "fixtures", name)
        assert code == 0
        surface.read_tri(out)


def test_stress_zero_violations(capsys):
    code, out, _ = run(capsys, "stress", "--count", "5", "--sizes", "4")
    assert code == 0
    assert "violations 0" in out


def test_stress_deterministic(capsys):
    args = ("stress", "--count", "3", "--sizes", "3", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_stress_readme_example(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        line = next(ln for ln in fh if ln.startswith("redtri stress"))
    argv = line.split("#", 1)[0].split()[1:]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "violations 0" in out


def test_readme_cli_block_names_every_subcommand():
    """Each `redtri <command>` line of README's CLI block names a
    subcommand, and each subcommand has such a line."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = fh.read().split("## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    named = {ln.split()[1] for ln in block.splitlines()
             if ln.startswith("redtri ")}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)


def test_stress_empty(capsys):
    code, out, _ = run(capsys, "stress", "--count", "0")
    assert code == 0
    assert "violations 0" in out


def test_probe_cli(capsys, tmp_path, torus_path):
    t = surface.build_torus()
    g = drawing.Graph(2, [(0, 1)])
    f = drawing.Drawing(g, t, [0, 0],
                        [Walk.from_half_edges(t, (5,), start=0)])
    dp = tmp_path / "f.drw"
    dp.write_text(drawing.write_drawing(f))
    code, out, _ = run(capsys, "probe", torus_path, str(dp),
                       "--vertex", "0", "--side", "left")
    assert code == 0
    assert out.startswith("escapes witness=")


# -- malformed input: exit 2 with one error line -----------------------------

# a well-formed drawing on the torus fixture
DRW = "vertex 0 at 0\nvertex 1 at 0\nedge 0 0 1 walk=5\n"

TORUS_TRI = surface.write_tri(surface.build_torus())
# (case, file name, its text, command line with {tri} and {file} for the
# torus fixture and the malformed file[, the exact error message])
MALFORMED = [
    ("tri-empty", "x.tri", "", ["validate", "{file}"], "missing tri header"),
    ("tri-comment-only", "x.tri", "# no records\n\n", ["validate", "{file}"],
     "missing tri header"),
    ("tri-header-twice", "x.tri", "tri 6\ntri 6\n", ["validate", "{file}"],
     "line 2: a second header in 'tri 6'"),
    ("tri-not-a-number", "x.tri", "tri x\n", ["validate", "{file}"]),
    ("tri-missing-twin", "x.tri", "tri 1\nhe 0 next=0 origin=0\n",
     ["validate", "{file}"]),
    ("tri-he-out-of-range", "x.tri", "tri 1\nhe 5 next=0 twin=- origin=0\n",
     ["validate", "{file}"]),
    ("tri-negative-count", "x.tri", "tri -1\n", ["validate", "{file}"]),
    # a host with no half-edge is no surface
    ("tri-zero-count", "x.tri", "tri 0\n", ["validate", "{file}"],
     "line 1: half-edge count out of range in 'tri 0'"),
    # rejected before any table of that size is allocated
    ("tri-huge-count", "x.tri", "tri %d\n" % 10 ** 15, ["validate", "{file}"]),
    ("tri-huge-vertex-id", "x.tri",
     "tri 1\nhe 0 next=0 twin=- origin=%d\nface 0 color=r he=0\n" % 10 ** 15,
     ["validate", "{file}"]),
    # face and half-edge records that the tables would otherwise hide
    ("tri-face-index-not-a-number", "x.tri",
     TORUS_TRI.replace("face 0 ", "face abc "), ["validate", "{file}"]),
    ("tri-face-he-out-of-range", "x.tri",
     TORUS_TRI + "face 7 color=q he=99\n", ["validate", "{file}"]),
    ("tri-he-given-twice", "x.tri",
     TORUS_TRI + "he 0 next=1 twin=3 origin=0\n", ["validate", "{file}"]),
    ("tri-face-given-twice", "x.tri",
     TORUS_TRI + "face 0 color=b he=0\n", ["validate", "{file}"]),
    ("tri-face-he-not-smallest", "x.tri",
     TORUS_TRI + "face 5 color=r he=2\n", ["validate", "{file}"]),
    ("drw-vertex-off-host", "x.drw", "vertex 0 at 99\n",
     ["harmonize", "{tri}", "{file}"]),
    ("drw-vertex-gap", "x.drw", "vertex 0 at 0\nvertex 2 at 0\n",
     ["harmonize", "{tri}", "{file}"]),
    # edge ids follow the order of the records, as write_drawing writes them
    ("drw-edge-ids-out-of-order", "x.drw",
     DRW.replace("edge 0", "edge 1") + "edge 0 1 0 walk=5\n",
     ["harmonize", "{tri}", "{file}"],
     "line 3: expected edge id 0, got 1 in 'edge 1 0 1 walk=5'"),
    ("drw-edge-id-given-twice", "x.drw", DRW + "edge 0 1 0 walk=5\n",
     ["harmonize", "{tri}", "{file}"],
     "line 4: expected edge id 1, got 0 in 'edge 0 1 0 walk=5'"),
    ("drw-negative-half-edges", "x.drw",
     "vertex 0 at 0\nvertex 1 at 0\nedge 0 0 1 walk=-2,-5\n",
     ["harmonize", "{tri}", "{file}"]),
    ("walk-negative-half-edge", "x.walk", "walk closed=0 start=0 he=-2\n",
     ["reduce", "{tri}", "{file}"]),
    ("walk-stray-field", "x.walk", "walk closed=0 start=0 he=0 junk\n",
     ["reduce", "{tri}", "{file}"]),
    # a key=value field that no record has is named, not dropped
    ("tri-unknown-field", "x.tri", TORUS_TRI.replace(
        "origin=0\n", "origin=0 junk=1\n", 1), ["validate", "{file}"],
     "line 2: unknown field 'junk' in 'he 0 next=1 twin=4 origin=0 junk=1'"),
    ("drw-unknown-field", "x.drw", DRW.replace("walk=5", "walk=5 colour=red"),
     ["harmonize", "{tri}", "{file}"],
     "line 3: unknown field 'colour' in 'edge 0 0 1 walk=5 colour=red'"),
    ("drw-anchor-unknown-field", "x.drw", DRW + "anchor 0 order=0 foo=1\n",
     ["harmonize", "{tri}", "{file}"],
     "line 4: unknown field 'foo' in 'anchor 0 order=0 foo=1'"),
    ("walk-unknown-field", "x.walk", "walk closed=0 start=0 he=0 junk=1\n",
     ["reduce", "{tri}", "{file}"],
     "line 1: unknown field 'junk' in 'walk closed=0 start=0 he=0 junk=1'"),
    # a key given twice is named, not read twice with the first dropped
    ("walk-key-given-twice", "x.walk", "walk closed=0 start=0 he=0 he=5\n",
     ["reduce", "{tri}", "{file}"],
     "line 1: field 'he' given twice in 'walk closed=0 start=0 he=0 he=5'"),
    ("drw-key-given-twice", "x.drw", DRW.replace("walk=5", "walk=5 walk=0"),
     ["harmonize", "{tri}", "{file}"],
     "line 3: field 'walk' given twice in 'edge 0 0 1 walk=5 walk=0'"),
    ("tri-key-given-twice", "x.tri", TORUS_TRI.replace(
        "twin=4 ", "twin=5 twin=4 ", 1), ["validate", "{file}"],
     "line 2: field 'twin' given twice in "
     "'he 0 next=1 twin=5 twin=4 origin=0'"),
    ("drw-field-with-two-equals", "x.drw", DRW.replace("walk=5", "walk=5=5"),
     ["probe", "{tri}", "{file}", "--vertex", "0"]),
    ("walk-unknown-record", "x.walk", "walk closed=0 start=0 he=0\nbogus 1\n",
     ["reduce", "{tri}", "{file}"]),
    ("walk-closed-2", "x.walk", "walk closed=2 start=0 he=0\n",
     ["reduce", "{tri}", "{file}"],
     "line 1: closed must be 0 or 1 in 'walk closed=2 start=0 he=0'"),
    # the torus fixture has one vertex
    ("walk-start-off-host", "x.walk", "walk closed=0 start=9 he=-\n",
     ["reduce", "{tri}", "{file}"],
     "line 1: start vertex 9 out of range in 'walk closed=0 start=9 he=-'"),
    ("walk-two-records", "x.walk", "walk closed=0 start=0 he=0\n" * 2,
     ["reduce", "{tri}", "{file}"], "expected one walk record, found 2"),
    ("walk-no-record", "x.walk", "# no walk\n", ["reduce", "{tri}", "{file}"],
     "expected one walk record, found 0"),
    ("drw-anchored-vertex-off-graph", "x.drw", DRW + "anchor 0 order=0,2\n",
     ["harmonize", "{tri}", "{file}"], "anchored vertex 2 out of range"),
    ("drw-anchored-vertex-off-graph-anchors", "x.drw",
     DRW + "anchor 0 order=0,2\n",
     ["harmonize", "{tri}", "{file}", "--anchors"],
     "anchored vertex 2 out of range"),
    # half-edge 0 of doubled crown4 leaves vertex 0, not vertex 5
    ("walk-start-not-tail", "x.walk", "walk closed=0 start=5 he=0\n",
     ["reduce", fixture_path("doubled_crown4.tri"), "{file}"]),
    # numeric options below their least value
    ("budget-negative", "x.drw", DRW, ["harmonize", "{tri}", "{file}",
                                       "--budget", "-1"]),
    ("window-zero", "x.drw", DRW, ["probe", "{tri}", "{file}", "--vertex",
                                   "0", "--window", "0"]),
    ("window-negative", "x.drw", DRW, ["probe", "{tri}", "{file}",
                                       "--vertex", "0", "--window", "-1"]),
    ("vertex-out-of-range", "x.drw", DRW, ["probe", "{tri}", "{file}",
                                           "--vertex", "2"]),
    ("depth-negative", "x.drw", DRW, ["probe", "{tri}", "{file}", "--vertex",
                                      "0", "--depth", "-1"]),
    ("sizes-zero", "unused", "", ["stress", "--sizes", "0"]),
    ("count-negative", "unused", "", ["stress", "--count", "-1"]),
    # files that are not UTF-8 text, given as bytes
    ("tri-not-utf-8", "x.tri", b"\xff\xfe garbage", ["validate", "{file}"]),
    ("tri-latin-1-comment", "x.tri", TORUS_TRI.encode() + b"# caf\xe9\n",
     ["validate", "{file}"]),
    ("drw-not-utf-8", "x.drw", DRW.encode().replace(b"walk=5", b"walk=\xb5"),
     ["harmonize", "{tri}", "{file}"]),
    ("walk-not-utf-8", "x.walk", b"walk closed=0 start=0 he=0\x80\n",
     ["reduce", "{tri}", "{file}"]),
]


@pytest.mark.parametrize("name,text,argv,message",
                         [(*case[1:4], case[4] if len(case) > 4 else None)
                          for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_2(capsys, tmp_path, torus_path, name, text,
                                 argv, message):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    argv = [a.format(tri=torus_path, file=str(p)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err == "error: %s\n" % message


@pytest.mark.parametrize("field", ["junk", "he=0=5", "=x=", "a==b"])
def test_stray_field_is_named(capsys, tmp_path, torus_path, field):
    p = tmp_path / "x.walk"
    p.write_text("walk closed=1 start=0 he=0,5 %s\n" % field)
    code, out, err = run(capsys, "reduce", torus_path, str(p))
    assert code == 2 and out == ""
    assert err == ("error: line 1: field %r is not key=value in "
                   "'walk closed=1 start=0 he=0,5 %s'\n" % (field, field))


def test_probe_on_bounded_host_exits_2(capsys, tmp_path):
    p = make_patch(1, radius=2)
    g = drawing.Graph(1, [])
    tp, dp = write_drawing_files(tmp_path, p, drawing.Drawing(g, p, [0], []))
    code, out, err = run(capsys, "probe", tp, dp, "--vertex", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("host", [twin_mismatch_torus,
                                  twin_mismatch_doubled_crown4])
def test_host_not_reducing_exit_codes(capsys, tmp_path, host):
    """On a closed host that is not reducing (twins that disagree with
    rotations that close), `validate` and `harmonize` report a domain
    failure, exit 1, and `probe` refuses its base as malformed input, exit
    2, as it does a bounded host."""
    g = drawing.Graph(1, [])
    t = host()
    tp, dp = write_drawing_files(tmp_path, t, drawing.Drawing(g, t, [0], []))
    code, out, err = run(capsys, "validate", tp)
    assert code == 1 and err == ""
    assert "not-reducing\n" in out and "violation TwinBroken at " in out
    code, out, err = run(capsys, "harmonize", tp, dp)
    assert (code, out) == (1, "")
    assert err == ("harmonize failed: host must be a closed reducing "
                   "triangulation\n")
    code, out, err = run(capsys, "probe", tp, dp, "--vertex", "0")
    assert (code, out) == (2, "")
    assert err == "error: base must be a closed reducing triangulation\n"


def test_harmonize_torus_warns_in_one_line(capsys, tmp_path, torus_path):
    dp = tmp_path / "f.drw"
    dp.write_text(DRW)
    code, out, err = run(capsys, "harmonize", torus_path, str(dp))
    assert code == 0 and out.startswith("vertex 0 at 0\n")
    assert err == ("warning: torus host: harmonization may not terminate; "
                   "budget applies\n")


# -- fuzzing: mutated inputs never escape as a traceback ---------------------

FUZZ_FILES = {
    "torus.tri": None,    # the torus fixture, written by the test
    "f.drw": ("vertex 0 at 0\nvertex 1 at 0\nedge 0 0 1 walk=5\n"
              "anchor 0 order=0,1\n"),
    "w.walk": "walk closed=0 start=0 he=0,5\n",
}
# per mutated file, the command lines that read it
FUZZ_COMMANDS = {
    "torus.tri": [["validate", "torus.tri"],
                  ["reduce", "torus.tri", "w.walk"]],
    "f.drw": [["harmonize", "torus.tri", "f.drw", "--budget", "20"],
              ["probe", "torus.tri", "f.drw", "--vertex", "0"]],
    "w.walk": [["reduce", "torus.tri", "w.walk"]],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        if text is None:
            text = surface.write_tri(surface.build_torus())
        (d / name).write_text(text)
    return d


@pytest.mark.filterwarnings("ignore:torus host")
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_mutated_inputs(fuzz_dir, data):
    name = data.draw(st.sampled_from(sorted(FUZZ_FILES)))
    text = (fuzz_dir / name).read_text()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(("insert", "delete", "replace")))
        c = data.draw(st.sampled_from(FUZZ_ALPHABET))
        text = edit_char(text, i, kind, c)
    mutated = fuzz_dir / ("mutated-" + name)
    mutated.write_text(text)
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS[name]))
    argv = [str(mutated) if a == name else str(fuzz_dir / a) if "." in a
            else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
