import contextlib
import gc
import io
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from redtri import drawing, surface
from redtri.cli import main
from redtri.walkcalc import Walk

from conftest import make_patch


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
    b = surface.MapBuilder()
    f1 = b.new_face(0, 1, 2, surface.RED)
    f2 = b.new_face(0, 2, 1, surface.BLUE)
    b.glue(f1[0], f2[2])
    b.glue(f1[1], f2[1])
    b.glue(f1[2], f2[0])
    p = tmp_path / "pillow.tri"
    p.write_text(surface.write_tri(b.build()))
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


def test_harmonize_budget_domain_failure(capsys, tmp_path):
    host = surface.double_with_gadgets(surface.crown(4))
    tp, dp = write_drawing_files(tmp_path, host, spur_drawing(host))
    code, _, err = run(capsys, "harmonize", tp, dp, "--budget", "0")
    assert code == 1 and "harmonize failed" in err


def test_fixtures_deterministic(capsys):
    code1, out1, _ = run(capsys, "fixtures", "doubled-crown4")
    code2, out2, _ = run(capsys, "fixtures", "doubled-crown4")
    assert code1 == code2 == 0 and out1 == out2


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


def test_stress_empty(capsys):
    code, out, _ = run(capsys, "stress", "--count", "0")
    assert code == 0
    assert "violations 0" in out


def test_export_dot_torus(capsys, torus_path):
    code, out, _ = run(capsys, "export", torus_path, "--format", "dot")
    assert code == 0
    assert out.count("[label=") == 2  # one node per torus face
    assert out.count("--") == 3


def test_export_svg_patch(capsys, tmp_path):
    import xml.etree.ElementTree as ET
    p = make_patch(0, radius=2)
    tp = tmp_path / "p.tri"
    tp.write_text(surface.write_tri(p))
    code, out, _ = run(capsys, "export", str(tp), "--format", "svg")
    assert code == 0
    ET.fromstring(out)  # well-formed XML


def test_export_trace_frames(capsys, tmp_path):
    from redtri.harmonizer import MoveTrace, write_trace
    tr = MoveTrace()
    tr.append("short", (0,), 5, 3, 1)
    tr.append("flip", (1,), 3, 3, 2)
    p = tmp_path / "t.trc"
    p.write_text(write_trace(tr))
    code, out, _ = run(capsys, "export", str(p), "--format", "svg")
    assert code == 0
    assert out.count("<g id=") == 3  # n moves -> n+1 frames


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

# (case, file name, its text, command line with {tri} and {file} for the
# torus fixture and the malformed file)
MALFORMED = [
    ("tri-not-a-number", "x.tri", "tri x\n", ["validate", "{file}"]),
    ("tri-missing-twin", "x.tri", "tri 1\nhe 0 next=0 origin=0\n",
     ["validate", "{file}"]),
    ("tri-he-out-of-range", "x.tri", "tri 1\nhe 5 next=0 twin=- origin=0\n",
     ["validate", "{file}"]),
    ("tri-negative-count", "x.tri", "tri -1\n", ["validate", "{file}"]),
    # rejected before any table of that size is allocated
    ("tri-huge-count", "x.tri", "tri %d\n" % 10 ** 15, ["validate", "{file}"]),
    ("tri-huge-vertex-id", "x.tri",
     "tri 1\nhe 0 next=0 twin=- origin=%d\nface 0 color=r he=0\n" % 10 ** 15,
     ["validate", "{file}"]),
    ("drw-vertex-off-host", "x.drw", "vertex 0 at 99\n",
     ["harmonize", "{tri}", "{file}"]),
    ("drw-vertex-gap", "x.drw", "vertex 0 at 0\nvertex 2 at 0\n",
     ["harmonize", "{tri}", "{file}"]),
    ("drw-negative-half-edges", "x.drw",
     "vertex 0 at 0\nvertex 1 at 0\nedge 0 0 1 walk=-2,-5\n",
     ["harmonize", "{tri}", "{file}"]),
    ("walk-negative-half-edge", "x.walk", "walk closed=0 start=0 he=-2\n",
     ["reduce", "{tri}", "{file}"]),
    ("walk-stray-field", "x.walk", "walk closed=0 start=0 he=0 junk\n",
     ["reduce", "{tri}", "{file}"]),
    ("walk-unknown-record", "x.walk", "walk closed=0 start=0 he=0\nbogus 1\n",
     ["reduce", "{tri}", "{file}"]),
    ("trace-without-vertex", "x.trc", "move 0 kind=flip len=3->3 phase=1\n",
     ["export", "{file}"]),
]


@pytest.mark.parametrize("name,text,argv",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_2(capsys, tmp_path, torus_path, name, text,
                                 argv):
    p = tmp_path / name
    p.write_text(text)
    argv = [a.format(tri=torus_path, file=str(p)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_probe_on_bounded_host_exits_2(capsys, tmp_path):
    p = make_patch(1, radius=2)
    g = drawing.Graph(1, [])
    tp, dp = write_drawing_files(tmp_path, p, drawing.Drawing(g, p, [0], []))
    code, out, err = run(capsys, "probe", tp, dp, "--vertex", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- fuzzing: mutated inputs never escape as a traceback ---------------------

FUZZ_FILES = {
    "torus.tri": None,    # the torus fixture, written by the test
    "f.drw": ("vertex 0 at 0\nvertex 1 at 0\nedge 0 0 1 walk=5\n"
              "anchor 0 order=0,1\n"),
    "w.walk": "walk closed=0 start=0 he=0,5\n",
    "t.trc": ("move 0 kind=short vertex=0 len=5->3 phase=1\n"
              "move 1 kind=bal cycle=1,2 len=3->2 phase=2\n"),
}
# per mutated file, the command lines that read it
FUZZ_COMMANDS = {
    "torus.tri": [["validate", "torus.tri"], ["export", "torus.tri"],
                  ["reduce", "torus.tri", "w.walk"]],
    "f.drw": [["harmonize", "torus.tri", "f.drw", "--budget", "20"],
              ["probe", "torus.tri", "f.drw", "--vertex", "0"]],
    "w.walk": [["reduce", "torus.tri", "w.walk"]],
    "t.trc": [["export", "t.trc"]],
}
FUZZ_ALPHABET = "0123456789-=,>#\n abfhilnortvw"


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
        if kind == "insert":
            text = text[:i] + c + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
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
