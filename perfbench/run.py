"""redtri benchmark: four seeded CLI workloads driven through
`redtri.cli.main(argv)` in this process, one client in a closed loop.

    python3 perfbench/run.py --workload harmonize-closed --seed 1 \\
        --seconds 23 --trace 0

Run from the root of a checkout; redtri is imported from its `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Lines before it,
starting with `#`, give the details (hosts, failures with their causes,
output digests, tail percentile and sample count, per-rung medians).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Rounds of inputs written in set-up; a run that outlasts them starts over.
ROUNDS = 40
# An untraced run repeats its set-up between rounds until the repetitions
# have taken SETUP_SHARE of the time spent on rounds, and at least
# MIN_SETUPS times in all; setup_s is their median (see Setups).
SETUP_SHARE = 0.12
MIN_SETUPS = 5


class Job:
    def __init__(self, argv, rung, x, outputs, check):
        self.argv = argv
        self.rung = rung        # ladder rung the job belongs to
        self.x = x              # size the exponent fits use for this job
        self.outputs = outputs  # files the job writes, digested in order
        self.check = check      # raises checks.CheckFailed on a bad output


class Inputs:
    """The input files a set-up makes.  Paths are handed out at once; the
    files are written when the set-up's clock has stopped (see Setups)."""

    def __init__(self, wd):
        self.wd = wd
        self.texts = {}

    def path(self, name):
        return os.path.join(self.wd, name)

    def add(self, name, text):
        self.texts[self.path(name)] = text
        return self.path(name)

    def write(self):
        for path, text in self.texts.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# -- workloads ----------------------------------------------------------------

HC_VERTICES = tuple(range(6, 21, 2))
HC_DETOUR = 5
# open walks on one more rung than closed walks: an odd number of jobs per
# round puts the median inside one rung's jobs, not between two rungs
RW_OPEN = (150, 300, 450, 600, 750, 900)
RW_CLOSED = (150, 300, 450, 600, 750)
# the median job of a round is a window-48 probe; three of them per round
# put three times as many jobs under latency_p50_ms
PW_WINDOWS = (24, 32, 40, 48, 48, 48, 56, 64, 72)
HA_STEPS = (10, 16, 22, 28)


def setup_harmonize_closed(rng, inp):
    host = gen.doubled_crown4()
    out_steps = gen.out_steps(host)
    tri = inp.add("host.tri", surface.write_tri(host))
    rounds = []
    for r in range(ROUNDS):
        jobs = []
        for n in HC_VERTICES:
            f = gen.drawing_on(host, out_steps, rng, n, n // 4, HC_DETOUR)
            name = "r%d-n%d" % (r, n)
            drw = inp.add(name + ".drw", drawing.write_drawing(f))
            out = inp.path(name + ".out.drw")
            trc = inp.path(name + ".trc")
            jobs.append(Job(
                ["harmonize", tri, drw, "--trace", trc, "-o", out], n,
                gen.clusters_times_edges(f), [out, trc],
                lambda f=f, out=out, trc=trc: checks.check_harmonize(
                    host, f, _read(out), _read(trc))))
        rounds.append(jobs)
    return {"doubled-crown4": gen.host_info(host)}, rounds


def setup_reduce_walks(rng, inp):
    patch = gen.sized_patch(6, rng, 6000, draws=16)
    rim = [v for v in range(patch.num_vertices)
           if patch.is_boundary_vertex(v)]
    patch_steps = gen.out_steps(patch)
    # three rings of margin keep every rewrite off the boundary
    inner = gen.inner_steps(patch_steps, {
        v for v, d in enumerate(gen.distances_to(patch_steps, rim))
        if d >= 3})
    host = gen.doubled_crown4()
    host_steps = gen.out_steps(host)
    hosts = []
    for label, t in (("patch", patch), ("crown", host)):
        hosts.append((t, inp.add(label + ".tri", surface.write_tri(t)),
                      checks.slot_positions(t)))
    rounds = []
    for r in range(ROUNDS):
        jobs = []
        for L in RW_OPEN:
            for (t, tri, pos), closed in zip(hosts, (False, True)):
                if closed and L not in RW_CLOSED:
                    continue
                w = (gen.closed_walk(t, host_steps, rng, L) if closed
                     else gen.open_interior_walk(t, rng, L, inner))
                name = "r%d-%s%d" % (r, "c" if closed else "o", L)
                wp = inp.add(name + ".walk", walkcalc.write_walk(w))
                out = inp.path(name + ".out.walk")
                jobs.append(Job(
                    ["reduce", tri, wp, "-o", out],
                    ("closed" if closed else "open", L), len(w), [out],
                    lambda t=t, pos=pos, w=w, out=out: checks.check_reduce(
                        t, pos, w, _read(out))))
        rounds.append(jobs)
    return ({"disk-patch-r6": gen.host_info(patch),
             "doubled-crown4": gen.host_info(host)}, rounds)


def setup_probe_window(rng, inp):
    host = gen.doubled_crown4()
    out_steps = gen.out_steps(host)
    tri = inp.add("host.tri", surface.write_tri(host))
    rounds = []
    for r in range(ROUNDS):
        jobs = []
        for k, L in enumerate(PW_WINDOWS):
            # a probe from the degree-42 vertex takes up to five times as
            # long as one from elsewhere: the probed vertex steps through
            # the host, so that every run of a few rounds probes from
            # each host vertex about equally often, whatever the seed
            at = (r * len(PW_WINDOWS) + k) % host.num_vertices
            f = gen.drawing_on(host, out_steps, rng, 3, 1, 4, first=at)
            side = rng.choice(("left", "right"))
            name = "r%d-%d-w%d" % (r, k, L)
            drw = inp.add(name + ".drw", drawing.write_drawing(f))
            out = inp.path(name + ".out")
            jobs.append(Job(
                ["probe", tri, drw, "--vertex", "0", "--side", side,
                 "--window", str(L), "-o", out], L, L, [out],
                lambda f=f, L=L, out=out: checks.check_probe(
                    f, 0, L, _read(out))))
        rounds.append(jobs)
    return {"doubled-crown4": gen.host_info(host)}, rounds


def setup_harmonize_anchored(rng, inp):
    # radius-3 patches of 282 half-edges, 46 of them on the boundary, which
    # one draw in 23 hits; the closed extension each job builds around one
    # has about 21k half-edges
    patch = gen.sized_patch(3, rng, 282, 46, draws=96)
    tri = inp.add("patch.tri", surface.write_tri(patch))
    rounds = []
    for r in range(ROUNDS):
        jobs = []
        for steps in HA_STEPS:
            f, anchor = gen.boundary_path(patch, rng, steps, 3)
            name = "r%d-s%d" % (r, steps)
            drw = inp.add(name + ".drw", drawing.write_drawing(f, anchor))
            out = inp.path(name + ".out.drw")
            jobs.append(Job(
                ["harmonize", tri, drw, "--anchors", "-o", out], steps,
                gen.clusters_times_edges(f), [out],
                lambda f=f, anchor=anchor, out=out: checks.check_anchored(
                    patch, f, anchor, _read(out))))
        rounds.append(jobs)
    return {"disk-patch-r3": gen.host_info(patch)}, rounds


# name -> (set-up, percentile reported as latency_tail_ms).  The percentile
# is fixed per workload so that it means the same thing in every run.  Each
# left at least ten jobs beyond it in every 23-second run measured at the
# commit that introduced the benchmark, though not always the highest such
# percentile; every run prints how many jobs it actually had beyond it.
WORKLOADS = {
    "harmonize-closed": (setup_harmonize_closed, 90),
    "reduce-walks": (setup_reduce_walks, 80),
    "probe-window": (setup_probe_window, 75),
    "harmonize-anchored": (setup_harmonize_anchored, 65),
}


# -- running ------------------------------------------------------------------

def percentile(values, q):
    """Linear interpolation between order statistics (inclusive method)."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# The machine this benchmark was written on is shared: the same Python code
# runs up to a third slower for seconds at a time, and process CPU time
# slows with it.  So a fixed pure-Python reference kernel, which does not
# touch redtri, is timed before the first job and after every job, and each
# job's latency is scaled by REF_NOMINAL_S over the kernel's time around it.
# Scaled times read as on a machine where the kernel takes REF_NOMINAL_S;
# raw times are printed on the '#' lines.
REF_NOMINAL_S = 0.004


def _reference_kernel():
    n = 4000
    adj = [((i + 1) % n, (i + 7) % n, (i * 13) % n) for i in range(n)]
    seen = {0: None}
    queue = [0]
    for x in queue:
        for y in adj[x]:
            if y not in seen:
                seen[y] = x
                queue.append(y)
    return sorted((v, k) for k, v in seen.items() if v is not None)


def reference_time(calls=2):
    t = time.perf_counter()
    for _ in range(calls):
        _reference_kernel()
    return (time.perf_counter() - t) / calls


def scale_factors(refs):
    """Per job i, REF_NOMINAL_S over the median of the four kernel times
    nearest to it: refs[i] is taken just before job i, refs[i + 1] just
    after.  The median drops a single kernel run hit by a pause."""
    return [REF_NOMINAL_S / statistics.median(refs[max(0, i - 1):i + 3])
            for i in range(len(refs) - 1)]


class Pass:
    """One closed-loop pass: per-job latencies, failures and digests."""

    def __init__(self):
        self.raw = []
        self.refs = [reference_time()]
        self.failures = []
        self.jobs = []
        self.rounds = 0
        self.digest = hashlib.sha256()
        self.round1_digest = None

    def run_round(self, rounds, main):
        """Run the next round: one job per rung and kind."""
        for job in rounds[self.rounds % len(rounds)]:
            _run_job(self, job, main, None)
        self.end_round()

    def end_round(self):
        self.rounds += 1
        if self.rounds == 1:
            self.round1_digest = self.digest.hexdigest()

    def finish(self):
        self.scale = scale_factors(self.refs)
        self.latencies = [x * f for x, f in zip(self.raw, self.scale)]
        return self


class Setups:
    """Timed repetitions of a workload's set-up.

    The first builds the run's inputs and writes them.  The others build
    the same inputs again between the rounds of the timed pass, and drop
    them: their median is then taken over the same stretch of machine time
    as the jobs, and is scaled by the kernel median of that pass.

    The clock stops before the input files are written: `setup_s` is the
    time to build the hosts, generate the inputs and serialise them.  A
    set-up writes hundreds of small files, and on the machine this
    benchmark was written on the system time of creating them doubled from
    one repetition to the next and stayed there for the rest of the
    process, while the reference kernel did not move.  The time the first
    repetition took to write its files is printed on a `#` line.
    """

    def __init__(self, setup, seed, base):
        self.setup, self.seed, self.base = setup, seed, base
        self.raw = []
        self.write_s = None

    def _run(self, inp):
        t = time.perf_counter()
        built = self.setup(random.Random(self.seed), inp)
        self.raw.append(time.perf_counter() - t)
        return built

    def first(self):
        os.makedirs(self.base)
        inp = Inputs(self.base)
        built = self._run(inp)
        t = time.perf_counter()
        inp.write()
        self.write_s = time.perf_counter() - t
        return built

    def catch_up(self, elapsed):
        """Repeat until the repetitions have taken SETUP_SHARE of the
        `elapsed` seconds of rounds."""
        while sum(self.raw[1:]) < SETUP_SHARE * elapsed:
            self._run(Inputs(self.base))

    def finish(self):
        while len(self.raw) < MIN_SETUPS:
            self._run(Inputs(self.base))


def run_pass(rounds, main, seconds=None, nrounds=None, setups=None):
    """Run whole rounds until `seconds` of wall time have passed, or exactly
    `nrounds` rounds.  Set-up repetitions run between rounds, and their time
    does not count towards `seconds`."""
    p = Pass()
    t0 = time.perf_counter()
    paused = 0.0
    while (p.rounds < nrounds if nrounds is not None
           else time.perf_counter() - t0 - paused < seconds):
        p.run_round(rounds, main)
        if setups is not None:
            t = time.perf_counter()
            setups.catch_up(t - t0 - paused)
            paused += time.perf_counter() - t
    if setups is not None:
        setups.finish()
    return p.finish()


def run_paired(rounds, main, rec, seconds):
    """An untraced and a traced pass over the same rounds, job by job: each
    job runs untraced and traced in turn, with the order swapped every job,
    until `seconds` of wall time have passed.  A drift in machine speed then
    weighs on both passes alike, and their time ratio is the cost of
    tracing."""
    plain, traced = Pass(), Pass()
    traced_main = rec.wrap("cli.main", main)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for job in rounds[plain.rounds % len(rounds)]:
            for p in ((plain, traced) if len(plain.raw) % 2 == 0
                      else (traced, plain)):
                if p is plain:
                    _run_job(p, job, main, None)
                else:
                    with rec.installed():
                        _run_job(p, job, traced_main, rec)
        plain.end_round()
        traced.end_round()
    return plain.finish(), traced.finish()


def _run_job(p, job, main, recorder):
    for path in job.outputs:
        if os.path.exists(path):
            os.remove(path)
    cause = None
    if recorder is not None:
        recorder.job = len(p.jobs)
    t = time.perf_counter()
    try:
        code = main(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = None
        cause = "raised %s: %s" % (type(exc).__name__, exc)
    dt = time.perf_counter() - t
    if recorder is not None:
        recorder.job = None
    p.raw.append(dt)
    p.jobs.append(job)
    if cause is None and code != 0:
        cause = "exit code %r" % (code,)
    if cause is None:
        try:
            job.check()
        except (checks.CheckFailed, OSError, ValueError, KeyError,
                IndexError) as exc:
            cause = "check failed: %s" % exc
    if cause is not None:
        p.failures.append("%s: %s" % (" ".join(job.argv), cause))
    for path in job.outputs:
        p.digest.update(os.path.basename(path).encode() + b"\0")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                p.digest.update(fh.read())
    p.refs.append(reference_time())


def _note(*parts):
    print("#", *parts)


def _report_pass(label, p):
    _note("%s: %d jobs in %d rounds, %d failed, failed_frac=%.4f" % (
        label, len(p.raw), p.rounds, len(p.failures),
        len(p.failures) / len(p.raw)))
    _note("%s: raw jobs_per_s=%.4f latency_p50_ms=%.4f; kernel median "
          "%.6f s, scale factors %.3f..%.3f" % (
              label, len(p.raw) / sum(p.raw), statistics.median(p.raw) * 1e3,
              statistics.median(p.refs), min(p.scale), max(p.scale)))
    _note("%s: output sha256 round1=%s all=%s" % (
        label, p.round1_digest, p.digest.hexdigest()))
    for f in p.failures:
        _note("FAILED", f)


def end_to_end(p, setups, tail_pct):
    lat = p.latencies
    n = len(lat)
    kernel = statistics.median(p.refs)
    setup_raw = statistics.median(setups.raw)
    beyond = sum(1 for x in lat if x > percentile(lat, tail_pct))
    _note("latency_tail_ms is p%g over %d jobs, %d beyond it"
          % (tail_pct, n, beyond))
    _note("setup_s over %d repetitions, raw: min %.4f median %.4f max %.4f; "
          "writing the input files took %.4f s" % (
              len(setups.raw), min(setups.raw), setup_raw, max(setups.raw),
              setups.write_s))
    # the scaled figures unscaled, so that the scaling can be checked
    _note("raw " + json.dumps({
        "setup_s": setup_raw,
        "jobs_per_s": n / sum(p.raw),
        "latency_p50_ms": statistics.median(p.raw) * 1e3,
        "latency_tail_ms": percentile(p.raw, tail_pct) * 1e3,
        "kernel_s": kernel,
    }))
    return {
        "setup_s": (setup_raw * REF_NOMINAL_S / kernel, "s"),
        "jobs_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, tail_pct) * 1e3, "ms"),
        "ok_frac": ((n - len(p.failures)) / n, "frac"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    setup, tail_pct = WORKLOADS[args.workload]

    base = os.path.join(ROOT, "perfbench", ".work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        # a traced run reports no set-up time, so it sets up once
        setups = Setups(setup, args.seed, base)
        hosts, rounds = setups.first()
        _note("workload=%s seed=%d python=%s nproc=%d" % (
            args.workload, args.seed, platform.python_version(),
            len(os.sched_getaffinity(0))))
        for name, info in hosts.items():
            _note("host %s %s" % (name, " ".join(
                "%s=%s" % kv for kv in info.items())))

        # one round before timing starts: a process runs its first calls
        # slower, and that cost would otherwise shrink as later commits fit
        # more rounds into a run
        warm = run_pass(rounds, cli.main, nrounds=1)
        _report_pass("warm-up", warm)
        if not args.trace:
            p = run_pass(rounds, cli.main, seconds=args.seconds,
                         setups=setups)
            _report_pass("untraced", p)
            metrics = end_to_end(p, setups, tail_pct)
            passes = [warm, p]
            correct = True
        else:
            rec = tracer.Recorder()
            plain, traced = run_paired(rounds, cli.main, rec, args.seconds)
            _report_pass("untraced", plain)
            _report_pass("traced", traced)
            same = plain.digest.hexdigest() == traced.digest.hexdigest()
            _note("traced output digest %s the untraced one"
                  % ("equals" if same else "DIFFERS FROM"))
            # unscaled, from runs of the same job next to each other: the
            # median of their time ratios, minus 1
            ratios = [t / u for t, u in zip(traced.raw, plain.raw)]
            overhead = statistics.median(ratios) - 1
            _note("traced over untraced time per job, over %d pairs: "
                  "quartiles %s" % (len(ratios), " ".join(
                      "%.3f" % q for q in statistics.quantiles(ratios, n=4))))
            values, fits, table = tracer.layer_metrics(
                rec.spans, traced.jobs, traced.scale, overhead)
            for name, (calls, total, own) in sorted(table.items()):
                _note("span %s per job: calls=%.2f s=%.6f self_s=%.6f"
                      % (name, calls, total, own))
            for key, medians in fits.items():
                _note("fit %s=%.4f per-rung [rung, median x, median s]: %s"
                      % (key, values[key], json.dumps(medians)))
            metrics = {k: (values[k], unit)
                       for k, (unit, _) in tracer.LAYER_METRICS.items()}
            passes = [warm, plain, traced]
            correct = same
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base))
        except OSError:
            pass    # another run is still using it

    print(json.dumps({
        "correct": correct and not any(p.failures for p in passes),
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _import_redtri():
    """Import redtri from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "redtri")):
        sys.stderr.write("perfbench: no redtri sources under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import redtri
    if os.path.dirname(os.path.abspath(redtri.__file__)) != \
            os.path.join(SRC, "redtri"):
        sys.stderr.write("perfbench: redtri imported from %s, not %s\n"
                         % (redtri.__file__, SRC))
        sys.exit(2)


if __name__ == "__main__":
    _import_redtri()
    from redtri import cli, drawing, surface, walkcalc
    import checks
    import gen
    import tracer
    sys.exit(main())
