"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads reduce-walks,probe-window \\
        --seeds 1-10 [--trace 0|1] [--seconds N] [--out sweep.json]

Runs `perfbench/run.py` once per workload and seed, one after the other, and
prints per metric the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread, the distance between the quartiles as a share of the
median, flagged against the metric's bound.  Untraced runs also print the
same for the unscaled figures on their `# raw` line.  With --out, writes
every run's values and the summary as JSON.
Seconds default to `run_seconds` in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _print(name, s, bound):
    flag = ""
    if bound is not None:
        flag = "ok" if s["spread"] <= bound / 3 else \
            ("within bound" if s["spread"] <= bound else "OVER BOUND")
    print("  %-36s median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.4f %s"
          % (name, s["median"], s["q1"], s["q3"], s["spread"], flag))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            wall = time.perf_counter() - t
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (exit %d):\n%s"
                         % (w, seed, proc.returncode, proc.stderr))
            result = json.loads(lines[-1])
            if set(result["metrics"]) != set(bounds):
                sys.exit("%s: metrics differ from BENCHMARK.json: %s"
                         % (w, sorted(set(result["metrics"]) ^ set(bounds))))
            for line in lines[:-1]:
                if "FAILED" in line or "DIFFERS" in line:
                    print(line)
            raw = [json.loads(line[len("# raw "):]) for line in lines
                   if line.startswith("# raw ")]
            runs.append({"seed": seed, "wall_s": wall, "result": result,
                         "raw": raw[0] if raw else None,
                         "notes": lines[:-1]})
            print("%s seed=%d correct=%s attempted=%d failed=%d wall=%.1fs"
                  % (w, seed, result["correct"], result["attempted"],
                     result["failed"], wall), flush=True)
        stats = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = summary(values)
            _print(name, stats[name], bounds[name])
        # the unscaled figures of untraced runs, against the same bounds
        raw = {}
        if all(r["raw"] for r in runs):
            for name in runs[0]["raw"]:
                raw[name] = summary([r["raw"][name] for r in runs])
                _print("raw " + name, raw[name], bounds.get(name))
        report["workloads"][w] = {"runs": runs, "summary": stats,
                                  "raw_summary": raw}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
