"""Benchmark of trinomial_orbits: one workload per invocation.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its src/.
With --trace 0 it times set-up in fresh interpreters, then runs whole rounds
of the workload for --seconds, each round in a fresh interpreter, and
reports the end-to-end metrics (medians over rounds and ops).  With
--trace 1 it runs one round untraced and one round traced and reports the
per-layer metrics plus the tracing overhead.  Either way the last line of
stdout is one JSON object with correct, attempted, failed and metrics.
--workload all runs the four workloads one after another and prints one
such line per workload.  Diagnostics go to stderr.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census", "flow_sweep", "transport", "survey")
SETUP_PROBES = 5  # set-up-only interpreters per run, after one warm-up
DEADLINE_S = 170  # a run must end within 180 s


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker(opts, deadline):
    """One fresh single-threaded interpreter; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    opts = dict(opts, loop_s=speed.loop_seconds(), t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(opts)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {opts['workload']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(spec, workload, seed, seconds, deadline):
    """Set-up probes, then whole rounds, each in a fresh interpreter, until
    the next round would end past `seconds`."""
    base = {"workload": workload, "seed": seed}
    setups = [worker(dict(base, setup_only=True), deadline)["setup_s"]
              for _ in range(SETUP_PROBES + 1)][1:]
    rounds = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        rounds.append(worker(dict(base, round=len(rounds)), deadline))
        now = time.monotonic()
        if now - begin + (now - started) > seconds:
            break
    setups += [r["setup_s"] for r in rounds]
    latencies = [t for r in rounds for t in r["latencies"]]
    values = {
        "setup_s": median(setups),
        "wall_s": median(r["wall_s"] for r in rounds),
        "op_p50_ms": median(latencies) * 1e3,
        "peak_rss_mib": median(r["peak_rss_mib"] for r in rounds),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    print(f"{workload}: rounds {[round(r['wall_s'], 3) for r in rounds]} s "
          f"(unscaled {[round(r['raw_wall_s'], 3) for r in rounds]}), "
          f"{len(latencies)} timed ops, set-up {[round(t, 4) for t in setups]} s, "
          f"peak RSS {[r['peak_rss_mib'] for r in rounds]} MiB", file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "problems": [p for r in rounds for p in r["problems"]],
    }, metrics


def run_traced(spec, workload, seed, deadline):
    """One round untraced and one traced, each in a fresh interpreter; the
    untraced one's checks and op counts stand for both (same inputs)."""
    base = {"workload": workload, "seed": seed}
    plain = worker(base, deadline)
    spans = os.path.join(ROOT, ".bench_build", "perfbench", f"spans-{workload}.bin")
    res = worker(dict(base, trace=True, spans=spans), deadline)
    # per-layer self times are plain seconds, so the overhead is too
    overhead = res["raw_wall_s"] - plain["raw_wall_s"]
    layers = dict(res["layers"], **{"trace.overhead_s": overhead})
    metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
               for m in spec["per_layer"]}
    for label, counts in sorted(res["per_op"].items()):
        print(f"{workload} {label}: {json.dumps(counts)}", file=sys.stderr)
    print(f"{workload}: wall {plain['raw_wall_s']:.3f} s untraced, {res['raw_wall_s']:.3f} s "
          f"traced, {res['spans']} spans in {os.path.relpath(spans, ROOT)}", file=sys.stderr)
    return plain, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trinomial_orbits", "__init__.py")):
        print(f"no trinomial_orbits sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            res, metrics = run_traced(spec, name, args.seed, deadline)
        else:
            res, metrics = run_untraced(spec, name, args.seed, seconds, deadline)
        for problem in res["problems"]:
            print(f"{name} PROBLEM: {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
