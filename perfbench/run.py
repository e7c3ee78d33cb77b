#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload batch-inmem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload per run: the OCaml program perfbench/bench.exe does the work
and checks its outputs; this script builds it with dune, runs it, checks
its metrics against BENCHMARK.json, and prints every metric by name with
its unit. The last stdout line is the JSON result. With --trace 1 the
result holds the per-layer metrics instead of the end-to-end ones.

`--workload all` runs every workload in turn. The exit code is 1 when any
operation failed or gave a wrong answer, 2 on a usage or build error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# A workload run, build excluded, must end well within three minutes.
RUN_TIMEOUT_S = 170
# How long the workload process stays on one CPU (see wait_spread).
CPU_SLICE_S = 0.1


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a checkout of the repository (no dune-project or lib/ here)")
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    # Own build directory inside the checkout; no shared dune cache.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die(f"cannot run dune: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def commit():
    try:
        # look for a repository here only, never in a parent directory
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           timeout=10, env=env)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def pin(pid, cpu):
    """Move every thread of process [pid] onto [cpu]; no-op once it is gone."""
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(tid), {cpu})
    except OSError:
        pass


def wait_spread(p, timeout):
    """Wait for [p] and return its output, moving it from CPU to CPU every
    [CPU_SLICE_S] seconds. On a shared host one CPU can run far slower than
    another for minutes (a busy sibling hyperthread), and a process that
    stays on one CPU takes that CPU's speed into every sample; rotating
    gives every run the same mix of CPUs."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = []
    deadline = time.monotonic() + timeout
    k = 0
    while True:
        if len(cpus) > 1:
            pin(p.pid, cpus[k % len(cpus)])
            k += 1
        left = deadline - time.monotonic()
        if left <= 0:
            raise subprocess.TimeoutExpired(p.args, timeout)
        try:
            return p.communicate(timeout=min(CPU_SLICE_S, left) if len(cpus) > 1 else left)
        except subprocess.TimeoutExpired:
            pass


def run_workload(spec, workload, seed, seconds, trace):
    """Run one workload, echo its report lines and return its result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    # its own process group, so that a timeout also stops the child
    # process a traced run forks
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = wait_spread(p, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(err)
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        die(f"{workload} exited with code {p.returncode}", 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(names) != sorted(result["metrics"]):
        die(f"{workload}: metric names differ from BENCHMARK.json", 1)
    result["metrics"] = {n: result["metrics"][n] for n in names}
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    if any(w not in workloads for w in chosen):
        die(f"unknown workload {args.workload!r}; one of {', '.join(workloads)} or all")
    if args.seed < 0:
        die("--seed must be >= 0")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build()
    print(f"# seed {args.seed}, nproc {os.cpu_count()}, commit {commit()}")
    results = {}
    for w in chosen:
        r = run_workload(spec, w, args.seed, seconds, args.trace)
        results[w] = r
        frac = r["failed"] / r["attempted"]
        print(f"== {w}: {r['attempted']} operations, failed_frac {frac:.6g}")
        for name, m in r["metrics"].items():
            print(f"   {name:40s} {m['value']:>18.6f} {m['unit']}")
    failed = sum(r["failed"] for r in results.values())
    if len(chosen) == 1:
        print(json.dumps(results[chosen[0]]))
    else:
        print(json.dumps({
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed,
            "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
