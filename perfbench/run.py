"""Benchmark runner for sabvi: one workload, one seed, one run.

    python3 perfbench/run.py --workload {quadrature,toy-blr,cv-bnn} \
        --seed N --seconds S --trace {0,1}

Run it from a checkout that holds ``src/sabvi``.  It starts the workload in
a child process with BLAS pinned to one thread, prints every metric by
name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones; set-up time is the median of twelve
set-ups, each in a fresh process.  With --trace 1 they are the per-layer
ones.  A failed output check prints ``"correct": false`` and exits 1; a
missing package or a crashed child exits non-zero without a result.

Each run also writes ``perfbench/out/<workload>-seed<N>-trace<T>.json``
(machine, versions, pass times, digest, metrics) and, when traced, the
spans of the last traced pass as ``perfbench/out/<workload>-seed<N>.spans.csv.gz``.

This file uses the standard library only; numpy, scipy and sabvi are
imported by the child.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("quadrature", "toy-blr", "cv-bnn")
SETUP_REPEATS = 11     # set-up-only processes, besides the measuring one
DEADLINE_S = 175.0     # the whole run, children included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def _commit() -> str:
    # the ceiling keeps git from reporting a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "blas_env": PINNED,
    }


def _child(args, deadline: float, setup_only: bool = False):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} child exceeded the run deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {args.workload} child failed "
                         f"with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in 1..60")
    if not os.path.isfile(os.path.join(ROOT, "src", "sabvi", "__init__.py")):
        print(f"perfbench: no src/sabvi under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    machine = _machine()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    def set_ups(n):
        return [_child(args, deadline, setup_only=True)["setup_s"] for _ in range(n)]

    # Half the set-ups run before the measuring child and half after, so
    # that, like the passes, they sample the host's speed over the whole
    # run; it drifts within seconds (see README.md).
    setups = [] if args.trace else set_ups(SETUP_REPEATS // 2)
    res = _child(args, deadline)
    metrics = res["metrics"]
    if not args.trace:
        setups += [res["setup_s"]] + set_ups(SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "versions": res["versions"],
              "setup_samples_s": setups, "pass_walls_s": res["pass_walls"],
              "passes": res["passes"], "digest": res["digest"],
              "failures": res["failures"], "metrics": metrics}
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# commit={machine['commit']} nproc={machine['nproc']} cpu='{machine['cpu_model']}' "
          f"load={machine['loadavg_start']}")
    print(f"# numpy={res['versions']['numpy']} scipy={res['versions']['scipy']} "
          f"blas={res['versions']['blas']} threads=1")
    print(f"# passes={res['passes']} digest={res['digest'][:16]} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for failure in res["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not res["failures"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
