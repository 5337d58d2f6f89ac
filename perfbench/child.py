"""One benchmark process: set up a workload, then time or trace its passes.

Started by run.py with BLAS pinned to one thread.  Prints one JSON object
as its last stdout line.  Only the standard library is imported before
the set-up clock starts, so set-up time includes importing numpy, scipy
and sabvi.

    python3 perfbench/child.py --workload toy-blr --seed 1 --seconds 30 \
        --trace 0 [--setup-only]

It imports sabvi from the ``src`` directory next to ``perfbench``.  The
first pass warms caches and is not timed; it and the timed passes
together take about --seconds.  In it the VI estimators are counted
(``layers.count_steps``), which gives the ADAM steps of every pass,
diverged trainings included.  A workload's extra check, if it has one,
runs once after it, also untimed.  Untraced (--trace 0): timed passes until
the next one would end after --seconds.  Traced (--trace 1): pairs of an
untraced and a traced pass, so both see the same host conditions; the
per-layer metrics come from the traced passes and the overhead is the
median ratio within pairs; the spans of the last traced pass are written
to ``perfbench/out/<workload>-seed<N>.spans.csv.gz``.  Every pass runs the
output checks, and every pass must produce the warm-up pass's digest.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
MIN_TIMED_PASSES = 3


def _import_package():
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import sabvi
    if not os.path.abspath(sabvi.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sabvi imported from {sabvi.__file__}, not from {SRC}")
    import workloads
    return workloads


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _timed(fn, *args):
    t = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t


def _repeat(step, deadline, min_count):
    """Call step() until the next call would end after `deadline`."""
    durations = []
    while True:
        _, wall = _timed(step)
        durations.append(wall)
        if (len(durations) >= min_count
                and time.perf_counter() + sorted(durations)[len(durations) // 2] > deadline):
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads = _import_package()
    setup, run_pass, extra_check = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import layers
    end = time.perf_counter() + args.seconds
    first, vi_steps = layers.count_steps(run_pass, inputs)
    steps = first.steps + vi_steps
    passes = [first]
    extra_checks, extra_info = extra_check(inputs) if extra_check else ([], {})
    timed, walls, ratios = [], [], []
    if args.trace:
        import tracing
        tracer, counters = tracing.Tracer(), layers.Counters()
        targets = layers.targets(counters)
        last_pass_first_span = 0

        def pair():
            nonlocal last_pass_first_span
            res, plain = _timed(run_pass, inputs)
            passes.append(res)
            last_pass_first_span = len(tracer.spans)
            with tracer.patched(targets):
                res, wall = _timed(run_pass, inputs, tracer.span)
            timed.append(res)
            walls.append(wall)
            ratios.append(wall / plain)
        _repeat(pair, end, 1)
    else:
        def one():
            res, wall = _timed(run_pass, inputs)
            timed.append(res)
            walls.append(wall)
        _repeat(one, end, MIN_TIMED_PASSES)
    passes += timed

    checks = [c for p in passes for c in p.checks] + extra_checks
    failures = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        failures.append(f"passes of one run gave {len(digests)} different digests")
    attempted = sum(p.attempted for p in timed)
    failed = sum(p.failed for p in timed)

    if args.trace:
        info = {**timed[-1].info, **extra_info}
        metrics = layers.per_layer(
            tracer.spans, len(timed), sum(walls), statistics.median(ratios) - 1.0,
            counters, info, attempted, failed)
        # the last traced pass; all passes do the same work
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.csv.gz"),
                     last_pass_first_span)
    else:
        # The median pass; README.md says why not the fastest.
        wall = statistics.median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "steps_per_s": (steps / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "setup_s": setup_s, "passes": len(timed), "pass_walls": walls,
        "digest": digests[0], "failures": failures,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "versions": _versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
