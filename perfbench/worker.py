"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED LAUNCH [--trace SPANS_PATH]

LAUNCH is the monotonic clock reading taken by the runner just before it
started this process.  The round builds its tasks from the seed, runs them
back to back as a closed loop with one caller, checks each answer with its
oracle outside the timed region, and prints one JSON object on stdout.
"""

import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from fractions import Fraction


def calibrate():
    """Time a fixed loop of Fraction and dict work, the library's staple mix.

    The host's speed drifts by up to a half over tens of seconds.  Each
    task's time divided by the mean of this loop's times just before and just
    after it (wall_ref) cancels most of that drift.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        step = Fraction(1, 7)
        for i in range(2000):
            k = i % 31
            acc[k] = acc.get(k, 0) + step * i
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_round(tasks, tracer=None):
    """Run tasks in order; return times, failures and output digests."""
    failures = []
    digests = {}
    times = []
    refs = []
    for task in tasks:
        refs.append(calibrate())
        t0 = time.perf_counter()
        try:
            with tracer.span("task") if tracer else contextlib.nullcontext():
                result, text = task.run()
        except Exception:
            failures.append({"task": task.name, "error": traceback.format_exc(limit=3)})
            continue
        finally:
            times.append(time.perf_counter() - t0)
        digests[task.name] = hashlib.sha256(text.encode()).hexdigest()
        try:
            with tracer.span("oracle", paused=True) if tracer else contextlib.nullcontext():
                ok = task.check(result)
        except Exception:
            failures.append({"task": task.name, "error": traceback.format_exc(limit=3)})
            continue
        if not ok:
            failures.append({"task": task.name, "error": "oracle disagrees"})
    refs.append(calibrate())
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    task_ref = [t / r for t, r in zip(times, around)]
    return {
        "wall_s": sum(times),
        "wall_ref": sum(task_ref),
        "task_ref": task_ref,
        "attempted": len(tasks),
        "failures": failures,
        "digests": digests,
        "task_s": {task.name: t for task, t in zip(tasks, times)},
        "ref_s": refs,
    }


def main(argv):
    workload, seed, launch = argv[0], int(argv[1]), float(argv[2])
    spans_path = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None

    import discweil
    import discweil.cli  # noqa: F401  every namespace a task reaches is loaded
    import workloads

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
        with tracer.span("setup"):
            tasks = workloads.build(workload, seed)
    else:
        tasks = workloads.build(workload, seed)
    first_task = time.monotonic()
    out = run_round(tasks, tracer)
    out["setup_s"] = first_task - launch
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["discweil"] = discweil.__file__
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["missing_targets"] = missing
        tracer.write_spans(spans_path)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
