"""The discweil benchmark: lift, eta and certify workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lift --seed 1 --seconds 40 --trace 0

Each round runs in a fresh interpreter (perfbench/worker.py), one at a time,
until the next round would overrun --seconds; every round of a run repeats
the same seeded inputs.  With --trace 0 the result holds the end-to-end
metrics, medians over rounds.  With --trace 1 rounds alternate untraced and
traced, and the result holds the per-layer metrics of the traced rounds plus
the tracing overhead.  ``--workload all`` runs the three workloads in turn.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
code is 2 when any task failed or disagreed with its oracle.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["lift", "eta", "certify"]
ROUND_TIMEOUT_S = 120

# What every untraced round measures; BENCHMARK.json bounds a subset.  Raw
# seconds of task time (wall_s) swing by half between runs on a shared host,
# so wall_ref carries the bound and wall_s is printed for reference.  A run
# reports the median over rounds of each, except wall_ref: see task_median_sum.
ROUND_UNITS = {"wall_s": "s", "wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def declared_metrics(kind):
    """Name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_worker(root, workload, seed, spans_path=None):
    # a fixed hash seed keeps set iteration, and so the layer counts, repeatable
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed)]
    launch = time.monotonic()
    cmd.append(repr(launch))
    if spans_path:
        cmd += ["--trace", spans_path]
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(out["discweil"]).startswith(src + os.sep):
        raise RuntimeError("worker imported discweil from %s, not %s" % (out["discweil"], src))
    out["round_s"] = time.monotonic() - launch
    return out


def run_workload(root, workload, seed, seconds, trace, out_dir):
    """Rounds until the next would overrun ``seconds``; at least one (one pair traced)."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(run_worker(root, workload, seed))
        if trace:
            spans = os.path.join(out_dir, "spans-%s-seed%d-round%d.jsonl" % (workload, seed, len(traced)))
            traced.append(run_worker(root, workload, seed, spans))
        rounds = plain + traced
        per_step = statistics.median(r["round_s"] for r in rounds) * (2 if trace else 1)
        if time.monotonic() - start + per_step > seconds:
            break
    return plain, traced


def task_median_sum(rounds):
    """Sum over tasks of each task's median wall_ref over the rounds.

    A slow spell of the host hits one task of one round; the per-task median
    drops it, where the median of round sums keeps a share of it.
    """
    return sum(statistics.median(col) for col in zip(*(r["task_ref"] for r in rounds)))


def summarize(workload, seed, plain, traced, units):
    """Medians over rounds; ``units`` names the metrics the result carries."""
    rounds = plain + traced
    digests = {json.dumps(r["digests"], sort_keys=True) for r in rounds}
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    if len(digests) > 1:
        failures.append({"task": "*", "error": "task outputs differ between rounds"})
    measured = {name: statistics.median(r[name] for r in plain) for name in ROUND_UNITS}
    measured["wall_ref"] = task_median_sum(plain)
    if traced:
        # the difference is taken in calibration units, which cancel the host's
        # drift between rounds, and turned into seconds at the untraced speed
        sec_per_ref = statistics.median(r["wall_s"] / r["wall_ref"] for r in plain)
        extra_ref = task_median_sum(traced) - measured["wall_ref"]
        measured["trace.overhead_s"] = extra_ref * sec_per_ref
        for name in units:
            if name not in measured:
                measured[name] = statistics.median(r["layers"][name] for r in traced)
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
    return {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "task_ref": [r["task_ref"] for r in plain],
        "round_setup_s": [r["setup_s"] for r in rounds],
        "task_s": [r["task_s"] for r in rounds],
        "ref_s": [r["ref_s"] for r in rounds],
        "attempted": attempted,
        "failures": failures,
        "digest": rounds[0]["digests"],
        "measured": measured,
        "missing_targets": traced[0]["missing_targets"] if traced else [],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "discweil", "__init__.py")):
        sys.stderr.write("error: run from the root of a discweil checkout (no src/discweil here)\n")
        return 1
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    units = declared_metrics("per_layer" if args.trace else "end_to_end")

    names = WORKLOADS if args.workload == "all" else [args.workload]
    reports = []
    for wl in names:
        plain, traced = run_workload(root, wl, args.seed, args.seconds, args.trace, out_dir)
        rep = summarize(wl, args.seed, plain, traced, units)
        reports.append(rep)
        with open(os.path.join(out_dir, "%s-seed%d-trace%d.json" % (wl, args.seed, args.trace)), "w") as fh:
            json.dump(rep, fh, indent=1, sort_keys=True)
        n_failed = len(rep["failures"])
        print("%s: %d rounds, %d tasks attempted" % (wl, rep["rounds"], rep["attempted"]))
        for name, value in rep["measured"].items():
            unit = ROUND_UNITS.get(name) or units[name]
            print("%s %s %r %s" % (wl, name, value, unit))
        print("%s failed_ratio %r (%d of %d attempted)" % (wl, n_failed / rep["attempted"], n_failed, rep["attempted"]))
        digest = json.dumps(rep["digest"], sort_keys=True).encode()
        print("%s output digest %s" % (wl, hashlib.sha256(digest).hexdigest()))
        for f in rep["failures"][:5]:
            print("%s FAILED %s: %s" % (wl, f["task"], f["error"].strip().splitlines()[-1]))

    failed = sum(len(r["failures"]) for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v for r in reports for k, v in r["metrics"].items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
