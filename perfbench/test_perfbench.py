"""Tests of the benchmark harness at a tiny size.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import discweil.borcherds as borcherds  # noqa: E402
import discweil.fqmod as fqmod  # noqa: E402
import discweil.weilrep as weilrep  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Runs the three tiny workloads in one fresh interpreter, traced or not.
_ROUNDS = """
import json, sys
sys.path[:0] = [%r, %r]
import discweil.cli, tracer, worker, workloads
trace = sys.argv[1] == "1"
t = tracer.Tracer() if trace else None
if t:
    t.install()
out = {}
for wl in ("lift", "eta", "certify"):
    if t:
        t.stats.clear()
        t.nested = dict.fromkeys(t.nested, 0)
    r = worker.run_round(workloads.build(wl, 5, workloads.TINY[wl]), t)
    out[wl] = {"digests": r["digests"], "failures": r["failures"],
               "layers": t.layer_metrics() if t else None}
print(json.dumps(out))
""" % (HERE, SRC)


def _fresh_rounds(trace):
    proc = subprocess.run(
        [sys.executable, "-c", _ROUNDS, "1" if trace else "0"],
        capture_output=True, text=True, timeout=600, env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


@pytest.fixture(scope="module")
def fresh():
    return _fresh_rounds(True), _fresh_rounds(True), _fresh_rounds(False)


def test_layer_counts_repeat_exactly(fresh):
    a, b, _ = fresh
    for wl in ("lift", "eta", "certify"):
        assert a[wl]["failures"] == [] and b[wl]["failures"] == []
        assert _counts(a[wl]["layers"]) == _counts(b[wl]["layers"])
    assert a["lift"]["layers"]["borcherds.lift.calls"] > 0
    assert a["eta"]["layers"]["qseries.expand.calls"] > 0
    assert a["certify"]["layers"]["linalg.rref.calls"] > 0


def test_digests_identical_with_tracing_on_and_off(fresh):
    traced, _, plain = fresh
    for wl in ("lift", "eta", "certify"):
        assert plain[wl]["failures"] == []
        assert traced[wl]["digests"] == plain[wl]["digests"]
        assert len(plain[wl]["digests"]) == len(workloads.build(wl, 5, workloads.TINY[wl]))


def test_wrong_answer_counts_as_failure(monkeypatch):
    real_lift = borcherds.lift

    def wrong_lift(f, trunc):
        res = real_lift(f, trunc)
        res.psi1 = res.psi1.scale(2)
        return res

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(borcherds, "lift", wrong_lift)
    tasks = workloads.build("lift", 1, workloads.TINY["lift"])
    out = worker.run_round(tasks)
    assert out["attempted"] == len(tasks)
    assert len(out["failures"]) == len(tasks)
    assert all(f["error"] == "oracle disagrees" for f in out["failures"])

    monkeypatch.setattr(weilrep, "verify_selfdual_span", broken)
    tasks = workloads.build("certify", 1, workloads.TINY["certify"])
    out = worker.run_round(tasks)
    spans = [t.name for t in tasks if t.name.startswith("selfdual-span")]
    assert sorted(f["task"] for f in out["failures"]) == sorted(spans)
    assert "injected" in out["failures"][0]["error"]


@pytest.mark.parametrize("N,Np", [(4, 1), (6, 1), (8, 1), (9, 1), (2, 2), (4, 2), (3, 3)])
def test_presentation_keeps_certified_dimension(N, Np):
    standard = fqmod.hyperbolic_pair(N, Np)
    for seed in range(3):
        m = fqmod.FqModule.from_json(workloads.presented_pair(random.Random(seed), N, Np, 4))
        assert m.size == standard.size and m.signature_mod8() == 0
        assert len(m.isotropic_indices) == len(standard.isotropic_indices)
        assert weilrep.invariant_dimension(m) == workloads.closed_dimension(N, Np)


def test_missing_target_reads_zero(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [("cyclo", "no_such_function", "cyclo.gone", tracer.SPAN, None)])
    t = tracer.Tracer()
    try:
        assert t.install() == ["cyclo.gone"]
    finally:
        t.uninstall()
    metrics = t.layer_metrics()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]} - {"trace.overhead_s"}
    assert set(metrics) == names
    assert all(v == 0 for v in metrics.values())


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "lift", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
