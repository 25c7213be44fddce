"""Self-tests of the benchmark (not of zonalg).  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import gen  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _python(args, hashseed="0"):
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_same_seed_gives_identical_inputs(tmp_path):
    outs = []
    for seed, hashseed in ((5, "1"), (5, "2"), (6, "1")):
        out = tmp_path / f"in-{seed}-{hashseed}.json"
        proc = _python(["perfbench/gen.py", "--seed", str(seed), "--rounds", "1", "--out", str(out)], hashseed)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]
    inputs = json.loads(outs[0])
    assert len(inputs["rounds"][0]) == gen.ROUND_SIZE
    classes = [item["class"] for item in inputs["rounds"][0]]
    assert {c: classes.count(c) for c in set(classes)} == {c: n for c, _, _, n in gen.MIX}


def test_corrupted_expected_coefficient_is_a_failure(tmp_path):
    inputs = gen.make_inputs(7, 1)
    small = [item for item in inputs["rounds"][0] if item["class"] in ("A4", "B3")][:4]
    bad = json.loads(json.dumps(small[0]))
    label = sorted(bad["expected"])[0]
    bad["expected"][label] = str(int(bad["expected"][label]) + 1)
    path = tmp_path / "inputs.json"
    path.write_text(gen.dumps({"warmup": [], "rounds": [[bad] + small]}))
    proc = _python(
        [
            "perfbench/child.py", "--workload", "decompose", "--seed", "7",
            "--mode", "loop", "--rounds", "1", "--inputs", str(path),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["attempted"] == 1 + len(small)
    assert res["failed"] == 1  # fail_share = 1/5 > 0


def test_leaf_ok_flags():
    report = {
        "suite": "x",
        "ok": True,
        "results": [{"d": 2, "ok": True}, {"d": 3, "ok": True, "inner": {"ok": False}}],
    }
    assert child.leaf_oks(report) == [True, False]
    # the aggregate verdict disagrees with a leaf: one more failure
    assert child.check_report(report) == (3, 2)
    report["ok"] = False
    assert child.check_report(report) == (2, 1)
    assert child.check_report({"suite": "empty", "ok": True, "results": []}) == (1, 1)


def test_tracer_counts_and_uninstalls():
    from zonalg import linalg, permstat, polyclass, spectra

    original = linalg.rank
    tracer = Tracer().install()
    try:
        assert linalg.rank is not original
        assert linalg.rank(iter([[1, 2], [2, 4], [0, 1]])) == 2
        assert len(permstat.symmetric_group(3)) == 6
        p = polyclass.permutahedron(3)
        data = polyclass.polytope_to_json(p)
        coeffs = spectra.a_decompose(polyclass.polytope_from_json(data))
        assert all(c == 1 for s, c in coeffs.items() if len(s) == 2)
    finally:
        tracer.uninstall()
    assert linalg.rank is original
    m = tracer.metrics()
    assert m["permstat.elements"] == 6
    assert m["linalg.cells"] >= 3 * 2
    assert m["linalg.solves"] == 1
    assert m["polyclass.input_points"] == 6
    assert m["polyclass.cone_weight_calls"] >= 1
    assert m["spectra.calls"] == 1 and m["linalg.calls"] >= 2
    assert all(m[f"{layer}.self_s"] >= 0 for layer in run.LAYERS)
    assert tracer.parent[0] == -1 and len(tracer.start) == sum(m[f"{x}.calls"] for x in run.LAYERS)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refclock_scales_by_the_reference_chunks():
    ref = refclock.REF_S
    clock = refclock.RefClock()
    # every chunk took twice its nominal time: the machine ran at half speed
    clock.samples = [(k, k + 2 * ref) for k in range(6)]
    clock.fit()
    assert clock.raw(0.5, 3.5) == pytest.approx(3 - 3 * 2 * ref)
    assert clock.scaled(0.5, 3.5) == pytest.approx(clock.raw(0.5, 3.5) / 2)
    # the slow stretch in the middle is scaled by the median of its window
    clock.samples = [(0, ref), (1, 1 + ref), (2, 2 + 4 * ref), (3, 3 + 4 * ref), (4, 4 + 4 * ref), (5, 5 + 4 * ref)]
    clock.fit()
    assert clock.scaled(3 + 4 * ref, 4) == pytest.approx((1 - 4 * ref) / 4)


def test_refclock_samples_while_work_runs():
    clock = refclock.RefClock().start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5 * refclock.PERIOD_S:
        sum(range(1000))
    t1 = time.perf_counter()
    clock.stop()
    assert len(clock.samples) >= 4
    assert 0 < clock.raw(t0, t1) < t1 - t0
    assert clock.scaled(t0, t1) > 0
