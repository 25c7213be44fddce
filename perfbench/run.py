"""The zonalg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree (it imports zonalg from ``./src``).
Every measured process is a fresh interpreter, started one at a time, with
every ``ZONALG_*`` and ``PYTHON*`` variable removed from its environment.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run next to an untraced one.  A record of
the run (metrics, raw samples, Python version, CPU count, git sha, seed) is
written to ``.bench_out/``; a traced run also writes its spans there.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import refclock
from tracer import CACHED_LAYERS, COUNTERS, LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join("perfbench", "child.py")
GEN = os.path.join("perfbench", "gen.py")

WORKLOADS = ("series", "spectra", "decompose")
END_TO_END = {  # name -> unit
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update(dict.fromkeys(COUNTERS, "count"))
for _layer in CACHED_LAYERS:
    PER_LAYER[f"{_layer}.cache_hit_ratio"] = "ratio"
    PER_LAYER[f"{_layer}.cache_lookups"] = "count"
PER_LAYER["trace_overhead_s"] = "s"

SETUP_ONLY = {"series": 9, "spectra": 9, "decompose": 1}  # extra set-up samples
GEN_ROUNDS = 3  # decompose rounds generated; the loop reuses them translated
DEADLINE_S = 170  # the whole run, set-up included


class BenchError(RuntimeError):
    pass


def _env():
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("ZONALG_") and not k.startswith("PYTHON")
    }
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = _env()
        self.inputs = None

    def child(self, *args):
        """Run one fresh interpreter to completion; return (its JSON line,
        perf_counter time at which it was started)."""
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("out of time before starting a process")
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args[0]} did not finish within the run's deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        return (json.loads(lines[-1]) if lines else None), t_spawn

    def measured(self, mode, *extra):
        base = [CHILD, "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        if self.inputs:
            base += ["--inputs", self.inputs]
        a, b = refclock.sample()
        res, t_spawn = self.child(*base, *extra)
        if res is None:
            raise BenchError(f"{CHILD} --mode {mode} printed no result")
        # interpreter start and imports, up to the child's first reference
        # chunk: scaled by that chunk and the one run here just before
        head = res["began"] - res["ref_s"] - t_spawn
        res["raw_setup_s"] = head + res["raw_setup_tail_s"]
        if res["ref_s"]:
            head *= refclock.REF_S / ((b - a) * res["ref_s"]) ** 0.5
        res["setup_s"] = head + res["setup_tail_s"]
        return res

    def generate(self):
        if self.workload == "decompose":
            os.makedirs(OUT, exist_ok=True)
            self.inputs = os.path.join(".bench_out", f"decompose-inputs-{self.seed}.json")
            self.child(GEN, "--seed", str(self.seed), "--rounds", str(GEN_ROUNDS), "--out", self.inputs)

    def timed(self):
        """The timed part of an untraced run: the ``decompose`` loop, or the
        number of cold passes whose timed regions add up nearest to
        ``--seconds`` of wall time."""
        if self.workload == "decompose":
            return [self.measured("loop", "--seconds", str(self.seconds))]
        passes = [self.measured("pass")]
        while True:
            done = sum(p["raw_wall_s"] for p in passes)
            each = max(p["raw_wall_s"] for p in passes)
            if done + each / 2 >= self.seconds:
                break
            if time.perf_counter() + 1.5 * (each + max(p["raw_setup_s"] for p in passes)) > self.deadline:
                break
            passes.append(self.measured("pass"))
        return passes

    def traced(self, spans):
        """One untraced and one traced run of the same work."""
        if self.workload == "decompose":
            plain = self.measured("loop", "--seconds", str(self.seconds))
            rounds = str(len(plain["round_s"]))
            return plain, self.measured("loop", "--rounds", rounds, "--trace", spans)
        return self.measured("pass"), self.measured("pass", "--trace", spans)


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, setups, runs):
    if workload == "decompose":
        (loop,) = runs
        ops = loop["op_s"]
        units = loop["round_s"]  # a round: 20 ops in the fixed mix
        rss = loop["maxrss_mb"]
    else:
        ops = units = [r["wall_s"] for r in runs]  # an op: one cold pass
        rss = statistics.median(r["maxrss_mb"] for r in runs)
    values = {
        "wall_s": statistics.median(units),
        "ops_per_s": len(ops) / sum(units),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_p90_ms": 1000 * _p90(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    return values, {"ops": len(ops), "units": len(units), "setups": len(setups)}


def _timed(run):
    """Wall seconds of the timed region, reference chunks left out."""
    return sum(run["raw_round_s"]) if "raw_round_s" in run else run["raw_wall_s"]


def per_layer(plain, traced):
    values = dict(traced["layers"])
    values["trace_overhead_s"] = _timed(traced) - _timed(plain)
    return values


def git_sha(root):
    """The checked-out commit, read from ./.git only; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "zonalg", "__init__.py")):
        raise BenchError(f"no zonalg sources under {os.path.join(ROOT, 'src')}")
    r = Runner(workload, seed, seconds)
    r.generate()
    if trace:
        spans = os.path.join(".bench_out", f"spans-{workload}.bin")
        runs = r.traced(spans)
        metrics = per_layer(*runs)
        units = PER_LAYER
        counts = {"spans_file": spans}
    else:
        setups = [r.measured("setup")["setup_s"] for _ in range(SETUP_ONLY[workload])]
        runs = r.timed()
        setups += [x["setup_s"] for x in runs]
        metrics, counts = end_to_end(workload, setups, runs)
        units = END_TO_END
    attempted = sum(x["attempted"] for x in runs)
    failed = sum(x["failed"] for x in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "fail_share": failed / attempted,
        "samples": counts,
        "result": result,
        "runs": runs,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload}-{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for k, m in result["metrics"].items():
        print(f"{workload} {k} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{workload} fail_share = {failed}/{attempted}", file=sys.stderr)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description="zonalg benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
