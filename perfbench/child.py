"""One measured process of the benchmark, started by ``run.py`` in a fresh
interpreter with ``src`` on the path.

It sets up (imports zonalg; for ``decompose`` also loads the inputs and runs
one warm-up op per class), runs its share of the workload, checks every
output, and prints one JSON line on stdout:

    python3 perfbench/child.py --workload spectra --seed 3 --mode pass

Untraced, every time it reports is read on a ``refclock.RefClock``, which
starts right after the imports: seconds at a fixed machine speed.  Traced,
times are plain wall time.  ``began`` (the perf_counter time at which the
clock's first reference chunk ended) and ``ref_s`` (that chunk's duration)
let the parent scale the part of set-up before the clock started.

Modes: ``setup`` stops after set-up; ``pass`` runs one cold pass of the
``series`` or ``spectra`` suites; ``loop`` runs whole ``decompose`` rounds
until ``--seconds`` of wall time have been timed, or exactly ``--rounds``
rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction

import zonalg
from gen import a_label
from refclock import RefClock, WallClock
from zonalg import cli, polyclass, spectra

_SRC = os.path.realpath(os.path.join("src", "zonalg"))


def _spectra_suites(seed):
    """The suites of the ``spectra`` workload, at their CLI defaults."""
    return (
        ("thm-a", lambda: cli.verify_thm_a(5, 4)),
        ("thm-b", lambda: cli.verify_thm_b(4)),
        ("cube", lambda: cli.verify_cube(5, 4)),
        ("idempotents", lambda: cli.verify_idempotents(4)),
        ("conjecture", lambda: cli.verify_conjecture(4)),
        ("brenti-A", lambda: cli.verify_brenti("A", 5)),
        ("brenti-B", lambda: cli.verify_brenti("B", 4)),
        ("hopf", lambda: cli.verify_hopf(3, seed)),
    )


def _series_suites(seed):
    return (("gf", lambda: cli.verify_gf()),)


SUITES = {"series": _series_suites, "spectra": _spectra_suites}


def leaf_oks(node):
    """Every leaf ``ok`` flag of a report: an ``ok`` of a dict none of whose
    descendants carries one.  Aggregate flags above them are not counted."""
    if isinstance(node, dict):
        below = [flag for v in node.values() for flag in leaf_oks(v)]
        if below:
            return below
        return [node["ok"]] if isinstance(node.get("ok"), bool) else []
    if isinstance(node, (list, tuple)):
        return [flag for v in node for flag in leaf_oks(v)]
    return []


def check_report(report):
    """(attempted, failed) for one suite report.  A report whose own verdict
    disagrees with its leaves, or whose results hold no leaf, counts one more
    failure."""
    flags = leaf_oks(report.get("results"))
    failed = flags.count(False)
    if not flags or report.get("ok") is not all(flags):
        return len(flags) + 1, failed + 1
    return len(flags), failed


def run_pass(workload, seed, clock):
    attempted = failed = 0
    marks = []
    t0 = time.perf_counter()
    for name, fn in SUITES[workload](seed):
        try:
            report = fn()
        except Exception as exc:  # a raising suite is a failed check
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            a, f = 1, 1
        else:
            a, f = check_report(report)
        marks.append((name, time.perf_counter()))
        attempted += a
        failed += f
    clock.stop()
    suites = []
    start = t0
    for name, t in marks:
        suites.append({"suite": name, "wall_s": clock.scaled(start, t), "raw_s": clock.raw(start, t)})
        start = t
    return {
        "wall_s": clock.scaled(t0, start),
        "raw_wall_s": clock.raw(t0, start),
        "suites": suites,
        "attempted": attempted,
        "failed": failed,
    }


# ---------------------------------------------------------------------------
# decompose


def _system(kind, d):
    """(generators, generator polytopes, label of a generator) of the
    decomposition system of one type and dimension."""
    if kind == "A":
        gens, polys, _, _ = spectra._a_system(d)
        return gens, polys, a_label
    family, gens, polys, _, _ = spectra._b_system(d)
    return gens, polys, family.label


def decompose_op(item):
    """Parse, decompose, compare with the generating coefficients, and check
    the reconstruction.  Returns True when every check holds."""
    p = polyclass.polytope_from_json(item["polytope"])
    kind = item["type"]
    coeffs = spectra.a_decompose(p) if kind == "A" else spectra.b_decompose(p)
    gens, polys, label = _system(kind, p.arr.d)
    expected = {k: Fraction(v) for k, v in item["expected"].items()}
    got = {label(g): coeffs.get(g, 0) for g in gens}
    if set(expected) - set(got):
        return False
    if any(c != expected.get(k, 0) for k, c in got.items()):
        return False
    return spectra.reconstruction_holds(p, coeffs, polys)


def _checked(item):
    try:
        return decompose_op(item)
    except Exception as exc:  # a raising op is a failed op
        print(f"{item['class']}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False


def _shifted(item, k):
    """The input translated by k * (1, 2, ..., d): the same expected answer,
    a polytope not yet in zonalg's intern table."""
    pts = [
        [str(Fraction(c) + k * (i + 1)) for i, c in enumerate(row)]
        for row in item["polytope"]["points"]
    ]
    return dict(item, polytope=dict(item["polytope"], points=pts))


def run_loop(rounds_in, seconds, rounds, clock):
    """Closed loop, one caller: whole rounds until ``seconds`` of wall time
    are timed or ``rounds`` rounds are done.  When the inputs run out they
    are reused, translated, so no op finds its polytope already built."""
    stamps = []  # per round: perf_counter at its start and after each op
    failed = 0
    t_begin = time.perf_counter()
    while (rounds is None and time.perf_counter() - t_begin < seconds) or (
        rounds is not None and len(stamps) < rounds
    ):
        i = len(stamps)
        batch = rounds_in[i % len(rounds_in)]
        wrap = i // len(rounds_in)
        if wrap:
            batch = [_shifted(item, wrap) for item in batch]
        marks = [time.perf_counter()]
        for item in batch:
            failed += not _checked(item)
            marks.append(time.perf_counter())
        stamps.append(marks)
    clock.stop()
    return {
        "op_s": [clock.scaled(a, b) for marks in stamps for a, b in zip(marks, marks[1:])],
        "round_s": [clock.scaled(marks[0], marks[-1]) for marks in stamps],
        "raw_round_s": [clock.raw(marks[0], marks[-1]) for marks in stamps],
        "attempted": sum(len(marks) - 1 for marks in stamps),
        "failed": failed,
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="one measured benchmark process")
    ap.add_argument("--workload", required=True, choices=("series", "spectra", "decompose"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "loop"))
    ap.add_argument("--inputs", help="decompose inputs written by gen.py")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, help="run exactly this many rounds")
    ap.add_argument("--trace", help="trace the run and write its spans to this file")
    args = ap.parse_args(argv)

    if os.path.realpath(os.path.dirname(zonalg.__file__)) != _SRC:
        raise SystemExit(f"zonalg imported from {zonalg.__file__}, not from ./src")

    # the clock runs from here on, so that it also scales the rest of set-up
    clock = WallClock().start() if args.trace else RefClock().start()
    out = {"attempted": 0, "failed": 0, "began": clock.began, "ref_s": clock.first_chunk_s()}
    if args.workload == "decompose":
        with open(args.inputs) as fh:
            inputs = json.load(fh)
        warm = [_checked(item) for item in inputs["warmup"]]
        out["attempted"] += len(warm)
        out["failed"] += warm.count(False)
    ready = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    if args.mode == "pass":
        res = run_pass(args.workload, args.seed, clock)
    elif args.mode == "loop":
        res = run_loop(inputs["rounds"], args.seconds, args.rounds, clock)
    else:
        clock.stop()
        res = {"attempted": 0, "failed": 0}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)
    # set-up after the clock's first chunk, in the clock's seconds
    out["setup_tail_s"] = clock.scaled(clock.began, ready)
    out["raw_setup_tail_s"] = clock.raw(clock.began, ready)
    out["ref_samples"] = len(clock.samples)
    out["attempted"] += res.pop("attempted")
    out["failed"] += res.pop("failed")
    out.update(res)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
