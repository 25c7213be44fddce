"""Seeded inputs for the ``decompose`` workload.

Each input is a deformation given as point JSON (its vertices plus seeded
non-vertex points, shuffled), together with the coefficients it was built
from, which are the expected answer of the decomposition.  Inputs come in
rounds of 20 with a fixed class mix, so that every timed round does the same
kind of work:

    A d=4: 1   B d=3: 3   A d=5: 12   B d=4: 4     (5/15/60/20 %)

The classes are listed in order of per-op cost, which differs by orders of
magnitude.  So the median op is the middle of the A d=5 class (20-80 %) and
the 90th percentile the middle of the B d=4 class (80-100 %), each as far
from a class boundary as it can be.  A separate warm-up list holds one
input per class.

Generation builds polytopes and fills zonalg's caches, so it runs in its own
process, never in the measured one:

    PYTHONPATH=src python3 perfbench/gen.py --seed 1 --rounds 10 --out FILE

The same seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from fractions import Fraction

from zonalg import arrangement as arrg
from zonalg import polyclass, spectra

# (class name, type, d, inputs per round)
MIX = (("A4", "A", 4, 1), ("B3", "B", 3, 3), ("A5", "A", 5, 12), ("B4", "B", 4, 4))
ROUND_SIZE = sum(n for *_, n in MIX)
MAX_TERMS = 6  # type B: 1 to MAX_TERMS generators, as random_b_deformation draws them
A_TERMS = 4  # type A: always this many simplices, which keeps the A d=5 op cost
# (where the median op falls) from swinging with the number of terms drawn
TRANSLATION = 4  # translation coordinates are drawn from [-4, 4]


def a_label(subset):
    return ",".join(str(i) for i in sorted(subset))


def _a_deformation(d, rng):
    """A random positive integral combination of A_TERMS distinct simplices
    Delta_S, |S| >= 2."""
    arr = arrg.braid(d)
    gens = [frozenset(s) for k in range(2, d + 1) for s in itertools.combinations(range(1, d + 1), k)]
    acc = polyclass.VPolytope(arr, [(Fraction(0),) * d], assume_vertices=True)
    used = {}
    for g in rng.sample(gens, A_TERMS):
        c = rng.choice((1, 1, 2))
        used[a_label(g)] = c
        acc = acc.minkowski(polyclass.simplex(arr, g).dilate(c))
    return acc, used


def _b_deformation(d, rng):
    family = spectra.b_generators(d)
    p, used = spectra.random_b_deformation(d, rng, MAX_TERMS)
    return p, {family.label(g): int(c) for g, c in used.items()}


def _point_cloud(verts, rng):
    """The vertices, translated, plus strict convex combinations of 2 or 3
    distinct vertices (never vertices themselves), in a seeded order."""
    d = len(verts[0])
    shift = [Fraction(rng.randint(-TRANSLATION, TRANSLATION)) for _ in range(d)]
    verts = [tuple(c + s for c, s in zip(v, shift)) for v in verts]
    extra = set()
    for _ in range(rng.randint(1, max(1, len(verts) // 2))):
        picks = rng.sample(verts, min(len(verts), rng.choice((2, 3))))
        weights = [rng.randint(1, 3) for _ in picks]
        total = sum(weights)
        extra.add(tuple(sum(Fraction(w, total) * v[i] for w, v in zip(weights, picks)) for i in range(d)))
    points = verts + sorted(extra - set(verts))
    rng.shuffle(points)
    return [[str(c) for c in p] for p in points]


def make_input(cls, kind, d, rng, seen):
    """One input of a class, never equal (as a point set) to one in ``seen``."""
    while True:
        if kind == "A":
            p, used = _a_deformation(d, rng)
        else:
            p, used = _b_deformation(d, rng)
        points = _point_cloud(p.verts, rng)
        key = (cls, tuple(sorted(map(tuple, points))))
        if key not in seen:
            seen.add(key)
            break
    return {
        "class": cls,
        "type": kind,
        "polytope": {"arrangement": kind, "d": d, "points": points},
        "expected": {label: str(c) for label, c in sorted(used.items())},
    }


def make_inputs(seed, rounds):
    rng = random.Random(seed)
    seen = set()
    warmup = [make_input(cls, kind, d, rng, seen) for cls, kind, d, _ in MIX]
    out_rounds = []
    for _ in range(rounds):
        batch = [
            make_input(cls, kind, d, rng, seen)
            for cls, kind, d, n in MIX
            for _ in range(n)
        ]
        rng.shuffle(batch)
        out_rounds.append(batch)
    return {"seed": seed, "mix": [list(m) for m in MIX], "warmup": warmup, "rounds": out_rounds}


def dumps(inputs):
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    text = dumps(make_inputs(args.seed, args.rounds))
    with open(args.out, "w") as fh:
        fh.write(text)


if __name__ == "__main__":
    main()
