"""Traffic check: every function of ``src/zonalg`` is run by a command, a
demo or the benchmark, or is on the allowlist below with its reason.

The script runs, in one process and under ``sys.setprofile``, a small
traffic that enters every library function that the ``zonalg`` commands
at their defaults, the benchmark's workloads and the demos enter: the
quick verification suites, the eta tables, the statistics, two
decompositions and the six demos.  It then lists each ``def`` in ``src/zonalg`` whose code was never
entered, and exits 1 naming every such def that the allowlist does not
name, and every allowlist entry that names a def which is entered or does
not exist.  It uses the standard library only:

    PYTHONPATH=src python tests/traffic.py

pytest does not collect this file; ``tests/test_traffic.py`` runs it in a
subprocess, so that nothing it caches reaches another test.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "zonalg")
DEMOS = os.path.join(ROOT, "demos")

# the defs that the traffic never enters and that stay in the library
ALLOWLIST = {
    "arrangement.Arrangement.__repr__": "value-type protocol: printing",
    "arrangement.Face.__repr__": "value-type protocol: printing",
    "arrangement.Flat.__repr__": "value-type protocol: printing",
    "arrangement.flat_join": "the flats-algebra product, checked against the support map",
    "arrangement.mobius_recursive": "named oracle for the Möbius product formula",
    "gfseries.RatPoly.__call__": "value-type protocol: evaluation",
    "gfseries.TruncSeries.__neg__": "value-type protocol: negation",
    "linalg.Combination.__repr__": "value-type protocol: printing",
    "linalg.Combination._key": "value-type protocol: the identity sentinel that _sum compares against",
    "linalg.Combination.coeff": "value-type protocol: reading one coefficient",
    "permstat.Permutation.from_cycles": "value-type protocol: construction from cycles",
    "permstat.SignedPermutation.from_cycles": "value-type protocol: construction from cycles",
    "permstat.Tree.leaves": "value-type protocol: the leaves of a forest tree",
    "permstat.IncreasingForest.d": "value-type protocol: the size of a forest",
    "permstat.IncreasingForest.leaves": "value-type protocol: the leaves of a forest",
    "permstat.enumerate_group": "named oracle for the group enumerators",
    "polyclass.VPolytope.__repr__": "value-type protocol: printing",
    "polyclass._point_str": "prints the point in a rejection message",
    "polyclass.polytope_to_json": "the writer of the polytope JSON that decompose reads; perfbench calls it",
    "titsalgebra.FlatsElement.basis": "the flats-algebra product, checked against the support map",
    "titsalgebra.FlatsElement.__mul__": "the flats-algebra product, checked against the support map",
}

# a deformation of each decompose type, as the point JSON that decompose reads
DECOMPOSE = {
    "A": {"arrangement": "A", "d": 3, "points": [
        [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0], [1, 1, 1]]},
    "B": {"arrangement": "B", "d": 2, "points": [
        [1, 2], [2, 1], [2, -1], [1, -2], [-1, -2], [-2, -1], [-2, 1], [-1, 2]]},
}


def _commands(tmp):
    yield ["verify", "all", "--quick", "--seed", "1"]
    yield ["verify", "thm-b", "--d", "2"]
    # the series orders, which verify all does not read from its flags
    yield ["verify", "gf", "--order", "2", "--order-b", "2"]
    yield ["eta", "--type", "A", "--d", "3", "--flat", "{12,3}", "--format", "csv"]
    yield ["eta", "--type", "B", "--d", "2"]
    yield ["eta", "--type", "cube", "--d", "3"]
    for group in ("S", "B"):
        yield ["stats", "--group", group, "--d", "3", "--list"]
    for kind, polytope in DECOMPOSE.items():
        path = os.path.join(tmp, f"{kind}.json")
        with open(path, "w") as fh:
            json.dump(polytope, fh)
        yield ["decompose", "--type", kind, "--input", path]


def run_traffic():
    """The (file, first line) of every code object of ``src/zonalg`` that
    the traffic entered."""
    from zonalg import cli

    entered = set()
    prefix = SRC + os.sep

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        runs = [(argv, lambda argv=argv: cli.main(argv)) for argv in _commands(tmp)]
        runs += [
            ([name], lambda name=name: runpy.run_path(os.path.join(DEMOS, name), run_name="__main__"))
            for name in sorted(os.listdir(DEMOS)) if name.endswith(".py")
        ]
        for what, run in runs:
            out = io.StringIO()
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = run()
            finally:
                sys.setprofile(None)
            # a command returns its exit code, a demo its globals
            if isinstance(code, int) and code:
                raise SystemExit(f"traffic: {' '.join(what)} exited {code}:\n{out.getvalue()}")
    return entered


def defs():
    """(qualified name, file, first line) of every ``def`` in ``src/zonalg``;
    a decorated function's code starts at its first decorator."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        module = name[:-3]

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((".".join(scope + [child.name]), path, line))
                    walk(child, scope + [child.name, "<locals>"])
                elif isinstance(child, ast.ClassDef):
                    walk(child, scope + [child.name])
                else:
                    walk(child, scope)

        walk(tree, [module])
    return found


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    entered = run_traffic()
    idle = [(qual, path, line) for qual, path, line in defs() if (path, line) not in entered]
    idle_names = {qual for qual, _, _ in idle}
    unlisted = [(qual, path, line) for qual, path, line in idle if qual not in ALLOWLIST]
    stale = sorted(set(ALLOWLIST) - idle_names)
    print(f"traffic: {len(idle)} defs never entered, {len(idle) - len(unlisted)} of them allowed")
    for qual, path, line in unlisted:
        print(f"never entered and not allowed: {qual} ({os.path.relpath(path, ROOT)}:{line})")
    for qual in stale:
        print(f"allowed but entered or not defined: {qual}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
