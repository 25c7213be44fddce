"""Command-line driver: verification suites, eta tables, decompositions and
statistics, with JSON/CSV output on stdout and logs on stderr.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import arrangement as arrg
from . import gfseries, hopfgp, permstat, polyclass, spectra, titsalgebra

# the largest d of each eta table on the command line
ETA_BOUNDS = {arrg.KIND_A: 5, arrg.KIND_B: 4, arrg.KIND_C: 5}


def _log(msg):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# verification suites (each returns a JSON-able report with an "ok" flag)

def _report(suite, results):
    return {"suite": suite, "results": results, "ok": all(r["ok"] for r in results)}


def verify_brenti(type_name="A", dmax=None):
    results = []
    for t, zonotope, eulerian, default in (
        ("A", polyclass.permutahedron, gfseries.eulerian_A, 5),
        ("B", polyclass.typeB_permutahedron, gfseries.eulerian_B, 4),
    ):
        if type_name.upper() in (t, "ALL"):
            for d in range(2, (default if dmax is None else dmax) + 1):
                h, want = zonotope(d).h_polynomial(), eulerian(d)
                entry = {"case": f"{t} d={d}", "ok": h == want}
                if h != want:
                    entry["first_mismatch"] = {"h_polynomial": str(h), "eulerian": str(want)}
                results.append(entry)
    return _report("brenti", results)


def _eta_agrees(entry, key, witness, **tables):
    """Record under ``key`` whether the two eta tables given by keyword
    agree and, when they do not, name the first (flat, r) that differs under
    ``witness``, with each table's value under its keyword; returns the
    verdict."""
    table, other = tables.values()
    first = table.first_difference(other)
    entry[key] = first is None
    if first is not None:
        x, r = first
        entry[witness] = {
            "flat": arrg.flat_str(x),
            "r": r,
            **{name: t.value(x, r) for name, t in tables.items()},
        }
    return entry[key]


def verify_thm_a(dmax=5, rank_dmax=spectra.RANK_BOUND):
    results = []
    for d in range(2, dmax + 1):
        arr = arrg.braid(d)
        em = spectra.eta_mobius(arr)
        entry = {"d": d}
        ok = _eta_agrees(entry, "mobius_vs_permutations", "first_mismatch",
                         mobius=em, permutations=spectra.eta_permutations(arr))
        if d <= rank_dmax:
            ok = _eta_agrees(entry, "idempotent_rank_agrees", "rank_mismatch",
                             rank=spectra.eta_idempotent_rank(d), mobius=em) and ok
        entry["flats"] = len(arrg.flats(arr))
        entry["ok"] = ok
        results.append(entry)
    return _report("thm-a", results)


def verify_thm_b(dmax=4):
    results = []
    for d in range(2, dmax + 1):
        arr = arrg.type_b(d)
        em = spectra.eta_mobius(arr)
        entry = {"d": d}
        ok = _eta_agrees(entry, "mobius_vs_permutations", "first_mismatch",
                         mobius=em, permutations=spectra.eta_permutations(arr))
        bottom = em.value(arrg.bottom_flat(arr), 1)
        entry["eta_bottom_grade1"] = bottom
        entry["lower_bound_2^(d-1)"] = bottom == 2 ** (d - 1)
        entry["ok"] = ok and entry["lower_bound_2^(d-1)"]
        results.append(entry)
    return _report("thm-b", results)


def verify_cube(dmax=5, rank_dmax=spectra.RANK_BOUND):
    results = []
    for d in range(1, dmax + 1):
        arr = arrg.coordinate(d)
        em = spectra.eta_mobius(arr)
        indicator = spectra.EtaTable(
            arr, "indicator", {(x, d - x.dim): 1 for x in arrg.flats(arr)}
        )
        entry = {"d": d}
        ok = _eta_agrees(entry, "mobius_indicator", "first_mismatch", value=em, want=indicator)
        if d <= rank_dmax:
            ok = _eta_agrees(entry, "gamma_rank_agrees", "rank_mismatch",
                             rank=spectra.eta_gamma_rank(d), mobius=em) and ok
        entry["ok"] = ok
        results.append(entry)
    return _report("cube", results)


def verify_gf(order_a=8, order_b=6):
    return _report("gf", gfseries.verify_identities(order_a, order_b))


def _idempotent_failure(fam, element, d):
    """The first failed check of an Eulerian family and its characteristic
    elements, or None: the message of ``EulerianFamily.check``, or the first
    t at which the element is not characteristic or the family does not
    reconstruct it, with the name of the failed check."""
    try:
        fam.check()
    except AssertionError as exc:
        return {"message": str(exc)}
    for t in (2, 3, 5, -1):
        alpha = element(d, t)
        if not titsalgebra.is_characteristic(alpha, t):
            return {"t": t, "check": "is_characteristic"}
        if not titsalgebra.family_reconstructs(alpha, fam, t):
            return {"t": t, "check": "family_reconstructs"}
    return None


def verify_idempotents(dmax=4):
    results = []
    for d in range(2, dmax + 1):
        entry = {"d": d}
        for name, family, element in (
            ("adams", titsalgebra.adams_family, titsalgebra.adams_element),
            ("gamma", titsalgebra.gamma_family, titsalgebra.gamma_element),
        ):
            failure = _idempotent_failure(family(d), element, d)
            entry[name] = failure is None
            if failure is not None:
                entry.setdefault("first_mismatch", {"family": name, **failure})
        entry["ok"] = entry["adams"] and entry["gamma"]
        results.append(entry)
    return _report("idempotents", results)


def verify_conjecture(dmax=4):
    results = []
    for d in range(2, dmax + 1):
        rep = spectra.conjecture_check(d)
        entry = {"d": d, "independent": rep["all_independent"]}
        if not entry["independent"]:
            first = next(g for g in rep["groups"] if not g["ok"])
            entry["first_mismatch"] = {k: first[k] for k in ("flat", "r", "count", "rank", "eta")}
        entry["extremal_products_fixed"] = rep["extremal_products_fixed"]
        entry["ok"] = rep["all_independent"] and rep["extremal_products_fixed"]
        results.append(entry)
    return _report("conjecture", results)


def _labelled(coeffs, label):
    """The nonzero coefficients of a decomposition as strings, keyed by the
    labels of their generators."""
    return {label(g): str(c) for g, c in coeffs.items() if c}


def verify_b_gens(dmax=4, trials=10, seed=0):
    rng = random.Random(seed)
    label = spectra.GeneratorFamilyB.label
    results = []
    for d in range(2, dmax + 1):
        fam = spectra.b_generators(d)
        non_pts = fam.non_point_members()
        entry = {
            "d": d,
            "non_point_count": len(non_pts),
            "count_matches": len(non_pts) == 3 ** d - d - 1,
            "full_dimensional": len(fam.full_dimensional()) == 2 ** (d - 1),
        }
        _, gens, polys, _, matrix = spectra._b_system(d)
        entry["full_column_rank"] = matrix.rank == len(gens)
        pb = polyclass.typeB_permutahedron(d)
        co = spectra.b_decompose(pb)
        entry["permutahedron_reconstructs"] = spectra.reconstruction_holds(pb, co, polys)
        share = max(1, -(-trials // (dmax - 1)))  # ceil: at least `trials` total
        for trial in range(share):
            p, used = spectra.random_b_deformation(d, rng)
            co = spectra.b_decompose(p)
            matches = all(co.get(g, 0) == used.get(g, 0) for g in gens)
            reconstructs = spectra.reconstruction_holds(p, co, polys)
            if not (matches and reconstructs):
                entry.setdefault("first_mismatch", {
                    "d": d,
                    "trial": trial,
                    "generating": _labelled(used, label),
                    "decomposed": _labelled(co, label),
                    "reconstructs": reconstructs,
                })
        entry["random_reconstruct"] = "first_mismatch" not in entry
        entry["ok"] = all(
            entry[k]
            for k in (
                "count_matches",
                "full_dimensional",
                "full_column_rank",
                "permutahedron_reconstructs",
                "random_reconstruct",
            )
        )
        results.append(entry)
    return _report("b-gens", results)


def verify_hopf(nmax=3, seed=0):
    results = []
    for n in range(2, nmax + 1):
        axioms = hopfgp.hopf_axiom_check(n, seed=seed)
        coideal = hopfgp.mc_coideal_check(n, seed=seed)
        two_one = hopfgp.two_one_monoid_check(n, seed=seed)
        results.append(
            {
                "n": n,
                "axioms": axioms["ok"],
                "coideal": coideal["ok"],
                "two_one": two_one["ok"],
                "ok": axioms["ok"] and coideal["ok"] and two_one["ok"],
            }
        )
    return _report("hopf", results)


def verify_all(quick=True, seed=0):
    """Aggregate of all suites at CI bounds; the full run checks each size
    bound one further than the quick run."""
    up = 0 if quick else 1
    suites = [
        verify_brenti("A", 4 + up),
        verify_brenti("B", 3 + up),
        verify_thm_a(4 + up, 3 + up),
        verify_thm_b(3 + up),
        verify_cube(4 + up, 3 + up),
        verify_gf(6, 4) if quick else verify_gf(),
        verify_idempotents(3 + up),
        verify_conjecture(3 + up),
        verify_b_gens(3 + up, 6 if quick else 10, seed),
        verify_hopf(3, seed),
    ]
    return {"suite": "all", "results": suites, "ok": all(s["ok"] for s in suites)}


def _dmax(args, default, least=2):
    """The ``--d`` value, or the suite's default when it is not given.  A
    value below ``least``, the smallest size the suite checks, would check
    nothing, so it is an input error."""
    if args.d is None:
        return default
    if args.d < least:
        raise ValueError(f"verify {args.suite}: --d must be at least {least}, got {args.d}")
    return args.d


_VERIFY = {
    "thm-a": lambda args: verify_thm_a(_dmax(args, 5)),
    "thm-b": lambda args: verify_thm_b(_dmax(args, 4)),
    "brenti": lambda args: verify_brenti(args.type or "all", _dmax(args, None)),
    "gf": lambda args: verify_gf(args.order, args.order_b),
    "idempotents": lambda args: verify_idempotents(_dmax(args, 4)),
    "conjecture": lambda args: verify_conjecture(_dmax(args, 4)),
    "b-gens": lambda args: verify_b_gens(_dmax(args, 4), args.trials, args.seed),
    "hopf": lambda args: verify_hopf(_dmax(args, 3), args.seed),
    "cube": lambda args: verify_cube(_dmax(args, 5, least=1)),
    "all": lambda args: verify_all(args.quick, args.seed),
}


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_eta(args):
    arr = arrg.arrangement_named(args.type, args.d)
    bound = ETA_BOUNDS[arr.kind]
    if args.d > bound:
        raise ValueError(f"d={args.d} exceeds the bound {bound} for eta tables")
    flat_filter = arrg.parse_flat(arr, args.flat) if args.flat else None
    tables = [spectra.eta_mobius(arr)]
    if arr.kind in (arrg.KIND_A, arrg.KIND_B):
        tables.append(spectra.eta_permutations(arr))
    if arr.kind == arrg.KIND_A and args.d <= spectra.RANK_BOUND:
        tables.append(spectra.eta_idempotent_rank(args.d))
    if arr.kind == arrg.KIND_C and args.d <= spectra.RANK_BOUND:
        tables.append(spectra.eta_gamma_rank(args.d))
    agree = all(t.first_difference(tables[0]) is None for t in tables[1:])
    rows = []
    for (x, r), v in tables[0].entries.items():
        if flat_filter is not None and x != flat_filter:
            continue
        rows.append({"flat": arrg.flat_str(x), "r": r, "value": v})
    payload = {
        "arrangement": arr.kind,
        "d": args.d,
        "methods": [t.method for t in tables],
        "methods_agree": agree,
        "rows": rows,
    }
    _emit(payload, args.format, csv_rows=rows)
    return 0 if agree else 1


def _cmd_verify(args):
    runner = _VERIFY[args.suite]
    t0 = time.time()
    report = runner(args)
    _emit(report, args.format)
    _log(
        f"verify {args.suite}: {'pass' if report['ok'] else 'FAIL'} "
        f"({time.time() - t0:.2f}s)"
    )
    return 0 if report["ok"] else 1


def _cmd_decompose(args):
    with open(args.input) as fh:
        data = json.load(fh)
    p = polyclass.polytope_from_json(data)
    t = args.type.upper()
    # type: (arrangement, the polytopes it takes, solve, system, generator label)
    kind, needs, decompose, system, label = {
        "A": (arrg.KIND_A, "a braid-arrangement", spectra.a_decompose, spectra._a_system,
              spectra.simplex_label),
        "B": (arrg.KIND_B, "a type-B", spectra.b_decompose, spectra._b_system,
              spectra.GeneratorFamilyB.label),
    }[t]
    if p.arr.kind != kind:
        raise ValueError(f"type {t} decomposition needs {needs} polytope")
    coeffs = decompose(p)
    rows = _labelled(coeffs, label)
    ok = spectra.reconstruction_holds(p, coeffs, system(p.arr.d)[-3])
    payload = {"type": t, "d": p.arr.d, "coefficients": rows, "reconstructs": ok}
    _emit(payload, args.format)
    return 0 if ok else 1


def _cmd_stats(args):
    d = args.d
    if args.group.upper() == "S":
        elems, stats = permstat.symmetric_group(d), permstat.stats
    else:
        elems, stats = permstat.hyperoctahedral_group(d), permstat.stats_signed
    rows = []
    for s in elems:
        row = {"cycles": str(s), **stats(s)}
        row["supp"] = arrg.flat_str(row["supp"])
        rows.append(row)
    if args.flat:
        arr = arrg.braid(d) if args.group.upper() == "S" else arrg.type_b(d)
        want = arrg.flat_str(arrg.parse_flat(arr, args.flat))
        rows = [r for r in rows if r["supp"] == want]
    key = "exc" if args.group.upper() == "S" else "exc_B"
    hist = {}
    for r in rows:
        hist[r[key]] = hist.get(r[key], 0) + 1
    payload = {
        "group": args.group.upper(),
        "d": d,
        "count": len(rows),
        f"{key}_histogram": {str(k): v for k, v in sorted(hist.items())},
        "rows": rows if args.list else [],
    }
    _emit(payload, args.format, csv_rows=rows)
    return 0


def _has_rows(args):
    """Whether the command prints rows, the only thing ``--format csv`` writes."""
    return args.command == "eta" or (args.command == "stats" and args.list)


def _emit(payload, fmt, csv_rows=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif csv_rows:
        cols = list(csv_rows[0])
        print(",".join(cols))
        for row in csv_rows:
            print(",".join(f"\"{row[c]}\"" for c in cols))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="zonalg",
        description="Exact verification suites for the polytope algebra of "
        "Coxeter zonotope deformations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    eta = sub.add_parser("eta", help="multiplicity tables by all applicable methods")
    eta.add_argument("--type", required=True, help="A | B | cube")
    eta.add_argument("--d", type=int, required=True)
    eta.add_argument("--flat", help="restrict to one flat (serialized form)")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(_VERIFY))
    ver.add_argument("--d", type=int, help="largest size to check")
    ver.add_argument("--type", help="A | B | all (brenti)")
    ver.add_argument("--order", type=int, default=8, help="series truncation order (type A)")
    ver.add_argument("--order-b", dest="order_b", type=int, default=6, help="series order (type B)")
    ver.add_argument("--trials", type=int, default=10)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--quick", action="store_true", help="CI bounds for 'all'")

    dec = sub.add_parser("decompose", help="signed-Minkowski decomposition")
    dec.add_argument("--type", required=True, choices=("A", "B", "a", "b"))
    dec.add_argument("--input", required=True, help="polytope JSON file")

    st = sub.add_parser("stats", help="permutation statistics")
    st.add_argument("--group", required=True, choices=("S", "B", "s", "b"))
    st.add_argument("--d", type=int, required=True)
    st.add_argument("--flat", help="filter by support flat")
    st.add_argument("--list", action="store_true", help="include per-element rows")

    for cmd in (eta, ver, dec, st):
        cmd.add_argument(
            "--format", default="json", choices=("json", "csv"),
            help="csv writes the rows of eta and of stats --list; elsewhere it is an input error",
        )
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.format == "csv" and not _has_rows(args):
            raise ValueError("--format csv writes rows, which only eta and stats --list print")
        if args.command == "eta":
            return _cmd_eta(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "stats":
            return _cmd_stats(args)
    except (ValueError, OSError, KeyError, permstat.BoundExceededError) as exc:
        _log(f"error: {exc}")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
