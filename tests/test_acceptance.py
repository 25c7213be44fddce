"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every test enforces its stated time budget and checks exact (rational)
equalities throughout; there are no tolerances.
"""

import random
import time

from fractions import Fraction

from zonalg import arrangement as arrg
from zonalg import cli, linalg, permstat, polyclass, spectra, titsalgebra
from zonalg.arrangement import braid, type_b, coordinate
from zonalg.gfseries import eulerian_A, verify_identities
from zonalg.polyclass import (
    PiElement,
    log_class,
    permutahedron,
    pi_equal,
    polytope_cone_weights,
    segment,
    simplex,
    simplex0,
    typeB_permutahedron,
    valuation_relation,
)


def _support_dims(weights):
    return sorted({f.dim for f in weights.terms})


def _report(criterion, label, ok, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:>2} [{label}]: {status} in {elapsed:.1f}s (budget {budget}s)")
    assert ok, f"criterion {criterion} failed"
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def test_criterion_01_brenti_h_polynomials():
    t0 = time.time()
    rep_a = cli.verify_brenti("A", 5)
    rep_b = cli.verify_brenti("B", 4)
    _report(1, "h-polynomials are Eulerian", rep_a["ok"] and rep_b["ok"], t0, 60)


def test_criterion_02_theorem_a():
    t0 = time.time()
    rep = cli.verify_thm_a(5, 4)
    _report(2, "braid eta three ways", rep["ok"], t0, 120)


def test_criterion_03_theorem_b(check_h_polynomials_geometric):
    t0 = time.time()
    rep = cli.verify_thm_b(4)
    # cross-check the geometric h-sources at full size as well
    for d in (2, 3, 4):
        check_h_polynomials_geometric(type_b(d))
    _report(3, "type-B eta and lower bound", rep["ok"], t0, 300)


def test_criterion_04_cube():
    t0 = time.time()
    rep = cli.verify_cube(5, 4)
    _report(4, "cube eta indicator", rep["ok"], t0, 30)


def test_criterion_05_eulerian_idempotents():
    t0 = time.time()
    rep = cli.verify_idempotents(4)
    _report(5, "Adams and gamma families", rep["ok"], t0, 60)


def test_criterion_06_generating_functions():
    t0 = time.time()
    report = verify_identities(8, 6)
    _report(6, "series identities to order 8/6", all(r["ok"] for r in report), t0, 60)


def _random_deformation(arr, rng):
    d = arr.d
    base = polyclass.VPolytope(arr, [(Fraction(0),) * d], assume_vertices=True)
    if arr.kind == arrg.KIND_A:
        import itertools

        pool = [
            frozenset(s)
            for k in range(2, d + 1)
            for s in itertools.combinations(range(1, d + 1), k)
        ]
        for s in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
            base = base.minkowski(simplex(arr, s).dilate(rng.choice((1, 2))))
    elif arr.kind == arrg.KIND_B:
        pool = spectra.special_subsets(d)
        for s in rng.sample(pool, rng.randint(1, 3)):
            gen = simplex0(arr, s) if rng.random() < 0.5 or len(s) == 1 else simplex(arr, s)
            base = base.minkowski(gen.dilate(rng.choice((1, 2))))
    else:
        for i in range(1, d + 1):
            e = [0] * d
            e[i - 1] = 1
            base = base.minkowski(segment(arr, tuple(e)).dilate(rng.choice((1, 2))))
    return base


def test_criterion_07_phi_soundness():
    t0 = time.time()
    ok = True
    rng = random.Random(2024)
    for arr in (braid(3), type_b(3), coordinate(3)):
        relations = 0
        while relations < 25:
            p = _random_deformation(arr, rng)
            i = rng.randint(1, arr.d)
            vals = sorted({v[i - 1] for v in p.verts})
            if len(vals) < 2:
                continue
            c = (vals[0] + vals[-1]) / 2
            if not (vals[0] < c < vals[-1]):
                continue
            rel = valuation_relation(p, tuple(int(k == i) for k in range(1, arr.d + 1)), c)
            ok = ok and rel.phi().is_zero()
            relations += 1
        for _ in range(25):
            p = _random_deformation(arr, rng)
            t = tuple(Fraction(rng.randint(-3, 3)) for _ in range(arr.d))
            ok = ok and polytope_cone_weights(p) == polytope_cone_weights(p.translate(t))
    # homogeneity of the cone weights of log-classes and their products
    for arr in (braid(3), braid(4), type_b(3), coordinate(3)):
        d = arr.d
        if arr.kind == arrg.KIND_A:
            gens = [simplex(arr, frozenset({1, 2})), simplex(arr, frozenset(range(1, d + 1)))]
        elif arr.kind == arrg.KIND_B:
            gens = [simplex0(arr, frozenset({1})), simplex0(arr, frozenset({1, -2}))]
        else:
            e1 = [0] * d
            e1[0] = 1
            e2 = [0] * d
            e2[-1] = 1
            gens = [segment(arr, tuple(e1)), segment(arr, tuple(e2))]
        logs = [log_class(g) for g in gens]
        for x in logs:
            dims = _support_dims(x.phi())
            ok = ok and dims == [d - 1]
        prod = logs[0] * logs[1]
        dims = _support_dims(prod.phi())
        ok = ok and (dims == [d - 2] or dims == [])
    _report(7, "phi kills relations; graded support", ok, t0, 60)


def test_criterion_08_module_axioms():
    t0 = time.time()
    ok = True
    for p in (permutahedron(3), typeB_permutahedron(2)):
        arr = p.arr
        for f in arrg.faces(arr):
            for g in arrg.faces(arr):
                fg = arrg.tits_product(f, g)
                ok = ok and p.face_max(f).face_max(g) == p.face_max(fg)
        for lam in (2, Fraction(3, 2)):
            for f in arrg.faces(arr):
                ok = ok and p.dilate(lam).face_max(f) == p.face_max(f).dilate(lam)
    # multiplicativity of each face action on random class pairs
    rng = random.Random(99)
    arr = braid(3)
    import itertools

    pool = [
        PiElement.of(simplex(arr, frozenset(s)))
        for k in (2, 3)
        for s in itertools.combinations((1, 2, 3), k)
    ] + [PiElement.of(permutahedron(3))]
    faces = arrg.faces(arr)
    for _ in range(20):
        x = pool[rng.randrange(len(pool))] + pool[rng.randrange(len(pool))].scale(
            rng.randint(-2, 2)
        )
        y = pool[rng.randrange(len(pool))] * pool[rng.randrange(len(pool))]
        for f in faces:
            h = titsalgebra.TitsElement.basis(f)
            lhs = (x * y).act(h)
            rhs = x.act(h) * y.act(h)
            ok = ok and pi_equal(lhs, rhs)
    _report(8, "module axioms", ok, t0, 120)


def test_criterion_09_x_sigma_program():
    t0 = time.time()
    ok = True
    for d in (2, 3, 4):
        rep = spectra.conjecture_check(d)
        ok = ok and rep["all_independent"] and rep["extremal_products_fixed"]
        # the grade-one basis: log-simplex classes acted by their idempotents
        arr = braid(d)
        fam = titsalgebra.adams_family(d)
        import itertools

        face_order = list(arrg.faces(arr))
        tracker = linalg.IncrementalRank(len(face_order))
        count = 0
        for k in range(2, d + 1):
            for j in itertools.combinations(range(1, d + 1), k):
                blocks = [frozenset(j)] + [
                    frozenset({i}) for i in range(1, d + 1) if i not in j
                ]
                xj = arrg.flat_of_blocks(arr, (), blocks)
                vec = log_class(simplex(arr, frozenset(j))).act(fam[xj])
                ok = ok and not vec.phi().is_zero()
                tracker.add(vec.phi().to_vector(face_order))
                count += 1
        ok = ok and tracker.rank == count == 2 ** d - d - 1 == int(eulerian_A(d).coeff(1))
    _report(9, "x_sigma independence d=2,3,4", ok, t0, 300)


def test_criterion_10_type_b_generators():
    t0 = time.time()
    rep = cli.verify_b_gens(4, 10, seed=0)
    sizes = [entry["d"] for entry in rep["results"]]
    _report(10, "signed-Minkowski generators", rep["ok"] and sizes == [2, 3, 4], t0, 300)


def test_criterion_11_hopf_checks():
    t0 = time.time()
    rep = cli.verify_hopf(3, seed=0)
    extra = cli.hopfgp.two_one_monoid_check(4)
    _report(11, "Hopf monoid structure", rep["ok"] and extra["ok"], t0, 300)


def test_criterion_12_cross_oracles():
    t0 = time.time()
    ok = True
    for arr in (braid(2), braid(3), type_b(2), type_b(3), coordinate(2), coordinate(3)):
        fs = arrg.faces(arr)
        for f in fs:
            for g in fs:
                if arrg.tits_product(f, g) != arrg.tits_product_geometric(f, g):
                    ok = False
    for arr in (braid(3), braid(4), type_b(2), type_b(3), coordinate(3)):
        for x in arrg.flats(arr):
            for y in arrg.flats(arr):
                if arrg.flat_leq(x, y):
                    if arrg.mobius(x, y) != arrg.mobius_recursive(x, y):
                        ok = False
    for d in range(1, 7):
        for p in permstat.symmetric_group(d):
            forest = permstat.forest_of(p)
            if permstat.perm_of(forest) != p:
                ok = False
            if forest.leaves() != p.exc():
                ok = False
            if frozenset(frozenset(t.nodes()) for t in forest.trees) != frozenset(arrg.flat_blocks(p.supp())[1]):
                ok = False
    _report(12, "cross-oracle combinatorics", ok, t0, 60)
