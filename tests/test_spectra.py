import random
import pytest
from fractions import Fraction

from zonalg import arrangement as arrg
from zonalg import polyclass, titsalgebra
from zonalg.arrangement import braid, type_b, coordinate, bottom_flat, top_flat
from zonalg.gfseries import eulerian_A, eulerian_B
from zonalg.permstat import Permutation, symmetric_group
from zonalg.spectra import (
    a_decompose,
    b_decompose,
    b_generators,
    conjecture_check,
    eta_gamma_rank,
    eta_idempotent_rank,
    eta_mobius,
    eta_permutations,
    random_b_deformation,
    reconstruction_holds,
    special_subsets,
    x_flat,
    x_sigma,
    y_basis_cube,
    _a_system,
    _b_system,
)


_H_CHECKED = (
    [braid(d) for d in (2, 3, 4)] + [type_b(d) for d in (2, 3)] + [coordinate(d) for d in range(1, 5)]
)


@pytest.mark.parametrize("arr", _H_CHECKED, ids=str)
def test_h_polynomials_match_zonotope_faces(arr, check_h_polynomials_geometric):
    check_h_polynomials_geometric(arr)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_eta_mobius_equals_permutations_braid(d):
    arr = braid(d)
    em = eta_mobius(arr)
    ep = eta_permutations(arr)
    assert em.first_difference(ep) is None


@pytest.mark.parametrize("d", [2, 3])
def test_eta_mobius_equals_permutations_type_b(d):
    arr = type_b(d)
    em = eta_mobius(arr)
    ep = eta_permutations(arr)
    assert em.first_difference(ep) is None


def test_eta_bottom_values():
    em = eta_mobius(braid(3))
    bot = bottom_flat(braid(3))
    assert em.value(bot, 1) == 1 and em.value(bot, 2) == 1 and em.value(bot, 0) == 0
    emb = eta_mobius(type_b(2))
    botb = bottom_flat(type_b(2))
    assert emb.value(botb, 1) == 2 and emb.value(botb, 2) == 1


def test_eta_top_is_grade_zero():
    for arr in (braid(3), type_b(2), coordinate(3)):
        em = eta_mobius(arr)
        top = top_flat(arr)
        assert em.value(top, 0) == 1
        assert all(em.value(top, r) == 0 for r in range(1, arr.d + 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_eta_indicator(d):
    arr = coordinate(d)
    em = eta_mobius(arr)
    for x in arrg.flats(arr):
        for r in range(0, d + 1):
            assert em.value(x, r) == (1 if r == d - x.dim else 0)


def test_row_sums_are_h_numbers():
    for d in (2, 3, 4):
        em = eta_mobius(braid(d))
        for r, total in em.row_sums().items():
            assert total == int(eulerian_A(d).coeff(r))
        emb = eta_mobius(type_b(d)) if d <= 3 else None
        if emb:
            for r, total in emb.row_sums().items():
                assert total == int(eulerian_B(d).coeff(r))


def test_degree_bound():
    # eta vanishes when grade + flat dimension exceed the ambient dimension
    for arr in (braid(4), type_b(3), coordinate(4)):
        em = eta_mobius(arr)
        for (x, r), v in em.entries.items():
            if v:
                assert r + x.dim <= arr.d


@pytest.mark.parametrize("d", [2, 3])
def test_idempotent_rank_route(d):
    assert eta_idempotent_rank(d).first_difference(eta_mobius(braid(d))) is None


@pytest.mark.parametrize("d", [2, 3])
def test_gamma_rank_route(d):
    assert eta_gamma_rank(d).first_difference(eta_mobius(coordinate(d))) is None


def test_simultaneous_eigenspace_totals():
    # summing eta over flats of fixed dimension counts permutations by
    # (support dimension, excedance)
    for d in (2, 3, 4):
        em = eta_mobius(braid(d))
        counts = {}
        for s in symmetric_group(d):
            key = (s.supp().dim, s.exc())
            counts[key] = counts.get(key, 0) + 1
        totals = {}
        for (x, r), v in em.entries.items():
            totals[(x.dim, r)] = totals.get((x.dim, r), 0) + v
        assert totals == {k: v for k, v in counts.items() if v}


def test_simultaneous_eigenspace_totals_type_b():
    from zonalg.permstat import hyperoctahedral_group

    for d in (2, 3):
        em = eta_mobius(type_b(d))
        counts = {}
        for s in hyperoctahedral_group(d):
            key = (s.supp().dim, s.exc_b())
            counts[key] = counts.get(key, 0) + 1
        totals = {}
        for (x, r), v in em.entries.items():
            totals[(x.dim, r)] = totals.get((x.dim, r), 0) + v
        assert totals == {k: v for k, v in counts.items() if v}


def test_x_sigma_single_excedance_case():
    # supp = X_J with one non-singleton block, exc = 1: x_sigma is nonzero
    arr = braid(4)
    sigma = Permutation.from_cycles(4, [(3, 2, 1), (4,)])
    assert sigma.exc() == 1
    x = x_sigma(sigma)
    assert not x.phi().is_zero()


def test_x_flat_properties():
    for d in (2, 3):
        arr = braid(d)
        fam = titsalgebra.adams_family(d)
        for fl in arrg.flats(arr):
            xe = x_flat(fl)
            assert not xe.phi().is_zero()
            assert polyclass.pi_equal(xe.act(fam[fl]), xe)


@pytest.mark.parametrize("d", [2, 3])
def test_conjecture_small(d):
    rep = conjecture_check(d)
    assert rep["all_independent"]
    assert rep["extremal_products_fixed"]


@pytest.mark.parametrize("d", [2, 3])
def test_y_basis(d):
    rep = y_basis_cube(d)
    assert rep["ok"]


def test_special_subset_counts():
    for d in (2, 3, 4):
        subs = special_subsets(d)
        assert len(subs) == (3 ** d - 1) // 2
        for s in subs:
            assert min(abs(e) for e in s) in s


def test_generator_family_counts():
    for d in (2, 3, 4):
        fam = b_generators(d)
        assert len(fam.non_point_members()) == 3 ** d - d - 1
        assert len(fam.full_dimensional()) == 2 ** (d - 1)


def test_generator_family_d2_members():
    fam = b_generators(2)
    labels = sorted(fam.label(m) for m in fam.non_point_members())
    assert labels == [
        "Delta0{1,-2}",
        "Delta0{1,2}",
        "Delta0{1}",
        "Delta0{2}",
        "Delta{1,-2}",
        "Delta{1,2}",
    ]


def test_b_decompose_identity_on_generator():
    arr = type_b(2)
    d0 = polyclass.simplex0(arr, frozenset({1, 2}))
    coeffs = b_decompose(d0)
    nonzero = {g: c for g, c in coeffs.items() if c}
    assert list(nonzero.values()) == [Fraction(1)]
    ((kind, s),) = nonzero
    assert kind == "simplex0" and s == frozenset({1, 2})


@pytest.mark.parametrize("d", [2, 3])
def test_b_decompose_permutahedron(d):
    pb = polyclass.typeB_permutahedron(d)
    coeffs = b_decompose(pb)
    _, gens, polys, _, _ = _b_system(d)
    assert reconstruction_holds(pb, coeffs, polys)


@pytest.mark.parametrize("d", [2, 3])
def test_b_decompose_random(d):
    rng = random.Random(20 + d)
    _, gens, polys, _, _ = _b_system(d)
    for _ in range(3):
        p, used = random_b_deformation(d, rng)
        coeffs = b_decompose(p)
        assert all(coeffs.get(g, 0) == used.get(g, 0) for g in gens)
        assert reconstruction_holds(p, coeffs, polys)


def test_psi1_system_full_rank():
    from zonalg import linalg

    for d in (2, 3):
        _, gens, polys, _, matrix = _b_system(d)
        assert linalg.rank(matrix) == len(gens)


def test_a_system_full_rank_up_to_d5():
    from zonalg import linalg

    for d in (3, 4, 5):
        gens, polys, _, matrix = _a_system(d)
        assert linalg.rank(matrix) == len(gens) == 2 ** d - d - 1


def test_a_decompose_values():
    p3 = polyclass.permutahedron(3)
    coeffs = a_decompose(p3)
    for s, c in coeffs.items():
        assert c == (1 if len(s) == 2 else 0)
    gens, polys, _, _ = _a_system(3)
    assert reconstruction_holds(p3, coeffs, polys)
    d3 = polyclass.simplex(braid(3), frozenset({1, 2, 3}))
    coeffs = a_decompose(d3)
    assert coeffs[frozenset({1, 2, 3})] == 1
    assert sum(abs(c) for c in coeffs.values()) == 1
    pt = polyclass.VPolytope(braid(3), [(1, 1, 1)], assume_vertices=True)
    assert all(c == 0 for c in a_decompose(pt).values())


def test_a_decompose_round_trip_random():
    rng = random.Random(31)
    d = 4
    gens, polys, _, _ = _a_system(d)
    for _ in range(3):
        chosen = rng.sample(gens, 3)
        acc = polyclass.VPolytope(braid(d), [(Fraction(0),) * d], assume_vertices=True)
        used = {}
        for s in chosen:
            c = rng.choice((1, 2))
            used[s] = Fraction(c)
            acc = acc.minkowski(polys[s].dilate(c))
        coeffs = a_decompose(acc)
        assert all(coeffs.get(s, 0) == used.get(s, 0) for s in gens)


def _random_deformation(kind, d, rng):
    """A random nonnegative integral combination of the generators of the
    type-``kind`` decomposition system, with its coefficients."""
    if kind == "B":
        return random_b_deformation(d, rng)
    gens, polys, _, _ = _a_system(d)
    acc = polyclass.VPolytope(braid(d), [(Fraction(0),) * d], assume_vertices=True)
    used = {}
    for s in rng.sample(gens, 3):
        used[s] = Fraction(rng.choice((1, 2)))
        acc = acc.minkowski(polys[s].dilate(used[s]))
    return acc, used


@pytest.mark.parametrize("kind,d", [("A", 4), ("A", 5), ("B", 3), ("B", 4)])
def test_decompose_after_warm_up_eliminates_nothing(kind, d, monkeypatch):
    """Once a system is factored, a decomposition back-substitutes and
    checks every row, and runs no elimination.  Its results are checked
    against the generating coefficients, and one against a Fraction
    Gauss-Jordan elimination of the augmented system, which shares no code
    with the factorization."""
    from test_linalg import _solve_oracle
    from zonalg import linalg

    decompose, system = (a_decompose, _a_system) if kind == "A" else (b_decompose, _b_system)
    rng = random.Random(40 + d)
    cases = [_random_deformation(kind, d, rng) for _ in range(4)]
    decompose(cases.pop()[0])  # warm-up: builds and factors the system
    gens, _, face_order, matrix = system(d)[-4:]
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *args: calls.append(args) or rref(*args))
    got = [decompose(p) for p, _ in cases]
    monkeypatch.undo()
    assert calls == []
    for (p, used), coeffs in zip(cases, got):
        assert all(coeffs[g] == used.get(g, 0) for g in gens)
    rhs = polyclass.psi1(cases[0][0]).to_vector(face_order)
    assert got[0] == dict(zip(gens, _solve_oracle(matrix, rhs)))
    # one wall's edge length off: no generator combination has these lengths
    rhs[len(rhs) // 2] += 1
    with pytest.raises(ValueError, match="inconsistent linear system"):
        matrix.solve(rhs)


def test_bound_guards():
    from zonalg.permstat import BoundExceededError

    with pytest.raises(BoundExceededError):
        eta_idempotent_rank(5)
    with pytest.raises(BoundExceededError):
        eta_gamma_rank(5)
    with pytest.raises(BoundExceededError):
        conjecture_check(5)
    with pytest.raises(ValueError):
        b_decompose(polyclass.permutahedron(2))
    with pytest.raises(ValueError):
        a_decompose(polyclass.typeB_permutahedron(2))
