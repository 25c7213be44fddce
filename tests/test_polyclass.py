import itertools
import math
import random
import re
import pytest
from fractions import Fraction

from zonalg import arrangement as arrg
from zonalg import linalg, polyclass
from zonalg.arrangement import braid, type_b, coordinate, central_face, parse_face
from zonalg.gfseries import RatPoly, eulerian_A, eulerian_B
from zonalg.polyclass import (
    NotDeformationError,
    PiElement,
    VPolytope,
    check_deformation,
    cube,
    exp_class,
    graded_component,
    hyperplane_normals,
    log_class,
    permutahedron,
    pi_equal,
    polytope_cone_weights,
    polytope_from_json,
    polytope_to_json,
    psi1,
    segment,
    simplex,
    simplex0,
    slice_polytope,
    typeB_permutahedron,
    valuation_relation,
    zonotope_of,
)
from zonalg.titsalgebra import TitsElement

from volume_oracle import face_volume, lattice_volume


def _pt(arr):
    return VPolytope(arr, [(Fraction(0),) * arr.d], assume_vertices=True)


def _support_dims(weights):
    return sorted({f.dim for f in weights.terms})


def zonotope_face(arr, flat):
    """The summand of the zonotope over the hyperplanes containing a flat."""
    some_face = arrg.faces_with_support(arr, flat)[0]
    ip = arrg.interior_point(some_face)
    acc = _pt(arr)
    for v in hyperplane_normals(arr):
        if sum(a * b for a, b in zip(v, ip)) == 0:
            acc = acc.minkowski(segment(arr, v))
    return acc


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vertex_counts(d):
    assert len(permutahedron(d).verts) == math.factorial(d)
    assert len(typeB_permutahedron(d).verts) == 2 ** d * math.factorial(d)
    assert len(cube(d).verts) == 2 ** d


def test_permutahedron_face_vectors():
    p3 = permutahedron(3)
    assert p3.f_vector() == (6, 6, 1)
    assert p3.h_polynomial() == eulerian_A(3)
    pb2 = typeB_permutahedron(2)
    assert pb2.f_vector() == (8, 8, 1)
    assert pb2.h_polynomial() == eulerian_B(2)
    assert _pt(braid(2)).h_polynomial() == RatPoly.of(1)


def test_face_set_does_not_pin_the_face():
    import gc
    import weakref

    arr = braid(11)  # faces(braid(11)) is never enumerated, so no cache holds its faces
    face = arrg.face_of_point(arr, tuple(range(11, 0, -1)))
    p = simplex(arr, {1, 2})
    assert p.face_set(face) == frozenset({1})  # vertex 1 is e_1, after e_2 in sorted order
    ref = weakref.ref(face)
    del face, p
    gc.collect()
    assert ref() is None


def test_simplex_validation():
    with pytest.raises(ValueError):
        simplex(type_b(3), {1, -1})
    with pytest.raises(ValueError):
        simplex0(type_b(3), set())
    s = simplex0(type_b(2), {1})
    assert s.verts == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))


@pytest.mark.parametrize("assume_vertices", [False, True])
def test_vertex_coordinates_are_fractions(assume_vertices):
    arr = braid(2)
    points = [[0, 1], ("1", 0), (Fraction(1), 0), [1, "0"], (Fraction(0), Fraction(1))]
    p = VPolytope(arr, points, assume_vertices=assume_vertices)
    assert p.verts == ((0, 1), (1, 0))
    assert all(type(v) is tuple for v in p.verts)
    assert all(type(c) is Fraction for v in p.verts for c in v)


def test_face_max_simplex_rule():
    arr = braid(4)
    dj = simplex(arr, {1, 2, 4})
    f = parse_face(arr, "3|14|2")
    assert dj.face_max(f) == simplex(arr, {1, 4})
    assert dj.face_max(central_face(arr)) == dj


def test_double_action_is_product_action():
    arr = braid(3)
    p = permutahedron(3)
    for f in arrg.faces(arr):
        for g in arrg.faces(arr):
            assert p.face_max(f).face_max(g) == p.face_max(arrg.tits_product(f, g))


def test_minkowski_and_dilate():
    arr = braid(3)
    d12 = simplex(arr, {1, 2})
    doubled = d12.minkowski(d12)
    assert doubled == d12.dilate(2)
    assert pi_equal(
        PiElement.of(permutahedron(3)),
        PiElement.of(
            simplex(arr, {1, 2}).minkowski(simplex(arr, {1, 3})).minkowski(simplex(arr, {2, 3}))
        ),
    )


def test_dilate_zero_and_negative():
    p = cube(2)
    assert p.dilate(0).verts == ((Fraction(0), Fraction(0)),)
    with pytest.raises(ValueError):
        p.dilate(-1)


def test_deformation_closure_under_sums_and_dilates():
    rng = random.Random(3)
    arr = braid(3)
    subsets = [frozenset(s) for s in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]]
    for _ in range(5):
        picks = rng.sample(subsets, 2)
        p = simplex(arr, picks[0]).minkowski(simplex(arr, picks[1]))
        assert check_deformation(p)
        assert check_deformation(p.dilate(Fraction(3, 2)))


def test_non_deformation_rejected():
    # Conv{0, e1} is not a deformation of the permutahedron
    with pytest.raises(NotDeformationError):
        segment(braid(2), (1, 0))


def test_segment_volume_normalization():
    # the lineality segment [0, c(1, 1)]: c times the primitive vector (1, 1)
    for c, want in ((1, 1), (2, 2), (Fraction(1, 2), Fraction(1, 2))):
        seg = VPolytope(braid(2), [(0, 0), (c, c)], assume_vertices=True)
        assert lattice_volume(seg) == want


def test_unit_square_volume():
    sq = cube(2)
    top = [fs for fs, dim in sq.lattice().items() if dim == 2]
    assert len(top) == 1 and face_volume(sq, top[0]) == 1
    assert polytope_cone_weights(sq).coeff(central_face(sq.arr)) == 1


def test_lattice_volume_examples():
    arr = coordinate(2)
    seg = VPolytope(arr, [(0, 0), (1, 1)], assume_vertices=True)
    assert lattice_volume(seg) == 1  # primitive lattice length
    seg2 = VPolytope(arr, [(0, 0), (2, 2)], assume_vertices=True)
    assert lattice_volume(seg2) == 2
    assert lattice_volume(cube(2)) == 1
    assert lattice_volume(VPolytope(arr, [(5, 7)], assume_vertices=True)) == 1
    lat = cube(2).lattice()
    assert sorted(lat.values()).count(0) == 4 and max(lat.values()) == 2


def test_lattice_volume_against_independent_oracles():
    cases = [
        # the permutahedron is the graphical zonotope of the complete graph,
        # so its lattice volume counts spanning trees: d^(d-2)
        (permutahedron(3), 3),
        (permutahedron(4), 16),
        # zonotope of the type-B normals in the plane: sum over independent
        # pairs of |det| = 2 + 1 + 1 + 1 + 1 + 1
        (zonotope_of(type_b(2)), 7),
        # the octagon with vertices (±1,±2),(±2,±1): a 4x4 box minus four
        # half-unit corners
        (typeB_permutahedron(2), 14),
        # dilation scales r-volume by lambda^r
        (permutahedron(3).dilate(2), 12),
    ]
    for p, want in cases:
        assert lattice_volume(p) == want
        # Lawrence's formula at the central face, where the face of a
        # deformation is the whole polytope
        assert polytope_cone_weights(p).coeff(central_face(p.arr)) == want


@pytest.mark.parametrize(
    "arr",
    [braid(d) for d in range(2, 6)] + [type_b(d) for d in range(1, 5)] + [coordinate(d) for d in range(1, 5)],
    ids=str,
)
def test_chamber_walls_are_a_lattice_basis(arr):
    """Lawrence's formula divides by the lattice index of the wall normals
    above a face at each chamber above it, which the cone weights leave
    out: the normals of the walls of a chamber span a saturated lattice, so
    every subset of them does too."""
    walls_at = {}
    for _, plus, minus, n, _ in polyclass._wall_table(arr):
        for ch in (plus, minus):
            walls_at.setdefault(ch, []).append(n)
    assert len(walls_at) == len(arrg.chambers(arr))
    for normals in walls_at.values():
        assert len(normals) == arr.d - (arr.kind == arrg.KIND_A)
        assert linalg.lattice_index(normals) == 1


def test_permutahedron_edges_are_primitive():
    w = psi1(permutahedron(3))
    assert set(w.terms.values()) == {Fraction(1)}
    assert len(w.terms) == 6


def test_phi_of_interval_minus_point():
    arr = coordinate(1)
    seg3 = VPolytope(arr, [(Fraction(0),), (Fraction(3),)], assume_vertices=True)
    x = PiElement.of(seg3) - PiElement.one(arr)
    w = x.phi()
    assert w.terms == {central_face(arr): Fraction(3)}


def test_log_of_segment_and_singleton():
    arr = coordinate(2)
    l1 = segment(arr, (1, 0))
    assert pi_equal(log_class(l1), PiElement.of(l1) - PiElement.one(arr))
    assert log_class(simplex(braid(3), {2})).is_zero()


def test_log_additivity_and_exp():
    arr = braid(3)
    a = simplex(arr, {1, 2})
    b = simplex(arr, {1, 2, 3})
    s = a.minkowski(b)
    assert pi_equal(log_class(s), log_class(a) + log_class(b))
    assert pi_equal(exp_class(log_class(b)), PiElement.of(b))


def test_exp_requires_zero_degree0():
    with pytest.raises(ValueError):
        exp_class(PiElement.one(braid(2)))


def test_dilation_eigenvalue_of_log():
    arr = braid(3)
    x = log_class(simplex(arr, {1, 2}))
    assert x.dilate(2).phi() == x.phi().scale(2)


def test_graded_components_sum_to_class():
    arr = braid(3)
    p = PiElement.of(simplex(arr, {1, 2, 3}))
    total = PiElement.zero(arr)
    for r in range(0, 4):
        total = total + graded_component(p, r)
    assert pi_equal(total, p)
    g1 = graded_component(p, 1)
    assert pi_equal(g1, log_class(simplex(arr, {1, 2, 3})))


def test_product_of_interval_logs():
    arr = braid(3)
    l1 = segment(arr, (1, -1, 0))
    l2 = segment(arr, (0, 1, -1))
    l3 = segment(arr, (1, 0, -1))
    assert (log_class(l1) * log_class(l2) * log_class(l3)).phi().is_zero()
    assert not (log_class(l1) * log_class(l2)).phi().is_zero()


def test_half_open_parallelogram_grading():
    arr = coordinate(2)
    y = log_class(segment(arr, (1, 0))) * log_class(segment(arr, (0, 1)))
    assert y.dilate(2).phi() == y.phi().scale(4)


def test_module_axioms_on_classes():
    arr = braid(3)
    x = PiElement.of(permutahedron(3))
    for f in arrg.faces(arr):
        for g in arrg.faces(arr):
            hf, hg = TitsElement.basis(f), TitsElement.basis(g)
            assert pi_equal(x.act(hf).act(hg), x.act(TitsElement.basis(arrg.tits_product(f, g))))
    assert pi_equal(x.act(TitsElement.basis(central_face(arr))), x)


def test_action_by_log_identity():
    # log([p]) . H_F = log([p] . H_F) for simplex faces
    arr = braid(3)
    dj = simplex(arr, {1, 2, 3})
    for f in arrg.faces(arr):
        lhs = log_class(dj).act(TitsElement.basis(f))
        rhs = log_class(dj.face_max(f))
        assert pi_equal(lhs, rhs)


def test_action_multiplicative():
    rng = random.Random(5)
    arr = braid(3)
    subsets = [frozenset(s) for s in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]]
    pool = [PiElement.of(simplex(arr, s)) for s in subsets] + [
        PiElement.of(permutahedron(3))
    ]
    faces = arrg.faces(arr)
    for _ in range(20):
        x = pool[rng.randrange(len(pool))] + pool[rng.randrange(len(pool))].scale(
            rng.randint(-2, 2)
        )
        y = pool[rng.randrange(len(pool))]
        h = TitsElement.basis(faces[rng.randrange(len(faces))])
        assert pi_equal((x * y).act(h), x.act(h) * y.act(h))


def test_dilation_commutes_with_action():
    arr = braid(3)
    x = PiElement.of(permutahedron(3))
    for lam in (2, Fraction(3, 2)):
        for f in arrg.faces(arr)[::2]:
            h = TitsElement.basis(f)
            assert pi_equal(x.act(h).dilate(lam), x.dilate(lam).act(h))


def test_slices_and_valuation_relations():
    assert valuation_relation(cube(2), (1, 0), Fraction(1, 2)).phi().is_zero()
    arr1 = coordinate(1)
    seg = VPolytope(arr1, [(Fraction(0),), (Fraction(1),)], assume_vertices=True)
    assert valuation_relation(seg, (1,), Fraction(1, 2)).phi().is_zero()
    assert valuation_relation(permutahedron(3), (1, 0, 0), Fraction(3, 2)).phi().is_zero()
    assert valuation_relation(permutahedron(2), (1, -1), Fraction(1, 3)).phi().is_zero()
    assert valuation_relation(typeB_permutahedron(2), (1, -1), Fraction(1, 2)).phi().is_zero()
    assert valuation_relation(typeB_permutahedron(2), (1, 1), Fraction(1, 2)).phi().is_zero()


def test_slice_level_must_be_interior():
    with pytest.raises(ValueError):
        slice_polytope(cube(2), (1, 0), Fraction(2))


def test_diagonal_slice_of_hexagon_is_not_a_deformation():
    # cutting along x1 - x2 creates an edge outside the root directions
    with pytest.raises(NotDeformationError):
        slice_polytope(permutahedron(3), (1, -1, 0), 0)


def test_slice_takes_any_normal_of_the_right_length():
    # (1, 1, 0) is no coordinate, difference or type-B sum normal
    assert valuation_relation(permutahedron(3), (1, 1, 0), 4).phi().is_zero()
    for normal in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="a normal needs 2 coordinates"):
            slice_polytope(cube(2), normal, Fraction(1, 2))


def test_translate_takes_a_vector_of_the_right_length():
    # zip would cut a longer vector to d coordinates without a word
    for t in [(1,), (1, 2, 3)]:
        with pytest.raises(ValueError, match=f"a translation needs 2 coordinates, got {len(t)}"):
            cube(2).translate(t)


@pytest.mark.parametrize("bad", [0.1, True])
def test_polytope_inputs_must_be_exact(bad):
    arr, p = coordinate(2), cube(2)
    calls = [
        lambda: VPolytope(arr, [(bad, 0), (0, 0)]),
        lambda: VPolytope(arr, [(bad, 0), (0, 0)], assume_vertices=True),
        lambda: p.dilate(bad),
        lambda: p.translate((bad, 0)),
        lambda: segment(arr, (bad, 0)),
        lambda: slice_polytope(p, (bad, 0), Fraction(1, 2)),
        lambda: slice_polytope(p, (1, 0), bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            call()


def test_slice_pieces_cover():
    p = cube(2)
    le, ge, eq = slice_polytope(p, (0, 1), Fraction(1, 3))
    assert pi_equal(
        PiElement.of(le) + PiElement.of(ge) - PiElement.of(eq), PiElement.of(p)
    )


def test_phi_translation_invariance():
    rng = random.Random(11)
    arr = braid(3)
    p = simplex(arr, {1, 3})
    for _ in range(5):
        t = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        assert polytope_cone_weights(p) == polytope_cone_weights(p.translate(t))


def test_phi_homogeneity_support():
    # degree-r parts live on faces of dimension d - r
    arr = braid(4)
    x = log_class(simplex(arr, {1, 2, 4}))
    assert _support_dims(x.phi()) == [3]
    xx = x * log_class(simplex(arr, {1, 3}))
    assert _support_dims(xx.phi()) == [2]
    arrc = coordinate(3)
    y = log_class(segment(arrc, (1, 0, 0))) * log_class(segment(arrc, (0, 0, 1)))
    assert _support_dims(y.phi()) == [1]
    arrb = type_b(2)
    zb = log_class(simplex0(arrb, {1}))
    assert _support_dims(zb.phi()) == [1]
    # same in type B at full size
    arrb4 = type_b(4)
    w = log_class(simplex0(arrb4, {1, -3, 4}))
    assert _support_dims(w.phi()) == [3]
    ww = w * log_class(simplex(arrb4, {2, -4}))
    assert _support_dims(ww.phi()) == [2]


def test_dilation_is_multiplicative():
    arr = braid(3)
    x = PiElement.of(simplex(arr, {1, 2}))
    y = PiElement.of(simplex(arr, {1, 2, 3}))
    for lam in (2, Fraction(3, 2)):
        assert pi_equal((x * y).dilate(lam), x.dilate(lam) * y.dilate(lam))


def test_psi1_matches_phi_of_log():
    for p in (permutahedron(3), typeB_permutahedron(2), cube(3), simplex0(type_b(3), {1, -2})):
        walls = set(arrg.walls(p.arr))
        via_log = {f: w for f, w in log_class(p).phi().terms.items() if f in walls}
        assert psi1(p).terms == via_log


def test_psi1_of_simplex0_singleton():
    # the edge of Conv{0, e1} in type B lies on the flat x1 = 0's two rays
    arr = type_b(2)
    w = psi1(simplex0(arr, {1}))
    faces = sorted(arrg.face_str(f) for f in w.terms)
    assert all(v == 1 for v in w.terms.values())
    assert faces == ["-2|0:1 -1|2", "2|0:1 -1|-2"]


def test_zonotope_is_permutahedron_class():
    assert pi_equal(PiElement.of(zonotope_of(braid(3))), PiElement.of(permutahedron(3)))


@pytest.mark.parametrize("arr", [braid(3), type_b(2), coordinate(3)])
def test_zonotope_face_equals_flat_summand(arr):
    # the face of the zonotope at any face F is a translate of the summand
    # over the hyperplanes containing supp(F)
    z = zonotope_of(arr)
    for f in arrg.faces(arr):
        face_poly = z.face_max(f)
        summand = zonotope_face(arr, arrg.support(f))
        assert face_poly.normalized() == summand.normalized()


def test_graded_component_matches_log_powers():
    from math import factorial

    p = permutahedron(3)
    x = PiElement.of(p)
    lg = log_class(p)
    power = PiElement.one(p.arr)
    for r in range(0, 3):
        assert pi_equal(graded_component(x, r), power.scale(Fraction(1, factorial(r))))
        power = power * lg


@pytest.mark.parametrize("arr", [braid(3), type_b(2), coordinate(3)])
def test_zonotope_face_is_summand(arr):
    z = zonotope_of(arr)
    for fl in arrg.flats(arr):
        zx = zonotope_face(arr, fl)
        some_face = arrg.faces_with_support(arr, fl)[0]
        ip = arrg.interior_point(some_face)
        comp = _pt(arr)
        for v in hyperplane_normals(arr):
            if sum(a * b for a, b in zip(v, ip)) != 0:
                comp = comp.minkowski(segment(arr, v))
        assert pi_equal(PiElement.of(zx.minkowski(comp)), PiElement.of(z))


def test_cone_weights_json():
    w = polytope_cone_weights(simplex(braid(2), {1, 2}))
    data = w.to_json()
    assert all(set(item) == {"face", "coeff"} for item in data)


def test_polytope_json_round_trip():
    p = simplex0(type_b(2), {1, -2})
    back = polytope_from_json(polytope_to_json(p))
    assert back == p


def test_arrangement_mismatch_raises():
    with pytest.raises(ValueError):
        cube(2).minkowski(permutahedron(2))
    with pytest.raises(ValueError):
        PiElement.of(cube(2)) + PiElement.of(permutahedron(2))


def test_polytopes_are_interned():
    arr = braid(3)
    verts = [tuple(Fraction(c) for c in v) for v in permutahedron(3).verts]
    shuffled = verts[::-1]
    duplicated = verts + verts[:3]
    as_ints = [tuple(int(c) for c in v) for v in verts]
    p = VPolytope(arr, verts)
    for pts in (shuffled, duplicated, as_ints):
        assert VPolytope(arr, pts) is p
        assert VPolytope(arr, pts, assume_vertices=True) is p
    assert permutahedron(3) is p
    # equality and hashing are by identity
    assert {p: 1}[VPolytope(arr, shuffled)] == 1
    assert p != simplex(arr, {1, 2, 3})
    assert p != VPolytope(coordinate(3), verts, assume_vertices=True)


def test_intern_table_holds_only_live_polytopes():
    import gc
    import weakref

    from zonalg.polyclass import _INTERN

    arr = braid(3)
    verts = [(Fraction(1, 7), 0, 0), (Fraction(3, 7), 1, 2), (Fraction(5, 7), 2, 1)]
    p = VPolytope(arr, verts, assume_vertices=True)
    key = (arr, p._den, p._ipts)
    # while p is alive, an equal polytope from shuffled points is p itself
    assert VPolytope(arr, verts[::-1] + verts[:1], assume_vertices=True) is p
    assert _INTERN[key] is p
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None
    assert key not in _INTERN
    # a face held only in its polytope's face cache stays interned
    z = zonotope_of(arr)
    face = parse_face(arr, "13|2")
    child = weakref.ref(z.face_max(face))
    gc.collect()
    assert child() is not None
    assert VPolytope(arr, list(child().verts)[::-1], assume_vertices=True) is child()
    assert z.face_max(face) is child()


def test_normalized_is_shared_by_translates():
    for p in (permutahedron(3), cube(3), simplex0(type_b(2), {1, -2})):
        q = p.translate(tuple(Fraction(k + 1, 2) for k in range(p.arr.d)))
        assert q is not p
        assert q.normalized() is p.normalized()
        assert p.normalized().normalized() is p.normalized()
        assert all(c == 0 for c in p.normalized().verts[0])


def _act_oracle(x, element):
    acc = PiElement.zero(x.arr)
    for face, coeff in element.terms.items():
        for p, c in x.terms.items():
            acc = acc + PiElement.of(p.face_max(face), c * coeff)
    return acc


def _adams_classes():
    arr = braid(3)
    return [
        PiElement.of(permutahedron(3)),
        log_class(simplex(arr, {1, 2, 3})) + PiElement.of(simplex(arr, {1, 3}), Fraction(-2, 3)),
        log_class(permutahedron(3)) * log_class(simplex(arr, {2, 3})),
    ]


def _gamma_classes():
    arr = coordinate(3)
    return [
        PiElement.of(cube(3)),
        log_class(cube(3)) - PiElement.of(segment(arr, (0, 0, 1)), Fraction(1, 2)),
        log_class(segment(arr, (0, 2, 0))) * log_class(cube(3).dilate(3)),
    ]


@pytest.mark.parametrize("case", ["adams-A3", "gamma-C3"])
def test_act_matches_facewise_oracle(case):
    from zonalg.titsalgebra import adams_family, gamma_family

    if case == "adams-A3":
        family, classes = adams_family(3), _adams_classes()
    else:
        family, classes = gamma_family(3), _gamma_classes()
    for x in classes:
        for e in family.elements.values():
            got = x.act(e)
            want = _act_oracle(x, e)
            assert got.terms == want.terms
            assert got.phi() == want.phi()


@pytest.mark.parametrize("classes", [_adams_classes, _gamma_classes], ids=["A3", "C3"])
def test_phi_matches_termwise_oracle(classes):
    for x in classes():
        want = {}
        for p, c in x.terms.items():
            for face, w in polytope_cone_weights(p).terms.items():
                want[face] = want.get(face, Fraction(0)) + w * c
        assert x.phi().terms == {f: w for f, w in want.items() if w}


# ---------------------------------------------------------------------------
# the wall-crossing test against the two-point sweep it replaced

def _second_point(face):
    """The second interior point of the sweep: block values squared (types
    A and B) or the i-th sign times i + 1 (type C)."""
    arr, view = face.arr, arrg._view(face)
    if arr.kind == arrg.KIND_C:
        return [s * (i + 2) for i, s in enumerate(view)]
    blocks = view if arr.kind == arrg.KIND_A else view[0]
    top = len(blocks) - (arr.kind == arrg.KIND_A)
    x = [0] * arr.d
    for i, block in enumerate(blocks):
        for e in block:
            x[abs(e) - 1] = (top - i) ** 2 * (1 if e > 0 else -1)
    return x


def _sweep(p):
    """The old deformation check: the vertices maximizing at each face are
    the same at its two interior points."""
    from zonalg.polyclass import _argmax

    return all(
        set(_argmax(p._ipts, arrg.interior_point(f))) == set(_argmax(p._ipts, _second_point(f)))
        for f in arrg.faces(p.arr)
    )


def _wall_test(p):
    try:
        return check_deformation(p)
    except NotDeformationError:
        return False


def _diagonal_pieces():
    """The three pieces of the hexagon cut along x1 = x2, as raw vertex lists:
    ``slice_polytope`` rejects them."""
    p = permutahedron(3)
    val = {v: v[0] - v[1] for v in p.verts}
    pieces = [[v for v in p.verts if val[v] <= 0], [v for v in p.verts if val[v] >= 0], []]
    edges = [[p.verts[i] for i in sorted(fs)] for fs, dim in p.lattice().items() if dim == 1]
    for a, b in edges:
        if val[a] * val[b] < 0:  # the cut crosses this edge
            cut = tuple(x + val[a] / (val[a] - val[b]) * (y - x) for x, y in zip(a, b))
            for piece in pieces:
                piece.append(cut)
    return [VPolytope(p.arr, piece, assume_vertices=True) for piece in pieces]


def _built_polytopes():
    rng = random.Random(5)
    a4, b3, c3 = braid(4), type_b(3), coordinate(3)
    out = [permutahedron(d) for d in (2, 3, 4)] + [typeB_permutahedron(d) for d in (2, 3)]
    out += [cube(d) for d in (1, 2, 3)] + [zonotope_of(a) for a in (braid(3), type_b(2), b3, c3)]
    simplices = [simplex(a4, s) for k in (1, 2, 3, 4) for s in itertools.combinations(range(1, 5), k)]
    b_gens = [simplex(b3, s) for s in ({1, -2}, {1, 2, -3})] + [simplex0(b3, s) for s in ({1}, {1, -2}, {2, 3})]
    for pool in (simplices, b_gens):
        out += pool
        for _ in range(4):
            acc = _pt(pool[0].arr)
            for q in rng.sample(pool, 3):
                acc = acc.minkowski(q.dilate(rng.choice((1, 2))))
            out += [acc, acc.dilate(Fraction(3, 2))]
    out += [p.face_max(f) for p in (permutahedron(3), typeB_permutahedron(2)) for f in arrg.faces(p.arr)]
    for p, normal, c in [
        (cube(2), (0, 1), Fraction(1, 3)),
        (permutahedron(3), (1, 0, 0), Fraction(3, 2)),
        (typeB_permutahedron(2), (1, -1), Fraction(1, 2)),
        (typeB_permutahedron(2), (1, 1), Fraction(1, 2)),
    ]:
        out += slice_polytope(p, normal, c)
    return out + _diagonal_pieces()


def test_wall_test_agrees_with_the_sweep():
    built = _built_polytopes()
    verdicts = [(_wall_test(p), _sweep(p)) for p in built]
    assert all(wall == sweep for wall, sweep in verdicts)
    assert [wall for wall, _ in verdicts[-3:]] == [False] * 3  # the diagonal pieces
    assert sum(wall for wall, _ in verdicts) == len(built) - 3


def test_wall_test_rejects_what_the_sweep_misses():
    # Conv{0, e1}, which segment() rejects; a triangle whose edge from
    # (2, 0) to (0, 1) splits the positive quadrant, so that only a wall
    # crossing shows it; and the square with a fifth vertex (1/2, 11/10) that
    # maximizes at no chamber
    seg = VPolytope(braid(2), [(0, 0), (1, 0)], assume_vertices=True)
    with pytest.raises(NotDeformationError, match="wall"):
        VPolytope(coordinate(2), [(0, 0), (2, 0), (0, 1)])
    triangle = VPolytope(coordinate(2), [(0, 0), (2, 0), (0, 1)], assume_vertices=True)
    roof = VPolytope(coordinate(2), cube(2).verts + ((Fraction(1, 2), Fraction(11, 10)),), assume_vertices=True)
    for p in (seg, triangle, roof):
        assert _sweep(p)
        with pytest.raises(NotDeformationError):
            check_deformation(p)


def _old_check(p):
    """The deformation check as it was before it read the chamber sweep: an
    argmax at every chamber and a rank per wall.  A pattern for the message
    of its first failure (at a chamber, a vertex or a wall), or None."""
    from zonalg import linalg

    top = {}
    for ch in arrg.chambers(p.arr):
        i, *more = p.face_set(ch)
        if more:
            return re.escape(f"chamber {ch}")
        top[ch] = p._ipts[i]
    if len(set(top.values())) != len(p.verts):
        return "maximizes at no chamber|lies outside the hull"
    normals = hyperplane_normals(p.arr)
    for wall in arrg.walls(p.arr):
        bit = arrg.support(wall).zero
        a = top[arrg.Face(p.arr, wall.pos | bit, wall.neg)]
        b = top[arrg.Face(p.arr, wall.pos, wall.neg | bit)]
        if linalg.rank([[x - y for x, y in zip(a, b)], normals[bit.bit_length() - 1]]) > 1:
            return re.escape(f"wall {wall} ")
    return None


def test_wall_test_agrees_with_the_sweep_and_rank_check():
    built = _built_polytopes()
    failures = 0
    for p in built:
        want = _old_check(p)
        try:
            check_deformation(p)
        except NotDeformationError as exc:
            assert want is not None and re.search(want, str(exc))
            failures += 1
        else:
            assert want is None
    assert failures == 3  # the diagonal pieces


# a triangle in A3 whose chamber maximizers are unique but no deformation,
# and a segment of the cube that is no root direction
_A3_TRIANGLE = [(0, 0, 0), (3, -1, -2), (-1, 3, -2)]


@pytest.mark.parametrize(
    "arr, points, wall",
    [(braid(3), _A3_TRIANGLE, "13|2"), (coordinate(3), [(0, 0, 0), (0, 2, 1)], "-0-")],
    ids=["A3-triangle", "C3-segment"],
)
def test_points_become_a_polytope_only_through_the_wall_test(arr, points, wall):
    with pytest.raises(NotDeformationError, match=f"wall {re.escape(wall)} "):
        VPolytope(arr, points)
    with pytest.raises(NotDeformationError, match=f"wall {re.escape(wall)} "):
        polytope_from_json({"arrangement": arr.kind, "d": arr.d, "points": [list(v) for v in points]})
    with pytest.raises(NotDeformationError, match=f"wall {re.escape(wall)} "):
        check_deformation(VPolytope(arr, points, assume_vertices=True))


def test_segment_off_the_roots_of_the_cube_is_rejected():
    with pytest.raises(NotDeformationError, match="wall -0- "):
        segment(coordinate(3), (0, 2, 1))


def test_points_outside_the_hull_are_rejected():
    # the midpoint of two vertices of the hexagon lies inside it; (1, 1, 1)
    # lies off its plane and maximizes at no chamber
    p = permutahedron(3)
    mid = tuple((a + b) / 2 for a, b in zip(p.verts[0], p.verts[1]))
    assert VPolytope(p.arr, p.verts + (mid,)) is p
    with pytest.raises(ValueError, match=r"point \['1', '1', '1'\] lies outside"):
        VPolytope(p.arr, p.verts + ((1, 1, 1),))


def test_ties_and_idle_vertices_are_named():
    with pytest.raises(NotDeformationError, match=re.escape("maximize at the chamber 1|2")):
        VPolytope(braid(2), [(1, 0), (1, 5)])
    square = cube(2).verts
    centred = VPolytope(coordinate(2), square + ((Fraction(1, 2), Fraction(1, 2)),), assume_vertices=True)
    with pytest.raises(NotDeformationError, match=re.escape("vertex ['1/2', '1/2'] maximizes at no chamber")):
        check_deformation(centred)
    roof = VPolytope(coordinate(2), square + ((Fraction(1, 2), Fraction(11, 10)),), assume_vertices=True)
    with pytest.raises(NotDeformationError, match=re.escape("point ['1/2', '11/10'] lies outside the hull")):
        check_deformation(roof)


# ---------------------------------------------------------------------------
# sums and slices read at the chambers, against the routes they replaced

def _pairwise_minkowski(p, q):
    """The pairwise-sum route: the polytope of all |P|·|Q| sums of vertices."""
    return VPolytope(p.arr, [tuple(a + b for a, b in zip(v, w)) for v in p.verts for w in q.verts])


def _summands(arr, rng):
    """The point, the segments of the zonotope, some faces of the
    permutahedron (or cube) and some generators of the arrangement."""
    base = {arrg.KIND_A: permutahedron, arrg.KIND_B: typeB_permutahedron, arrg.KIND_C: cube}[arr.kind](arr.d)
    out = [_pt(arr)] + [segment(arr, v) for v in hyperplane_normals(arr)]
    out += [base.face_max(f) for f in rng.sample(arrg.faces(arr), 6)]
    if arr.kind == arrg.KIND_A:
        out += [simplex(arr, s) for s in ({1, 2}, {1, 3}, set(range(1, arr.d + 1)))]
    elif arr.kind == arrg.KIND_B:
        out += [simplex(arr, {1, -2}), simplex(arr, {1, 2, -3}), simplex0(arr, {2, 3})]
    return out


@pytest.mark.parametrize("arr", [braid(3), braid(4), type_b(3), coordinate(3)])
def test_minkowski_equals_the_pairwise_sums(arr):
    rng = random.Random(arr.d)
    pool = _summands(arr, rng)
    for _ in range(6):
        acc = _pt(arr)
        for q in rng.sample(pool, 3):
            q = q.dilate(rng.choice((1, 2, Fraction(1, 2))))
            assert acc.minkowski(q) == _pairwise_minkowski(acc, q) == q.minkowski(acc)
            acc = acc.minkowski(q)


def _slice_by_lattice_edges(p, normal, c):
    """The face-lattice route of ``slice_polytope``: cut every edge of the
    lattice that the hyperplane crosses."""
    vals = {v: sum(a * b for a, b in zip(v, normal)) for v in p.verts}
    pieces = [[v for v in p.verts if vals[v] <= c], [v for v in p.verts if vals[v] >= c]]
    pieces.append([v for v in p.verts if vals[v] == c])
    for fs, dim in p.lattice().items():
        if dim != 1:
            continue
        a, b = (p.verts[i] for i in sorted(fs))
        if vals[a] < c < vals[b] or vals[b] < c < vals[a]:
            cut = tuple(x + (c - vals[a]) / (vals[b] - vals[a]) * (y - x) for x, y in zip(a, b))
            for piece in pieces:
                piece.append(cut)
    return tuple(VPolytope(p.arr, piece) for piece in pieces)


def _pieces_or_rejection(route, p, normal, c):
    try:
        return route(p, normal, c)
    except NotDeformationError:
        return NotDeformationError


def test_edges_at_the_walls_are_the_lattice_edges():
    from zonalg.polyclass import _chamber_sweep, _wall_table

    checked = [0, 0]  # pieces built, cuts rejected
    for p in filter(_wall_test, _built_polytopes()):
        at = _chamber_sweep(p.arr, p._ipts)
        walls = {frozenset((at[plus], at[minus])) for _, plus, minus, _, _ in _wall_table(p.arr)}
        assert walls - {frozenset((i,)) for i in at} == {fs for fs, dim in p.lattice().items() if dim == 1}
        for normal in [(0,) * (p.arr.d - 1) + (1,)] + hyperplane_normals(p.arr)[:3]:
            vals = sorted({sum(a * b for a, b in zip(v, normal)) for v in p.verts})
            if len(vals) > 1:
                c = (vals[0] + vals[-1]) / 2
                want = _pieces_or_rejection(_slice_by_lattice_edges, p, normal, c)
                assert _pieces_or_rejection(slice_polytope, p, normal, c) == want
                checked[want is NotDeformationError] += 1
    assert checked[False] > 100 and checked[True] > 10
