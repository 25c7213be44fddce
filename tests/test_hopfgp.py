import pytest
from fractions import Fraction

from zonalg import polyclass
from zonalg.arrangement import braid
from zonalg.gfseries import RatPoly
from zonalg.hopfgp import (
    LabeledGP,
    antipode_class,
    coproduct_tensor,
    euler_map,
    gp_coproduct,
    gp_product,
    hopf_axiom_check,
    mc_coideal_check,
    two_one_monoid_check,
)
from zonalg.polyclass import PiElement, VPolytope, permutahedron, pi_equal, simplex

from helpers import relabel


def _labeled_perm(n, labels=None):
    labels = labels or tuple(range(1, n + 1))
    return LabeledGP.make(labels, permutahedron(n))


def test_coproduct_on_segment():
    p = _labeled_perm(2)
    r, c = gp_coproduct(p, {1})
    assert r.poly.verts == ((Fraction(2),),)
    assert c.poly.verts == ((Fraction(1),),)


def test_coproduct_needs_proper_subset():
    p = _labeled_perm(2)
    with pytest.raises(ValueError):
        gp_coproduct(p, {1, 2})
    with pytest.raises(ValueError):
        gp_coproduct(p, set())


def test_product_of_segments_is_square():
    a2 = braid(2)
    s1 = LabeledGP.make((1, 2), simplex(a2, {1, 2}))
    s2 = LabeledGP.make((3, 4), simplex(a2, {1, 2}))
    sq = gp_product(s1, s2)
    assert sq.poly.f_vector() == (4, 4, 1)
    assert sq.poly.h_polynomial() == s1.poly.h_polynomial() * s2.poly.h_polynomial()


def test_product_with_point():
    pt = LabeledGP.make((9,), VPolytope(braid(1), [(Fraction(5),)], assume_vertices=True))
    p = _labeled_perm(3)
    prod = gp_product(pt, p)
    assert len(prod.poly.verts) == 6
    assert prod.labels == (1, 2, 3, 9)


def test_product_rejects_overlap():
    with pytest.raises(ValueError):
        gp_product(_labeled_perm(2), _labeled_perm(2))


def test_h_multiplicativity_on_products():
    p = gp_product(_labeled_perm(2), _labeled_perm(2, labels=(3, 4)))
    assert p.poly.h_polynomial() == RatPoly.of(1, 1) * RatPoly.of(1, 1)
    # permutahedron times a segment: f and h both multiply
    seg = LabeledGP.make((4, 5), simplex(braid(2), {1, 2}))
    prod = gp_product(_labeled_perm(3), seg)
    h3 = permutahedron(3).h_polynomial()
    assert prod.poly.h_polynomial() == h3 * RatPoly.of(1, 1)
    fa = permutahedron(3).f_vector()
    fb = seg.poly.f_vector()
    fprod = prod.poly.f_vector()
    for k in range(len(fprod)):
        assert fprod[k] == sum(
            fa[i] * fb[k - i]
            for i in range(len(fa))
            if 0 <= k - i < len(fb)
        )


def test_relabel_naturality():
    gp = _labeled_perm(3)
    relabeled = relabel(gp, {1: 10, 2: 5, 3: 7})
    assert relabeled.labels == (5, 7, 10)
    # support functions agree after transport: compare f-vectors and classes
    assert relabeled.poly.f_vector() == gp.poly.f_vector()
    # coproduct commutes with relabeling
    r1, c1 = gp_coproduct(gp, {1, 3})
    r2, c2 = gp_coproduct(relabeled, {10, 7})
    assert r2.poly == relabel(r1, {1: 10, 3: 7}).poly
    assert c2.poly == relabel(c1, {2: 5}).poly


def test_euler_map_examples():
    a2 = braid(2)
    seg = simplex(a2, {1, 2})
    em = euler_map(PiElement.of(seg))
    assert pi_equal(em, PiElement.one(a2).scale(2) - PiElement.of(seg))
    pt = VPolytope(a2, [(Fraction(0), Fraction(0))], assume_vertices=True)
    assert pi_equal(euler_map(PiElement.of(pt)), PiElement.of(pt))


def test_antipode_involution_on_permutahedron():
    x = PiElement.of(permutahedron(3))
    assert pi_equal(antipode_class(antipode_class(x)), x)


def test_antipode_of_point_class():
    a1 = braid(1)
    pt = PiElement.one(a1)
    assert pi_equal(antipode_class(pt), pt.scale(-1))


@pytest.mark.parametrize("n", [2, 3])
def test_hopf_axioms(n):
    rep = hopf_axiom_check(n)
    assert rep["coassociative"] and rep["compatible"] and rep["antipode"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mc_coideal(n):
    rep = mc_coideal_check(n)
    assert rep["valuation"] and rep["translation"] and rep["product_ideal"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_one_identities(n):
    rep = two_one_monoid_check(n)
    assert rep["product_interchange"] and rep["coproduct_minkowski"]


def test_two_one_simplex_example():
    # (d12 + d12) x (pt + pt) = (d12 x pt) + (d12 x pt)
    a2 = braid(2)
    d12 = LabeledGP.make((1, 2), simplex(a2, {1, 2}))
    pt = LabeledGP.make((3,), VPolytope(braid(1), [(Fraction(0),)], assume_vertices=True))
    lhs = gp_product(
        LabeledGP.make((1, 2), d12.poly.minkowski(d12.poly)),
        LabeledGP.make((3,), pt.poly.minkowski(pt.poly)),
    )
    one = gp_product(d12, pt)
    assert lhs.poly == one.poly.minkowski(one.poly)


def test_coproduct_tensor_of_valuation_element_vanishes():
    labels = (1, 2, 3)
    p = permutahedron(3)
    le, ge, eq = polyclass.slice_polytope(p, (1, 0, 0), Fraction(3, 2))
    x = [
        (LabeledGP.make(labels, le), 1),
        (LabeledGP.make(labels, ge), 1),
        (LabeledGP.make(labels, p), -1),
        (LabeledGP.make(labels, eq), -1),
    ]
    for s in ({1}, {2}, {1, 3}):
        assert coproduct_tensor(x, s).is_zero_class()
