"""Hopf-monoid structure on labeled generalized permutahedra.

The product is Cartesian, the coproduct restricts and contracts along a
splitting of the labels, and the antipode of a class is the signed sum of
its face classes.  The valuation and translation relations are compatible
with all of it: their coproducts vanish on classes.
"""

from zonalg.hopfgp import (
    LabeledGP,
    antipode_class,
    euler_map,
    gp_coproduct,
    gp_product,
    hopf_axiom_check,
    mc_coideal_check,
    two_one_monoid_check,
)
from zonalg.polyclass import PiElement, permutahedron, pi_equal, simplex

p = LabeledGP.make((1, 2, 3), permutahedron(3))
r, c = gp_coproduct(p, {1, 3})
print("restricting the permutahedron on {1,2,3} to {1,3}:")
print("   restriction vertices:", r.poly.verts)
print("   contraction vertices:", c.poly.verts)

from zonalg.arrangement import braid

seg = LabeledGP.make((4, 5), simplex(braid(2), {1, 2}))
prod = gp_product(r, seg)
print("\nproduct with a disjoint segment has h-polynomial",
      prod.poly.h_polynomial())

x = PiElement.of(permutahedron(2))
print("\nEuler map of a segment class: [p]^* = 2*[point] - [p]:",
      pi_equal(euler_map(x), PiElement.one(x.arr).scale(2) - x))
print("antipode is an involution on the permutahedron class:",
      pi_equal(antipode_class(antipode_class(x)), x))

for n in (2, 3):
    axioms = hopf_axiom_check(n)
    coideal = mc_coideal_check(n)
    two_one = two_one_monoid_check(n)
    print(f"\nn = {n}: coassociativity {axioms['coassociative']}, "
          f"compatibility {axioms['compatible']}, antipode axiom {axioms['antipode']}, "
          f"relations form a coideal {coideal['ok']}, interchange laws {two_one['ok']}")
