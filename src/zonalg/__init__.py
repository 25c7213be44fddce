"""zonalg: exact polytope algebra of Coxeter zonotope deformations as a
module over the Tits algebra of the arrangement.

The package computes, entirely in rational arithmetic:

* faces, flats, Tits products, Möbius functions and characteristic
  polynomials of the braid, type-B and coordinate arrangements;
* permutation and signed-permutation statistics and the increasing-forest
  bijection;
* Eulerian polynomials and the classical and type-B generating-function
  identities relating them to cycle statistics;
* polytope classes, their logarithms, dilation grading, the face-action
  module structure, and faithful cone-weight coordinates;
* eigenspace multiplicity tables by Möbius sums, permutation counts, and
  idempotent ranks, together with explicit eigenvector families;
* the minimal signed-Minkowski generating family in type B;
* the Hopf-monoid operations on labeled generalized permutahedra.
"""

from .arrangement import (
    Arrangement,
    Face,
    Flat,
    braid,
    type_b,
    coordinate,
    tits_product,
    support,
    mobius,
    characteristic_polynomial,
    interior_point,
)
from .gfseries import RatPoly, TruncSeries, eulerian_A, eulerian_B, verify_identities
from .permstat import (
    Permutation,
    SignedPermutation,
    IncreasingForest,
    forest_of,
    perm_of,
    exc_prec,
    enumerate_group,
    stats,
    stats_signed,
)
from .polyclass import (
    ConeWeights,
    PiElement,
    VPolytope,
    cube,
    exp_class,
    graded_component,
    log_class,
    permutahedron,
    pi_equal,
    psi1,
    segment,
    simplex,
    simplex0,
    slice_polytope,
    typeB_permutahedron,
    valuation_relation,
    zonotope_of,
)
from .spectra import (
    EtaTable,
    a_decompose,
    b_decompose,
    b_generators,
    conjecture_check,
    eta_gamma_rank,
    eta_idempotent_rank,
    eta_mobius,
    eta_permutations,
    x_flat,
    x_sigma,
    y_basis_cube,
)
from .titsalgebra import (
    EulerianFamily,
    FlatsElement,
    TitsElement,
    adams_element,
    adams_family,
    char_on_simple,
    gamma_element,
    gamma_family,
    is_characteristic,
    is_noncritical,
    q_basis_element,
)
from .hopfgp import (
    LabeledGP,
    antipode_class,
    euler_map,
    gp_coproduct,
    gp_product,
    hopf_axiom_check,
    mc_coideal_check,
    two_one_monoid_check,
)

__version__ = "0.1.0"
