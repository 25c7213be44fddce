"""Test helpers that no command runs: McMullen's exp and grading of classes,
the Coxeter zonotope as a sum of segments, the raw-point checks on a
polytope built with ``assume_vertices``, the type-B cycle excedance, the
inverse of the forest bijection, the noncritical values of t, and the
relabelling of a labeled polytope.
"""

from fractions import Fraction
from math import factorial

from zonalg import arrangement as arrg
from zonalg import hopfgp, linalg
from zonalg.linalg import _ZERO
from zonalg.permstat import Permutation
from zonalg.polyclass import (
    NotDeformationError,
    PiElement,
    _deformation_vertices,
    _point,
    _point_str,
    hyperplane_normals,
    segment,
)


# ---------------------------------------------------------------------------
# polytope classes

def degree0(x):
    """Coefficient of the point class in the degree decomposition."""
    return sum(x.terms.values(), _ZERO)


def exp_class(x):
    """Inverse of the logarithm on classes with zero degree-0 part."""
    if degree0(x) != 0:
        raise ValueError("exp requires zero degree-0 part")
    acc = PiElement.one(x.arr)
    term = PiElement.one(x.arr)
    for r in range(1, x.arr.d + 1):
        term = term * x
        acc = acc + term.scale(Fraction(1, factorial(r)))
    return acc


def graded_component(x, r):
    """The weight-r part of a class: exact interpolation across dilates.

    Dilation by lambda scales the weight-r part by lambda^r, so evaluating
    at d+1 integer dilation factors and solving the Vandermonde system
    isolates each graded piece.
    """
    d = x.arr.d
    if r < 0 or r > d:
        return PiElement.zero(x.arr)
    lams = list(range(1, d + 2))
    rows = [[Fraction(lam) ** k for k in range(d + 1)] for lam in lams]
    rhs = [Fraction(1) if i == r else Fraction(0) for i in range(d + 1)]
    # weights w with sum_lam w_lam lam^k = [k == r]
    weights = linalg.solve_unique([list(col) for col in zip(*rows)], rhs)
    acc = PiElement.zero(x.arr)
    for w, lam in zip(weights, lams):
        if w:
            acc = acc + x.dilate(lam).scale(w)
    return acc


def zonotope_of(arr):
    """The Minkowski sum of the segments Conv{0, v_H} over all hyperplanes."""
    acc = _point(arr)
    for v in hyperplane_normals(arr):
        acc = acc.minkowski(segment(arr, v))
    return acc


def check_deformation(p):
    """The tests that ``VPolytope`` runs on raw points, for a polytope built
    with ``assume_vertices``, each of whose vertices must also maximize at
    some chamber."""
    idle = sorted(set(p._ipts) - set(_deformation_vertices(p.arr, p._den, p._ipts)))
    if idle:
        raise NotDeformationError(f"the vertex {_point_str(p._den, idle[0])} maximizes at no chamber")
    return True


# ---------------------------------------------------------------------------
# the order used for type-B cycle excedances: negatives by increasing
# absolute value, then positives increasing

def _prec_key(e):
    return (0, -e) if e < 0 else (1, e)


def exc_prec(cycle):
    """Number of excedances of a cyclic permutation of an involution-exclusive
    set, with respect to the order: -1 < -2 < ... < 0 < ... < 1 < 2 ..."""
    s = frozenset(cycle)
    if s & frozenset(-e for e in s):
        raise ValueError("cycle support must be involution-exclusive")
    count = 0
    for a, b in zip(cycle, cycle[1:] + tuple(cycle[:1])):
        if _prec_key(b) > _prec_key(a):
            count += 1
    return count


# ---------------------------------------------------------------------------
# increasing forests

def postorder(tree):
    out = []
    for c in tree.children:
        out.extend(postorder(c))
    out.append(tree.root)
    return out


def perm_of(forest):
    """Inverse of ``forest_of``: read each tree in postorder as one cycle."""
    d = forest.d
    cycles = [tuple(postorder(t)) for t in forest.trees]
    return Permutation.from_cycles(d, cycles)


# ---------------------------------------------------------------------------
# characteristic polynomials

def characteristic_poly_value(arr, flat, t):
    coeffs = arrg.characteristic_polynomial(arr, flat)
    t = Fraction(t)
    return sum(c * t ** i for i, c in enumerate(coeffs))


def is_noncritical(arr, t):
    """True iff t is not a root of chi(A^X, .) for any flat X."""
    return all(characteristic_poly_value(arr, x, t) != 0 for x in arrg.flats(arr))


# ---------------------------------------------------------------------------
# labeled generalized permutahedra

def relabel(gp, bijection):
    """Transport along a label bijection (species functoriality)."""
    new_labels = tuple(sorted(bijection[l] for l in gp.labels))
    # the new coordinate k is the old one whose label maps to new_labels[k]
    idx = sorted(range(gp.n), key=lambda i: bijection[gp.labels[i]])
    return hopfgp.LabeledGP.make(new_labels, hopfgp._coordinates(gp.poly._den, gp.poly._ipts, idx))
