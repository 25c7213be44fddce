"""Eigenspace dimensions of the dilation/face-action module by independent
routes, explicit eigenvector families, and signed-Minkowski decompositions.

The central quantity is the multiplicity table eta: for a flat X and a grade
r, the number of simple composition factors at X inside the grade-r part of
the deformation algebra.  Three routes compute it:

* ``eta_mobius`` -- Möbius sums of h-polynomials of zonotope faces;
* ``eta_permutations`` -- counting (signed) permutations by support and
  (B-)excedance;
* ``eta_idempotent_rank`` / ``eta_gamma_rank`` -- ranks of idempotent images
  in cone-weight coordinates (braid and coordinate arrangements).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import arrangement as arrg
from . import linalg, permstat, polyclass, titsalgebra
from .gfseries import RatPoly, eulerian_A, h_of_type
from .polyclass import PiElement, log_class

# the largest d at which eta tables are computed as idempotent ranks
RANK_BOUND = 4


class EtaTable:
    """Multiplicities by route: ``entries`` maps (flat, r) to its nonzero
    value, flats in flats(arr) order and grades increasing within a flat."""

    __slots__ = ("arr", "method", "entries")

    def __init__(self, arr, method, values):
        self.arr = arr
        self.method = method
        self.entries = {
            (x, r): values[(x, r)]
            for x in arrg.flats(arr)
            for r in range(arr.d + 1)
            if (x, r) in values
        }
        if len(self.entries) != len(values):
            raise ValueError("eta entries outside the flats and grades of the arrangement")

    def value(self, flat, r):
        return self.entries.get((flat, r), 0)

    def row_sums(self):
        """Totals per grade r (must equal the h-numbers of the zonotope)."""
        out = {}
        for (_, r), v in self.entries.items():
            out[r] = out.get(r, 0) + v
        return out

    def first_difference(self, other):
        """The first (flat, r), in the order of ``entries``, at which the two
        tables differ, or None when they agree."""
        for x in arrg.flats(self.arr):
            for r in range(self.arr.d + 1):
                if self.value(x, r) != other.value(x, r):
                    return x, r
        return None


# ---------------------------------------------------------------------------
# route 1: Möbius sums of h-polynomials

def _flat_h_product(flat):
    """h-polynomial of the zonotope face at a flat, by the product formulas."""
    if flat.arr.kind == arrg.KIND_C:
        return RatPoly.of(1, 1) ** (flat.arr.d - flat.dim)
    return h_of_type(arrg.flat_type(flat))


def eta_mobius(arr):
    """The full eta table via Möbius sums of face h-polynomials."""
    flats = arrg.flats(arr)
    hs = {y: _flat_h_product(y) for y in flats}
    out = {}
    for x in flats:
        poly = RatPoly.of(0)
        for y in flats:
            if arrg.flat_leq(x, y):
                poly = poly + hs[y] * Fraction(arrg.mobius(x, y))
        for r, c in enumerate(poly.coeffs):
            if c:
                if c.denominator != 1 or c < 0:
                    raise AssertionError(f"eta value {c} not a nonnegative integer")
                out[(x, r)] = int(c)
    return EtaTable(arr, "mobius_formula", out)


# ---------------------------------------------------------------------------
# route 2: permutation counts

def eta_permutations(arr):
    if arr.kind == arrg.KIND_A:
        elems = permstat.symmetric_group(arr.d)
        stats = [(s.supp(), s.exc()) for s in elems]
    elif arr.kind == arrg.KIND_B:
        elems = permstat.hyperoctahedral_group(arr.d)
        stats = [(s.supp(), s.exc_b()) for s in elems]
    else:
        raise ValueError("permutation counts exist for the braid and type B arrangements")
    out = {}
    for supp, r in stats:
        out[(supp, r)] = out.get((supp, r), 0) + 1
    return EtaTable(arr, "permutation_count", out)


# ---------------------------------------------------------------------------
# route 3: idempotent ranks in cone-weight coordinates

def _phi_vector(x, face_order):
    return x.phi().to_vector(face_order)


def _log_simplex(arr, s):
    return log_class(polyclass.simplex(arr, s))


def _leaf_path_product(sigma):
    """The product of the log-simplex classes on the leaf paths of the
    increasing forest of a permutation."""
    arr = arrg.braid(sigma.d)
    prod = PiElement.one(arr)
    for j in permstat.forest_of(sigma).leaf_paths():
        prod = prod * _log_simplex(arr, j)
    return prod


@lru_cache(maxsize=None)
def _spanning_sets_braid(d):
    """Spanning sets of each graded piece for the braid arrangement.

    Grade r takes the leaf-path products of permutations with r excedances
    that enlarge the span, until it has the full h_r dimension (certified in
    cone-weight coordinates).
    """
    arr = arrg.braid(d)
    face_order = list(arrg.faces(arr))
    h = eulerian_A(d)
    spans = {0: [PiElement.one(arr)]}
    by_r = {}
    for sigma in permstat.symmetric_group(d):
        by_r.setdefault(sigma.exc(), []).append(sigma)
    for r in range(1, d):
        target = int(h.coeff(r))
        tracker = linalg.IncrementalRank(len(face_order))
        chosen = []
        for sigma in by_r.get(r, []):
            b = _leaf_path_product(sigma)
            if tracker.add(_phi_vector(b, face_order)):
                chosen.append(b)
            if tracker.rank == target:
                break
        if tracker.rank != target:
            raise AssertionError(f"could not span grade {r} at dimension {target}")
        spans[r] = chosen
    return spans


def _spanning_sets_coordinate(d):
    """The segment-product eigenvectors, grade k holding the products over
    the k-subsets of [d]."""
    arr = arrg.coordinate(d)
    return {
        k: [_y_product(arr, s) for s in itertools.combinations(range(1, d + 1), k)]
        for k in range(d + 1)
    }


def _eta_rank(arr, family, spanning_sets):
    """eta values of arr as ranks: at a flat X and grade r, the rank of the
    images of the grade-r spanning classes under the idempotent E_X.
    ``family`` and ``spanning_sets`` map d to the idempotents and the sets."""
    if arr.d > RANK_BOUND:
        raise permstat.BoundExceededError(f"idempotent ranks are bounded at d = {RANK_BOUND}")
    face_order = list(arrg.faces(arr))
    fam = family(arr.d)
    spans = spanning_sets(arr.d)
    out = {}
    for x in arrg.flats(arr):
        ex = fam[x]
        for r, basis in spans.items():
            tracker = linalg.IncrementalRank(len(face_order))
            for b in basis:
                tracker.add(_phi_vector(b.act(ex), face_order))
            if tracker.rank:
                out[(x, r)] = tracker.rank
    return EtaTable(arr, "idempotent_rank", out)


def eta_idempotent_rank(d):
    """Braid-arrangement eta values as ranks of idempotent images."""
    return _eta_rank(arrg.braid(d), titsalgebra.adams_family, _spanning_sets_braid)


def eta_gamma_rank(d):
    """Coordinate-arrangement eta values as ranks of idempotent images,
    using the segment-product eigenvectors as the spanning sets."""
    return _eta_rank(arrg.coordinate(d), titsalgebra.gamma_family, _spanning_sets_coordinate)


def _y_product(arr, s):
    prod = PiElement.one(arr)
    for i in s:
        e = [0] * arr.d
        e[i - 1] = 1
        prod = prod * log_class(polyclass.segment(arr, tuple(e)))
    return prod


# ---------------------------------------------------------------------------
# the conjectural simultaneous eigenbasis (braid)

def x_sigma(sigma):
    """Path-product eigenvector candidate attached to a permutation."""
    return _leaf_path_product(sigma).act(titsalgebra.adams_family(sigma.d)[sigma.supp()])


def x_flat(flat):
    """The extremal product over the blocks of a flat: for each block, all
    segments from its minimum."""
    arr = flat.arr
    prod = PiElement.one(arr)
    for block in arrg.flat_blocks(flat)[1]:
        m = min(block)
        for j in sorted(block):
            if j != m:
                prod = prod * _log_simplex(arr, frozenset({m, j}))
    return prod


def conjecture_check(d):
    """Independence of the x_sigma families, grouped by (support, excedance).

    The extremal grades (one excedance per non-singleton block count, and the
    maximal grade) are theorems and must pass; the intermediate grades are
    the conjectural part and are reported.
    """
    if d > 4:
        raise permstat.BoundExceededError("the full independence check is bounded at d = 4")
    arr = arrg.braid(d)
    face_order = list(arrg.faces(arr))
    fam = titsalgebra.adams_family(d)
    eta = eta_mobius(arr)
    groups = {}
    for sigma in permstat.symmetric_group(d):
        groups.setdefault((sigma.supp(), sigma.exc()), []).append(sigma)
    records = []
    all_pass = True
    for (x, r), sigmas in sorted(
        groups.items(), key=lambda kv: (arrg._flat_sort_key(kv[0][0]), kv[0][1])
    ):
        tracker = linalg.IncrementalRank(len(face_order))
        vectors = [x_sigma(s) for s in sigmas]
        for v in vectors:
            tracker.add(_phi_vector(v, face_order))
        expected = eta.value(x, r)
        ok = tracker.rank == len(sigmas) == expected
        all_pass = all_pass and ok
        non_singletons = sum(1 for b in arrg.flat_blocks(x)[1] if len(b) > 1)
        extremal = r == non_singletons or r == d - x.dim
        records.append(
            {
                "flat": arrg.flat_str(x),
                "r": r,
                "count": len(sigmas),
                "rank": tracker.rank,
                "eta": expected,
                "ok": ok,
                "extremal": extremal,
            }
        )
    # the closed-form extremal elements
    extremal_ok = True
    for x in arrg.flats(arr):
        xe = x_flat(x)
        if xe.phi().is_zero():
            extremal_ok = False
        acted = xe.act(fam[x])
        if not polyclass.pi_equal(acted, xe):
            extremal_ok = False
    return {
        "d": d,
        "groups": records,
        "all_independent": all_pass,
        "extremal_products_fixed": extremal_ok,
    }


# ---------------------------------------------------------------------------
# cube eigenbasis

def y_basis_cube(d):
    """The 2^d segment-product eigenvectors of the cube algebra."""
    if d > 5:
        raise permstat.BoundExceededError("the cube eigenbasis check is bounded at d = 5")
    arr = arrg.coordinate(d)
    face_order = list(arrg.faces(arr))
    fam = titsalgebra.gamma_family(d)
    cube = polyclass.cube(d)
    tracker = linalg.IncrementalRank(len(face_order))
    records = []
    ok_all = True
    for k in range(0, d + 1):
        for s in itertools.combinations(range(1, d + 1), k):
            y = _y_product(arr, s)
            flat = arrg.flat_of_blocks(arr, s, ())
            nonzero = not y.phi().is_zero()
            graded = y.dilate(2).phi() == y.phi().scale(Fraction(2) ** k)
            fixed = polyclass.pi_equal(y.act(fam[flat]), y)
            # inclusion-exclusion expansion over cube faces
            alt = PiElement.zero(arr)
            for t in arrg._subsets(s):
                sign = (-1) ** (len(s) - len(t))
                face = titsalgebra._first_orthant_face(arr, frozenset(t))
                alt = alt + PiElement.of(cube.face_max(face), sign)
            expansion = polyclass.pi_equal(y, alt)
            indep = tracker.add(_phi_vector(y, face_order))
            ok = nonzero and graded and fixed and expansion and indep
            ok_all = ok_all and ok
            records.append(
                {
                    "S": sorted(s),
                    "nonzero": nonzero,
                    "graded": graded,
                    "idempotent_fixed": fixed,
                    "face_expansion": expansion,
                    "independent": indep,
                }
            )
    return {"d": d, "ok": ok_all and tracker.rank == 2 ** d, "records": records}


# ---------------------------------------------------------------------------
# signed-Minkowski generators

@dataclass(frozen=True)
class GeneratorFamilyB:
    d: int
    members: tuple  # of ("simplex" | "simplex0", frozenset)

    def non_point_members(self):
        return [
            (kind, s)
            for kind, s in self.members
            if not (kind == "simplex" and len(s) == 1)
        ]

    def full_dimensional(self):
        return [(k, s) for k, s in self.members if k == "simplex0" and len(s) == self.d]

    def polytope(self, member):
        kind, s = member
        arr = arrg.type_b(self.d)
        if kind == "simplex":
            return polyclass.simplex(arr, s)
        return polyclass.simplex0(arr, s)

    @staticmethod
    def label(member):
        kind, s = member
        return simplex_label(s, zero=kind == "simplex0")


def simplex_label(s, zero=False):
    """Delta{...}, or Delta0{...} for the simplex with the origin: the
    elements of s by absolute value, the positive one first."""
    body = ",".join(str(e) for e in sorted(s, key=lambda e: (abs(e), e < 0)))
    return ("Delta0{" if zero else "Delta{") + body + "}"


def special_subsets(d):
    """Involution-exclusive subsets of [±d] containing the positive element
    of smallest absolute value."""
    out = []
    for abs_vals in arrg._subsets(tuple(range(1, d + 1))):
        if not abs_vals:
            continue
        rest = abs_vals[1:]
        for signs in itertools.product((1, -1), repeat=len(rest)):
            s = frozenset([abs_vals[0]]) | frozenset(a * e for a, e in zip(rest, signs))
            out.append(s)
    out.sort(key=lambda s: (len(s), sorted((abs(e), e < 0) for e in s)))
    return out


def b_generators(d):
    members = []
    for s in special_subsets(d):
        if len(s) >= 2:
            members.append(("simplex", s))
    for s in special_subsets(d):
        members.append(("simplex0", s))
    for s in special_subsets(d):
        if len(s) == 1:
            members.append(("simplex", s))  # points, carrying translations
    return GeneratorFamilyB(d, tuple(members))


def _edge_weight_rows(arr, gens, gen_polys):
    """(the walls, the factored matrix with one row per wall and one column
    per generator: the generators' edge lengths at the wall)."""
    face_order = arrg.walls(arr)
    cols = [polyclass.psi1(gen_polys[g]).to_vector(face_order) for g in gens]
    return face_order, linalg.Factorization(zip(*cols))


@lru_cache(maxsize=None)
def _b_system(d):
    arr = arrg.type_b(d)
    family = b_generators(d)
    gens = tuple(family.non_point_members())
    polys = {g: family.polytope(g) for g in gens}
    return (family, gens, polys) + _edge_weight_rows(arr, gens, polys)


@lru_cache(maxsize=None)
def _a_system(d):
    arr = arrg.braid(d)
    gens = tuple(
        frozenset(s)
        for k in range(2, d + 1)
        for s in itertools.combinations(range(1, d + 1), k)
    )
    polys = {s: polyclass.simplex(arr, s) for s in gens}
    return (gens, polys) + _edge_weight_rows(arr, gens, polys)


def _edge_length_solve(p, kind, dmax, system, needs):
    """The unique coordinates of p in the generators of ``system`` (whose
    last four entries are gens, polys, faces and the factored matrix), from
    its edge lengths."""
    if p.arr.d > dmax or p.arr.kind != kind:
        raise ValueError(f"{needs} with d <= {dmax}")
    gens, _, face_order, matrix = system(p.arr.d)[-4:]
    rhs = polyclass.psi1(p).to_vector(face_order)
    return dict(zip(gens, linalg.solve_unique(matrix, rhs)))


def b_decompose(p):
    """Unique signed-Minkowski coordinates of a type-B deformation in the
    special-simplex family (non-point members; points absorb translations)."""
    return _edge_length_solve(
        p, arrg.KIND_B, 4, _b_system, "type-B decompositions need a type-B deformation"
    )


def a_decompose(p):
    """Coordinates of a braid deformation in the simplex-face basis."""
    return _edge_length_solve(
        p, arrg.KIND_A, 5, _a_system, "type-A decompositions need a braid deformation"
    )


def reconstruction_holds(p, coeffs, polys):
    """Vertex-level signed-Minkowski identity:
    p + sum_{c<0} |c| gen = sum_{c>0} c gen, up to translation."""
    lhs = p
    rhs = None
    for g, c in coeffs.items():
        if c == 0:
            continue
        piece = polys[g].dilate(abs(c))
        if c < 0:
            lhs = lhs.minkowski(piece)
        else:
            rhs = piece if rhs is None else rhs.minkowski(piece)
    if rhs is None:
        rhs = polyclass._point(p.arr)
    return lhs.normalized() == rhs.normalized()


def random_b_deformation(d, rng, max_terms=6):
    """A random nonnegative integral combination of the generator family."""
    family, gens, polys, _, _ = _b_system(d)
    acc = polyclass._point(arrg.type_b(d))
    used = {}
    count = rng.randint(1, max_terms)
    for g in rng.sample(list(gens), min(count, len(gens))):
        c = rng.choice((1, 1, 2))
        used[g] = Fraction(c)
        acc = acc.minkowski(polys[g].dilate(c))
    return acc, used
