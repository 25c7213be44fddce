"""Exact V-representation calculus for deformations of the ambient zonotope,
classes in the polytope algebra, and their faithful cone-weight coordinates.

A polytope is stored by its vertex set, as sorted integer points over one
denominator, on which every sum, dilate, translate and face is computed;
``verts`` reads them as exact rationals.  Everything exploits the
deformation property: the normal fan of a deformation coarsens the
arrangement fan, so argmax queries at chamber interior points extract
vertices, and argmax at interior points of an arbitrary arrangement face F
yields the face of the polytope attached to F, independently of the chosen
interior point.  A face sum acts on classes through ``PiElement.act``, the
bilinear extension of this face map.  Outside points become a polytope
only through ``VPolytope``: one point maximizes at each chamber, these
pass the wall-crossing test on the walls (the faces of dimension d-1), and
every other point lies in their hull; every number that enters must be
exact.  A Minkowski sum adds the summands' vertices at each chamber.  The
edges are the vertex pairs at the two chambers beside a wall:
``slice_polytope`` cuts them there, and ``psi1`` reads their lengths
there.

The linear coordinates of a class are its cone weights: the weight at an
arrangement face F is the normalized volume of the polytope's face at F,
counted only when that face has complementary dimension.  It is a sum over
the chambers above F, Lawrence's formula in the vertices there, which gives
the volume on the whole deformation cone (McMullen's polynomiality) and so
0 where the face has a lower dimension.  This map is linear, kills
translations, vanishes on valuation relations, and is injective on the
span of deformation classes, so all equality and rank questions are
settled here.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from . import arrangement as arrg
from . import linalg
from .gfseries import RatPoly
from .linalg import _ZERO, Combination, to_integers


class NotDeformationError(ValueError):
    """The given points are not the vertices of a deformation of the zonotope."""


# (arr, den, integer points) -> the live polytope with these vertices
_INTERN = weakref.WeakValueDictionary()


@lru_cache(maxsize=None)
def _chamber_vectors(arr):
    return tuple(arrg.interior_point(ch) for ch in arrg.chambers(arr))


class VPolytope:
    """A polytope given by its exact vertex set, tagged by the arrangement.

    ``_ipts`` are the distinct vertices, sorted, scaled to integers by the
    least such ``_den``; ``verts`` gives them as ``Fraction`` tuples in the
    same order.  Polytopes are interned: building one equal to a live
    polytope (same arrangement, same vertex set) returns that object, so
    equality and hashing are by identity.
    """

    __slots__ = (
        "arr", "_den", "_ipts", "_dim", "_face_cache", "_lattice", "_weights",
        "_normal", "__weakref__",
    )

    def __new__(cls, arr, points, assume_vertices=False):
        pts = _dedup(points)
        if not pts:
            raise ValueError("a polytope needs at least one point")
        if len({len(p) for p in pts}) != 1 or len(pts[0]) != arr.d:
            raise ValueError("points must all live in the ambient dimension")
        den, ipts = _int_coords(pts)
        return _polytope(arr, den, ipts if assume_vertices else _deformation_vertices(arr, den, ipts))

    @property
    def verts(self):
        """The vertices as ``Fraction`` tuples, in the order of ``_ipts``;
        built on each read, never stored."""
        den = self._den
        return tuple(tuple(Fraction(c, den) for c in q) for q in self._ipts)

    def __repr__(self):
        return f"VPolytope({self.arr.kind}{self.arr.d}, {len(self._ipts)} vertices, dim {self.dim})"

    @property
    def dim(self):
        if self._dim is None:
            self._dim = self._face_dim(frozenset(range(len(self._ipts))))
        return self._dim

    def _face_dim(self, fs):
        """Dimension of the face with vertex indices ``fs``."""
        if len(fs) <= 2:
            return len(fs) - 1
        base, *rest = (self._ipts[i] for i in sorted(fs))
        return linalg.rank([[a - b for a, b in zip(q, base)] for q in rest])

    # -- faces ------------------------------------------------------------

    def face_set(self, face):
        """Vertex-index set of the face of this polytope attached to an
        arrangement face: the vertices maximizing its interior point."""
        return frozenset(_argmax(self._ipts, arrg.interior_point(face)))

    def face_max(self, face):
        """The face of the polytope maximal in the directions of an
        arrangement face (the module action of that face)."""
        if face.arr != self.arr:
            raise ValueError("face from a different arrangement")
        q = self._face_cache.get(face)
        if q is None:
            fs = self.face_set(face)
            q = self._face_cache[face] = _polytope(self.arr, self._den, [self._ipts[i] for i in fs])
        return q

    def lattice(self):
        """All distinct faces (as vertex-index sets) with their dimensions."""
        if self._lattice is None:
            lat = {}
            for face in arrg.faces(self.arr):
                fs = self.face_set(face)
                if fs not in lat:
                    lat[fs] = self._face_dim(fs)
            self._lattice = lat
        return self._lattice

    def f_vector(self):
        lat = self.lattice()
        out = [0] * (self.dim + 1)
        for _, dim in lat.items():
            out[dim] += 1
        return tuple(out)

    def h_polynomial(self):
        """h(p, z) = f(p, z-1)."""
        zm1 = RatPoly.of(-1, 1)
        acc = RatPoly.of(0)
        for i, f in enumerate(self.f_vector()):
            acc = acc + zm1 ** i * Fraction(f)
        return acc

    # -- polytope operations -------------------------------------------------

    def translate(self, t):
        t = tuple(map(_rational, t))
        if len(t) != self.arr.d:
            raise ValueError(f"a translation needs {self.arr.d} coordinates, got {len(t)}")
        den_t, (it,) = _int_coords([t])
        return _sum(self.arr, self._den, den_t, [(q, it) for q in self._ipts])

    def normalized(self):
        """Translate the lexicographically least vertex to the origin."""
        if self._normal is None:
            base = self._ipts[0]
            if not any(base):
                self._normal = self
            else:
                shifted = [tuple(map(operator.sub, q, base)) for q in self._ipts]
                self._normal = _polytope(self.arr, self._den, shifted)
        return self._normal

    def minkowski(self, other):
        if self.arr != other.arr:
            raise ValueError("polytopes over different arrangements")
        # the vertex of a sum of deformations at a chamber is the sum of the
        # summands' vertices there, and each vertex maximizes at some chamber
        at = zip(_chamber_sweep(self.arr, self._ipts), _chamber_sweep(self.arr, other._ipts))
        pairs = [(self._ipts[i], other._ipts[j]) for i, j in set(at)]
        return _sum(self.arr, self._den, other._den, pairs)

    def dilate(self, lam):
        lam = _rational(lam)
        if lam < 0:
            raise ValueError("dilation requires a nonnegative scalar")
        if lam == 0:
            return _point(self.arr)
        n = lam.numerator
        return _polytope(self.arr, self._den * lam.denominator, [tuple(n * c for c in q) for q in self._ipts])


def _polytope(arr, den, points):
    """The polytope over ``arr`` whose vertices are the integer ``points``
    divided by ``den`` > 0, in lowest terms: the only maker of a
    ``VPolytope``, which it interns."""
    ipts = sorted(set(points))
    g = gcd(den, *itertools.chain.from_iterable(ipts)) if den > 1 else 1
    if g > 1:
        den //= g
        ipts = [tuple(c // g for c in q) for q in ipts]
    key = (arr, den, tuple(ipts))
    self = _INTERN.get(key)
    if self is None:
        self = object.__new__(VPolytope)
        self.arr, self._den, self._ipts = key
        self._dim = None
        self._face_cache = {}
        self._lattice = None
        self._weights = None
        self._normal = None
        _INTERN[key] = self
    return self


def _sum(arr, den_p, den_q, pairs):
    """The polytope whose vertices are the sums p / den_p + q / den_q over
    the integer pairs (p, q) of ``pairs``."""
    den = lcm(den_p, den_q)
    a, b = den // den_p, den // den_q
    return _polytope(arr, den, [tuple(a * x + b * y for x, y in zip(p, q)) for p, q in pairs])


def _dedup(points):
    """The distinct points, in order, each a tuple of ``Fraction``s."""
    return list(dict.fromkeys(tuple(map(_rational, p)) for p in points))


def _rational(c):
    """An exact number from an int, a ``Fraction`` or a string such as "1/2";
    a float or a bool would be read as something else, so it is rejected."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction, str)):
        raise ValueError(f'a number must be an integer, a Fraction or a string such as "1/2", got {c!r}')
    return Fraction(c)


def _int_coords(verts):
    """(den, points): the least common denominator of the coordinates and
    the points scaled by it to integers."""
    d = len(verts[0])
    den, ints = to_integers([c for v in verts for c in v])
    return den, tuple(tuple(ints[i:i + d]) for i in range(0, len(ints), d))


def _argmax(ipts, w):
    """Indices of the integer points maximizing the integer direction w."""
    vals = [sum(map(operator.mul, q, w)) for q in ipts]
    best = max(vals)
    return [i for i, v in enumerate(vals) if v == best]


def _chamber_sweep(arr, ipts):
    """The index of the integer point that maximizes at each chamber, in
    the order of ``_chamber_vectors``; a tie names its chamber."""
    at = []
    for c, w in enumerate(_chamber_vectors(arr)):
        i, *more = _argmax(ipts, w)
        if more:
            raise NotDeformationError(f"several points maximize at the chamber {arrg.chambers(arr)[c]}")
        at.append(i)
    return at


@lru_cache(maxsize=None)
def _wall_table(arr):
    """For every wall: the wall, the indices (as in ``_chamber_vectors``) of
    the chambers on the positive and the negative side of its hyperplane
    x_a = x_b, the hyperplane's normal n, and a - 1, where n is 1."""
    index = {ch: c for c, ch in enumerate(arrg.chambers(arr))}
    normals = hyperplane_normals(arr)
    out = []
    for wall in arrg.walls(arr):
        bit = arrg.support(wall).zero  # the one hyperplane the wall lies in
        n = normals[bit.bit_length() - 1]
        plus, minus = arrg.Face(arr, wall.pos | bit, wall.neg), arrg.Face(arr, wall.pos, wall.neg | bit)
        out.append((wall, index[plus], index[minus], n, n.index(1)))
    return tuple(out)


def _deformation_vertices(arr, den, ipts):
    """The vertices of the hull of the points ``ipts`` / ``den``, which must
    be a deformation of the zonotope: one point maximizes at each chamber;
    these pass the wall-crossing test (Postnikov-Reiner-Williams 2008;
    Ardila-Castillo-Eur-Postnikov 2020); and every other point lies in their
    hull, or else it would be a vertex that maximizes at no chamber."""
    at = _chamber_sweep(arr, ipts)
    for wall, plus, minus, normal, a in _wall_table(arr):
        if at[plus] != at[minus]:
            # the points on the two sides differ along n: as n_a = 1, by diff_a n
            diff = list(map(operator.sub, ipts[at[plus]], ipts[at[minus]]))
            if diff != [diff[a] * n for n in normal]:
                raise NotDeformationError(f"the vertices across the wall {wall} differ off its normal")
    chosen = set(at)
    rest = [i for i in range(len(ipts)) if i not in chosen]
    for w in _outer_directions(arr) if rest else ():
        top, i = max((sum(map(operator.mul, w, ipts[r])), r) for r in rest)
        if all(sum(map(operator.mul, w, ipts[j])) < top for j in chosen):
            raise NotDeformationError(f"point {_point_str(den, ipts[i])} lies outside the hull of the vertices")
    return [ipts[i] for i in chosen]


def check_deformation(p):
    """The tests that ``VPolytope`` runs on raw points, for a polytope built
    with ``assume_vertices``, each of whose vertices must also maximize at
    some chamber."""
    idle = sorted(set(p._ipts) - set(_deformation_vertices(p.arr, p._den, p._ipts)))
    if idle:
        raise NotDeformationError(f"the vertex {_point_str(p._den, idle[0])} maximizes at no chamber")
    return True


def _point_str(den, q):
    return [str(Fraction(c, den)) for c in q]


# ---------------------------------------------------------------------------
# cone weights

class ConeWeights(Combination):
    """Sparse rational weights on the faces of an arrangement."""

    __slots__ = ()

    def to_vector(self, face_order):
        return [self.terms.get(f, _ZERO) for f in face_order]

    def to_json(self):
        return arrg.face_terms_json(self.terms)


@lru_cache(maxsize=None)
def _lawrence_table(arr):
    """(c, rows): c = (1, 3, ..., 3^(d-1)), on no hyperplane, and per face F
    (in the order of ``faces``) a row (F, k, den, terms), k = d - dim F, with
    weight_P(F) = sum n <c, v_P(C)>^k / den over the terms (C, n), C the
    index of a chamber above F.  This is Lawrence's volume formula (1991)
    for P_F: at C its tangent cone is spanned by the normals g of the walls
    W >= F of C, turned away from C, and n / den = 1 / (k! prod -<c, g>).
    The formula also divides by the lattice index of these g, which is 1:
    the normals of the walls of a chamber are a basis of the lattice that
    the hyperplane normals span, and that lattice is saturated in Z^d.
    The chambers above F are walked from F C_0 across the walls above F."""
    c = [3 ** i for i in range(arr.d)]
    around = [[] for _ in _chamber_vectors(arr)]  # chamber -> (wall, the chamber across, -<c, g>)
    for wall, plus, minus, n, _ in _wall_table(arr):
        cn = sum(map(operator.mul, c, n))
        around[plus].append((wall, minus, cn))  # g = -n points from plus to minus
        around[minus].append((wall, plus, -cn))
    index = {ch: i for i, ch in enumerate(arrg.chambers(arr))}
    rows = []
    for face in arrg.faces(arr):
        first = index[arrg.tits_product(face, arrg.chambers(arr)[0])]
        seen, todo, terms = {first}, [first], []
        while todo:
            ch = todo.pop()
            height = 1  # prod -<c, g> over the walls above F
            for wall, other, cg in around[ch]:
                if arrg.face_leq(face, wall):
                    height *= cg
                    if other not in seen:
                        seen.add(other)
                        todo.append(other)
            terms.append((ch, height))
        k = arr.d - face.dim
        den = lcm(*(h for _, h in terms))
        rows.append((face, k, factorial(k) * den, tuple((ch, den // h) for ch, h in terms)))
    return c, tuple(rows)


def _lawrence_sums(p, walls_only=False):
    """The nonzero weights of [p] at every face, or at the walls only, by
    the formula of ``_lawrence_table`` on the vertices at the chambers."""
    c, rows = _lawrence_table(p.arr)
    heights = [sum(map(operator.mul, c, q)) for q in p._ipts]
    s = [heights[i] for i in _chamber_sweep(p.arr, p._ipts)]
    out = {}
    for face, k, den, terms in rows:
        if walls_only and k != 1:
            continue
        if total := sum(n * s[ch] ** k for ch, n in terms):
            out[face] = Fraction(total, den * p._den ** k)
    return out


def polytope_cone_weights(p):
    """Cone weights of the single class [p], computed once per polytope."""
    if p._weights is None:
        p._weights = ConeWeights._make(p.arr, _lawrence_sums(p))
    return p._weights


# ---------------------------------------------------------------------------
# classes in the polytope algebra

class PiElement(Combination):
    """A formal rational combination of translation-normalized polytope
    classes.  Linear structure is formal; equality of classes is decided in
    cone-weight coordinates."""

    __slots__ = ()

    @staticmethod
    def _key(p):
        return p.normalized()

    @classmethod
    def of(cls, p, coeff=1):
        return cls(p.arr, {p: coeff})

    @classmethod
    def one(cls, arr):
        return cls.of(_point(arr))

    def __mul__(self, other):
        """Product of classes: Minkowski sum on representatives."""
        self._check(other)
        return PiElement.bilinear(self.arr, self.terms, other.terms, VPolytope.minkowski)

    def power(self, n):
        acc = PiElement.one(self.arr)
        for _ in range(n):
            acc = acc * self
        return acc

    def dilate(self, lam):
        return PiElement(self.arr, {p.dilate(lam): c for p, c in self.terms.items()})

    def degree0(self):
        """Coefficient of the point class in the degree decomposition."""
        return sum(self.terms.values(), _ZERO)

    def act(self, element):
        """Module action of a face sum: the bilinear extension of [p] H_F = [p_F]."""
        if element.arr != self.arr:
            raise ValueError("acting element over a different arrangement")
        return PiElement.bilinear(self.arr, element.terms, self.terms, lambda f, p: p.face_max(f))

    def phi(self):
        """Cone-weight coordinates of the class."""
        return ConeWeights.linear(self.arr, self.terms.items(), lambda p: polytope_cone_weights(p).terms)


def _point(arr):
    return _polytope(arr, 1, [(0,) * arr.d])


def pi_equal(x, y):
    """Equality of classes, decided in the faithful cone-weight coordinates."""
    return (x - y).phi().is_zero()


# ---------------------------------------------------------------------------
# log, exp, grading

def log_class(p):
    """The logarithm of a polytope class, as a finite combination of dilates.

    Expands log(1 + ([p]-1)) using [p]^j = [jp] and the nilpotency of
    [p] - 1 beyond the dimension of p.
    """
    k = p.dim
    arr = p.arr
    if k == 0:
        return PiElement.zero(arr)
    coeffs = [Fraction(0)] * (k + 1)
    for r in range(1, k + 1):
        outer = Fraction((-1) ** (r - 1), r)
        for j in range(r + 1):
            sign = (-1) ** (r - j)
            coeffs[j] += outer * comb(r, j) * sign
    out = PiElement.zero(arr)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        out = out + PiElement.of(p.dilate(j), c)
    return out


def exp_class(x):
    """Inverse of the logarithm on classes with zero degree-0 part."""
    if x.degree0() != 0:
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


# ---------------------------------------------------------------------------
# standard polytopes

def permutahedron(d):
    return _polytope(arrg.braid(d), 1, itertools.permutations(range(1, d + 1)))


def typeB_permutahedron(d):
    verts = []
    for p in itertools.permutations(range(1, d + 1)):
        for signs in itertools.product((1, -1), repeat=d):
            verts.append(tuple(map(operator.mul, p, signs)))
    return _polytope(arrg.type_b(d), 1, verts)


def cube(d):
    return _polytope(arrg.coordinate(d), 1, itertools.product((0, 1), repeat=d))


def _unit(arr, e):
    """Signed standard basis point: e in [±d] gives ±e_{|e|}."""
    v = [0] * arr.d
    v[abs(e) - 1] = 1 if e > 0 else -1
    return tuple(v)


def simplex(arr, indices):
    """Conv{e_i : i in S}; for type B the indices are signed and S must be
    involution-exclusive."""
    s = frozenset(indices)
    if arr.kind == arrg.KIND_A:
        if not s or not all(1 <= i <= arr.d for i in s):
            raise ValueError("simplex index set must be a nonempty subset of [d]")
    else:
        if not s or s & frozenset(-e for e in s):
            raise ValueError("simplex index set must be involution-exclusive")
    return _polytope(arr, 1, [_unit(arr, e) for e in s])


def simplex0(arr, indices):
    """Conv({0} ∪ {e_i : i in S}) for involution-exclusive signed S (type B)."""
    s = frozenset(indices)
    if not s or s & frozenset(-e for e in s):
        raise ValueError("index set must be nonempty and involution-exclusive")
    return _polytope(arr, 1, [(0,) * arr.d] + [_unit(arr, e) for e in s])


def segment(arr, v):
    return VPolytope(arr, [(0,) * arr.d, v])


def hyperplane_normals(arr):
    """The integer normal e_a - e_b of each hyperplane x_a = x_b of
    ``arrg.hyperplanes``, with e_{-i} = -e_i and e_0 = 0."""
    return [
        tuple((a == i) - (a == -i) - (b == i) + (b == -i) for i in range(1, arr.d + 1))
        for a, b in arrg.hyperplanes(arr)
    ]


def zonotope_of(arr):
    """The Minkowski sum of the segments Conv{0, v_H} over all hyperplanes."""
    acc = _point(arr)
    for v in hyperplane_normals(arr):
        acc = acc.minkowski(segment(arr, v))
    return acc


# ---------------------------------------------------------------------------
# slicing (generates valuation relations)

def slice_polytope(p, normal, c):
    """Cut a deformation by the hyperplane <normal, x> = c; returns (lower,
    upper, section).

    The level c must lie strictly between the minimum and maximum of the
    normal over the polytope.  The cuts lie on the edges, each of which joins
    the vertices at the two chambers beside some wall.  Each piece is built
    from its points, so cuts that break the deformation property (which can
    happen for a normal such as e_1 - e_2 in dimension >= 3) are rejected.
    """
    arr = p.arr
    normal = tuple(map(_rational, normal))
    if len(normal) != arr.d:
        raise ValueError(f"a normal needs {arr.d} coordinates, got {len(normal)}")
    c = _rational(c)
    verts = p.verts
    vals = [sum(map(operator.mul, v, normal)) for v in verts]
    lo, hi = min(vals), max(vals)
    if not (lo < c < hi):
        raise ValueError(f"slice level {c} outside the open range ({lo}, {hi})")
    lower = [v for v, x in zip(verts, vals) if x <= c]
    upper = [v for v, x in zip(verts, vals) if x >= c]
    section = [v for v, x in zip(verts, vals) if x == c]
    at = _chamber_sweep(arr, p._ipts)
    for _, plus, minus, _, _ in _wall_table(arr):
        i, j = at[plus], at[minus]
        if vals[i] < c < vals[j] or vals[j] < c < vals[i]:
            t = (c - vals[i]) / (vals[j] - vals[i])
            cut = tuple(x + t * (y - x) for x, y in zip(verts[i], verts[j]))
            lower.append(cut)
            upper.append(cut)
            section.append(cut)
    return VPolytope(arr, lower), VPolytope(arr, upper), VPolytope(arr, section)


def valuation_relation(p, normal, c):
    """[lower] + [upper] - [whole] - [section] as a formal class combination."""
    p_le, p_ge, p_eq = slice_polytope(p, normal, c)
    return (
        PiElement.of(p_le) + PiElement.of(p_ge) - PiElement.of(p) - PiElement.of(p_eq)
    )


# ---------------------------------------------------------------------------
# degree-1 weights (edge lengths), computed without expanding the log

def psi1(p):
    """Cone weights of log[p]: lattice edge lengths on complementary faces.

    Equals phi(log_class(p)) restricted to the walls (the faces of
    dimension d-1), which are the cone weights of [p] there.
    """
    return ConeWeights._make(p.arr, _lawrence_sums(p, walls_only=True))


# ---------------------------------------------------------------------------
# serialization

def polytope_to_json(p):
    return {
        "arrangement": p.arr.kind,
        "d": p.arr.d,
        "points": [[str(c) for c in v] for v in p.verts],
    }


def polytope_from_json(data):
    arr = arrg.arrangement_named(data["arrangement"], data["d"])
    return VPolytope(arr, data["points"])


@lru_cache(maxsize=None)
def _outer_directions(arr):
    """Directions w whose bounds <w, x> <= max <w, v> over the vertices v cut
    out every deformation: the interior point of every ray of the fan (a face
    whose support covers the bottom flat), and ± the vector of every block
    of the bottom flat, whose coordinate sum is constant on a deformation."""
    bottom = arrg.bottom_flat(arr)
    covers = (x for x in arrg.flats(arr) if x.dim == bottom.dim + 1)
    out = [arrg.interior_point(f) for x in covers for f in arrg.faces_with_support(arr, x)]
    for block in arrg.flat_blocks(bottom)[1]:
        ell = tuple((i in block) - (-i in block) for i in range(1, arr.d + 1))
        out += [ell, tuple(-c for c in ell)]
    return tuple(out)
