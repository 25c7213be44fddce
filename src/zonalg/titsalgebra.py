"""Rational face sums (the monoid algebra of the Tits product), the flats
algebra with its H/Q bases, characters, characteristic elements, and two
explicit complete families of orthogonal idempotents indexed by flats.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import attrgetter

from . import arrangement as arrg
from .linalg import Combination


class TitsElement(Combination):
    """A sparse rational combination of faces, in the basis {H_F}."""

    __slots__ = ()

    @classmethod
    def basis(cls, face):
        return cls._make(face.arr, {face: Fraction(1)})

    @classmethod
    def unit(cls, arr):
        return cls.basis(arrg.central_face(arr))

    def __mul__(self, other):
        """Bilinear extension of the Tits product."""
        self._check(other)
        return TitsElement.bilinear(self.arr, self.terms, other.terms, arrg.tits_product)

    def support_image(self):
        """Apply the support map coefficientwise; lands in the flats algebra."""
        return FlatsElement.linear(self.arr, self.terms.items(), lambda f: {arrg.support(f): 1})


class FlatsElement(Combination):
    """A sparse rational combination of flats (H basis of the flats algebra)."""

    __slots__ = ()

    @classmethod
    def basis(cls, flat):
        return cls._make(flat.arr, {flat: Fraction(1)})

    def __mul__(self, other):
        """H_X H_Y = H_{X v Y} extended bilinearly."""
        self._check(other)
        return FlatsElement.bilinear(self.arr, self.terms, other.terms, arrg.flat_join)


def q_basis_element(flat):
    """Q_X = sum_{Y >= X} mu(X, Y) H_Y, the orthogonal idempotent at X."""
    out = {}
    for y in arrg.flats_geq(flat):
        out[y] = Fraction(arrg.mobius(flat, y))
    return FlatsElement(flat.arr, out)


# ---------------------------------------------------------------------------
# characters and characteristic elements

def char_on_simple(w, flat):
    """Character of the simple module at a flat: sum of w^F over supp(F) <= X."""
    total = Fraction(0)
    for f, c in w.terms.items():
        if arrg.flat_leq(arrg.support(f), flat):
            total += c
    return total


def is_characteristic(w, t):
    """True iff the character at every flat X equals t^{dim X}."""
    t = Fraction(t)
    return all(char_on_simple(w, x) == t ** x.dim for x in arrg.flats(w.arr))


# ---------------------------------------------------------------------------
# Eulerian families

class EulerianFamily:
    """A complete family of orthogonal idempotents indexed by flats:
    ``elements`` maps each flat to its TitsElement, in flats(arr) order."""

    __slots__ = ("arr", "elements")

    def __init__(self, arr, elements):
        self.arr = arr
        self.elements = elements

    def __getitem__(self, flat):
        return self.elements[flat]

    def completeness_defect(self):
        unit = TitsElement.unit(self.arr)
        pairs = [(e, 1) for e in self.elements.values()] + [(unit, -1)]
        return TitsElement.linear(self.arr, pairs, attrgetter("terms"))

    def check(self):
        """Idempotency, orthogonality, completeness, supports and the support
        condition on coefficients; raises AssertionError on failure."""
        def demand(cond, msg):
            if not cond:
                raise AssertionError(msg)

        demand(self.completeness_defect().is_zero(), "family does not sum to H_O")
        for x, e in self.elements.items():
            demand((e * e - e).is_zero(), f"E_{x} not idempotent")
            demand(e.support_image() == q_basis_element(x), f"supp(E_{x}) != Q_{x}")
            has_exact = False
            for f in e.terms:
                s = arrg.support(f)
                demand(arrg.flat_leq(x, s), f"E_{x} has a term below its flat")
                if s == x:
                    has_exact = True
            demand(has_exact, f"E_{x} vanishes on support {x}")
        for x, e in self.elements.items():
            for y, g in self.elements.items():
                if x != y:
                    demand((e * g).is_zero(), f"E_{x} E_{y} != 0")
        return True


def _binomial(t, k):
    """(t choose k) for rational t: falling factorial over k!."""
    t = Fraction(t)
    num = Fraction(1)
    for i in range(k):
        num *= t - i
    return num / factorial(k)


def adams_element(d, t):
    """The braid-arrangement characteristic element sum_F (t choose dim F) H_F."""
    arr = arrg.braid(d)
    out = {}
    for f in arrg.faces(arr):
        c = _binomial(t, f.dim)
        if c:
            out[f] = c
    return TitsElement(arr, out)


@lru_cache(maxsize=None)
def adams_family(d):
    """The Eulerian idempotents attached to the Adams elements.

    E_X = (1/dim(X)!) sum_{supp F = X} sum_{G >= F} (-1)^{dim(G/F)}/deg(G/F) H_G,
    with deg(G/F) the product over blocks S of F of the number of G-blocks in S.
    """
    arr = arrg.braid(d)
    all_faces = arrg.faces(arr)
    family = {}
    for x in arrg.flats(arr):
        out = {}
        pref = Fraction(1, factorial(x.dim))
        for f in arrg.faces_with_support(arr, x):
            for g in all_faces:
                if not arrg.face_leq(f, g):
                    continue
                deg = 1
                blocks_g = arrg.flat_blocks(arrg.support(g))[1]
                for block in arrg.flat_blocks(x)[1]:
                    deg *= sum(1 for b in blocks_g if b <= block)
                sign = -1 if (g.dim - f.dim) % 2 else 1
                out[g] = out.get(g, Fraction(0)) + pref * Fraction(sign, deg)
        family[x] = TitsElement(arr, out)
    return EulerianFamily(arr, family)


def _first_orthant_face(arr, zero_set):
    """The face of the coordinate arrangement: 0 on zero_set, + elsewhere."""
    return arrg.face_of_point(arr, tuple(0 if i in zero_set else 1 for i in range(1, arr.d + 1)))


def gamma_element(d, t):
    """Characteristic element of the coordinate arrangement supported on the
    first orthant: coefficient (t-1)^{dim F} on each first-orthant face."""
    t = Fraction(t)
    if t == 1:
        raise ValueError("gamma requires t != 1")
    arr = arrg.coordinate(d)
    out = {}
    for f in arrg.faces(arr):
        if f.neg:
            continue
        out[f] = (t - 1) ** f.dim
    return TitsElement(arr, out)


@lru_cache(maxsize=None)
def gamma_family(d):
    """The Eulerian family of the gamma_t for the coordinate arrangement (one
    family for every t != 1).

    E_{X_S} = sum_{T subset S} (-1)^{|S minus T|} H_{F_T}, where F_T is the
    intersection of the first orthant with the flat X_T.
    """
    arr = arrg.coordinate(d)
    family = {}
    for x in arrg.flats(arr):
        s = sorted(e for e in arrg.flat_blocks(x)[0] if e > 0)
        out = {}
        for r in range(len(s) + 1):
            for sub in itertools.combinations(s, r):
                f = _first_orthant_face(arr, frozenset(sub))
                sign = -1 if (len(s) - r) % 2 else 1
                out[f] = out.get(f, Fraction(0)) + sign
        family[x] = TitsElement(arr, out)
    return EulerianFamily(arr, family)


def family_reconstructs(element, family, t):
    """True iff element = sum_X t^{dim X} E_X exactly."""
    t = Fraction(t)
    pairs = [(e, t ** x.dim) for x, e in family.elements.items()] + [(element, -1)]
    return TitsElement.linear(element.arr, pairs, attrgetter("terms")).is_zero()
