"""Exact linear algebra over the rationals, and the sparse rational
combinations that every algebra of the package is built on.

Matrices are sequences of rows of ``int`` or ``fractions.Fraction``.
Elimination clears denominators and works on integer rows; ``Fraction``s
appear only in the solutions it returns.  A matrix solved against many
right-hand sides is eliminated once, as a ``Factorization``.  No floating
point anywhere.

Every product, action and coordinate map of the algebras extends one map
on basis keys linearly or bilinearly, through ``Combination.linear`` or
``Combination.bilinear``: the two entries to one kernel that scales the
coefficients to integers, adds integers per key and divides once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


class Combination:
    """A finite rational combination over a basis of hashable keys.

    ``terms`` maps each key to its nonzero ``Fraction`` coefficient; ``arr``
    tags what the keys live over, and only combinations with equal tags
    are added.  Every key goes through ``_key`` in one place, the kernel
    ``_sum``, which the constructor (on outside input) and both extension
    entries share:

    * ``linear(arr, items, image)`` is sum c * image(k) over the pairs
      (k, c) of ``items``, where image(k) is a dict from keys to rational
      coefficients;
    * ``bilinear(arr, left, right, op)`` is sum a * b * [op(k, l)] over the
      terms k: a of ``left`` and l: b of ``right``.

    Each product, action and coordinate map of the subclasses is one call to
    an entry, which looks its operation up at call time.
    """

    __slots__ = ("arr", "terms")

    def __init__(self, arr, terms=None):
        self.arr = arr
        terms = terms or {}
        den, ints = to_integers([Fraction(c) for c in terms.values()])
        self.terms = self._sum(den, ((k, v) for k, v in zip(terms, ints) if v))

    @staticmethod
    def _key(k):
        return k

    @classmethod
    def _sum(cls, den, weighted):
        """The terms of (1/den) * sum v * [k] over the pairs (k, v) of
        ``weighted``, each v an integer and each k sent through ``_key``."""
        key = cls._key
        if key is not Combination._key:
            weighted = ((key(k), v) for k, v in weighted)
        out = {}
        for k, v in weighted:
            out[k] = out.get(k, 0) + v
        return {k: Fraction(v, den) for k, v in out.items() if v}

    @classmethod
    def linear(cls, arr, items, image):
        """sum c * image(k) over the pairs (k, c) of ``items``; the values of
        every image are scaled to integers by one common denominator."""
        items = list(items)
        den_c, ints_c = to_integers([c for _, c in items])
        images = [image(k) for k, _ in items]
        den_w = lcm(*[w.denominator for img in images for w in img.values()])
        return cls._make(arr, cls._sum(den_c * den_w, (
            (k, c * w.numerator * (den_w // w.denominator))
            for img, c in zip(images, ints_c)
            for k, w in img.items()
        )))

    @classmethod
    def bilinear(cls, arr, left, right, op):
        """sum a * b * [op(k, l)] over the terms k: a of the dict ``left``
        and l: b of the dict ``right``."""
        den_a, ints_a = to_integers(list(left.values()))
        den_b, ints_b = to_integers(list(right.values()))
        right = list(zip(right, ints_b))
        return cls._make(arr, cls._sum(den_a * den_b, (
            (op(k, l), a * b) for k, a in zip(left, ints_a) for l, b in right
        )))

    @classmethod
    def _make(cls, arr, terms):
        self = object.__new__(cls)
        self.arr = arr
        self.terms = terms
        return self

    @classmethod
    def zero(cls, arr):
        return cls._make(arr, {})

    def coeff(self, key):
        return self.terms.get(self._key(key), _ZERO)

    def _check(self, other):
        if self.arr != other.arr:
            raise ValueError(f"{type(self).__name__}s over different arrangements")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                c += out[k]
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return self._make(self.arr, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._make(self.arr, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self.zero(self.arr)
        return self._make(self.arr, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.arr == other.arr and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.arr!r}, {len(self.terms)} terms)"


def to_integers(values):
    """(den, ints): the least common denominator of the rationals ``values``
    and the list of the integers ``den * x``."""
    den = lcm(*[x.denominator for x in values])
    return den, [x.numerator * (den // x.denominator) for x in values]


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows, width):
    """Row-reduce ``rows`` over the integers; return (reduced rows, pivot
    columns, the index in ``rows`` of each pivot row).  Each row is cleared
    of denominators, and each update ``b*row - a*pivot_row`` is divided by
    the gcd of the row, so the rows stay primitive and the pivots and zero
    pattern are those of Gauss-Jordan elimination over the rationals.  The
    pivot rows are independent and span the rows of ``rows``."""
    mat = [_primitive(to_integers(row)[1]) for row in rows]
    origin = list(range(len(mat)))
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        origin[r], origin[pivot] = origin[pivot], origin[r]
        prow = mat[r]
        b = prow[c]
        for i, row in enumerate(mat):
            a = row[c]
            if a and i != r:
                mat[i] = _primitive([b * x - a * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots, origin[:r]


def rank(rows):
    """The rank of the rows, counted by the forward elimination of
    ``IncrementalRank``."""
    rows = list(rows)
    tracker = IncrementalRank(len(rows[0]) if rows else 0)
    for row in rows:
        tracker.add(row)
    return tracker.rank


class Factorization(tuple):
    """The rows of a matrix M, factored once to solve M x = b for many
    right-hand sides.

    One elimination picks a maximal set S of independent rows and their
    pivot columns P, so M[S, P] is invertible; its inverse is kept as one
    common denominator and sparse integer rows, and every row of M as its
    denominator and sparse integer row.  ``solve`` sets x_P = M[S, P]^-1 b_S
    and the free columns to 0, then checks every row of M x = b in
    integers: the rows in S span the row space, so x satisfies every row
    exactly when b lies in the column space.  As a tuple it is the rows of
    M, so it can stand wherever the matrix does.
    """

    def __new__(cls, rows):
        self = super().__new__(cls, map(tuple, rows))
        if not self:
            raise ValueError("empty system")
        self.width = len(self[0])
        _, self._pivots, basis = _rref(self, self.width)
        r = self.rank = len(basis)
        # [M[S, P] | I] reduces to rows [b_k e_k | w_k], and w_k / b_k is
        # row k of M[S, P]^-1 (each row was scaled before the elimination,
        # the identity part with it, so the scale cancels).  Its entries are
        # kept against the rows of M they multiply.
        block = [
            [self[i][c] for c in self._pivots] + [int(j == k) for j in range(r)]
            for k, i in enumerate(basis)
        ]
        reduced = _rref(block, r)[0]
        self._den = den = lcm(*[row[k] for k, row in enumerate(reduced)])
        self._inverse = [
            [(i, x * (den // row[k])) for i, x in zip(basis, row[r:]) if x]
            for k, row in enumerate(reduced)
        ]
        self._checks = [
            (den_i, [(c, v) for c, v in enumerate(ints) if v])
            for den_i, ints in map(to_integers, self)
        ]
        return self

    def solve(self, rhs):
        """The unique x with M x = rhs; raise ValueError unless it exists and
        is unique."""
        if len(rhs) != len(self):
            raise ValueError("right-hand side of the wrong length")
        den_b, b = to_integers(rhs)
        # x = y / (den * den_b)
        y = [0] * self.width
        for c, inv_row in zip(self._pivots, self._inverse):
            y[c] = sum(v * b[i] for i, v in inv_row)
        den = self._den
        for (den_i, row), b_i in zip(self._checks, b):
            if sum(v * y[c] for c, v in row) != den_i * den * b_i:
                raise ValueError("inconsistent linear system")
        if self.rank < self.width:
            raise ValueError("underdetermined linear system")
        den *= den_b
        return tuple(Fraction(v, den) for v in y)


def solve_unique(rows, rhs):
    """Solve M x = rhs; raise ValueError unless the solution exists and is
    unique.  A ``Factorization`` passed as ``rows`` is not eliminated again."""
    if not isinstance(rows, Factorization):
        rows = Factorization(rows)
    return rows.solve(rhs)


class IncrementalRank:
    """Maintains the rank of a growing set of rational vectors.

    ``add(vec)`` returns True when the vector enlarged the span.
    """

    def __init__(self, width):
        self.width = width
        self.rows = []  # primitive integer rows, each zero at the earlier pivots
        self.pivots = []

    def add(self, vec):
        _, vec = to_integers(vec)
        for row, p in zip(self.rows, self.pivots):
            a = vec[p]
            if a:
                b = row[p]
                vec = _primitive([b * x - a * y for x, y in zip(vec, row)])
        for c in range(self.width):
            if vec[c]:
                self.rows.append(_primitive(vec))
                self.pivots.append(c)
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)
